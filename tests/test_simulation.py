import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from netadjust import simulation
from netadjust.adjustment import AdjustmentEngine, SolverError
from netadjust.diagnostics import Diagnostics
from netadjust.incidence import IR_CLIP
from netadjust.registry import MAX_AGE
from netadjust.simulation import (
    Cohort,
    ReplicateError,
    ScenarioConfig,
    TRUTH_PIECE,
    _draw_ages,
    _provider_window,
    _replicate_task,
    derive_tables,
    excess_hazard,
    generate_cohort,
    make_registry,
    run_experiment,
    run_replicate,
    true_net_survival,
)

from conftest import table_cells
from oracles import (
    derive_tables_reference,
    draw_potentials_reference,
    generate_cohort_reference,
    ir_at,
    make_registry_reference,
    q_at,
    true_net_survival_reference,
    true_noncancer_survival,
)

SMALL = ScenarioConfig(dataset=1, cohort_size=4000, reps=2, n_truth=50_000)


def manual_cohort(t_diag, t_other, t_cancer, gender=None, birth_year=1960):
    t_diag = np.asarray(t_diag, float)
    t_other = np.asarray(t_other, float)
    t_cancer = np.asarray(t_cancer, float)
    gender = np.zeros(t_diag.shape[0], np.int8) if gender is None else np.asarray(gender, np.int8)
    diagnosed = t_diag < t_other
    ttd = np.where(diagnosed, np.minimum(t_cancer, t_other - t_diag), np.nan)
    death = np.where(diagnosed, t_diag + ttd, t_other)
    return Cohort(birth_year, gender, t_diag, t_other, t_cancer, diagnosed, ttd, death)


class TestHazard:
    def test_baseline_normalization(self):
        assert float(excess_hazard(60, 2000, 0)) == pytest.approx(0.1, rel=1e-14)

    def test_ratios(self):
        assert float(excess_hazard(67.5, 2000, 0)) == pytest.approx(0.12, rel=1e-12)
        assert float(excess_hazard(60, 2015, 0)) == pytest.approx(0.095, rel=1e-12)
        assert float(excess_hazard(60, 2000, 1)) == pytest.approx(0.08, rel=1e-12)

    def test_extreme_age_saturates_without_nan(self):
        vals = excess_hazard(np.array([1e6, 60.0]), np.array([1e6 + 1960, 2000.0]), np.array([0, 0]))
        assert np.isinf(vals[0]) and vals[1] == pytest.approx(0.1)


class TestGenerateCohort:
    def test_deterministic(self):
        a = generate_cohort(SMALL, 7)
        b = generate_cohort(SMALL, 7)
        assert np.array_equal(a.t_diag, b.t_diag)
        assert np.array_equal(a.death_age, b.death_age)

    @pytest.mark.parametrize("dataset", [1, 2, 3, 4])
    def test_equals_per_subject_reference(self, dataset):
        # the hazard table gathered for the diagnosed equals the hazard of
        # every subject, bit for bit; t_cancer is NaN where not diagnosed
        for seed in (1, 2, 3):
            cfg = ScenarioConfig(dataset=dataset, cohort_size=20_000)
            got, want = generate_cohort(cfg, seed), generate_cohort_reference(cfg, seed)
            for name in ("gender", "t_diag", "t_other", "diagnosed", "time_to_death", "death_age"):
                assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name
            assert np.array_equal(got.t_cancer, np.where(want.diagnosed, want.t_cancer, np.nan), equal_nan=True)

    @pytest.mark.parametrize("dataset", [1, 2, 3, 4])
    def test_draws_equal_the_weibull_and_exponential_reference(self, dataset):
        # standard exponential draws are Weibull(1) and exponential(1) draws
        # bit for bit, and leave the generator's stream where they did; the
        # Weibull(2) ages before scaling, the square roots of the second
        # 5,000 exponentials, lie within 1 ULP of numpy's own Weibull(2)
        # draws from the same stream, which differ in few of them and leave
        # the generator in the same state
        for seed in (0, 5, 77):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = _draw_ages(rng, dataset, 0, 5000), _draw_ages(rng, dataset, 1, 5000)
            for got, want in zip(drawn, draw_potentials_reference(ref, dataset, 5000)):
                assert np.array_equal(got, want)
            if dataset in (1, 2):
                raw, numpy_law = np.random.default_rng(seed), np.random.default_rng(seed)
                raw.standard_exponential(5000), numpy_law.standard_exponential(5000)
                root, weibull = np.sqrt(raw.standard_exponential(5000)), numpy_law.weibull(2.0, 5000)
                assert np.array_equal(drawn[1], root / 1.0e-2)
                assert np.all(np.abs(weibull - root) <= np.spacing(root))
                assert np.count_nonzero(weibull != root) <= 0.005 * 5000
                assert numpy_law.bit_generator.state == rng.bit_generator.state
            assert np.array_equal(rng.standard_exponential(5000), ref.exponential(1.0, 5000))
            assert np.array_equal(rng.random(3), ref.random(3))

    def test_gender_balance(self):
        cohort = generate_cohort(ScenarioConfig(dataset=1, cohort_size=50_000), 3)
        p = cohort.gender.mean()
        assert abs(p - 0.5) < 3 * math.sqrt(0.25 / 50_000)

    def test_weibull_other_cause_mean(self):
        cohort = generate_cohort(ScenarioConfig(dataset=1, cohort_size=50_000), 11)
        mean = cohort.t_other.mean()
        expected = math.gamma(1.5) / 1.0e-2
        sd = expected * math.sqrt(math.gamma(2.0) / math.gamma(1.5) ** 2 - 1.0)
        assert abs(mean - expected) < 3 * sd / math.sqrt(50_000)

    def test_cancer_time_only_meaningful_for_diagnosed(self):
        cohort = generate_cohort(SMALL, 5)
        assert np.isnan(cohort.time_to_death[~cohort.diagnosed]).all()
        assert np.isfinite(cohort.time_to_death[cohort.diagnosed]).all()

    def test_dataset2_more_window_diagnoses_than_dataset1(self):
        c1 = generate_cohort(ScenarioConfig(dataset=1, cohort_size=50_000), 21)
        c2 = generate_cohort(ScenarioConfig(dataset=2, cohort_size=50_000), 21)

        def count(c):
            return int((c.diagnosed & (c.t_diag >= 60) & (c.t_diag < 75)).sum())

        assert count(c2) > count(c1)


def outcome(call, *args):
    """`call(*args)`, or the type and message of the error it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def same_tables(got, want):
    if isinstance(want[0], type):
        return got == want
    return all(table_cells(g) == table_cells(w) for g, w in zip(got, want))


QUARTER_AGES = st.integers(0, 24).map(lambda q: q / 4.0)


class TestDeriveTables:
    @given(
        st.integers(1, 4), st.integers(0, 10**6), st.integers(1, 400),
        st.sampled_from(["midyear", "exact"]), st.integers(0, 140),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_per_gender_reference(self, dataset, seed, n, person_years, max_age):
        cohort = generate_cohort(ScenarioConfig(dataset=dataset, cohort_size=n), seed)
        got = outcome(derive_tables, cohort, person_years, max_age)
        assert same_tables(got, outcome(derive_tables_reference, cohort, person_years, max_age))

    @given(
        st.lists(st.tuples(QUARTER_AGES, QUARTER_AGES, st.integers(0, 1)), min_size=1, max_size=12),
        st.sampled_from(["midyear", "exact"]), st.integers(0, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_hand_built_cohorts_equal_the_reference(self, subjects, person_years, max_age):
        # ages on a quarter-year grid: diagnoses exactly at an integer age
        # with nobody left after it have no exact person-years, and cohorts
        # of one gender are common
        t_diag, t_other, gender = (np.array(column) for column in zip(*subjects))
        cohort = manual_cohort(t_diag, t_other, np.ones(len(subjects)), gender=gender)
        got = outcome(derive_tables, cohort, person_years, max_age)
        assert same_tables(got, outcome(derive_tables_reference, cohort, person_years, max_age))

    def test_error_messages(self):
        one_gender = manual_cohort([1e9, 1e9], [3.5, 4.5], [1.0, 1.0], gender=[1, 1])
        with pytest.raises(ValueError, match=r"^cohort has no subjects with gender 0$"):
            derive_tables(one_gender)
        # gender 1 is diagnosed at exactly 2.0 and nobody is free after it
        cohort = manual_cohort([1e9, 2.0], [3.5, 4.5], [1.0, 1.0], gender=[0, 1])
        with pytest.raises(ValueError, match=r"^diagnoses without person-years at age 2, gender 1$"):
            derive_tables(cohort, "exact")
        # the mid-year convention counts half a year for it: IR 2, clipped
        diag = Diagnostics()
        assert table_cells(derive_tables(cohort, "midyear", diagnostics=diag)[1])[(2, 1962, ("1",))] == IR_CLIP
        assert diag.as_dict() == {"incidence_clip": 1}

    def test_no_cancer_cohort(self):
        t_other = np.array([2.5, 3.5, 3.7, 10.2, 0.5, 1.5, 2.2, 7.7])
        cohort = manual_cohort(
            np.full(8, 1e9), t_other, np.ones(8), gender=[0, 1, 0, 1, 0, 1, 0, 1]
        )
        lt, inc = derive_tables(cohort)
        assert all(v == 0.0 for v in table_cells(inc).values())
        # q(2) for gender 0: alive at 2 are deaths at 2.5, 3.7, 2.2 -> 3; deaths in [2,3): 2
        assert q_at(lt, 2, 1962, ("0",)) == pytest.approx(2.0 / 3.0)

    def test_table_ends_at_last_populated_age(self):
        cohort = manual_cohort(
            np.full(4, 1e9), np.array([1.2, 2.8, 2.1, 0.3]), np.ones(4),
            gender=[0, 0, 1, 1],
        )
        lt, _ = derive_tables(cohort)
        assert lt.age_max == 2

    def test_dataset2_has_higher_q_at_cancer_ages(self):
        c1 = generate_cohort(ScenarioConfig(dataset=1, cohort_size=50_000), 9)
        c2 = generate_cohort(ScenarioConfig(dataset=2, cohort_size=50_000), 9)
        lt1, _ = derive_tables(c1)
        lt2, _ = derive_tables(c2)
        worse = sum(
            q_at(lt2, a, 1960 + a, ("0",)) > q_at(lt1, a, 1960 + a, ("0",))
            for a in range(65, 76)
        )
        assert worse >= 9

    def test_dataset2_ir_exceeds_dataset1_everywhere(self):
        c1 = generate_cohort(ScenarioConfig(dataset=1, cohort_size=200_000), 13)
        c2 = generate_cohort(ScenarioConfig(dataset=2, cohort_size=200_000), 13)
        _, i1 = derive_tables(c1)
        _, i2 = derive_tables(c2)
        for a in range(0, 85):
            assert ir_at(i2, a, 1960 + a, ("1",)) > ir_at(i1, a, 1960 + a, ("1",))

    def test_person_years_conventions_differ(self):
        cohort = generate_cohort(SMALL, 2)
        _, mid = derive_tables(cohort, "midyear")
        _, exact = derive_tables(cohort, "exact")
        diffs = [
            abs(ir_at(mid, a, 1960 + a, ("0",)) - ir_at(exact, a, 1960 + a, ("0",)))
            for a in range(50, 70)
        ]
        assert max(diffs) > 0.0

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError):
            derive_tables(generate_cohort(SMALL, 2), "weekly")


class TestMakeRegistry:
    def test_observed_time_and_event(self):
        cohort = manual_cohort([70.0, 70.0], [90.0, 90.0], [3.0, 3.0])
        frame, = make_registry(cohort, censor_seed=5, windows=((60.0, 75.0),), censor_max=15.0)
        rng = np.random.default_rng(5)
        censor = rng.uniform(0.0, 15.0, 2)
        for i in range(2):
            assert frame.time[i] == pytest.approx(min(3.0, censor[i]))
            assert frame.event[i] == (3.0 <= censor[i])
        assert frame.age[0] == 70 and frame.year[0] == 2030

    def test_window_boundary_excludes(self):
        cohort = manual_cohort([59.9, 60.0, 74.999, 75.0], np.full(4, 120.0), np.full(4, 2.0))
        frame, = make_registry(cohort, 1, ((60.0, 75.0),))
        assert frame.n == 2
        assert sorted(frame.age.tolist()) == [60, 74]

    def test_window_is_subset_of_full(self):
        cohort = generate_cohort(SMALL, 3)
        full, = make_registry(cohort, 17, ((0.0, MAX_AGE + 1.0),))   # every age a registry may hold
        window, = make_registry(cohort, 17, ((60.0, 75.0),))
        mask = (full.age >= 60) & (full.age < 75)
        assert np.array_equal(window.time, full.time[mask])
        assert np.array_equal(window.event, full.event[mask])

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_windows_of_one_draw_equal_the_one_window_reference(self, seed):
        # a replicate's two registries, cut from one censoring draw, equal
        # one draw per window
        cfg = ScenarioConfig(dataset=2, cohort_size=20_000)
        cohort = generate_cohort(cfg, seed)
        windows = (cfg.diag_window, _provider_window(cfg), (61.5, 62.25))
        for got, window in zip(make_registry(cohort, seed + 5, windows, cfg.censor_max), windows):
            want = make_registry_reference(cohort, seed + 5, window, cfg.censor_max)
            for name in ("age", "year", "demo_code", "time", "event"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert got.demo_vocab == want.demo_vocab

    def test_pipeline_closure_no_clamping_inside_window(self):
        cohort = generate_cohort(ScenarioConfig(dataset=1, cohort_size=20_000), 4)
        lt, _ = derive_tables(cohort)
        frame, = make_registry(cohort, 4, ((60.0, 75.0),))
        for a, y, c in zip(frame.age, frame.year, frame.demo_code):
            assert (int(a), int(y), frame.demo_vocab[int(c)]) in table_cells(lt)


class TestTruth:
    def test_matches_published_values(self):
        for ds, y10 in ((1, 0.383), (2, 0.384)):
            cfg = ScenarioConfig(dataset=ds)
            truth = true_net_survival(cfg)
            assert truth[3.0] == pytest.approx(0.748 if ds == 1 else 0.749, abs=0.002)
            assert truth[10.0] == pytest.approx(y10, abs=0.002)

    @given(
        st.integers(1, 4), st.integers(0, 10**6),
        st.sampled_from([1, TRUTH_PIECE - 1, TRUTH_PIECE, TRUTH_PIECE + 1, 2 * TRUTH_PIECE,
                         3 * TRUTH_PIECE - 1, 3 * TRUTH_PIECE + 17]),
    )
    @example(2, 20230316, 500_000)
    @settings(max_examples=30, deadline=None)
    def test_pieces_equal_one_draw(self, dataset, base_seed, n_truth):
        # the truth drawn in pieces equals the whole cohort drawn at once, bit
        # for bit, with the same warnings where nobody is in the window
        cfg = ScenarioConfig(dataset=dataset, base_seed=base_seed, n_truth=n_truth)

        def run(truth):
            """Each year with its value's bits (NaN reads "nan"), and the warnings."""
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                values = truth(cfg)
            return [(y, v.hex()) for y, v in values.items()], [str(w.message) for w in caught]

        assert run(true_net_survival) == run(true_net_survival_reference)

    def test_value_at_zero(self):
        cfg = ScenarioConfig(dataset=1, n_truth=10_000)
        assert true_net_survival(cfg, years=(0.0,))[0.0] == 1.0

    def test_noncancer_truth_dataset1(self):
        # Weibull(0.01, 2) ratio
        v = true_noncancer_survival(ScenarioConfig(dataset=1), 60, 10.0)
        assert v == pytest.approx(math.exp(-(0.7 ** 2) + (0.6 ** 2)), rel=1e-12)

    def test_noncancer_truth_lognormal(self):
        v = true_noncancer_survival(ScenarioConfig(dataset=3), 60, 0.0)
        assert v == pytest.approx(1.0, rel=1e-12)


class TestExperiment:
    def test_single_replicate_rmse_is_absolute_error(self):
        res = run_experiment(ScenarioConfig(dataset=1, cohort_size=4000, reps=1, n_truth=50_000))
        for row in res.summary_rows():
            expected = abs(row["ave"] - row["true"]) * 100.0
            assert row["rmse_x100"] == pytest.approx(expected, abs=1e-12)

    def test_parallel_matches_serial(self):
        serial = run_experiment(SMALL, jobs=1)
        parallel = run_experiment(SMALL, jobs=2)
        for m in serial.methods:
            assert np.array_equal(serial.estimates[m], parallel.estimates[m])
        assert serial.counters == parallel.counters

    def test_replicate_payload(self):
        r = run_replicate(SMALL, 0)
        assert set(r["values"]) == {"naive", "adjusted"}
        assert r["patients"] > 0 and r["events"] > 0
        again = run_replicate(SMALL, 0)
        assert r["values"] == again["values"]

    def test_one_risk_set_per_replicate(self, risk_set_builds):
        r = run_replicate(SMALL, 0)
        assert len(risk_set_builds) == 1
        assert risk_set_builds[0].n == r["patients"]

    def test_bad_dataset_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(dataset=5)

    def test_horizon_must_cover_years(self):
        with pytest.raises(ValueError):
            ScenarioConfig(dataset=1, horizon=8, years=(3.0, 10.0))

    @pytest.mark.parametrize("setting, message", [
        ({"reps": 0}, r"^reps must be at least 1, got 0$"),
        ({"cohort_size": 0}, r"^cohort_size must be at least 1, got 0$"),
        ({"cohort_size": -5}, r"^cohort_size must be at least 1, got -5$"),
        ({"diag_window": (75.0, 60.0)}, r"^diag_window must satisfy 0 <= lo < hi, got \(75\.0, 60\.0\)$"),
        ({"diag_window": (60.0, 60.0)}, r"^diag_window must satisfy 0 <= lo < hi"),
        ({"diag_window": (-1.0, 60.0)}, r"^diag_window must satisfy 0 <= lo < hi"),
        ({"censor_max": 0.0}, r"^censor_max must be positive, got 0\.0$"),
        ({"censor_max": float("nan")}, r"^censor_max must be positive, got nan$"),
        ({"n_truth": 0}, r"^n_truth must be at least 1, got 0$"),
    ])
    def test_bad_settings_rejected_up_front(self, setting, message):
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(**setting)

    @pytest.mark.parametrize("years", [(3.0, float("nan")), (float("inf"),), (-1.0, 5.0)])
    def test_report_years_must_be_finite_and_non_negative(self, years):
        with pytest.raises(ValueError, match=r"^report years must be finite and non-negative, got \("):
            ScenarioConfig(years=years)

    def test_report_years_must_not_be_empty(self):
        with pytest.raises(ValueError, match=r"^at least one report year is required, got years=\(\)$"):
            ScenarioConfig(years=())

    def test_smallest_settings_accepted(self):
        cfg = ScenarioConfig(reps=1, cohort_size=1, diag_window=(0.0, 0.5), censor_max=1e-9)
        assert (cfg.reps, cfg.cohort_size) == (1, 1)


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


class TestFailedReplicates:
    @pytest.mark.parametrize("stage, target", [
        ("generate_cohort", "generate_cohort"),
        ("derive_tables", "derive_tables"),
        ("risk_set", "RiskSetSummary"),
        ("naive/provider", "diagonal_survival"),
        ("adjusted/provider", "AdjustmentEngine"),
        ("adjusted/estimate", "pohar_perme"),
    ])
    def test_excluded_entry_names_the_stage(self, monkeypatch, stage, target):
        monkeypatch.setattr(simulation, target, _raise(ValueError("boom")))
        methods = ("adjusted",) if stage.startswith("adjusted") else ("naive",)
        assert _replicate_task((SMALL, 0, methods)) == {"rep": 0, "error": f"{stage}: ValueError: boom"}

    def test_solver_failure_names_the_solve_stage(self, monkeypatch):
        monkeypatch.setattr(AdjustmentEngine, "solve", _raise(SolverError("r(2)=1e-09 at cell")))
        out = _replicate_task((SMALL, 0, ("naive", "adjusted")))
        assert out == {"rep": 0, "error": "adjusted/solve: SolverError: r(2)=1e-09 at cell"}

    def test_registry_failure_and_cause_kept(self, monkeypatch):
        monkeypatch.setattr(simulation, "make_registry", _raise(KeyError("window")))
        with pytest.raises(ReplicateError, match=r"^make_registry: KeyError: 'window'$") as info:
            run_replicate(SMALL, 0, ("naive",))
        assert isinstance(info.value.__cause__, KeyError)

    def test_experiment_excludes_only_the_failing_replicate(self, monkeypatch):
        generate = simulation.generate_cohort

        def flaky(cfg, seed):
            if seed == cfg.base_seed + 1:
                raise ValueError("cohort draw failed")
            return generate(cfg, seed)

        monkeypatch.setattr(simulation, "generate_cohort", flaky)
        res = run_experiment(SMALL, methods=("naive",), jobs=1)
        assert res.excluded == [(1, "generate_cohort: ValueError: cohort draw failed")]
        assert res.estimates["naive"].shape == (1, len(SMALL.years))
        assert res.counters["replicate_excluded"] == 1
