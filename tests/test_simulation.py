import math

import numpy as np
import pytest

from netadjust.simulation import (
    Cohort,
    ScenarioConfig,
    derive_tables,
    excess_hazard,
    generate_cohort,
    make_registry,
    run_experiment,
    run_replicate,
    true_net_survival,
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


class TestDeriveTables:
    def test_no_cancer_cohort(self):
        t_other = np.array([2.5, 3.5, 3.7, 10.2, 0.5, 1.5, 2.2, 7.7])
        cohort = manual_cohort(
            np.full(8, 1e9), t_other, np.ones(8), gender=[0, 1, 0, 1, 0, 1, 0, 1]
        )
        lt, inc = derive_tables(cohort)
        assert all(v == 0.0 for v in inc.cells.values())
        # q(2) for gender 0: alive at 2 are deaths at 2.5, 3.7, 2.2 -> 3; deaths in [2,3): 2
        assert lt.q(2, 1962, ("0",)) == pytest.approx(2.0 / 3.0)

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
            lt2.q(a, 1960 + a, ("0",)) > lt1.q(a, 1960 + a, ("0",))
            for a in range(65, 76)
        )
        assert worse >= 9

    def test_dataset2_ir_exceeds_dataset1_everywhere(self):
        c1 = generate_cohort(ScenarioConfig(dataset=1, cohort_size=200_000), 13)
        c2 = generate_cohort(ScenarioConfig(dataset=2, cohort_size=200_000), 13)
        _, i1 = derive_tables(c1)
        _, i2 = derive_tables(c2)
        for a in range(0, 85):
            assert i2.ir(a, 1960 + a, ("1",)) > i1.ir(a, 1960 + a, ("1",))

    def test_person_years_conventions_differ(self):
        cohort = generate_cohort(SMALL, 2)
        _, mid = derive_tables(cohort, "midyear")
        _, exact = derive_tables(cohort, "exact")
        diffs = [
            abs(mid.ir(a, 1960 + a, ("0",)) - exact.ir(a, 1960 + a, ("0",)))
            for a in range(50, 70)
        ]
        assert max(diffs) > 0.0

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError):
            derive_tables(generate_cohort(SMALL, 2), "weekly")


class TestMakeRegistry:
    def test_observed_time_and_event(self):
        cohort = manual_cohort([70.0, 70.0], [90.0, 90.0], [3.0, 3.0])
        frame = make_registry(cohort, censor_seed=5, window=(60.0, 75.0), censor_max=15.0)
        rng = np.random.default_rng(5)
        censor = rng.uniform(0.0, 15.0, 2)
        for i in range(2):
            assert frame.time[i] == pytest.approx(min(3.0, censor[i]))
            assert frame.event[i] == (3.0 <= censor[i])
        assert frame.age[0] == 70 and frame.year[0] == 2030

    def test_window_boundary_excludes(self):
        cohort = manual_cohort([59.9, 60.0, 74.999, 75.0], np.full(4, 120.0), np.full(4, 2.0))
        frame = make_registry(cohort, 1, (60.0, 75.0))
        assert frame.n == 2
        assert sorted(frame.age.tolist()) == [60, 74]

    def test_window_is_subset_of_full(self):
        cohort = generate_cohort(SMALL, 3)
        full = make_registry(cohort, 17, None)
        window = make_registry(cohort, 17, (60.0, 75.0))
        mask = (full.age >= 60) & (full.age < 75)
        assert np.array_equal(window.time, full.time[mask])
        assert np.array_equal(window.event, full.event[mask])

    def test_pipeline_closure_no_clamping_inside_window(self):
        cohort = generate_cohort(ScenarioConfig(dataset=1, cohort_size=20_000), 4)
        lt, _ = derive_tables(cohort)
        frame = make_registry(cohort, 4, (60.0, 75.0))
        for a, y, c in zip(frame.age, frame.year, frame.demo_code):
            assert (int(a), int(y), frame.demo_vocab[int(c)]) in lt.cells


class TestTruth:
    def test_matches_published_values(self):
        for ds, y10 in ((1, 0.383), (2, 0.384)):
            cfg = ScenarioConfig(dataset=ds)
            truth = true_net_survival(cfg)
            assert truth[3.0] == pytest.approx(0.748 if ds == 1 else 0.749, abs=0.002)
            assert truth[10.0] == pytest.approx(y10, abs=0.002)

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
