import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from netadjust import adjustment
from netadjust.adjustment import (
    AdjustmentEngine,
    SolverError,
    prevalent_case_survival,
    solve_noncancer_survival,
)
from netadjust.diagnostics import Diagnostics
from netadjust.estimators import RiskSetSummary, pohar_perme, population_survival
from netadjust.incidence import IncidenceTable, PrevalenceCalculator, PrevalenceError
from netadjust.lifetable import LifeTable, diagonal_survival
from netadjust.registry import StratumKey
from netadjust.survival_provider import OverallSurvivalProvider

from conftest import (
    ClosedFormSurvival,
    LifeTableSP,
    cell_table,
    clip_guard_counts,
    const_survival,
    fit,
    flat_incidence,
    flat_life_table,
    stratum_cells,
    toy_frame,
)
from oracles import (
    ScalarIngredients,
    ScalarPrevalence,
    cell_keys,
    lag_table,
    lookup_keys,
    resolve_stratum,
    solve_noncancer_survival_triangular,
    survival_read_counters,
    survival_reads,
    triangular_cells,
    triangular_residuals,
)
from synthetic import BASE_KEY, SyntheticIngredients


def toy_registry():
    return toy_frame([
        (60, 2020, "0", 2.0, 1),
        (60, 2020, "0", 5.5, 0),
        (63, 2023, "1", 1.2, 1),
        (63, 2023, "1", 9.0, 0),
    ])


class TestPrevalentCaseSurvival:
    def test_unit_survival_inputs_give_one(self):
        weights = np.array([0.4, 0.6])
        matrix = np.ones((2, 5))
        curve = prevalent_case_survival(np.array([weights @ matrix]))
        assert np.all(curve == 1.0)

    def test_point_mass_gives_conditional_survival(self):
        # single diagnosis year: survival is the conditional continuation
        # of that stratum's curve past the already-survived lag
        rate, s0 = 0.12, 7
        lt = flat_life_table(0.0)
        cells = {(53, 2013, ("0",)): 0.05}
        engine = AdjustmentEngine(
            lt, cell_table(IncidenceTable, cells), const_survival(rate),
            horizon=10, lag_eval="year_start",
        )
        key = StratumKey(60, 2020, ("0",))
        grid = engine.prevalent_grid(stratum_cells([key]))[0]
        for t in range(11):
            expected = math.exp(-rate * (t + s0)) / math.exp(-rate * s0)
            assert grid[t] == pytest.approx(expected, abs=1e-12)

    def test_starts_at_one_and_monotone(self):
        engine = AdjustmentEngine(
            flat_life_table(0.01), flat_incidence(0.02), const_survival(0.1), horizon=8
        )
        grid = engine.prevalent_grid(stratum_cells([StratumKey(50, 2010, ("0",))]))[0]
        assert grid[0] == 1.0
        assert np.all(np.diff(grid) <= 1e-12)
        assert np.array_equal(prevalent_case_survival(np.array([grid])), [grid])


class TestSolver:
    def test_null_adjustment_matches_diagonal_exactly(self):
        lt = flat_life_table(0.02)
        engine = AdjustmentEngine(lt, cell_table(IncidenceTable, {}), const_survival(0.1), horizon=12)
        key = StratumKey(65, 2000, ("0",))
        solution = engine.solve(stratum_cells([key]))
        expected = diagonal_survival(lt, stratum_cells([key]), 12)[0]
        assert np.array_equal(solution.values[0], expected)
        assert clip_guard_counts(solution) == [(0, 0)]

    def test_first_step_closed_form(self):
        engine = AdjustmentEngine(
            flat_life_table(0.03), flat_incidence(0.02), const_survival(0.1), horizon=4
        )
        key = StratumKey(40, 2005, ("0",))
        alpha = engine.alpha(stratum_cells([key]))[0]
        prev = engine.prevalent_grid(stratum_cells([key]))[0]
        lt_grid = engine.lt_survival_grid(stratum_cells([key]))[0]
        expected = (lt_grid[1] - alpha * prev[1]) / (1.0 - alpha)
        assert engine.solve(stratum_cells([key])).values[0][1] == pytest.approx(expected, abs=1e-14)

    def test_recursion_matches_triangular_oracle(self):
        for seed in range(200):
            ing = SyntheticIngredients(seed)
            a = solve_noncancer_survival(ing, stratum_cells([BASE_KEY]))
            b = solve_noncancer_survival_triangular(ing, BASE_KEY)
            np.testing.assert_allclose(a.values[0], b.values, rtol=0, atol=1e-12)
            assert clip_guard_counts(a) == [(b.clip_count, b.guard_count)]

    def test_horizon_one_identical(self):
        ing = SyntheticIngredients(7, horizon=1)
        a = solve_noncancer_survival(ing, stratum_cells([BASE_KEY])).values[0]
        b = solve_noncancer_survival_triangular(ing, BASE_KEY)
        assert a.shape == (2,)
        np.testing.assert_allclose(a, b.values, rtol=0, atol=1e-15)

    def test_guard_and_clip_counted(self):
        hits = [0, 0]
        for seed in range(120):
            ing = SyntheticIngredients(seed)
            solution = solve_noncancer_survival(ing, stratum_cells([BASE_KEY]))
            curve = solution.values[0]
            (clips, guards), = clip_guard_counts(solution)
            hits[0] += clips
            hits[1] += guards
            assert np.all(curve[1:] <= curve[:-1] + 1e-15)
            assert curve.min() >= 1e-9 and curve.max() <= 1.0
        assert hits[0] > 0 and hits[1] > 0

    def test_small_residual_denominator_is_hard_error(self):
        class Degenerate(SyntheticIngredients):
            def _cell(self, key):
                cell = super()._cell(key)
                cell["mass"] = np.array([1.0 - 1e-9] + [0.0] * (self.horizon - 1))
                cell["so"] = np.concatenate(([1.0], np.full(self.horizon, 1e-9)))
                cell["alpha"] = 0.0
                cell["lt"] = np.ones(self.horizon + 1)
                return cell

        with pytest.raises(SolverError, match="residual denominator"):
            solve_noncancer_survival(Degenerate(3), stratum_cells([BASE_KEY]))
        with pytest.raises(SolverError, match="residual denominator"):
            solve_noncancer_survival_triangular(Degenerate(3), BASE_KEY)

    def test_alpha_at_least_one_rejected(self):
        class BadAlpha(SyntheticIngredients):
            def alpha(self, cells):
                return np.ones(len(cells[1]))

        with pytest.raises(SolverError, match="prevalence"):
            solve_noncancer_survival(BadAlpha(1), stratum_cells([BASE_KEY]))

    def test_memoized_solve_is_stable(self):
        engine = AdjustmentEngine(
            flat_life_table(0.02), flat_incidence(0.01), const_survival(0.1), horizon=6
        )
        key = StratumKey(62, 2021, ("1",))
        first = engine.solve(stratum_cells([key])).values[0]
        second = engine.solve(stratum_cells([key])).values[0]
        assert np.array_equal(first, second)

    def test_residual_export_shape(self):
        engine = AdjustmentEngine(
            flat_life_table(0.02), flat_incidence(0.01), const_survival(0.1), horizon=6
        )
        r = engine.solve(stratum_cells([StratumKey(62, 2021, ("1",))])).residual[:, 1:][0]
        assert r.shape == (6,)
        assert r[0] == 1.0
        assert np.all(r > 0)

    def test_residuals_with_zero_incidence(self):
        engine = AdjustmentEngine(
            flat_life_table(0.02), cell_table(IncidenceTable, {}), const_survival(0.1), horizon=6
        )
        r = engine.solve(stratum_cells([StratumKey(62, 2021, ("1",))])).residual[:, 1:][0]
        assert np.all(r == 1.0)

    def test_no_keys_read_nothing(self):
        engine = AdjustmentEngine(
            flat_life_table(0.02), flat_incidence(0.01), const_survival(0.1), horizon=6
        )
        for name in ("prevalence_inputs", "alpha", "lt_survival_grid", "prevalent_grid", "so_grid", "diagnosis_mass"):
            setattr(engine, name, lambda cells, name=name: pytest.fail(f"{name} was read"))
        solution = engine.solve(stratum_cells([]))
        assert solution.values.shape == solution.residual.shape == (0, 7)
        assert solution.clipped.shape == solution.guarded.shape == (0, 7)
        assert solution.alpha.shape == (0,) and engine.residuals(solution).shape == (0, 6)


class TestNullAdjustmentEstimate:
    def test_adjusted_equals_naive_pp_without_incidence(self):
        lt = flat_life_table(0.02)
        frame = toy_registry()
        diag = Diagnostics()
        engine = AdjustmentEngine(lt, cell_table(IncidenceTable, {}), const_survival(0.1),
                                  horizon=12, diagnostics=diag)
        rs = RiskSetSummary(frame)
        adjusted = pohar_perme(rs, population_survival(engine.solve(rs.cells).values, diag))
        naive = fit(pohar_perme, rs, LifeTableSP(lt, 12, diag))
        for t in (1.0, 2.0, 5.5, 9.0, 11.0):
            assert adjusted.cumulative_hazard_at(t) == pytest.approx(
                naive.cumulative_hazard_at(t), abs=1e-12
            )


def gapped_registry_engine(lag_eval="mid_year", horizon=8):
    """Engine over a small multi-cohort registry with age gaps, a life table
    and incidence narrower than the cells the solver reaches (so both clamp),
    and incidence cells missing inside its range."""
    rng = np.random.default_rng(2024)
    rows = []
    for sex in ("0", "1"):
        for age in (55, 56, 58, 61, 62, 66):
            for year in (1995, 1996, 1999):
                n = int(rng.integers(2, 9))
                for _ in range(n):
                    rows.append((age, year, sex, float(rng.exponential(6.0)), int(rng.random() < 0.6)))
    frame = toy_frame(rows)
    life_table = flat_life_table(0.015, ages=(0, 68), years=(1940, 2001))
    cells = {}
    for sex in ("0", "1"):
        for age in range(0, 72):
            for year in range(1935, 2003):
                if (age + year) % 7 != 0:
                    cells[(age, year, (sex,))] = 0.002 + 0.0004 * max(age - 40, 0)
    diag = Diagnostics()
    provider = OverallSurvivalProvider.from_registry(
        frame, min_stratum_size=6, anchor_points=3, tau_min_at_risk=2,
        population_floor=life_table, diagnostics=diag,
    )
    engine = AdjustmentEngine(
        life_table, cell_table(IncidenceTable, cells), provider, horizon=horizon, lag_eval=lag_eval,
        diagnostics=diag,
    )
    keys = sorted({StratumKey(a, y, (s,)) for a, y, s, _, _ in rows})
    return engine, provider, keys, diag


class TestTailHardening:
    def test_population_grid_reaches_past_every_lag(self):
        # each call's population grid runs one year past its last lag, so no
        # lag is read past the grid; the grid's steps past the life table's
        # oldest age (110) are clamped
        frame = toy_frame([(60, 1990, "0", float(t), 1) for t in range(1, 9)])
        diag = Diagnostics()
        provider = OverallSurvivalProvider.from_registry(
            frame, min_stratum_size=1, anchor_points=3, tau_min_at_risk=2,
            population_floor=flat_life_table(0.02), diagnostics=diag,
        )
        key = StratumKey(60, 1990, ("0",))
        lags = np.array([0.5, 20.0, 119.5, 120.0, 120.5, 130.0, 200.0])
        provider.survival(lookup_keys(provider, [key])[0], lags)
        assert diag.get("grid_extended_eval") == 0
        assert diag.get("lifetable_clamp") == 201 - 51   # steps 51..200 pass age 110


class TestRegistryEngine:
    @pytest.mark.parametrize("lag_eval", ["mid_year", "year_start"])
    def test_solve_and_residuals_match_oracle(self, lag_eval):
        engine, _, keys, diag = gapped_registry_engine(lag_eval)
        assert diag.get("stratum_merge") > 0
        for key in keys:
            got = engine.solve(stratum_cells([key]))
            want = solve_noncancer_survival_triangular(engine, key)
            np.testing.assert_allclose(got.values[0], want.values, rtol=0, atol=1e-12)
            assert clip_guard_counts(got) == [(want.clip_count, want.guard_count)]
            np.testing.assert_allclose(
                engine.solve(stratum_cells([key])).residual[:, 1:][0], triangular_residuals(engine, key), rtol=0, atol=1e-12
            )
        assert diag.get("lifetable_clamp") > 0
        assert diag.get("incidence_clamp") > 0 and diag.get("incidence_missing_cell") > 0

    def test_lag_table_equals_direct_survival(self):
        engine, provider, keys, _ = gapped_registry_engine()
        table, _ = lag_table(provider, engine.horizon)
        lags = table.max_lag
        probes = keys + [StratumKey(40, 1980, ("0",)), StratumKey(70, 2010, ("1",))]
        for key in probes:
            rows = lookup_keys(provider, [key])[0]
            row = table.values[lookup_keys(table, [key])[0][0]]
            integer = provider.survival(rows, np.arange(lags + 1, dtype=np.float64))[0]
            half = provider.survival(rows, np.arange(1, lags + 1, dtype=np.float64) - 0.5)[0]
            assert np.array_equal(row[::2], integer)
            assert np.array_equal(row[1::2], half)
            assert np.array_equal(engine.so_grid(stratum_cells([key]))[0], integer[: engine.horizon + 1])

    def test_prevalence_terms_read_the_table_at_the_right_lags(self):
        # the one-cell walk's survival-from-diagnosis matrix reads the table
        # at lag s - 1/2 + t, and the batched recursion mixes the same terms
        engine, provider, keys, _ = gapped_registry_engine()
        key = keys[-1]
        walk = ScalarPrevalence.of(engine.calc)
        matrix = walk.survival_from_diagnosis_matrix(key, engine.horizon)
        for s in range(1, key.age + 1):
            origin = StratumKey(key.age - s, key.year - s, key.demographics)
            want = provider.survival(lookup_keys(provider, [origin])[0], s - 0.5 + np.arange(engine.horizon + 1, dtype=np.float64))[0]
            assert np.array_equal(matrix[s - 1], want)
        np.testing.assert_allclose(
            engine.prevalent_grid(stratum_cells([key]))[0], walk.prevalent_mix_weights(key) @ matrix, rtol=0, atol=1e-12
        )

    def test_one_survival_evaluation_per_stratum(self):
        engine, provider, keys, _ = gapped_registry_engine()
        calls = []
        direct = provider.survival
        provider.survival = lambda strata, times: calls.append(strata) or direct(strata, times)
        for n, key in enumerate(keys, start=1):
            engine.solve(stratum_cells([key]))
            # one call per solve evaluates each stratum it reads once, in row order
            assert len(calls) == n
            assert np.all(np.diff(calls[-1]) > 0)

    def test_clamp_counter_counts_each_clamped_cell_once(self):
        engine, provider, keys, diag = gapped_registry_engine()
        looked_up = []
        lookup = provider.lookup
        provider.lookup = lambda cells: looked_up.extend(cell_keys(cells)) or lookup(cells)
        engine.solve(stratum_cells(keys))
        assert len(looked_up) == len(set(looked_up))
        clamped = sum(resolve_stratum(provider, cell)[1] for cell in looked_up)
        assert diag.get("so_stratum_clamp") == clamped == 1604

    def test_solve_builds_no_keys(self, key_builds):
        # keys are converted to cells once, before the solve; the solve and
        # every ingredient it reads run on the cells and build no key
        engine, _, keys, _ = gapped_registry_engine()
        cells = stratum_cells(keys)
        key_builds.clear()
        assert StratumKey(60, 2000, ("0",)) and key_builds == [(60, 2000, ("0",))]
        solution = engine.solve(cells)
        assert key_builds == [(60, 2000, ("0",))]
        assert solution.values.shape == (len(keys), engine.horizon + 1)

    def test_each_solve_reads_its_inputs_afresh(self):
        # nothing is kept between solves: solving the same keys again reads,
        # and counts, every input again
        engine, provider, keys, diag = gapped_registry_engine()
        provider._build()
        added = []
        for _ in range(2):
            before = diag.as_dict()
            engine.solve(stratum_cells(keys))
            after = diag.as_dict()
            added.append({name: after[name] - before.get(name, 0) for name in after})
        assert added[0] == added[1]
        assert added[0]["so_stratum_clamp"] == 1604


class TestKeyDependentCurve:
    def test_each_cell_reads_the_curve_of_its_age(self):
        # a key-dependent closed form: one table row per age
        def so(key, times):
            return np.exp(-(0.05 + 0.001 * key.age) * np.asarray(times, dtype=float))

        engine = AdjustmentEngine(flat_life_table(0.01), flat_incidence(0.01), ClosedFormSurvival(so), horizon=6)
        keys = [StratumKey(a, 1990 + a + d, ("0",)) for a in (30, 45, 60) for d in (0, 7)]
        for key in keys:
            engine.solve(stratum_cells([key]))
        walk = ScalarPrevalence.of(engine.calc)
        for key in keys:
            np.testing.assert_array_equal(engine.so_grid(stratum_cells([key]))[0], so(key, np.arange(7.0)))
            origin = StratumKey(0, key.year - key.age, key.demographics)
            matrix = walk.survival_from_diagnosis_matrix(key, 6)
            np.testing.assert_array_equal(matrix[-1], so(origin, key.age - 0.5 + np.arange(7.0)))
            np.testing.assert_allclose(
                engine.prevalent_grid(stratum_cells([key]))[0], walk.prevalent_mix_weights(key) @ matrix,
                rtol=0, atol=1e-12,
            )


class TestSweep:
    def test_reads_only_the_pruned_closure(self):
        # diagnosis mass only at k = 2: the target (age 60) reads cell 62
        # through horizon 4 and cell 64 through horizon 2, and nothing else
        class Sparse(SyntheticIngredients):
            def __init__(self, seed):
                super().__init__(seed)
                self.calls = {"alpha": set(), "so": set(), "mass": set()}

            def _cell(self, key):
                cell = super()._cell(key)
                cell["mass"] = np.array([0.0, 0.2, 0.0, 0.0, 0.0, 0.0])
                return cell

            def alpha(self, cells):
                self.calls["alpha"].update(cells[2].tolist())
                return super().alpha(cells)

            def so_grid(self, cells):
                self.calls["so"].update(cells[2].tolist())
                return super().so_grid(cells)

            def diagnosis_mass(self, cells):
                self.calls["mass"].update(cells[2].tolist())
                return super().diagnosis_mass(cells)

        ing = Sparse(5)
        with pytest.MonkeyPatch.context() as mp:
            solved = record_solved_horizons(mp, ing)
            solve_noncancer_survival(ing, stratum_cells([BASE_KEY]))
        assert ing.calls == {"alpha": {60, 62, 64}, "so": {62, 64}, "mass": {60, 62, 64}}
        assert {k.age: n for k, n in solved.items()} == {60: 6, 62: 4, 64: 2}

    def test_solver_error_names_the_failing_cell(self):
        class DeepDegenerate(SyntheticIngredients):
            def _cell(self, key):
                cell = super()._cell(key)
                if key.age == 62:
                    cell["mass"] = np.array([1.0 - 1e-9] + [0.0] * (self.horizon - 1))
                    cell["alpha"] = 0.0
                if key.age == 63:
                    cell["so"] = np.concatenate(([1.0], np.full(self.horizon, 1e-9)))
                return cell

        with pytest.raises(SolverError, match=r"r\(2\)=.* at StratumKey\(age=62, year=2022"):
            solve_noncancer_survival(DeepDegenerate(3), stratum_cells([BASE_KEY]))
        with pytest.raises(SolverError, match=r"at StratumKey\(age=62, year=2022"):
            solve_noncancer_survival_triangular(DeepDegenerate(3), BASE_KEY)


def record_solved_horizons(mp, ing):
    """Make every later solve of `ing` record, per cell, the most horizons it
    was solved through: the need `_propagate` last returned, at the
    positions `ing.prevalence_inputs` is then asked for (the positions with
    a need, in chain order)."""
    needs, solved = [], {}
    propagate, inputs = adjustment._propagate, ing.prevalence_inputs
    mp.setattr(adjustment, "_propagate", lambda *args: needs.append(propagate(*args)) or needs[-1])

    def recording(cells, read):
        need = needs[-1][needs[-1] > 0].tolist()
        assert len(need) == len(cells[1])
        for cell, n in zip(cell_keys(cells), need):
            solved[cell] = max(solved.get(cell, 0), n)
        return inputs(cells, read)

    mp.setattr(ing, "prevalence_inputs", recording)
    return solved


class TestDiagonalBatch:
    @given(st.integers(0, 10_000), st.lists(st.integers(0, 9), min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_batch_equals_one_at_a_time(self, seed, offsets):
        ing = SyntheticIngredients(seed)
        keys = [StratumKey(BASE_KEY.age + j, BASE_KEY.year + j, BASE_KEY.demographics) for j in offsets]
        batch_diag = Diagnostics()
        batch = solve_noncancer_survival(ing, stratum_cells(keys), batch_diag)
        assert batch.values.shape == (len(keys), ing.horizon + 1)
        for key, curve, counts in zip(keys, batch.values, clip_guard_counts(batch)):
            alone = solve_noncancer_survival(ing, stratum_cells([key]))
            assert np.array_equal(curve, alone.values[0])
            assert [counts] == clip_guard_counts(alone)
        # a batch counts each cell once: its counters are those of the same
        # keys deduplicated and reordered
        unique_diag = Diagnostics()
        solve_noncancer_survival(ing, stratum_cells(sorted(set(keys), key=lambda k: -k.age)), unique_diag)
        assert batch_diag.as_dict() == unique_diag.as_dict()

    def test_keys_off_the_diagonal_rejected(self):
        # a key off BASE_KEY's diagonal is kept out of that diagonal's chain:
        # it gets a chain of its own, and each solves as it does alone
        ing = SyntheticIngredients(1)
        other = StratumKey(BASE_KEY.age + 1, BASE_KEY.year, BASE_KEY.demographics)
        together = solve_noncancer_survival(ing, stratum_cells([BASE_KEY, other]))
        assert len(together.values) == 2
        for key, curve, counts in zip((BASE_KEY, other), together.values, clip_guard_counts(together)):
            alone = solve_noncancer_survival(ing, stratum_cells([key]))
            assert np.array_equal(curve, alone.values[0])
            assert [counts] == clip_guard_counts(alone)

    @pytest.mark.parametrize("lag_eval", ["mid_year", "year_start"])
    def test_engine_batch_equals_one_at_a_time(self, lag_eval):
        batched, _, keys, batch_diag = gapped_registry_engine(lag_eval)
        single, _, _, _ = gapped_registry_engine(lag_eval)
        batch = batched.solve(stratum_cells(keys))
        for i, key in enumerate(keys):
            alone = single.solve(stratum_cells([key]))
            assert np.array_equal(batch.values[i], alone.values[0])
            assert clip_guard_counts(batch)[i] == clip_guard_counts(alone)[0]
            assert np.array_equal(batch.residual[i, 1:], alone.residual[0, 1:])
        # the batch counts each cell once, as the same keys reordered do
        reordered, _, _, reordered_diag = gapped_registry_engine(lag_eval)
        reordered.solve(stratum_cells(keys[::-1]))
        assert batch_diag.as_dict() == reordered_diag.as_dict()

    def test_one_sweep_per_diagonal(self):
        # every diagonal of a solve call is swept together: each solve asks
        # for its prevalence inputs once, for every cell it solves, the keys
        # among them
        engine, _, keys, _ = gapped_registry_engine()
        calls = []
        inputs = engine.prevalence_inputs
        engine.prevalence_inputs = lambda cells, read: calls.append(cell_keys(cells)) or inputs(cells, read)
        solution = engine.solve(stratum_cells(keys))
        diagonals = {(k.year - k.age, k.demographics) for k in keys}
        assert len(calls) == 1 < len(diagonals) < len(keys)
        assert set(keys) <= set(calls[0]) and len(calls[0]) == len(set(calls[0]))
        again = engine.solve(stratum_cells(keys[::-1]))
        assert len(calls) == 2
        assert np.array_equal(again.values, solution.values[::-1])


def random_registry_inputs(seed, zero_band):
    """Life table, incidence and registry survival of a random two-sex,
    multi-cohort registry: the life table and the incidence are narrower
    than the cells the solver reaches (both clamp; every cohort is born
    before the incidence's first year), incidence cells are
    missing on every `seed % 5 + 5`-th anti-diagonal, and incidence is 0 at
    ages `zero_band` (so the kernel prunes)."""
    rng = np.random.default_rng(seed)
    rows = []
    for sex in ("0", "1"):
        ages = rng.choice(np.arange(52, 68), size=4, replace=False)
        years = rng.choice(np.arange(1993, 2000), size=2, replace=False)
        for age in ages.tolist():
            for year in years.tolist():
                for _ in range(int(rng.integers(2, 9))):
                    rows.append((age, year, sex, float(rng.exponential(6.0)), int(rng.random() < 0.6)))
    frame = toy_frame(rows)
    life_table = flat_life_table(float(rng.uniform(0.005, 0.03)), ages=(0, 70), years=(1940, 2001))
    gap = seed % 5 + 5
    slope = float(rng.uniform(0.0002, 0.0006))
    cells = {}
    for sex in ("0", "1"):
        for age in range(0, 74):
            for year in range(1950, 2003):
                if (age + year) % gap:
                    rate = 0.0 if age in zero_band else 0.002 + slope * max(age - 40, 0)
                    cells[(age, year, (sex,))] = rate
    diag = Diagnostics()
    provider = OverallSurvivalProvider.from_registry(
        frame, min_stratum_size=6, anchor_points=3, tau_min_at_risk=2,
        population_floor=life_table, diagnostics=diag,
    )
    keys = sorted({StratumKey(a, y, (s,)) for a, y, s, _, _ in rows})
    return life_table, cell_table(IncidenceTable, cells), provider, keys, diag


class TestBatchAgainstOracles:
    """The batched recursion and sweep against the one-cell walk and the
    triangular solver, on inputs built twice from the same seed so that
    the oracle reads nothing the batch computed."""

    @given(
        st.integers(0, 10_000),
        st.sampled_from(["mid_year", "year_start"]),
        st.integers(2, 15),
        st.integers(54, 75),
        st.sampled_from(["all", "one", "shuffled"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_batch_equals_oracles(self, seed, lag_eval, horizon, zero_start, grouping):
        zero_band = range(zero_start, zero_start + 3)
        life_table, incidence, provider, keys, diag = random_registry_inputs(seed, zero_band)
        engine = AdjustmentEngine(life_table, incidence, provider, horizon, lag_eval, diag)
        rng = np.random.default_rng(seed)
        if grouping == "shuffled":
            keys = [keys[i] for i in rng.permutation(len(keys))]
        cuts = {"all": [], "one": list(range(1, len(keys))),
                "shuffled": sorted(rng.choice(range(1, len(keys)), size=3, replace=False).tolist())}[grouping]
        bounds = [0, *cuts, len(keys)]
        groups = [keys[i:j] for i, j in zip(bounds, bounds[1:])]
        curves, counts = {}, {}
        with pytest.MonkeyPatch.context() as mp:
            solved_horizons = record_solved_horizons(mp, engine)
            for group in groups:
                solution = engine.solve(stratum_cells(group))
                curves.update(zip(group, solution.values))
                counts.update(zip(group, clip_guard_counts(solution)))
        # one solve of every key, on inputs built afresh, counts each cell
        # once, as the oracle does
        f_life, f_incidence, f_provider, _, once_diag = random_registry_inputs(seed, zero_band)
        once = AdjustmentEngine(f_life, f_incidence, f_provider, horizon, lag_eval, once_diag)
        residuals = once.solve(stratum_cells(keys)).residual[:, 1:]

        o_life, o_incidence, o_provider, _, o_diag = random_registry_inputs(seed, zero_band)
        oracle = ScalarIngredients(o_life, o_incidence, o_provider, horizon, lag_eval, o_diag)
        solved = triangular_cells(oracle, keys, o_diag)
        for key, r in zip(keys, residuals):
            values, clips, guards, want_r = solved[key]
            np.testing.assert_allclose(curves[key], values, rtol=0, atol=1e-12)
            assert counts[key] == (clips, guards)
            np.testing.assert_allclose(r, want_r, rtol=0, atol=1e-12)
        o_diag.merge(oracle.survival_read_counters())
        assert once_diag.as_dict() == o_diag.as_dict()
        assert diag.get("incidence_clamp") and diag.get("incidence_missing_cell")
        assert diag.get("lifetable_clamp") and diag.get("so_stratum_clamp")

        # every cell the oracle solved: alpha and the prevalent-case survival
        cells = list(solved)
        assert set(solved_horizons) == set(cells)
        alpha = once.alpha(stratum_cells(cells))
        np.testing.assert_allclose(alpha, oracle.alpha(stratum_cells(cells)), rtol=0, atol=1e-12)
        mixed = stratum_cells([cell for cell, a in zip(cells, alpha) if a > 0.0])
        np.testing.assert_allclose(
            once.prevalent_grid(mixed), oracle.prevalent_grid(mixed), rtol=0, atol=1e-12
        )


@st.composite
def small_registries(draw):
    """A registry of 1-8 drawn (age, year, sex) cells of 1-10 patients each,
    followed up for a quarter to six years, so that most strata's tau falls
    inside the solver's horizons."""
    cells = draw(st.lists(
        st.tuples(st.integers(55, 66), st.integers(1995, 1999), st.sampled_from("01")),
        min_size=1, max_size=8, unique=True,
    ))
    rows = []
    for age, year, sex in cells:
        rows += [(age, year, sex, draw(st.integers(1, 24)) / 4.0, draw(st.booleans()))
                 for _ in range(draw(st.integers(1, 10)))]
    return toy_frame(rows)


# narrower than the cells a solve reaches, so that both clamp; the incidence
# is 0 below age 30, and missing on every seventh anti-diagonal
DENSE_LIFE_TABLE = flat_life_table(0.015, ages=(0, 68), years=(1940, 2001))
DENSE_INCIDENCE = cell_table(IncidenceTable, {
    (age, year, (sex,)): 0.002 + 0.0004 * max(age - 40, 0) if age >= 30 else 0.0
    for sex in ("0", "1") for age in range(0, 72) for year in range(1935, 2003) if (age + year) % 7
})


class TestDenseTableOracle:
    """The recursion and the solve, which evaluate S_O once at the lags they
    read, against the one-cell walk over the dense lag table of every lag a
    solve could read; the population cap counts the cells read, as the
    oracle's `survival_reads` finds them."""

    @staticmethod
    def engine(frame, lag_eval, horizon):
        diag = Diagnostics()
        provider = OverallSurvivalProvider.from_registry(
            frame, min_stratum_size=3, anchor_points=3, tau_min_at_risk=2,
            population_floor=DENSE_LIFE_TABLE, diagnostics=diag,
        )
        return AdjustmentEngine(DENSE_LIFE_TABLE, DENSE_INCIDENCE, provider, horizon, lag_eval, diag), diag

    @given(small_registries(), st.sampled_from(["mid_year", "year_start"]), st.integers(2, 10))
    @settings(max_examples=25, deadline=None)
    def test_recursion_and_solve_equal_the_dense_table(self, frame, lag_eval, horizon):
        keys = sorted({StratumKey(int(a), int(y), frame.demo_vocab[int(c)])
                       for a, y, c in zip(frame.age, frame.year, frame.demo_code)})
        read = [StratumKey(k.age + 2, k.year + 2, k.demographics) for k in keys]
        engine, diag = self.engine(frame, lag_eval, horizon)
        provider = engine.calc.overall_survival
        alpha, mixture, so = engine.calc.recursion(stratum_cells(keys), stratum_cells(read))
        reads = survival_reads(provider, DENSE_INCIDENCE, keys, read, horizon, engine.calc.offset)
        assert diag.get("so_population_cap") == survival_read_counters(provider, reads).get("so_population_cap")
        walk = ScalarPrevalence.of(engine.calc)
        for i, key in enumerate(keys):
            np.testing.assert_allclose(alpha[i], walk.prevalence(key), rtol=0, atol=1e-12)
            if alpha[i] > 0.0:
                want = walk.prevalent_mix_weights(key) @ walk.survival_from_diagnosis_matrix(key, horizon)
                np.testing.assert_allclose(mixture[i], want, rtol=0, atol=1e-12)
        rows = lookup_keys(walk.table, read)[0]
        assert np.array_equal(so, walk.table.values[rows, : 2 * horizon + 1 : 2])

        # one solve of every key against the triangular solver over the
        # dense table, each on inputs built afresh
        engine, diag = self.engine(frame, lag_eval, horizon)
        solution = engine.solve(stratum_cells(keys))
        oracle_engine, _ = self.engine(frame, lag_eval, horizon)
        oracle = ScalarIngredients(DENSE_LIFE_TABLE, DENSE_INCIDENCE, oracle_engine.calc.overall_survival,
                                   horizon, lag_eval)
        solved = triangular_cells(oracle, keys)
        for key, values, a in zip(keys, solution.values, solution.alpha):
            np.testing.assert_allclose(values, solved[key][0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(a, oracle.alpha(stratum_cells([key]))[0], rtol=0, atol=1e-12)
        assert diag.get("so_population_cap") == oracle.survival_read_counters().get("so_population_cap")


class TestErrorsNameTheCell:
    @given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_solver_error_names_the_cell_in_a_batch(self, bad_diagonal, bad_key, seed):
        # three keys on each of three diagonals (two groups); one key has
        # nearly all its diagnosis mass one year on, where S_O is ~0, which
        # drives its r(2) below the floor
        keys = [
            StratumKey(60 + 2 * j, 2020 + 2 * j + 5 * d, ("x",) if d < 2 else ("y",))
            for d in range(3) for j in range(3)
        ]
        bad = keys[3 * bad_diagonal + bad_key]

        class Degenerate(SyntheticIngredients):
            def _cell(self, key):
                cell = super()._cell(key)
                if key == bad:
                    cell["mass"] = np.array([1.0 - 1e-9] + [0.0] * (self.horizon - 1))
                    cell["alpha"] = 0.0
                if key == StratumKey(bad.age + 1, bad.year + 1, bad.demographics):
                    cell["so"] = np.concatenate(([1.0], np.full(self.horizon, 1e-9)))
                return cell

        cell = rf"StratumKey\(age={bad.age}, year={bad.year}, demographics=\('{bad.demographics[0]}',\)\)"
        with pytest.raises(SolverError, match=rf"r\(2\)=.* at {cell}; "):
            solve_noncancer_survival(Degenerate(seed), stratum_cells(keys))
        with pytest.raises(SolverError, match=rf"r\(2\)=.* at {cell}; "):
            solve_noncancer_survival_triangular(Degenerate(seed), keys)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_first_seen_failing_diagonal_is_named(self, reverse):
        # a and b start two diagonals that both fail at r(2); the error names
        # the diagonal seen first among the keys, not the one sorted first
        # (b's, born 1960, sorts before a's, born 1965); c is on b's diagonal
        a, b, c = StratumKey(60, 2025, ("x",)), StratumKey(60, 2020, ("x",)), StratumKey(62, 2022, ("x",))

        class Degenerate(SyntheticIngredients):
            def _cell(self, key):
                cell = super()._cell(key)
                if key in (a, b):
                    cell["mass"] = np.array([1.0 - 1e-9] + [0.0] * (self.horizon - 1))
                    cell["alpha"] = 0.0
                if key in (StratumKey(61, 2026, ("x",)), StratumKey(61, 2021, ("x",))):
                    cell["so"] = np.concatenate(([1.0], np.full(self.horizon, 1e-9)))
                return cell

        keys, named = ([c, b, a], b) if reverse else ([a, b, c], a)
        with pytest.raises(SolverError, match=rf"r\(2\)=.* at StratumKey\(age=60, year={named.year},"):
            solve_noncancer_survival(Degenerate(4), stratum_cells(keys))

    def test_prevalence_at_least_one_names_the_cell(self):
        # immortal patients and a population halving every year push alpha
        # past 1 on the diagonal of group "1" only
        q = {(a, y, (s,)): (0.5 if s == "1" else 0.01)
             for s in ("0", "1") for a in range(0, 60) for y in range(1940, 2010)}
        engine = AdjustmentEngine(cell_table(LifeTable, q), flat_incidence(0.3), const_survival(0.0), horizon=4)
        keys = [StratumKey(20, 1980, ("0",)), StratumKey(20, 1975, ("1",)), StratumKey(25, 1985, ("0",))]
        with pytest.raises(PrevalenceError) as want:
            ScalarPrevalence.of(engine.calc).prevalence(keys[1])
        age = re.search(r">= 1 at age (\d+) on diagonal \(birth year 1955, \('1',\)\)", str(want.value)).group(1)
        with pytest.raises(PrevalenceError, match=rf">= 1 at age {age} on diagonal \(birth year 1955, \('1',\)\)"):
            engine.solve(stratum_cells(keys))

    def test_extinct_cohort_names_the_cell(self):
        # every group-"0" cohort dies out at age 5
        q = {(a, y, (s,)): (1.0 if s == "0" and a == 5 else 0.01)
             for s in ("0", "1") for a in range(0, 60) for y in range(1940, 2010)}
        engine = AdjustmentEngine(cell_table(LifeTable, q), flat_incidence(0.01), const_survival(0.1), horizon=4)
        keys = [StratumKey(20, 1980, ("1",)), StratumKey(20, 1980, ("0",))]
        with pytest.raises(
            PrevalenceError, match=r"extinct at age 6 on diagonal \(birth year 1960, \('0',\)\); prevalence undefined"
        ):
            engine.solve(stratum_cells(keys))
        with pytest.raises(PrevalenceError, match=r"extinct at age 6 on diagonal \(birth year 1960, \('0',\)\)"):
            ScalarPrevalence.of(engine.calc).prevalence(keys[1])

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_batch_raises_the_first_fault_by_age(self, shift, data):
        """A batch of diagonals, one of which reaches prevalence >= 1 at some
        age and another of which dies out `shift` years after it, with more
        diagonals of any kind, raises the fault the one-cell walk finds
        first by age: extinction before prevalence >= 1 at one age, the
        first-seen diagonal among equals.  No RuntimeWarning escapes."""
        oldest, birth = 30, 1960

        def diagonal(kind):
            if kind == "quiet":
                return 0.01, data.draw(st.floats(0.0, 0.02))
            return data.draw(st.floats(0.2, 0.5)), data.draw(st.floats(0.02, 0.3))   # dies fast, diagnosed often

        def calculator(inputs):
            groups = [(f"g{i}",) for i in range(len(inputs))]
            q, ir = {}, {}
            for group, (q_base, rate, extinct) in zip(groups, inputs):
                for a in range(oldest + 1):
                    q[(a, birth + a, group)] = 1.0 if extinct is not None and a == extinct - 1 else q_base
                    ir[(a, birth + a, group)] = rate
            lag_eval = data.draw(st.sampled_from(["year_start", "mid_year"]))
            return PrevalenceCalculator(cell_table(IncidenceTable, ir), const_survival(0.0, demographics=groups),
                                        cell_table(LifeTable, q, require_complete=False), lag_eval=lag_eval, horizon=3)

        def first_fault(calc, key):
            try:
                ScalarPrevalence.of(calc).prevalence(key)
            except PrevalenceError as exc:
                return int(re.search(r"at age (\d+) ", str(exc)).group(1)), "extinct" not in str(exc), str(exc)
            return None

        # the diagonal that goes over 1 and the age it does, found alone
        over = (*diagonal("over"), None)
        found = first_fault(calculator([over]), StratumKey(oldest, birth + oldest, ("g0",)))
        assume(found is not None and found[0] + shift >= 1)
        inputs = [over, (0.01, 0.01, found[0] + shift)]
        for kind in data.draw(st.lists(st.sampled_from(["quiet", "over", "extinct"]), max_size=3)):
            extinct = data.draw(st.integers(1, oldest)) if kind == "extinct" else None
            inputs.append((*diagonal(kind), extinct))
        order = data.draw(st.permutations(range(len(inputs))))
        inputs = [inputs[i] for i in order]
        calc = calculator(inputs)
        keys = [StratumKey(age, birth + age, (f"g{i}",)) for i in range(len(inputs))
                for age in sorted(data.draw(st.sets(st.integers(oldest - 5, oldest), min_size=1, max_size=2)))]
        keys = data.draw(st.permutations(keys))
        seen = list(dict.fromkeys(key.demographics for key in keys))
        faults = [(*fault[:2], i, fault[2]) for i, demo in enumerate(seen) if (fault := first_fault(
            calc, max((k for k in keys if k.demographics == demo), key=lambda k: k.age))) is not None]
        message = min(faults)[-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(PrevalenceError) as got:
                calc.recursion(stratum_cells(keys))
        assert str(got.value) == message
