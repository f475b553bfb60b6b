import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netadjust import adjustment
from netadjust.adjustment import (
    AdjustedPopulationSurvival,
    AdjustmentEngine,
    PrevalentCaseSurvival,
    SolverError,
    prevalent_case_survival,
    solve_noncancer_survival,
)
from netadjust.diagnostics import Diagnostics
from netadjust.estimators import adjusted_population_provider, naive_population_provider, pohar_perme
from netadjust.incidence import IncidenceTable, PrevalenceError
from netadjust.lifetable import diagonal_survival
from netadjust.registry import StratumKey
from netadjust.survival_provider import OverallSurvivalProvider

from conftest import flat_incidence, flat_life_table, toy_frame
from oracles import solve_noncancer_survival_triangular, triangular_residuals
from synthetic import BASE_KEY, SyntheticIngredients


def const_survival(rate):
    def fn(key, times):
        return np.exp(-rate * np.asarray(times, dtype=float))
    return fn


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
        curve = prevalent_case_survival(BASE_KEY, weights, matrix)
        assert np.all(curve.values == 1.0)

    def test_point_mass_gives_conditional_survival(self):
        # single diagnosis year: survival is the conditional continuation
        # of that stratum's curve past the already-survived lag
        rate, s0 = 0.12, 7
        lt = flat_life_table(0.0)
        cells = {(53, 2013, ("0",)): 0.05}
        engine = AdjustmentEngine(
            lt, IncidenceTable(cells), const_survival(rate),
            horizon=10, lag_eval="year_start",
        )
        key = StratumKey(60, 2020, ("0",))
        grid = engine.prevalent_grid(key)
        for t in range(11):
            expected = math.exp(-rate * (t + s0)) / math.exp(-rate * s0)
            assert grid[t] == pytest.approx(expected, abs=1e-12)

    def test_starts_at_one_and_monotone(self):
        engine = AdjustmentEngine(
            flat_life_table(0.01), flat_incidence(0.02), const_survival(0.1), horizon=8
        )
        grid = engine.prevalent_grid(StratumKey(50, 2010, ("0",)))
        assert grid[0] == 1.0
        assert np.all(np.diff(grid) <= 1e-12)
        PrevalentCaseSurvival(StratumKey(50, 2010, ("0",)), grid)


class TestSolver:
    def test_null_adjustment_matches_diagonal_exactly(self):
        lt = flat_life_table(0.02)
        engine = AdjustmentEngine(lt, IncidenceTable.zero(), const_survival(0.1), horizon=12)
        key = StratumKey(65, 2000, ("0",))
        curve = engine.solve([key])[0]
        expected = diagonal_survival(lt, key, 12).values
        assert np.array_equal(curve.values, expected)
        assert curve.clip_count == 0 and curve.guard_count == 0

    def test_first_step_closed_form(self):
        engine = AdjustmentEngine(
            flat_life_table(0.03), flat_incidence(0.02), const_survival(0.1), horizon=4
        )
        key = StratumKey(40, 2005, ("0",))
        alpha = engine.alpha(key)
        prev = engine.prevalent_grid(key)
        lt_grid = engine.lt_survival_grid(key)
        expected = (lt_grid[1] - alpha * prev[1]) / (1.0 - alpha)
        assert engine.solve([key])[0].values[1] == pytest.approx(expected, abs=1e-14)

    def test_recursion_matches_triangular_oracle(self):
        for seed in range(200):
            ing = SyntheticIngredients(seed)
            a = solve_noncancer_survival(ing, [BASE_KEY])[0]
            b = solve_noncancer_survival_triangular(ing, BASE_KEY)
            np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-12)
            assert a.clip_count == b.clip_count
            assert a.guard_count == b.guard_count

    def test_horizon_one_identical(self):
        ing = SyntheticIngredients(7, horizon=1)
        a = solve_noncancer_survival(ing, [BASE_KEY])[0]
        b = solve_noncancer_survival_triangular(ing, BASE_KEY)
        assert a.values.shape == (2,)
        np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-15)

    def test_guard_and_clip_counted(self):
        hits = [0, 0]
        for seed in range(120):
            curve = solve_noncancer_survival(SyntheticIngredients(seed), [BASE_KEY])[0]
            hits[0] += curve.clip_count
            hits[1] += curve.guard_count
            assert np.all(curve.values[1:] <= curve.values[:-1] + 1e-15)
            assert curve.values.min() >= 1e-9 and curve.values.max() <= 1.0
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
            solve_noncancer_survival(Degenerate(3), [BASE_KEY])
        with pytest.raises(SolverError, match="residual denominator"):
            solve_noncancer_survival_triangular(Degenerate(3), BASE_KEY)

    def test_alpha_at_least_one_rejected(self):
        class BadAlpha(SyntheticIngredients):
            def alpha(self, key):
                return 1.0

        with pytest.raises(SolverError, match="prevalence"):
            solve_noncancer_survival(BadAlpha(1), [BASE_KEY])

    def test_memoized_solve_is_stable(self):
        engine = AdjustmentEngine(
            flat_life_table(0.02), flat_incidence(0.01), const_survival(0.1), horizon=6
        )
        key = StratumKey(62, 2021, ("1",))
        first = engine.solve([key])[0].values
        second = engine.solve([key])[0].values
        assert np.array_equal(first, second)

    def test_residual_export_shape(self):
        engine = AdjustmentEngine(
            flat_life_table(0.02), flat_incidence(0.01), const_survival(0.1), horizon=6
        )
        r = engine.residuals(StratumKey(62, 2021, ("1",)))
        assert r.shape == (6,)
        assert r[0] == 1.0
        assert np.all(r > 0)

    def test_residuals_with_zero_incidence(self):
        engine = AdjustmentEngine(
            flat_life_table(0.02), IncidenceTable.zero(), const_survival(0.1), horizon=6
        )
        r = engine.residuals(StratumKey(62, 2021, ("1",)))
        assert np.all(r == 1.0)


class TestAdjustedCurve:
    def test_mid_year_interpolation(self):
        curve = AdjustedPopulationSurvival(BASE_KEY, np.array([1.0, 0.99, 0.97]))
        assert curve.survival_at(0.5) == pytest.approx(math.exp(0.5 * math.log(0.99)), abs=1e-14)
        assert curve.survival_at(1.0) == 0.99


class TestNullAdjustmentEstimate:
    def test_adjusted_equals_naive_pp_without_incidence(self):
        lt = flat_life_table(0.02)
        frame = toy_registry()
        diag = Diagnostics()
        engine = AdjustmentEngine(lt, IncidenceTable.zero(), const_survival(0.1),
                                  horizon=12, diagnostics=diag)
        adjusted = pohar_perme(frame, adjusted_population_provider(engine))
        naive = pohar_perme(frame, naive_population_provider(lt, 12, diag))
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
        life_table, IncidenceTable(cells), provider, horizon=horizon, lag_eval=lag_eval,
        diagnostics=diag,
    )
    keys = sorted({StratumKey(a, y, (s,)) for a, y, s, _, _ in rows})
    return engine, provider, keys, diag


class TestTailHardening:
    def test_lags_past_population_grid_counted_once(self):
        frame = toy_frame([(60, 1990, "0", float(t), 1) for t in range(1, 9)])
        diag = Diagnostics()
        provider = OverallSurvivalProvider.from_registry(
            frame, min_stratum_size=1, anchor_points=3, tau_min_at_risk=2,
            population_floor=flat_life_table(0.02), diagnostics=diag,
        )
        key = StratumKey(60, 1990, ("0",))
        lags = np.array([0.5, 20.0, 119.5, 120.0, 120.5, 130.0, 200.0])
        before = diag.get("grid_extended_eval")
        provider.survival(key, lags)
        assert diag.get("grid_extended_eval") - before == 3


class TestRegistryEngine:
    @pytest.mark.parametrize("lag_eval", ["mid_year", "year_start"])
    def test_solve_and_residuals_match_oracle(self, lag_eval):
        engine, _, keys, diag = gapped_registry_engine(lag_eval)
        assert diag.get("stratum_merge") > 0
        for key in keys:
            got = engine.solve([key])[0]
            want = solve_noncancer_survival_triangular(engine, key)
            np.testing.assert_allclose(got.values, want.values, rtol=0, atol=1e-12)
            assert (got.clip_count, got.guard_count) == (want.clip_count, want.guard_count)
            np.testing.assert_allclose(
                engine.residuals(key), triangular_residuals(engine, key), rtol=0, atol=1e-12
            )
        assert diag.get("lifetable_clamp") > 0
        assert diag.get("incidence_clamp") > 0 and diag.get("incidence_missing_cell") > 0

    def test_lag_table_equals_direct_survival(self):
        engine, provider, keys, _ = gapped_registry_engine()
        table = engine.calc.table
        lags = table.max_lag
        probes = keys + [StratumKey(40, 1980, ("0",)), StratumKey(70, 2010, ("1",))]
        for key in probes:
            row = table.values[table.row(key)]
            integer = provider.survival(key, np.arange(lags + 1, dtype=np.float64))
            half = provider.survival(key, np.arange(1, lags + 1, dtype=np.float64) - 0.5)
            assert np.array_equal(row[::2], integer)
            assert np.array_equal(row[1::2], half)
            assert np.array_equal(engine.so_grid(key), integer[: engine.horizon + 1])

    def test_prevalence_terms_read_the_table_at_the_right_lags(self):
        engine, provider, keys, _ = gapped_registry_engine()
        key = keys[-1]
        matrix = engine.calc.survival_from_diagnosis_matrix(key, engine.horizon)
        for s in range(1, key.age + 1):
            origin = StratumKey(key.age - s, key.year - s, key.demographics)
            want = provider.survival(origin, s - 0.5 + np.arange(engine.horizon + 1, dtype=np.float64))
            assert np.array_equal(matrix[s - 1], want)

    def test_one_survival_evaluation_per_stratum(self):
        engine, provider, keys, _ = gapped_registry_engine()
        calls = []
        direct = provider.survival
        provider.survival = lambda strata, times: calls.append(strata) or direct(strata, times)
        engine.calc.table.survival = provider.survival
        for key in keys:
            engine.solve([key])
        # one call evaluates every stratum once, in the table's row order
        assert len(calls) == 1
        assert calls[0] == list(provider.strata)

    def test_cells_past_the_table_are_rejected(self):
        engine, provider, _, _ = gapped_registry_engine()
        old = StratumKey(provider.max_age + engine.horizon, 2000, ("0",))
        with pytest.raises(PrevalenceError, match="older than"):
            engine.alpha(old)


class TestPlainCallableTable:
    def test_rows_added_past_the_first_block_keep_their_values(self):
        # a key-dependent closed form: one table row per key, well past 64 rows
        def so(key, times):
            return np.exp(-(0.05 + 0.001 * key.age) * np.asarray(times, dtype=float))

        engine = AdjustmentEngine(flat_life_table(0.01), flat_incidence(0.01), so, horizon=6)
        keys = [StratumKey(a, 1990 + a + d, ("0",)) for a in (30, 45, 60) for d in (0, 7)]
        for key in keys:
            engine.solve([key])
        table = engine.calc.table
        assert len(table._rows) > table.values.shape[0] // 2 > 64
        for key in keys:
            np.testing.assert_array_equal(engine.so_grid(key), so(key, np.arange(7.0)))
            origin = StratumKey(0, key.year - key.age, key.demographics)
            matrix = engine.calc.survival_from_diagnosis_matrix(key, 6)
            np.testing.assert_array_equal(matrix[-1], so(origin, key.age - 0.5 + np.arange(7.0)))


class TestSweep:
    def test_reuse_counts_only_new_entries(self):
        diag = Diagnostics()
        cells = {}
        hits = 0
        for seed in range(40):
            ing = SyntheticIngredients(seed)
            cells = {}
            for j in (2, 0, 1, 3):
                solve_noncancer_survival(ing, [BASE_KEY.shift(j)], diag, cells)
            hits += sum(int(rec.clipped[1 : rec.solved + 1].sum()) for rec in cells.values())
        assert diag.get("sp_clip") == hits > 0

    def test_reuse_matches_fresh_solves(self):
        for seed in range(40):
            ing = SyntheticIngredients(seed)
            cells = {}
            for j in (3, 1, 0, 2):
                key = BASE_KEY.shift(j)
                shared = solve_noncancer_survival(ing, [key], cells=cells)[0]
                fresh = solve_noncancer_survival(ing, [key])[0]
                assert np.array_equal(shared.values, fresh.values)
                assert (shared.clip_count, shared.guard_count) == (fresh.clip_count, fresh.guard_count)

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

            def alpha(self, key):
                self.calls["alpha"].add(key.age)
                return super().alpha(key)

            def so_grid(self, key):
                self.calls["so"].add(key.age)
                return super().so_grid(key)

            def diagnosis_mass(self, key):
                self.calls["mass"].add(key.age)
                return super().diagnosis_mass(key)

        ing = Sparse(5)
        cells = {}
        solve_noncancer_survival(ing, [BASE_KEY], cells=cells)
        assert ing.calls == {"alpha": {60, 62, 64}, "so": {62, 64}, "mass": {60, 62, 64}}
        assert {k.age: rec.solved for k, rec in cells.items() if rec.solved} == {60: 6, 62: 4, 64: 2}

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
            solve_noncancer_survival(DeepDegenerate(3), [BASE_KEY])
        with pytest.raises(SolverError, match=r"at StratumKey\(age=62, year=2022"):
            solve_noncancer_survival_triangular(DeepDegenerate(3), BASE_KEY)


def solved_state(cells):
    """Per cell: horizons solved, S_P, r(t) and clip/guard flags up to them."""
    out = {}
    for key, rec in cells.items():
        n = rec.solved
        if n:
            out[key] = (n, rec.values[: n + 1].tolist(), rec.residual[1 : n + 1].tolist(),
                        rec.clipped[1 : n + 1].tolist(), rec.guarded[1 : n + 1].tolist())
    return out


class TestDiagonalBatch:
    @given(st.integers(0, 10_000), st.lists(st.integers(0, 9), min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_batch_equals_one_at_a_time(self, seed, offsets):
        ing = SyntheticIngredients(seed)
        keys = [BASE_KEY.shift(j) for j in offsets]
        one_diag, one_cells = Diagnostics(), {}
        one = [solve_noncancer_survival(ing, [key], one_diag, one_cells)[0] for key in keys]
        batch_diag, batch_cells = Diagnostics(), {}
        batch = solve_noncancer_survival(ing, keys, batch_diag, batch_cells)
        for a, b in zip(batch, one):
            assert a.origin == b.origin
            assert np.array_equal(a.values, b.values)
            assert (a.clip_count, a.guard_count) == (b.clip_count, b.guard_count)
        assert solved_state(batch_cells) == solved_state(one_cells)
        assert batch_diag.as_dict() == one_diag.as_dict()

    def test_keys_off_the_diagonal_rejected(self):
        ing = SyntheticIngredients(1)
        other = StratumKey(BASE_KEY.age + 1, BASE_KEY.year, BASE_KEY.demographics)
        with pytest.raises(ValueError, match="not on the birth-cohort diagonal"):
            solve_noncancer_survival(ing, [BASE_KEY, other])

    @pytest.mark.parametrize("lag_eval", ["mid_year", "year_start"])
    def test_engine_batch_equals_one_at_a_time(self, lag_eval):
        batched, _, keys, batch_diag = gapped_registry_engine(lag_eval)
        single, _, _, single_diag = gapped_registry_engine(lag_eval)
        curves = batched.solve(keys)
        for key, curve in zip(keys, curves):
            alone = single.solve([key])[0]
            assert np.array_equal(curve.values, alone.values)
            assert (curve.clip_count, curve.guard_count) == (alone.clip_count, alone.guard_count)
            assert np.array_equal(batched.residuals(key), single.residuals(key))
        assert batch_diag.as_dict() == single_diag.as_dict()

    def test_one_sweep_per_diagonal(self, monkeypatch):
        engine, _, keys, _ = gapped_registry_engine()
        sweeps = []
        sweep = adjustment.solve_noncancer_survival

        def counting(ing, roots, *args):
            sweeps.append(list(roots))
            return sweep(ing, roots, *args)

        monkeypatch.setattr(adjustment, "solve_noncancer_survival", counting)
        curves = engine.solve(keys)
        assert [c.origin for c in curves] == keys
        diagonals = {(k.year - k.age, k.demographics) for k in keys}
        assert len(sweeps) == len(diagonals) < len(keys)
        for roots in sweeps:
            assert len({(k.year - k.age, k.demographics) for k in roots}) == 1
        assert sorted(k for roots in sweeps for k in roots) == sorted(keys)
        engine.solve(keys[::-1])
        engine.residuals(keys[0])
        assert len(sweeps) == len(diagonals)
