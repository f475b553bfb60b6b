"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The two 200-replicate
experiments dominate the runtime (a few minutes on two cores).
"""
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from netadjust.adjustment import AdjustmentEngine, solve_noncancer_survival
from netadjust.estimators import RiskSetSummary, crude_probability, ederer1, pohar_perme, population_survival
from netadjust.extrapolation import AnnualGridSurvival, extend_survival
from netadjust.incidence import IncidenceTable, PrevalenceCalculator
from netadjust.lifetable import diagonal_survival
from netadjust.registry import StepSurvivalCurve, StratumKey, kaplan_meier
from netadjust.diagnostics import Diagnostics
from netadjust.simulation import (
    ScenarioConfig,
    _provider_window,
    derive_tables,
    generate_cohort,
    make_registry,
    run_experiment,
)
from netadjust.survival_provider import OverallSurvivalProvider
from netadjust.cli import main as cli_main

from conftest import ClosedFormSurvival, LifeTableSP, at, bias, cell_table, fit, flat_life_table, one_stratum, rmse, stratum_cells, toy_frame
from oracles import (
    fit_exponential_tail,
    lag_since_diagnosis_cdf,
    nelson_aalen,
    solve_noncancer_survival_triangular,
    time_to_diagnosis_cdf,
    true_noncancer_survival,
)
from synthetic import BASE_KEY, SyntheticIngredients

JOBS = 2


def report(num, name, ok, detail):
    print(f"\n[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def ds1_result():
    return run_experiment(ScenarioConfig(dataset=1, reps=200), jobs=JOBS)


@pytest.fixture(scope="module")
def ds2_result():
    return run_experiment(ScenarioConfig(dataset=2, reps=200), jobs=JOBS)


def test_criterion_1_dataset2_bias_and_rmse(ds2_result):
    res = ds2_result
    naive10 = bias(res, "naive", 10.0)
    adj10 = bias(res, "adjusted", 10.0)
    rmse_ok = all(
        rmse(res, "adjusted", y) < rmse(res, "naive", y) for y in (5.0, 7.0, 10.0)
    )
    ok = 15.0 <= naive10 <= 24.0 and -2.0 <= adj10 <= 6.0 and rmse_ok and not res.excluded
    report(
        1, "dataset-2 bias/rMSE",
        ok,
        f"naive y10 {naive10:+.2f}% (window [15,24]), adjusted y10 {adj10:+.2f}% "
        f"(window [-2,6]), rMSE adj<naive at 5/7/10: {rmse_ok}, excluded={len(res.excluded)}",
    )


def test_criterion_2_dataset1_bias(ds1_result):
    res = ds1_result
    naive10 = bias(res, "naive", 10.0)
    adj10 = bias(res, "adjusted", 10.0)
    ok = 3.0 <= naive10 <= 9.0 and -2.0 <= adj10 <= 3.0 and not res.excluded
    report(
        2, "dataset-1 bias",
        ok,
        f"naive y10 {naive10:+.2f}% (window [3,9]), adjusted y10 {adj10:+.2f}% (window [-2,3])",
    )


def test_criterion_3_dataset1_counts(ds1_result):
    res = ds1_result
    pm = float(np.median(res.patients))
    em = float(np.median(res.events))
    ok = 1572 <= pm <= 1836 and 771 <= em <= 970
    report(
        3, "dataset-1 cohort counts",
        ok,
        f"patients median {pm:.1f} (window [1572,1836]), events median {em:.1f} (window [771,970])",
    )


def test_criterion_4_null_adjustment_identity():
    lt = flat_life_table(0.025)
    frame = toy_frame([
        (60, 2000, "0", 2.0, 1), (60, 2000, "0", 6.5, 0),
        (63, 2003, "1", 1.2, 1), (66, 2006, "1", 9.0, 1),
    ])

    def so(key, times):
        return np.exp(-0.1 * np.asarray(times, float))

    engine = AdjustmentEngine(lt, cell_table(IncidenceTable, {}), ClosedFormSurvival(so), horizon=12)
    grids_equal = all(
        np.array_equal(
            engine.solve(stratum_cells([StratumKey(a, 2000 + a - 60, (s,))])).values[0],
            diagonal_survival(lt, stratum_cells([StratumKey(a, 2000 + a - 60, (s,))]), 12)[0],
        )
        for a, s in ((60, "0"), (63, "1"), (66, "1"))
    )
    rs = RiskSetSummary(frame)
    adjusted = pohar_perme(rs, population_survival(engine.solve(rs.cells).values, engine.diagnostics))
    naive = fit(pohar_perme, rs, LifeTableSP(lt, 12))
    gaps = [
        abs(adjusted.cumulative_hazard_at(t) - naive.cumulative_hazard_at(t))
        for t in (1.0, 2.0, 5.0, 6.5, 9.0, 11.5)
    ]
    ok = grids_equal and max(gaps) <= 1e-12
    report(
        4, "null-adjustment identity", ok,
        f"grids identical: {grids_equal}, max |adjusted-naive| hazard gap {max(gaps):.2e}",
    )


def test_criterion_5_solver_oracle():
    worst = 0.0
    for seed in range(1000, 2000):
        ing = SyntheticIngredients(seed)
        a = solve_noncancer_survival(ing, stratum_cells([BASE_KEY])).values[0]
        b = solve_noncancer_survival_triangular(ing, BASE_KEY)
        worst = max(worst, float(np.max(np.abs(a - b.values))))
    ok = worst <= 1e-12
    report(5, "recursion vs triangular solve", ok,
           f"max |difference| over 1000 fuzzed inputs: {worst:.2e}")


class _EmpiricalSurvival:
    """Direct-counting overall survival: the cohort's diagnosed subjects'
    realized times to death, grouped by (floor age at diagnosis, gender)."""

    def __init__(self, cohort):
        self.groups = {}
        idx = np.flatnonzero(cohort.diagnosed)
        for sex in (0, 1):
            sel_idx = idx[cohort.gender[idx] == sex]
            sub_ages = np.floor(cohort.t_diag[sel_idx]).astype(int)
            for age in np.unique(sub_ages):
                members = sel_idx[sub_ages == age]
                self.groups[(int(age), str(sex))] = np.sort(cohort.time_to_death[members])

    def __call__(self, key: StratumKey, times):
        ident = (key.age, key.demographics[0])
        if ident not in self.groups:
            candidates = [g for g in self.groups if g[1] == key.demographics[0]]
            ident = min(candidates, key=lambda g: abs(g[0] - key.age))
        ttd = self.groups[ident]
        t = np.atleast_1d(np.asarray(times, dtype=float))
        out = 1.0 - np.searchsorted(ttd, t, side="right") / ttd.shape[0]
        return out if np.ndim(times) else float(out[0])


def test_criterion_6_prevalence_oracles():
    cfg = ScenarioConfig(dataset=2)
    cohort = generate_cohort(cfg, cfg.base_seed)
    life_table, incidence = derive_tables(cohort, cfg.person_years)
    calc = PrevalenceCalculator(
        incidence, ClosedFormSurvival(_EmpiricalSurvival(cohort)), life_table, lag_eval=cfg.lag_eval, horizon=15
    )
    g, td, tp = cohort.gender, cohort.t_diag, cohort.t_other
    death, diagnosed = cohort.death_age, cohort.diagnosed
    worst = {"alpha": 0.0, "lag_cdf": 0.0, "onset_cdf": 0.0, "prevalent_surv": 0.0}
    for sex in (0, 1):
        sel = g == sex
        for age in range(60, 75):
            key = StratumKey(age, cfg.birth_year + age, (str(sex),))
            alive = sel & (death >= age)
            n_alive = int(alive.sum())
            prevalent = alive & diagnosed & (td < age)
            n_prev = int(prevalent.sum())
            emp_alpha = n_prev / n_alive
            se = math.sqrt(emp_alpha * (1 - emp_alpha) / n_alive)
            worst["alpha"] = max(worst["alpha"], abs(calc.recursion(stratum_cells([key]))[0][0] - emp_alpha) / (3 * se))
            for t in (1, 3, 5, 10):
                emp = float((prevalent & (td >= age - t)).sum()) / n_prev
                se_f = math.sqrt(max(emp * (1 - emp), 1e-12) / n_prev)
                got = lag_since_diagnosis_cdf(calc, key, t)
                worst["lag_cdf"] = max(worst["lag_cdf"], abs(got - emp) / (3 * max(se_f, 1e-9)))
            pcs = calc.recursion(stratum_cells([key]))[1][0]
            for t in (1, 5, 10):
                emp = float((prevalent & (death >= age + t)).sum()) / n_prev
                se_f = math.sqrt(max(emp * (1 - emp), 1e-12) / n_prev)
                worst["prevalent_surv"] = max(
                    worst["prevalent_surv"], abs(float(pcs[t]) - emp) / (3 * max(se_f, 1e-9))
                )
            free = sel & (td >= age) & (tp >= age)
            n_free = int(free.sum())
            for t in (1, 3, 5, 10, 15):
                emp = float((free & (td < age + t)).sum()) / n_free
                se_f = math.sqrt(max(emp * (1 - emp), 1e-12) / n_free)
                got = time_to_diagnosis_cdf(incidence, key, t)
                worst["onset_cdf"] = max(worst["onset_cdf"], abs(got - emp) / (3 * max(se_f, 1e-9)))
    ok = all(v <= 1.0 for v in worst.values())
    report(
        6, "prevalence and lag-distribution oracles", ok,
        "worst |error| / (3 binomial SE): "
        + ", ".join(f"{k}={v:.2f}" for k, v in worst.items()),
    )


def test_criterion_7_extrapolation_exactness():
    rate = 0.173
    jumps = np.arange(0.25, 16.0, 0.25)
    curve = StepSurvivalCurve(jumps, np.exp(-rate * jumps), [0, len(jumps)])
    g0, g1 = fit_exponential_tail(curve, np.array([12.0, 13.0, 14.0, 15.0]))
    ext = extend_survival(curve, np.array([15.0]), 4)
    value_err = max(
        abs(at(ext, t) - math.exp(-rate * t)) for t in (2.5, 15.0, 20.0, 45.0)
    )
    grid = np.exp(-0.21 * np.arange(16.0))
    interpolated = AnnualGridSurvival(grid[None])
    grid_exact = all(at(interpolated, float(t)) == grid[t] for t in range(16))
    interp_err = max(
        abs(at(interpolated, t) - math.exp(-0.21 * t))
        for t in (0.31, 4.5, 9.99, 14.2)
    )
    ok = abs(g0) <= 1e-10 and abs(g1 - rate) <= 1e-10 and value_err <= 1e-10 \
        and grid_exact and interp_err <= 1e-10
    report(
        7, "log-linear extrapolation/interpolation exactness", ok,
        f"|g0|={abs(g0):.1e}, |g1-rate|={abs(g1 - rate):.1e}, tail err={value_err:.1e}, "
        f"grid exact={grid_exact}, interp err={interp_err:.1e}",
    )


def noncancer_survival_mae(cfg: ScenarioConfig, rep: int, ts=(1.0, 5.0, 10.0)) -> np.ndarray:
    """Mean |adjusted S_P - generator S_P| over the analysis strata, per t.

    Used by the consistency study (criterion 8): the error must shrink as
    the cohort grows.
    """
    cohort = generate_cohort(cfg, cfg.base_seed + rep)
    life_table, incidence = derive_tables(cohort, cfg.person_years)
    frame_all, = make_registry(
        cohort, cfg.base_seed + 1_000_000 + rep, (_provider_window(cfg),), cfg.censor_max
    )
    diagnostics = Diagnostics()
    so = OverallSurvivalProvider.from_registry(
        frame_all,
        min_stratum_size=cfg.min_stratum_size,
        anchor_points=cfg.extrapolation_points,
        tau_min_at_risk=cfg.tau_min_at_risk,
        population_floor=life_table,
        diagnostics=diagnostics,
    )
    engine = AdjustmentEngine(
        life_table, incidence, so,
        horizon=cfg.horizon, lag_eval=cfg.lag_eval, diagnostics=diagnostics,
    )
    lo, hi = cfg.diag_window
    errors = {t: [] for t in ts}
    keys = [
        StratumKey(age, cfg.birth_year + age, (sex,))
        for age in range(int(lo), int(hi)) for sex in ("0", "1")
    ]
    for key, curve in zip(keys, engine.solve(stratum_cells(keys)).values):
        for t in ts:
            truth = true_noncancer_survival(cfg, key.age, t)
            errors[t].append(abs(float(curve[int(t)]) - truth))
    return np.array([float(np.mean(errors[t])) for t in ts])


def _mae_task(args):
    cfg, rep, ts = args
    return noncancer_survival_mae(cfg, rep, ts)


def test_criterion_8_consistency_in_cohort_size():
    sizes = (12_500, 50_000, 200_000)
    reps = 20
    tasks = []
    for size in sizes:
        cfg = ScenarioConfig(dataset=2, cohort_size=size, reps=reps)
        tasks.extend((cfg, rep, (1.0, 5.0, 10.0)) for rep in range(reps))
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        maes = list(pool.map(_mae_task, tasks, chunksize=2))
    maes = np.array(maes).reshape(len(sizes), reps, 3).mean(axis=1)
    decreasing = bool(np.all(np.diff(maes, axis=0) < 0))
    detail = "; ".join(
        f"t={t:g}: " + " > ".join(f"{maes[i, j]:.4f}" for i in range(len(sizes)))
        for j, t in enumerate((1.0, 5.0, 10.0))
    )
    report(8, "S_P consistency in cohort size", decreasing, detail)


def test_criterion_9_estimator_reductions(rng):
    times = rng.exponential(4.0, 30)
    cens = rng.uniform(1.0, 10.0, 30)
    rows = [
        (60 + i % 3, 1990 + i % 3, "01"[i % 2], float(min(t, c)), bool(t <= c))
        for i, (t, c) in enumerate(zip(times, cens))
    ]
    frame = toy_frame(rows)
    unit = LifeTableSP(flat_life_table(0.0), 20)
    na = nelson_aalen(one_stratum(frame.time, frame.event))
    pp = fit(pohar_perme, RiskSetSummary(frame), unit)
    e1 = fit(ederer1, RiskSetSummary(frame), unit)
    grid = np.unique(frame.time)
    pp_gap = max(abs(pp.cumulative_hazard_at(t) - na.hazard_at(t)) for t in grid)
    e1_gap = max(abs(e1.cumulative_hazard_at(t) - na.hazard_at(t)) for t in grid)

    single = toy_frame([
        (60, 1990, "0", float(t), bool(e))
        for t, e in zip(rng.exponential(4.0, 25), rng.random(25) < 0.8)
    ])
    provider = LifeTableSP(flat_life_table(0.06), 25)
    pp_s = fit(pohar_perme, RiskSetSummary(single), provider)
    e1_s = fit(ederer1, RiskSetSummary(single), provider)
    collapse_gap = max(
        abs(pp_s.cumulative_hazard_at(t) - e1_s.cumulative_hazard_at(t))
        for t in np.unique(single.time)
    )

    uncensored = toy_frame([
        (60, 1990, "0", float(t), True) for t in rng.exponential(3.0, 25)
    ])
    cpd = fit(crude_probability, RiskSetSummary(uncensored), LifeTableSP(flat_life_table(0.0), 25))
    km = kaplan_meier(one_stratum(uncensored.time, uncensored.event))
    cpd_gap = max(
        abs(cpd.value_at(t) - (1.0 - at(km, t))) for t in np.unique(uncensored.time)
    )
    ok = max(pp_gap, e1_gap, collapse_gap, cpd_gap) <= 1e-12
    report(
        9, "estimator reductions", ok,
        f"PP=NA gap {pp_gap:.1e}, E1=NA gap {e1_gap:.1e}, "
        f"single-stratum PP=E1 gap {collapse_gap:.1e}, crude=1-KM gap {cpd_gap:.1e}",
    )


def test_criterion_10_determinism(tmp_path):
    args = ["simulate", "--dataset", "2", "--cohort-size", "4000", "--reps", "2",
            "--seed", "77", "--jobs", "2"]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    same = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("table1.csv", "table2.csv", "manifest.json")
    )
    report(10, "byte-identical reruns", same,
           "table1.csv, table2.csv, manifest.json identical across two runs")


@pytest.mark.parametrize("dataset", [3, 4])
def test_invariant_bias_ordering_other_datasets(dataset):
    """Spec invariant (not a numbered criterion): adjusted beats naive in
    |bias| at years 5/7/10 for the log-normal settings too, 200 replicates."""
    res = run_experiment(ScenarioConfig(dataset=dataset, reps=200), jobs=JOBS)
    gaps = {
        y: (abs(bias(res, "adjusted", y)), abs(bias(res, "naive", y)))
        for y in (5.0, 7.0, 10.0)
    }
    ok = all(a < n for a, n in gaps.values()) and not res.excluded
    print(f"\n[INVARIANT] dataset {dataset} |bias| adjusted vs naive: "
          + ", ".join(f"y{y:g} {a:.2f}<{n:.2f}" for y, (a, n) in gaps.items()))
    assert ok
