"""Birth-cohort microsimulator and the bias/rMSE experiment harness.

One cohort is born in a fixed year; each subject carries a potential age at
cancer diagnosis, a potential age at other-cause death, and (if diagnosed
while alive) an exponential time to cancer death whose rate depends on age,
period, and gender.  From the realized histories the harness derives the
annual life table and incidence rates (which therefore contain cancer deaths
and prevalent patients - the contamination under study), extracts a registry
of diagnosed subjects with uniform censoring, and compares net-survival
estimators against the generator's truth over many replicates.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .adjustment import AdjustmentEngine
from .diagnostics import Diagnostics, log
from .estimators import (
    RiskSetSummary,
    adjusted_population_provider,
    naive_population_provider,
    pohar_perme,
)
from .incidence import IncidenceTable
from .lifetable import LifeTable
from .registry import Banding, RegistryFrame, StratumKey
from .survival_provider import OverallSurvivalProvider

BASE_EXCESS_HAZARD = 0.1
AGE_REF, AGE_RATIO, AGE_SCALE = 60.0, 1.2, 7.5
YEAR_REF, YEAR_RATIO, YEAR_SCALE = 2000.0, 0.95, 15.0
GENDER_RATIO = 0.8

LIFETABLE_MAX_AGE = 130


def excess_hazard(age, year, gender):
    """Cancer-death hazard after diagnosis: 0.1 at (age 60, year 2000, gender 0),
    scaled by 1.2 per 7.5 years of age, 0.95 per 15 calendar years, 0.8 for
    gender 1.  Evaluated in log space so extreme ages saturate to inf/0
    instead of producing inf * 0."""
    age = np.asarray(age, dtype=np.float64)
    year = np.asarray(year, dtype=np.float64)
    gender = np.asarray(gender, dtype=np.float64)
    log_h = (
        math.log(BASE_EXCESS_HAZARD)
        + (age - AGE_REF) / AGE_SCALE * math.log(AGE_RATIO)
        + (year - YEAR_REF) / YEAR_SCALE * math.log(YEAR_RATIO)
        + gender * math.log(GENDER_RATIO)
    )
    with np.errstate(over="ignore"):
        return np.exp(log_h)


@dataclass(frozen=True)
class ScenarioConfig:
    """Simulation scenario: generator laws, registry window, estimator knobs."""

    dataset: int = 1
    cohort_size: int = 50_000
    birth_year: int = 1960
    diag_window: tuple = (60.0, 75.0)
    censor_max: float = 15.0
    reps: int = 200
    base_seed: int = 20230316
    horizon: int = 15
    extrapolation_points: int = 4
    years: tuple = (3.0, 5.0, 7.0, 10.0)
    n_truth: int = 500_000
    person_years: str = "midyear"     # or "exact"
    lag_eval: str = "mid_year"        # or "year_start"
    min_stratum_size: int = 600
    tau_min_at_risk: int = 120
    jobs: int | None = None

    def __post_init__(self):
        if self.dataset not in (1, 2, 3, 4):
            raise ValueError(f"dataset must be 1-4, got {self.dataset}")
        if self.horizon < max(self.years):
            raise ValueError("horizon must cover the largest report year")
        if self.extrapolation_points < 2:
            raise ValueError("need at least two extrapolation anchor points")


@dataclass
class Cohort:
    """Potential natural histories of one birth cohort."""

    birth_year: int
    gender: np.ndarray          # 0/1
    t_diag: np.ndarray          # potential age at diagnosis
    t_other: np.ndarray         # potential age at other-cause death
    t_cancer: np.ndarray        # time from diagnosis to cancer death (where diagnosed)
    diagnosed: np.ndarray       # t_diag < t_other
    time_to_death: np.ndarray   # from diagnosis, min(t_cancer, t_other - t_diag)
    death_age: np.ndarray       # from birth, all causes

    @property
    def n(self) -> int:
        return self.gender.shape[0]


def _draw_potentials(rng: np.random.Generator, dataset: int, n: int):
    """Potential diagnosis and other-death ages for the four settings.

    Weibull(lam, p) has hazard lam*p*(lam*t)^(p-1); the log-normal settings
    pass the second parameter as the SD of log (sigma 2 reproduces the
    published patient counts, sigma sqrt(2) does not).
    """
    if dataset == 1:
        t_diag = rng.weibull(1.0, n) / 0.5e-2
        t_other = rng.weibull(2.0, n) / 1.0e-2
    elif dataset == 2:
        t_diag = rng.weibull(1.0, n) / 1.5e-2
        t_other = rng.weibull(2.0, n) / 1.0e-2
    elif dataset == 3:
        t_diag = rng.lognormal(math.log(65.0), 2.0, n)
        t_other = rng.lognormal(math.log(75.0), 2.0, n)
    else:
        t_diag = rng.lognormal(math.log(65.0), 1.0, n)
        t_other = rng.lognormal(math.log(75.0), 2.0, n)
    return t_diag, t_other


def generate_cohort(cfg: ScenarioConfig, seed: int) -> Cohort:
    """Deterministic cohort draw for (cfg, seed)."""
    rng = np.random.default_rng(seed)
    n = cfg.cohort_size
    gender = rng.integers(0, 2, n).astype(np.int8)
    t_diag, t_other = _draw_potentials(rng, cfg.dataset, n)
    exp_raw = rng.exponential(1.0, n)
    # covariates vary yearly: the hazard reads the integer (age, year) cell
    age_cell = np.floor(t_diag)
    t_cancer = exp_raw / excess_hazard(age_cell, cfg.birth_year + age_cell, gender)
    diagnosed = t_diag < t_other
    time_to_death = np.where(diagnosed, np.minimum(t_cancer, t_other - t_diag), np.nan)
    death_age = np.where(diagnosed, t_diag + time_to_death, t_other)
    return Cohort(cfg.birth_year, gender, t_diag, t_other, t_cancer,
                  diagnosed, time_to_death, death_age)


def derive_tables(
    cohort: Cohort,
    person_years: str = "midyear",
    max_age: int = LIFETABLE_MAX_AGE,
) -> tuple[LifeTable, IncidenceTable]:
    """Annual life table and incidence rates from the realized cohort.

    q(a) = deaths in [a, a+1) / alive at exact age a (cancer deaths included);
    IR(a) = actual diagnoses in [a, a+1) / person-years of cancer-free
    subjects, with the mid-year convention counting each within-year exit as
    half a year ("exact" integrates the true exposure).  The table is
    truncated at the last age with anyone alive (capped at max_age) and both
    genders share the common truncation point.
    """
    if person_years not in ("midyear", "exact"):
        raise ValueError(f"unknown person_years convention {person_years!r}")
    lt_cells: dict = {}
    ir_cells: dict = {}
    a_max_common = None
    per_sex = []
    for sex in (0, 1):
        mask = cohort.gender == sex
        if not mask.any():
            raise ValueError(f"cohort has no subjects with gender {sex}")
        death = cohort.death_age[mask]
        deaths_per_year = np.bincount(np.floor(death).astype(np.int64))
        alive = deaths_per_year[::-1].cumsum()[::-1]
        a_last = int(np.flatnonzero(alive > 0)[-1])
        a_max = min(a_last, max_age)
        if a_max < a_last:
            log.debug("life table capped at age %d (last populated %d)", a_max, a_last)
        per_sex.append((mask, deaths_per_year, alive, a_max))
        a_max_common = a_max if a_max_common is None else min(a_max_common, a_max)
    for sex, (mask, deaths_per_year, alive, _) in zip((0, 1), per_sex):
        demo = (str(sex),)
        q = deaths_per_year[: a_max_common + 1] / alive[: a_max_common + 1]
        free_until = np.minimum(cohort.t_diag[mask], cohort.t_other[mask])
        free_floor = np.floor(free_until).astype(np.int64)
        free_counts = np.bincount(free_floor, minlength=a_max_common + 2)
        free_alive = free_counts[::-1].cumsum()[::-1]
        diag_mask = cohort.diagnosed[mask]
        diag_counts = np.bincount(
            np.floor(cohort.t_diag[mask][diag_mask]).astype(np.int64),
            minlength=a_max_common + 1,
        )
        if person_years == "midyear":
            py = 0.5 * (free_alive[: a_max_common + 1] + free_alive[1 : a_max_common + 2])
        else:
            frac = np.bincount(free_floor, weights=free_until - free_floor,
                               minlength=a_max_common + 2)
            py = free_alive[1 : a_max_common + 2] + frac[: a_max_common + 1]
        for a in range(a_max_common + 1):
            year = cohort.birth_year + a
            lt_cells[(a, year, demo)] = float(q[a])
            d = float(diag_counts[a]) if a < diag_counts.shape[0] else 0.0
            if py[a] > 0:
                ir_cells[(a, year, demo)] = min(d / float(py[a]), 1.0 - 1e-9)
            elif d > 0:
                raise ValueError(f"diagnoses without person-years at age {a}, gender {sex}")
    return LifeTable(lt_cells, require_complete=False), IncidenceTable(ir_cells)


def make_registry(
    cohort: Cohort,
    censor_seed: int,
    window: tuple | None = (60.0, 75.0),
    censor_max: float = 15.0,
) -> RegistryFrame:
    """Registry of diagnosed subjects with uniform censoring on [0, censor_max].

    Censoring times are drawn for every diagnosed subject before windowing,
    so a windowed registry is exactly the corresponding subset of the full
    one.  Covariates are (floor(age), birth_year + floor(age), gender).
    """
    rng = np.random.default_rng(censor_seed)
    diag_idx = np.flatnonzero(cohort.diagnosed)
    censor = rng.uniform(0.0, censor_max, diag_idx.shape[0])
    t_diag = cohort.t_diag[diag_idx]
    if window is not None:
        lo, hi = window
        keep = (t_diag >= lo) & (t_diag < hi)
        diag_idx, censor, t_diag = diag_idx[keep], censor[keep], t_diag[keep]
    t_death = cohort.time_to_death[diag_idx]
    observed = np.minimum(t_death, censor)
    event = t_death <= censor
    age = np.floor(t_diag).astype(np.int64)
    return RegistryFrame(
        age,
        cohort.birth_year + age,
        cohort.gender[diag_idx].astype(np.int64),
        observed,
        event,
        [("0",), ("1",)],
    )


def true_net_survival(cfg: ScenarioConfig, years=None, seed_offset: int = 2_000_000) -> dict:
    """Generator truth: E[exp(-t * excess hazard)] over diagnosed-in-window
    subjects of a fresh large cohort."""
    years = tuple(cfg.years) if years is None else tuple(years)
    rng = np.random.default_rng(cfg.base_seed + seed_offset)
    n = cfg.n_truth
    gender = rng.integers(0, 2, n).astype(np.int8)
    t_diag, t_other = _draw_potentials(rng, cfg.dataset, n)
    lo, hi = cfg.diag_window
    keep = (t_diag >= lo) & (t_diag < hi) & (t_diag < t_other)
    age_cell = np.floor(t_diag[keep])
    lam = excess_hazard(age_cell, cfg.birth_year + age_cell, gender[keep])
    return {float(y): float(np.mean(np.exp(-lam * float(y)))) for y in years}


def true_noncancer_survival(cfg: ScenarioConfig, age: int, t: float) -> float:
    """Generator's non-cancer survival t years past exact integer age."""
    if cfg.dataset in (1, 2):
        lam, p = 1.0e-2, 2.0
        return float(np.exp(-((lam * (age + t)) ** p) + ((lam * age) ** p)))
    mu, sigma = math.log(75.0), 2.0

    def s(x):
        return 0.5 * math.erfc((math.log(x) - mu) / (sigma * math.sqrt(2.0)))

    return s(age + t) / s(age)


def _provider_window(cfg: ScenarioConfig) -> tuple:
    """Diagnosis-age range whose strata the adjustment can ever query."""
    hi = float(math.ceil(cfg.diag_window[1]) + cfg.horizon + 5)
    return (0.0, hi)


def run_replicate(cfg: ScenarioConfig, rep: int, methods=("naive", "adjusted")) -> dict:
    """Full pipeline for one replicate; returns per-method year values."""
    diagnostics = Diagnostics()
    cohort = generate_cohort(cfg, cfg.base_seed + rep)
    life_table, incidence = derive_tables(cohort, cfg.person_years)
    censor_seed = cfg.base_seed + 1_000_000 + rep
    frame_win = make_registry(cohort, censor_seed, cfg.diag_window, cfg.censor_max)
    risk = RiskSetSummary(frame_win)
    values: dict[str, list[float]] = {}
    for method in methods:
        if method == "naive":
            provider = naive_population_provider(life_table, cfg.horizon, diagnostics)
        elif method == "adjusted":
            frame_all = make_registry(cohort, censor_seed, _provider_window(cfg), cfg.censor_max)
            so = OverallSurvivalProvider.from_registry(
                frame_all,
                Banding(),
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
            provider = adjusted_population_provider(engine)
        else:
            raise ValueError(f"unknown method {method!r}")
        estimate = pohar_perme(risk, provider)
        values[method] = [estimate.survival_at(y) for y in cfg.years]
    return {
        "rep": rep,
        "values": values,
        "patients": frame_win.n,
        "events": frame_win.n_events,
        "counters": diagnostics.as_dict(),
    }


def _replicate_task(args):
    cfg, rep, methods = args
    try:
        return run_replicate(cfg, rep, methods)
    except Exception as exc:  # recorded and excluded; acceptance demands zero
        return {"rep": rep, "error": f"{type(exc).__name__}: {exc}"}


@dataclass
class ExperimentResult:
    """Aggregated bias/rMSE study output."""

    config: ScenarioConfig
    methods: tuple
    truth: dict
    estimates: dict            # method -> array (reps_ok, n_years)
    patients: np.ndarray
    events: np.ndarray
    excluded: list
    counters: dict

    def summary_rows(self) -> list[dict]:
        rows = []
        for method in self.methods:
            est = self.estimates[method]
            for j, year in enumerate(self.config.years):
                true = self.truth[float(year)]
                ave = float(est[:, j].mean())
                rows.append({
                    "dataset": self.config.dataset,
                    "year": float(year),
                    "method": method,
                    "true": true,
                    "ave": ave,
                    "pct_bias": 100.0 * (ave - true) / true,
                    "rmse_x100": 100.0 * float(np.sqrt(np.mean((est[:, j] - true) ** 2))),
                })
        return rows

    def count_rows(self) -> list[dict]:
        return [{
            "dataset": self.config.dataset,
            "patients_median": float(np.median(self.patients)),
            "patients_min": int(self.patients.min()),
            "patients_max": int(self.patients.max()),
            "events_median": float(np.median(self.events)),
            "events_min": int(self.events.min()),
            "events_max": int(self.events.max()),
        }]

    def bias(self, method: str, year: float) -> float:
        for row in self.summary_rows():
            if row["method"] == method and row["year"] == float(year):
                return row["pct_bias"]
        raise KeyError((method, year))

    def rmse(self, method: str, year: float) -> float:
        for row in self.summary_rows():
            if row["method"] == method and row["year"] == float(year):
                return row["rmse_x100"]
        raise KeyError((method, year))


def run_experiment(
    cfg: ScenarioConfig,
    methods=("naive", "adjusted"),
    jobs: int | None = None,
) -> ExperimentResult:
    """Run cfg.reps replicates (optionally in a process pool) and aggregate.

    Failed replicates are excluded and reported; identical (cfg, seed) always
    reproduce identical results regardless of worker count.
    """
    methods = tuple(methods)
    jobs = jobs if jobs is not None else (cfg.jobs or 1)
    tasks = [(cfg, rep, methods) for rep in range(cfg.reps)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            raw = list(pool.map(_replicate_task, tasks, chunksize=4))
    else:
        raw = [_replicate_task(t) for t in tasks]
    raw.sort(key=lambda r: r["rep"])
    ok = [r for r in raw if "error" not in r]
    excluded = [(r["rep"], r["error"]) for r in raw if "error" in r]
    for rep, err in excluded:
        log.error("replicate %d excluded: %s", rep, err)
    if not ok:
        raise RuntimeError(f"all {cfg.reps} replicates failed; first error: {excluded[0][1]}")
    diagnostics = Diagnostics()
    for r in ok:
        diagnostics.merge(r["counters"])
    diagnostics.incr("replicate_excluded", len(excluded))
    estimates = {
        m: np.array([r["values"][m] for r in ok], dtype=np.float64) for m in methods
    }
    return ExperimentResult(
        config=cfg,
        methods=methods,
        truth=true_net_survival(cfg),
        estimates=estimates,
        patients=np.array([r["patients"] for r in ok]),
        events=np.array([r["events"] for r in ok]),
        excluded=excluded,
        counters=diagnostics.as_dict(),
    )


def noncancer_survival_mae(cfg: ScenarioConfig, rep: int, ts=(1.0, 5.0, 10.0)) -> np.ndarray:
    """Mean |adjusted S_P - generator S_P| over the analysis strata, per t.

    Used by the consistency study: the error must shrink as the cohort
    grows.
    """
    cohort = generate_cohort(cfg, cfg.base_seed + rep)
    life_table, incidence = derive_tables(cohort, cfg.person_years)
    frame_all = make_registry(
        cohort, cfg.base_seed + 1_000_000 + rep, _provider_window(cfg), cfg.censor_max
    )
    diagnostics = Diagnostics()
    so = OverallSurvivalProvider.from_registry(
        frame_all, Banding(),
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
    for age in range(int(lo), int(hi)):
        for sex in ("0", "1"):
            key = StratumKey(age, cfg.birth_year + age, (sex,))
            curve = engine.solve(key)
            for t in ts:
                truth = true_noncancer_survival(cfg, age, t)
                errors[t].append(abs(float(curve.values[int(t)]) - truth))
    return np.array([float(np.mean(errors[t])) for t in ts])


def _mae_task(args):
    cfg, rep, ts = args
    return noncancer_survival_mae(cfg, rep, ts)
