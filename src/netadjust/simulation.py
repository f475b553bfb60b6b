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
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .adjustment import AdjustmentEngine
from .diagnostics import Diagnostics, ensure_diagnostics, log
from .estimators import RiskSetSummary, pohar_perme, population_survival
from .incidence import IR_CLIP, IncidenceTable
from .lifetable import LifeTable, diagonal_survival
from .registry import RegistryFrame
from .survival_provider import OverallSurvivalProvider

BASE_EXCESS_HAZARD = 0.1
AGE_REF, AGE_RATIO, AGE_SCALE = 60.0, 1.2, 7.5
YEAR_REF, YEAR_RATIO, YEAR_SCALE = 2000.0, 0.95, 15.0
GENDER_RATIO = 0.8

LIFETABLE_MAX_AGE = 130
TRUTH_PIECE = 1 << 16      # subjects per piece of the truth's draw: 512 KiB of float64, within L2


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

    def __post_init__(self):
        if self.dataset not in (1, 2, 3, 4):
            raise ValueError(f"dataset must be 1-4, got {self.dataset}")
        if not self.years:
            raise ValueError(f"at least one report year is required, got years={self.years!r}")
        if not all(math.isfinite(y) and y >= 0 for y in self.years):
            raise ValueError(f"report years must be finite and non-negative, got {self.years}")
        if self.horizon < max(self.years):
            raise ValueError("horizon must cover the largest report year")
        if self.extrapolation_points < 2:
            raise ValueError("need at least two extrapolation anchor points")
        for name in ("reps", "cohort_size", "n_truth"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not 0 <= self.diag_window[0] < self.diag_window[1]:
            raise ValueError(f"diag_window must satisfy 0 <= lo < hi, got {self.diag_window}")
        if not self.censor_max > 0:
            raise ValueError(f"censor_max must be positive, got {self.censor_max}")


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


# (diagnosis, other-death) age laws per dataset: ("weibull", rate, shape) or ("lognormal",
# median, SD of log; sigma 2 reproduces the published patient counts, sqrt(2) does not)
AGE_LAWS = {
    1: (("weibull", 0.5e-2, 1), ("weibull", 1.0e-2, 2)),
    2: (("weibull", 1.5e-2, 1), ("weibull", 1.0e-2, 2)),
    3: (("lognormal", 65.0, 2.0), ("lognormal", 75.0, 2.0)),
    4: (("lognormal", 65.0, 1.0), ("lognormal", 75.0, 2.0)),
}


def _draw_ages(rng: np.random.Generator, dataset: int, kind: int, n: int) -> np.ndarray:
    """n potential diagnosis (kind 0) or other-death (kind 1) ages.

    A Weibull(lam, p) age, hazard lam*p*(lam*t)^(p-1), is E^(1/p)/lam for a
    standard exponential E, scaled in place: shape 2 takes `np.sqrt`, which
    reads the stream `Generator.weibull(2)` reads, leaves the generator where
    it does and is within 1 ULP of its `pow(E, 0.5)`; shape 1 takes no root.
    """
    law, a, b = AGE_LAWS[dataset][kind]
    if law == "lognormal":
        return rng.lognormal(math.log(a), b, n)
    x = rng.standard_exponential(n)
    if b == 2:
        np.sqrt(x, out=x)
    x /= a
    return x


def generate_cohort(cfg: ScenarioConfig, seed: int) -> Cohort:
    """Deterministic cohort draw for (cfg, seed)."""
    rng = np.random.default_rng(seed)
    n = cfg.cohort_size
    gender = rng.integers(0, 2, n).astype(np.int8)
    t_diag, t_other = _draw_ages(rng, cfg.dataset, 0, n), _draw_ages(rng, cfg.dataset, 1, n)
    exp_raw = rng.standard_exponential(n)
    diagnosed = t_diag < t_other
    sick = np.flatnonzero(diagnosed)
    # covariates vary yearly: the hazard reads the integer (age, year) cell,
    # evaluated once per (gender, age) and gathered for the diagnosed
    onset = t_diag[sick]
    age_cell = onset.astype(np.intp)
    ages = np.arange(age_cell.max(initial=0) + 1.0)
    hazard = excess_hazard(ages, cfg.birth_year + ages, np.array([[0], [1]]))
    t_cancer, time_to_death, death_age = np.full(n, np.nan), np.full(n, np.nan), t_other.copy()
    t_cancer[sick] = cancer = exp_raw[sick] / hazard[gender[sick], age_cell]
    time_to_death[sick] = to_death = np.minimum(cancer, t_other[sick] - onset)
    death_age[sick] = onset + to_death
    return Cohort(cfg.birth_year, gender, t_diag, t_other, t_cancer,
                  diagnosed, time_to_death, death_age)


def derive_tables(
    cohort: Cohort,
    person_years: str = "midyear",
    max_age: int = LIFETABLE_MAX_AGE,
    diagnostics: Diagnostics | None = None,
) -> tuple[LifeTable, IncidenceTable]:
    """Annual life table and incidence rates from the realized cohort.

    q(a) = deaths in [a, a+1) / alive at exact age a (cancer deaths included);
    IR(a) = actual diagnoses in [a, a+1) / person-years of cancer-free
    subjects, with the mid-year convention counting each within-year exit as
    half a year ("exact" integrates the true exposure).  The table is
    truncated at the last age with anyone alive (capped at max_age) and both
    genders share the common truncation point.  Every count is one
    `np.bincount` over the (gender, age) cells `gender * width + floor(age)`.
    IR above IR_CLIP is clipped to it, counted as `incidence_clip`.
    """
    if person_years not in ("midyear", "exact"):
        raise ValueError(f"unknown person_years convention {person_years!r}")
    gender = cohort.gender.astype(np.intp)
    empty = np.flatnonzero(np.bincount(gender, minlength=2)[:2] == 0)
    if empty.size:
        raise ValueError(f"cohort has no subjects with gender {empty[0]}")
    free_until = np.minimum(cohort.t_diag, cohort.t_other)   # the diagnosis age, where diagnosed
    free_floor = np.floor(free_until).astype(np.intp)
    death_floor = np.floor(cohort.death_age).astype(np.intp)
    width = max(int(death_floor.max()), int(free_floor.max())) + 2
    free_cell = gender * width + free_floor

    def per_sex(cells, weights=None):
        """A gender x age table of counts (rows 0 and 1) from one bincount."""
        return np.bincount(cells, weights, minlength=2 * width).reshape(-1, width)[:2]

    deaths = per_sex(gender * width + death_floor)
    alive = deaths[:, ::-1].cumsum(axis=1)[:, ::-1]
    a_last = (alive > 0).sum(axis=1) - 1
    for a in a_last[a_last > max_age].tolist():
        log.debug("life table capped at age %d (last populated %d)", max_age, a)
    top = min(int(a_last.min()), max_age) + 1
    free_alive = per_sex(free_cell)[:, ::-1].cumsum(axis=1)[:, ::-1]
    diagnoses = per_sex(free_cell, cohort.diagnosed)[:, :top]
    if person_years == "midyear":
        py = 0.5 * (free_alive[:, :top] + free_alive[:, 1 : top + 1])
    else:
        py = free_alive[:, 1 : top + 1] + per_sex(free_cell, free_until - free_floor)[:, :top]
    bad = np.flatnonzero(~(py > 0) & (diagnoses > 0))
    if bad.size:
        sex, a = divmod(int(bad[0]), top)
        raise ValueError(f"diagnoses without person-years at age {a}, gender {sex}")
    demographics, sexes, ages = [("0",), ("1",)], np.repeat([0, 1], top), np.tile(np.arange(top), 2)
    years = cohort.birth_year + ages
    q = (deaths[:, :top] / alive[:, :top]).ravel()
    has = np.flatnonzero(py > 0)
    ir = diagnoses.ravel()[has] / py.ravel()[has]
    ensure_diagnostics(diagnostics).incr("incidence_clip", np.count_nonzero(ir > IR_CLIP))
    ir = np.minimum(ir, IR_CLIP)
    incidence = IncidenceTable((demographics, sexes[has], ages[has], years[has], ir))
    return LifeTable((demographics, sexes, ages, years, q), require_complete=False), incidence


def make_registry(
    cohort: Cohort,
    censor_seed: int,
    windows: tuple = ((60.0, 75.0),),
    censor_max: float = 15.0,
) -> list[RegistryFrame]:
    """Registries of diagnosed subjects with uniform censoring on [0, censor_max],
    one per (lo, hi) window of `windows`.

    A window keeps the diagnoses at ages lo <= t < hi.  Censoring times are
    drawn once, for every diagnosed subject, and every window is cut from
    that one draw, so a registry is exactly the subset of any wider
    window's registry that its window keeps.  Covariates are (floor(age),
    birth_year + floor(age), gender).
    """
    rng = np.random.default_rng(censor_seed)
    diag_idx = np.flatnonzero(cohort.diagnosed)
    censor = rng.uniform(0.0, censor_max, diag_idx.shape[0])
    t_diag, t_death = cohort.t_diag[diag_idx], cohort.time_to_death[diag_idx]
    observed, event = np.minimum(t_death, censor), t_death <= censor
    age = np.floor(t_diag).astype(np.int64)
    gender = cohort.gender[diag_idx].astype(np.int64)
    frames = []
    for lo, hi in windows:
        keep = np.flatnonzero((t_diag >= lo) & (t_diag < hi))
        frames.append(RegistryFrame(age[keep], cohort.birth_year + age[keep], gender[keep],
                                    observed[keep], event[keep], [("0",), ("1",)]))
    return frames


def true_net_survival(cfg: ScenarioConfig, years=None, seed_offset: int = 2_000_000) -> dict:
    """Generator truth: E[exp(-t * excess hazard)] over diagnosed-in-window
    subjects of a fresh cohort of cfg.n_truth, drawn TRUTH_PIECE subjects at
    a time in the order one whole draw makes them (the genders, then the
    diagnosis ages, then the other-death ages), keeping only the window's
    subjects: pieces of a draw equal one draw, so the values are bit for bit
    those of the whole cohort drawn at once."""
    years = tuple(cfg.years) if years is None else tuple(years)
    rng = np.random.default_rng(cfg.base_seed + seed_offset)
    lo, hi = cfg.diag_window
    sizes = [min(TRUTH_PIECE, cfg.n_truth - s) for s in range(0, cfg.n_truth, TRUTH_PIECE)]
    gender = [rng.integers(0, 2, m).astype(np.int8) for m in sizes]
    window, onset = [], []
    for m in sizes:
        t_diag = _draw_ages(rng, cfg.dataset, 0, m)
        window.append(np.flatnonzero((t_diag >= lo) & (t_diag < hi)))
        onset.append(t_diag[window[-1]])
    keep = np.concatenate([t < _draw_ages(rng, cfg.dataset, 1, m)[i] for m, i, t in zip(sizes, window, onset)])
    age_cell = np.floor(np.concatenate(onset)[keep])
    sex = np.concatenate([g[i] for g, i in zip(gender, window)])[keep]
    lam = excess_hazard(age_cell, cfg.birth_year + age_cell, sex)
    return {float(y): float(np.mean(np.exp(-lam * float(y)))) for y in years}


def _provider_window(cfg: ScenarioConfig) -> tuple:
    """Diagnosis-age range whose strata the adjustment can ever query."""
    hi = float(math.ceil(cfg.diag_window[1]) + cfg.horizon + 5)
    return (0.0, hi)


class ReplicateError(RuntimeError):
    """A replicate failed; the message names the failing stage and the cause."""


@contextmanager
def _stage(name: str):
    try:
        yield
    except Exception as exc:
        raise ReplicateError(f"{name}: {type(exc).__name__}: {exc}") from exc


def run_replicate(cfg: ScenarioConfig, rep: int, methods=("naive", "adjusted")) -> dict:
    """Full pipeline for one replicate; returns per-method year values.

    A failure raises `ReplicateError` naming its stage: `generate_cohort`,
    `derive_tables`, `make_registry` (the report window's registry and the
    wider one the provider reads, from one draw) or `risk_set`, then per method
    `<method>/provider`, `adjusted/solve` (every registry stratum in one
    `AdjustmentEngine.solve` call) and `<method>/estimate`.
    """
    diagnostics = Diagnostics()
    with _stage("generate_cohort"):
        cohort = generate_cohort(cfg, cfg.base_seed + rep)
    with _stage("derive_tables"):
        life_table, incidence = derive_tables(cohort, cfg.person_years, diagnostics=diagnostics)
    with _stage("make_registry"):
        frame_win, frame_all = make_registry(cohort, cfg.base_seed + 1_000_000 + rep,
                                             (cfg.diag_window, _provider_window(cfg)), cfg.censor_max)
    with _stage("risk_set"):
        risk = RiskSetSummary(frame_win)
    values: dict[str, list[float]] = {}
    for method in methods:
        with _stage(f"{method}/provider"):
            if method == "naive":
                grid = diagonal_survival(life_table, risk.cells, cfg.horizon, diagnostics)
            elif method == "adjusted":
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
            else:
                raise ValueError(f"unknown method {method!r}")
        if method == "adjusted":
            with _stage("adjusted/solve"):
                grid = engine.solve(risk.cells).values
        with _stage(f"{method}/estimate"):
            estimate = pohar_perme(risk, population_survival(grid, diagnostics))
            values[method] = [estimate.value_at(y) for y in cfg.years]
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
    except ReplicateError as exc:  # recorded and excluded; acceptance demands zero
        return {"rep": rep, "error": str(exc)}


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


def run_experiment(
    cfg: ScenarioConfig,
    methods=("naive", "adjusted"),
    jobs: int = 1,
) -> ExperimentResult:
    """Run cfg.reps replicates (in a pool of `jobs` processes when > 1) and aggregate.

    Failed replicates are excluded and reported; identical (cfg, seed) always
    reproduce identical results regardless of worker count.
    """
    methods = tuple(methods)
    tasks = [(cfg, rep, methods) for rep in range(cfg.reps)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor   # only here, so the CLI starts without it
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
