"""Relative-survival estimators over one population-survival grid per stratum.

All three estimators read the registry through one `RiskSetSummary`, built
once per registry and passed to each of them, plus one S_P stack from
`population_survival`: an annual grid per stratum, in the order of the
summary's `keys`, floored at WEIGHT_FLOOR.  The grids are the life table's
diagonal survival (naive mode) or the adjusted non-cancer survival of one
`AdjustmentEngine.solve` call.  The summary takes its strata from
`build_strata` and keeps each patient's and each death's (stratum row, time
index) in time order, and no strata x times array.  Ederer I and the crude
probability read pooled per-time death and at-risk counts.  S_P and the
yearly Lambda_P rates of a stratum are read from its row of the stack.

Pohar-Perme needs, at every observed time, the at-risk sum of 1/S_P.  In
unit year k (a grid year, or a year past the grid) a stratum's 1/S_P(k + f)
is exp(L_sk) exp(h_sk f), f in [0, 1], until it reaches 1/WEIGHT_FLOOR, so
the sum is a power series in f whose coefficients sum exp(L_sk) h_sk^n / n!
over the patients at risk, on segments of the year split where a stratum
at risk crosses the floor (`_at_risk_sums`).  That costs O(terms x
(patients + times + strata x segments)), with no strata x times array.  The
weighted death sum is one bincount of 1/S_P evaluated at the deaths.

The population-hazard terms are integrated in closed form: within any
interval where the risk set is frozen and the annual hazards are constant,

    integral of [sum_i Y_i dL_i / S_i] / [sum_j Y_j / S_j]
        = log(sum_j Y_j / S_j) evaluated at the endpoints,

because the numerator is exactly the derivative of the denominator, and the
Ederer-I population term telescopes the same way without the at-risk
indicator.  The crude probability's term evaluates no cell: Lambda_P has a
constant rate in each grid year, so its at-risk sum over an interval is the
at-risk patients' summed yearly rates times the overlaps, in O(patients x
grid years).  No discretization error is introduced anywhere; the moment
series stops once its remainder bound is below TAYLOR_TOL.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import Diagnostics, ensure_diagnostics
from .extrapolation import AnnualGridSurvival
from .registry import RegistryFrame, StratumKey, build_strata, stratum_keys

WEIGHT_FLOOR = 1e-6
# remainder bound of each grid year's Taylor series of 1/S_P in Pohar-Perme
TAYLOR_TOL = 1e-17


class EstimatorError(ValueError):
    """Estimation impossible on the given inputs."""


def population_survival(grid, diagnostics: Diagnostics | None = None) -> AnnualGridSurvival:
    """The S_P stack the estimators read: `grid` holds one annual grid
    (t = 0..K) per stratum, in the order of `RiskSetSummary.keys`, and its
    cells below WEIGHT_FLOOR are raised to it (counted as `weight_floor`),
    so 1/S_P never exceeds 1/WEIGHT_FLOOR."""
    diag = ensure_diagnostics(diagnostics)
    grid = np.asarray(grid, dtype=np.float64)
    floored = int((grid < WEIGHT_FLOOR).sum())
    if floored:
        diag.incr("weight_floor", floored)
        grid = np.maximum(grid, WEIGHT_FLOOR)
    return AnnualGridSurvival(grid, diag)


def _check_rows(rs: RiskSetSummary, sp: AnnualGridSurvival) -> None:
    """The stack must hold one row per stratum of `rs`, in its order."""
    if sp.values.shape[0] != rs.n_strata:
        raise EstimatorError(f"S_P stack has {sp.values.shape[0]} rows for {rs.n_strata} strata")


def _survival(sp: AnnualGridSurvival, rows, t) -> np.ndarray:
    """Rows x times S_P of the stack's `rows` (all when None) at the times
    `t`, floored at WEIGHT_FLOOR past the grid too."""
    out = sp.survival_at(t, rows)
    return np.maximum(out, WEIGHT_FLOOR, out=out)


def _hazard_rates(sp: AnnualGridSurvival) -> tuple[np.ndarray, np.ndarray]:
    """Lambda_P's yearly rates of every stratum (strata x K, the last one
    carried past the grid) and the time each stratum's Lambda_P reaches the
    cap -log(WEIGHT_FLOOR), inf if never: past the floored grids."""
    rates = sp.slopes
    crossing = np.full(rates.shape[0], np.inf)
    if rates.shape[1]:
        rising = np.flatnonzero(rates[:, -1] > 0.0)
        below = -np.log(WEIGHT_FLOOR) - sp.log_values[rising, -2]
        crossing[rising] = (sp.k_max - 1) + below / rates[rising, -1]
    return rates, crossing


class RiskSetSummary:
    """Risk sets of one registry, shared by all three estimators.

    `times` are the distinct observed times, `cells` the strata of
    `build_strata` in its order, demographics first seen first, `n_strata`
    their count and `keys` their `StratumKey`s, built when first read.
    At-risk counts use {T >= u}: on the interval between consecutive observed
    times the risk set equals the at-risk set of the right endpoint.  No
    strata x times array is kept.
    Each patient is kept as (`patient_rows`, `patient_times`), stratum row
    and time index, in time order (stratum order within a time), so a
    reverse cumulative sum over the patients sums any per-stratum value over
    the risk set of every time at once, as Pohar-Perme's moments and the
    crude probability's rates do; `at_risk_column` rebuilds the at-risk
    counts of one time.
    Deaths are the same pairs for the patients who died (`death_rows`,
    `death_times`), in the same order.  `pooled_deaths` and `pooled_at_risk`
    are the per-time totals, `sizes` the patients per stratum and
    `last_times` each stratum's last time index.
    """

    def __init__(self, frame: RegistryFrame):
        if frame.n == 0:
            raise EstimatorError("cannot estimate from an empty registry")
        self.times, t_idx = np.unique(frame.time, return_inverse=True)
        (demographics, codes, ages, years), sizes, rows = build_strata(frame)
        present, codes = np.unique(codes, return_inverse=True)
        self.cells = ([demographics[c] for c in present.tolist()], codes.reshape(-1), ages, years)
        # (time index, stratum row) pairs sorted as one integer each
        n_strata = self.n_strata = sizes.shape[0]
        pairs = t_idx * n_strata + rows
        self.patient_times, self.patient_rows = np.divmod(np.sort(pairs), n_strata)
        self.death_times, self.death_rows = np.divmod(np.sort(pairs[np.flatnonzero(frame.event)]), n_strata)
        n_times = self.times.shape[0]
        self.pooled_deaths = np.bincount(self.death_times, minlength=n_times)
        exits = np.bincount(t_idx, minlength=n_times).astype(np.float64)
        self.pooled_at_risk = np.cumsum(exits[::-1])[::-1]
        self.last_times = np.zeros(n_strata, np.intp)
        np.maximum.at(self.last_times, rows, t_idx)
        self.sizes = sizes.astype(np.float64)
        self.n = frame.n

    @functools.cached_property
    def keys(self) -> list[StratumKey]:
        return stratum_keys(self.cells)

    def at_risk_column(self, m: int) -> np.ndarray:
        """At-risk counts of every stratum at time index m."""
        p = int(np.searchsorted(self.patient_times, m))
        return np.bincount(self.patient_rows[p:], minlength=self.n_strata).astype(np.float64)


def _locate(estimate, t: float) -> tuple[int, float | None]:
    """(m, lo) for t >= 0 on the estimate's observed times u: lo is None when
    the stored value at m is exact (t = u[m], deaths at u[m] = 0 included, or
    t past the last time, which is counted); otherwise t lies in (lo, u[m]),
    lo = 0 before u[0], where the risk set is the one at time index m."""
    if t < 0:
        raise ValueError("t must be >= 0")
    u = estimate.times
    m = int(np.searchsorted(u, t, side="left"))
    if m == u.shape[0]:
        estimate.population.diagnostics.incr("beyond_support_eval")
        return m - 1, None
    if u[m] == t:
        return m, None
    return m, (float(u[m - 1]) if m > 0 else 0.0)


def _at_risk_hazard(rs: RiskSetSummary, sp: AnnualGridSurvival, edges: np.ndarray, first: int = 0) -> np.ndarray:
    """Sum of Lambda_P(hi) - Lambda_P(lo) over the patients at risk, for each
    interval (lo, hi] between consecutive `edges`; interval j has the risk
    set of time index first + j.  Lambda_P's rate is constant on each grid
    year and runs on past the grid until the cap, so each sum adds, year by
    year, the rates of the patients at risk times their overlaps with the
    interval: a reverse cumulative sum over the patients in time order."""
    rates, crossing = _hazard_rates(sp)
    p0 = int(np.searchsorted(rs.patient_times, first))
    rows, lo, hi = rs.patient_rows[p0:], edges[:-1], edges[1:]
    n, n_seg, out = lo.shape[0], rates.shape[1], np.zeros(lo.shape[0])
    exits = np.minimum(rs.patient_times[p0:] - first, n - 1)
    for k in range(n_seg):
        j0 = int(np.searchsorted(hi, k, side="right"))
        p = int(np.searchsorted(exits, j0))
        # a patient's rate stops at the year's end, or past the grid at its
        # stratum's crossing time: whole intervals up to the one holding
        # the stop, and part of that one
        rate = rates[rows[p:], k]
        stop = np.minimum(crossing[rows[p:]], k + 1.0 if k < n_seg - 1 else np.inf)
        cross = np.searchsorted(hi, stop)
        ends = np.flatnonzero(cross <= exits[p:])
        part = np.maximum(stop[ends] - np.maximum(lo[cross[ends]], k), 0.0)
        out += np.bincount(cross[ends], weights=rate[ends] * part, minlength=n)
        # bin i + 1: the rates of the patients whose last whole interval is j0 + i
        last = np.minimum(exits[p:], cross - 1) - j0
        summed = np.bincount(last + 1, weights=rate, minlength=n - j0 + 1)[:0:-1].cumsum()[::-1]
        out[j0:] += (hi[j0:] - np.maximum(lo[j0:], k)) * summed
    return out


@dataclass
class NetSurvivalEstimate:
    """Excess cumulative hazard on the observed-time grid plus exact evaluation."""

    times: np.ndarray
    cum_hazard: np.ndarray
    _risk: RiskSetSummary
    population: AnnualGridSurvival

    def cumulative_hazard_at(self, t: float) -> float:
        m, lo = _locate(self, t)
        if lo is None:
            return float(self.cum_hazard[m])
        base = float(self.cum_hazard[m - 1]) if m > 0 else 0.0
        # S_P at lo and t of the strata at risk; the others' 1 meets y = 0
        y = self._risk.at_risk_column(m)
        sp, live = np.ones((y.shape[0], 2)), y > 0
        sp[live] = _survival(self.population, np.flatnonzero(live), [lo, t])
        return base - float(np.log((y / sp[:, 1]).sum()) - np.log((y / sp[:, 0]).sum()))

    def value_at(self, t) -> float:
        return float(np.exp(-self.cumulative_hazard_at(t)))


def _taylor_terms(x: np.ndarray) -> np.ndarray:
    """For each grid year, the fewest N with x^(N+1)/(N+1)! e^x <= TAYLOR_TOL,
    x the year's largest |rate|: a bound on the remainder of exp(h f)'s
    series after N terms for |h| <= x and f in [0, 1]."""
    terms = []
    for value in x.tolist():
        n, bound = 0, value * math.exp(value)
        while bound > TAYLOR_TOL:
            n += 1
            bound *= value / (n + 1)
        terms.append(n)
    return np.array(terms, dtype=np.intp)


def _at_risk_sums(rs: RiskSetSummary, sp: AnnualGridSurvival):
    """Pohar-Perme's sums at every observed time: (denom, denom_prev,
    weighted_deaths), the at-risk sum of 1/S_P at the time and at the
    previous one (S_P = 1 at time 0), and the deaths' summed 1/S_P.

    Each sum is a power series in f, one per segment: a unit year (a grid
    year, the last one holding K, or a year past the grid) split at the
    weight-floor crossing of any stratum still at risk.  In a segment a
    stratum's 1/S_P is exp(L) exp(h f), f in [0, 1] from the unit year's
    start, or 1/WEIGHT_FLOOR once it has crossed, so the coefficient M_n at
    time index j sums exp(L) h^n / n! over the patients at risk at j: those
    leaving in j's segment from j on, one reverse cumulative sum over them,
    plus those still at risk past the segment, by stratum.  One Horner pass
    evaluates the series; the death weights are evaluated directly."""
    u, n_times = rs.times, rs.times.shape[0]
    # -log S_P at each grid year's start and Lambda_P's rate in it; a
    # one-point grid is S_P = 1 throughout
    logs, rates = sp.log_values[:, :-1], sp.slopes
    if not rates.shape[1]:
        logs = rates = np.zeros((rs.n_strata, 1))
    last, cap = rates.shape[1] - 1, -np.log(WEIGHT_FLOOR)
    crossing = _hazard_rates(sp)[1]
    year = np.floor(u).astype(np.intp)
    if sp.k_max:
        year[u == sp.k_max] = sp.k_max - 1
    f = u - year
    # the segments: runs of times in one unit year, past the same crossings
    crossed = np.searchsorted(np.sort(crossing[crossing <= u[rs.last_times]]), u, side="right")
    new = np.ones(n_times, dtype=bool)
    new[1:] = (year[1:] != year[:-1]) | (crossed[1:] != crossed[:-1])
    starts = np.flatnonzero(new)
    n_seg = starts.shape[0]
    segment = np.cumsum(new) - 1
    # row g: each stratum's patients at risk past segment g - 1
    exits = np.bincount(segment[rs.patient_times] * rs.n_strata + rs.patient_rows, minlength=(n_seg + 1) * rs.n_strata)
    staying = exits.reshape(n_seg + 1, rs.n_strata)[::-1].cumsum(axis=0)[::-1].astype(np.float64)
    terms = _taylor_terms(np.abs(rates).max(axis=0))
    moments = np.zeros((int(terms[np.minimum(year[starts], last)].max()) + 1, n_times))
    tails = np.zeros((moments.shape[0], n_seg))
    p = np.searchsorted(rs.patient_times, np.arange(n_times + 1))
    bounds = [*starts.tolist(), n_times]
    for g in range(n_seg):
        j0, j1 = bounds[g], bounds[g + 1]
        if g == 0 or year[j0] != year[j0 - 1]:
            # exp(L) h^n / n! of every stratum, L = -log S_P at the year's start
            k = min(int(year[j0]), last)
            powers = rates[:, k] / np.arange(1.0, terms[k] + 1)[:, None]
            start = np.exp(np.minimum(logs[None, :, k] + rates[None, :, k] * (year[j0] - k), cap))
            coef = np.cumprod(np.concatenate((start, powers)), axis=0)
        if crossed[j0]:
            # past its crossing a stratum's 1/S_P is the floor's
            capped = crossing <= u[j0]
            coef[0, capped], coef[1:, capped] = 1.0 / WEIGHT_FLOOR, 0.0
        n = coef.shape[0]
        tails[:n, g] = coef @ staying[g + 1]
        # column c of the reverse cumulative sums sums the last c + 1 leaving
        leaving = np.cumsum(coef[:, rs.patient_rows[p[j0] : p[j1]][::-1]], axis=1)
        moments[:n, j0:j1] = leaving[:, p[j1] - 1 - p[j0:j1]] + tails[:n, g, None]
    # the sums at the previous time: in its own segment, with the risk set of
    # j (the patients past it at a segment's first time); S_P = 1 at time 0
    before = moments.copy()
    before[:, starts[1:]] = tails[:, :-1]
    before[:, 0] = 0.0
    before[0, 0] = rs.pooled_at_risk[0]
    # every observed time has someone at risk and 1/S_P > 0, so denom > 0
    denom, denom_prev, f_prev = np.zeros(n_times), np.zeros(n_times), np.concatenate(([0.0], f[:-1]))
    for row, row_prev in zip(moments[::-1], before[::-1]):   # Horner
        denom, denom_prev = denom * f + row, denom_prev * f_prev + row_prev
    # one count per stratum at risk at each observed time past the grid
    first = int(np.searchsorted(u, sp.k_max, side="right"))
    sp.diagnostics.incr("grid_extended_eval", int(np.maximum(rs.last_times - first + 1, 0).sum()))
    rows, j = rs.death_rows, rs.death_times
    k = np.minimum(year[j], last)
    h = rates[rows, k]
    death_weights = np.exp(np.minimum(logs[rows, k] + h * (year[j] - k) + h * f[j], cap))
    # one bincount over the deaths in time order, stratum order within a
    # time: each time's weights are added in stratum order
    return denom, denom_prev, np.bincount(j, weights=death_weights, minlength=n_times)


def pohar_perme(rs: RiskSetSummary, sp: AnnualGridSurvival) -> NetSurvivalEstimate:
    """Inverse-population-survival weighted excess-hazard estimator.

    Event increments weight each death by 1/S_P at its own covariates; the
    expected-mortality part subtracts the at-risk population hazard, with the
    interval integrals in the exact log form described in the module header.
    The sums of 1/S_P come from `_at_risk_sums`.
    """
    _check_rows(rs, sp)
    denom, denom_prev, weighted_deaths = _at_risk_sums(rs, sp)
    event_inc = weighted_deaths / denom
    expected_inc = np.log(denom) - np.log(denom_prev)
    return NetSurvivalEstimate(rs.times, np.cumsum(event_inc - expected_inc), rs, sp)


@dataclass
class RelativeSurvivalEstimate:
    """Ederer-I style log relative-survival ratio."""

    times: np.ndarray
    na_values: np.ndarray
    _risk: RiskSetSummary
    population: AnnualGridSurvival

    def cumulative_hazard_at(self, t: float) -> float:
        m, lo = _locate(self, t)
        if lo is None:
            t = float(self.times[m])   # t itself, or the last time when t is past it
        else:
            m -= 1
        na = float(self.na_values[m]) if m >= 0 else 0.0
        sp_t = _survival(self.population, None, t)[:, 0]
        expected = float(np.log(self._risk.n) - np.log((self._risk.sizes * sp_t).sum()))
        return na - expected

    def value_at(self, t) -> float:
        return float(np.exp(-self.cumulative_hazard_at(t)))


def ederer1(rs: RiskSetSummary, sp: AnnualGridSurvival) -> RelativeSurvivalEstimate:
    """Observed cumulative hazard minus the expected-survival-weighted
    population hazard; the population term runs over the whole cohort and
    telescopes to log(n) - log(sum_j S_P(t | Z_j))."""
    _check_rows(rs, sp)
    na = np.cumsum(rs.pooled_deaths / rs.pooled_at_risk)
    return RelativeSurvivalEstimate(rs.times, na, rs, sp)


@dataclass
class CrudeProbabilityEstimate:
    """Cumulative crude probabilities of cancer and of other-cause death.

    `cancer` is reported raw (can be locally non-monotone) together with a
    running-max isotonized copy; `cancer + other` equals one minus the
    pooled Kaplan-Meier curve by construction.
    """

    times: np.ndarray
    cancer: np.ndarray
    other: np.ndarray
    cancer_isotonic: np.ndarray
    km_left: np.ndarray
    _risk: RiskSetSummary
    population: AnnualGridSurvival

    def value_at(self, t: float, which: str = "cancer") -> float:
        values = getattr(self, which)
        m, lo = _locate(self, t)
        if lo is None:
            return float(values[m])
        base = float(values[m - 1]) if m > 0 else 0.0
        if which == "cancer_isotonic":
            return base
        weighted = _at_risk_hazard(self._risk, self.population, np.array([lo, t]), m)[0]
        piece = float(self.km_left[m]) * float(weighted / self._risk.pooled_at_risk[m])
        return base + (-piece if which == "cancer" else piece)


def crude_probability(rs: RiskSetSummary, sp: AnnualGridSurvival) -> CrudeProbabilityEstimate:
    """Real-world probability of dying of cancer, competing mortality kept.

    Integrates the pooled Kaplan-Meier curve (left limits) against the
    excess-hazard increments: the all-cause Nelson-Aalen jumps minus the
    at-risk-averaged population hazard, summed in closed form from the
    yearly hazard rates of the patients at risk (`_at_risk_hazard`).
    """
    _check_rows(rs, sp)
    na_inc = rs.pooled_deaths / rs.pooled_at_risk
    km_left = np.concatenate(([1.0], np.cumprod(1.0 - na_inc)[:-1]))
    weighted = _at_risk_hazard(rs, sp, np.concatenate(([0.0], rs.times)))
    avg_pop = weighted / rs.pooled_at_risk
    cancer = np.cumsum(km_left * (na_inc - avg_pop))
    other = np.cumsum(km_left * avg_pop)
    iso = np.maximum.accumulate(cancer)
    return CrudeProbabilityEstimate(rs.times, cancer, other, iso, km_left, rs, sp)


def evaluate_at_years(estimate, years) -> list[tuple[float, float]]:
    """Evaluate an estimate at the requested years (constant past support)."""
    return [(float(y), float(estimate.value_at(float(y)))) for y in years]
