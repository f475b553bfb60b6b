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
grid year k a stratum's 1/S_P(k + f) is exp(L_sk) exp(h_sk f), f in [0, 1],
so the sum is a power series in f whose coefficients M_n sum
exp(L_sk) h_sk^n / n! over the patients at risk: one reverse cumulative sum
over the patients in time order per term, with the terms chosen from the
year's largest rate.  That costs O((patients + times) x terms) per year,
against one S_P cell per stratum at risk per time for streaming the at-risk
counts in column blocks and evaluating S_P for the strata at risk.
`pohar_perme` takes the moments for the times on the grid when they cost
less (a 1,200-stratum registry), and streams otherwise (a ~30-stratum study
replicate), as it always does past the grid, where the weight floor caps
each stratum at its own crossing time.  Its weighted death sum is one
bincount of 1/S_P evaluated at the deaths.

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
# cells of one at-risk column block: a ~30-stratum study replicate is one block
BLOCK_CELLS = 1 << 17


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


def _survival(sp: AnnualGridSurvival, rows, t, at_risk=None) -> np.ndarray:
    """Rows x times S_P of the stack's `rows` (all when None) at the times
    `t`, floored at WEIGHT_FLOOR past the grid too; `at_risk` counts as in
    `AnnualGridSurvival`."""
    out = sp.survival_at(t, rows, at_risk)
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
    `build_strata` in its order, numbered like `stratum_cells`, `n_strata`
    their count and `keys` their `StratumKey`s, built when first read.
    At-risk counts use {T >= u}: on the interval between consecutive observed
    times the risk set equals the at-risk set of the right endpoint.  No
    strata x times array is kept.
    Each patient is kept as (`patient_rows`, `patient_times`), stratum row
    and time index, in time order (stratum order within a time), so a
    reverse cumulative sum over the patients sums any per-stratum value over
    the risk set of every time at once, as Pohar-Perme's moments and the
    crude probability's rates do.  `blocks` rebuilds the at-risk counts one
    column block at a time from each stratum's remaining count, from any
    time on; `at_risk_column` rebuilds one column.
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

    def blocks(self, start: int = 0):
        """Yield (j0, j1, rows, Y) over the observed times from time index
        `start` on, in order: `rows` are the strata with someone at risk at
        time index j0 (ascending) and `Y` their C-ordered at-risk counts at
        time indices j0..j1-1, about BLOCK_CELLS cells.  A block spans at
        least two times unless only one is left, so that summing `Y`-shaped
        arrays over strata always adds rows one after another, as for a
        whole strata x times array."""
        n_times = self.times.shape[0]
        remaining = self.at_risk_column(start)
        position = np.empty(self.n_strata, dtype=np.intp)
        j0, p0 = start, int(np.searchsorted(self.patient_times, start))
        while j0 < n_times:
            rows = np.flatnonzero(remaining)
            j1 = min(n_times, j0 + max(2, BLOCK_CELLS // rows.shape[0]))
            if j1 == n_times - 1:
                j1 = n_times
            p1 = int(np.searchsorted(self.patient_times, j1))
            width = j1 - j0
            position[rows] = np.arange(rows.shape[0])
            pos = position[self.patient_rows[p0:p1]]
            col = self.patient_times[p0:p1] - j0
            # a stratum's row of the block is constant between the times its
            # patients leave: one run per stratum and one more per patient
            # leaving before the block's last time, filled with np.repeat
            row_ends = np.arange(1, rows.shape[0] + 1) * width
            ends = np.sort(np.concatenate(((pos * width + col + 1)[col < width - 1], row_ends)))
            first = np.searchsorted(ends, row_ends - width, side="right")
            values = (remaining[rows] + first)[(ends - 1) // width] - np.arange(ends.shape[0])
            y = np.repeat(values, np.diff(ends, prepend=0)).reshape(rows.shape[0], width)
            yield j0, j1, rows, y
            remaining[rows] -= np.bincount(pos, minlength=rows.shape[0])
            j0, p0 = j1, p1

    def at_risk_column(self, m: int) -> np.ndarray:
        """At-risk counts of every stratum at time index m."""
        p = int(np.searchsorted(self.patient_times, m))
        return np.bincount(self.patient_rows[p:], minlength=self.n_strata).astype(np.float64)


def _from_zero(reader):
    """`reader(self, t, ...)` of t > 0 as a reader of any t >= 0, 0 at t = 0."""

    @functools.wraps(reader)
    def read(self, t, *args, **kwargs):
        t = float(t)
        if t < 0:
            raise ValueError("t must be >= 0")
        return reader(self, t, *args, **kwargs) if t else 0.0

    return read


def _locate(estimate, t: float) -> tuple[int, float | None]:
    """(m, lo) for t > 0 on the estimate's observed times u: lo is None when
    the stored value at m is exact (t = u[m], or t past the last time, which
    is counted); otherwise t lies in (lo, u[m]), lo = 0 before u[0], where
    the risk set is the one at time index m."""
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

    @_from_zero
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


def _years(u: np.ndarray, n_years: int):
    """Each time's grid year (the last year also holds K) and the index of
    the first time of each year that holds one."""
    year = np.minimum(np.floor(u).astype(np.intp), n_years - 1)
    return year, np.flatnonzero(np.diff(year, prepend=-1))


def _moments_pay(rs: RiskSetSummary, rates: np.ndarray, first: int) -> bool:
    """Whether `_moment_sums` over the first `first` times costs less than
    the stream: (terms + 1) x (patients at risk + times), summed over the
    grid years, against the strata at risk summed over the times."""
    year, starts = _years(rs.times[:first], rates.shape[1])
    patients = rs.patient_times.shape[0] - np.searchsorted(rs.patient_times, starts)
    terms = _taylor_terms(np.abs(rates).max(axis=0))[year[starts]]
    moments = ((terms + 1) * (patients + np.diff(starts, append=first))).sum()
    return 0 < moments < np.minimum(rs.last_times + 1, first).sum()


def _moment_sums(rs: RiskSetSummary, logs: np.ndarray, rates: np.ndarray, first: int):
    """Pohar-Perme's at-risk sums at the first `first` observed times, all on
    the grid, from per-year moments: (denom, denom_prev, the weights of the
    deaths at those times).  `logs` and `rates` are -log S_P at the grid
    points and the yearly slopes, one row per stratum of `rs.keys`.

    In grid year k, the at-risk sum of 1/S_P at time index j is
    sum_n f^n M_n(k, j), where M_n(k, j) sums exp(L_sk) h_sk^n / n! over the
    patients at risk at j: a reverse cumulative sum over the patients in
    time order, read at each time of the year and at the next time, whose
    denom_prev is the same series at the year's last f.  Horner evaluates
    the series in f; the death weights are evaluated directly."""
    from numpy.polynomial.polynomial import polyval

    u, n_patients = rs.times[:first], rs.patient_times.shape[0]
    # the patients at risk at time index j are those from p[j] on in time order
    p = np.searchsorted(rs.patient_times, np.arange(first))
    year, starts = _years(u, rates.shape[1])
    f, terms = u - year, _taylor_terms(np.abs(rates).max(axis=0))
    denom, denom_prev = np.empty(first), np.empty(first)
    denom_prev[0] = rs.pooled_at_risk[0]   # S_P = 1 at time 0
    for j0, j1 in zip(starts, [*starts[1:], first]):
        k = year[j0]
        powers = rates[:, k] / np.arange(1.0, terms[k] + 1)[:, None]
        coef = np.cumprod(np.concatenate((np.exp(logs[None, :, k]), powers)), axis=0)
        # column c of the reverse cumulative sums sums the last c + 1 patients
        moments = np.cumsum(coef[:, rs.patient_rows[p[j0]:][::-1]], axis=1)[:, n_patients - 1 - p[j0 : j1 + 1]]
        denom[j0:j1] = polyval(f[j0:j1], moments[:, : j1 - j0], tensor=False)
        denom_prev[j0 + 1 : j1 + 1] = polyval(f[j0:j1][: moments.shape[1] - 1], moments[:, 1:], tensor=False)
    d = int(np.searchsorted(rs.death_times, first))
    rows, j = rs.death_rows[:d], rs.death_times[:d]
    return denom, denom_prev, np.exp(logs[rows, year[j]] + rates[rows, year[j]] * f[j])


def pohar_perme(rs: RiskSetSummary, sp: AnnualGridSurvival) -> NetSurvivalEstimate:
    """Inverse-population-survival weighted excess-hazard estimator.

    Event increments weight each death by 1/S_P at its own covariates; the
    expected-mortality part subtracts the at-risk population hazard, with the
    interval integrals in the exact log form described in the module header.
    The at-risk sums of 1/S_P at the times on the grid come from per-year
    moments (`_moment_sums`) when `_moments_pay`; the other times are
    streamed over `rs.blocks`.
    """
    _check_rows(rs, sp)
    u = rs.times
    logs, rates = sp.log_values, sp.slopes
    denom, denom_prev = np.empty(u.shape), np.empty(u.shape)
    death_weights = np.empty(rs.death_times.shape)
    first = int(np.searchsorted(u, rates.shape[1], side="right")) if rates.shape[1] else 0
    if _moments_pay(rs, rates, first):
        denom[:first], denom_prev[:first], weights = _moment_sums(rs, logs, rates, first)
        death_weights[: weights.shape[0]] = weights
    else:
        first = 0
    # S_P at the previous observed time, 1 before the first
    sp_last = _survival(sp, None, u[first - 1])[:, 0] if first else np.ones(rs.n_strata)
    position = np.empty(rs.n_strata, dtype=np.intp)
    d0 = int(np.searchsorted(rs.death_times, first))
    for j0, j1, rows, y in rs.blocks(first):
        s = _survival(sp, rows, u[j0:j1], y)
        ratio = np.empty_like(s)
        np.divide(y[:, 0], sp_last[rows], out=ratio[:, 0])
        np.divide(y[:, 1:], s[:, :-1], out=ratio[:, 1:])
        sp_last[rows] = s[:, -1]
        denom_prev[j0:j1] = ratio.sum(axis=0)
        w = np.reciprocal(s, out=s)
        d1 = int(np.searchsorted(rs.death_times, j1))
        position[rows] = np.arange(rows.shape[0])
        death_weights[d0:d1] = w[position[rs.death_rows[d0:d1]], rs.death_times[d0:d1] - j0]
        d0 = d1
        # every observed time has someone at risk and 1/S_P > 0, so denom > 0
        denom[j0:j1] = np.multiply(y, w, out=w).sum(axis=0)
    # one bincount over the deaths in time order, stratum order within a
    # time: each time's weights are added in stratum order
    weighted_deaths = np.bincount(rs.death_times, weights=death_weights, minlength=u.shape[0])
    event_inc = weighted_deaths / denom
    expected_inc = np.log(denom) - np.log(denom_prev)
    cum = np.cumsum(event_inc - expected_inc)
    return NetSurvivalEstimate(u, cum, rs, sp)


@dataclass
class RelativeSurvivalEstimate:
    """Ederer-I style log relative-survival ratio."""

    times: np.ndarray
    na_values: np.ndarray
    _risk: RiskSetSummary
    population: AnnualGridSurvival

    @_from_zero
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

    @_from_zero
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
