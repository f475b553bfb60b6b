"""Relative-survival estimators over a pluggable population-survival source.

All three estimators read the registry through one `RiskSetSummary`, built
once per registry and passed to each of them (records or a `RegistryFrame`
are summarised on the spot), plus a `PopulationSurvivalProvider` (either the
raw life-table cohort survival or the adjusted non-cancer survival).  The
summary holds one dense strata x times matrix, the at-risk counts; deaths
are kept one entry per death as (stratum row, time index), so Pohar-Perme's
weighted death sum is a single bincount of 1/S_P at those cells, and Ederer
I and the crude probability read pooled per-time death and at-risk counts.

The population-hazard terms are integrated in closed form: within any
interval where the risk set is frozen and the annual hazards are constant,

    integral of [sum_i Y_i dL_i / S_i] / [sum_j Y_j / S_j]
        = log(sum_j Y_j / S_j) evaluated at the endpoints,

because the numerator is exactly the derivative of the denominator, and the
Ederer-I population term telescopes the same way without the at-risk
indicator.  No discretization error is introduced anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import Diagnostics, ensure_diagnostics
from .extrapolation import AnnualGridSurvival
from .lifetable import LifeTable, diagonal_survival
from .registry import RegistryFrame, StratumKey, as_frame

WEIGHT_FLOOR = 1e-6


class EstimatorError(ValueError):
    """Estimation impossible on the given inputs."""


class PopulationSurvivalProvider:
    """(key, t) -> S_P and Lambda_P, floored so 1/S_P never exceeds 1/floor.

    Grids are produced lazily per stratum by `grid_fn` (annual survival
    values, index 0..horizon) and interpolated log-linearly, i.e. with a
    constant hazard inside each year.
    """

    def __init__(self, grid_fn, horizon: int, mode: str,
                 floor: float = WEIGHT_FLOOR, diagnostics: Diagnostics | None = None):
        self.grid_fn = grid_fn
        self.horizon = int(horizon)
        self.mode = mode
        self.floor = float(floor)
        self.diagnostics = ensure_diagnostics(diagnostics)
        self._curves: dict[StratumKey, AnnualGridSurvival] = {}

    def _curve(self, key: StratumKey) -> AnnualGridSurvival:
        curve = self._curves.get(key)
        if curve is None:
            grid = np.asarray(self.grid_fn(key), dtype=np.float64)
            floored = (grid < self.floor).sum()
            if floored:
                self.diagnostics.incr("weight_floor", int(floored))
                grid = np.maximum(grid, self.floor)
            curve = AnnualGridSurvival(grid, self.diagnostics)
            self._curves[key] = curve
        return curve

    def survival(self, key: StratumKey, t):
        return np.maximum(self._curve(key).survival_at(t), self.floor)

    def cumulative_hazard(self, key: StratumKey, t):
        return np.minimum(self._curve(key).cumulative_hazard_at(t), -np.log(self.floor))


def naive_population_provider(
    life_table: LifeTable, horizon: int, diagnostics: Diagnostics | None = None
) -> PopulationSurvivalProvider:
    """Standard practice: the life-table diagonal survival used as S_P."""
    diag = ensure_diagnostics(diagnostics)

    def grid_fn(key: StratumKey) -> np.ndarray:
        return diagonal_survival(life_table, key, horizon, diag).values

    return PopulationSurvivalProvider(grid_fn, horizon, "naive-lifetable", diagnostics=diag)


def adjusted_population_provider(engine) -> PopulationSurvivalProvider:
    """S_P from the solved non-cancer survival grids."""
    return PopulationSurvivalProvider(
        lambda key: engine.solve(key).values,
        engine.horizon,
        "adjusted",
        diagnostics=engine.diagnostics,
    )


class RiskSetSummary:
    """Risk sets of one registry, shared by all three estimators.

    `times` are the distinct observed times and `keys` the diagnosis strata.
    `at_risk` is the one strata x times matrix, using {T >= u}: on the
    interval between consecutive observed times the risk set equals the
    at-risk set of the right endpoint.  Deaths are kept one entry per death
    as (`death_rows`, `death_times`): stratum row and time index, in stratum
    order.  `pooled_deaths` and `pooled_at_risk` are the per-time totals.
    """

    def __init__(self, frame: RegistryFrame):
        if frame.n == 0:
            raise EstimatorError("cannot estimate from an empty registry")
        self.times, t_idx = np.unique(frame.time, return_inverse=True)
        order = np.lexsort((frame.year, frame.age, frame.demo_code))
        sa, sy, sc = frame.age[order], frame.year[order], frame.demo_code[order]
        first = np.concatenate(([True], (np.diff(sa) != 0) | (np.diff(sy) != 0) | (np.diff(sc) != 0)))
        self.keys: list[StratumKey] = [
            StratumKey(int(sa[i]), int(sy[i]), frame.demo_vocab[int(sc[i])])
            for i in np.flatnonzero(first)
        ]
        rows = np.empty(frame.n, dtype=np.intp)
        rows[order] = np.cumsum(first) - 1
        # count each patient at its own time, then sum from the right
        self.at_risk = np.zeros((len(self.keys), self.times.shape[0]))
        np.add.at(self.at_risk, (rows, t_idx), 1.0)
        np.cumsum(self.at_risk[:, ::-1], axis=1, out=self.at_risk[:, ::-1])
        dead = order[frame.event[order]]
        self.death_rows, self.death_times = rows[dead], t_idx[dead]
        self.pooled_deaths = np.bincount(self.death_times, minlength=self.times.shape[0])
        self.pooled_at_risk = self.at_risk.sum(axis=0)
        self.sizes = np.bincount(rows).astype(np.float64)
        self.n = frame.n


def as_risk_set(records) -> RiskSetSummary:
    if isinstance(records, RiskSetSummary):
        return records
    return RiskSetSummary(as_frame(records))


def _provider_matrix(values, keys, times) -> np.ndarray:
    """Strata x times matrix of `values(key, times)`, a provider's
    `survival` or `cumulative_hazard`."""
    return np.vstack([np.asarray(values(k, times)) for k in keys])


def _locate(estimate, t: float) -> tuple[int, float | None]:
    """(m, lo) for t > 0 on the estimate's observed times u: lo is None when
    the stored value at m is exact (t = u[m], or t past the last time, which
    is counted); otherwise t lies in (lo, u[m]), lo = 0 before u[0], where
    the risk set is column m of `at_risk`."""
    u = estimate.times
    m = int(np.searchsorted(u, t, side="left"))
    if m == u.shape[0]:
        estimate.provider.diagnostics.incr("beyond_support_eval")
        return m - 1, None
    if u[m] == t:
        return m, None
    return m, (float(u[m - 1]) if m > 0 else 0.0)


@dataclass
class NetSurvivalEstimate:
    """Excess cumulative hazard on the observed-time grid plus exact evaluation."""

    times: np.ndarray
    cum_hazard: np.ndarray
    _risk: RiskSetSummary
    provider: PopulationSurvivalProvider

    def cumulative_hazard_at(self, t) -> float:
        t = float(t)
        if t < 0:
            raise ValueError("t must be >= 0")
        if t == 0:
            return 0.0
        m, lo = _locate(self, t)
        if lo is None:
            return float(self.cum_hazard[m])
        base = float(self.cum_hazard[m - 1]) if m > 0 else 0.0
        y = self._risk.at_risk[:, m]
        sp = _provider_matrix(self.provider.survival, self._risk.keys, np.array([lo, t]))
        return base - float(np.log((y / sp[:, 1]).sum()) - np.log((y / sp[:, 0]).sum()))

    def survival_at(self, t) -> float:
        return float(np.exp(-self.cumulative_hazard_at(t)))

    value_at = survival_at


def pohar_perme(records, provider: PopulationSurvivalProvider) -> NetSurvivalEstimate:
    """Inverse-population-survival weighted excess-hazard estimator.

    Event increments weight each death by 1/S_P at its own covariates; the
    expected-mortality part subtracts the at-risk population hazard, with the
    interval integrals in the exact log form described in the module header.
    """
    rs = as_risk_set(records)
    u = rs.times
    sp = _provider_matrix(provider.survival, rs.keys, u)
    denom_prev = np.concatenate(
        ([rs.at_risk[:, 0].sum()], (rs.at_risk[:, 1:] / sp[:, :-1]).sum(axis=0))
    )
    w = np.reciprocal(sp, out=sp)
    # every observed time has someone at risk and 1/S_P > 0, so denom > 0
    denom = (rs.at_risk * w).sum(axis=0)
    weighted_deaths = np.bincount(
        rs.death_times, weights=w[rs.death_rows, rs.death_times], minlength=u.shape[0]
    )
    event_inc = weighted_deaths / denom
    expected_inc = np.log(denom) - np.log(denom_prev)
    cum = np.cumsum(event_inc - expected_inc)
    return NetSurvivalEstimate(u, cum, rs, provider)


@dataclass
class RelativeSurvivalEstimate:
    """Ederer-I style log relative-survival ratio."""

    times: np.ndarray
    na_values: np.ndarray
    _risk: RiskSetSummary
    provider: PopulationSurvivalProvider

    def cumulative_hazard_at(self, t) -> float:
        t = float(t)
        if t < 0:
            raise ValueError("t must be >= 0")
        if t == 0:
            return 0.0
        m, lo = _locate(self, t)
        if lo is None:
            t = float(self.times[m])   # t itself, or the last time when t is past it
        else:
            m -= 1
        na = float(self.na_values[m]) if m >= 0 else 0.0
        sp_t = _provider_matrix(self.provider.survival, self._risk.keys, np.array([t]))[:, 0]
        expected = float(np.log(self._risk.n) - np.log((self._risk.sizes * sp_t).sum()))
        return na - expected

    def survival_at(self, t) -> float:
        return float(np.exp(-self.cumulative_hazard_at(t)))

    value_at = survival_at


def ederer1(records, provider: PopulationSurvivalProvider) -> RelativeSurvivalEstimate:
    """Observed cumulative hazard minus the expected-survival-weighted
    population hazard; the population term runs over the whole cohort and
    telescopes to log(n) - log(sum_j S_P(t | Z_j))."""
    rs = as_risk_set(records)
    na = np.cumsum(rs.pooled_deaths / rs.pooled_at_risk)
    return RelativeSurvivalEstimate(rs.times, na, rs, provider)


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
    provider: PopulationSurvivalProvider

    def value_at(self, t, which: str = "cancer") -> float:
        t = float(t)
        if t < 0:
            raise ValueError("t must be >= 0")
        if t == 0:
            return 0.0
        values = getattr(self, which)
        m, lo = _locate(self, t)
        if lo is None:
            return float(values[m])
        base = float(values[m - 1]) if m > 0 else 0.0
        if which == "cancer_isotonic":
            return base
        y = self._risk.at_risk[:, m]
        lp = _provider_matrix(self.provider.cumulative_hazard, self._risk.keys, np.array([lo, t]))
        piece = float(self.km_left[m]) * float((y * (lp[:, 1] - lp[:, 0])).sum() / y.sum())
        return base + (-piece if which == "cancer" else piece)


def crude_probability(records, provider: PopulationSurvivalProvider) -> CrudeProbabilityEstimate:
    """Real-world probability of dying of cancer, competing mortality kept.

    Integrates the pooled Kaplan-Meier curve (left limits) against the
    excess-hazard increments: the all-cause Nelson-Aalen jumps minus the
    at-risk-averaged population hazard, the latter in exact annual pieces.
    """
    rs = as_risk_set(records)
    na_inc = rs.pooled_deaths / rs.pooled_at_risk
    km_left = np.concatenate(([1.0], np.cumprod(1.0 - na_inc)[:-1]))
    lp = _provider_matrix(provider.cumulative_hazard, rs.keys, rs.times)
    avg_pop = (rs.at_risk * np.diff(lp, axis=1, prepend=0.0)).sum(axis=0) / rs.pooled_at_risk
    cancer = np.cumsum(km_left * (na_inc - avg_pop))
    other = np.cumsum(km_left * avg_pop)
    iso = np.maximum.accumulate(cancer)
    return CrudeProbabilityEstimate(rs.times, cancer, other, iso, km_left, rs, provider)


def evaluate_at_years(estimate, years) -> list[tuple[float, float]]:
    """Evaluate an estimate at the requested years (constant past support)."""
    return [(float(y), float(estimate.value_at(float(y)))) for y in years]
