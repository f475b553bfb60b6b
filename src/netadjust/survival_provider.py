"""Per-stratum overall-survival lookup built from registry data.

Each stratum gets a Kaplan-Meier curve continued by the exponential tail fit;
queries for strata the registry never saw are clamped to the declared
age/year ranges and, failing an exact hit, resolved to the nearest existing
stratum with the same demographics.  The registry is stratified once: every
patient is labelled with its final (merged) stratum and all strata share one
stacked event table.  The first survival query builds every stratum's curve,
tail fit and population grid in one batch; later queries only evaluate them.

`SurvivalLagTable` is the one cache of these values the adjustment reads:
every stratum's survival evaluated on a shared grid of lags in one call.
"""
from __future__ import annotations

import numpy as np

from .diagnostics import Diagnostics, ensure_diagnostics
from .extrapolation import AnnualGridSurvival, ExtendedSurvival, extend_survival, follow_up_cutoff
from .lifetable import LifeTable, diagonal_survival
from .registry import (
    Banding,
    EventTable,
    RegistryFrame,
    StratumKey,
    build_strata,
    kaplan_meier,
    merge_small_strata,
)

LIFETABLE_POP_GRID = 120  # annual steps of the per-cell population-cap grid


class ProviderError(ValueError):
    """No usable stratum for the requested demographics."""


class OverallSurvivalProvider:
    """Callable (keys, times) -> overall-survival values for cancer patients.

    `keys` are the strata in the order of the rows of `table`, a stacked
    `EventTable`.  When a life table is supplied, every extrapolated value
    (t > tau) is reshaped by the population of the stratum's own cell: it is
    multiplied by the population's hazard growth past the fit window and
    capped at the population's own survival from tau (see `_harden_tail`).
    This is a model choice, not a rare guard: it lowers extrapolated values
    in every stratum of a dataset-2 replicate (33 of 33).
    """

    def __init__(
        self,
        keys: list[StratumKey],
        table: EventTable,
        alias: dict[StratumKey, StratumKey] | None = None,
        anchor_points: int = 4,
        tau_min_at_risk: int = 5,
        population_floor: LifeTable | None = None,
        diagnostics: Diagnostics | None = None,
    ):
        if not keys:
            raise ProviderError("no strata available")
        self.strata: dict[StratumKey, int] = {key: row for row, key in enumerate(keys)}
        self.table = table
        self.alias = dict(alias) if alias else {}
        self.anchor_points = int(anchor_points)
        self.tau_min_at_risk = int(tau_min_at_risk)
        self.population_floor = population_floor
        self.diagnostics = ensure_diagnostics(diagnostics)
        self._curve: ExtendedSurvival | None = None
        self._population: AnnualGridSurvival | None = None
        self._resolved: dict[StratumKey, StratumKey] = {}
        self._index: dict[tuple, list[StratumKey]] = {}
        for key in keys:
            self._index.setdefault(key.demographics, []).append(key)
        self._ranges = {}
        for demo, demo_keys in self._index.items():
            ages = [k.age for k in demo_keys]
            years = [k.year for k in demo_keys]
            self._ranges[demo] = (min(ages), max(ages), min(years), max(years))

    @classmethod
    def from_registry(
        cls,
        frame: RegistryFrame,
        banding: Banding = Banding(),
        min_stratum_size: int = 10,
        anchor_points: int = 4,
        tau_min_at_risk: int = 5,
        population_floor: LifeTable | None = None,
        diagnostics: Diagnostics | None = None,
    ) -> "OverallSurvivalProvider":
        """Stratify once: merge strata by size, label every patient with its
        final stratum and build one event table over all of them."""
        diag = ensure_diagnostics(diagnostics)
        sizes, labels = build_strata(frame, banding)
        merged, alias = merge_small_strata(sizes, min_stratum_size, diag)
        row = {key: i for i, key in enumerate(merged)}
        final = np.array([row[alias[key]] for key in sizes], dtype=np.intp)
        table = EventTable(frame.time, frame.event, final[labels])
        return cls(list(merged), table, alias, anchor_points, tau_min_at_risk, population_floor, diag)

    def resolve(self, key: StratumKey) -> StratumKey:
        """Map a requested key onto a stratum that actually has data."""
        hit = self._resolved.get(key)
        if hit is not None:
            return hit
        resolved = self.alias.get(key, key)
        if resolved not in self.strata:
            demo = key.demographics
            keys = self._index.get(demo)
            if not keys:
                raise ProviderError(f"no strata with demographics {demo}")
            a_lo, a_hi, y_lo, y_hi = self._ranges[demo]
            a = min(max(key.age, a_lo), a_hi)
            y = min(max(key.year, y_lo), y_hi)
            cand = self.alias.get(StratumKey(a, y, demo), StratumKey(a, y, demo))
            if cand in self.strata:
                resolved = cand
            else:
                resolved = min(
                    keys,
                    key=lambda k: (
                        max(abs(k.age - a), abs(k.year - y)),
                        abs(k.age - a) + abs(k.year - y),
                        k.age,
                        k.year,
                    ),
                )
            self.diagnostics.incr("so_stratum_clamp")
        self._resolved[key] = resolved
        return resolved

    def _build(self) -> ExtendedSurvival:
        """Every stratum's Kaplan-Meier curve and tail fit, and the stack of
        their cells' population grids, built once; the counters of the
        build (`lifetable_clamp`, `extrapolation_fallback`) count every
        stratum, whether or not a query reads it."""
        if self._curve is None:
            km = kaplan_meier(self.table)
            tau = follow_up_cutoff(self.table, self.tau_min_at_risk)
            self._curve = extend_survival(km, tau, self.anchor_points, self.diagnostics)
            if self.population_floor is not None:
                grid = diagonal_survival(
                    self.population_floor, list(self.strata), LIFETABLE_POP_GRID, self.diagnostics
                ).values
                self._population = AnnualGridSurvival(np.maximum(grid, 1e-12), self.diagnostics)
        return self._curve

    def _harden_tail(self, rows: np.ndarray, t: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Reshape extrapolated values (t > tau) by each stratum's cell population.

        The fitted constant rate embeds the population hazard of the anchor
        years only, so each extrapolated value is multiplied by
        exp(-excess), where excess is the population's cumulative hazard past
        tau beyond what the fit-window rate predicts: the population's
        hazard growth with attained age.  The result is then capped at
        S(tau) times the population's survival from tau, so the patient
        cohort never outlives its own general-population cell.  Every value
        this lowers is counted as `so_population_cap`; with an increasing
        population hazard that is nearly every extrapolated value.  `rows`
        are the strata of the rows of `values`, evaluated at the times `t`.
        """
        pop, curve = self._population, self._curve
        tau = curve.tau[rows, None]
        span = max(self.anchor_points - 1, 1)
        lam_tau = pop.cumulative_hazard_at(tau, rows)
        lam_lo = pop.cumulative_hazard_at(np.maximum(tau - span, 0.0), rows)
        lam_fit = np.zeros_like(tau)
        np.divide(lam_tau - lam_lo, np.minimum(span, tau), out=lam_fit, where=tau > 0)
        # rows x times arrays, computed in place: the population's hazard past
        # tau, its growth beyond the fit-window rate, and the cap
        excess = pop.cumulative_hazard_at(t, rows)
        excess -= lam_tau
        growth = lam_fit * (t - tau)
        np.subtract(excess, growth, out=growth)
        np.minimum(np.exp(np.negative(growth, out=growth), out=growth), 1.0, out=growth)
        cap = np.minimum(np.exp(np.negative(excess, out=excess), out=excess), 1.0, out=excess)
        cap *= curve.s_tau[rows, None]
        growth *= values
        out = np.where(t > tau, np.minimum(growth, cap, out=growth), values)
        hit = out < values
        if hit.any():
            self.diagnostics.incr("so_population_cap", int(np.sum(hit)))
        return out

    def survival(self, keys, times) -> np.ndarray:
        """S_O at `times` of the stratum each key resolves to, a keys x times
        array from one evaluation of the stacked curves."""
        rows = np.array([self.strata[self.resolve(key)] for key in keys], dtype=np.intp)
        t = np.atleast_1d(np.asarray(times, dtype=np.float64))
        values = self._build().survival_at(t, rows)
        if self.population_floor is not None:
            values = self._harden_tail(rows, t, values)
        return values

    __call__ = survival

    @property
    def max_age(self) -> int:
        """Oldest age at diagnosis of any registry stratum, merged or not."""
        return max(k.age for k in (*self.strata, *self.alias))


LAG_TABLE_ROW_BLOCK = 64  # rows added at a time for sources without a stratum list


class SurvivalLagTable:
    """Overall survival of each stratum on one grid of lags 0, 1/2, 1, ..., max_lag.

    Column c of `values` holds lag c/2: integer lags sit at even columns,
    the half-year-offset lags s - 1/2 at odd ones.  With an
    `OverallSurvivalProvider` keys resolve to registry strata, one row per
    stratum, and the first read of `values` fills every row with a single
    call of the provider on the whole grid.  Any other callable (a
    closed-form curve) is treated as having one stratum per key: a key's row
    is filled by one call the first time it is looked up, and rows are added
    in blocks as keys appear (rows not yet filled hold 0).  Rows never
    change once filled.
    """

    def __init__(self, survival, max_lag: int):
        self.survival = survival
        self.max_lag = int(max_lag)
        self.lags = 0.5 * np.arange(2 * self.max_lag + 1, dtype=np.float64)
        if isinstance(survival, OverallSurvivalProvider):
            self._resolve = survival.resolve
            self._rows = dict(survival.strata)
            self._values = None
        else:
            self._resolve = None
            self._rows: dict[StratumKey, int] = {}
            self._values = np.zeros((LAG_TABLE_ROW_BLOCK, self.lags.shape[0]))

    @property
    def values(self) -> np.ndarray:
        """Rows x lags array of overall survival."""
        if self._values is None:
            self._values = self.survival(list(self._rows), self.lags)
        return self._values

    def rows(self, keys) -> np.ndarray:
        """Row of each key's stratum, in one pass; a closed-form source is
        evaluated for a key on its first lookup."""
        if self._resolve is not None:
            return np.array([self._rows[self._resolve(key)] for key in keys], dtype=np.intp)
        for key in keys:
            if key not in self._rows:
                row = len(self._rows)
                if row == self._values.shape[0]:
                    block = np.zeros((LAG_TABLE_ROW_BLOCK, self._values.shape[1]))
                    self._values = np.concatenate((self._values, block))
                self._values[row] = self.survival(key, self.lags)
                self._rows[key] = row
        return np.array([self._rows[key] for key in keys], dtype=np.intp)
