"""Per-stratum overall-survival lookup built from registry data.

Each stratum gets a Kaplan-Meier curve continued by the exponential tail fit;
queries for strata the registry never saw are clamped to the declared
age/year ranges and, failing an exact hit, resolved to the nearest existing
stratum with the same demographics.  Curves and tail fits are cached lazily.

`SurvivalLagTable` is the one cache of these values the adjustment reads:
each resolved stratum's survival evaluated once on a shared grid of lags.
"""
from __future__ import annotations

import numpy as np

from .diagnostics import Diagnostics, ensure_diagnostics
from .extrapolation import AnnualGridSurvival, ExtendedSurvival, extend_survival, follow_up_cutoff
from .lifetable import LifeTable, diagonal_survival
from .registry import (
    Banding,
    EventTable,
    StratumKey,
    as_frame,
    build_strata,
    kaplan_meier,
    merge_small_strata,
)

LIFETABLE_POP_GRID = 120  # annual steps of the per-cell population-cap grid


class ProviderError(ValueError):
    """No usable stratum for the requested demographics."""


class OverallSurvivalProvider:
    """Callable (key, times) -> overall-survival values for cancer patients.

    When a life table is supplied, every extrapolated value (t > tau) is
    reshaped by the population of the stratum's own cell: it is multiplied
    by the population's hazard growth past the fit window and capped at the
    population's own survival from tau (see `_harden_tail`).  This is a
    model choice, not a rare guard: it lowers extrapolated values in every
    stratum of a dataset-2 replicate (33 of 33).
    """

    def __init__(
        self,
        strata: dict[StratumKey, EventTable],
        alias: dict[StratumKey, StratumKey] | None = None,
        anchor_points: int = 4,
        tau_min_at_risk: int = 5,
        population_floor: LifeTable | None = None,
        diagnostics: Diagnostics | None = None,
    ):
        if not strata:
            raise ProviderError("no strata available")
        self.strata = strata
        self.alias = dict(alias) if alias else {}
        self.anchor_points = int(anchor_points)
        self.tau_min_at_risk = int(tau_min_at_risk)
        self.population_floor = population_floor
        self.diagnostics = ensure_diagnostics(diagnostics)
        self._curves: dict[StratumKey, ExtendedSurvival] = {}
        self._pop_curves: dict[StratumKey, AnnualGridSurvival] = {}
        self._resolved: dict[StratumKey, StratumKey] = {}
        self._index: dict[tuple, list[StratumKey]] = {}
        for key in strata:
            self._index.setdefault(key.demographics, []).append(key)
        self._ranges = {}
        for demo, keys in self._index.items():
            ages = [k.age for k in keys]
            years = [k.year for k in keys]
            self._ranges[demo] = (min(ages), max(ages), min(years), max(years))

    @classmethod
    def from_registry(
        cls,
        records,
        banding: Banding = Banding(),
        min_stratum_size: int = 10,
        anchor_points: int = 4,
        tau_min_at_risk: int = 5,
        population_floor: LifeTable | None = None,
        diagnostics: Diagnostics | None = None,
    ) -> "OverallSurvivalProvider":
        diag = ensure_diagnostics(diagnostics)
        strata = build_strata(as_frame(records), banding)
        merged, alias = merge_small_strata(strata, min_stratum_size, diag)
        return cls(merged, alias, anchor_points, tau_min_at_risk, population_floor, diag)

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

    def curve(self, key: StratumKey) -> ExtendedSurvival:
        resolved = self.resolve(key)
        curve = self._curves.get(resolved)
        if curve is None:
            table = self.strata[resolved]
            km = kaplan_meier(table)
            tau = follow_up_cutoff(table, self.tau_min_at_risk)
            curve = extend_survival(km, tau, self.anchor_points, self.diagnostics)
            self._curves[resolved] = curve
        return curve

    def _population_curve(self, resolved: StratumKey) -> AnnualGridSurvival:
        pop = self._pop_curves.get(resolved)
        if pop is None:
            grid = diagonal_survival(
                self.population_floor, resolved, LIFETABLE_POP_GRID, self.diagnostics
            ).values
            pop = AnnualGridSurvival(np.maximum(grid, 1e-12), self.diagnostics)
            self._pop_curves[resolved] = pop
        return pop

    def _harden_tail(self, resolved: StratumKey, curve: ExtendedSurvival, times, values):
        """Reshape extrapolated values (t > tau) by the cell's population.

        The fitted constant rate embeds the population hazard of the anchor
        years only, so each extrapolated value is multiplied by
        exp(-excess), where excess is the population's cumulative hazard past
        tau beyond what the fit-window rate predicts: the population's
        hazard growth with attained age.  The result is then capped at
        S(tau) times the population's survival from tau, so the patient
        cohort never outlives its own general-population cell.  Every value
        this lowers is counted as `so_population_cap`; with an increasing
        population hazard that is nearly every extrapolated value.
        """
        t = np.asarray(times, dtype=np.float64)
        pop = self._population_curve(resolved)
        tau = curve.tau
        lam_tau = pop.cumulative_hazard_at(tau)
        span = max(self.anchor_points - 1, 1)
        lam_fit = (lam_tau - pop.cumulative_hazard_at(max(tau - span, 0.0))) / min(
            span, tau
        ) if tau > 0 else 0.0
        lam_t = pop.cumulative_hazard_at(t)
        growth = np.minimum(np.exp(-(lam_t - lam_tau - lam_fit * (t - tau))), 1.0)
        cap = float(curve.base.survival_at(tau)) * np.minimum(np.exp(-(lam_t - lam_tau)), 1.0)
        hardened = np.minimum(values * growth, cap)
        out = np.where(t > tau, hardened, values)
        hit = out < values
        if hit.any():
            self.diagnostics.incr("so_population_cap", int(np.sum(hit)))
        return out

    def survival(self, key: StratumKey, times) -> np.ndarray:
        resolved = self.resolve(key)
        curve = self.curve(key)
        values = np.asarray(curve.survival_at(times), dtype=np.float64)
        if self.population_floor is not None:
            values = self._harden_tail(resolved, curve, times, values)
        return values if values.ndim else float(values)

    __call__ = survival

    @property
    def max_age(self) -> int:
        """Oldest age at diagnosis of any registry stratum, merged or not."""
        return max(k.age for k in (*self.strata, *self.alias))


LAG_TABLE_ROW_BLOCK = 64  # rows added at a time for sources without a stratum list


class SurvivalLagTable:
    """Overall survival of each stratum on one grid of lags 0, 1/2, 1, ..., max_lag.

    Column c holds lag c/2: integer lags sit at even columns, the
    half-year-offset lags s - 1/2 at odd ones.  A stratum's row is filled by
    a single call of the survival source on the whole grid, the first time a
    key resolving to it is looked up, and never changes after.  With an
    `OverallSurvivalProvider` keys resolve to registry strata and the rows
    are allocated once, one per stratum; any other callable (a closed-form
    curve) is treated as having one stratum per key, and rows are added in
    blocks as keys appear.
    """

    def __init__(self, survival, max_lag: int):
        self.survival = survival
        self.max_lag = int(max_lag)
        self.lags = 0.5 * np.arange(2 * self.max_lag + 1, dtype=np.float64)
        if isinstance(survival, OverallSurvivalProvider):
            self._resolve = survival.resolve
            rows = len(survival.strata)
        else:
            self._resolve = None
            rows = LAG_TABLE_ROW_BLOCK
        self.values = np.empty((rows, self.lags.shape[0]))
        self._rows: dict[StratumKey, int] = {}

    def row(self, key: StratumKey) -> int:
        """Row of the key's stratum, evaluating the stratum on first use."""
        stratum = key if self._resolve is None else self._resolve(key)
        row = self._rows.get(stratum)
        if row is None:
            row = len(self._rows)
            if row == self.values.shape[0]:
                block = np.empty((LAG_TABLE_ROW_BLOCK, self.values.shape[1]))
                self.values = np.concatenate((self.values, block))
            self.values[row] = self.survival(stratum, self.lags)
            self._rows[stratum] = row
        return row
