"""Per-stratum overall-survival lookup built from registry data.

Each stratum gets a Kaplan-Meier curve continued by the exponential tail fit.
The registry is stratified once, on integer arrays: the strata are cells,
small ones are merged into a holder array, every patient is labelled with
its final (merged) stratum and all strata share one event table.  The first
survival query builds every stratum's curve and tail fit in one batch; each
query evaluates them and, with a life table, builds the population grids of
the strata it reads, as far as it reads them.

`lookup` takes cells in the one form every layer passes, (demographics,
codes, ages, years) columns, maps their demographics onto the strata's
once, and finds their strata by one clip and one gather from a dense
(demographics x age x year) table: a registry stratum's cell, merged or
not, holds its holder's row, any other cell the stratum nearest its clamp
into the strata's ranges.
"""
from __future__ import annotations

import numpy as np

from .diagnostics import Diagnostics, ensure_diagnostics
from .extrapolation import AnnualGridSurvival, ExtendedSurvival, extend_survival, follow_up_cutoff
from .lifetable import LifeTable, diagonal_survival
from .registry import EventTable, RegistryFrame, build_strata, kaplan_meier, merge_small_strata


class ProviderError(ValueError):
    """No usable stratum for the requested demographics."""


class OverallSurvivalProvider:
    """Overall survival of cancer patients, by registry stratum.

    `cells` are the registry's strata before merging, as (demographics,
    codes, ages, years) columns, and `alias` gives each one's holder, an
    index into them (its own for a kept stratum).  The kept strata, in
    `cells` order, are the strata of `table`, one `EventTable`:
    `strata` holds each row's index into `cells` (see `lookup`).
    When a life table is supplied, every extrapolated value (t > tau) is
    reshaped by the population of the stratum's own cell: it is multiplied
    by the population's hazard growth past the fit window and capped at the
    population's own survival from tau (see `_harden_tail`).  This is a
    model choice, not a rare guard: it lowers extrapolated values in every
    stratum of a dataset-2 replicate (33 of 33).
    """

    def __init__(
        self,
        cells,
        alias: np.ndarray,
        table: EventTable,
        anchor_points: int = 4,
        tau_min_at_risk: int = 5,
        population_floor: LifeTable | None = None,
        diagnostics: Diagnostics | None = None,
    ):
        if not len(alias):
            raise ProviderError("no strata available")
        self.cells, self.alias = cells, np.asarray(alias, dtype=np.intp)
        self.strata = np.flatnonzero(self.alias == np.arange(self.alias.shape[0]))
        self.table = table
        self.anchor_points = int(anchor_points)
        self.tau_min_at_risk = int(tau_min_at_risk)
        self.population_floor = population_floor
        self.diagnostics = ensure_diagnostics(diagnostics)
        self._curve: ExtendedSurvival | None = None
        self._clamp_table()

    @classmethod
    def from_registry(
        cls,
        frame: RegistryFrame,
        min_stratum_size: int = 10,
        anchor_points: int = 4,
        tau_min_at_risk: int = 5,
        population_floor: LifeTable | None = None,
        diagnostics: Diagnostics | None = None,
    ) -> "OverallSurvivalProvider":
        """Stratify once: merge strata by size, label every patient with its
        final stratum and build one event table over all of them."""
        diag = ensure_diagnostics(diagnostics)
        cells, sizes, labels = build_strata(frame)
        alias = merge_small_strata(cells, sizes, min_stratum_size, diag)
        row = np.cumsum(alias == np.arange(alias.shape[0])) - 1
        table = EventTable(frame.time, frame.event, row[alias][labels])
        return cls(cells, alias, table, anchor_points, tau_min_at_risk, population_floor, diag)

    def _clamp_table(self) -> None:
        """Stratum rows of the (demographics, age, year) cells of a rectangle
        one cell wider on every side than the registry's strata, each of
        which holds the row of its holder; any other cell is clamped, its
        row found when first read (`_fill`).  Keys past the border read the
        border cells they clip onto."""
        demographics, codes, ages, years = self.cells
        used, group = np.unique(codes, return_inverse=True)
        self._groups = {demographics[c]: g for g, c in enumerate(used.tolist())}
        row = np.searchsorted(self.strata, self.alias)   # each cell's holder's row
        lo = self._lo = np.array([ages.min(), years.min()]) - 1
        self._rows = np.full((len(used), ages.max() - lo[0] + 2, years.max() - lo[1] + 2), -1, dtype=np.intp)
        self._rows[group, ages - lo[0], years - lo[1]] = row
        self._clamped = self._rows < 0
        group, age, year, row = self._strata = np.stack((group, ages - lo[0], years - lo[1], row))[:, self.strata]
        self._ranges = np.array([(age[m].min(), age[m].max(), year[m].min(), year[m].max())
                                 for m in (group == i for i in range(len(used)))])

    def _fill(self, g: np.ndarray, a: np.ndarray, y: np.ndarray) -> None:
        """Rows of clamped cells, found when first read: a cell clipped into
        its demographics' strata's ranges takes the clipped cell's stratum if
        it has one, else the nearest by (Chebyshev, L1, age, year)."""
        cell = np.unique(np.ravel_multi_index((g, a, y), self._rows.shape), return_inverse=True)[0]
        g, a, y = np.unravel_index(cell, self._rows.shape)
        ca, cy = np.clip(a, *self._ranges[g, :2].T), np.clip(y, *self._ranges[g, 2:].T)
        rows = np.where(self._clamped[g, ca, cy], -1, self._rows[g, ca, cy])
        group, age, year, row = self._strata
        # (Chebyshev, L1) as one integer, then (age, year) among the ties
        base, never = 2 * max(self._rows.shape) + 1, np.iinfo(np.int64).max
        holes = np.flatnonzero(rows < 0)
        for part in np.array_split(holes, 1 + holes.size * row.size // 1_000_000):
            da, dy = np.abs(ca[part, None] - age), np.abs(cy[part, None] - year)
            dist = np.where(g[part, None] == group, np.maximum(da, dy) * base + da + dy, never)
            best = np.where(dist == dist.min(axis=1, keepdims=True), age * base + year, never)
            rows[part] = row[np.argmin(best, axis=1)]
        self._rows[g, a, y] = rows

    def lookup(self, cells) -> tuple[np.ndarray, np.ndarray]:
        """Row of the stratum each of the (demographics, codes, ages, years)
        `cells` resolves to and whether it was clamped (counted as
        `so_stratum_clamp`).  The cells' demographics map to the strata's
        once per call; `ProviderError` names those no stratum has."""
        demographics, codes, ages, years = cells
        group = np.array([self._groups.get(d, -1) for d in demographics], np.intp)[codes]
        if (group < 0).any():
            unseen = sorted({demographics[c] for c in codes[group < 0].tolist()})
            raise ProviderError(f"no strata with demographics {', '.join(map(str, unseen))}")
        cell = np.stack((ages, years), axis=1).astype(np.int64) - self._lo
        cell = (group, *np.clip(cell, 0, np.array(self._rows.shape[1:]) - 1).T)
        new = self._rows[cell] < 0
        if new.any():
            self._fill(*(c[new] for c in cell))
        clamped = self._clamped[cell]
        self.diagnostics.incr("so_stratum_clamp", int(clamped.sum()))
        return self._rows[cell], clamped

    def _build(self) -> ExtendedSurvival:
        """Every stratum's Kaplan-Meier curve and tail fit, built once; the
        counters of the build (`extrapolation_fallback`) count every
        stratum, whether or not a query reads it."""
        if self._curve is None:
            km = kaplan_meier(self.table)
            tau = follow_up_cutoff(self.table, self.tau_min_at_risk)
            self._curve = extend_survival(km, tau, self.anchor_points, self.diagnostics)
        return self._curve

    def _harden_tail(self, rows: np.ndarray, t: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Reshape extrapolated values (t > tau) by each stratum's cell population.

        The fitted constant rate embeds the population hazard of the anchor
        years only, so each extrapolated value is multiplied by
        exp(-excess), where excess is the population's cumulative hazard past
        tau beyond what the fit-window rate predicts: the population's
        hazard growth with attained age.  The result is then capped at
        S(tau) times the population's survival from tau, so the patient
        cohort never outlives its own general-population cell.  `rows` are
        the strata of the rows of `values`, evaluated at the times `t`.

        Each row's population grid is its stratum cell's life-table
        diagonal, one year past the later of its last time and its tau, so
        no time read falls on or past a grid's end; its `lifetable_clamp`
        counts are the steps it reads past the life table.  Every cell this
        lowers is counted once as `so_population_cap`: with an increasing
        population hazard that is nearly every extrapolated value read.
        """
        curve = self._curve
        tau = curve.tau[rows, None]
        steps = np.floor(np.maximum(t.max(axis=-1, initial=0.0), tau[:, 0])).astype(np.intp) + 1
        cells = (self.cells[0], *(column[self.strata[rows]] for column in self.cells[1:]))
        grid = diagonal_survival(self.population_floor, cells, steps, self.diagnostics)
        pop = AnnualGridSurvival(np.maximum(grid, 1e-12), self.diagnostics)
        span = max(self.anchor_points - 1, 1)
        lam_tau = pop.cumulative_hazard_at(tau)
        lam_lo = pop.cumulative_hazard_at(np.maximum(tau - span, 0.0))
        lam_fit = np.zeros_like(tau)
        np.divide(lam_tau - lam_lo, np.minimum(span, tau), out=lam_fit, where=tau > 0)
        # rows x times arrays, computed in place: the population's hazard past
        # tau, its growth beyond the fit-window rate, and the cap
        excess = pop.cumulative_hazard_at(t)
        excess -= lam_tau
        growth = lam_fit * (t - tau)
        np.subtract(excess, growth, out=growth)
        np.minimum(np.exp(np.negative(growth, out=growth), out=growth), 1.0, out=growth)
        cap = np.minimum(np.exp(np.negative(excess, out=excess), out=excess), 1.0, out=excess)
        cap *= curve.s_tau[rows, None]
        growth *= values
        out = np.where(t > tau, np.minimum(growth, cap, out=growth), values)
        fresh = np.diff(t, prepend=-1.0) != 0   # a time repeated next to itself is the same cell
        self.diagnostics.incr("so_population_cap", np.count_nonzero((out < values) & fresh))
        return out

    def survival(self, rows, times) -> np.ndarray:
        """S_O of the strata `rows` at `times`, a rows x times array from one
        evaluation of the strata's curves.  `times` are shared by every row,
        or one non-decreasing row of times per stratum, in which a time may
        repeat (see `_harden_tail`)."""
        rows = np.asarray(rows, dtype=np.intp)
        t = np.atleast_1d(np.asarray(times, dtype=np.float64))
        values = self._build().survival_at(t, rows)
        if self.population_floor is not None and values.size:
            values = self._harden_tail(rows, t, values)
        return values
