"""Removal of cancer mortality from life-table cohort survival.

The life-table cohort at a cell mixes prevalent cancer patients with
cancer-free subjects, and the cancer-free subjects may be diagnosed and die
of cancer later.  Writing the cell's cohort survival as

    lt(t) = alpha * prev(t) + (1 - alpha) * net_free(t) * S_P(t)

where prev(t) is the survival of prevalent cases, net_free(t) the probability
that a cancer-free subject escapes cancer death by t, and S_P(t) the
non-cancer survival being sought, gives at annual horizons the triangular
system

    S_P(t) = [lt(t) - alpha * prev(t)] / [(1 - alpha) * r(t)],
    r(t)   = 1 - sum_{k<t} (1 - S_O(t-k | cell+k) / S_P(t-k | cell+k)) * dF_k,

with dF_k the year-k diagnosis mass of cancer-free subjects and the kernel
vanishing at k = t.  r(1) = 1, so the system solves by forward substitution;
the shifted cells' S_P values enter at strictly smaller horizons.

A cell (a, y) is linked only to cells (a+k, y+k) of its own birth-cohort
diagonal, so `solve_noncancer_survival` first finds which horizons each cell
of the target's diagonal needs (the dependency closure, pruned where
dF_k = 0), then sweeps t = 1..K forward, solving horizon t for every cell
that needs it in one array expression.  The sweep keeps r(t) and the
clip/guard flags alongside S_P, and reuses every horizon an earlier solve
on the same diagonal already produced.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import Diagnostics, ensure_diagnostics
from .extrapolation import loglinear_interpolate
from .incidence import IncidenceTable, PrevalenceCalculator, time_to_diagnosis_increments
from .lifetable import LifeTable, diagonal_survival
from .registry import StratumKey

SP_CLIP_EPS = 1e-9
R_FLOOR = 1e-6


class SolverError(ValueError):
    """The discrete system is numerically inconsistent at a named cell."""


@dataclass(frozen=True)
class PrevalentCaseSurvival:
    """Survival from the cell date of previously diagnosed subjects, t = 0..K."""

    origin: StratumKey
    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if abs(v[0] - 1.0) > 1e-9:
            raise ValueError("prevalent-case survival must start at 1")
        if (np.diff(v) > 1e-12).any() or v.min() < -1e-12:
            raise ValueError("prevalent-case survival must be non-increasing in [0,1]")


@dataclass
class AdjustedPopulationSurvival:
    """Non-cancer survival on the annual grid with log-linear interpolation."""

    origin: StratumKey
    values: np.ndarray
    clip_count: int = 0
    guard_count: int = 0

    def survival_at(self, t):
        return loglinear_interpolate(self.values, t)

    __call__ = survival_at


def prevalent_case_survival(
    key: StratumKey,
    mix_weights: np.ndarray,
    survival_matrix: np.ndarray,
) -> PrevalentCaseSurvival:
    """Mixture survival of prevalent cases over their diagnosis-lag law.

    `mix_weights[s-1]` is the attrition-normalized diagnosis mass of the
    year s years back divided by alpha, and `survival_matrix[s-1, t]` the
    survival from that diagnosis to horizon t; the product is the lag-s mass
    times the conditional survival of a case alive at the cell date (the
    survival-to-cell factor cancels), so the t = 0 column mixes to 1 by the
    prevalence recursion itself.
    """
    values = mix_weights @ survival_matrix
    values = np.clip(values, 0.0, 1.0)
    values[0] = 1.0
    return PrevalentCaseSurvival(key, values)


class AdjustmentIngredients:
    """Accessor bundle the solver (and its test oracle) consume.

    Subclasses provide per-cell grids; `horizon` is the number of annual
    steps solved.  `prevalent_grid` is only called where `alpha` is positive.
    """

    horizon: int

    def lt_survival_grid(self, key: StratumKey) -> np.ndarray:
        raise NotImplementedError

    def alpha(self, key: StratumKey) -> float:
        raise NotImplementedError

    def prevalent_grid(self, key: StratumKey) -> np.ndarray:
        raise NotImplementedError

    def so_grid(self, key: StratumKey) -> np.ndarray:
        raise NotImplementedError

    def diagnosis_mass(self, key: StratumKey) -> np.ndarray:
        raise NotImplementedError

    def shift(self, key: StratumKey, k: int) -> StratumKey:
        return key.shift(k)


def _numerator(ing: AdjustmentIngredients, key: StratumKey, alpha: float) -> np.ndarray:
    lt = np.asarray(ing.lt_survival_grid(key), dtype=np.float64)
    if alpha == 0.0:
        return lt.copy()
    if alpha >= 1.0:
        raise SolverError(f"prevalence {alpha} >= 1 at {key}")
    prev = np.asarray(ing.prevalent_grid(key), dtype=np.float64)
    return lt - alpha * prev


class _SolvedCell:
    """One lattice cell: its solver inputs, fetched the first time it has a
    horizon to solve, and S_P at t = 0..K with r(t) and the clip/guard flags
    of each horizon; horizons 1..solved are filled."""

    __slots__ = ("values", "residual", "clipped", "guarded", "solved",
                 "scale", "numer", "mass", "kernel_lags", "so")

    def __init__(self, horizon: int):
        self.values = np.ones(horizon + 1)
        self.residual = np.ones(horizon + 1)
        self.clipped = np.zeros(horizon + 1, dtype=bool)
        self.guarded = np.zeros(horizon + 1, dtype=bool)
        self.solved = 0
        self.scale = 1.0                   # 1 - alpha
        self.numer = None                  # lt - alpha * prev at t = 0..K
        self.mass = None                   # dF_k, k = 1..K
        self.kernel_lags: list[int] = []   # the k with dF_k != 0
        self.so = None                     # S_O at t = 0..K, read by younger cells


def solve_noncancer_survival(
    ing: AdjustmentIngredients,
    key: StratumKey,
    diagnostics: Diagnostics | None = None,
    cells: dict | None = None,
) -> AdjustedPopulationSurvival:
    """Forward sweep over t along the key's diagonal.

    Cell j is `ing.shift(key, j)` (shifts compose along the diagonal).  A
    first pass propagates the horizons each cell needs, from younger to
    older cells, only along kernel terms with nonzero diagnosis mass; so
    exactly the (cell, horizon) pairs the forward substitution reads are
    solved, and a cell's ingredients are fetched when it first has one to
    solve.  `cells` maps cells to `_SolvedCell` records and carries solved
    horizons from one call to the next; only newly solved horizons add to
    the diagnostics.  The returned curve reports the target cell's own
    clip/guard counts.
    """
    diag = ensure_diagnostics(diagnostics)
    cells = cells if cells is not None else {}
    K = ing.horizon
    chain, records = [], []
    for j in range(K):
        cell = ing.shift(key, j)
        rec = cells.get(cell)
        if rec is None:
            rec = cells[cell] = _SolvedCell(K)
        chain.append(cell)
        records.append(rec)

    # horizons needed per cell; steps[t] lists the cells solving horizon t
    need = [0] * K
    need[0] = K
    steps: list[list[int]] = [[] for _ in range(K + 1)]
    for j, rec in enumerate(records):
        n = need[j]
        if n <= rec.solved:
            continue
        for t in range(rec.solved + 1, n + 1):
            steps[t].append(j)
        if rec.numer is None:
            a = ing.alpha(chain[j])
            rec.numer = _numerator(ing, chain[j], a)
            rec.scale = 1.0 - a
        if n < 2:
            continue
        if rec.mass is None:
            rec.mass = np.asarray(ing.diagnosis_mass(chain[j]), dtype=np.float64)[:K]
            rec.kernel_lags = (np.flatnonzero(rec.mass) + 1).tolist()
        for k in rec.kernel_lags:
            if k >= n:
                break
            need[j + k] = max(need[j + k], n - k)
            target = records[j + k]
            if target.so is None:
                target.so = np.asarray(ing.so_grid(chain[j + k]), dtype=np.float64)[: K + 1]

    blank = np.ones(K + 1)
    sp = np.array([rec.values for rec in records])
    so = np.array([blank if rec.so is None else rec.so for rec in records])
    for t in range(1, K + 1):
        if steps[t]:
            _sweep_step(t, steps[t], chain, records, sp, so, diag)
    root = records[0]
    return AdjustedPopulationSurvival(
        key, root.values.copy(), int(root.clipped.sum()), int(root.guarded.sum())
    )


def _sweep_step(t, active, chain, records, sp, so, diag) -> None:
    """Solve horizon t for the `active` cells of the chain, in place."""
    js = np.array(active)
    if t == 1:
        r = np.ones(js.size)
    else:
        kk = np.arange(1, t)
        rows, cols = js[:, None] + kk, t - kk
        dF = np.array([records[j].mass[: t - 1] for j in active])
        terms = np.where(dF != 0.0, (1.0 - so[rows, cols] / sp[rows, cols]) * dF, 0.0)
        # accumulate over k in order, as the scalar forward substitution does
        r = 1.0 - np.cumsum(terms, axis=1)[:, -1]
    if (r < R_FLOOR).any():
        i = int(np.flatnonzero(r < R_FLOOR)[0])
        raise SolverError(
            f"residual denominator r({t})={r[i]:.3e} at {chain[active[i]]}; inputs are inconsistent"
        )
    numer = np.array([records[j].numer[t] for j in active])
    scale = np.array([records[j].scale for j in active])
    raw = numer / (scale * r)
    v = np.minimum(np.maximum(raw, SP_CLIP_EPS), 1.0)
    clipped = v != raw
    prev = sp[js, t - 1]
    guarded = v > prev
    v = np.where(guarded, prev, v)
    sp[js, t] = v
    for i, j in enumerate(active):
        rec = records[j]
        rec.values[t] = v[i]
        rec.residual[t] = r[i]
        rec.clipped[t] = clipped[i]
        rec.guarded[t] = guarded[i]
        rec.solved = t
    diag.incr("sp_clip", int(clipped.sum()))
    diag.incr("sp_monotone_guard", int(guarded.sum()))


class AdjustmentEngine(AdjustmentIngredients):
    """Production ingredients: life table + incidence + registry survival.

    Wires the prevalence recursion, the diagnosis-mass products, and the
    per-cell diagonal survival into the solver.  Overall survival is read
    only from the prevalence calculator's lag table; the other grids, and
    every solved cell, are kept so each is computed once per run.
    """

    def __init__(
        self,
        life_table: LifeTable,
        incidence: IncidenceTable,
        overall_survival,
        horizon: int = 15,
        lag_eval: str = "mid_year",
        diagnostics: Diagnostics | None = None,
    ):
        self.life_table = life_table
        self.incidence = incidence
        self.horizon = int(horizon)
        self.diagnostics = ensure_diagnostics(diagnostics)
        self.calc = PrevalenceCalculator(
            incidence, overall_survival, life_table, lag_eval, self.diagnostics, self.horizon
        )
        self._lt_grids: dict[StratumKey, np.ndarray] = {}
        self._masses: dict[StratumKey, np.ndarray] = {}
        self._prev: dict[StratumKey, np.ndarray] = {}
        self._curves: dict[StratumKey, AdjustedPopulationSurvival] = {}
        self._cells: dict[StratumKey, _SolvedCell] = {}

    def lt_survival_grid(self, key: StratumKey) -> np.ndarray:
        grid = self._lt_grids.get(key)
        if grid is None:
            grid = diagonal_survival(self.life_table, key, self.horizon, self.diagnostics).values
            self._lt_grids[key] = grid
        return grid

    def alpha(self, key: StratumKey) -> float:
        return self.calc.prevalence(key)

    def prevalent_grid(self, key: StratumKey) -> np.ndarray:
        grid = self._prev.get(key)
        if grid is None:
            weights = self.calc.prevalent_mix_weights(key)
            matrix = self.calc.survival_from_diagnosis_matrix(key, self.horizon)
            grid = prevalent_case_survival(key, weights, matrix).values
            self._prev[key] = grid
        return grid

    def so_grid(self, key: StratumKey) -> np.ndarray:
        """S_O at integer lags 0..K: the even columns of the key's table row."""
        table = self.calc.table
        row = table.row(key)   # may add rows, replacing table.values
        return table.values[row, : 2 * self.horizon + 1 : 2]

    def diagnosis_mass(self, key: StratumKey) -> np.ndarray:
        mass = self._masses.get(key)
        if mass is None:
            mass = time_to_diagnosis_increments(self.incidence, key, self.horizon, self.diagnostics)
            self._masses[key] = mass
        return mass

    def solve(self, key: StratumKey) -> AdjustedPopulationSurvival:
        curve = self._curves.get(key)
        if curve is None:
            curve = solve_noncancer_survival(self, key, self.diagnostics, self._cells)
            self._curves[key] = curve
        return curve

    def residuals(self, key: StratumKey) -> np.ndarray:
        """r(t) for t = 1..K at the key's cell (diagnostic export), as the
        solve computed it."""
        self.solve(key)
        return self._cells[key].residual[1:].copy()
