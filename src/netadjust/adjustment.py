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
diagonal.  `solve_noncancer_survival` lays the requested keys out as one
chain of cells per diagonal and concatenates the chains.  It first finds
which horizons each cell needs (the union of the roots' dependency
closures, pruned where dF_k = 0), then fetches every needed cell's inputs
with one call per ingredient, then steps t = 1..K forward once, solving
horizon t for every cell of every chain that needs it in one array
expression.  It keeps r(t) and the clip/guard flags alongside S_P in
`SolvedCells`, and reuses every horizon an earlier solve already produced.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diagnostics import Diagnostics, ensure_diagnostics
from .incidence import IncidenceTable, PrevalenceCalculator, time_to_diagnosis_increments
from .lifetable import LifeTable, diagonal_survival
from .registry import StratumKey

SP_CLIP_EPS = 1e-9
R_FLOOR = 1e-6


class SolverError(ValueError):
    """The discrete system is numerically inconsistent at a named cell."""


@dataclass(frozen=True)
class PrevalentCaseSurvival:
    """Survival from the cell date of previously diagnosed subjects, t = 0..K,
    one row per origin."""

    origin: list[StratumKey]
    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if (np.abs(v[:, 0] - 1.0) > 1e-9).any():
            raise ValueError("prevalent-case survival must start at 1")
        if (np.diff(v, axis=1) > 1e-12).any() or v.min() < -1e-12:
            raise ValueError("prevalent-case survival must be non-increasing in [0,1]")


def prevalent_case_survival(keys, mixture: np.ndarray) -> PrevalentCaseSurvival:
    """Prevalent-case survival from the prevalence recursion's mixture.

    `mixture[i, t]` is the lag-weighted survival of key i's prevalent cases
    to horizon t, over alpha (`PrevalenceCalculator.prevalent_survival`);
    its t = 0 column is 1 up to rounding, by the recursion itself.  Values
    are clipped into [0, 1] and start at exactly 1.
    """
    values = np.clip(mixture, 0.0, 1.0)
    values[:, 0] = 1.0
    return PrevalentCaseSurvival(list(keys), values)


class SolvedCells:
    """Every lattice cell the solves sharing this record have visited, one
    row per cell (`index` maps cells to rows).  `solved` counts the horizons
    filled in `values` (S_P at t = 0..K), `residual` (r(t)) and the
    clip/guard flags.  A cell has its `numer` (lt - alpha * prev) and
    `scale` (1 - alpha) once `solved` is at least 1, its diagnosis `mass`
    once it is at least 2, and its `so` grid once a younger cell's kernel
    has read it (`has_so`)."""

    def __init__(self, horizon: int):
        K = int(horizon)
        self.index: dict[StratumKey, int] = {}
        self._fill = {
            "solved": (np.intp, (), 0), "values": (np.float64, (K + 1,), 1.0),
            "residual": (np.float64, (K + 1,), 1.0), "clipped": (bool, (K + 1,), False),
            "guarded": (bool, (K + 1,), False), "numer": (np.float64, (K + 1,), 1.0),
            "scale": (np.float64, (), 1.0), "mass": (np.float64, (K,), 0.0),
            "so": (np.float64, (K + 1,), 1.0), "has_so": (bool, (), False),
        }
        for name, (dtype, shape, fill) in self._fill.items():
            setattr(self, name, np.full((0,) + shape, fill, dtype=dtype))

    def rows(self, keys) -> np.ndarray:
        """Row of each key, adding rows for the cells not seen before."""
        index = self.index
        new = [k for k in dict.fromkeys(keys) if k not in index]
        if new:
            index.update((k, len(index)) for k in new)
            for name, (dtype, shape, fill) in self._fill.items():
                grown = np.full((len(new),) + shape, fill, dtype=dtype)
                setattr(self, name, np.concatenate((getattr(self, name), grown)))
        return np.fromiter((index[k] for k in keys), np.intp, len(keys))


def _propagate(roots, solved, mass, known, starts, lengths, K) -> np.ndarray:
    """Horizons each chain position needs: K at the roots, and n - k at
    position j + k from a position j that needs n > its solved horizons,
    for each k < n with nonzero diagnosis mass dF_k at j.  Positions are
    visited in chain order, all chains at once, so a position's need is
    final before it passes it on.  Positions whose mass is not `known`
    pass nothing on."""
    need = np.zeros(solved.shape[0], dtype=np.intp)
    need[roots] = K
    lags = np.arange(1, K + 1)
    for o in range(int(lengths.max())):
        j = starts[lengths > o] + o
        n = need[j]
        go = (n > solved[j]) & (n >= 2) & known[j]
        j, n = j[go], n[go]
        src, k = np.nonzero((mass[j] != 0.0) & (lags < n[:, None]))
        target = j[src] + lags[k]
        need[target] = np.maximum(need[target], n[src] - lags[k])
    return need


def solve_noncancer_survival(
    ing,
    keys: Sequence[StratumKey],
    diagnostics: Diagnostics | None = None,
    cells: SolvedCells | None = None,
) -> np.ndarray:
    """S_P of every key, on any birth-cohort diagonals, in one forward sweep.

    `ing` supplies the inputs: its methods `lt_survival_grid`, `alpha`,
    `prevalent_grid`, `so_grid` and `diagnosis_mass` each take a sequence of
    cells and return one row per cell (the grids at t = 0..K, the diagnosis
    mass at k = 1..K, alpha one value), and `horizon` is the number K of
    annual steps solved.  `prevalent_grid` is only asked for cells where
    `alpha` is positive.

    The keys of a diagonal are the roots of one chain of cells, from its
    youngest key through K - 1 cells past its oldest; each root needs
    horizons 1..K, and no position reads past its chain.  Needed horizons
    propagate from younger to older cells only along kernel terms with
    nonzero diagnosis mass, so exactly the (cell, horizon) pairs the forward
    substitution reads are solved.  Masses are fetched in rounds, each for
    the cells found so far to need two or more horizons; every other
    ingredient is fetched in one call for all cells that first need it.
    Each step t solves horizon t for every cell that needs it in one array
    expression.  `cells` carries fetched inputs and solved horizons from one
    call to the next and is updated only when the whole sweep succeeds;
    only newly solved horizons add to the diagnostics.  Returns the keys x
    (K + 1) array of S_P at t = 0..K, in the order of `keys`; each key's
    clip/guard flags stay in `cells.clipped` and `cells.guarded`.
    """
    diag = ensure_diagnostics(diagnostics)
    K = ing.horizon
    cells = cells if cells is not None else SolvedCells(K)
    rows = cells.rows(keys)   # adds rows, replacing the arrays
    solved = cells.solved[rows]
    todo = [key for key, n in zip(keys, solved.tolist()) if n < K]
    if todo:
        _sweep(ing, todo, diag, cells)
    return cells.values[rows]


def _sweep(ing, roots: list, diag: Diagnostics, cells: SolvedCells) -> None:
    """Solve the `roots` through horizon K, and every cell they read, as
    `solve_noncancer_survival` describes."""
    K = ing.horizon
    spans: dict[tuple, list[int]] = {}
    for key in roots:
        span = spans.setdefault((key.year - key.age, key.demographics), [key.age, key.age])
        span[0], span[1] = min(span[0], key.age), max(span[1], key.age)
    chain = [StratumKey(a, yob + a, demo) for (yob, demo), (lo, hi) in spans.items()
             for a in range(lo, hi + K)]
    lengths = np.array([hi + K - lo for lo, hi in spans.values()], dtype=np.intp)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    first = dict(zip(spans, (start - lo for start, (lo, _) in zip(starts.tolist(), spans.values()))))
    at_root = [first[(key.year - key.age, key.demographics)] + key.age for key in roots]
    rows = cells.rows(chain)
    solved = cells.solved[rows]

    # horizons needed per position, with masses fetched in rounds for the
    # positions found to need two or more; the propagation reruns after
    # each round until no position lacks its mass
    mass, known = cells.mass[rows], solved >= 2
    need = _propagate(at_root, solved, mass, known, starts, lengths, K)
    while True:
        fetch = np.flatnonzero((need >= 2) & (need > solved) & ~known)
        if not fetch.size:
            break
        mass[fetch] = np.asarray(ing.diagnosis_mass([chain[j] for j in fetch.tolist()]), dtype=np.float64)[:, :K]
        known[fetch] = True
        need = _propagate(at_root, solved, mass, known, starts, lengths, K)

    # every other input of the cells that first have a horizon to solve, and
    # the S_O grids their kernels read, one call per ingredient
    numer, scale = cells.numer[rows], cells.scale[rows]
    new = np.flatnonzero((need > solved) & (solved == 0))
    if new.size:
        fresh = [chain[j] for j in new.tolist()]
        alpha = np.asarray(ing.alpha(fresh), dtype=np.float64)
        lt = np.asarray(ing.lt_survival_grid(fresh), dtype=np.float64)[:, : K + 1]
        if (alpha >= 1.0).any():
            i = int(np.argmax(alpha >= 1.0))
            raise SolverError(f"prevalence {alpha[i]} >= 1 at {fresh[i]}")
        mixed = np.flatnonzero(alpha != 0.0)
        if mixed.size:
            prev = np.asarray(ing.prevalent_grid([fresh[i] for i in mixed.tolist()]), dtype=np.float64)
            lt[mixed] = lt[mixed] - alpha[mixed, None] * prev[:, : K + 1]
        numer[new], scale[new] = lt, 1.0 - alpha
    lags = np.arange(1, K + 1)
    active = np.flatnonzero((need > solved) & (need >= 2))
    src, k = np.nonzero((mass[active] != 0.0) & (lags < need[active, None]))
    read = np.unique(active[src] + lags[k])
    so, has_so = cells.so[rows], cells.has_so[rows]
    read = read[~has_so[read]]
    if read.size:
        so[read] = np.asarray(ing.so_grid([chain[j] for j in read.tolist()]), dtype=np.float64)[:, : K + 1]

    sp, residual = cells.values[rows], cells.residual[rows]
    clipped, guarded = cells.clipped[rows], cells.guarded[rows]
    for t in range(1, K + 1):
        js = np.flatnonzero((solved < t) & (need >= t))
        if not js.size:
            continue
        if t == 1:
            r = np.ones(js.size)
        else:
            kk = np.arange(1, t)
            at, cols = js[:, None] + kk, t - kk
            dF = mass[js, : t - 1]
            terms = np.where(dF != 0.0, (1.0 - so[at, cols] / sp[at, cols]) * dF, 0.0)
            # accumulate over k in order, as the scalar forward substitution does
            r = 1.0 - np.cumsum(terms, axis=1)[:, -1]
        if (r < R_FLOOR).any():
            i = int(np.flatnonzero(r < R_FLOOR)[0])
            raise SolverError(
                f"residual denominator r({t})={r[i]:.3e} at {chain[js[i]]}; inputs are inconsistent"
            )
        raw = numer[js, t] / (scale[js] * r)
        v = np.minimum(np.maximum(raw, SP_CLIP_EPS), 1.0)
        clip = v != raw
        prev = sp[js, t - 1]
        guard = v > prev
        sp[js, t] = np.where(guard, prev, v)
        residual[js, t] = r
        clipped[js, t] = clip
        guarded[js, t] = guard
        diag.incr("sp_clip", int(clip.sum()))
        diag.incr("sp_monotone_guard", int(guard.sum()))

    cells.numer[rows], cells.scale[rows], cells.mass[rows] = numer, scale, mass
    cells.so[rows], cells.has_so[rows[read]] = so, True
    done = np.flatnonzero(need > solved)
    at = rows[done]
    cells.values[at], cells.residual[at] = sp[done], residual[done]
    cells.clipped[at], cells.guarded[at] = clipped[done], guarded[done]
    cells.solved[at] = need[done]


class AdjustmentEngine:
    """Production ingredients: life table + incidence + registry survival.

    Wires the prevalence recursion, the diagnosis-mass products, and the
    diagonal survival into the solver; each ingredient method takes a
    sequence of keys and returns one row per key.  Overall survival is read
    only from the prevalence calculator's lag table.  The solved cells, with
    the inputs they were solved from, are kept so each is computed once per
    run.
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
        self.cells = SolvedCells(self.horizon)

    def lt_survival_grid(self, keys) -> np.ndarray:
        return diagonal_survival(self.life_table, keys, self.horizon, self.diagnostics).values

    def alpha(self, keys):
        return self.calc.prevalence(keys)

    def prevalent_grid(self, keys) -> np.ndarray:
        return prevalent_case_survival(keys, self.calc.prevalent_survival(keys)).values

    def so_grid(self, keys) -> np.ndarray:
        """S_O at integer lags 0..K: the even columns of each key's table row."""
        return self.calc.table.values[self.calc.rows(keys), : 2 * self.horizon + 1 : 2]

    def diagnosis_mass(self, keys) -> np.ndarray:
        return time_to_diagnosis_increments(self.incidence, keys, self.horizon, self.diagnostics)

    def solve(self, keys: Sequence[StratumKey]) -> np.ndarray:
        """S_P of `keys` at t = 0..K, one row per key in order; the keys not
        solved before are solved together in one sweep.  The lag table is
        filled first: made before the sweep's per-cell arrays, the
        temporaries of its one evaluation (the run's largest) leave `adjust`
        peaking ~5 MiB lower."""
        self.calc.table.values
        return solve_noncancer_survival(self, list(keys), self.diagnostics, self.cells)

    def residuals(self, keys) -> np.ndarray:
        """r(t) for t = 1..K at each key's cell (diagnostic export), as the
        solve computed it, as a keys x K array."""
        keys = list(keys)
        self.solve(keys)
        return self.cells.residual[self.cells.rows(keys), 1:]
