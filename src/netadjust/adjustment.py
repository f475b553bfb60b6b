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
diagonal.  `solve_noncancer_survival` lays the requested cells out as one
chain of cells per diagonal, in concatenated integer arrays.  It first finds
which horizons each cell needs (the union of the roots' dependency
closures, pruned where dF_k = 0), then fetches every needed cell's inputs
with one call per ingredient, then steps t = 1..K forward once, solving
horizon t for every cell of every chain that needs it in one array
expression.  It returns S_P with the alpha, r(t) and clip/guard flags of
the same sweep as one `Solution`, and keeps nothing between calls.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import Diagnostics, ensure_diagnostics
from .incidence import IncidenceTable, PrevalenceCalculator, PrevalenceError, time_to_diagnosis_increments
from .lifetable import LifeTable, diagonal_survival
from .registry import cell_key, diagonals

SP_CLIP_EPS = 1e-9
R_FLOOR = 1e-6


class SolverError(ValueError):
    """The discrete system is numerically inconsistent at a named cell."""


def prevalent_case_survival(mixture: np.ndarray) -> np.ndarray:
    """Survival from the cell date of previously diagnosed subjects, t = 0..K,
    one row per cell, from the prevalence recursion's mixture.

    `mixture[i, t]` is the lag-weighted survival of cell i's prevalent cases
    to horizon t, over alpha (`PrevalenceCalculator.recursion`); its t = 0
    column is 1 up to rounding, by the recursion itself.  Values are
    clipped into [0, 1] and start at exactly 1, and must not increase.
    """
    values = np.clip(mixture, 0.0, 1.0)
    values[:, 0] = 1.0
    if (np.diff(values, axis=1) > 1e-12).any():
        raise ValueError("prevalent-case survival must be non-increasing in [0,1]")
    return values


@dataclass(frozen=True)
class Solution:
    """One solve, one row per cell in cell order: S_P and r(t) at t = 0..K
    (r(0) = 1 is unused), alpha, and the flags of the horizons where S_P was
    clipped into [SP_CLIP_EPS, 1] or held at S_P(t - 1) by the guard."""

    values: np.ndarray
    residual: np.ndarray
    alpha: np.ndarray
    clipped: np.ndarray
    guarded: np.ndarray


def _propagate(roots, mass, K) -> np.ndarray:
    """Horizons each chain position needs: K at the roots, and n - k at
    position j + k from a position j that needs n >= 2, for each k < n with
    nonzero diagnosis mass dF_k at j.  A position whose mass is not fetched
    yet holds zeros and passes nothing on.

    Every position takes, at once, the most any position k = 1..K-1 before
    it passes on, over and over until nothing changes: a need passed on
    falls by at least 1 a step, so that is at most K rounds.  What one
    position passes on is positive only inside its own chain, as each
    chain runs K - 1 positions past its last root."""
    lags = np.arange(1, K)
    source = np.arange(mass.shape[0])[:, None] - lags
    passes = (source >= 0) & (mass[source, lags - 1] != 0.0)
    need = np.zeros(mass.shape[0], dtype=np.intp)
    need[roots] = K
    while True:
        passed = np.maximum(need, np.where(passes, need[source] - lags, 0).max(axis=1, initial=0))
        if np.array_equal(passed, need):
            return need
        need = passed


def solve_noncancer_survival(ing, cells, diagnostics: Diagnostics | None = None) -> Solution:
    """S_P of every cell, on any birth-cohort diagonals, in one forward sweep.

    `ing` supplies the inputs, and `horizon`, the number K of annual steps
    solved.  `lt_survival_grid` and `diagnosis_mass` each take cells and
    return one row per cell (the grid at t = 0..K, the diagnosis mass at
    k = 1..K).  `prevalence_inputs(cells, read)` returns alpha of each cell
    of `cells`, their prevalent-case survival at t = 0..K (a row of 1 where
    alpha is 0), and the S_O grid at t = 0..K of each cell of `read`, the
    cells whose S_O the kernels read.  All cells are (demographics, codes,
    ages, years) columns (`registry.StratumKey`).

    The cells of a diagonal are the roots of one chain of cells, from its
    youngest root through K - 1 cells past its oldest; the chains are
    integer arrays, diagonals in first-seen order.  Each root needs
    horizons 1..K, and no position reads past its chain.  Needed horizons
    propagate from younger to older cells only along kernel terms with
    nonzero diagnosis mass (`_propagate`), so exactly the (cell, horizon)
    pairs the forward substitution reads are solved.  Masses are fetched
    in rounds, the first for the roots and each later one for the cells
    that the propagation after the round before found to need two or more
    horizons; every other ingredient is fetched in one call for all cells
    that need a horizon, the prevalence inputs before the life-table grid.
    Each step t solves horizon t for every cell that needs it in one array
    expression, and the clip/guard diagnostics count each solved horizon
    once, after the last step.  Nothing is kept between calls.  With no
    cells, or K = 0, nothing is solved and no ingredient is read: S_P and r
    are 1 and alpha is NaN.
    """
    diag = ensure_diagnostics(diagnostics)
    demographics, codes, ages, years = cells
    n, K = len(codes), ing.horizon
    if not n or not K:
        flags = np.zeros((n, K + 1), dtype=bool)
        return Solution(np.ones((n, K + 1)), np.ones((n, K + 1)), np.full(n, np.nan), flags, flags.copy())
    line, first = diagonals(cells)
    lo, hi = ages[first], ages[first]   # two copies
    np.minimum.at(lo, line, ages)
    np.maximum.at(hi, line, ages)
    lengths = hi + K - lo
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    roots = starts[line] + ages - lo[line]
    m = int(lengths.sum())
    # the chains' cells, diagonal after diagonal, as rows of codes, ages and years
    age = np.repeat(lo, lengths) + np.arange(m) - np.repeat(starts, lengths)
    chain = np.stack((np.repeat(codes[first], lengths), age, age + np.repeat((years - ages)[first], lengths)))

    # horizons needed per position: before any mass is fetched, K at the
    # roots; masses are then fetched in rounds for the positions found to
    # need two or more, and the need propagated again after each round
    mass, known = np.zeros((m, K)), np.zeros(m, dtype=bool)
    need = np.zeros(m, dtype=np.intp)
    need[roots] = K
    while (fetch := np.flatnonzero((need >= 2) & ~known)).size:
        mass[fetch] = np.asarray(ing.diagnosis_mass((demographics, *chain[:, fetch])), dtype=np.float64)[:, :K]
        known[fetch] = True
        need = _propagate(roots, mass, K)

    # every other input of the cells with a horizon to solve, and the S_O
    # grids their kernels read, one call per ingredient
    needed = np.flatnonzero(need > 0)
    lags = np.arange(1, K + 1)
    active = np.flatnonzero(need >= 2)
    src, k = np.nonzero((mass[active] != 0.0) & (lags < need[active, None]))
    read = np.zeros(m, dtype=bool)
    read[active[src] + lags[k]] = True
    read = np.flatnonzero(read)
    alpha, numer, so = np.zeros(m), np.ones((m, K + 1)), np.ones((m, K + 1))
    a, prev, s_o = ing.prevalence_inputs((demographics, *chain[:, needed]), (demographics, *chain[:, read]))
    alpha[needed] = np.asarray(a, dtype=np.float64)
    numer[needed] = np.asarray(ing.lt_survival_grid((demographics, *chain[:, needed])), dtype=np.float64)[:, : K + 1]
    if (alpha >= 1.0).any():
        j = int(np.argmax(alpha >= 1.0))
        raise SolverError(f"prevalence {alpha[j]} >= 1 at {cell_key((demographics, *chain), j)}")
    numer[needed] -= alpha[needed, None] * np.asarray(prev, dtype=np.float64)[:, : K + 1]
    if read.size:
        so[read] = np.asarray(s_o, dtype=np.float64)[:, : K + 1]

    sp, residual = np.ones((m, K + 1)), np.ones((m, K + 1))
    clipped, guarded = np.zeros((m, K + 1), dtype=bool), np.zeros((m, K + 1), dtype=bool)
    for t in range(1, K + 1):
        js = np.flatnonzero(need >= t)   # the roots, at least
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
            key = cell_key((demographics, *chain), js[i])
            raise SolverError(f"residual denominator r({t})={r[i]:.3e} at {key}; inputs are inconsistent")
        raw = numer[js, t] / ((1.0 - alpha[js]) * r)
        v = np.minimum(np.maximum(raw, SP_CLIP_EPS), 1.0)
        clip = v != raw
        prev = sp[js, t - 1]
        guard = v > prev
        sp[js, t] = np.where(guard, prev, v)
        residual[js, t] = r
        clipped[js, t] = clip
        guarded[js, t] = guard
    # each solved horizon's flags are set once, and no other is
    diag.incr("sp_clip", np.count_nonzero(clipped))
    diag.incr("sp_monotone_guard", np.count_nonzero(guarded))
    return Solution(sp[roots], residual[roots], alpha[roots], clipped[roots], guarded[roots])


class AdjustmentEngine:
    """Production ingredients: life table + incidence + registry survival.

    Wires the prevalence recursion, the diagnosis-mass products, and the
    diagonal survival into the solver; each ingredient method takes
    (demographics, codes, ages, years) cells and returns one row per cell.
    A `solve` runs the prevalence recursion once (`prevalence_inputs`),
    which looks each cell's stratum up once and evaluates overall survival
    once, at the lags it reads, and keeps nothing; a run solves its cells
    in one `solve`.  `alpha`, `prevalent_grid` (undefined where alpha is 0)
    and `so_grid` read the same quantities, to check the engine by cell.
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
        self.horizon = int(horizon)
        self.diagnostics = ensure_diagnostics(diagnostics)
        self.calc = PrevalenceCalculator(incidence, overall_survival, life_table, lag_eval=lag_eval,
                                         horizon=self.horizon, diagnostics=self.diagnostics)

    def lt_survival_grid(self, cells) -> np.ndarray:
        return diagonal_survival(self.calc.life_table, cells, self.horizon, self.diagnostics)

    def prevalence_inputs(self, cells, read):
        """alpha and the prevalent-case survival of each of the `cells` (a
        row of 1 where alpha is 0), and the S_O grid of each cell of `read`,
        from one pass of the prevalence recursion."""
        alpha, mixture, so = self.calc.recursion(cells, read)
        return alpha, prevalent_case_survival(mixture), so

    def alpha(self, cells):
        return self.calc.recursion(cells)[0]

    def prevalent_grid(self, cells) -> np.ndarray:
        alpha, mixture, _ = self.calc.recursion(cells)
        if (alpha <= 0.0).any():
            key = cell_key(cells, (alpha <= 0.0).argmax())
            raise PrevalenceError(f"prevalent mixture undefined at {key}: prevalence is 0")
        return prevalent_case_survival(mixture)

    def so_grid(self, cells) -> np.ndarray:
        provider = self.calc.overall_survival
        return provider.survival(provider.lookup(cells)[0], np.arange(self.horizon + 1, dtype=np.float64))

    def diagnosis_mass(self, cells) -> np.ndarray:
        return time_to_diagnosis_increments(self.calc.incidence, cells, self.horizon, self.diagnostics)

    def solve(self, cells) -> Solution:
        """S_P of the (demographics, codes, ages, years) `cells` at
        t = 0..K, with their alpha, r(t) and clip/guard flags, from one
        sweep (`solve_noncancer_survival`)."""
        return solve_noncancer_survival(self, cells, self.diagnostics)

    def residuals(self, solution: Solution) -> np.ndarray:
        """r(t) at t = 1..K of each cell of `solution`, as a cells x K array:
        the residual denominators `adjust` exports."""
        return solution.residual[:, 1:]
