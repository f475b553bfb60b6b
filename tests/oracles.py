"""Independent reference implementations the package is checked against.

* `solve_noncancer_survival_triangular`: the S_P system assembled as one
  explicit strictly-lower-triangular kernel matrix per lattice cell, solved
  by forward substitution; `triangular_residuals` returns its r(t).
* `merge_small_strata_reference`: the plain rescanning stratum merger, which
  rebuilds the small-stratum list, the neighbour pool and the alias map on
  every merge.
"""
import numpy as np

from netadjust.adjustment import (
    R_FLOOR,
    SP_CLIP_EPS,
    AdjustedPopulationSurvival,
    AdjustmentIngredients,
    SolverError,
)
from netadjust.diagnostics import ensure_diagnostics
from netadjust.registry import StratumKey


def _triangular(ing: AdjustmentIngredients, key: StratumKey, diagnostics=None):
    """Solve every lattice cell the target depends on; returns
    {cell: (values, clips, guards, r)} for the cells solved."""
    diag = ensure_diagnostics(diagnostics)
    need: dict[StratumKey, int] = {key: ing.horizon}
    stack = [key]
    while stack:
        s = stack.pop()
        n = need[s]
        for k in range(1, n):
            s2 = ing.shift(s, k)
            if need.get(s2, 0) < n - k:
                need[s2] = n - k
                stack.append(s2)
    # dependencies (shifts toward higher age at smaller horizons) first
    order = sorted(need, key=lambda s: (s.demographics, s.year - s.age, -s.age))
    solved: dict[StratumKey, tuple] = {}
    for s in order:
        n = need[s]
        a = ing.alpha(s)
        lt = np.asarray(ing.lt_survival_grid(s), dtype=np.float64)
        if a == 0.0:
            numer = lt[1 : n + 1]
        elif a >= 1.0:
            raise SolverError(f"prevalence {a} >= 1 at {s}")
        else:
            numer = (lt - a * np.asarray(ing.prevalent_grid(s), dtype=np.float64))[1 : n + 1]
        dF = np.asarray(ing.diagnosis_mass(s), dtype=np.float64)[:n]
        H = np.zeros((n, n))
        for k in range(1, n):
            shifted = ing.shift(s, k)
            so = np.asarray(ing.so_grid(shifted), dtype=np.float64)
            sp = solved[shifted][0]
            m = n - k
            H[k:, k - 1] = 1.0 - so[1 : m + 1] / sp[1 : m + 1]
        r = 1.0 - H @ dF
        too_small = r < R_FLOOR
        if too_small.any():
            t_bad = int(np.flatnonzero(too_small)[0]) + 1
            raise SolverError(
                f"residual denominator r({t_bad})={r[t_bad - 1]:.3e} at {s}; inputs are inconsistent"
            )
        raw = numer / ((1.0 - a) * r)
        values = np.ones(n + 1)
        clips = guards = 0
        for t in range(1, n + 1):
            v = raw[t - 1]
            c = min(max(v, SP_CLIP_EPS), 1.0)
            if c != v:
                clips += 1
            v = c
            if v > values[t - 1]:
                guards += 1
                v = values[t - 1]
            values[t] = v
        solved[s] = (values, clips, guards, r)
        diag.incr("sp_clip", clips)
        diag.incr("sp_monotone_guard", guards)
    return solved


def solve_noncancer_survival_triangular(ing, key, diagnostics=None) -> AdjustedPopulationSurvival:
    """S_P of the target cell with its own clip/guard counts."""
    values, clips, guards, _ = _triangular(ing, key, diagnostics)[key]
    return AdjustedPopulationSurvival(key, values, clips, guards)


def triangular_residuals(ing, key) -> np.ndarray:
    """r(t), t = 1..K, at the target cell from the oracle's kernel matrix."""
    return _triangular(ing, key)[key][3]


def merge_small_strata_reference(strata, min_size=10, diagnostics=None):
    """Fold strata with fewer than min_size subjects into a neighbor.

    Preference: adjacent age with the same year, then the nearest existing
    stratum with the same demographics (Chebyshev distance on (age, year),
    ties toward lower age then lower year).
    """
    diag = ensure_diagnostics(diagnostics)
    merged = dict(strata)
    alias: dict[StratumKey, StratumKey] = {k: k for k in strata}

    def neighbor(key: StratumKey) -> StratumKey | None:
        pool = [k for k in merged if k.demographics == key.demographics and k != key]
        if not pool:
            return None
        for cand in (StratumKey(key.age - 1, key.year, key.demographics),
                     StratumKey(key.age + 1, key.year, key.demographics)):
            if cand in merged:
                return cand
        return min(
            pool,
            key=lambda k: (max(abs(k.age - key.age), abs(k.year - key.year)),
                           abs(k.age - key.age) + abs(k.year - key.year),
                           k.age, k.year),
        )

    while True:
        small = [k for k, t in merged.items() if t.n < min_size]
        if not small:
            break
        small.sort(key=lambda k: (merged[k].n, k))
        key = small[0]
        target = neighbor(key)
        if target is None:
            break
        merged[target] = merged[target].merge(merged.pop(key))
        for orig, cur in alias.items():
            if cur == key:
                alias[orig] = target
        diag.incr("stratum_merge")
    return merged, alias
