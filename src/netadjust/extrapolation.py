"""Exponential tail extrapolation and log-linear grid interpolation.

Beyond the end of reliable follow-up a stratum's survival curve is continued
as exp(-g0 - g1*t), with (g0, g1) the least-squares fit of -log S at a few
integer anchor times near the cutoff; cutoffs, anchors and fits are computed
for every stratum of a stacked Kaplan-Meier curve at once.  Between annual
grid points, survival is interpolated log-linearly (constant hazard within
the year).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import Diagnostics, ensure_diagnostics, log
from .registry import EventTable, StepSurvivalCurve


def follow_up_cutoff(table: EventTable, min_at_risk: int = 5):
    """Each stratum's largest observed time whose risk set still holds
    min_at_risk subjects, or its last observed time when no time qualifies.

    A float for a single-stratum table, one value per stratum otherwise.
    """
    starts, ends = table.offsets[:-1], table.offsets[1:]
    # at-risk counts fall within a stratum, so the qualifying times lead it
    ok = np.add.reduceat(table.at_risk >= min_at_risk, starts, dtype=np.intp)
    tau = table.times[np.where(ok > 0, starts + ok, ends) - 1]
    return tau if table.stacked else float(tau[0])


@dataclass
class ExtendedSurvival:
    """Step curves continued past tau by exp(-g0 - g1*t), clipped monotone.

    For a stacked base `tau`, `g0` and `g1` hold one value per stratum, and
    `survival_at` evaluates like the base (every stratum or `rows`, at
    shared times or one row of times per stratum).
    """

    base: StepSurvivalCurve
    tau: float | np.ndarray
    g0: float | np.ndarray
    g1: float | np.ndarray

    def __post_init__(self):
        # the tail never rises above the curve's value at tau
        s_tau = self.base.survival_at(np.reshape(self.tau, (-1, 1)))[:, 0]
        self.s_tau = s_tau if self.base.stacked else float(s_tau[0])

    def survival_at(self, t, rows=None):
        t = np.asarray(t, dtype=np.float64)
        base_vals = self.base.survival_at(t, rows)
        params = (self.tau, self.g0, self.g1, self.s_tau)
        if self.base.stacked:
            pick = slice(None) if rows is None else rows
            params = (np.asarray(p)[pick, None] for p in params)
            t = t if t.ndim == 2 else np.atleast_1d(t)
        tau, g0, g1, cap = params
        tail = np.minimum(np.exp(-g0 - g1 * t), cap)
        out = np.where(t <= tau, base_vals, tail)
        return out if out.ndim else float(out)


def extend_survival(
    curve: StepSurvivalCurve,
    tau,
    h: int,
    diagnostics: Diagnostics | None = None,
) -> ExtendedSurvival:
    """Fit every stratum's exponential tail.

    A stratum's anchors are the last h integer times <= tau where its curve
    is positive (all of them if fewer): since a curve is positive before
    its first zero, they are consecutive integers, fixed by the last one and
    their number.  Strata with the same anchors share one `np.polyfit` of
    -log S, one column per stratum, so each stratum's (g0, g1) is the same
    least-squares line as a fit of its own; a negative slope is clipped to
    0.  A stratum with fewer than two anchors carries its value at tau
    forward (g1 = 0, counted as `extrapolation_fallback`).
    """
    if h < 2:
        raise ValueError("need at least two anchor points")
    diag = ensure_diagnostics(diagnostics)
    tau = np.asarray(tau, dtype=np.float64)
    col = np.reshape(tau, (-1, 1))
    last = np.minimum(np.floor(col[:, 0]), np.ceil(curve.zero_times()) - 1.0)
    count = np.minimum(last + 1.0, float(h))
    fits = count >= 2.0
    g0 = np.empty(col.shape[0])
    g1 = np.zeros(col.shape[0])
    anchor_sets, members = np.unique((last * (h + 1) + count)[fits], return_inverse=True)
    fit_rows, members = np.flatnonzero(fits), members.reshape(-1)
    for j, code in enumerate(anchor_sets.tolist()):
        rows = fit_rows[members == j]
        top, n = divmod(code, h + 1)
        anchors = np.arange(top - n + 1.0, top + 1.0)
        y = -np.log(curve.survival_at(np.broadcast_to(anchors, (rows.shape[0], int(n))), rows))
        slope, intercept = np.polyfit(anchors, y.T, 1)
        rising = slope < 0.0
        if rising.any():
            # float noise on flat curves is not worth reporting
            diag.incr("extrapolation_slope_clipped", int((slope < -1e-12).sum()))
            log.debug("negative tail slope clipped to 0 in %d stratum(s)", int(rising.sum()))
            intercept[rising] = y[rising].mean(axis=1)
            slope[rising] = 0.0
        g0[rows], g1[rows] = intercept, slope
    fallback = ~fits
    if fallback.any():
        diag.incr("extrapolation_fallback", int(fallback.sum()))
        log.warning("tail fit needs two positive anchors at or before tau; carrying the value "
                    "at tau forward in %d stratum(s)", int(fallback.sum()))
        s_tau = curve.survival_at(col)[:, 0]
        alive = fallback & (s_tau > 0)
        g0[fallback] = np.inf
        g0[alive] = -np.log(s_tau[alive])
    if not curve.stacked:
        return ExtendedSurvival(curve, float(tau), float(g0[0]), float(g1[0]))
    return ExtendedSurvival(curve, tau, g0, g1)


class AnnualGridSurvival:
    """Annual survival grids with log-linear interpolation and exact hazards.

    `values` is one grid (t = 0..K) or a stack of grids, one stratum per
    row.  Grid values must be positive (callers floor them first); the
    cumulative hazard is piecewise linear with the yearly slopes implied by
    the grid, and evaluation past the grid carries the last slope forward.
    Each (row, time) evaluated past the grid counts once as
    `grid_extended_eval`; given `at_risk` (rows x times, shared times), only
    the cells where it is positive count, so Pohar-Perme counts one per
    (stratum at risk, observed time past the grid).  For a stack, a time
    vector is located once and the columns it needs are gathered from every
    row, or from the `rows` asked for; the result is a C-ordered rows x
    times array.
    `cumulative_hazard_at` also takes a rows x m array of times, one row of
    times for each row of the stack (or of `rows`).
    """

    def __init__(self, values: np.ndarray, diagnostics: Diagnostics | None = None):
        self.values = np.asarray(values, dtype=np.float64)
        if (self.values[..., 0] != 1.0).any():
            raise ValueError("annual survival grid must start at 1")
        if (self.values <= 0).any():
            raise ValueError("annual survival grid must be positive; floor it first")
        self.diagnostics = ensure_diagnostics(diagnostics)
        self.log_values = -np.log(self.values)
        self.slopes = np.diff(self.log_values, axis=-1)
        self.k_max = self.values.shape[-1] - 1

    def _hazard(self, t_arr: np.ndarray, rows, at_risk=None) -> np.ndarray:
        if (t_arr < 0).any():
            raise ValueError("t must be >= 0")
        logs, slopes = self.log_values, self.slopes
        if rows is not None:
            logs, slopes = logs[rows], slopes[rows]
        per_row = logs.ndim == 2 and t_arr.ndim == 2
        beyond = t_arr > self.k_max
        if at_risk is not None:
            self.diagnostics.incr("grid_extended_eval", np.count_nonzero(at_risk[:, beyond]))
        elif beyond.any():
            shared_by = logs.shape[0] if logs.ndim == 2 and not per_row else 1
            self.diagnostics.incr("grid_extended_eval", int(beyond.sum()) * shared_by)

        def take(a, i):
            return np.take_along_axis(a, i, axis=-1) if per_row else np.take(a, i, axis=-1)

        if self.k_max > 0:
            idx = np.minimum(np.floor(t_arr).astype(int), self.k_max - 1)
            out = take(slopes, idx)
            out *= t_arr - idx
        else:
            idx = np.zeros_like(t_arr, dtype=int)
            out = np.zeros(take(logs, idx).shape)
        out += take(logs, idx)
        return out

    def cumulative_hazard_at(self, t, rows=None):
        t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
        out = self._hazard(t_arr, rows)
        return out if np.ndim(t) or out.ndim > 1 else float(out[0])

    def survival_at(self, t, rows=None, at_risk=None):
        t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
        out = self._hazard(t_arr, rows, at_risk)
        np.exp(np.negative(out, out=out), out=out)
        exact = (t_arr == np.floor(t_arr)) & (t_arr <= self.k_max) & (t_arr >= 0)
        if exact.any():
            values = self.values if rows is None else self.values[rows]
            out[..., exact] = np.take(values, t_arr[exact].astype(int), axis=-1)
        return out if np.ndim(t) or out.ndim > 1 else float(out[0])
