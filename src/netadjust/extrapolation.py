"""Exponential tail extrapolation and log-linear grid interpolation.

Beyond the end of reliable follow-up a stratum's survival curve is continued
as exp(-g0 - g1*t), with (g0, g1) the least-squares fit of -log S at a few
integer anchor times near the cutoff; cutoffs, anchors and fits are computed
for every stratum of a Kaplan-Meier curve at once.  Between annual
grid points, survival is interpolated log-linearly (constant hazard within
the year).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import Diagnostics, ensure_diagnostics, log
from .registry import EventTable, StepSurvivalCurve


def follow_up_cutoff(table: EventTable, min_at_risk: int = 5) -> np.ndarray:
    """Each stratum's largest observed time whose risk set still holds
    min_at_risk subjects, or its last observed time when no time qualifies:
    one value per stratum of the table."""
    starts, ends = table.offsets[:-1], table.offsets[1:]
    # at-risk counts fall within a stratum, so the qualifying times lead it
    ok = np.add.reduceat(table.at_risk >= min_at_risk, starts, dtype=np.intp)
    return table.times[np.where(ok > 0, starts + ok, ends) - 1]


@dataclass
class ExtendedSurvival:
    """Step curves continued past tau by exp(-g0 - g1*t), clipped monotone.

    `tau`, `g0` and `g1` hold one value per stratum of the base, and
    `survival_at` evaluates like the base (every stratum or `rows`, at
    shared times or one row of times per stratum).
    """

    base: StepSurvivalCurve
    tau: np.ndarray
    g0: np.ndarray
    g1: np.ndarray

    def __post_init__(self):
        # the tail never rises above the curve's value at tau
        self.s_tau = self.base.survival_at(self.tau[:, None])[:, 0]

    def survival_at(self, t, rows=None) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        base_vals = self.base.survival_at(t, rows)
        pick = slice(None) if rows is None else rows
        tau, g0, g1, cap = (p[pick, None] for p in (self.tau, self.g0, self.g1, self.s_tau))
        tail = np.minimum(np.exp(-g0 - g1 * t), cap)
        return np.where(t <= tau, base_vals, tail)


def extend_survival(
    curve: StepSurvivalCurve,
    tau: np.ndarray,
    h: int,
    diagnostics: Diagnostics | None = None,
) -> ExtendedSurvival:
    """Fit every stratum's exponential tail, `tau` holding each stratum's cutoff.

    A stratum's anchors are the last h integer times <= tau where its curve
    is positive (all of them if fewer): since a curve is positive before
    its first zero, they are consecutive integers, fixed by the last one and
    their number.  -log S at the anchors of every fitted stratum comes from
    one evaluation, one row of times per stratum.  Strata with the same
    anchors share one `np.polyfit` of it, one column per stratum, so each
    stratum's (g0, g1) is the same least-squares line as a fit of its own;
    a negative slope is clipped to 0.  A stratum with fewer than two
    anchors carries its value at tau forward (g1 = 0, counted as
    `extrapolation_fallback`).
    """
    if h < 2:
        raise ValueError("need at least two anchor points")
    diag = ensure_diagnostics(diagnostics)
    tau = np.asarray(tau, dtype=np.float64)
    last = np.minimum(np.floor(tau), np.ceil(curve.zero_times()) - 1.0)
    count = np.minimum(last + 1.0, float(h))
    fits = count >= 2.0
    g0 = np.empty(tau.shape[0])
    g1 = np.zeros(tau.shape[0])
    fit_rows = np.flatnonzero(fits)
    # -log S at every fitted stratum's anchors from one read, one row of
    # times per stratum; a row of fewer than h anchors repeats its last
    anchors = np.minimum((last - count + 1.0)[fit_rows, None] + np.arange(h), last[fit_rows, None])
    logs = -np.log(curve.survival_at(anchors, fit_rows))
    anchor_sets, members = np.unique((last * (h + 1) + count)[fits], return_inverse=True)
    members = members.reshape(-1)
    for j, code in enumerate(anchor_sets.tolist()):
        mine = members == j
        rows = fit_rows[mine]
        top, n = divmod(code, h + 1)
        y = logs[mine, : int(n)]
        slope, intercept = np.polyfit(np.arange(top - n + 1.0, top + 1.0), y.T, 1)
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
        s_tau = curve.survival_at(tau[:, None])[:, 0]
        alive = fallback & (s_tau > 0)
        g0[fallback] = np.inf
        g0[alive] = -np.log(s_tau[alive])
    return ExtendedSurvival(curve, tau, g0, g1)


class AnnualGridSurvival:
    """Annual survival grids (t = 0..K), one stratum per row, with
    log-linear interpolation and exact hazards.

    Grid values must be positive (callers floor them first); the
    cumulative hazard is piecewise linear with the yearly slopes implied by
    the grid, and evaluation past the grid carries the last slope forward.
    Each (row, time) evaluated past the grid counts once as
    `grid_extended_eval`.  A time vector is located once and the columns it
    needs are gathered from every row, or from the `rows` asked for; the
    result is a C-ordered rows x times array.
    `cumulative_hazard_at` also takes a rows x m array of times, one row of
    times for each row read.
    """

    def __init__(self, values: np.ndarray, diagnostics: Diagnostics | None = None):
        self.values = np.asarray(values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("annual survival grids must be one row per stratum")
        if (self.values[:, 0] != 1.0).any():
            raise ValueError("annual survival grid must start at 1")
        if (self.values <= 0).any():
            raise ValueError("annual survival grid must be positive; floor it first")
        self.diagnostics = ensure_diagnostics(diagnostics)
        self.log_values = -np.log(self.values)
        self.slopes = np.diff(self.log_values, axis=1)
        self.k_max = self.values.shape[1] - 1

    def _hazard(self, t_arr: np.ndarray, rows) -> np.ndarray:
        if (t_arr < 0).any():
            raise ValueError("t must be >= 0")
        logs, slopes = self.log_values, self.slopes
        if rows is not None:
            logs, slopes = logs[rows], slopes[rows]
        per_row = t_arr.ndim == 2
        beyond = t_arr > self.k_max
        if beyond.any():
            self.diagnostics.incr("grid_extended_eval", int(beyond.sum()) * (1 if per_row else logs.shape[0]))

        def take(a, i):
            if not per_row:
                return np.take(a, i, axis=1)
            # row r's columns i[r], as positions in the flattened rows
            return np.take(a, i + (np.arange(a.shape[0]) * a.shape[1])[:, None])

        if self.k_max > 0:
            idx = np.minimum(np.floor(t_arr).astype(int), self.k_max - 1)
            out = take(slopes, idx)
            out *= t_arr - idx
        else:
            idx = np.zeros_like(t_arr, dtype=int)
            out = np.zeros(take(logs, idx).shape)
        out += take(logs, idx)
        return out

    def cumulative_hazard_at(self, t, rows=None) -> np.ndarray:
        return self._hazard(np.atleast_1d(np.asarray(t, dtype=np.float64)), rows)

    def survival_at(self, t, rows=None) -> np.ndarray:
        t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
        out = self._hazard(t_arr, rows)
        np.exp(np.negative(out, out=out), out=out)
        exact = (t_arr == np.floor(t_arr)) & (t_arr <= self.k_max) & (t_arr >= 0)
        if exact.any():
            values = self.values if rows is None else self.values[rows]
            out[:, exact] = values[:, t_arr[exact].astype(int)]
        return out
