"""Annual cancer incidence rates and the prevalence machinery built on them.

IR(age, year, demo) is the annual probability that a cancer-free member of
the cell is newly diagnosed within the year.  Three derived quantities feed
the life-table adjustment:

* prevalence: the probability that a member of a cell has a prior diagnosis,
  via the recursion  alpha(a) = sum_s S_O(s | a-s) * IR(a-s) * (1 - alpha(a-s))
  with alpha(age 0) = 0;
* the survival of prevalent cases from the cell date (the same summands with
  each patient's survival carried further, normalized by alpha);
* the time-to-diagnosis distribution of cancer-free members,
  F(t) = 1 - prod_{s<t} (1 - IR(a+s)).

Each cell depends only on strictly earlier cells of its birth-cohort
diagonal, so one pass of the recursion steps through the ages once for all
diagonals together, reading each diagonal's inputs once, and keeps nothing
between passes; every overall-survival value it reads comes from one
evaluation of the strata it reads, at the lags it reads.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .diagnostics import Diagnostics, ensure_diagnostics, log
from .io import read_cells
from .lifetable import CellTable
from .registry import diagonals, stratum_cells


class IncidenceError(ValueError):
    """Malformed incidence input."""


class PrevalenceError(ValueError):
    """Prevalence recursion produced an impossible value (>= 1)."""


IR_CLIP = 1.0 - 1e-9


class IncidenceTable(CellTable):
    """Annual incidence rates keyed like a life table, in the same dense
    layout.  Lookups outside the declared age/year ranges are clamped to the
    nearest in-range cell (counted); cells absent after clamping default to
    0 (counted), so pediatric gaps in real incidence files do not abort a
    run.
    """

    quantity, bounds, error = "ir", "[0,1)", IncidenceError

    @staticmethod
    def valid(values: np.ndarray) -> np.ndarray:
        return (values >= 0.0) & (values < 1.0)

    def ir_diagonal(self, cells, steps, diagnostics: Diagnostics | None = None) -> np.ndarray:
        """IR at (age+j, year+j) for j = 0..steps-1 from each cell, as a
        cells x steps array from one gather.  `steps` may give one count per
        cell; a cell's row is then 0 past its own count, and those entries
        are not counted.  Each step is clamped into the table's ranges
        (counted once per clamped step) and is 0 at a missing cell (counted
        once per step); an empty table is 0 everywhere and counts nothing."""
        if not self._values.size:
            return np.zeros((len(cells[1]), int(np.max(steps, initial=0))))
        ir, clamped, _, _ = self._gather(cells, steps)
        missing = np.isnan(ir)
        ir[missing] = 0.0
        if diagnostics is not None:
            diagnostics.incr("incidence_clamp", int(clamped.sum()))
            diagnostics.incr("incidence_missing_cell", int(missing.sum()))
        return ir


def compute_incidence(
    new_diagnoses: dict, person_years: dict, diagnostics: Diagnostics | None = None
) -> IncidenceTable:
    """IR = diagnoses / person-years per cell, clipped into [0, 1-1e-9].

    Cells come from the person-years table (it defines the population);
    nonzero diagnoses without exposure are a hard error.
    """
    diag = ensure_diagnostics(diagnostics)
    cells = {}
    for key, d in new_diagnoses.items():
        py = person_years.get(key, 0.0)
        if py <= 0 and d > 0:
            raise IncidenceError(f"{d} diagnoses but no person-years at cell {key}")
    for key, py in person_years.items():
        d = float(new_diagnoses.get(key, 0))
        if py <= 0:
            continue
        ir = d / py
        if ir > IR_CLIP:
            diag.incr("incidence_clip")
            log.warning("incidence rate %.6f clipped at cell %s", ir, key)
            ir = IR_CLIP
        cells[key] = ir
    return IncidenceTable(cells)


def time_to_diagnosis_increments(
    ir: IncidenceTable, cells, k_max: int, diagnostics: Diagnostics | None = None
) -> np.ndarray:
    """Year-by-year diagnosis mass for k = 1..k_max, F(k) - F(k-1), as a
    cells x k_max array.

    Equals IR(cell+k-1) times the probability of staying undiagnosed through
    the earlier years; increments telescope back to the cdf.
    """
    rates = ir.ir_diagonal(cells, int(k_max), diagnostics)
    undiagnosed = np.cumprod(1.0 - rates, axis=1)[:, :-1]
    return np.concatenate((np.ones((rates.shape[0], 1)), undiagnosed), axis=1) * rates


class PrevalenceCalculator:
    """Prevalence and prevalent-case survival from incidence + survival.

    Each lag-s term multiplies the chance of a diagnosis s years back
    (IR * fraction then undiagnosed), the patients' survival over those s
    years, and the ratio of the cell populations then and now; the last
    factor is the reciprocal of the life table's own diagonal survival and
    re-normalizes for cohort attrition between the two cells, without which
    prevalence at high-mortality ages is badly understated.

    `overall_survival` is an `OverallSurvivalProvider`, which extrapolates
    past follow-up internally; a pass reads it with one `survival` call.
    `recursion` is one pass for a set of cells, looking each cell's stratum
    up once, and the one read of alpha, the prevalent mixture and the S_O
    grids.  Nothing is kept between calls.
    `lag_eval` picks where within the diagnosis year the survival curve is
    read: "year_start" uses the full integer lag, "mid_year" shifts the
    evaluation point back half a year.
    """

    def __init__(
        self,
        incidence: IncidenceTable,
        overall_survival,
        life_table,
        lag_eval: str = "year_start",
        diagnostics: Diagnostics | None = None,
        horizon: int = 15,
    ):
        if lag_eval not in ("year_start", "mid_year"):
            raise ValueError(f"unknown lag_eval {lag_eval!r}")
        self.incidence = incidence
        self.overall_survival = overall_survival
        self.life_table = life_table
        self.offset = 0 if lag_eval == "year_start" else 1   # half years before the integer lag
        self.diagnostics = ensure_diagnostics(diagnostics)
        self.horizon = int(horizon)

    def _overall_survival(self, strata, extra, diagnosed):
        """S_O at the lags the recursion reads, from one `survival` call, and
        the row of it that holds each of the `strata`: those of the diagnosis
        cells, then those of the read cells.

        A diagnosis cell with nonzero IR (`diagnosed`) reads its stratum at
        lags 1..K+extra, extra being its diagonal's oldest age less its own,
        each `offset` half years earlier, and a read cell at lags 0..K.
        Column c holds lag c / (1 + offset), and a column a row does not
        read repeats the lag before it, so only the cells read are evaluated
        and counted."""
        K, scale = self.horizon, 1 + self.offset
        longest = np.full(int(strata.max(initial=-1)) + 1, -K - 1, dtype=np.intp)
        np.maximum.at(longest, strata[: extra.size][diagnosed], extra[diagnosed])
        ends = np.full((2, longest.size), -1, dtype=np.intp)   # each stratum's last column of each kind
        ends[0] = scale * (K + longest) - self.offset
        ends[1, strata[extra.size :]] = scale * K
        used = np.flatnonzero(ends.max(axis=0, initial=-1) >= 0)
        column = np.arange(int(ends.max(initial=-1)) + 1)
        read = ((column % scale == self.offset) & (column <= ends[0, used, None])) | (
            (column % scale == 0) & (column <= ends[1, used, None]))
        times = np.maximum.accumulate(np.where(read, column, 0), axis=1) / scale
        return self.overall_survival.survival(used, times), np.searchsorted(used, strata)

    def recursion(self, cells, read=None):
        """One pass of the recursion over the diagonals of `cells`, keeping
        nothing between calls: alpha at each cell, each cell's prevalent
        mixture at t = 0..horizon (a row of 1 where alpha is 0) and S_O at
        t = 0..horizon of each `read` cell's stratum.

        The diagonals are (code, birth year) pairs in first-seen order.
        Each diagonal's IR and life-table q are read from age 0 through its
        oldest cell, one gather each, and the strata of those diagnosis
        cells and of the `read` cells are looked up, and counted, once in
        one call; their S_O is evaluated once, at the lags read
        (`_overall_survival`).  The recursion then takes one step per age
        for all the diagonals together.  C[i, m] accumulates irga(d) *
        S_O(m - d | diagnosed at d) over the ages d stepped so far on
        diagonal i, irga(d) being IR(d) times the fraction undiagnosed,
        1 - alpha(d), times the cohort survival to d; a diagonal with
        irga(d) = 0 adds nothing.  At step a, before age a is added,
        alpha(a) = C[i, a] / survival to a, and C[i, a + t] / (survival to a
        * alpha(a)) is the prevalent cases' survival to horizon t; the
        numerators are kept only at the ages that hold a cell.  A step does
        the same few array operations for every diagonal and checks
        nothing: after the last step, the youngest age at which a diagonal
        reaching it is extinct or has alpha >= 1 raises `PrevalenceError`,
        extinction first, then the first-seen diagonal.
        """
        demographics, codes, ages, years = cells
        if (ages < 0).any():
            raise ValueError("prevalence needs age >= 0")
        line, first = diagonals(cells)
        births = (years - ages)[first]
        reach = np.zeros(first.size, dtype=np.intp)
        np.maximum.at(reach, line, ages)
        top, K = int(reach.max(initial=0)), self.horizon
        starts = (demographics, codes[first], np.zeros_like(births), births)
        ir = self.incidence.ir_diagonal(starts, reach, self.diagnostics)
        q = self.life_table.q_diagonal(starts, reach, self.diagnostics)
        # survival to d + 1 = survival to d times (1 - q(d)), multiplied in age order
        surv = np.cumprod(np.column_stack((np.ones(first.size), 1.0 - q)), axis=1)

        def name(i):
            return f"diagonal (birth year {births[i]}, {demographics[codes[first[i]]]})"

        # the strata of the diagnosis cells (age d < reach on each diagonal)
        # and of the read cells, looked up in one call
        provider = self.overall_survival
        read = stratum_cells([]) if read is None else read
        diagonal, age = np.nonzero(np.arange(top) < reach[:, None])
        looked_up = np.stack((
            np.concatenate((provider.codes(demographics, codes[first])[diagonal], provider.codes(*read[:2]))),
            np.concatenate((age, read[2])),
            np.concatenate((births[diagonal] + age, read[3])),
        ))
        # one integer per cell, so that the union is one 1-d unique
        shifted = looked_up - looked_up.min(axis=1, keepdims=True, initial=0)
        _, unique, inverse = np.unique(np.ravel_multi_index(shifted, shifted.max(axis=1, initial=0) + 1),
                                       return_index=True, return_inverse=True)
        found = provider.lookup(*looked_up[:, unique])[0][inverse.reshape(-1)]
        diagnosed = ir[diagonal, age] > 0.0
        so, held = self._overall_survival(found, reach[diagonal] - age, diagnosed)

        scale = 1 + self.offset
        # S_O at lag 1, 2, ... of each evaluated stratum, clipped past the
        # evaluated width: C reads none of those.  With no stratum evaluated
        # no cell is diagnosed, and every step adds 0.
        lags = np.minimum(scale * np.arange(1, top + K + 1) - self.offset, so.shape[1] - 1)
        lagged = so[:, lags] if so.size else np.zeros((1, top + K))
        # ages x diagonals from here on, so that each step reads rows: the
        # row of `lagged` each diagnosis cell adds (0 where it adds nothing)
        rows = np.zeros((top, first.size), dtype=np.intp)
        rows[age[diagnosed], diagonal[diagnosed]] = held[: diagonal.size][diagnosed]
        ir, surv = ir.T.copy(), surv.T.copy()
        alpha = np.zeros((top + 1, first.size))
        C = np.zeros((top + K + 1, first.size))
        numer = np.empty((len(codes), K + 1))
        order = np.argsort(ages, kind="stable")
        bounds = np.searchsorted(ages[order], np.arange(top + 2)).tolist()
        # Diagonals do not interact, so each one's values up to its first
        # fault are those of a pass that stops there.  The faults are looked
        # for once, after the loop; nothing reads the values past them, nor
        # alpha past a diagonal's reach, where IR is 0.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for a in range(top + 1):
                if a:
                    np.divide(C[a], surv[a], out=alpha[a])
                if bounds[a] < bounds[a + 1]:
                    at = order[bounds[a] : bounds[a + 1]]
                    numer[at] = C[a : a + K + 1, line[at]].T
                if a < top:
                    irga = ir[a] * (1.0 - alpha[a]) * surv[a]
                    C[a + 1 :] += lagged[rows[a], : top + K - a].T * irga
            live = reach >= np.arange(1, top + 1)[:, None]   # ages 1..top
            extinct = live & (surv[1:] <= 0.0)
            over = live & (alpha[1:] >= 1.0)
        faults = (extinct | over).any(axis=1)
        if faults.any():
            # the youngest age with a fault; there, extinction before prevalence >= 1
            a = int(faults.argmax()) + 1
            if extinct[a - 1].any():
                i = int(extinct[a - 1].argmax())
                raise PrevalenceError(f"life-table cohort extinct at age {a} on {name(i)}; prevalence undefined")
            i = int(over[a - 1].argmax())
            raise PrevalenceError(f"prevalence {alpha[a, i]:.6f} >= 1 at age {a} on {name(i)}; "
                                  f"incidence and survival inputs disagree")
        values = alpha[ages, line]
        mixture = np.ones((len(codes), K + 1))
        np.divide(numer, (surv[ages, line] * values)[:, None], out=mixture, where=values[:, None] > 0.0)
        return values, mixture, so[held[diagonal.size :], : scale * K + 1 : scale]


def load_incidence_table(path) -> IncidenceTable:
    """Read an incidence CSV (age,year,sex,ir) with `io.read_cells`: ir must
    lie in [0,1)."""
    columns = read_cells(Path(path), "ir", IncidenceError, IncidenceTable.valid,
                         "duplicate cell (age={age}, year={year}, sex={sex})", "ir={value} outside [0,1)")
    return IncidenceTable(columns)


def load_counts(path, value_column: str) -> dict:
    """Read a counts CSV (age,year,sex,<value_column>) with `io.read_cells`
    into a cell dict in file order: the values must be finite and
    non-negative.  The cells become an incidence table."""
    demographics, codes, ages, years, values = read_cells(
        Path(path), value_column, IncidenceError, lambda v: np.isfinite(v) & (v >= 0), "duplicate cell {cell}",
        value_column + " {text!r} is not a finite non-negative number",
    )
    cells = zip(ages.tolist(), years.tolist(), map(demographics.__getitem__, codes.tolist()))
    return dict(zip(cells, values.tolist()))
