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

Cells take one form throughout, (demographics, codes, ages, years)
columns: the tables' cells, the person-years that `compute_incidence`
joins to the registry's strata, and the cells whose strata the recursion
looks up.  Each cell depends only on strictly earlier cells of its birth-cohort
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
from .registry import diagonals


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


def compute_incidence(strata, sizes, person_years, diagnostics: Diagnostics | None = None) -> IncidenceTable:
    """IR = diagnoses / person-years per cell, clipped into [0, IR_CLIP].

    `strata` are the registry's (demographics, codes, ages, years) cells,
    `sizes` their diagnoses, and `person_years` the (demographics, codes,
    ages, years, values) columns of `load_counts`, joined to them by one
    sort.  Cells with positive person-years make the table (they define the
    population).  The first stratum with diagnoses but no person-years is a
    hard error; clipped cells are counted and logged in person-years order.
    """
    demographics, codes, ages, years, py = person_years
    index = {demo: i for i, demo in enumerate(demographics)}   # an unseen demographic matches no cell
    known = np.array([index.setdefault(demo, len(index)) for demo in strata[0]], np.intp)[strata[1]]
    # the cells of both, sorted stably: a stratum comes right after the person-years cell it matches
    cells = np.column_stack((np.stack((codes, ages, years)), np.stack((known, strata[2], strata[3]))))
    order = np.lexsort(cells)
    match = np.flatnonzero((cells[:, order[1:]] == cells[:, order[:-1]]).all(axis=0))
    row = np.full(known.size, -1, dtype=np.intp)   # each stratum's person-years row; -1 reads a spare 0
    row[order[match + 1] - py.size] = order[match]
    sizes = np.asarray(sizes, dtype=np.int64)
    bad = np.flatnonzero((np.append(py, 0.0)[row] <= 0) & (sizes > 0))
    if bad.size:
        i = bad[0]
        cell = (int(strata[2][i]), int(strata[3][i]), strata[0][strata[1][i]])
        raise IncidenceError(f"{sizes[i]} diagnoses but no person-years at cell {cell}")
    diagnoses = np.zeros(py.size + 1)
    diagnoses[row] = sizes
    keep = np.flatnonzero(py > 0)
    ir = diagnoses[keep] / py[keep]
    clipped = np.flatnonzero(ir > IR_CLIP)
    ensure_diagnostics(diagnostics).incr("incidence_clip", clipped.size)
    for i, j in zip(clipped.tolist(), keep[clipped].tolist()):
        cell = (int(ages[j]), int(years[j]), demographics[codes[j]])
        log.warning("incidence rate %.6f clipped at cell %s", ir[i], cell)
    ir[clipped] = IR_CLIP
    return IncidenceTable((demographics, codes[keep], ages[keep], years[keep], ir))


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
    evaluation point back half a year.  It and `horizon` have no default:
    `AdjustmentEngine`, the one production caller, passes the run's.
    """

    def __init__(
        self,
        incidence: IncidenceTable,
        overall_survival,
        life_table,
        *,
        lag_eval: str,
        horizon: int,
        diagnostics: Diagnostics | None = None,
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
        # and of the read cells, each distinct cell looked up once in one call
        read = (demographics, *np.empty((3, 0), np.intp)) if read is None else read
        index = {demo: i for i, demo in enumerate(demographics)}   # the read cells in the same codes
        read_codes = np.array([index.setdefault(demo, len(index)) for demo in read[0]], np.intp)[read[1]]
        diagonal, age = np.nonzero(np.arange(top) < reach[:, None])
        looked_up = np.stack((
            np.concatenate((codes[first][diagonal], read_codes)),
            np.concatenate((age, read[2])),
            np.concatenate((births[diagonal] + age, read[3])),
        ))
        # one integer per cell, so that the union is one 1-d unique
        shifted = looked_up - looked_up.min(axis=1, keepdims=True, initial=0)
        _, unique, inverse = np.unique(np.ravel_multi_index(shifted, shifted.max(axis=1, initial=0) + 1),
                                       return_index=True, return_inverse=True)
        found = self.overall_survival.lookup((list(index), *looked_up[:, unique]))[0][inverse.reshape(-1)]
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


def load_counts(path, value_column: str):
    """Read a counts CSV (age,year,sex,<value_column>) with `io.read_cells`
    into its (demographics, codes, ages, years, values) columns, in file
    order: the values must be finite and non-negative."""
    return read_cells(
        Path(path), value_column, IncidenceError, lambda v: np.isfinite(v) & (v >= 0), "duplicate cell {cell}",
        value_column + " {text!r} is not a finite non-negative number",
    )
