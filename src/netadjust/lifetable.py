"""Life-table ingestion and cohort survival along the Lexis diagonal.

A life table maps (age, calendar year, demographics) to q, the conditional
probability of dying within the year.  Survival for a cohort starting at a
given (age, year) cell is the product of (1 - q) along the diagonal where age
and year advance together.  Hazard within a year is constant, so the
cumulative hazard is piecewise linear with slope -log(1 - q) per year.

Lookups outside the declared age/year ranges are clamped to the nearest
in-range cell (both coordinates independently) and counted.  A table is
built from (demographics, codes, ages, years, values) columns, the one form
of cells, held in one dense (demographics, age, year) array, so a diagonal
of any length is read with a single gather, and `diagonal_survival` returns
the survival grids of many cells as one cells x (horizon + 1) array.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .diagnostics import Diagnostics, log
from .io import read_cells


class LifeTableError(ValueError):
    """Malformed life-table input."""


class CellTable:
    """Annual values keyed by (age, calendar year, demographics).

    Built from (demographics, codes, ages, years, values) columns, the one
    form of cells, into one dense (demographics its cells use, age, year)
    array, NaN where the input has no cell: diagonals of any length are read
    with a single gather from (demographics, codes, ages, years) cells,
    whose demographics map to the table's once per read.  Lookups outside
    the declared age/year ranges are clamped to the nearest in-range cell.
    Subclasses name the quantity, its valid range and their error type.
    """

    quantity, bounds, error = "value", "[0,1]", ValueError

    def __init__(self, cells):
        demographics, codes, ages, years, values = cells
        bad = np.flatnonzero(~self.valid(values))
        if bad.size:
            i = bad[0]
            raise self.error(f"{self.quantity}={float(values[i])} outside {self.bounds} at cell "
                             f"(age={int(ages[i])}, year={int(years[i])}, {demographics[codes[i]]})")
        used = np.bincount(codes, minlength=len(demographics))   # cells per demographic
        self.demographics = sorted(demo for demo, n in zip(demographics, used.tolist()) if n)
        self._demo_index = {demo: i for i, demo in enumerate(self.demographics)}
        rank = np.array([self._demo_index.get(demo, -1) for demo in demographics], np.intp)
        n = len(values)
        self.age_min, self.age_max = (int(ages.min()), int(ages.max())) if n else (0, 0)
        self.year_min, self.year_max = (int(years.min()), int(years.max())) if n else (0, 0)
        self._values = np.full(
            (len(self.demographics), self.age_max - self.age_min + 1, self.year_max - self.year_min + 1),
            np.nan,
        )
        self._values[rank[codes], ages - self.age_min, years - self.year_min] = values

    @staticmethod
    def valid(values: np.ndarray) -> np.ndarray:
        return (values >= 0.0) & (values <= 1.0)

    def _gather(self, cells, steps):
        """Values at (age+j, year+j) for j = 0..steps-1 from each cell (steps
        an int or one count per cell), each step clamped into the table's
        ranges: (values, clamped, ages, years) as cells x max(steps) arrays
        of the values, the clamped steps and the cells read.  Values are NaN
        at a missing cell and 0 past a cell's own count, not clamped."""
        demographics, codes, ages, years = cells
        n = len(codes)
        steps = np.broadcast_to(np.asarray(steps, dtype=np.intp), (n,))
        width = np.arange(int(steps.max()) if n else 0)
        used = width < steps[:, None]
        demo = np.array([self._demo_index.get(d, -1) for d in demographics], np.intp)[codes]
        ages, years = ages[:, None] + width, years[:, None] + width
        a = np.minimum(np.maximum(ages, self.age_min), self.age_max)
        y = np.minimum(np.maximum(years, self.year_min), self.year_max)
        values = self._values[demo[:, None], a - self.age_min, y - self.year_min]
        values[demo < 0] = np.nan
        values[~used] = 0.0
        return values, ((a != ages) | (y != years)) & used, a, y


class LifeTable(CellTable):
    """Annual conditional death probabilities keyed by (age, year, demographics).

    `require_complete=True` (the loader's mode) demands every cell of the
    declared age x year rectangle for each demographic group.  Tables derived
    from a single birth cohort only populate the Lexis diagonal and are built
    with `require_complete=False`; all pipeline lookups for such tables stay
    on the diagonal (shifts move age and year together, and clamping sends
    out-of-range cells to the diagonal corner cell).
    """

    quantity, bounds, error = "q", "[0,1]", LifeTableError

    def __init__(self, cells, require_complete: bool = True):
        super().__init__(cells)
        if not self._values.size:
            raise LifeTableError("life table has no cells")
        missing = np.argwhere(np.isnan(self._values)) if require_complete else ()
        if len(missing):
            d, a, y = missing[0]
            raise LifeTableError(
                f"missing cell (age={self.age_min + a}, year={self.year_min + y}, {self.demographics[d]})"
            )

    def q_diagonal(self, cells, steps, diagnostics: Diagnostics | None = None) -> np.ndarray:
        """q at (age+j, year+j) for j = 0..steps-1 from each cell, as a cells
        x steps array from one gather.  `steps` may give one count per cell;
        a cell's row is then 0 past its own count, and those entries are
        neither read nor counted.  Each step is clamped into the table's
        ranges (counted once per clamped step); a missing cell raises, after
        counting the clamped steps of the cells before it and of its own
        cell up to it."""
        q, clamped, a, y = self._gather(cells, steps)
        missing = np.isnan(q)
        if missing.any():
            i = int(missing.argmax())
            r, j = divmod(i, q.shape[1])
            if diagnostics is not None:
                diagnostics.incr("lifetable_clamp", int(clamped.ravel()[: i + 1].sum()))
            raise LifeTableError(f"no life-table cell (age={a[r, j]}, year={y[r, j]}, {cells[0][cells[1][r]]})")
        if diagnostics is not None:
            diagnostics.incr("lifetable_clamp", int(clamped.sum()))
        return q


def diagonal_survival(lt: LifeTable, cells, horizon, diagnostics: Diagnostics | None = None) -> np.ndarray:
    """S(t) = prod_{j<t} (1 - q(age+j, year+j)) for t = 0..horizon from each
    cell, as a cells x (horizon + 1) array from one gather.  `horizon` may
    give one count per cell; a cell's row then stays flat past its own.
    Each row starts at exactly 1 and does not increase within [0, 1]: every
    factor 1 - q lies in [0, 1], as the table holds q in [0, 1] only."""
    q = lt.q_diagonal(cells, horizon, diagnostics)
    return np.concatenate((np.ones((q.shape[0], 1)), np.cumprod(1.0 - q, axis=1)), axis=1)


def load_life_table(path) -> LifeTable:
    """Read a life-table CSV (age,year,sex,q) with `io.read_cells`: q must
    lie in [0,1], and the observed ages x years rectangle must be complete
    for every sex (the error names the file and the missing cell)."""
    path = Path(path)
    columns = read_cells(path, "q", LifeTableError, LifeTable.valid,
                         "duplicate cell (age={age}, year={year}, sex={sex})",
                         "q={value} outside [0,1] at (age={age}, year={year}, sex={sex})")
    try:
        table = LifeTable(columns, require_complete=True)
    except LifeTableError as exc:
        raise LifeTableError(f"{path.name}: {exc}") from None
    log.info("loaded life table %s: ages %d-%d, years %d-%d, %d groups",
             path.name, table.age_min, table.age_max, table.year_min, table.year_max,
             len(table.demographics))
    return table
