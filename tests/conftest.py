import os

import numpy as np
import pytest
from hypothesis import settings

from netadjust import estimators
from netadjust.diagnostics import ensure_diagnostics
from netadjust.estimators import RiskSetSummary, population_survival
from netadjust.incidence import IncidenceTable
from netadjust.io import MAX_AGE, REGISTRY_HEADER, write_rows_csv
from netadjust.lifetable import LifeTable, diagonal_survival
from netadjust.registry import EventTable, RegistryFrame, StratumKey

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a property
# test cannot pass on one run and fail on the next
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def stratum_cells(keys) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
    """The cells of a sequence of keys as (demographics, codes, ages, years)
    columns: `codes` index the `demographics` list, which holds the keys'
    demographics in first-seen order."""
    index: dict[tuple, int] = {}
    codes = np.fromiter((index.setdefault(k.demographics, len(index)) for k in keys), np.intp, len(keys))
    ages = np.fromiter((k.age for k in keys), np.int64, len(keys))
    return list(index), codes, ages, np.fromiter((k.year for k in keys), np.int64, len(keys))


def cell_columns(cells: dict):
    """{(age, year, demographics): value} as the (demographics, codes, ages,
    years, values) columns the loaders return, in the dict's order, the
    demographics first seen first."""
    keys = [StratumKey(int(a), int(y), demo) for a, y, demo in cells]
    return (*stratum_cells(keys), np.fromiter((float(v) for v in cells.values()), np.float64, len(cells)))


def cell_table(cls, cells: dict, **kwargs):
    """A `CellTable` of class `cls` (`LifeTable`, `IncidenceTable`) from a
    {(age, year, demographics): value} dict: the one helper tests build
    their tables with."""
    return cls(cell_columns(cells), **kwargs)


def table_cells(table) -> dict:
    """Every cell a `CellTable` holds, as {(age, year, demographics): value}."""
    d, a, y = np.nonzero(~np.isnan(table._values))
    return {
        (table.age_min + i, table.year_min + j, table.demographics[k]): table._values.item(k, i, j)
        for k, i, j in zip(d.tolist(), a.tolist(), y.tolist())
    }


def flat_life_table(q=0.02, ages=(0, 110), years=(1950, 2070), sexes=("0", "1")):
    """Rectangular table with a single q everywhere (diagonal-complete)."""
    cells = {}
    for sex in sexes:
        for age in range(ages[0], ages[1] + 1):
            for year in range(years[0], years[1] + 1):
                cells[(age, year, (sex,))] = q
    return cell_table(LifeTable, cells, require_complete=False)


def diagonal_life_table(q_by_age, birth_year=1960, sexes=("0", "1")):
    """Table populated only on the Lexis diagonal of one birth cohort."""
    cells = {}
    for sex in sexes:
        for age, q in enumerate(q_by_age):
            cells[(age, birth_year + age, (sex,))] = float(q)
    return cell_table(LifeTable, cells, require_complete=False)


def flat_incidence(ir, ages=(0, 110), years=(1950, 2070), sexes=("0", "1")):
    cells = {}
    for sex in sexes:
        for age in range(ages[0], ages[1] + 1):
            for year in range(years[0], years[1] + 1):
                cells[(age, year, (sex,))] = ir
    return cell_table(IncidenceTable, cells)


class LifeTableSP:
    """Naive-mode S_P from a life table's diagonals over `horizon` years.
    `stack(keys)` is the floored stack the estimators read, one row per key
    in order; `survival_matrix(keys, t)` evaluates it at the times `t` as
    the estimators do; `grid(keys)` gives the unfloored annual grids."""

    def __init__(self, life_table, horizon=15, diagnostics=None):
        self.life_table = life_table
        self.horizon = horizon
        self.diagnostics = ensure_diagnostics(diagnostics)

    def grid(self, keys) -> np.ndarray:
        return diagonal_survival(self.life_table, stratum_cells(list(keys)), self.horizon, self.diagnostics)

    def stack(self, keys):
        return population_survival(self.grid(keys), self.diagnostics)

    def survival_matrix(self, keys, t) -> np.ndarray:
        return estimators._survival(self.stack(keys), None, t)


def fit(estimator, rs, source):
    """`estimator` over the risk set `rs` against `source`'s S_P stack of its strata."""
    return estimator(rs, source.stack(rs.keys))


def clip_guard_counts(solution) -> list[tuple[int, int]]:
    """Each key's (clip, guard) counts over its solved horizons, from the
    flags of its `Solution`."""
    return list(zip(solution.clipped.sum(axis=1).tolist(), solution.guarded.sum(axis=1).tolist()))


class ClosedFormSurvival:
    """A closed-form overall survival `curve(key, times)` in the shape of
    `OverallSurvivalProvider`: the `cells`, `strata`, `lookup` and
    `survival` the prevalence recursion and the oracles' lag table read.
    It has one stratum per age 0..MAX_AGE and demographics, and a cell
    reads the stratum of its age (clipped into 0..MAX_AGE) and
    demographics, so `curve` may depend on a stratum key's age and
    demographics but not on its year.  No cell is clamped."""

    def __init__(self, curve, demographics=(("0",), ("1",))):
        self.curve = curve
        self.groups = {demo: i for i, demo in enumerate(demographics)}
        self.strata = {
            StratumKey(age, 0, demo): i * (MAX_AGE + 1) + age
            for demo, i in self.groups.items() for age in range(MAX_AGE + 1)
        }
        self.cells = stratum_cells(list(self.strata))

    def lookup(self, cells):
        demographics, codes, ages, years = cells
        group = np.array([self.groups[demo] for demo in demographics], dtype=np.intp)[codes]
        rows = group * (MAX_AGE + 1) + np.clip(ages, 0, MAX_AGE).astype(np.intp)
        return rows, np.zeros(rows.shape[0], dtype=bool)

    def survival(self, rows, times):
        """`curve` of each row's stratum at `times`, shared or one row per stratum."""
        keys, rows = list(self.strata), np.asarray(rows).tolist()
        t = np.atleast_1d(np.asarray(times, dtype=np.float64))
        t = np.broadcast_to(t, (len(rows), t.shape[-1]))
        values = [self.curve(keys[row], row_times) for row, row_times in zip(rows, t)]
        return np.array(values, dtype=np.float64).reshape(t.shape)


def const_survival(rate, demographics=(("0",), ("1",))):
    """S_O(t) = exp(-rate t) for every key."""
    return ClosedFormSurvival(lambda key, times: np.exp(-rate * np.asarray(times, dtype=float)),
                              demographics=demographics)


def toy_frame(rows):
    """rows: (age, year, sex, time, event)."""
    vocab: dict = {}
    codes = []
    for r in rows:
        codes.append(vocab.setdefault((r[2],), len(vocab)))
    return RegistryFrame(
        [r[0] for r in rows],
        [r[1] for r in rows],
        codes,
        [r[3] for r in rows],
        [r[4] for r in rows],
        list(vocab),
    )


def one_stratum(times, events) -> EventTable:
    """The event table of one stratum: labels of zeros."""
    return EventTable(times, events, np.zeros(len(times), np.intp))


def at(curve, t: float) -> float:
    """A one-stratum curve's value at the time t: row 0 of its evaluation."""
    return curve.survival_at(t)[0, 0]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def risk_set_builds(monkeypatch):
    """Frames passed to `RiskSetSummary`, one entry per summary built."""
    frames = []
    build = RiskSetSummary.__init__

    def counting(self, frame):
        frames.append(frame)
        build(self, frame)

    monkeypatch.setattr(RiskSetSummary, "__init__", counting)
    return frames


@pytest.fixture
def key_builds(monkeypatch):
    """The arguments of every `StratumKey` built, one entry per key."""
    built = []
    init = StratumKey.__init__
    monkeypatch.setattr(StratumKey, "__init__", lambda key, *args: built.append(args) or init(key, *args))
    return built


def summary_value(result, column: str, method: str, year: float) -> float:
    """`column` of the `ExperimentResult.summary_rows` row of `method` at `year`."""
    for row in result.summary_rows():
        if row["method"] == method and row["year"] == float(year):
            return row[column]
    raise KeyError((method, year))


def bias(result, method: str, year: float) -> float:
    return summary_value(result, "pct_bias", method, year)


def rmse(result, method: str, year: float) -> float:
    return summary_value(result, "rmse_x100", method, year)


def write_registry(path, frame: RegistryFrame) -> None:
    sexes = np.array([demo[0] for demo in frame.demo_vocab], dtype=object)
    write_rows_csv(path, REGISTRY_HEADER, [
        frame.age, frame.year, sexes[frame.demo_code], frame.time, frame.event.astype(np.int64),
    ])
