import numpy as np
import pytest

from netadjust.estimators import RiskSetSummary
from netadjust.incidence import IncidenceTable
from netadjust.lifetable import LifeTable
from netadjust.registry import RegistryFrame


def flat_life_table(q=0.02, ages=(0, 110), years=(1950, 2070), sexes=("0", "1")):
    """Rectangular table with a single q everywhere (diagonal-complete)."""
    cells = {}
    for sex in sexes:
        for age in range(ages[0], ages[1] + 1):
            for year in range(years[0], years[1] + 1):
                cells[(age, year, (sex,))] = q
    return LifeTable(cells, require_complete=False)


def diagonal_life_table(q_by_age, birth_year=1960, sexes=("0", "1")):
    """Table populated only on the Lexis diagonal of one birth cohort."""
    cells = {}
    for sex in sexes:
        for age, q in enumerate(q_by_age):
            cells[(age, birth_year + age, (sex,))] = float(q)
    return LifeTable(cells, require_complete=False)


def flat_incidence(ir, ages=(0, 110), years=(1950, 2070), sexes=("0", "1")):
    cells = {}
    for sex in sexes:
        for age in range(ages[0], ages[1] + 1):
            for year in range(years[0], years[1] + 1):
                cells[(age, year, (sex,))] = ir
    return IncidenceTable(cells)


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
