"""Seeded synthetic registry, life table and incidence table.

Nothing here imports the package under test.  The registry is built so that
net survival has a closed form:

* the life table is a complete rectangle with a Gompertz hazard and a steady
  period improvement, wide enough that every birth-cohort diagonal the
  registry touches is covered from age 0 to the last cell the solver reads;
* incidence is log-linear in age over the registry's diagnosis ages and zero
  outside them (the registry records every diagnosis of its population);
* each patient has a constant excess hazard fixed by age at diagnosis;
* other-cause deaths are drawn from the life table's own diagonal hazards
  (constant within each year of follow-up), which is exactly the population
  hazard the estimators assume;
* censoring is independent: a uniform dropout time and administrative
  closure of the study.

The number of patients per (age, year, sex) cell is a fixed function of the
size, not of the seed, so every seed gives the same strata, the same number
of distinct follow-up times (all times are continuous) and hence the same
amount of work.  The seed moves only diagnosis dates, deaths and censoring.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SEXES = ("1", "2")
HORIZON = 15
REPORT_YEARS = (3.0, 5.0, 7.0, 10.0)
DROPOUT_MAX = 20.0


@dataclass(frozen=True)
class RegistrySize:
    """Shape of one synthetic registry."""

    patients: int
    ages: tuple        # diagnosis ages, inclusive
    years: tuple       # diagnosis years, inclusive
    study_end: float   # administrative censoring date


FULL = RegistrySize(patients=20_000, ages=(50, 89), years=(2000, 2014), study_end=2016.0)
SMOKE = RegistrySize(patients=1_500, ages=(60, 74), years=(2000, 2004), study_end=2016.0)


def population_hazard(age, year, sex_index):
    """Gompertz annual hazard with 1.5 % yearly period improvement."""
    age = np.asarray(age, dtype=np.float64)
    year = np.asarray(year, dtype=np.float64)
    sex_factor = np.where(np.asarray(sex_index) == 0, 1.25, 1.0)
    return np.exp(-10.0 + 0.095 * age - 0.015 * (year - 2000.0)) * sex_factor


def incidence_rate(age, sex_index, ages):
    """Annual probability of a diagnosis: log-linear in age inside the
    registry's diagnosis ages `ages`, zero outside them."""
    age = np.asarray(age, dtype=np.float64)
    sex_factor = np.where(np.asarray(sex_index) == 0, 1.0, 0.8)
    inside = (age >= ages[0]) & (age <= ages[1])
    return np.where(inside, np.exp(-11.5 + 0.08 * age) * sex_factor, 0.0)


def excess_hazard(age):
    """Constant cancer hazard after diagnosis, by age at diagnosis."""
    return 0.06 * np.exp(0.025 * (np.asarray(age, dtype=np.float64) - 60.0))


@dataclass
class Registry:
    """Generated inputs plus what the references need to know about them."""

    size: RegistrySize
    age: np.ndarray
    year: np.ndarray
    sex: np.ndarray          # index into SEXES
    time: np.ndarray
    event: np.ndarray
    lt_ages: tuple
    lt_years: tuple
    q: np.ndarray            # q[sex, age - lt_ages[0], year - lt_years[0]]

    def net_survival(self, t: float) -> float:
        """Closed form: the patients' mean of exp(-excess hazard * t)."""
        return float(np.mean(np.exp(-excess_hazard(self.age) * t)))

    def diagonal_hazards(self, age, year, sex, steps: int) -> np.ndarray:
        """Annual hazards -log(1 - q) along each row's diagonal, `steps` years.

        Cells past the table's edge are clamped to the edge, as the program's
        life table does.
        """
        j = np.arange(steps)
        a = np.clip(np.asarray(age)[:, None] + j - self.lt_ages[0], 0, self.q.shape[1] - 1)
        y = np.clip(np.asarray(year)[:, None] + j - self.lt_years[0], 0, self.q.shape[2] - 1)
        return -np.log1p(-self.q[np.asarray(sex)[:, None], a, y])


def cell_counts(size: RegistrySize) -> list[tuple[int, int, int, int]]:
    """Patients per (age, year, sex) cell, by largest remainder.

    Weights rise with incidence but much more slowly (the population thins
    with age), so the youngest cells hold fewer than 10 patients and the
    stratum merger does about 60 merges on the full registry.
    """
    cells, weights = [], []
    for s in range(len(SEXES)):
        for age in range(size.ages[0], size.ages[1] + 1):
            w = float(incidence_rate(age, s, size.ages)) ** 0.36
            for year in range(size.years[0], size.years[1] + 1):
                cells.append((age, year, s))
                weights.append(w)
    w = np.asarray(weights) / np.sum(weights) * size.patients
    base = np.floor(w).astype(np.int64)
    order = np.argsort(-(w - base), kind="stable")
    base[order[: size.patients - int(base.sum())]] += 1
    return [(a, y, s, int(n)) for (a, y, s), n in zip(cells, base) if n > 0]


def generate(seed: int, size: RegistrySize = FULL) -> Registry:
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 4031]))
    counts = cell_counts(size)
    age = np.concatenate([np.full(n, a) for a, _, _, n in counts]).astype(np.int64)
    year = np.concatenate([np.full(n, y) for _, y, _, n in counts]).astype(np.int64)
    sex = np.concatenate([np.full(n, s) for _, _, s, n in counts]).astype(np.int64)

    # the solver reads cells up to two horizons down each diagonal
    lt_ages = (0, size.ages[1] + 2 * HORIZON + 1)
    lt_years = (size.years[0] - size.ages[1], size.years[1] + 2 * HORIZON + 1)
    a_grid = np.arange(lt_ages[0], lt_ages[1] + 1)[:, None]
    y_grid = np.arange(lt_years[0], lt_years[1] + 1)[None, :]
    q = np.stack([1.0 - np.exp(-population_hazard(a_grid, y_grid, s)) for s in range(len(SEXES))])
    q = np.minimum(q, 0.95)

    n = age.shape[0]
    reg = Registry(size, age, year, sex, np.empty(n), np.empty(n, dtype=bool),
                   lt_ages, lt_years, q)
    steps = int(math.ceil(size.study_end - size.years[0])) + 1
    hazards = reg.diagonal_hazards(age, year, sex, steps)
    cum = np.concatenate([np.zeros((n, 1)), np.cumsum(hazards, axis=1)], axis=1)
    target = rng.exponential(1.0, n)
    whole = np.minimum((cum <= target[:, None]).sum(axis=1) - 1, steps - 1)
    rows = np.arange(n)
    t_other = whole + (target - cum[rows, whole]) / hazards[rows, whole]
    t_cancer = rng.exponential(1.0, n) / excess_hazard(age)
    diag_date = year + rng.uniform(0.0, 1.0, n)
    censor = np.minimum(rng.uniform(0.0, DROPOUT_MAX, n), size.study_end - diag_date)
    death = np.minimum(t_other, t_cancer)
    reg.time = np.minimum(death, censor)
    reg.event = death <= censor
    return reg


def _write(path: Path, header, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_inputs(reg: Registry, directory: Path) -> dict[str, Path]:
    """Write registry.csv, lifetable.csv, incidence.csv and incidence_zero.csv."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {name: directory / f"{name}.csv"
             for name in ("registry", "lifetable", "incidence", "incidence_zero")}
    _write(paths["registry"], ["age_diag", "year_diag", "sex", "time", "event"],
           ((int(a), int(y), SEXES[s], repr(float(t)), int(e))
            for a, y, s, t, e in zip(reg.age, reg.year, reg.sex, reg.time, reg.event)))
    ages = range(reg.lt_ages[0], reg.lt_ages[1] + 1)
    years = range(reg.lt_years[0], reg.lt_years[1] + 1)
    _write(paths["lifetable"], ["age", "year", "sex", "q"],
           ((a, y, SEXES[s], repr(float(reg.q[s, a - ages[0], y - years[0]])))
            for s in range(len(SEXES)) for a in ages for y in years))
    ir = {s: incidence_rate(np.asarray(ages), s, reg.size.ages) for s in range(len(SEXES))}
    _write(paths["incidence"], ["age", "year", "sex", "ir"],
           ((a, y, SEXES[s], repr(float(ir[s][a - ages[0]])))
            for s in range(len(SEXES)) for a in ages for y in years))
    _write(paths["incidence_zero"], ["age", "year", "sex", "ir"],
           ((a, y, SEXES[s], "0.0") for s in range(len(SEXES)) for a in ages for y in years))
    return paths
