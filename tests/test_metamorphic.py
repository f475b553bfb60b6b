"""Metamorphic relations of `netadjust estimate`, run through `cli.main`.

Each relation transforms the three input files and names what must not
move: the estimates, the Pohar-Perme curve and the manifest's counters.

* Calendar time is relative: adding 10 to every calendar year of the
  registry, the life table and the incidence file moves nothing, since
  every lookup follows a diagonal from the registry's own cells.
* Labels are names: renaming the sexes so that they sort the other way
  (`1` -> `z`, `2` -> `a`) moves nothing, since every table maps
  demographics by name.
* Zero incidence is no adjustment: `--mode adjusted` with an incidence file
  of zeros gives the `--mode naive` values and curve, bit for bit.
* Row order is not data: shuffling the registry's rows moves nothing while
  the sexes are first seen in the same order.  The first-seen order numbers
  the sexes, and so orders the strata the estimators sum over: a shuffle
  that puts a sex-2 row first moves the estimates and the Pohar-Perme curve
  by rounding only (within 1e-12), and the counters not at all.
"""
import json
import math

import numpy as np
import pytest

from netadjust.cli import main

SEXES = ("1", "2")
AGES, YEARS = range(0, 101), range(1975, 2031)   # the tables' rectangle


def registry_rows():
    """(age, year, sex, time, event): 160 patients per sex over ages 60-67
    and years 2000-2003, enough that no sex runs out of strata to merge into."""
    rng = np.random.default_rng(11)
    rows = []
    for s, sex in enumerate(SEXES):
        ages = rng.integers(60, 68, 160)
        years = rng.integers(2000, 2004, 160)
        death = rng.exponential(6.0 + 2.0 * s, 160)
        censor = rng.uniform(0.5, 14.0, 160)
        rows += [(int(a), int(y), sex, float(min(d, c)), int(d <= c))
                 for a, y, d, c in zip(ages, years, death, censor)]
    return rows


def q(age, year, s):
    """A Gompertz death probability with a period trend, higher for sex 1."""
    return min(0.0004 * math.exp(0.085 * age) * 0.99 ** (year - 1975) * (1.25 if s == 0 else 1.0), 0.9)


def ir(age, s):
    """Incidence rising with age until 85, different for each sex."""
    return 0.0 if age < 30 else min(2e-4 * math.exp(0.05 * (min(age, 85) - 30)) * (1.0 + 0.3 * s), 0.05)


def write_inputs(directory, shift=0, names=SEXES, zero_incidence=False, shuffle=None):
    """The registry, life table and incidence CSVs, their calendar years
    moved by `shift`, their sexes named `names` and, with `shuffle`, the
    registry's rows in a random order that starts and ends with a row of
    that sex (the rows of `registry_rows` end with sex 2)."""
    directory.mkdir(parents=True)
    paths = {name: directory / f"{name}.csv" for name in ("registry", "lifetable", "incidence")}
    rename = dict(zip(SEXES, names))
    rows = registry_rows()
    if shuffle is not None:
        rows = [rows[i] for i in np.random.default_rng(5).permutation(len(rows))]
        ends = [i for i, row in enumerate(rows) if row[2] == shuffle][:2]
        rows = [rows[ends[0]], *(row for i, row in enumerate(rows) if i not in ends), rows[ends[1]]]
    registry = ["age_diag,year_diag,sex,time,event"]
    registry += [f"{a},{y + shift},{rename[sex]},{t!r},{e}" for a, y, sex, t, e in rows]
    lifetable, incidence = ["age,year,sex,q"], ["age,year,sex,ir"]
    for s, name in enumerate(names):
        for a in AGES:
            for y in YEARS:
                lifetable.append(f"{a},{y + shift},{name},{q(a, y, s)!r}")
                incidence.append(f"{a},{y + shift},{name},{0.0 if zero_incidence else ir(a, s)!r}")
    for name, lines in (("registry", registry), ("lifetable", lifetable), ("incidence", incidence)):
        paths[name].write_text("\n".join(lines) + "\n", encoding="utf-8")
    return paths


def estimate(paths, out, mode="adjusted"):
    """`estimate --curves` on the inputs; returns the output directory."""
    incidence = ["--incidence", str(paths["incidence"])] if mode == "adjusted" else []
    assert main([
        "estimate", "--registry", str(paths["registry"]), "--lifetable", str(paths["lifetable"]),
        *incidence, "--mode", mode, "--horizon", "12", "--years", "1,3,5,10", "--curves", "--out", str(out),
    ]) == 0
    return out


def outputs(out) -> dict:
    """The bytes a relation keeps: both CSVs and the manifest's counters."""
    counters = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["counters"]
    return {
        "estimates.csv": (out / "estimates.csv").read_bytes(),
        "curve_pohar_perme.csv": (out / "curve_pohar_perme.csv").read_bytes(),
        "counters": json.dumps(counters, sort_keys=True),
    }


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The outputs of the untransformed inputs in both modes."""
    root = tmp_path_factory.mktemp("base")
    paths = write_inputs(root / "inputs")
    return {mode: estimate(paths, root / mode, mode) for mode in ("naive", "adjusted")}


@pytest.mark.parametrize("mode", ["naive", "adjusted"])
def test_shifting_every_calendar_year_moves_nothing(tmp_path, base, mode):
    shifted = estimate(write_inputs(tmp_path / "inputs", shift=10), tmp_path / "out", mode)
    assert outputs(shifted) == outputs(base[mode])


@pytest.mark.parametrize("mode", ["naive", "adjusted"])
def test_renaming_the_sexes_to_sort_the_other_way_moves_nothing(tmp_path, base, mode):
    renamed = estimate(write_inputs(tmp_path / "inputs", names=("z", "a")), tmp_path / "out", mode)
    assert outputs(renamed) == outputs(base[mode])


@pytest.mark.parametrize("mode", ["naive", "adjusted"])
def test_shuffling_the_registry_rows_moves_nothing(tmp_path, base, mode):
    shuffled = estimate(write_inputs(tmp_path / "inputs", shuffle=SEXES[0]), tmp_path / "out", mode)
    assert outputs(shuffled) == outputs(base[mode])


@pytest.mark.parametrize("mode", ["naive", "adjusted"])
def test_seeing_the_other_sex_first_moves_only_rounding(tmp_path, base, mode):
    shuffled = estimate(write_inputs(tmp_path / "inputs", shuffle=SEXES[1]), tmp_path / "out", mode)
    got, want = outputs(shuffled), outputs(base[mode])
    assert got["counters"] == want["counters"]
    # (estimator, provider, year) and the curve's times stay; values move by rounding
    for name, keys in (("estimates.csv", 3), ("curve_pohar_perme.csv", 1)):
        a, b = ([line.split(",") for line in (out / name).read_text(encoding="utf-8").splitlines()]
                for out in (shuffled, base[mode]))
        assert [row[:keys] for row in a] == [row[:keys] for row in b]
        assert np.abs(np.array([row[keys:] for row in a[1:]], float)
                      - np.array([row[keys:] for row in b[1:]], float)).max() <= 1e-12


def test_zero_incidence_adjusts_nothing(tmp_path, base):
    adjusted = estimate(write_inputs(tmp_path / "inputs", zero_incidence=True), tmp_path / "out")
    naive = base["naive"]

    def values(out):
        lines = (out / "estimates.csv").read_text(encoding="utf-8").splitlines()
        return [line.rsplit(",", 1)[1] for line in lines]

    assert values(adjusted) == values(naive)
    assert (adjusted / "curve_pohar_perme.csv").read_bytes() == (naive / "curve_pohar_perme.csv").read_bytes()
    # the relation is not vacuous: the registry's incidence does adjust
    assert values(base["adjusted"]) != values(naive)
