import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import netadjust.io
from netadjust.diagnostics import Diagnostics
from netadjust.estimators import RiskSetSummary
from netadjust.registry import (
    EmptyInputError,
    EventTable,
    MAX_AGE,
    MAX_TABLE_CELLS,
    RegistryFrame,
    StepSurvivalCurve,
    StratumKey,
    build_strata,
    cell_key,
    diagonals,
    kaplan_meier,
    merge_small_strata,
    stratum_keys,
)

from conftest import at, one_stratum, stratum_cells, toy_frame
from oracles import build_strata_reference, merge_small_strata_reference, nelson_aalen


def strata_sizes(frame):
    """`build_strata` as ({key: size} in its order, labels)."""
    strata, sizes, labels = build_strata(frame)
    return dict(zip(stratum_keys(strata), sizes.tolist())), labels


def merge(sizes, min_size, diagnostics=None):
    """`merge_small_strata` on {key: size}, as the reference's (merged
    sizes, alias) dicts: the kept keys with their totals in input order,
    and every key mapped onto its holder's."""
    keys = list(sizes)
    holder = merge_small_strata(stratum_cells(keys), list(sizes.values()), min_size, diagnostics).tolist()
    merged = {keys[h]: 0 for h in sorted(set(holder))}
    for key, h in zip(keys, holder):
        merged[keys[h]] += sizes[key]
    return merged, {key: keys[h] for key, h in zip(keys, holder)}


def make_table(times, events):
    return one_stratum(np.asarray(times, float), np.asarray(events, bool))


class TestKaplanMeier:
    def test_no_deaths_curve_is_one(self):
        km = kaplan_meier(make_table([1.0, 2.0, 3.0], [0, 0, 0]))
        assert at(km, 0.0) == 1.0
        assert at(km, 10.0) == 1.0

    def test_hand_calculation(self):
        # n=3: death at 1, censor at 2, death at 3
        km = kaplan_meier(make_table([1.0, 2.0, 3.0], [1, 0, 1]))
        assert at(km, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert at(km, 3.0) == pytest.approx(0.0, abs=1e-15)
        assert at(km, 2.5) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_uncensored_equals_empirical_survivor(self, rng):
        times = np.sort(rng.uniform(0.1, 10.0, 25))
        km = kaplan_meier(make_table(times, np.ones(25)))
        for t in (0.5, 3.0, 7.7, 11.0):
            assert at(km, t) == pytest.approx(np.mean(times > t), abs=1e-12)

    def test_constant_after_last_observed(self):
        km = kaplan_meier(make_table([1.0, 2.0], [1, 0]))
        assert at(km, 100.0) == at(km, 2.0)

    def test_death_at_time_zero(self):
        # right-continuous at 0: S(0) = 1 - d_0 / n_0, then 2 at risk at 1
        km = kaplan_meier(make_table([0.0, 0.0, 1.0, 2.0], [1, 0, 1, 0]))
        assert at(km, 0.0) == 0.75
        assert at(km, 0.5) == 0.75
        assert at(km, 1.0) == pytest.approx(0.375, abs=1e-15)
        with pytest.raises(ValueError, match="jumps must occur at non-negative times"):
            StepSurvivalCurve(np.array([-1.0]), np.array([0.5]), np.array([0, 1]))


class TestNelsonAalen:
    def test_no_deaths(self):
        na = nelson_aalen(make_table([1.0, 5.0], [0, 0]))
        assert na.hazard_at(10.0) == 0.0

    def test_single_death_increment(self):
        na = nelson_aalen(make_table([1.0, 2.0, 3.0, 4.0], [0, 1, 0, 0]))
        assert na.hazard_at(2.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert na.hazard_at(1.9) == 0.0

    @given(st.lists(st.tuples(st.floats(0.01, 20.0), st.booleans()), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_km_close_to_exp_na(self, obs):
        times = np.array([t for t, _ in obs])
        events = np.array([e for _, e in obs])
        table = make_table(times, events)
        km = kaplan_meier(table)
        na = nelson_aalen(table)
        bound = float(np.sum((table.deaths / table.at_risk) ** 2))
        for t in np.unique(times):
            assert abs(at(km, t) - np.exp(-na.hazard_at(t))) <= bound + 1e-12


class TestSurvivalAt:
    def test_value_at_zero(self):
        km = kaplan_meier(make_table([2.0], [1]))
        assert at(km, 0.0) == 1.0

    def test_right_continuity_at_jump(self):
        km = kaplan_meier(make_table([2.0, 2.0], [1, 0]))
        # jump to 0.5 exactly at t=2
        assert at(km, 2.0) == pytest.approx(0.5, abs=1e-15)
        assert at(km, 1.999999) == 1.0

    def test_beyond_last_jump(self):
        km = kaplan_meier(make_table([1.0, 2.0], [1, 1]))
        assert at(km, 50.0) == at(km, 2.0)


class TestBuildStrata:
    def test_partition_of_three_records(self):
        frame = toy_frame([
            (60, 1990, "m", 1.0, 1),
            (60, 1990, "m", 2.0, 0),
            (61, 1991, "f", 3.0, 1),
        ])
        strata, labels = strata_sizes(frame)
        assert len(strata) == 2
        assert sum(strata.values()) == 3
        assert labels.tolist() == [0, 0, 1]

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            build_strata(RegistryFrame([], [], [], [], [], []))

    def test_grid_past_the_cell_limit_rejected(self):
        # 3 sexes x 151 ages x 3e16 + 1 years: the int64 stratum code would
        # wrap, putting the patient at (150, 5, "c") in a stratum of another age
        frame = RegistryFrame([0, 150, 0, 150], [0, 3 * 10**16, 0, 5], [0, 1, 2, 2],
                              [1.0, 2.0, 3.0, 4.0], [True, False, True, False], [("a",), ("b",), ("c",)])
        match = rf"ages 0-150 and years 0-{3 * 10**16}: .* at most {MAX_TABLE_CELLS}"
        with pytest.raises(ValueError, match=match):
            build_strata(frame)
        with pytest.raises(ValueError, match=match):
            RiskSetSummary(frame)

    @given(
        st.lists(
            st.tuples(
                st.integers(50, 70), st.integers(1990, 2000),
                st.sampled_from(["m", "f"]), st.floats(0.0, 20.0), st.booleans(),
            ),
            min_size=1, max_size=80,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, rows):
        frame = toy_frame(rows)
        strata, labels = strata_sizes(frame)
        assert sum(strata.values()) == len(rows)
        # each record's label is its own (age, year) cell's stratum, in key order
        keys = list(strata)
        assert keys == sorted(keys, key=lambda k: (frame.demo_vocab.index(k.demographics), k.age, k.year))
        for i, label in enumerate(labels):
            key = keys[label]
            assert (key.age, key.year) == (frame.age[i], frame.year[i])
            assert key.demographics == frame.demo_vocab[frame.demo_code[i]]


    @given(
        st.lists(st.tuples(st.integers(0, MAX_AGE), st.integers(0, 30), st.integers(0, 3)), min_size=1, max_size=60),
        st.integers(1980, 2020),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_unique_numbering(self, rows, year0):
        # vocabulary entry 3 is never used when no row draws it
        ages, years, codes = (np.array(column) for column in zip(*rows))
        frame = RegistryFrame(ages, year0 + years, codes, np.ones(len(rows)), np.zeros(len(rows), bool),
                              [("b",), ("a",), ("c", "x"), ("d",)])
        (demographics, *columns), sizes, labels = build_strata(frame)
        (ref_demographics, *ref_columns), ref_sizes, ref_labels = build_strata_reference(frame)
        assert demographics == ref_demographics
        for got, want in zip((*columns, sizes, labels), (*ref_columns, ref_sizes, ref_labels)):
            assert np.array_equal(got, want)
        # the risk set keeps the same strata, numbered like `stratum_cells`
        risk = RiskSetSummary(frame)
        (demographics, *columns), (ref_demographics, *ref_columns) = risk.cells, stratum_cells(risk.keys)
        assert demographics == ref_demographics and risk.n_strata == len(risk.keys)
        for got, want in zip(columns, ref_columns):
            assert got.dtype == want.dtype and np.array_equal(got, want)


class TestRegistryFrame:
    @pytest.mark.parametrize("ages, bad", [([60, MAX_AGE + 1, -1], 1), ([-1, 60], 0), ([0, 60, 7 * MAX_AGE], 2)])
    def test_ages_outside_range_rejected(self, ages, bad):
        n = len(ages)
        with pytest.raises(ValueError, match=rf"^age {ages[bad]} at index {bad} outside \[0, {MAX_AGE}\]$"):
            RegistryFrame(ages, [2000] * n, [0] * n, [1.0] * n, [True] * n, [("m",)])

    def test_ages_at_the_bounds_accepted(self):
        assert RegistryFrame([0, MAX_AGE], [2000, 2000], [0, 0], [1.0, 1.0], [True, False], [("m",)]).n == 2

    def test_io_reexports_max_age(self):
        assert netadjust.io.MAX_AGE is MAX_AGE


class TestEventTable:
    def test_counts_and_risk_sets(self):
        t = make_table([1.0, 1.0, 1.0, 2.0], [1, 1, 0, 0])
        assert t.times.tolist() == [1.0, 2.0]
        assert t.deaths.tolist() == [2, 0]
        assert t.at_risk.tolist() == [4, 1]

    def test_tied_death_and_censor_share_risk_set(self):
        # both the death and the censoring at t=1 count as at risk at t=1
        t = make_table([1.0, 1.0], [1, 0])
        km = kaplan_meier(t)
        assert at(km, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_merge(self):
        # strata are merged by labelling their observations alike
        m = EventTable(np.array([2.0, 1.0]), np.array([False, True]), np.array([0, 0]))
        assert m.n == 2 and m.times.tolist() == [1.0, 2.0]
        assert m.at_risk.tolist() == [2, 1] and m.deaths.tolist() == [1, 0]

    @given(st.lists(st.tuples(st.floats(0.0, 5.0), st.booleans(), st.integers(0, 3)), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_stacked_rows_equal_own_tables(self, obs):
        times = np.round(np.array([t for t, _, _ in obs]), 1)
        events = np.array([e for _, e, _ in obs])
        labels = np.unique([g for _, _, g in obs], return_inverse=True)[1].reshape(-1)
        stacked = EventTable(times, events, labels)
        assert stacked.n == len(obs) and stacked.sizes.tolist() == np.bincount(labels).tolist()
        for i in range(labels.max() + 1):
            own = make_table(times[labels == i], events[labels == i])
            part = slice(stacked.offsets[i], stacked.offsets[i + 1])
            for name in ("times", "deaths", "at_risk"):
                assert np.array_equal(getattr(stacked, name)[part], getattr(own, name))


# one- and two-element demographics: ("m", "b") is seen first but
# sorts after ("f", "a") and ("m", "a")
DEMOGRAPHICS = [("m", "b"), ("f", "a"), ("m",), ("m", "a"), ("f",)]


@st.composite
def stratum_sizes(draw):
    """{key: size} over a lattice of ages and years `step` apart (past
    adjacency when step > 1, so the nearest stratum decides, often at
    tied distances), or along birth-cohort diagonals, where no stratum
    has an adjacent age in its own year."""
    step, diagonal = draw(st.integers(1, 3)), draw(st.booleans())
    demographics = draw(st.lists(st.sampled_from(DEMOGRAPHICS),
                                 min_size=1, max_size=3, unique=True))
    cells = draw(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 6), st.sampled_from(demographics)),
                          min_size=1, max_size=40, unique=True))
    keys = dict.fromkeys(StratumKey(50 + step * a, 1990 + step * (a + y if diagonal else y), d)
                         for a, y, d in cells)
    return {key: draw(st.integers(1, 14)) for key in keys}


# tied distances: (48, 1992) and (52, 1988) are both 2 (Chebyshev) and 4 (L1) away
TIED = {StratumKey(50, 1990, ("m",)): 1, StratumKey(52, 1988, ("m",)): 9, StratumKey(48, 1992, ("m",)): 9}
# the ("m",) pool runs out after one merge; ("f",) is never reached
RUNS_OUT = {StratumKey(52, 1992, ("m",)): 1, StratumKey(50, 1990, ("m",)): 1,
            StratumKey(50, 1990, ("f",)): 3, StratumKey(51, 1990, ("f",)): 20}
# ("f", "a") sorts first, so it merges before the lone ("m", "b") stops the merging
SORTED_FIRST = {StratumKey(50, 1990, ("m", "b")): 1, StratumKey(50, 1990, ("f", "a")): 1,
                StratumKey(60, 2000, ("f", "a")): 20}
# the adjacent age wins over (60, 1991), which is as near and younger
ADJACENT = {StratumKey(60, 1990, ("m",)): 1, StratumKey(61, 1990, ("m",)): 20, StratumKey(60, 1991, ("m",)): 20}


class TestMergeSmallStrata:
    def test_small_stratum_absorbed(self):
        frame = toy_frame(
            [(60, 1990, "m", float(i + 1), 1) for i in range(12)]
            + [(61, 1990, "m", 1.0, 1)]
        )
        strata, _ = strata_sizes(frame)
        merged, alias = merge(strata, min_size=10)
        assert len(merged) == 1
        assert sum(merged.values()) == 13
        assert alias[StratumKey(61, 1990, ("m",))] == StratumKey(60, 1990, ("m",))

    def test_prefers_adjacent_age_same_year(self):
        rows = (
            [(60, 1990, "m", float(i + 1), 1) for i in range(20)]
            + [(61, 1990, "m", 1.0, 1)]
            + [(61, 1991, "m", float(i + 1), 1) for i in range(20)]
        )
        merged, alias = merge(strata_sizes(toy_frame(rows))[0], min_size=5)
        assert alias[StratumKey(61, 1990, ("m",))] == StratumKey(60, 1990, ("m",))

    def test_keeps_demographics_separate(self):
        rows = [(60, 1990, "m", 1.0, 1)] + [(60, 1990, "f", float(i + 1), 1) for i in range(30)]
        merged, alias = merge(strata_sizes(toy_frame(rows))[0], min_size=5)
        # nothing to merge the lone male stratum into
        assert StratumKey(60, 1990, ("m",)) in merged

    @given(stratum_sizes(), st.integers(1, 12))
    @example(TIED, 5)
    @example(RUNS_OUT, 5)
    @example(SORTED_FIRST, 5)
    @example(ADJACENT, 5)
    @settings(max_examples=150, deadline=None)
    def test_matches_rescanning_reference(self, strata, min_size):
        diag, ref_diag = Diagnostics(), Diagnostics()
        merged, alias = merge(strata, min_size, diag)
        ref_merged, ref_alias = merge_small_strata_reference(strata, min_size, ref_diag)
        assert list(merged.items()) == list(ref_merged.items())
        assert list(alias.items()) == list(ref_alias.items())
        assert diag.get("stratum_merge") == ref_diag.get("stratum_merge")

    def test_examples_take_the_named_branches(self):
        assert merge(TIED, 5)[1][StratumKey(50, 1990, ("m",))] == StratumKey(48, 1992, ("m",))
        diag = Diagnostics()
        merged, _ = merge(RUNS_OUT, 5, diag)
        assert diag.get("stratum_merge") == 1 and StratumKey(50, 1990, ("f",)) in merged
        diag = Diagnostics()
        merged, _ = merge(SORTED_FIRST, 5, diag)
        assert diag.get("stratum_merge") == 1 and StratumKey(50, 1990, ("f", "a")) not in merged
        assert merge(ADJACENT, 5)[1][StratumKey(60, 1990, ("m",))] == StratumKey(61, 1990, ("m",))

    def test_thousands_of_small_strata_in_one_demographic(self):
        # 1,200 strata spread over a 100 x 100 (age, year) grid, all small:
        # the nearest stratum decides most merges, and memory stays linear
        rng = np.random.default_rng(3)
        ages, years = np.divmod(rng.choice(100 * 100, 1200, replace=False), 100)
        strata = {StratumKey(int(a), 1900 + int(y), ("m",)): int(n)
                  for a, y, n in zip(ages, years, rng.integers(1, 10, 1200))}
        diag, ref_diag = Diagnostics(), Diagnostics()
        tracemalloc.start()
        try:
            merged, alias = merge(strata, 10, diag)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ref_merged, ref_alias = merge_small_strata_reference(strata, 10, ref_diag)
        assert list(merged.items()) == list(ref_merged.items())
        assert list(alias.items()) == list(ref_alias.items())
        assert diag.get("stratum_merge") == ref_diag.get("stratum_merge") > 500
        # a strata x strata array of int64 alone would take 11.5 MB
        assert peak < 4e6

    def test_holders_are_indices_in_input_order(self):
        keys = [StratumKey(61, 1990, ("m",)), StratumKey(60, 1990, ("m",)), StratumKey(70, 1990, ("f",))]
        assert merge_small_strata(stratum_cells(keys), [3, 20, 4], 5).tolist() == [1, 1, 2]
        assert merge_small_strata(stratum_cells(keys), [30, 20, 40], 5).tolist() == [0, 1, 2]


class TestNonFiniteTimes:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_frame_rejects(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            toy_frame([(60, 2000, "m", 1.0, 1), (61, 2001, "m", bad, 0)])


class TestStratumKey:
    def test_hash_is_recomputed_after_pickling(self):
        # `str` hashes are salted per process, as in the worker processes of
        # `simulate --jobs N`: a key unpickled in another process must hash
        # like a key built there
        keys = [StratumKey(60, 2000, ("f",)), StratumKey(61, 2001, ("m",))]
        payload = pickle.dumps({key: i for i, key in enumerate(keys)})
        script = (
            "import pickle, sys\n"
            "from netadjust.registry import StratumKey\n"
            "table = pickle.loads(sys.stdin.buffer.read())\n"
            "assert table[StratumKey(60, 2000, ('f',))] == 0\n"
            "assert table[StratumKey(61, 2001, ('m',))] == 1\n"
            "assert [hash(k) for k in table] == [hash((k.age, k.year, k.demographics)) for k in table]\n"
        )
        src = str(Path(netadjust.__file__).resolve().parents[1])
        for seed in ("0", "1"):   # at least one salt differs from this process's
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
            subprocess.run([sys.executable, "-c", script], input=payload, env=env, check=True)

    def test_hash_and_equality_follow_the_fields(self):
        a, b = StratumKey(60, 2000, ("f",)), StratumKey(60, 2000, ("f",))
        assert a == b and hash(a) == hash(b) == hash((60, 2000, ("f",)))
        assert a != StratumKey(60, 2001, ("f",))
        assert {a: 1}[b] == 1
        assert repr(a) == "StratumKey(age=60, year=2000, demographics=('f',))"


class TestStratumCells:
    KEYS = [StratumKey(61, 2001, ("m",)), StratumKey(60, 2000, ("f",)), StratumKey(63, 2003, ("m",)),
            StratumKey(60, 2000, ("f",)), StratumKey(60, 2003, ("m",))]

    def test_round_trip(self):
        demographics, codes, ages, years = cells = stratum_cells(self.KEYS)
        assert demographics == [("m",), ("f",)]   # first-seen order, not sorted
        assert codes.tolist() == [0, 1, 0, 1, 0]
        assert ages.tolist() == [61, 60, 63, 60, 60] and years.tolist() == [2001, 2000, 2003, 2000, 2003]
        assert [cell_key(cells, i) for i in range(len(self.KEYS))] == self.KEYS
        assert all(type(v) is int for key in map(cell_key, [cells] * 5, range(5)) for v in (key.age, key.year))
        empty = stratum_cells([])
        assert empty[0] == [] and all(column.shape == (0,) for column in empty[1:])

    def test_diagonals_in_first_seen_order(self):
        # diagonals are numbered in the order first seen, not sorted: the
        # keys see (m, born 1940), (f, 1940), (m, 1943); reversed, (m, 1943)
        # comes first
        line, first = diagonals(stratum_cells(self.KEYS))
        assert line.tolist() == [0, 1, 0, 1, 2] and first.tolist() == [0, 1, 4]
        line, first = diagonals(stratum_cells(self.KEYS[::-1]))
        assert line.tolist() == [0, 1, 2, 1, 2] and first.tolist() == [0, 1, 2]
