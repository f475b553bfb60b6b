import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netadjust.diagnostics import Diagnostics
from netadjust.registry import (
    Banding,
    EmptyInputError,
    EventTable,
    PatientRecord,
    StratumKey,
    build_strata,
    kaplan_meier,
    merge_small_strata,
    nelson_aalen,
)

from conftest import toy_frame
from oracles import merge_small_strata_reference


def make_table(times, events):
    return EventTable(np.asarray(times, float), np.asarray(events, bool))


class TestKaplanMeier:
    def test_no_deaths_curve_is_one(self):
        km = kaplan_meier(make_table([1.0, 2.0, 3.0], [0, 0, 0]))
        assert km.survival_at(0.0) == 1.0
        assert km.survival_at(10.0) == 1.0

    def test_hand_calculation(self):
        # n=3: death at 1, censor at 2, death at 3
        km = kaplan_meier(make_table([1.0, 2.0, 3.0], [1, 0, 1]))
        assert km.survival_at(1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert km.survival_at(3.0) == pytest.approx(0.0, abs=1e-15)
        assert km.survival_at(2.5) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_uncensored_equals_empirical_survivor(self, rng):
        times = np.sort(rng.uniform(0.1, 10.0, 25))
        km = kaplan_meier(make_table(times, np.ones(25)))
        for t in (0.5, 3.0, 7.7, 11.0):
            assert km.survival_at(t) == pytest.approx(np.mean(times > t), abs=1e-12)

    def test_constant_after_last_observed(self):
        km = kaplan_meier(make_table([1.0, 2.0], [1, 0]))
        assert km.survival_at(100.0) == km.survival_at(2.0)


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
            assert abs(km.survival_at(t) - np.exp(-na.hazard_at(t))) <= bound + 1e-12


class TestSurvivalAt:
    def test_value_at_zero(self):
        km = kaplan_meier(make_table([2.0], [1]))
        assert km.survival_at(0.0) == 1.0

    def test_right_continuity_at_jump(self):
        km = kaplan_meier(make_table([2.0, 2.0], [1, 0]))
        # jump to 0.5 exactly at t=2
        assert km.survival_at(2.0) == pytest.approx(0.5, abs=1e-15)
        assert km.survival_at(1.999999) == 1.0

    def test_beyond_last_jump(self):
        km = kaplan_meier(make_table([1.0, 2.0], [1, 1]))
        assert km.survival_at(50.0) == km.survival_at(2.0)


class TestBuildStrata:
    def test_partition_of_three_records(self):
        frame = toy_frame([
            (60, 1990, "m", 1.0, 1),
            (60, 1990, "m", 2.0, 0),
            (61, 1991, "f", 3.0, 1),
        ])
        strata = build_strata(frame)
        assert len(strata) == 2
        assert sum(t.n for t in strata.values()) == 3

    def test_banding_collapses_keys(self):
        rows = [(a, 1990, "m", 1.0, 1) for a in range(60, 65)]
        strata = build_strata(toy_frame(rows), Banding(age_width=5))
        assert set(strata) == {StratumKey(60, 1990, ("m",))}
        assert strata[StratumKey(60, 1990, ("m",))].n == 5

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            build_strata([])

    def test_accepts_patient_records(self):
        records = [PatientRecord(70, 2000, ("f",), 2.5, True)]
        strata = build_strata(records)
        assert StratumKey(70, 2000, ("f",)) in strata

    @given(
        st.lists(
            st.tuples(
                st.integers(50, 70), st.integers(1990, 2000),
                st.sampled_from(["m", "f"]), st.floats(0.0, 20.0), st.booleans(),
            ),
            min_size=1, max_size=80,
        ),
        st.integers(1, 5),
        st.integers(1, 5),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, rows, aw, yw):
        frame = toy_frame(rows)
        strata = build_strata(frame, Banding(aw, yw))
        assert sum(t.n for t in strata.values()) == len(rows)
        for key in strata:
            assert key.age % aw == 0 and key.year % yw == 0


class TestEventTable:
    def test_counts_and_risk_sets(self):
        t = make_table([1.0, 1.0, 1.0, 2.0], [1, 1, 0, 0])
        assert t.times.tolist() == [1.0, 2.0]
        assert t.deaths.tolist() == [2, 0]
        assert t.censored.tolist() == [1, 1]
        assert t.at_risk.tolist() == [4, 1]

    def test_tied_death_and_censor_share_risk_set(self):
        # both the death and the censoring at t=1 count as at risk at t=1
        t = make_table([1.0, 1.0], [1, 0])
        km = kaplan_meier(t)
        assert km.survival_at(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_merge(self):
        a = make_table([1.0], [1])
        b = make_table([2.0], [0])
        m = a.merge(b)
        assert m.n == 2 and m.times.tolist() == [1.0, 2.0]


class TestMergeSmallStrata:
    def test_small_stratum_absorbed(self):
        frame = toy_frame(
            [(60, 1990, "m", float(i + 1), 1) for i in range(12)]
            + [(61, 1990, "m", 1.0, 1)]
        )
        strata = build_strata(frame)
        merged, alias = merge_small_strata(strata, min_size=10)
        assert len(merged) == 1
        assert sum(t.n for t in merged.values()) == 13
        assert alias[StratumKey(61, 1990, ("m",))] == StratumKey(60, 1990, ("m",))

    def test_prefers_adjacent_age_same_year(self):
        rows = (
            [(60, 1990, "m", float(i + 1), 1) for i in range(20)]
            + [(61, 1990, "m", 1.0, 1)]
            + [(61, 1991, "m", float(i + 1), 1) for i in range(20)]
        )
        merged, alias = merge_small_strata(build_strata(toy_frame(rows)), min_size=5)
        assert alias[StratumKey(61, 1990, ("m",))] == StratumKey(60, 1990, ("m",))

    def test_keeps_demographics_separate(self):
        rows = [(60, 1990, "m", 1.0, 1)] + [(60, 1990, "f", float(i + 1), 1) for i in range(30)]
        merged, alias = merge_small_strata(build_strata(toy_frame(rows)), min_size=5)
        # nothing to merge the lone male stratum into
        assert StratumKey(60, 1990, ("m",)) in merged

    @given(
        st.dictionaries(
            st.tuples(st.integers(50, 58), st.integers(1990, 1996), st.sampled_from(["m", "f"])),
            st.integers(1, 14),
            min_size=1, max_size=40,
        ),
        st.integers(1, 12),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_rescanning_reference(self, sizes, min_size):
        rng = np.random.default_rng(len(sizes))
        strata = {
            StratumKey(a, y, (s,)): make_table(rng.uniform(0.1, 10.0, n), rng.random(n) < 0.5)
            for (a, y, s), n in sizes.items()
        }
        diag, ref_diag = Diagnostics(), Diagnostics()
        merged, alias = merge_small_strata(strata, min_size, diag)
        ref_merged, ref_alias = merge_small_strata_reference(strata, min_size, ref_diag)
        assert list(merged) == list(ref_merged)
        for key, table in merged.items():
            assert np.array_equal(table.raw_times, ref_merged[key].raw_times)
            assert np.array_equal(table.raw_events, ref_merged[key].raw_events)
        assert list(alias.items()) == list(ref_alias.items())
        assert diag.get("stratum_merge") == ref_diag.get("stratum_merge")


class TestNonFiniteTimes:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_patient_record_rejects(self, bad):
        with pytest.raises(ValueError, match="finite non-negative"):
            PatientRecord(60, 2000, ("m",), bad, True)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_frame_rejects(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            toy_frame([(60, 2000, "m", 1.0, 1), (61, 2001, "m", bad, 0)])
