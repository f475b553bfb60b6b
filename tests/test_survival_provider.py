import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netadjust.diagnostics import Diagnostics
from netadjust.extrapolation import extend_survival, follow_up_cutoff
from netadjust.lifetable import LifeTable
from netadjust.registry import EventTable, StratumKey, kaplan_meier
from netadjust.survival_provider import OverallSurvivalProvider, ProviderError

from conftest import cell_table, one_stratum, toy_frame
from oracles import PerStratumSurvival, SurvivalLagTable, alias_of, lookup_keys, resolve_stratum, strata_of

COUNTERS = (
    "so_population_cap",
    "grid_extended_eval",
    "lifetable_clamp",
    "extrapolation_fallback",
    "extrapolation_slope_clipped",
)

# a life table narrower than the population grids of the lag tables read
# below, so that the grids of every stratum are clamped
LIFE_TABLE = cell_table(LifeTable, {
    (age, year, (sex,)): min(0.002 * np.exp(0.06 * (age - 40)) * (1.1 if sex == "0" else 1.0), 0.9)
    for sex in ("0", "1") for age in range(30, 101) for year in range(1980, 2041)
})

# observed times on a quarter-year grid: ties within and across strata
TIME = st.integers(1, 60).map(lambda q: q / 4.0)


@st.composite
def registries(draw):
    rows = []
    cells = draw(st.lists(
        st.tuples(st.integers(58, 64), st.integers(1995, 1999), st.sampled_from("01")),
        min_size=1, max_size=10, unique=True,
    ))
    for age, year, sex in cells:
        kind = draw(st.sampled_from(["mixed", "mixed", "no_deaths", "short", "flat_tail"]))
        n = draw(st.integers(1, 12))
        if kind == "mixed":
            obs = [(draw(TIME), draw(st.booleans())) for _ in range(n)]
        elif kind == "no_deaths":
            obs = [(draw(TIME), False) for _ in range(n)]
        elif kind == "short":
            # all follow-up within the first year: fewer than two anchors
            obs = [(draw(st.sampled_from([0.25, 0.5, 0.75])), draw(st.booleans())) for _ in range(n)]
        else:
            # deaths early, then a long flat stretch under the anchors
            obs = [(draw(st.sampled_from([0.5, 1.0, 1.5])), True) for _ in range(draw(st.integers(1, 3)))]
            obs += [(draw(st.integers(24, 60)) / 4.0, False) for _ in range(n + 4)]
        rows += [(age, year, sex, t, e) for t, e in obs]
    return toy_frame(rows)


def counters(diag):
    return {name: diag.get(name) for name in COUNTERS}


def probe_keys(provider):
    """Every registry stratum, every merged-away key, and keys outside the
    registry's ranges that clamp onto it."""
    demos = {key.demographics for key in strata_of(provider)}
    extra = [StratumKey(a, y, d) for a in (40, 61, 90) for y in (1970, 1997, 2030) for d in sorted(demos)]
    return list(strata_of(provider)) + list(alias_of(provider)) + extra


def rectangle_keys(provider):
    """Every (age, year, sex) cell of LIFE_TABLE's rectangle whose sex has
    strata, and every merged-away key."""
    demos = {key.demographics for key in strata_of(provider)}
    cells = [StratumKey(a, y, d) for d in sorted(demos) for a in range(30, 101) for y in range(1980, 2041)]
    return cells + list(alias_of(provider))


def assert_lookup_is_the_scalar_rule(provider, keys):
    rows, clamped = lookup_keys(provider, keys)
    want = [resolve_stratum(provider, key) for key in keys]
    assert rows.tolist() == [strata_of(provider)[stratum] for stratum, _ in want]
    assert clamped.tolist() == [flag for _, flag in want]


class TestClampTable:
    @given(registries(), st.sampled_from([1, 3, 6, 12]))
    @settings(max_examples=25, deadline=None)
    def test_rows_and_flags_equal_the_scalar_rule(self, frame, min_size):
        provider = OverallSurvivalProvider.from_registry(frame, min_stratum_size=min_size)
        assert_lookup_is_the_scalar_rule(provider, rectangle_keys(provider))

    def test_merged_away_keys_below_the_strata(self):
        # the age-50 cells merge into age 51, so the strata start at 51 and
        # the merged-away age-50 keys lie below them
        rows = [(50, 2000, "0", 1.0, 1), (50, 2003, "0", 2.0, 0)]
        rows += [(age, year, "0", 1.0 + i, i % 2) for age, year in ((51, 2000), (51, 2003), (54, 2001))
                 for i in range(4)]
        rows += [(52, 2002, "1", 1.0 + i, 1) for i in range(4)]
        provider = OverallSurvivalProvider.from_registry(toy_frame(rows), min_stratum_size=3)
        assert min(k.age for k in strata_of(provider)) == 51
        below = [k for k in alias_of(provider) if k.age == 50]
        assert len(below) == 2
        assert not lookup_keys(provider, below)[1].any()
        assert_lookup_is_the_scalar_rule(provider, rectangle_keys(provider))
        far = [StratumKey(a, y, (s,)) for s in "01" for a in (0, 49, 50, 150) for y in (1900, 2000, 2003, 2100)]
        assert_lookup_is_the_scalar_rule(provider, far)

    def test_keys_clipped_onto_a_merged_away_key_take_its_stratum(self):
        # (60, 2000) merges into (61, 2000), which merges into (63, 2000);
        # keys clipped onto (60, 2000) take (63, 2000), though (59, 2001)
        # is nearer
        rows = [(60, 2000, "0", 1.0, 1), (61, 2000, "0", 1.0, 1), (61, 2000, "0", 2.0, 0)]
        rows += [(age, year, "0", 1.0 + i, i % 2) for age, year in ((63, 2000), (59, 2001)) for i in range(6)]
        provider = OverallSurvivalProvider.from_registry(toy_frame(rows), min_stratum_size=5)
        assert set(strata_of(provider)) == {StratumKey(63, 2000, ("0",)), StratumKey(59, 2001, ("0",))}
        keys = [StratumKey(60, 2000, ("0",)), StratumKey(60, 1990, ("0",)), StratumKey(60, 1999, ("0",))]
        rows, clamped = lookup_keys(provider, keys)
        assert rows.tolist() == [strata_of(provider)[StratumKey(63, 2000, ("0",))]] * 3
        assert clamped.tolist() == [False, True, True]
        assert_lookup_is_the_scalar_rule(provider, rectangle_keys(provider))

    def test_clamped_keys_counted_per_lookup(self):
        diag = Diagnostics()
        frame = toy_frame([(60, 2000, "0", 1.0, 1), (62, 2001, "0", 2.0, 1)])
        provider = OverallSurvivalProvider.from_registry(frame, min_stratum_size=1, diagnostics=diag)
        keys = [StratumKey(60, 2000, ("0",)), StratumKey(61, 2000, ("0",)), StratumKey(70, 1990, ("0",))]
        assert lookup_keys(provider, keys)[1].tolist() == [False, True, True]
        assert diag.get("so_stratum_clamp") == 2

    def test_unseen_demographics_are_named(self):
        frame = toy_frame([(60, 2000, "0", 1.0, 1), (61, 2000, "1", 2.0, 1)])
        provider = OverallSurvivalProvider.from_registry(frame, min_stratum_size=1)
        keys = [StratumKey(60, 2000, ("0",)), StratumKey(60, 2000, ("x",)), StratumKey(61, 2001, ("2",))]
        with pytest.raises(ProviderError, match=re.escape("no strata with demographics ('2',), ('x',)")):
            lookup_keys(provider, keys)
        with pytest.raises(ProviderError, match=re.escape("('x',)")):
            lookup_keys(provider, keys[1:2])


class TestBatchMatchesPerStratumPath:
    @given(
        registries(),
        st.sampled_from([1, 3, 6]),
        st.integers(2, 5),
        st.integers(1, 4),
        st.sampled_from([60, 140]),
    )
    @settings(max_examples=60, deadline=None)
    def test_lag_table_and_direct_calls(self, frame, min_size, anchor_points, min_at_risk, max_lag):
        diag = Diagnostics()
        provider = OverallSurvivalProvider.from_registry(
            frame, min_stratum_size=min_size, anchor_points=anchor_points,
            tau_min_at_risk=min_at_risk, population_floor=LIFE_TABLE, diagnostics=diag,
        )
        oracle = PerStratumSurvival(provider, frame)
        table = SurvivalLagTable(provider, max_lag)
        keys = probe_keys(provider)
        rows = lookup_keys(table, keys)[0].tolist()
        for stratum in strata_of(provider):
            want = oracle.survival(stratum, table.lags)
            np.testing.assert_allclose(table.values[lookup_keys(table, [stratum])[0][0]], want, rtol=0, atol=1e-12)
        assert counters(diag) == counters(oracle.diagnostics)
        times = np.array([0.0, 0.6, 3.0, 7.25, 14.9, 30.0, 119.5, 121.0, 200.0])
        for key, row in zip(keys, rows):
            assert row == strata_of(provider)[resolve_stratum(provider, key)[0]]
            got = provider.survival([row], times)[0]
            np.testing.assert_allclose(got, oracle.survival(key, times), rtol=0, atol=1e-12)
            assert provider.survival([row], 7.25)[0][0] == oracle.survival(key, 7.25)[0] == got[3]
        assert counters(diag) == counters(oracle.diagnostics)

    @given(registries(), st.integers(2, 5), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_stacked_forms_equal_single_stratum_forms(self, frame, anchor_points, min_at_risk):
        # one stratum per registry cell, stacked, against each cell on its
        # own: a one-stratum table, read at row 0
        cells = list(zip(frame.age.tolist(), frame.year.tolist(), frame.demo_code.tolist()))
        labels = np.unique(np.array(cells), axis=0, return_inverse=True)[1].reshape(-1)
        stacked = EventTable(frame.time, frame.event, labels)
        km = kaplan_meier(stacked)
        diag = Diagnostics()
        tails = extend_survival(km, follow_up_cutoff(stacked, min_at_risk), anchor_points, diag)
        grid = np.arange(0.0, 40.0, 0.25)
        values = tails.survival_at(grid)
        single_diag = Diagnostics()
        for i in range(labels.max() + 1):
            own = one_stratum(frame.time[labels == i], frame.event[labels == i])
            own_km = kaplan_meier(own)
            own_tail = extend_survival(own_km, follow_up_cutoff(own, min_at_risk), anchor_points, single_diag)
            assert np.array_equal(km.survival_at(grid)[i], own_km.survival_at(grid)[0])
            assert (tails.tau[i], tails.g0[i], tails.g1[i]) == (own_tail.tau[0], own_tail.g0[0], own_tail.g1[0])
            assert np.array_equal(values[i], own_tail.survival_at(grid)[0])
        assert diag.as_dict() == single_diag.as_dict()


class TestTailCases:
    def test_fallback_and_flat_tail_are_exercised(self):
        frame = toy_frame(
            [(60, 2000, "0", t, True) for t in (0.25, 0.5)]                        # short: fallback
            # flat over anchors 2..5, where np.polyfit returns a slope of -2.4e-17
            + [(61, 2000, "0", 0.5, True), (61, 2000, "0", 4.5, False), (61, 2000, "0", 5.0, False)]
            + [(62, 2000, "0", float(t), t % 3 == 0) for t in range(1, 20)]
        )
        diag = Diagnostics()
        provider = OverallSurvivalProvider.from_registry(
            frame, min_stratum_size=1, anchor_points=4, tau_min_at_risk=1,
            population_floor=LIFE_TABLE, diagnostics=diag,
        )
        oracle = PerStratumSurvival(provider, frame)
        lags = SurvivalLagTable(provider, 130)
        for stratum in strata_of(provider):
            np.testing.assert_allclose(
                lags.values[lookup_keys(lags, [stratum])[0][0]], oracle.survival(stratum, lags.lags), rtol=0, atol=1e-12
            )
        assert diag.get("extrapolation_fallback") == 1
        curve = provider._curve
        flat = strata_of(provider)[StratumKey(61, 2000, ("0",))]
        assert curve.g1[flat] == 0.0 and curve.g0[flat] == np.mean(np.full(4, -np.log(1.0 - 1.0 / 3.0)))
        assert diag.get("extrapolation_slope_clipped") == 0   # noise is clipped, not counted
        assert counters(diag) == counters(oracle.diagnostics)
        # each evaluation's population grid reaches past its lags
        assert diag.get("grid_extended_eval") == 0 and diag.get("lifetable_clamp") > 0
