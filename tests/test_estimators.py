import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from netadjust import estimators
from netadjust.adjustment import AdjustmentEngine
from netadjust.diagnostics import Diagnostics
from netadjust.estimators import (
    EstimatorError,
    RiskSetSummary,
    crude_probability,
    ederer1,
    evaluate_at_years,
    pohar_perme,
)
from netadjust.lifetable import LifeTable
from netadjust.registry import (
    RegistryFrame, StratumKey, build_strata, kaplan_meier, stratum_keys,
)
from netadjust.simulation import ScenarioConfig, run_replicate

from conftest import LifeTableSP, at, cell_table, fit, flat_life_table, one_stratum, toy_frame
from oracles import (
    DenseRiskSet,
    cell_keys,
    dense_crude_probability,
    dense_pohar_perme,
    dense_pohar_perme_sums,
    exact_population_hazard,
    nelson_aalen,
    population_cumulative_hazard,
)


def unit_provider(horizon=20):
    """S_P identically 1 (a zero-mortality life table)."""
    return LifeTableSP(flat_life_table(0.0), horizon)


@functools.cache
def varying_life_table(seed=99) -> LifeTable:
    """A life table with random q in every cell, built once per seed."""
    cells = {}
    gen = np.random.default_rng(seed)
    for sex in ("0", "1"):
        for age in range(55, 90):
            for year in range(1985, 2020):
                cells[(age, year, (sex,))] = float(gen.uniform(0.005, 0.2))
    return cell_table(LifeTable, cells, require_complete=False)


def varying_provider(seed=99, horizon=15):
    """S_P from `varying_life_table`, so weights differ by stratum; a fresh
    provider, with its own diagnostics, on each call."""
    return LifeTableSP(varying_life_table(seed), horizon)


def mixed_frame(rng, n=40, n_strata=3, censor=8.0):
    ages = rng.integers(60, 60 + n_strata, n)
    times = rng.exponential(4.0, n)
    cens = rng.uniform(0.5, censor, n)
    observed = np.minimum(times, cens)
    event = times <= cens
    rows = [
        (int(a), 1990 + int(a) - 60, "0" if i % 2 else "1", float(t), bool(e))
        for i, (a, t, e) in enumerate(zip(ages, observed, event))
    ]
    return toy_frame(rows)


class TestDeathsAtTimeZero:
    """One of four patients dies at time 0, with S_P = 1: every estimate at
    t = 0 holds that death, as its curve's first row and the estimate just
    after 0 do."""

    @pytest.fixture
    def estimates(self):
        frame = toy_frame([(60, 1990, "0", t, e) for t, e in ((0.0, 1), (1.0, 1), (2.0, 0), (3.0, 1))])
        rs, sp = RiskSetSummary(frame), unit_provider()
        return fit(pohar_perme, rs, sp), fit(ederer1, rs, sp), fit(crude_probability, rs, sp)

    def test_value_at_zero(self, estimates):
        pp, e1, cpd = estimates
        assert [pp.value_at(0.0), e1.value_at(0.0), cpd.value_at(0.0)] == pytest.approx(
            [math.exp(-0.25), math.exp(-0.25), 0.25], rel=0, abs=1e-15)
        assert pp.value_at(0.0) == math.exp(-pp.cum_hazard[0]) and cpd.value_at(0.0) == cpd.cancer[0]
        for est in estimates:
            assert est.value_at(0.0) == pytest.approx(est.value_at(1e-9), rel=0, abs=1e-12)

    def test_no_death_at_zero_reads_the_start(self, rng):
        rs = RiskSetSummary(mixed_frame(rng))
        assert [fit(f, rs, unit_provider()).value_at(0.0) for f in (pohar_perme, ederer1, crude_probability)] \
            == [1.0, 1.0, 0.0]


class TestPoharPerme:
    def test_reduces_to_nelson_aalen_when_sp_is_one(self, rng):
        frame = mixed_frame(rng)
        est = fit(pohar_perme, RiskSetSummary(frame), unit_provider())
        na = nelson_aalen(one_stratum(frame.time, frame.event))
        for t in np.unique(frame.time):
            assert est.cumulative_hazard_at(t) == pytest.approx(na.hazard_at(t), abs=1e-12)

    def test_survival_at_zero(self, rng):
        est = fit(pohar_perme, RiskSetSummary(mixed_frame(rng)), unit_provider())
        assert est.value_at(0.0) == 1.0

    def test_constant_beyond_support(self, rng):
        frame = mixed_frame(rng)
        est = fit(pohar_perme, RiskSetSummary(frame), unit_provider())
        last = float(frame.time.max())
        assert est.value_at(last + 5.0) == est.value_at(last)

    def test_expected_term_matches_riemann(self, rng):
        # all-censored registry isolates the population-hazard integral
        rows = [
            (60, 1990, "0", 2.7, 0),
            (60, 1990, "0", 4.1, 0),
            (61, 1991, "1", 3.3, 0),
            (62, 1992, "0", 5.9, 0),
        ]
        frame = toy_frame(rows)
        provider = varying_provider()
        est = fit(pohar_perme, RiskSetSummary(frame), provider)
        keys = [StratumKey(60, 1990, ("0",)), StratumKey(61, 1991, ("1",)),
                StratumKey(62, 1992, ("0",))]
        subjects = [(keys[0], 2.7), (keys[0], 4.1), (keys[1], 3.3), (keys[2], 5.9)]
        for t_eval in (1.7, 3.0, 5.0):
            h = 1e-3
            u = np.arange(h / 2, t_eval, h)
            num = np.zeros_like(u)
            den = np.zeros_like(u)
            for key, t_i in subjects:
                at_risk = (u <= t_i).astype(float)
                s = provider.survival_matrix([key], u)[0]
                lam = (
                    population_cumulative_hazard(provider, [key], u + h / 2)[0]
                    - population_cumulative_hazard(provider, [key], np.maximum(u - h / 2, 0.0))[0]
                ) / h
                num += at_risk * lam / s
                den += at_risk / s
            riemann = float(np.sum(np.where(den > 0, num / den, 0.0)) * h)
            assert est.cumulative_hazard_at(t_eval) == pytest.approx(-riemann, abs=2e-6)

    def test_tied_deaths_match_per_patient_sum(self, rng):
        # times on a half-year grid: deaths tie within and across strata
        rows = [
            (60 + k, 1990 + k, "0" if k % 2 else "1", float(rng.integers(1, 13)) / 2, bool(rng.random() < 0.7))
            for k in rng.integers(0, 4, 60)
        ]
        deaths_at = {}
        for a, _, _, t, e in rows:
            if e:
                deaths_at.setdefault(t, []).append(a)
        assert any(len(ages) > len(set(ages)) for ages in deaths_at.values())
        assert any(len(set(ages)) > 1 for ages in deaths_at.values())
        provider = varying_provider()
        est = fit(pohar_perme, RiskSetSummary(toy_frame(rows)), provider)

        def weight(row, u):
            return 1.0 / float(provider.survival_matrix([StratumKey(row[0], row[1], (row[2],))], [u])[0, 0])

        times = sorted({r[3] for r in rows})
        np.testing.assert_array_equal(est.times, times)
        cum = 0.0
        for m, u in enumerate(times):
            lo = times[m - 1] if m else 0.0
            at_risk = [r for r in rows if r[3] >= u]
            den = sum(weight(r, u) for r in at_risk)
            den_prev = sum(weight(r, lo) for r in at_risk)
            dead = sum(weight(r, u) for r in at_risk if r[3] == u and r[4])
            cum += dead / den - (math.log(den) - math.log(den_prev))
            assert est.cum_hazard[m] == pytest.approx(cum, abs=1e-12)

    def test_weight_floor_counted(self):
        frame = toy_frame([(60, 1990, "0", 14.0, 1), (60, 1990, "0", 14.5, 0)])
        diag = Diagnostics()
        provider = LifeTableSP(flat_life_table(0.8), 15, diag)
        est = fit(pohar_perme, RiskSetSummary(frame), provider)
        assert np.isfinite(est.cumulative_hazard_at(14.0))
        assert diag.get("weight_floor") > 0

    def test_empty_registry(self):
        empty = RegistryFrame([], [], [], [], [], [])
        with pytest.raises(EstimatorError):
            fit(pohar_perme, RiskSetSummary(empty), unit_provider())


class TestEderer1:
    def test_reduces_to_nelson_aalen_when_hazard_zero(self, rng):
        frame = mixed_frame(rng)
        est = fit(ederer1, RiskSetSummary(frame), unit_provider())
        na = nelson_aalen(one_stratum(frame.time, frame.event))
        for t in np.unique(frame.time):
            assert est.cumulative_hazard_at(t) == pytest.approx(na.hazard_at(t), abs=1e-12)

    def test_one_subject_closed_form(self):
        # death at t0 under a constant population hazard: the observed jump
        # minus the full-cohort expected term lambda * t
        q = 0.1
        lam = -math.log(1.0 - q)
        t0 = 3.5
        frame = toy_frame([(60, 1990, "0", t0, 1)])
        provider = LifeTableSP(flat_life_table(q), 15)
        est = fit(ederer1, RiskSetSummary(frame), provider)
        for t in (0.5, 2.0, 3.4999, 3.5):
            expected = (1.0 if t >= t0 else 0.0) - lam * t
            assert est.cumulative_hazard_at(t) == pytest.approx(expected, abs=1e-12)

    def test_single_stratum_matches_pohar_perme(self, rng):
        rows = [
            (60, 1990, "0", float(t), bool(e))
            for t, e in zip(rng.exponential(4.0, 30), rng.random(30) < 0.7)
        ]
        frame = toy_frame(rows)
        provider = LifeTableSP(flat_life_table(0.07), 25)
        pp = fit(pohar_perme, RiskSetSummary(frame), provider)
        e1 = fit(ederer1, RiskSetSummary(frame), provider)
        for t in np.unique(frame.time):
            assert pp.cumulative_hazard_at(t) == pytest.approx(
                e1.cumulative_hazard_at(t), abs=1e-12
            )

    def test_population_term_matches_riemann(self):
        frame = toy_frame([(60, 1990, "0", 4.0, 1), (64, 1994, "1", 6.0, 0)])
        provider = LifeTableSP(flat_life_table(0.05), 15)
        est = fit(ederer1, RiskSetSummary(frame), provider)
        keys = [StratumKey(60, 1990, ("0",)), StratumKey(64, 1994, ("1",))]
        t_eval = 3.3
        h = 1e-3
        u = np.arange(h / 2, t_eval, h)
        num = np.zeros_like(u)
        den = np.zeros_like(u)
        for key in keys:
            s = provider.survival_matrix([key], u)[0]
            lam = (
                population_cumulative_hazard(provider, [key], u + h / 2)[0]
                - population_cumulative_hazard(provider, [key], np.maximum(u - h / 2, 0.0))[0]
            ) / h
            num += s * lam
            den += s
        riemann = float(np.sum(num / den) * h)
        assert est.cumulative_hazard_at(t_eval) == pytest.approx(-riemann, abs=2e-6)


class TestCrudeProbability:
    def test_equals_one_minus_km_when_population_hazard_zero(self, rng):
        times = rng.exponential(3.0, 25)
        frame = toy_frame([(60, 1990, "0", float(t), True) for t in times])
        est = fit(crude_probability, RiskSetSummary(frame), unit_provider())
        km = kaplan_meier(one_stratum(frame.time, frame.event))
        for t in np.unique(frame.time):
            assert est.value_at(t) == pytest.approx(1.0 - at(km, t), abs=1e-12)

    def test_no_deaths_gives_negative_diagnostic(self):
        frame = toy_frame([(60, 1990, "0", 5.0, 0), (60, 1990, "0", 7.0, 0)])
        provider = LifeTableSP(flat_life_table(0.1), 15)
        est = fit(crude_probability, RiskSetSummary(frame), provider)
        assert est.value_at(7.0) < 0.0
        assert est.value_at(7.0, "other") > 0.0

    def test_decomposition_bounded_by_all_cause(self, rng):
        frame = mixed_frame(rng)
        provider = LifeTableSP(flat_life_table(0.04), 15)
        est = fit(crude_probability, RiskSetSummary(frame), provider)
        km = kaplan_meier(one_stratum(frame.time, frame.event))
        for t in np.unique(frame.time):
            total = est.value_at(t) + est.value_at(t, "other")
            assert total <= 1.0 - at(km, t) + 1e-9
            assert total == pytest.approx(1.0 - at(km, t), abs=1e-9)

    def test_isotonic_copy_monotone(self, rng):
        frame = mixed_frame(rng)
        provider = LifeTableSP(flat_life_table(0.04), 15)
        est = fit(crude_probability, RiskSetSummary(frame), provider)
        iso = [est.value_at(t, "cancer_isotonic") for t in np.unique(frame.time)]
        assert np.all(np.diff(iso) >= -1e-15)


def capping_provider(diag, horizon=15):
    """S_P from a life table whose death probability is constant along each
    birth cohort: 0.5, 0.6, 0.7 and 0.8 for the cohorts born 1930 back to
    1927, 0.05 for the others."""
    cohort_q = {1930: 0.5, 1929: 0.6, 1928: 0.7, 1927: 0.8}
    cells = {
        (age, year, ("0",)): cohort_q.get(year - age, 0.05)
        for age in range(55, 95) for year in range(1985, 2015)
    }
    return LifeTableSP(cell_table(LifeTable, cells, require_complete=False), horizon, diag)


class TestCrudeProbabilityCap:
    def test_capped_strata_match_dense_and_stop_adding(self):
        # Lambda_P reaches -log(WEIGHT_FLOOR) past the grid in the 0.5 and
        # 0.6 cohorts (at ~19.9 and ~15.1 years); the 0.7 and 0.8 cohorts'
        # grids are floored from year 12 and 9 on, so their last rate is 0
        gen = np.random.default_rng(11)
        rows = [
            (60 + k, 1990, "0", float(gen.uniform(0.2, 12.0 if k == 4 else 30.0)), bool(gen.random() < 0.3))
            for k in gen.integers(0, 5, 160)
        ]
        frame = toy_frame(rows)
        diag = Diagnostics()
        provider = capping_provider(diag)
        rs = RiskSetSummary(frame)
        est = fit(crude_probability, rs, provider)
        assert diag.get("weight_floor") > 0
        _, crossing = estimators._hazard_rates(provider.stack(rs.keys))
        binds = crossing < rs.times[-1]
        assert binds.sum() == 2 and (crossing[binds] > provider.horizon).all()

        curves, at = dense_crude_probability(DenseRiskSet(frame), capping_provider(Diagnostics()))
        for which, values in curves.items():
            np.testing.assert_allclose(getattr(est, which), values, rtol=0, atol=1e-12, err_msg=which)
        u = rs.times
        points = [*u, *((u[1:] + u[:-1]) / 2), *crossing[binds], u[-1] + 1.0]
        for t in points:
            for which in curves:
                assert est.value_at(t, which) == pytest.approx(at(t, which), rel=0, abs=1e-12)
        # once every stratum still at risk is capped, the population term
        # adds exactly nothing
        capped = u[:-1] >= crossing[binds].max()
        assert capped.sum() > 10
        assert np.array_equal(est.other[1:][capped], est.other[:-1][capped])
        assert est.value_at((u[-3] + u[-2]) / 2, "other") == est.other[-3]


# tracemalloc peak of building a summary and running `crude_probability`,
# in float vectors of patients + strata x grid columns: 5.9 measured (the
# summary's and the curves' per-patient and per-time vectors, a few
# per-patient vectors of one grid year, the strata's yearly rates)
PEAK_VECTORS = 8.0


class TestCrudeProbabilityMemory:
    def test_population_term_matches_padded_difference(self, rng):
        frame = mixed_frame(rng, n=80, n_strata=5)
        provider = varying_provider()
        rs = RiskSetSummary(frame)
        est = fit(crude_probability, rs, provider)
        # the pre-allocation form: np.diff with a prepended zero column
        lp = population_cumulative_hazard(provider, rs.keys, rs.times)
        at_risk = DenseRiskSet(frame).at_risk
        avg_pop = (at_risk * np.diff(lp, axis=1, prepend=0.0)).sum(axis=0) / rs.pooled_at_risk
        np.testing.assert_allclose(est.other, np.cumsum(est.km_left * avg_pop), rtol=0, atol=1e-12)

    def test_peak_is_three_strata_by_times_matrices(self):
        gen = np.random.default_rng(5)
        n = 3000
        ages = gen.integers(50, 90, n)
        years = gen.integers(2000, 2010, n)
        rows = [(int(a), int(y), "0" if i % 2 else "1", float(t), bool(e)) for i, (a, y, t, e) in
                enumerate(zip(ages, years, gen.exponential(5.0, n), gen.random(n) < 0.6))]
        frame = toy_frame(rows)
        provider = varying_provider()
        sp = provider.stack(RiskSetSummary(frame).keys)   # stack the grids first
        tracemalloc.start()
        try:
            rs = RiskSetSummary(frame)
            crude_probability(rs, sp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 8 * len(rs.keys) * len(rs.times) > 5_000_000
        assert peak < PEAK_VECTORS * 8 * (n + len(rs.keys) * (provider.horizon + 1))


class TestRiskSetSummary:
    def test_summary_and_records_give_equal_estimates(self, rng):
        frame = mixed_frame(rng, n=60, n_strata=4)
        # the same registry rebuilt from one list per column
        columns = [column.tolist() for column in (frame.age, frame.year, frame.demo_code, frame.time, frame.event)]
        provider = varying_provider()
        rs, own_rs = RiskSetSummary(frame), RiskSetSummary(RegistryFrame(*columns, list(frame.demo_vocab)))
        last = float(frame.time.max())
        points = [0.0, 0.3, 2.5, *np.unique(frame.time)[::7], last, last + 4.0]
        for estimator in (pohar_perme, ederer1, crude_probability):
            shared, own = fit(estimator, rs, provider), fit(estimator, own_rs, provider)
            assert shared._risk is rs
            np.testing.assert_array_equal(shared.times, own.times)
            assert [shared.value_at(t) for t in points] == [own.value_at(t) for t in points]

    def test_deaths_kept_per_death(self, rng):
        frame = mixed_frame(rng, n=60, n_strata=4)
        rs = RiskSetSummary(frame)
        assert kept_matrices(rs) == []
        assert rs.death_rows.shape == rs.death_times.shape == (frame.n_events,)
        for row, m in zip(rs.death_rows, rs.death_times):
            key = rs.keys[row]
            assert ((frame.age == key.age) & (frame.year == key.year) & (frame.time == rs.times[m])
                    & frame.event).any()
        np.testing.assert_array_equal(rs.pooled_at_risk, DenseRiskSet(frame).at_risk.sum(axis=0))
        np.testing.assert_array_equal(
            rs.pooled_deaths, [np.sum(frame.time[frame.event] == u) for u in rs.times]
        )


STREAM_HORIZON = 8
UNIT_ROUNDOFF = Fraction(1, 2**53)


def at_risk_hazard_error_bound(at_risk: int, years: int) -> Fraction:
    """Relative error bound of one interval's sum from
    `estimators._at_risk_hazard`: gamma_m = m u / (1 - m u), u the unit
    roundoff, for the most roundings m that any one rate x overlap term
    meets on its way into the sum (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed. 2002, lemma 3.1 and section 4.2).  A term
    meets the overlap's subtraction and its product (2); the bincount and
    reverse cumulative sum that add it to the other rates of the interval,
    at most `at_risk` of them (at_risk - 1); and two additions into the
    interval's total per grid year (2 x years).  Every term is
    non-negative, so the bound is relative to the exact sum."""
    m = 2 + (at_risk - 1) + 2 * years
    return m * UNIT_ROUNDOFF / (1 - m * UNIT_ROUNDOFF)


# an all-censored registry whose sums lie 4.067 eps from the exact ones,
# past the 4 eps that a bound fitted to random registries once allowed
FOUR_ULP_REGISTRY = (
    [(60, 1998, "0", 0.25, False)] * 3 + [(60, 1998, "0", 1.25, False)] * 15
    + [(60, 1998, "1", 1.0, False)] * 6 + [(61, 1995, "1", 0.25, False)] * 5
)


@st.composite
def small_registries(draw):
    """Registries for the dense-oracle comparisons: times on a quarter-year grid
    (ties within and across strata, integer times), some strata censored
    early, times past the provider's grid, and optionally a death at the
    last time."""
    strata = draw(st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 4), st.sampled_from("01"), st.integers(1, 56)),
        min_size=1, max_size=24,
    ))
    patients = draw(st.lists(
        st.tuples(st.integers(0, len(strata) - 1), st.integers(1, 56), st.booleans()),
        min_size=1, max_size=80,
    ))
    rows = []
    for k, quarters, event in patients:
        age, year, sex, cap = strata[k]
        rows.append((60 + age, 1995 + year, sex, min(quarters, cap) / 4, event))
    if draw(st.booleans()):
        last = max(r[3] for r in rows)
        rows = [r[:4] + (r[4] or r[3] == last,) for r in rows]
    return rows


def past_grid_cells(dense):
    """(stratum at risk, observed time past the grid) pairs."""
    return int((dense.at_risk[:, dense.times > STREAM_HORIZON] > 0).sum())


def kept_matrices(rs):
    """The risk set's attributes held as arrays of two or more dimensions,
    the columns of its cells included (their demographics are tuples)."""
    kept = {**vars(rs), **dict(zip(("cells.codes", "cells.ages", "cells.years"), rs.cells[1:]))}
    del kept["cells"]
    return [name for name, value in kept.items() if np.ndim(value) > 1]


def check_against_dense_risk_set(rows):
    frame = toy_frame(rows)
    diag = Diagnostics()
    provider = varying_provider(horizon=STREAM_HORIZON)
    provider.diagnostics = diag
    oracle_provider = varying_provider(horizon=STREAM_HORIZON)
    dense = DenseRiskSet(frame)
    rs = RiskSetSummary(frame)
    assert rs.keys == dense.keys
    np.testing.assert_array_equal(rs.times, dense.times)
    assert kept_matrices(rs) == []
    np.testing.assert_array_equal(rs.pooled_at_risk, dense.pooled_at_risk)
    for m in range(rs.times.shape[0]):
        np.testing.assert_array_equal(rs.at_risk_column(m), dense.at_risk[:, m])

    pp = fit(pohar_perme, rs, provider)
    cp = fit(crude_probability, rs, provider)
    # one count per stratum at risk at each observed time past the grid;
    # the crude probability evaluates no cell
    assert diag.get("grid_extended_eval") == past_grid_cells(dense)
    cum, pp_at = dense_pohar_perme(dense, oracle_provider)
    curves, cp_at = dense_crude_probability(dense, oracle_provider)
    np.testing.assert_allclose(pp.cum_hazard, cum, rtol=0, atol=1e-12)
    for which, values in curves.items():
        np.testing.assert_allclose(getattr(cp, which), values, rtol=0, atol=1e-12, err_msg=which)

    u, n_times = rs.times, rs.times.shape[0]
    off_grid = [u[0] / 2, *((u[1:] + u[:-1]) / 2), u[-1] + 1.0]
    for t in [*u, *off_grid]:
        m = min(int(np.searchsorted(u, t)), n_times - 1)
        beyond = 0 if t == u[m] or t > u[-1] else int(t > STREAM_HORIZON) + int(
            (u[m - 1] if m else 0.0) > STREAM_HORIZON)
        live = int((dense.at_risk[:, m] > 0).sum())
        before = diag.get("grid_extended_eval")
        assert pp.value_at(t) == pytest.approx(pp_at(t), rel=0, abs=1e-12), t
        for which in curves:
            assert cp.value_at(t, which) == pytest.approx(cp_at(t, which), rel=0, abs=1e-12), (t, which)
        # off the grid only Pohar-Perme evaluates, and only the strata at risk
        assert diag.get("grid_extended_eval") - before == live * beyond


# each registry is also checked reshaped: its strata folded into fewer, or
# its times scaled into the first unit year, one segment of the moment sums
REGISTRY_SHAPES = {
    "one cell": lambda r: (60, 1995, "0", *r[3:]),
    "seven cells": lambda r: (60 + (r[0] - 60) % 7, 1995, "0", *r[3:]),
    "three strata": lambda r: (60 + (r[0] - 60) % 3, 1995, "0", *r[3:]),
    "one block": lambda r: (*r[:3], r[3] / 15, r[4]),
}


def check_registry_shape(rows, shape):
    check_against_dense_risk_set(rows)
    check_against_dense_risk_set([REGISTRY_SHAPES[shape](r) for r in rows])


class TestStreamedEstimators:
    @pytest.mark.parametrize("shape", list(REGISTRY_SHAPES))
    @given(rows=small_registries())
    @settings(max_examples=40, deadline=None)
    def test_equal_dense_construction_bit_for_bit(self, shape, rows):
        check_registry_shape(rows, shape)

    @pytest.mark.parametrize("shape", list(REGISTRY_SHAPES))
    @pytest.mark.parametrize("n_times", [1, 2, 3])
    def test_few_times_many_strata(self, shape, n_times):
        # with one or two times the whole-matrix sums run over one-column
        # matrices, which numpy adds pairwise, while the moments add the
        # strata by patient and by stratum: over forty strata the two orders
        # part in the last bits
        for seed in range(12):
            gen = np.random.default_rng(seed)
            times = gen.choice([2.5, 6.25, 11.0][:n_times], 40)
            rows = [
                (60 + k % 7, 1995 + k // 7, "0" if k % 2 else "1", float(t), bool(gen.random() < 0.6))
                for k, t in zip(gen.permutation(40), times)
            ]
            check_registry_shape(rows, shape)

    @given(rows=small_registries())
    @example(rows=FOUR_ULP_REGISTRY)
    @settings(max_examples=40, deadline=None)
    def test_population_term_equals_exact_sums(self, rows):
        # each interval's at-risk sum of Lambda_P increments against exact
        # rational arithmetic on the same float rates and times
        frame = toy_frame(rows)
        provider = varying_provider(horizon=STREAM_HORIZON)
        rs = RiskSetSummary(frame)
        got = estimators._at_risk_hazard(rs, provider.stack(rs.keys), np.concatenate(([0.0], rs.times)))
        rates, crossing = estimators._hazard_rates(provider.stack(rs.keys))
        assert (crossing > rs.times[-1]).all()   # the exact sums ignore the cap
        exact = exact_population_hazard(DenseRiskSet(frame), varying_provider(horizon=STREAM_HORIZON))
        for value, want, at_risk in zip(got.tolist(), exact, rs.pooled_at_risk.tolist()):
            bound = at_risk_hazard_error_bound(int(at_risk), rates.shape[1])
            assert abs(Fraction(value) - want) <= bound * want


def check_against_dense(pp, frame, oracle_provider, points):
    """cum_hazard to 1e-12; value_at to 1e-12, relative where it passes 1
    (the capped weights drive it far above 1 past the crossings)."""
    cum, pp_at = dense_pohar_perme(DenseRiskSet(frame), oracle_provider)
    np.testing.assert_allclose(pp.cum_hazard, cum, rtol=0, atol=1e-12)
    for t in points:
        assert pp.value_at(t) == pytest.approx(pp_at(t), rel=1e-12, abs=1e-12), t


def check_sums_against_dense(frame, provider, oracle_provider):
    """`_at_risk_sums` against the whole-matrix sums, to 1e-12 relative."""
    rs = RiskSetSummary(frame)
    got = estimators._at_risk_sums(rs, provider.stack(rs.keys))
    want = dense_pohar_perme_sums(DenseRiskSet(frame), oracle_provider)
    for value, expected in zip(got, want):
        np.testing.assert_allclose(value, expected, rtol=1e-12, atol=0)


class TestMomentSums:
    @given(rows=small_registries())
    @settings(max_examples=60, deadline=None)
    def test_equal_dense_sums(self, rows):
        frame = toy_frame(rows)
        check_sums_against_dense(frame, varying_provider(horizon=STREAM_HORIZON),
                                 varying_provider(horizon=STREAM_HORIZON))
        # the whole estimator, one count per stratum at risk past the grid
        diag = Diagnostics()
        provider = varying_provider(horizon=STREAM_HORIZON)
        provider.diagnostics = diag
        rs = RiskSetSummary(frame)
        pp = fit(pohar_perme, rs, provider)
        assert diag.get("grid_extended_eval") == past_grid_cells(DenseRiskSet(frame))
        u = rs.times
        check_against_dense(pp, frame, varying_provider(horizon=STREAM_HORIZON),
                            [*u, u[0] / 2, *((u[1:] + u[:-1]) / 2), u[-1] + 1.0])

    def test_large_registry_equals_dense(self):
        gen = np.random.default_rng(21)
        n = 4000
        rows = [(55 + int(a), 1985 + int(y), "0" if i % 2 else "1", float(t), bool(e)) for i, (a, y, t, e) in
                enumerate(zip(gen.integers(0, 35, n), gen.integers(0, 10, n), gen.exponential(5.0, n),
                              gen.random(n) < 0.6))]
        frame = toy_frame(rows)
        provider = varying_provider()
        rs = RiskSetSummary(frame)
        pp = fit(pohar_perme, rs, provider)
        assert len(rs.keys) > 500 and rs.times[-1] > provider.horizon
        u = rs.times
        check_against_dense(pp, frame, varying_provider(), [*u[::97], *((u[1:] + u[:-1]) / 2)[::89], 7.5])

    @pytest.mark.parametrize("times", ["chosen", "forced"])
    def test_floor_crossing_past_the_grid(self, times):
        # follow-up to 30 years on a 15-year grid: Lambda_P reaches
        # -log(WEIGHT_FLOOR) past the grid in the 0.5 and 0.6 cohorts;
        # "forced" adds a death at each crossing, a segment's first time
        gen = np.random.default_rng(17)
        rows = [(60 + int(k), 1990, "0", float(gen.uniform(0.2, 30.0)), bool(gen.random() < 0.4))
                for k in gen.integers(0, 5, 200)]
        provider = capping_provider(Diagnostics())
        if times == "forced":
            keys = RiskSetSummary(toy_frame(rows)).keys
            _, crossing = estimators._hazard_rates(provider.stack(keys))
            rows += [(key.age, key.year, "0", float(c), True) for key, c in zip(keys, crossing) if c < 30.0]
        frame = toy_frame(rows)
        rs = RiskSetSummary(frame)
        pp = fit(pohar_perme, rs, provider)
        _, crossing = estimators._hazard_rates(provider.stack(rs.keys))
        binds = crossing < rs.times[-1]
        assert binds.sum() == 2 and (crossing[binds] > provider.horizon).all()
        assert np.isin(crossing[binds], rs.times).all() == (times == "forced")
        u = rs.times
        check_against_dense(pp, frame, capping_provider(Diagnostics()),
                            [*crossing[binds], *u[np.searchsorted(u, crossing[binds]) + np.array([[-1], [0]])].ravel(),
                             *u[::7], 15.0, 22.5])

    def test_two_crossings_in_one_year_past_the_grid(self):
        # q 0.54 and 0.55 along the cohorts born 1930 and 1929: Lambda_P
        # reaches -log(WEIGHT_FLOOR) at ~17.79 and ~17.30 years, inside one
        # unit year past the 15-year grid, with deaths before, between and
        # after the two crossings
        def provider():
            cohort_q = {1930: 0.54, 1929: 0.55}
            cells = {(age, year, ("0",)): cohort_q.get(year - age, 0.05)
                     for age in range(55, 95) for year in range(1985, 2015)}
            return LifeTableSP(cell_table(LifeTable, cells, require_complete=False), 15)

        gen = np.random.default_rng(23)
        rows = [(60 + int(k), 1990, "0", float(gen.uniform(0.2, 19.0)), bool(gen.random() < 0.4))
                for k in gen.integers(0, 3, 150)]
        rows += [(60 + k, 1990, "0", t, True) for k in (0, 1) for t in (17.1, 17.5, 17.95, 18.2)]
        frame = toy_frame(rows)
        pp_provider = provider()
        rs = RiskSetSummary(frame)
        pp = fit(pohar_perme, rs, pp_provider)
        _, crossing = estimators._hazard_rates(pp_provider.stack(rs.keys))
        binds = np.sort(crossing[crossing < rs.times[-1]])
        assert binds.shape == (2,) and (np.floor(binds) == 17).all()
        u = rs.times
        assert ((u > 17) & (u < binds[0])).any() and ((u > binds[0]) & (u < binds[1])).any()
        assert ((u > binds[1]) & (u < 18)).any()
        check_sums_against_dense(frame, provider(), provider())
        check_against_dense(pp, frame, provider(),
                            [*binds, *u[(u > 16.5) & (u < 18.5)], *((u[1:] + u[:-1]) / 2)[::5], 17.0, 18.0])

    @pytest.mark.parametrize("times", ["chosen", "forced"])
    def test_year_down_to_the_floor_in_one_step(self, times):
        # the cohort born 1931 dies out at age 61: its floored grid falls
        # from 1 to WEIGHT_FLOOR in the first year of the key (61, 1992);
        # "forced" adds deaths at the whole years, the grid's end included,
        # where f = 0 and the year's coefficients start
        cells = {(age, year, ("0",)): 1.0 if (year - age, age) == (1931, 61) else 0.03
                 for age in range(55, 95) for year in range(1985, 2015)}
        def provider():
            return LifeTableSP(cell_table(LifeTable, cells, require_complete=False), 10)

        gen = np.random.default_rng(8)
        rows = [(60 + int(k), 1991 + int(k), "0", float(gen.uniform(0.05, 12.0)), bool(gen.random() < 0.5))
                for k in gen.integers(0, 3, 120)]
        if times == "forced":
            rows += [(60 + k, 1991 + k, "0", float(t), True) for k in range(3) for t in range(1, 12)]
        frame = toy_frame(rows)
        pp_provider = provider()
        rs = RiskSetSummary(frame)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            pp = fit(pohar_perme, rs, pp_provider)
        rates, _ = estimators._hazard_rates(pp_provider.stack(rs.keys))
        assert rates.max() == pytest.approx(-math.log(estimators.WEIGHT_FLOOR), rel=1e-15)
        u = rs.times
        check_against_dense(pp, frame, provider(), [*u[::5], 0.5, 1.0, 10.5])

    def test_taylor_terms_are_the_fewest(self):
        x = np.array([0.0, 1e-9, 0.004, 0.3, 1.04, 5.0, -math.log(estimators.WEIGHT_FLOOR)])
        for value, n in zip(x.tolist(), estimators._taylor_terms(x).tolist()):
            def bound(m):
                return value ** (m + 1) / math.factorial(m + 1) * math.exp(value)
            assert bound(n) <= estimators.TAYLOR_TOL and (n == 0 or bound(n - 1) > estimators.TAYLOR_TOL)


class TestProvider:
    def test_integer_consistency(self):
        provider = LifeTableSP(flat_life_table(0.03), 10)
        key = StratumKey(70, 2000, ("0",))
        rates, crossing = estimators._hazard_rates(provider.stack([key]))
        assert rates.shape == (1, 10) and crossing[0] > 10
        lam = np.concatenate(([0.0], np.cumsum(rates[0])))
        for t in range(11):
            s = float(provider.survival_matrix([key], [float(t)])[0, 0])
            assert math.exp(-lam[t]) == pytest.approx(s, abs=1e-12)
        assert provider.survival_matrix([key], [0.0])[0, 0] == 1.0

    def test_matrix_rows_equal_per_key_values(self):
        keys = [
            StratumKey(a, 1990 + a - 55 + d, (s,))
            for a in (55, 61, 70, 84) for d in (0, 3) for s in ("0", "1")
        ]
        t = np.array([0.0, 0.25, 1.0, 2.5, 7.0, 9.999, 14.0, 15.0, 15.5, 22.0])
        diag = Diagnostics()
        provider = varying_provider()
        provider.diagnostics = diag
        sp = provider.survival_matrix(keys, t)
        assert sp.shape == (len(keys), t.size) and sp.flags.c_contiguous
        # two points past the 15-year grid, per stratum
        assert diag.get("grid_extended_eval") == 2 * len(keys)
        fresh = varying_provider()
        for i, key in enumerate(keys):
            assert np.array_equal(fresh.survival_matrix([key], t)[0], sp[i])
            for j, u in enumerate(t):
                assert fresh.survival_matrix([key], [float(u)])[0, 0] == sp[i, j]
        # any subset and order of strata reads the same rows
        order = [5, 0, 9, 9, 2]
        assert np.array_equal(provider.survival_matrix([keys[i] for i in order], t), sp[order])

    def test_adjusted_provider_solves_all_strata_in_one_call(self, monkeypatch, risk_set_builds):
        # one study replicate: the adjusted S_P stack is one solve of the risk set's strata
        calls = []
        solve = AdjustmentEngine.solve
        monkeypatch.setattr(AdjustmentEngine, "solve",
                            lambda engine, cells: calls.append(cell_keys(cells)) or solve(engine, cells))
        run_replicate(ScenarioConfig(dataset=1, cohort_size=4000, reps=1), 0, ("adjusted",))
        assert len(risk_set_builds) == 1
        assert calls == [stratum_keys(build_strata(risk_set_builds[0])[0])]

    def test_stack_must_match_the_strata(self, rng):
        rs = RiskSetSummary(mixed_frame(rng, n_strata=3))
        sp = LifeTableSP(flat_life_table(0.02)).stack(rs.keys[:-1])
        for estimator in (pohar_perme, ederer1, crude_probability):
            with pytest.raises(EstimatorError, match=rf"^S_P stack has {len(rs.keys) - 1} rows for {len(rs.keys)} strata$"):
                estimator(rs, sp)


class TestEvaluateAtYears:
    def test_rows_and_conventions(self, rng):
        frame = mixed_frame(rng)
        est = fit(pohar_perme, RiskSetSummary(frame), unit_provider())
        rows = evaluate_at_years(est, [0.0, 3.0, 5.0, 7.0, 10.0])
        assert len(rows) == 5
        assert rows[0] == (0.0, 1.0)
        last = float(frame.time.max())
        beyond = evaluate_at_years(est, [last + 10.0])[0][1]
        assert beyond == est.value_at(last)
