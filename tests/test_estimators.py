import math

import numpy as np
import pytest

from netadjust.diagnostics import Diagnostics
from netadjust.estimators import (
    EstimatorError,
    RiskSetSummary,
    crude_probability,
    ederer1,
    evaluate_at_years,
    naive_population_provider,
    pohar_perme,
)
from netadjust.lifetable import LifeTable
from netadjust.registry import EventTable, PatientRecord, StratumKey, kaplan_meier, nelson_aalen

from conftest import flat_life_table, toy_frame


def unit_provider(horizon=20):
    """S_P identically 1 (a zero-mortality life table)."""
    return naive_population_provider(flat_life_table(0.0), horizon)


def varying_provider(seed=99, horizon=15):
    """S_P from a life table with random q in every cell, so weights differ by stratum."""
    cells = {}
    gen = np.random.default_rng(seed)
    for sex in ("0", "1"):
        for age in range(55, 90):
            for year in range(1985, 2020):
                cells[(age, year, (sex,))] = float(gen.uniform(0.005, 0.2))
    return naive_population_provider(LifeTable(cells, require_complete=False), horizon)


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


class TestPoharPerme:
    def test_reduces_to_nelson_aalen_when_sp_is_one(self, rng):
        frame = mixed_frame(rng)
        est = pohar_perme(frame, unit_provider())
        na = nelson_aalen(EventTable(frame.time, frame.event))
        for t in np.unique(frame.time):
            assert est.cumulative_hazard_at(t) == pytest.approx(na.hazard_at(t), abs=1e-12)

    def test_survival_at_zero(self, rng):
        est = pohar_perme(mixed_frame(rng), unit_provider())
        assert est.survival_at(0.0) == 1.0

    def test_constant_beyond_support(self, rng):
        frame = mixed_frame(rng)
        est = pohar_perme(frame, unit_provider())
        last = float(frame.time.max())
        assert est.survival_at(last + 5.0) == est.survival_at(last)

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
        est = pohar_perme(frame, provider)
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
                s = np.asarray(provider.survival(key, u))
                lam = (
                    np.asarray(provider.cumulative_hazard(key, u + h / 2))
                    - np.asarray(provider.cumulative_hazard(key, np.maximum(u - h / 2, 0.0)))
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
        est = pohar_perme(toy_frame(rows), provider)

        def weight(row, u):
            return 1.0 / float(provider.survival(StratumKey(row[0], row[1], (row[2],)), u))

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
        provider = naive_population_provider(flat_life_table(0.8), 15, diag)
        est = pohar_perme(frame, provider)
        assert np.isfinite(est.cumulative_hazard_at(14.0))
        assert diag.get("weight_floor") > 0

    def test_empty_registry(self):
        from netadjust.registry import RegistryFrame
        empty = RegistryFrame([], [], [], [], [], [])
        with pytest.raises(EstimatorError):
            pohar_perme(empty, unit_provider())


class TestEderer1:
    def test_reduces_to_nelson_aalen_when_hazard_zero(self, rng):
        frame = mixed_frame(rng)
        est = ederer1(frame, unit_provider())
        na = nelson_aalen(EventTable(frame.time, frame.event))
        for t in np.unique(frame.time):
            assert est.cumulative_hazard_at(t) == pytest.approx(na.hazard_at(t), abs=1e-12)

    def test_one_subject_closed_form(self):
        # death at t0 under a constant population hazard: the observed jump
        # minus the full-cohort expected term lambda * t
        q = 0.1
        lam = -math.log(1.0 - q)
        t0 = 3.5
        frame = toy_frame([(60, 1990, "0", t0, 1)])
        provider = naive_population_provider(flat_life_table(q), 15)
        est = ederer1(frame, provider)
        for t in (0.5, 2.0, 3.4999, 3.5):
            expected = (1.0 if t >= t0 else 0.0) - lam * t
            assert est.cumulative_hazard_at(t) == pytest.approx(expected, abs=1e-12)

    def test_single_stratum_matches_pohar_perme(self, rng):
        rows = [
            (60, 1990, "0", float(t), bool(e))
            for t, e in zip(rng.exponential(4.0, 30), rng.random(30) < 0.7)
        ]
        frame = toy_frame(rows)
        provider = naive_population_provider(flat_life_table(0.07), 25)
        pp = pohar_perme(frame, provider)
        e1 = ederer1(frame, provider)
        for t in np.unique(frame.time):
            assert pp.cumulative_hazard_at(t) == pytest.approx(
                e1.cumulative_hazard_at(t), abs=1e-12
            )

    def test_population_term_matches_riemann(self):
        frame = toy_frame([(60, 1990, "0", 4.0, 1), (64, 1994, "1", 6.0, 0)])
        provider = naive_population_provider(flat_life_table(0.05), 15)
        est = ederer1(frame, provider)
        keys = [StratumKey(60, 1990, ("0",)), StratumKey(64, 1994, ("1",))]
        t_eval = 3.3
        h = 1e-3
        u = np.arange(h / 2, t_eval, h)
        num = np.zeros_like(u)
        den = np.zeros_like(u)
        for key in keys:
            s = np.asarray(provider.survival(key, u))
            lam = (
                np.asarray(provider.cumulative_hazard(key, u + h / 2))
                - np.asarray(provider.cumulative_hazard(key, np.maximum(u - h / 2, 0.0)))
            ) / h
            num += s * lam
            den += s
        riemann = float(np.sum(num / den) * h)
        assert est.cumulative_hazard_at(t_eval) == pytest.approx(-riemann, abs=2e-6)


class TestCrudeProbability:
    def test_equals_one_minus_km_when_population_hazard_zero(self, rng):
        times = rng.exponential(3.0, 25)
        frame = toy_frame([(60, 1990, "0", float(t), True) for t in times])
        est = crude_probability(frame, unit_provider())
        km = kaplan_meier(EventTable(frame.time, frame.event))
        for t in np.unique(frame.time):
            assert est.value_at(t) == pytest.approx(1.0 - km.survival_at(t), abs=1e-12)

    def test_no_deaths_gives_negative_diagnostic(self):
        frame = toy_frame([(60, 1990, "0", 5.0, 0), (60, 1990, "0", 7.0, 0)])
        provider = naive_population_provider(flat_life_table(0.1), 15)
        est = crude_probability(frame, provider)
        assert est.value_at(7.0) < 0.0
        assert est.value_at(7.0, "other") > 0.0

    def test_decomposition_bounded_by_all_cause(self, rng):
        frame = mixed_frame(rng)
        provider = naive_population_provider(flat_life_table(0.04), 15)
        est = crude_probability(frame, provider)
        km = kaplan_meier(EventTable(frame.time, frame.event))
        for t in np.unique(frame.time):
            total = est.value_at(t) + est.value_at(t, "other")
            assert total <= 1.0 - km.survival_at(t) + 1e-9
            assert total == pytest.approx(1.0 - km.survival_at(t), abs=1e-9)

    def test_isotonic_copy_monotone(self, rng):
        frame = mixed_frame(rng)
        provider = naive_population_provider(flat_life_table(0.04), 15)
        est = crude_probability(frame, provider)
        iso = [est.value_at(t, "cancer_isotonic") for t in np.unique(frame.time)]
        assert np.all(np.diff(iso) >= -1e-15)


class TestRiskSetSummary:
    def test_summary_and_records_give_equal_estimates(self, rng):
        frame = mixed_frame(rng, n=60, n_strata=4)
        records = [
            PatientRecord(int(a), int(y), frame.demo_vocab[int(c)], float(t), bool(e))
            for a, y, c, t, e in zip(frame.age, frame.year, frame.demo_code, frame.time, frame.event)
        ]
        provider = varying_provider()
        rs = RiskSetSummary(frame)
        last = float(frame.time.max())
        points = [0.0, 0.3, 2.5, *np.unique(frame.time)[::7], last, last + 4.0]
        for estimator in (pohar_perme, ederer1, crude_probability):
            shared, own = estimator(rs, provider), estimator(records, provider)
            assert shared._risk is rs
            np.testing.assert_array_equal(shared.times, own.times)
            assert [shared.value_at(t) for t in points] == [own.value_at(t) for t in points]

    def test_deaths_kept_per_death(self, rng):
        frame = mixed_frame(rng, n=60, n_strata=4)
        rs = RiskSetSummary(frame)
        assert [name for name, value in vars(rs).items() if np.ndim(value) == 2] == ["at_risk"]
        assert rs.death_rows.shape == rs.death_times.shape == (frame.n_events,)
        for row, m in zip(rs.death_rows, rs.death_times):
            key = rs.keys[row]
            assert ((frame.age == key.age) & (frame.year == key.year) & (frame.time == rs.times[m])
                    & frame.event).any()
        np.testing.assert_array_equal(rs.pooled_at_risk, rs.at_risk.sum(axis=0))
        np.testing.assert_array_equal(
            rs.pooled_deaths, [np.sum(frame.time[frame.event] == u) for u in rs.times]
        )


class TestProvider:
    def test_integer_consistency(self):
        provider = naive_population_provider(flat_life_table(0.03), 10)
        key = StratumKey(70, 2000, ("0",))
        for t in range(11):
            s = float(provider.survival(key, float(t)))
            lam = float(provider.cumulative_hazard(key, float(t)))
            assert math.exp(-lam) == pytest.approx(s, abs=1e-12)
        assert float(provider.survival(key, 0.0)) == 1.0
        assert float(provider.cumulative_hazard(key, 0.0)) == 0.0

    def test_mode_labels(self):
        assert naive_population_provider(flat_life_table(0.0), 5).mode == "naive-lifetable"


class TestEvaluateAtYears:
    def test_rows_and_conventions(self, rng):
        frame = mixed_frame(rng)
        est = pohar_perme(frame, unit_provider())
        rows = evaluate_at_years(est, [0.0, 3.0, 5.0, 7.0, 10.0])
        assert len(rows) == 5
        assert rows[0] == (0.0, 1.0)
        last = float(frame.time.max())
        beyond = evaluate_at_years(est, [last + 10.0])[0][1]
        assert beyond == est.survival_at(last)
