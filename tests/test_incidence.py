import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles

from netadjust.diagnostics import Diagnostics
from netadjust.incidence import (
    IncidenceError,
    IncidenceTable,
    PrevalenceCalculator,
    PrevalenceError,
    compute_incidence,
    load_incidence_table,
    time_to_diagnosis_increments,
)
from netadjust.registry import StratumKey

from conftest import (
    cell_columns,
    cell_table,
    const_survival,
    diagonal_life_table,
    flat_incidence,
    flat_life_table,
    stratum_cells,
    table_cells,
)
from oracles import (
    ir_at,
    lag_since_diagnosis_cdf,
    lag_since_diagnosis_increments,
    time_to_diagnosis_cdf,
    time_to_diagnosis_increment,
)


KEY60 = StratumKey(60, 2010, ("0",))


def ir_reference(cells, key, steps, diagnostics):
    """The year-by-year dict lookup the gather replaces: one scalar IR per
    step, clamped into the declared ranges and 0 at a missing cell."""
    if not cells:
        return np.zeros(steps)
    ages = [k[0] for k in cells]
    years = [k[1] for k in cells]
    out = []
    for j in range(steps):
        age, year = key.age + j, key.year + j
        a = min(max(age, min(ages)), max(ages))
        y = min(max(year, min(years)), max(years))
        if (a, y) != (age, year):
            diagnostics.incr("incidence_clamp")
        value = cells.get((a, y, key.demographics))
        if value is None:
            diagnostics.incr("incidence_missing_cell")
            value = 0.0
        out.append(value)
    return np.array(out)


# ages 0..60, years 1960..2020, sex "1" only below age 30: lookups clamp on
# both coordinates, and hit missing cells and an unknown group
GAPPED_CELLS = {
    (a, y, (s,)): 0.001 + 0.0001 * a + 1e-5 * (y - 1960)
    for s in ("0", "1") for a in range(61) for y in range(1960, 2021)
    if s == "0" or a < 30
}
GAPPED = cell_table(IncidenceTable, GAPPED_CELLS)


class TestDiagonalGather:
    @given(
        st.integers(-5, 75), st.integers(1950, 2030), st.integers(0, 40), st.sampled_from(["0", "1", "x"])
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_scalar_lookups(self, age, year, steps, sex):
        key = StratumKey(age, year, (sex,))
        got_diag, want_diag = Diagnostics(), Diagnostics()
        want = ir_reference(GAPPED_CELLS, key, steps, want_diag)
        np.testing.assert_array_equal(GAPPED.ir_diagonal(stratum_cells([key]), steps, got_diag)[0], want)
        assert got_diag.as_dict() == want_diag.as_dict()
        one_diag, one_want = Diagnostics(), Diagnostics()
        assert ir_at(GAPPED, age, year, (sex,), one_diag) == ir_reference(GAPPED_CELLS, key, 1, one_want)[0]
        assert one_diag.as_dict() == one_want.as_dict()

    def test_empty_table_is_zero_and_counts_nothing(self):
        diag = Diagnostics()
        table = cell_table(IncidenceTable, {})
        np.testing.assert_array_equal(table.ir_diagonal(stratum_cells([KEY60]), 5, diag)[0], np.zeros(5))
        assert ir_at(table, 60, 2010, ("0",), diag) == 0.0
        assert diag.as_dict() == {}

    def test_cells_round_trip(self):
        assert table_cells(GAPPED) == GAPPED_CELLS

    @pytest.mark.parametrize("sex", ["0", "1", "x"])
    def test_prevalence_counts_each_step_once(self, sex):
        # the recursion reads IR(d) for d = 0..age-1 along the diagonal once,
        # through the oldest cell asked for
        calc = PrevalenceCalculator(
            GAPPED, const_survival(0.1, demographics=(("0",), ("1",), ("x",))),
            flat_life_table(0.01, years=(1900, 2070), sexes=("0", "1", "x")), lag_eval="year_start", horizon=15,
        )
        want = Diagnostics()
        calc.recursion(stratum_cells([StratumKey(age, 1950 + age, (sex,)) for age in (20, 45, 70)]))
        ir_reference(GAPPED_CELLS, StratumKey(0, 1950, (sex,)), 70, want)
        got = {k: v for k, v in calc.diagnostics.as_dict().items() if k.startswith("incidence")}
        assert got == want.as_dict()


def incidence_of(new_diagnoses: dict, person_years: dict, diagnostics=None):
    """`compute_incidence` of the strata and sizes of {cell: diagnoses} and
    of the person-years columns of {cell: person-years}, as
    `compute_incidence_reference` takes them."""
    strata = stratum_cells([StratumKey(age, year, demo) for age, year, demo in new_diagnoses])
    return compute_incidence(strata, list(new_diagnoses.values()), cell_columns(person_years), diagnostics)


# cells of a small lattice, some in a demographic the other side lacks
LATTICE = [(age, year, (sex,)) for sex in ("0", "1", "x") for age in (50, 51, 52) for year in (2000, 2001)]


class TestComputeIncidence:
    def test_no_diagnoses(self):
        py = {(a, 2000, ("0",)): 1000.0 for a in range(5)}
        table = incidence_of({}, py)
        assert all(ir_at(table, a, 2000, ("0",)) == 0.0 for a in range(5))

    def test_simple_ratio(self):
        table = incidence_of({(50, 2000, ("0",)): 15}, {(50, 2000, ("0",)): 1000.0})
        assert ir_at(table, 50, 2000, ("0",)) == pytest.approx(0.015, abs=1e-15)

    def test_zero_person_years_with_diagnoses(self):
        with pytest.raises(IncidenceError):
            incidence_of({(50, 2000, ("0",)): 3}, {(50, 2000, ("0",)): 0.0})

    def test_clip_counted(self):
        diag = Diagnostics()
        table = incidence_of({(50, 2000, ("0",)): 10}, {(50, 2000, ("0",)): 5.0}, diag)
        assert ir_at(table, 50, 2000, ("0",)) < 1.0
        assert diag.get("incidence_clip") == 1

    @given(st.data())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_equals_dict_reference(self, caplog, data):
        """The join on arrays against the dict reference: cells on either
        side only, zero person-years, rates above IR_CLIP, and both sides in
        any order.  The table, the error, `incidence_clip` and the clip
        warnings agree."""
        cells = st.lists(st.sampled_from(LATTICE), unique=True, max_size=len(LATTICE))
        new_diagnoses = {cell: data.draw(st.integers(0, 6)) for cell in data.draw(cells)}
        person_years = {cell: data.draw(st.sampled_from([0.0, 0.5, 2.0, 3.0, 1000.0])) for cell in data.draw(cells)}
        runs = []
        for run in (incidence_of, oracles.compute_incidence_reference):
            caplog.clear()
            diag = Diagnostics()
            with caplog.at_level(logging.WARNING, logger="netadjust"):
                try:
                    table, error = run(new_diagnoses, person_years, diag), None
                except IncidenceError as exc:
                    table, error = None, str(exc)
            runs.append((table, error, diag.as_dict(), [r.getMessage() for r in caplog.records]))
        (got, got_error, *got_rest), (want, want_error, *want_rest) = runs
        assert (got_error, got_rest) == (want_error, want_rest)
        if want is not None:
            assert table_cells(got) == table_cells(want) and got.demographics == want.demographics
            assert np.array_equal(got._values, want._values, equal_nan=True)
            assert (got.age_min, got.age_max, got.year_min, got.year_max) == \
                (want.age_min, want.age_max, want.year_min, want.year_max)


class TestLoader:
    def test_round_trip(self, tmp_path):
        f = tmp_path / "inc.csv"
        f.write_text("age,year,sex,ir\n50,2000,m,0.015\n", encoding="utf-8")
        table = load_incidence_table(f)
        assert ir_at(table, 50, 2000, ("m",)) == pytest.approx(0.015)

    def test_range_check(self, tmp_path):
        f = tmp_path / "inc.csv"
        f.write_text("age,year,sex,ir\n50,2000,m,1.0\n", encoding="utf-8")
        with pytest.raises(IncidenceError):
            load_incidence_table(f)

    def test_missing_cell_defaults_to_zero_with_count(self):
        from netadjust.diagnostics import Diagnostics
        diag = Diagnostics()
        table = cell_table(IncidenceTable, {(50, 2000, ("m",)): 0.01, (52, 2002, ("m",)): 0.01})
        assert ir_at(table, 51, 2001, ("m",), diag) == 0.0
        assert diag.get("incidence_missing_cell") == 1


class TestTimeToDiagnosis:
    def test_zero_rates(self):
        table = cell_table(IncidenceTable, {})
        assert time_to_diagnosis_cdf(table, KEY60, 10) == 0.0

    def test_constant_rate_closed_form(self):
        table = flat_incidence(0.015)
        value = time_to_diagnosis_cdf(table, KEY60, 2)
        assert value == pytest.approx(1.0 - 0.985 ** 2, abs=1e-12)

    def test_cdf_zero_at_origin(self):
        assert time_to_diagnosis_cdf(flat_incidence(0.4), KEY60, 0) == 0.0

    def test_first_increment_is_ir(self):
        table = flat_incidence(0.015)
        assert time_to_diagnosis_increment(table, KEY60, 1) == pytest.approx(0.015, abs=1e-15)

    def test_increments_telescope(self):
        table = flat_incidence(0.03)
        inc = time_to_diagnosis_increments(table, stratum_cells([KEY60]), 12)[0]
        for t in range(1, 13):
            assert inc[:t].sum() == pytest.approx(
                time_to_diagnosis_cdf(table, KEY60, t), abs=1e-12
            )

    def test_zero_increments_when_no_incidence(self):
        inc = time_to_diagnosis_increments(cell_table(IncidenceTable, {}), stratum_cells([KEY60]), 5)[0]
        assert np.all(inc == 0.0)

    @given(st.lists(st.floats(0.0, 0.3), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_cdf_properties(self, rates):
        cells = {(60 + i, 2010 + i, ("0",)): r for i, r in enumerate(rates)}
        table = cell_table(IncidenceTable, cells)
        values = [time_to_diagnosis_cdf(table, KEY60, t) for t in range(len(rates) + 1)]
        assert values[0] == 0.0
        assert np.all(np.diff(values) >= -1e-15)
        assert values[-1] <= 1.0


class TestPrevalence:
    def test_zero_incidence_gives_zero_alpha(self):
        calc = PrevalenceCalculator(
            cell_table(IncidenceTable, {}), const_survival(0.1), flat_life_table(0.01), lag_eval="year_start",
            horizon=15,
        )
        for age in (1, 5, 40):
            assert calc.recursion(stratum_cells([StratumKey(age, 1960 + age, ("0",))]))[0][0] == 0.0

    def test_single_term_at_age_one(self):
        # flat world with no background mortality reduces to the bare recursion
        ir = flat_incidence(0.02)
        calc = PrevalenceCalculator(
            ir, const_survival(0.1), flat_life_table(0.0), lag_eval="year_start", horizon=15
        )
        key = StratumKey(1, 1961, ("0",))
        assert calc.recursion(stratum_cells([key]))[0][0] == pytest.approx(np.exp(-0.1) * 0.02, abs=1e-14)

    def test_mid_year_single_term(self):
        ir = flat_incidence(0.02)
        calc = PrevalenceCalculator(
            ir, const_survival(0.1), flat_life_table(0.0), lag_eval="mid_year", horizon=15
        )
        key = StratumKey(1, 1961, ("0",))
        assert calc.recursion(stratum_cells([key]))[0][0] == pytest.approx(np.exp(-0.05) * 0.02, abs=1e-14)

    def test_attrition_factor_uses_life_table(self):
        # with background mortality q the lag-1 term is inflated by 1/(1-q)
        ir = flat_incidence(0.02)
        q = 0.3
        calc = PrevalenceCalculator(
            ir, const_survival(0.1), flat_life_table(q), lag_eval="year_start", horizon=15
        )
        key = StratumKey(1, 1961, ("0",))
        expected = np.exp(-0.1) * 0.02 / (1.0 - q)
        assert calc.recursion(stratum_cells([key]))[0][0] == pytest.approx(expected, abs=1e-14)

    def test_lag_cdf_closure(self):
        ir = flat_incidence(0.02)
        calc = PrevalenceCalculator(ir, const_survival(0.08), flat_life_table(0.01), lag_eval="year_start", horizon=15)
        key = StratumKey(40, 2000, ("0",))
        assert lag_since_diagnosis_cdf(calc, key, 40) == pytest.approx(1.0, abs=1e-12)
        assert lag_since_diagnosis_cdf(calc, key, 0) == 0.0

    def test_degenerate_incidence_gives_step_lag_distribution(self):
        # incidence concentrated at age 30 only (explicit zeros elsewhere,
        # since out-of-range lookups clamp to the nearest declared cell)
        cells = {(a, 1960 + a, ("0",)): (0.05 if a == 30 else 0.0) for a in range(60)}
        ir = cell_table(IncidenceTable, cells)
        calc = PrevalenceCalculator(ir, const_survival(0.1), flat_life_table(0.0), lag_eval="year_start", horizon=15)
        key = StratumKey(42, 2002, ("0",))  # lag to the spike: 12 years
        for t in range(0, 12):
            assert lag_since_diagnosis_cdf(calc, key, t) == pytest.approx(0.0, abs=1e-12)
        assert lag_since_diagnosis_cdf(calc, key, 12) == pytest.approx(1.0, abs=1e-12)

    def test_lag_distribution_undefined_without_prevalence(self):
        calc = PrevalenceCalculator(
            cell_table(IncidenceTable, {}), const_survival(0.1), flat_life_table(0.0), lag_eval="year_start",
            horizon=15,
        )
        with pytest.raises(PrevalenceError):
            lag_since_diagnosis_increments(calc, StratumKey(10, 1970, ("0",)))

    def test_impossible_inputs_raise(self):
        # immortal patients inside a dying population push alpha past 1
        ir = flat_incidence(0.5)
        calc = PrevalenceCalculator(ir, const_survival(0.0), flat_life_table(0.5), lag_eval="year_start", horizon=15)
        with pytest.raises(PrevalenceError, match=">= 1"):
            calc.recursion(stratum_cells([StratumKey(6, 1966, ("0",))]))

    @given(
        st.lists(st.floats(0.0, 0.05), min_size=3, max_size=15),
        st.floats(0.02, 0.3),
        st.lists(st.floats(0.0, 0.1), min_size=3, max_size=15),
    )
    @settings(max_examples=40, deadline=None)
    def test_closure_property(self, rates, so_rate, qs):
        n = min(len(rates), len(qs))
        cells = {(i, 1960 + i, ("0",)): r for i, r in enumerate(rates[:n])}
        ir = cell_table(IncidenceTable, cells)
        lt = diagonal_life_table(qs[:n] + [0.0], sexes=("0",))
        calc = PrevalenceCalculator(ir, const_survival(so_rate), lt, lag_eval="year_start", horizon=15)
        key = StratumKey(n, 1960 + n, ("0",))
        alpha = calc.recursion(stratum_cells([key]))[0][0]
        if alpha > 0:
            assert lag_since_diagnosis_cdf(calc, key, n) == pytest.approx(1.0, abs=1e-12)
            inc = lag_since_diagnosis_increments(calc, key)
            assert np.all(inc >= -1e-15)
