import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netadjust.diagnostics import Diagnostics
from netadjust.lifetable import (
    LifeTable,
    LifeTableError,
    diagonal_survival,
    load_life_table,
)
from netadjust.registry import StratumKey

from conftest import cell_table, diagonal_life_table, flat_life_table, stratum_cells, table_cells
from oracles import InfiniteHazardError, diagonal_cumulative_hazard, q_at


def write_csv(path, rows, header="age,year,sex,q"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


class TestLoader:
    def test_complete_rectangle(self, tmp_path):
        rows = [
            f"{age},{year},{sex},0.0{age % 9 + 1}"
            for age in (60, 61) for year in (1990, 1991) for sex in ("m", "f")
        ]
        f = tmp_path / "lt.csv"
        write_csv(f, rows)
        table = load_life_table(f)
        assert len(table_cells(table)) == 8
        assert q_at(table, 60, 1990, ("m",)) == pytest.approx(0.07)

    def test_out_of_range_q_rejected_with_coordinates(self, tmp_path):
        f = tmp_path / "lt.csv"
        write_csv(f, ["60,1990,m,1.2"])
        with pytest.raises(LifeTableError, match="60"):
            load_life_table(f)

    def test_duplicate_rejected(self, tmp_path):
        f = tmp_path / "lt.csv"
        write_csv(f, ["60,1990,m,0.1", "60,1990,m,0.2"])
        with pytest.raises(LifeTableError, match="duplicate"):
            load_life_table(f)

    def test_missing_cell_rejected(self, tmp_path):
        f = tmp_path / "lt.csv"
        write_csv(f, ["60,1990,m,0.1", "61,1990,m,0.1", "60,1991,m,0.1"])
        with pytest.raises(LifeTableError, match="missing"):
            load_life_table(f)

    def test_bad_header(self, tmp_path):
        f = tmp_path / "lt.csv"
        f.write_text("age,year,q\n60,1990,0.1\n", encoding="utf-8")
        with pytest.raises(LifeTableError, match="header"):
            load_life_table(f)


class TestDiagonalSurvival:
    def test_zero_rates_give_one(self):
        lt = flat_life_table(0.0)
        values = diagonal_survival(lt, stratum_cells([StratumKey(60, 1990, ("0",))]), 5)[0]
        assert np.all(values == 1.0)

    def test_constant_rate_closed_form(self):
        lt = flat_life_table(0.1)
        values = diagonal_survival(lt, stratum_cells([StratumKey(60, 1990, ("0",))]), 3)[0]
        assert values[3] == pytest.approx(0.9 ** 3, abs=1e-12)

    def test_t_zero_is_one(self):
        lt = flat_life_table(0.37)
        assert diagonal_survival(lt, stratum_cells([StratumKey(60, 1990, ("0",))]), 0)[0][0] == 1.0

    def test_clamping_counted(self):
        lt = diagonal_life_table([0.1] * 10)
        diag = Diagnostics()
        diagonal_survival(lt, stratum_cells([StratumKey(8, 1968, ("0",))]), 5, diag)
        assert diag.get("lifetable_clamp") > 0


def q_diagonal_reference(lt, key, steps, diagnostics):
    """The year-by-year lookup the gather replaces: one scalar q per step."""
    return np.array(
        [q_at(lt, key.age + j, key.year + j, key.demographics, diagnostics) for j in range(steps)]
    )


# ages 0..60, years 1960..2020, sex "1" only below age 30: lookups clamp on
# both coordinates, and hit missing cells and an unknown group
GAPPED = cell_table(
    LifeTable,
    {
        (a, y, (s,)): 0.001 + 0.0001 * a + 1e-5 * (y - 1960)
        for s in ("0", "1") for a in range(61) for y in range(1960, 2021)
        if s == "0" or a < 30
    },
    require_complete=False,
)


class TestDiagonalGather:
    @given(
        st.integers(-5, 75), st.integers(1950, 2030), st.integers(0, 40), st.sampled_from(["0", "1", "x"])
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_scalar_lookups(self, age, year, steps, sex):
        lt = GAPPED
        key = StratumKey(age, year, (sex,))
        got_diag, want_diag = Diagnostics(), Diagnostics()
        try:
            want = q_diagonal_reference(lt, key, steps, want_diag)
        except LifeTableError as exc:
            with pytest.raises(LifeTableError, match=re.escape(str(exc))):
                lt.q_diagonal(stratum_cells([key]), steps, got_diag)
        else:
            np.testing.assert_array_equal(lt.q_diagonal(stratum_cells([key]), steps, got_diag)[0], want)
        assert got_diag.as_dict() == want_diag.as_dict()

    def test_missing_cell_named(self):
        lt = diagonal_life_table([0.1] * 10)
        with pytest.raises(LifeTableError, match=r"no life-table cell \(age=3, year=1962"):
            lt.q_diagonal(stratum_cells([StratumKey(3, 1962, ("0",))]), 4)


class TestDiagonalCumulativeHazard:
    def test_zero_rates(self):
        lt = flat_life_table(0.0)
        assert diagonal_cumulative_hazard(lt, StratumKey(60, 1990, ("0",)), 7.3) == 0.0

    def test_one_year_closed_form(self):
        lt = flat_life_table(0.1)
        value = diagonal_cumulative_hazard(lt, StratumKey(60, 1990, ("0",)), 1.0)
        assert value == pytest.approx(-math.log(0.9), abs=1e-14)

    def test_piecewise_linear_between_years(self):
        lt = flat_life_table(0.1)
        key = StratumKey(60, 1990, ("0",))
        lam = -math.log(0.9)
        assert diagonal_cumulative_hazard(lt, key, 2.5) == pytest.approx(2.5 * lam, abs=1e-12)

    def test_infinite_hazard_names_cell(self):
        lt = diagonal_life_table([0.1, 1.0, 0.1])
        with pytest.raises(InfiniteHazardError, match="age=1"):
            diagonal_cumulative_hazard(lt, StratumKey(0, 1960, ("0",)), 3.0)

    @given(st.lists(st.floats(0.0, 0.6), min_size=1, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_exp_identity_at_integers(self, qs):
        lt = diagonal_life_table(qs)
        key = StratumKey(0, 1960, ("0",))
        horizon = len(qs)
        surv = diagonal_survival(lt, stratum_cells([key]), horizon)[0]
        for t in range(horizon + 1):
            lam = diagonal_cumulative_hazard(lt, key, float(t))
            assert math.exp(-lam) == pytest.approx(surv[t], abs=1e-12)
        assert np.all(np.diff(surv) <= 1e-15)
        assert surv.min() >= 0.0 and surv.max() <= 1.0


class TestConstruction:
    def test_rejects_bad_q(self):
        with pytest.raises(LifeTableError):
            cell_table(LifeTable, {(0, 1960, ("0",)): 1.5}, require_complete=False)

    def test_requires_cells(self):
        with pytest.raises(LifeTableError):
            cell_table(LifeTable, {})

    def test_cells_round_trip(self):
        cells = {(0, 1960, ("0",)): 0.1, (1, 1961, ("0",)): 0.25, (1, 1960, ("1",)): 1.0}
        assert table_cells(cell_table(LifeTable, cells, require_complete=False)) == cells

    def test_incomplete_rectangle_rejected_when_required(self):
        cells = {(0, 1960, ("0",)): 0.1, (1, 1961, ("0",)): 0.1}
        with pytest.raises(LifeTableError, match="missing"):
            cell_table(LifeTable, cells, require_complete=True)
