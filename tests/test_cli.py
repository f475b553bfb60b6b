import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netadjust
import oracles
from netadjust.adjustment import AdjustmentEngine
from netadjust.cli import main
from netadjust.incidence import PrevalenceCalculator, load_incidence_table
from netadjust.io import load_registry
from netadjust.lifetable import load_life_table
from netadjust.registry import StratumKey, build_strata, stratum_keys
from netadjust.survival_provider import OverallSurvivalProvider

from conftest import stratum_cells, toy_frame, write_registry

GOLDEN = Path(__file__).resolve().parent / "golden"


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def assert_matches_golden(got_path, want_path, columns):
    """Rows agree exactly outside `columns` and to 1e-12 inside them."""
    got, want = read_csv(got_path), read_csv(want_path)
    assert [{k: v for k, v in r.items() if k not in columns} for r in got] == \
        [{k: v for k, v in r.items() if k not in columns} for r in want]
    for column in columns:
        np.testing.assert_allclose(
            [float(r[column]) for r in got], [float(r[column]) for r in want], rtol=0, atol=1e-12
        )


def write_inputs(tmp_path, q=0.02, ir=0.01):
    registry = tmp_path / "registry.csv"
    registry.write_text(
        "age_diag,year_diag,sex,time,event\n"
        "60,1990,m,2.0,1\n"
        "60,1990,m,5.5,0\n"
        "62,1992,m,1.2,1\n",
        encoding="utf-8",
    )
    lt_rows = ["age,year,sex,q"]
    inc_rows = ["age,year,sex,ir"]
    pop_rows = ["age,year,sex,person_years"]
    for age in range(55, 81):
        for year in range(1985, 2011):
            lt_rows.append(f"{age},{year},m,{q}")
            inc_rows.append(f"{age},{year},m,{ir}")
            pop_rows.append(f"{age},{year},m,1000")
    (tmp_path / "lifetable.csv").write_text("\n".join(lt_rows) + "\n", encoding="utf-8")
    (tmp_path / "incidence.csv").write_text("\n".join(inc_rows) + "\n", encoding="utf-8")
    (tmp_path / "population.csv").write_text("\n".join(pop_rows) + "\n", encoding="utf-8")
    return registry


class TestEstimate:
    def test_naive_smoke(self, tmp_path):
        registry = write_inputs(tmp_path)
        out = tmp_path / "out"
        code = main([
            "estimate", "--registry", str(registry),
            "--lifetable", str(tmp_path / "lifetable.csv"),
            "--mode", "naive", "--horizon", "12", "--years", "3,5,7,10",
            "--out", str(out),
        ])
        assert code == 0
        lines = (out / "estimates.csv").read_text().strip().splitlines()
        assert lines[0] == "estimator,provider,year,value"
        assert len(lines) == 1 + 3 * 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["inputs"]) == {"registry", "lifetable"}
        assert manifest["command"] == "estimate"
        assert "extrapolation_points" not in manifest["config"]

    def test_adjusted_requires_incidence(self, tmp_path, capsys):
        registry = write_inputs(tmp_path)
        with pytest.raises(SystemExit):
            main([
                "estimate", "--registry", str(registry),
                "--lifetable", str(tmp_path / "lifetable.csv"),
                "--mode", "adjusted", "--out", str(tmp_path / "out"),
            ])

    @pytest.mark.parametrize("mode, flags, message", [
        ("naive", ["--incidence", "incidence.csv"], "--incidence and --population apply only to --mode adjusted"),
        ("naive", ["--population", "population.csv"], "--incidence and --population apply only to --mode adjusted"),
        ("adjusted", ["--incidence", "incidence.csv", "--population", "population.csv"],
         "give one of --incidence and --population, not both"),
        ("naive", ["--extrapolation-points", "4"], "--extrapolation-points applies only to --mode adjusted"),
        ("naive", ["--extrapolation-points", "1"], "--extrapolation-points applies only to --mode adjusted"),
    ], ids=["naive-incidence", "naive-population", "adjusted-both", "naive-extrapolation-points",
            "naive-extrapolation-points-below-2"])
    def test_flags_the_run_would_ignore_are_rejected(self, tmp_path, capsys, mode, flags, message):
        registry = write_inputs(tmp_path)
        extra = [str(tmp_path / arg) if arg.endswith(".csv") else arg for arg in flags]
        with pytest.raises(SystemExit) as exited:
            main([
                "estimate", "--registry", str(registry),
                "--lifetable", str(tmp_path / "lifetable.csv"), *extra,
                "--mode", mode, "--out", str(tmp_path / "out"),
            ])
        assert exited.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(f"error: {message}")
        assert not (tmp_path / "out").exists()

    def test_population_stratifies_the_registry_twice(self, tmp_path, monkeypatch):
        # once for the risk set, whose sizes are the diagnosis counts, and
        # once inside the overall-survival provider
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return build_strata(*args, **kwargs)

        for module in ("cli", "estimators", "survival_provider"):
            monkeypatch.setattr(f"netadjust.{module}.build_strata", counting)
        registry = write_inputs(tmp_path)
        assert main([
            "estimate", "--registry", str(registry),
            "--lifetable", str(tmp_path / "lifetable.csv"),
            "--population", str(tmp_path / "population.csv"),
            "--mode", "adjusted", "--horizon", "10", "--out", str(tmp_path / "out"),
        ]) == 0
        assert len(calls) == 2

    def test_adjusted_with_incidence(self, tmp_path):
        registry = write_inputs(tmp_path)
        out = tmp_path / "out"
        code = main([
            "estimate", "--registry", str(registry),
            "--lifetable", str(tmp_path / "lifetable.csv"),
            "--incidence", str(tmp_path / "incidence.csv"),
            "--mode", "adjusted", "--horizon", "12", "--years", "3,5",
            "--curves", "--out", str(out),
        ])
        assert code == 0
        assert (out / "curve_pohar_perme.csv").exists()
        rows = (out / "estimates.csv").read_text().strip().splitlines()[1:]
        assert all(",adjusted," in r for r in rows)
        assert json.loads((out / "manifest.json").read_text())["config"]["extrapolation_points"] == 4

    def test_death_at_time_zero(self, tmp_path):
        # the registry's Kaplan-Meier curve, which S_O is read from, jumps at 0
        registry = write_inputs(tmp_path)
        registry.write_text(registry.read_text() + "62,1992,m,0,1\n")
        out = tmp_path / "out"
        assert main([
            "estimate", "--registry", str(registry), "--lifetable", str(tmp_path / "lifetable.csv"),
            "--incidence", str(tmp_path / "incidence.csv"), "--mode", "adjusted", "--horizon", "12",
            "--out", str(out),
        ]) == 0
        values = [float(r["value"]) for r in read_csv(out / "estimates.csv")]
        assert len(values) == 12 and np.isfinite(values).all()

    @pytest.mark.parametrize("mode", ["naive", "adjusted"])
    def test_year_zero_counts_deaths_at_time_zero(self, tmp_path, mode):
        # one of four patients dies at time 0, where S_P is exactly 1: each
        # estimate at year 0 holds that death, as just after it
        registry = write_inputs(tmp_path)
        registry.write_text(registry.read_text() + "62,1992,m,0,1\n")
        extra = ["--incidence", str(tmp_path / "incidence.csv")] if mode == "adjusted" else []
        out = tmp_path / "out"
        assert main([
            "estimate", "--registry", str(registry), "--lifetable", str(tmp_path / "lifetable.csv"), *extra,
            "--mode", mode, "--horizon", "12", "--years", "0", "--out", str(out),
        ]) == 0
        values = {r["estimator"]: float(r["value"]) for r in read_csv(out / "estimates.csv")}
        assert values == pytest.approx(
            {"pohar_perme": math.exp(-0.25), "ederer1": math.exp(-0.25), "crude_probability": 0.25}, rel=0, abs=1e-15)

    def test_adjusted_with_population_counts(self, tmp_path):
        registry = write_inputs(tmp_path)
        out = tmp_path / "out"
        code = main([
            "estimate", "--registry", str(registry),
            "--lifetable", str(tmp_path / "lifetable.csv"),
            "--population", str(tmp_path / "population.csv"),
            "--mode", "adjusted", "--horizon", "12", "--years", "3",
            "--out", str(out),
        ])
        assert code == 0

    def test_population_counts_give_their_incidence(self, tmp_path):
        # the registry's strata over 1000 person-years per cell: IR is
        # 2/1000 at (60, 1990, m), 1/1000 at (62, 1992, m) and 0 elsewhere
        registry = write_inputs(tmp_path)
        counted = {(60, 1990): 0.002, (62, 1992): 0.001}
        rows = ["age,year,sex,ir"] + [
            f"{age},{year},m,{counted.get((age, year), 0.0)}" for age in range(55, 81) for year in range(1985, 2011)
        ]
        incidence = tmp_path / "counted_incidence.csv"
        incidence.write_text("\n".join(rows) + "\n", encoding="utf-8")
        estimates = []
        for source in (["--population", str(tmp_path / "population.csv")], ["--incidence", str(incidence)]):
            out = tmp_path / source[0].strip("-")
            code = main([
                "estimate", "--registry", str(registry),
                "--lifetable", str(tmp_path / "lifetable.csv"), *source,
                "--mode", "adjusted", "--horizon", "12", "--years", "3,5,7,10",
                "--out", str(out),
            ])
            assert code == 0
            estimates.append((out / "estimates.csv").read_bytes())
        assert estimates[0] == estimates[1]

    @pytest.mark.parametrize("mode", ["naive", "adjusted", "population"])
    def test_matches_golden_outputs(self, tmp_path, mode):
        # the naive and adjusted golden files were written when each
        # estimator built its own risk sets with a strata x times deaths
        # matrix, the population ones (an adjusted run on --population) when
        # --population joined cell dicts, from the same inputs
        registry = write_inputs(tmp_path)
        out = tmp_path / "out"
        extra = {"naive": [], "adjusted": ["--incidence", str(tmp_path / "incidence.csv")],
                 "population": ["--population", str(tmp_path / "population.csv")]}[mode]
        assert main([
            "estimate", "--registry", str(registry),
            "--lifetable", str(tmp_path / "lifetable.csv"), *extra,
            "--mode", "naive" if mode == "naive" else "adjusted", "--horizon", "12", "--years", "3,5,7,10",
            "--curves", "--out", str(out),
        ]) == 0
        golden = GOLDEN / "estimate" / mode
        assert_matches_golden(out / "estimates.csv", golden / "estimates.csv", ["value"])
        assert_matches_golden(
            out / "curve_pohar_perme.csv", golden / "curve_pohar_perme.csv", ["lambda", "e_s"]
        )

    @pytest.mark.parametrize("mode", ["naive", "adjusted"])
    def test_one_risk_set_per_run(self, tmp_path, risk_set_builds, mode):
        registry = write_inputs(tmp_path)
        extra = ["--incidence", str(tmp_path / "incidence.csv")] if mode == "adjusted" else []
        assert main([
            "estimate", "--registry", str(registry),
            "--lifetable", str(tmp_path / "lifetable.csv"), *extra,
            "--mode", mode, "--horizon", "12", "--out", str(tmp_path / "out"),
        ]) == 0
        assert [frame.n for frame in risk_set_builds] == [3]

    def test_schema_error_reports_row(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("age_diag,year_diag,sex,time,event\n60,1990,m,2.0,7\n", encoding="utf-8")
        write_inputs(tmp_path)
        code = main([
            "estimate", "--registry", str(bad),
            "--lifetable", str(tmp_path / "lifetable.csv"),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1


    def test_missing_life_table_cell_names_the_file(self, tmp_path, capsys):
        registry = write_inputs(tmp_path)
        table = tmp_path / "lifetable.csv"
        table.write_text(table.read_text().replace("61,1991,m,0.02\n", ""), encoding="utf-8")
        code = main([
            "estimate", "--registry", str(registry), "--lifetable", str(table),
            "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert err.splitlines()[-1] == "error: lifetable.csv: missing cell (age=61, year=1991, ('m',))"

    def test_missing_file_is_one_stderr_line(self, tmp_path):
        # run as a user runs it, so the logging set-up of `main` is the real one
        registry = write_inputs(tmp_path)
        src = Path(netadjust.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-m", "netadjust.cli", "estimate", "--registry", str(registry),
             "--lifetable", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": str(src), "NETADJUST_LOG": "WARNING"},
            capture_output=True, text=True,
        )
        assert out.returncode == 1
        assert len(out.stderr.splitlines()) == 1
        assert out.stderr.startswith("error: ") and "missing.csv" in out.stderr

    @pytest.mark.parametrize("years, bad", [
        ("nan", "nan"), ("3,nan", "nan"), ("inf", "inf"), ("-1", "-1.0"), ("3,-0.5", "-0.5"),
    ])
    def test_report_years_must_be_finite_and_non_negative(self, tmp_path, capsys, years, bad):
        # rejected before anything is read, like an empty --years
        registry = write_inputs(tmp_path)
        with pytest.raises(SystemExit) as exited:
            main([
                "estimate", "--registry", str(registry), "--lifetable", str(tmp_path / "lifetable.csv"),
                "--years", years, "--out", str(tmp_path / "out"),
            ])
        assert exited.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f"error: report years must be finite and non-negative, got {bad}"
        )
        assert not (tmp_path / "out").exists()


class TestAdjust:
    def test_exports(self, tmp_path):
        registry = write_inputs(tmp_path)
        out = tmp_path / "out"
        code = main([
            "adjust", "--registry", str(registry),
            "--lifetable", str(tmp_path / "lifetable.csv"),
            "--incidence", str(tmp_path / "incidence.csv"),
            "--horizon", "10", "--out", str(out),
        ])
        assert code == 0
        adjusted = (out / "adjusted.csv").read_text().strip().splitlines()
        assert adjusted[0] == "age,year,sex,t,s_p"
        assert len(adjusted) == 1 + 2 * 11        # two strata, t = 0..10
        alpha = (out / "alpha.csv").read_text().strip().splitlines()
        assert len(alpha) == 3
        residuals = (out / "residuals.csv").read_text().strip().splitlines()
        assert len(residuals) == 1 + 2 * 10

    def test_death_at_time_zero(self, tmp_path):
        registry = write_inputs(tmp_path)
        registry.write_text(registry.read_text() + "62,1992,m,0,1\n")
        out = tmp_path / "out"
        assert main([
            "adjust", "--registry", str(registry), "--lifetable", str(tmp_path / "lifetable.csv"),
            "--incidence", str(tmp_path / "incidence.csv"), "--horizon", "10", "--out", str(out),
        ]) == 0
        s_p = [float(r["s_p"]) for r in read_csv(out / "adjusted.csv")]
        assert len(s_p) == 2 * 11 and np.isfinite(s_p).all()

    def test_matches_golden_outputs(self, tmp_path):
        # the incidence run's golden files were written by the memoized
        # scalar recursion this solver replaced, the population run's when
        # --population joined cell dicts, from the same inputs
        registry = write_inputs(tmp_path)
        for table, golden in (("incidence", GOLDEN / "adjust"), ("population", GOLDEN / "adjust" / "population")):
            out = tmp_path / table
            assert main([
                "adjust", "--registry", str(registry),
                "--lifetable", str(tmp_path / "lifetable.csv"),
                f"--{table}", str(tmp_path / f"{table}.csv"),
                "--horizon", "10", "--out", str(out),
            ]) == 0
            for name, value in (("adjusted.csv", "s_p"), ("alpha.csv", "alpha"), ("residuals.csv", "r")):
                assert_matches_golden(out / name, golden / name, [value])

    def test_rows_follow_key_order(self, tmp_path):
        # sex m is seen first but f sorts first: the cells go by age, then
        # year, then demographics, as `StratumKey`s sort
        registry = write_inputs(tmp_path)
        for name in ("lifetable.csv", "incidence.csv"):
            path = tmp_path / name
            text = path.read_text(encoding="utf-8")
            path.write_text(text + text.split("\n", 1)[1].replace(",m,", ",f,"), encoding="utf-8")
        registry.write_text(
            "age_diag,year_diag,sex,time,event\n"
            "61,1991,m,2.0,1\n60,1991,m,3.0,0\n61,1991,f,1.5,1\n60,1990,f,4.0,1\n60,1991,f,2.5,0\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main([
            "adjust", "--registry", str(registry),
            "--lifetable", str(tmp_path / "lifetable.csv"),
            "--incidence", str(tmp_path / "incidence.csv"),
            "--horizon", "10", "--out", str(out),
        ]) == 0
        cells = [(row["age"], row["year"], row["sex"]) for row in read_csv(out / "alpha.csv")]
        assert cells == [("60", "1990", "f"), ("60", "1991", "f"), ("60", "1991", "m"),
                         ("61", "1991", "f"), ("61", "1991", "m")]

    def test_prevalence_error_is_one_line(self, tmp_path, capsys):
        # incidence 0.9 in a population losing half of itself every year:
        # prevalence passes 1, and the run stops with the cell named
        registry = write_inputs(tmp_path, q=0.5, ir=0.9)
        code = main([
            "adjust", "--registry", str(registry),
            "--lifetable", str(tmp_path / "lifetable.csv"),
            "--incidence", str(tmp_path / "incidence.csv"),
            "--horizon", "10", "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1
        assert re.fullmatch(
            r"error: prevalence \d+\.\d{6} >= 1 at age \d+ on diagonal \(birth year 1930, \('m',\)\); "
            r"incidence and survival inputs disagree",
            errors[0],
        )

    def test_one_solve_gives_every_output(self, tmp_path, monkeypatch):
        # S_P, alpha and r(t) come from one solve: the prevalence recursion
        # runs once, for alpha, the prevalent-case survival and the S_O rows
        calls = []
        recursion = PrevalenceCalculator.recursion
        monkeypatch.setattr(PrevalenceCalculator, "recursion",
                            lambda calc, cells, read=None: calls.append(read is not None and len(read[1]) > 0)
                            or recursion(calc, cells, read))
        registry = write_inputs(tmp_path)
        assert main([
            "adjust", "--registry", str(registry),
            "--lifetable", str(tmp_path / "lifetable.csv"),
            "--incidence", str(tmp_path / "incidence.csv"),
            "--horizon", "10", "--out", str(tmp_path / "out"),
        ]) == 0
        assert calls == [True]

    def test_horizon_must_be_positive(self, tmp_path, capsys):
        registry = write_inputs(tmp_path)
        with pytest.raises(SystemExit):
            main([
                "adjust", "--registry", str(registry),
                "--lifetable", str(tmp_path / "lifetable.csv"),
                "--incidence", str(tmp_path / "incidence.csv"),
                "--horizon", "0", "--out", str(tmp_path / "out"),
            ])
        assert "--horizon must be at least 1" in capsys.readouterr().err

    def test_label_that_needs_quoting(self, tmp_path):
        # a sex label with a comma and quotes is quoted in all three outputs,
        # byte for byte as csv.writer quotes the old writer's dict rows
        label = 'f,"x"'
        registry = write_inputs(tmp_path)
        for name in ("registry.csv", "lifetable.csv", "incidence.csv"):
            path = tmp_path / name
            quoted = '"' + label.replace('"', '""') + '"'
            path.write_text(path.read_text(encoding="utf-8").replace(",m,", f",{quoted},"), encoding="utf-8")
        out = tmp_path / "out"
        assert main([
            "adjust", "--registry", str(registry),
            "--lifetable", str(tmp_path / "lifetable.csv"),
            "--incidence", str(tmp_path / "incidence.csv"),
            "--horizon", "10", "--out", str(out),
        ]) == 0
        for name in ("adjusted.csv", "alpha.csv", "residuals.csv"):
            with open(out / name, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))[1:]
            assert rows and {row[2] for row in rows} == {label}

        frame = load_registry(registry)
        keys = sorted(stratum_keys(build_strata(frame)[0]))
        life_table = load_life_table(tmp_path / "lifetable.csv")
        so = OverallSurvivalProvider.from_registry(frame, anchor_points=4, population_floor=life_table)
        engine = AdjustmentEngine(life_table, load_incidence_table(tmp_path / "incidence.csv"), so, horizon=10)
        grid_rows, alpha_rows, r_rows = [], [], []
        cells = stratum_cells(keys)
        curves = engine.solve(cells).values
        alphas, residuals = engine.alpha(cells), engine.solve(cells).residual[:, 1:]
        for key, curve, alpha, r in zip(keys, curves, alphas.tolist(), residuals):
            alpha_rows.append({"age": key.age, "year": key.year, "sex": key.demographics[0], "alpha": alpha})
            for t, value in enumerate(curve):
                grid_rows.append({"age": key.age, "year": key.year, "sex": key.demographics[0], "t": t, "s_p": value})
            for t, value in enumerate(r, start=1):
                r_rows.append({"age": key.age, "year": key.year, "sex": key.demographics[0], "t": t, "r": value})
        for name, header, rows in (
            ("adjusted.csv", ["age", "year", "sex", "t", "s_p"], grid_rows),
            ("alpha.csv", ["age", "year", "sex", "alpha"], alpha_rows),
            ("residuals.csv", ["age", "year", "sex", "t", "r"], r_rows),
        ):
            oracles.write_rows_csv_reference(tmp_path / "reference" / name, header, rows)
            assert (out / name).read_bytes() == (tmp_path / "reference" / name).read_bytes()

    def test_population_stratifies_the_registry_twice(self, tmp_path, monkeypatch):
        # once for the keys and the diagnosis counts, once inside the
        # overall-survival provider
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return build_strata(*args, **kwargs)

        monkeypatch.setattr("netadjust.cli.build_strata", counting)
        monkeypatch.setattr("netadjust.survival_provider.build_strata", counting)
        registry = write_inputs(tmp_path)
        assert main([
            "adjust", "--registry", str(registry),
            "--lifetable", str(tmp_path / "lifetable.csv"),
            "--population", str(tmp_path / "population.csv"),
            "--horizon", "10", "--out", str(tmp_path / "out"),
        ]) == 0
        assert len(calls) == 2

    def test_incidence_and_population_together_rejected(self, tmp_path, capsys):
        registry = write_inputs(tmp_path)
        with pytest.raises(SystemExit) as exited:
            main([
                "adjust", "--registry", str(registry),
                "--lifetable", str(tmp_path / "lifetable.csv"),
                "--incidence", str(tmp_path / "incidence.csv"),
                "--population", str(tmp_path / "population.csv"),
                "--horizon", "10", "--out", str(tmp_path / "out"),
            ])
        assert exited.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "error: give one of --incidence and --population, not both"
        )
        assert not (tmp_path / "out").exists()

    def test_jobs_flag_removed(self, tmp_path):
        registry = write_inputs(tmp_path)
        with pytest.raises(SystemExit):
            main([
                "adjust", "--registry", str(registry),
                "--lifetable", str(tmp_path / "lifetable.csv"),
                "--incidence", str(tmp_path / "incidence.csv"),
                "--jobs", "2", "--out", str(tmp_path / "out"),
            ])


class TestNonFiniteInput:
    """Non-finite values are rejected while loading, with the file and row."""

    def run_estimate(self, tmp_path, registry, extra=()):
        return main([
            "estimate", "--registry", str(registry),
            "--lifetable", str(tmp_path / "lifetable.csv"),
            "--mode", "adjusted", *extra, "--horizon", "12", "--years", "3",
            "--out", str(tmp_path / "out"),
        ])

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_registry_time(self, tmp_path, capsys, bad):
        write_inputs(tmp_path)
        registry = tmp_path / "bad_registry.csv"
        registry.write_text(
            "age_diag,year_diag,sex,time,event\n60,1990,m,2.0,1\n61,1991,m," + bad + ",0\n",
            encoding="utf-8",
        )
        code = self.run_estimate(tmp_path, registry, ["--incidence", str(tmp_path / "incidence.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.strip().splitlines()[-1].startswith("error: bad_registry.csv:3: ")
        assert "Traceback" not in err

    def test_person_years(self, tmp_path, capsys):
        registry = write_inputs(tmp_path)
        population = tmp_path / "population.csv"
        rows = population.read_text(encoding="utf-8").splitlines()
        rows[5] = rows[5].rsplit(",", 1)[0] + ",nan"
        population.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = self.run_estimate(tmp_path, registry, ["--population", str(population)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.strip().splitlines()[-1].startswith("error: population.csv:6: ")
        assert "Traceback" not in err


class TestOutOfRangeInput:
    """Ages outside [0, MAX_AGE] and files whose (sex, age, year) grid would
    pass MAX_TABLE_CELLS are rejected while loading, naming the file and row."""

    HEADERS = {
        "registry.csv": "age_diag,year_diag,sex,time,event",
        "lifetable.csv": "age,year,sex,q",
        "incidence.csv": "age,year,sex,ir",
        "population.csv": "age,year,sex,person_years",
    }

    # a check that fires too late fails on building the table instead of
    # allocating it
    BUILT_FROM = {
        "lifetable.csv": "netadjust.lifetable.LifeTable",
        "incidence.csv": "netadjust.incidence.IncidenceTable",
        "population.csv": "netadjust.incidence.IncidenceTable",
    }

    @pytest.mark.parametrize("name, rows, message", [
        ("registry.csv", ["60,1990,m,2.0,1", "151,1990,m,1.0,0"], "registry.csv:3: age 151 outside [0, 150]"),
        ("registry.csv", ["-1,1990,m,2.0,1"], "registry.csv:2: age -1 outside [0, 150]"),
        ("registry.csv", ["0,1990,m,2.0,1", "150,50000000000000000,f,3.0,0"],
         "registry.csv:3: age 150, year 50000000000000000 would stretch"),
        ("lifetable.csv", ["60,1990,m,0.02", "-1,1990,m,0.02"], "lifetable.csv:3: age -1 outside"),
        ("lifetable.csv", ["60,1990,m,0.02", "100000000,1990,m,0.02"], "lifetable.csv:3: age 100000000 outside"),
        ("lifetable.csv", ["60,1990,m,0.02", "61,1990,m,0.02", "60,100000000,m,0.02"],
         "lifetable.csv:4: age 60, year 100000000 would stretch the (sex, age, year) grid to 199996022 cells"),
        ("incidence.csv", ["60,1990,m,0.01", "-3,1990,m,0.01"], "incidence.csv:3: age -3 outside"),
        ("incidence.csv", ["60,-100000000,m,0.01", "61,1990,m,0.01", "60,1991,m,0.01"],
         "incidence.csv:3: age 61, year 1990 would stretch the (sex, age, year) grid to 200003982 cells"),
        ("population.csv", ["60,1990,m,1000", "200,1990,m,1000"], "population.csv:3: age 200 outside"),
        ("population.csv", ["60,1990,m,1000", "61,1990,m,1000", "60,100000000,m,1000"],
         "population.csv:4: age 60, year 100000000 would stretch"),
    ])
    def test_rejected_with_file_and_row(self, tmp_path, capsys, monkeypatch, name, rows, message):
        registry = write_inputs(tmp_path)
        if name in self.BUILT_FROM:
            def refuse(*args, **kwargs):
                raise AssertionError("a table was built from out-of-range input")

            # the constructor, not the module's name: the loaders read the
            # class's validity rule
            monkeypatch.setattr(self.BUILT_FROM[name] + ".__init__", refuse)
        (tmp_path / name).write_text("\n".join([self.HEADERS[name], *rows]) + "\n", encoding="utf-8")
        source = ["--population", str(tmp_path / "population.csv")] if name == "population.csv" \
            else ["--incidence", str(tmp_path / "incidence.csv")]
        code = main([
            "estimate", "--registry", str(registry),
            "--lifetable", str(tmp_path / "lifetable.csv"), *source,
            "--mode", "adjusted", "--horizon", "12", "--years", "3", "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.strip().splitlines()[-1].startswith(f"error: {message}")
        assert "Traceback" not in err


class TestSimulate:
    def test_matches_golden_outputs(self, tmp_path):
        # golden files were written when each stratum's overall survival was
        # built one stratum at a time, by the same command
        out = tmp_path / "out"
        assert main([
            "simulate", "--dataset", "2", "--reps", "4", "--seed", "20230316", "--jobs", "1",
            "--out", str(out),
        ]) == 0
        assert_matches_golden(out / "table1.csv", GOLDEN / "simulate" / "table1.csv", [])
        assert_matches_golden(
            out / "table2.csv", GOLDEN / "simulate" / "table2.csv", ["true", "ave", "pct_bias", "rmse_x100"]
        )

    def test_scenario_file_and_outputs(self, tmp_path):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(
            "# tiny smoke scenario\n"
            "dataset = 1\ncohort_size = 3000\nreps = 1\nseed = 99\n"
            "horizon = 15\nextrapolation_points = 4\njobs = 1\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code = main(["simulate", "--scenario", str(scenario), "--out", str(out)])
        assert code == 0
        t1 = (out / "table1.csv").read_text().strip().splitlines()
        t2 = (out / "table2.csv").read_text().strip().splitlines()
        assert len(t1) == 2
        assert len(t2) == 1 + 2 * 4   # two methods x four years
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 99
        assert manifest["config"]["excluded_replicates"] == 0

    def test_flags_override_scenario(self, tmp_path):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text("dataset = 1\ncohort_size = 3000\nreps = 1\nseed = 5\njobs = 1\n",
                            encoding="utf-8")
        out = tmp_path / "out"
        main(["simulate", "--scenario", str(scenario), "--dataset", "2",
              "--years", "3,5", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["dataset"] == 2
        assert manifest["config"]["years"] == [3.0, 5.0]

    @pytest.mark.parametrize("flag, message", [
        (["--reps", "0"], "reps must be at least 1, got 0"),
        (["--cohort-size", "0"], "cohort_size must be at least 1, got 0"),
        (["--dataset", "5"], "dataset must be 1-4, got 5"),
    ])
    def test_bad_settings_are_one_error_line(self, tmp_path, capsys, monkeypatch, flag, message):
        def refuse(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr("netadjust.simulation.run_replicate", refuse)
        out = tmp_path / "out"
        assert main(["simulate", *flag, "--jobs", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "scenario"])
    def test_bad_report_years_are_usage_errors(self, tmp_path, capsys, monkeypatch, source):
        def refuse(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr("netadjust.simulation.run_replicate", refuse)
        scenario = tmp_path / "scenario.txt"
        scenario.write_text("years = 3,nan\n", encoding="utf-8")
        args = ["--years", "3,nan"] if source == "flag" else ["--scenario", str(scenario)]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exited:
            main(["simulate", *args, "--jobs", "1", "--out", str(out)])
        assert exited.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "error: report years must be finite and non-negative, got nan"
        )
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "scenario"])
    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_are_usage_errors(self, tmp_path, capsys, monkeypatch, source, jobs):
        def refuse(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr("netadjust.simulation.run_replicate", refuse)
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(f"jobs = {jobs}\n", encoding="utf-8")
        args = ["--jobs", str(jobs)] if source == "flag" else ["--scenario", str(scenario)]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exited:
            main(["simulate", *args, "--reps", "1", "--out", str(out)])
        assert exited.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(f"error: jobs must be at least 1, got {jobs}")
        assert not out.exists()

    def test_unknown_scenario_key(self, tmp_path):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text("cohortsize = 10\n", encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "o")])

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["simulate", "--dataset", "1", "--cohort-size", "3000", "--reps", "2",
                "--seed", "31", "--jobs", "1"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("table1.csv", "table2.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestRegistryIO:
    def test_round_trip(self, tmp_path):
        frame = toy_frame([(60, 1990, "m", 2.0, 1), (61, 1991, "f", 3.5, 0)])
        path = tmp_path / "reg.csv"
        write_registry(path, frame)
        back = load_registry(path)
        assert np.array_equal(back.age, frame.age)
        assert np.array_equal(back.time, frame.time)
        assert back.demo_vocab[back.demo_code[1]] == ("f",)


@pytest.mark.parametrize("command", [
    ["estimate", "--mode", "adjusted", "--incidence", "incidence.csv"], ["adjust", "--incidence", "incidence.csv"],
    ["estimate", "--mode", "adjusted", "--population", "population.csv"], ["adjust", "--population", "population.csv"],
])
def test_incidence_runs_build_no_keys(tmp_path, key_builds, command):
    # the strata stay (demographics, codes, ages, years) cells from the
    # registry to the outputs, through --population's join too
    registry = write_inputs(tmp_path)
    assert StratumKey(60, 2000, ("m",)) and key_builds == [(60, 2000, ("m",))]
    assert main([
        *command[:-1], str(tmp_path / command[-1]), "--registry", str(registry),
        "--lifetable", str(tmp_path / "lifetable.csv"),
        "--horizon", "10", "--out", str(tmp_path / "out"),
    ]) == 0
    assert key_builds == [(60, 2000, ("m",))]


def test_import_leaves_out_the_process_pool():
    """Importing the command line does not import the process pool, which
    only `simulate` with more than one job uses: it costs every CLI process
    ~20 ms at start-up."""
    src = Path(netadjust.__file__).resolve().parents[1]
    probe = "import sys, netadjust.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("command", [["estimate", "--mode", "adjusted"], ["adjust"]])
def test_adjusted_runs_leave_out_numpy_ma(tmp_path, command):
    """An adjusted `estimate` or an `adjust` run leaves `numpy.ma` unimported
    unless a bare `import numpy` imports it: a plain `np.unique` imports it,
    which costs every such run ~13 ms at start-up."""
    registry = write_inputs(tmp_path)
    argv = [*command, "--registry", str(registry), "--lifetable", str(tmp_path / "lifetable.csv"),
            "--incidence", str(tmp_path / "incidence.csv"), "--horizon", "10", "--out", str(tmp_path / "out")]
    probe = (
        "import sys, numpy; bare = 'numpy.ma' in sys.modules; import netadjust.cli; "
        f"assert netadjust.cli.main({argv!r}) == 0; print(bare or 'numpy.ma' not in sys.modules)"
    )
    src = Path(netadjust.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "True"
