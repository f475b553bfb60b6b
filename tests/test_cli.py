import csv
import json
from pathlib import Path

import numpy as np
import pytest

from netadjust.cli import main
from netadjust.io import load_registry, write_registry

from conftest import toy_frame

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

    def test_adjusted_requires_incidence(self, tmp_path, capsys):
        registry = write_inputs(tmp_path)
        with pytest.raises(SystemExit):
            main([
                "estimate", "--registry", str(registry),
                "--lifetable", str(tmp_path / "lifetable.csv"),
                "--mode", "adjusted", "--out", str(tmp_path / "out"),
            ])

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

    @pytest.mark.parametrize("mode", ["naive", "adjusted"])
    def test_matches_golden_outputs(self, tmp_path, mode):
        # golden files were written when each estimator built its own risk
        # sets with a strata x times deaths matrix, from the same inputs
        registry = write_inputs(tmp_path)
        out = tmp_path / "out"
        extra = ["--incidence", str(tmp_path / "incidence.csv")] if mode == "adjusted" else []
        assert main([
            "estimate", "--registry", str(registry),
            "--lifetable", str(tmp_path / "lifetable.csv"), *extra,
            "--mode", mode, "--horizon", "12", "--years", "3,5,7,10",
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

    def test_matches_golden_outputs(self, tmp_path):
        # golden files were written by the memoized scalar recursion this
        # solver replaced, from the same inputs
        registry = write_inputs(tmp_path)
        out = tmp_path / "out"
        assert main([
            "adjust", "--registry", str(registry),
            "--lifetable", str(tmp_path / "lifetable.csv"),
            "--incidence", str(tmp_path / "incidence.csv"),
            "--horizon", "10", "--out", str(out),
        ]) == 0
        for name, value in (("adjusted.csv", "s_p"), ("alpha.csv", "alpha"), ("residuals.csv", "r")):
            assert_matches_golden(out / name, GOLDEN / "adjust" / name, [value])

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


class TestSimulate:
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
