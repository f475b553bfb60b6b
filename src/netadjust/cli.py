"""Command-line surface: estimate, adjust, simulate.

Every run writes its outputs plus a manifest (config echo, input hashes,
diagnostic counters) sufficient to reproduce the run byte-for-byte.
Config precedence for simulate: flags > scenario file > defaults.
"""
from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from .adjustment import AdjustmentEngine
from .diagnostics import Diagnostics
from .estimators import (
    RiskSetSummary,
    crude_probability,
    ederer1,
    evaluate_at_years,
    pohar_perme,
    population_survival,
)
from .incidence import compute_incidence, load_counts, load_incidence_table
from .io import load_registry, sha256_file, write_manifest, write_rows_csv
from .lifetable import diagonal_survival, load_life_table
from .registry import build_strata, key_order
from .simulation import ScenarioConfig, run_experiment   # perfbench's tracer expects every module loaded with the CLI
from .survival_provider import OverallSurvivalProvider


class UsageError(ValueError):
    """Invalid flag/file combination."""


def _parse_years(text: str) -> tuple:
    try:
        years = tuple(float(y) for y in text.split(",") if y.strip())
    except ValueError:
        raise UsageError(f"cannot parse years {text!r}") from None
    if not years:
        raise UsageError("at least one report year is required")
    bad = [y for y in years if not (math.isfinite(y) and y >= 0)]
    if bad:
        raise UsageError(f"report years must be finite and non-negative, got {bad[0]}")
    return years


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netadjust",
        description="Net survival with life tables corrected for cancer contamination",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="run the estimators on registry + life table")
    est.add_argument("--registry", required=True)
    est.add_argument("--lifetable", required=True)
    est.add_argument("--incidence")
    est.add_argument("--population", help="person-years CSV; derives incidence from the registry")
    est.add_argument("--mode", choices=("naive", "adjusted"), default="naive")
    est.add_argument("--horizon", type=int, default=15)
    est.add_argument("--extrapolation-points", type=int)
    est.add_argument("--years", default="3,5,7,10")
    est.add_argument("--curves", action="store_true", help="also write full PP curve CSV")
    est.add_argument("--out", required=True)

    adj = sub.add_parser("adjust", help="export adjusted survival grids and diagnostics")
    adj.add_argument("--registry", required=True)
    adj.add_argument("--lifetable", required=True)
    adj.add_argument("--incidence")
    adj.add_argument("--population")
    adj.add_argument("--horizon", type=int, default=15)
    adj.add_argument("--extrapolation-points", type=int)
    adj.add_argument("--out", required=True)

    sim = sub.add_parser("simulate", help="run the bias/rMSE experiment")
    sim.add_argument("--scenario", help="key=value scenario file")
    sim.add_argument("--dataset", type=int)
    sim.add_argument("--cohort-size", type=int)
    sim.add_argument("--reps", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--horizon", type=int)
    sim.add_argument("--extrapolation-points", type=int)
    sim.add_argument("--years")
    sim.add_argument("--jobs", type=int)
    sim.add_argument("--out", required=True)
    return parser


def _check_adjustment_flags(args, adjusted: bool) -> None:
    """Adjusted runs read one of --incidence and --population, and
    --extrapolation-points (4 when not given); naive runs none of them."""
    if adjusted:
        args.extrapolation_points = 4 if args.extrapolation_points is None else args.extrapolation_points
        if args.extrapolation_points < 2:
            raise UsageError("--extrapolation-points must be at least 2")
    elif args.extrapolation_points is not None:
        raise UsageError("--extrapolation-points applies only to --mode adjusted")
    given = bool(args.incidence) + bool(args.population)
    if given and not adjusted:
        raise UsageError("--incidence and --population apply only to --mode adjusted")
    if given == 2:
        raise UsageError("give one of --incidence and --population, not both")
    if adjusted and not given:
        raise UsageError("adjusted mode needs --incidence or --population")


def _adjustment_engine(args, frame, strata, sizes, life_table, diagnostics):
    """The adjustment engine of the run's inputs and its incidence input for the
    manifest; --population divides the `sizes` of the registry's `strata`,
    (demographics, codes, ages, years) cells, by the person-years."""
    if args.incidence:
        incidence, extra = load_incidence_table(args.incidence), {"incidence": args.incidence}
    else:
        person_years = load_counts(args.population, "person_years")
        incidence, extra = compute_incidence(strata, sizes, person_years, diagnostics), {"population": args.population}
    so = OverallSurvivalProvider.from_registry(
        frame, anchor_points=args.extrapolation_points,
        population_floor=life_table, diagnostics=diagnostics,
    )
    return AdjustmentEngine(life_table, incidence, so, horizon=args.horizon, diagnostics=diagnostics), extra


def cmd_estimate(args) -> int:
    years = _parse_years(args.years)
    if args.horizon < max(years):
        raise UsageError("--horizon must cover the largest report year")
    _check_adjustment_flags(args, args.mode == "adjusted")
    diagnostics = Diagnostics()
    frame = load_registry(args.registry)
    life_table = load_life_table(args.lifetable)
    inputs = {"registry": args.registry, "lifetable": args.lifetable}
    risk = RiskSetSummary(frame)
    if args.mode == "naive":
        grid = diagonal_survival(life_table, risk.cells, args.horizon, diagnostics)
    else:
        engine, extra = _adjustment_engine(args, frame, risk.cells, risk.sizes, life_table, diagnostics)
        inputs.update(extra)
        grid = engine.solve(risk.cells).values
    sp = population_survival(grid, diagnostics)

    out = Path(args.out)
    pp = pohar_perme(risk, sp)
    e1 = ederer1(risk, sp)
    cpd = crude_probability(risk, sp)
    label = "naive-lifetable" if args.mode == "naive" else "adjusted"
    rows = [(name, label, year, value)
            for name, est in (("pohar_perme", pp), ("ederer1", e1), ("crude_probability", cpd))
            for year, value in evaluate_at_years(est, years)]
    write_rows_csv(out / "estimates.csv", ["estimator", "provider", "year", "value"], list(zip(*rows)))
    outputs = ["estimates.csv"]
    if args.curves:
        write_rows_csv(out / "curve_pohar_perme.csv", ["t", "lambda", "e_s"],
                       [pp.times, pp.cum_hazard, np.exp(-pp.cum_hazard)])
        outputs.append("curve_pohar_perme.csv")
    _finish(out, "estimate", _config_echo(args, years=years), inputs, diagnostics, outputs)
    return 0


def cmd_adjust(args) -> int:
    if args.horizon < 1:
        raise UsageError("--horizon must be at least 1")
    _check_adjustment_flags(args, True)
    diagnostics = Diagnostics()
    frame = load_registry(args.registry)
    strata, sizes, _ = build_strata(frame)   # stratified before the tables: the run peaks ~0.1 MiB lower
    demographics, codes, ages, years = strata
    order = key_order(strata)   # the cells sorted as their `StratumKey`s
    cells = demographics, codes, ages, years = (demographics, codes[order], ages[order], years[order])
    life_table = load_life_table(args.lifetable)
    engine, extra = _adjustment_engine(args, frame, strata, sizes, life_table, diagnostics)
    inputs = {"registry": args.registry, "lifetable": args.lifetable, **extra}
    solution = engine.solve(cells)
    sp, alphas, residuals = solution.values, solution.alpha, engine.residuals(solution)
    n, K = len(codes), engine.horizon
    sexes = np.array([demo[0] for demo in demographics], dtype=object)[codes]

    def keyed(width, *columns):
        """The age, year and sex columns, each cell's repeated `width` times, then `columns`."""
        return [np.repeat(column, width) for column in (ages, years, sexes)] + list(columns)

    out = Path(args.out)
    write_rows_csv(out / "adjusted.csv", ["age", "year", "sex", "t", "s_p"],
                   keyed(K + 1, np.tile(np.arange(K + 1), n), sp.ravel()))
    write_rows_csv(out / "alpha.csv", ["age", "year", "sex", "alpha"], keyed(1, alphas))
    write_rows_csv(out / "residuals.csv", ["age", "year", "sex", "t", "r"],
                   keyed(K, np.tile(np.arange(1, K + 1), n), residuals.ravel()))
    _finish(out, "adjust", _config_echo(args), inputs, diagnostics,
            ["adjusted.csv", "alpha.csv", "residuals.csv"])
    return 0


def _read_scenario(path) -> dict:
    values: dict = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


_SCENARIO_KEYS = {
    "dataset": int,
    "cohort_size": int,
    "reps": int,
    "seed": int,
    "horizon": int,
    "extrapolation_points": int,
    "years": str,
    "jobs": int,
}


def cmd_simulate(args) -> int:
    settings: dict = {}
    inputs = {}
    if args.scenario:
        raw = _read_scenario(args.scenario)
        unknown = set(raw) - set(_SCENARIO_KEYS)
        if unknown:
            raise UsageError(f"unknown scenario keys: {sorted(unknown)}")
        for key, conv in _SCENARIO_KEYS.items():
            if key in raw:
                settings[key] = conv(raw[key])
        inputs["scenario"] = args.scenario
    for key, flag in (
        ("dataset", args.dataset), ("cohort_size", args.cohort_size),
        ("reps", args.reps), ("seed", args.seed), ("horizon", args.horizon),
        ("extrapolation_points", args.extrapolation_points),
        ("years", args.years), ("jobs", args.jobs),
    ):
        if flag is not None:
            settings[key] = flag
    kwargs = {}
    for key in ("dataset", "cohort_size", "reps", "horizon", "extrapolation_points"):
        if key in settings:
            kwargs[key] = settings[key]
    if "seed" in settings:
        kwargs["base_seed"] = settings["seed"]
    if "years" in settings:
        kwargs["years"] = _parse_years(str(settings["years"]))
    jobs = settings.get("jobs")
    if jobs is not None and jobs < 1:
        raise UsageError(f"jobs must be at least 1, got {jobs}")
    cfg = ScenarioConfig(**kwargs)
    jobs = jobs or os.cpu_count() or 1
    result = run_experiment(cfg, jobs=jobs)
    out = Path(args.out)
    for name, header, rows in (
        ("table1.csv", ["dataset", "patients_median", "patients_min", "patients_max",
                        "events_median", "events_min", "events_max"], result.count_rows()),
        ("table2.csv", ["dataset", "year", "method", "true", "ave", "pct_bias", "rmse_x100"],
         result.summary_rows()),
    ):
        write_rows_csv(out / name, header, [[row[column] for row in rows] for column in header])
    diagnostics = Diagnostics()
    diagnostics.merge(result.counters)
    config_echo = {
        "dataset": cfg.dataset, "cohort_size": cfg.cohort_size, "reps": cfg.reps,
        "seed": cfg.base_seed, "horizon": cfg.horizon,
        "extrapolation_points": cfg.extrapolation_points,
        "years": list(cfg.years), "jobs": jobs,
        "excluded_replicates": len(result.excluded),
    }
    _finish(out, "simulate", config_echo, inputs, diagnostics, ["table1.csv", "table2.csv"])
    return 0


def _config_echo(args, **extra) -> dict:
    echo = {k: v for k, v in vars(args).items() if k not in ("command", "func") and v is not None}
    for key, value in extra.items():
        echo[key] = list(value) if isinstance(value, tuple) else value
    return echo


def _finish(out: Path, command: str, config: dict, inputs: dict, diagnostics: Diagnostics, outputs: list) -> None:
    manifest = {
        "command": command,
        "config": config,
        "inputs": {name: sha256_file(path) for name, path in inputs.items()},
        "counters": diagnostics.as_dict(),
        "outputs": outputs,
    }
    write_manifest(out / "manifest.json", manifest)


def main(argv=None) -> int:
    level = os.environ.get("NETADJUST_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "estimate":
            return cmd_estimate(args)
        if args.command == "adjust":
            return cmd_adjust(args)
        return cmd_simulate(args)
    except UsageError as exc:
        parser.error(str(exc))
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
