"""netadjust benchmark: runs one workload, checks its outputs, prints metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a netadjust checkout; the package is imported from
`src/`.  Each workload is a closed loop with one client: one kind of
operation back to back, whole operations, until `--seconds` have passed.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  `--smoke` runs every
workload in both modes on small inputs.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
import reference
from tracing import Tracer, profile, read_profile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("study", "registry_adjusted", "registry_naive", "registry_export")
SETUP_REPEATS = 7
STUDY_BATCH = 10          # replicates per run_experiment call
TOLERANCE_SE = 5.0        # Pohar-Perme vs closed form, in standard errors
NULL_IDENTITY_TOL = 1e-12

# Per-layer metrics, reported by every workload with --trace 1.
SELF_S = [
    "simulation.generate_cohort", "simulation.derive_tables", "simulation.make_registry",
    "io.load_registry", "io.write_rows_csv",
    "lifetable.load_life_table",
    "incidence.load_incidence_table", "incidence.prevalence", "incidence.time_to_diagnosis_increments",
    "registry.build_strata", "registry.merge_small_strata", "registry.kaplan_meier",
    "extrapolation.extend_survival",
    "survival_provider.from_registry", "survival_provider.survival",
    "adjustment.solve", "adjustment.residuals",
    "estimators.pohar_perme", "estimators.ederer1", "estimators.crude_probability",
    "estimators.risk_set", "estimators.evaluate",
    "cli.command",
]
CALLS = [
    "lifetable.diagonal_survival", "incidence.prevalence", "extrapolation.cumulative_hazard_at",
    "survival_provider.survival", "adjustment.solve", "adjustment.ingredient",
]
COUNTS = ["io.bytes_written", "survival_provider.survival.points", "estimators.risk_matrix_cells"]
DIAGNOSTICS = ["so_population_cap", "grid_extended_eval", "lifetable_clamp", "stratum_merge"]

_ESTIMATE_LAYERS = [
    "cli.command", "io.load_registry", "io.write_rows_csv", "lifetable.load_life_table",
    "lifetable.diagonal_survival", "estimators.pohar_perme", "estimators.ederer1",
    "estimators.crude_probability", "estimators.risk_set", "estimators.evaluate",
]
_ADJUST_LAYERS = [
    "incidence.load_incidence_table", "incidence.prevalence", "incidence.time_to_diagnosis_increments",
    "registry.build_strata", "registry.merge_small_strata", "registry.kaplan_meier",
    "extrapolation.extend_survival", "extrapolation.cumulative_hazard_at",
    "survival_provider.from_registry", "survival_provider.survival",
    "adjustment.solve", "adjustment.ingredient",
]
# Layers each workload must reach; a traced run where one records no call fails.
EXERCISED = {
    "study": [
        "simulation.generate_cohort", "simulation.derive_tables", "simulation.make_registry",
        "lifetable.diagonal_survival", "estimators.pohar_perme", "estimators.risk_set",
    ] + [n for n in _ADJUST_LAYERS if n != "incidence.load_incidence_table"],
    "registry_naive": _ESTIMATE_LAYERS,
    "registry_adjusted": _ESTIMATE_LAYERS + _ADJUST_LAYERS,
    "registry_export": [
        "cli.command", "io.load_registry", "io.write_rows_csv", "lifetable.load_life_table",
        "lifetable.diagonal_survival", "adjustment.residuals",
    ] + _ADJUST_LAYERS,
}


def note(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["NETADJUST_LOG"] = "WARNING"
    # Whether the kernel can back numpy's large arrays with huge pages depends
    # on the whole machine's memory fragmentation; with numpy's default
    # advice, identical naive-estimate runs differed by up to 25 %.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return env


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_seconds(files, repeats: int) -> float:
    """Median wall time of a fresh process importing the CLI and loading
    `files`; one untimed warm-up first compiles the bytecode."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), *map(str, files)]
    samples = []
    for i in range(repeats + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL)
        if i:
            samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def end_to_end(setup_s, op_times, ops_done, elapsed) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(op_times), "s"),
        "ops_per_s": (ops_done / elapsed, "1/s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }


def per_layer(self_totals: dict, n_ops: int, first, counters: dict, overhead: float) -> dict:
    """Self times are per operation, averaged over the traced operations;
    counts are those of the first traced operation, so they repeat exactly."""
    m = {f"{n}.self_s": (self_totals.get(n, 0.0) / n_ops, "s") for n in SELF_S}
    m.update({f"{n}.calls": (first.call_count(n), "count") for n in CALLS})
    m.update({n: (first.counts.get(n, 0), "count") for n in COUNTS})
    m.update({f"diagnostics.{n}": (int(counters.get(n, 0)), "count") for n in DIAGNOSTICS})
    m["trace.overhead_s"] = (overhead, "s")
    return m


def require_exercised(workload: str, first) -> None:
    silent = [n for n in EXERCISED[workload] if first.call_count(n) == 0]
    if silent:
        raise RuntimeError(f"traced {workload} recorded no calls in: {', '.join(silent)}")


def add_self(totals: dict, prof) -> None:
    for name, value in prof.self_s.items():
        totals[name] = totals.get(name, 0.0) + value


# --------------------------------------------------------------------- study

def run_study(seed: int, seconds: float, trace: bool, small: bool):
    from netadjust import simulation
    from netadjust.simulation import ScenarioConfig, run_experiment

    batch = 4 if small else STUDY_BATCH
    base_seed = seed * 10_000
    setup_s = None if trace else setup_seconds([], 1 if small else SETUP_REPEATS)

    tracer = Tracer() if trace else None
    op_times = {False: [], True: []}
    state = {"traced": False, "first": None}
    original = simulation.run_replicate

    def timed_replicate(*args, **kwargs):
        mark = tracer.snapshot() if state["traced"] and state["first"] is None else None
        t0 = time.perf_counter()
        try:
            out = original(*args, **kwargs)
        finally:
            op_times[state["traced"]].append(time.perf_counter() - t0)
        if mark is not None:
            state["first"] = (tracer.since(mark), out["counters"])
        return out

    attempted = failed = 0
    results, traced_results, failures = [], [], []
    self_totals: dict = {}
    simulation.run_replicate = timed_replicate
    try:
        t_start = time.perf_counter()
        b = 0
        while True:
            traced = trace and b % 2 == 1
            # in a traced run each traced batch repeats the untraced one before it
            index = b // 2 if trace else b
            cfg = ScenarioConfig(dataset=2, reps=batch, base_seed=base_seed + index * batch)
            if traced:
                tracer.reset()
                tracer.install()
                state["traced"] = True
            try:
                res = run_experiment(cfg, methods=("naive", "adjusted"), jobs=1)
            except RuntimeError as exc:       # every replicate of the batch failed
                note(str(exc))
                res = None
            finally:
                if traced:
                    tracer.uninstall()
                    state["traced"] = False
                    add_self(self_totals, profile(tracer.names, tracer.starts, tracer.ends,
                                                  tracer.parents, tracer.counts))
            attempted += batch
            failed += batch if res is None else len(res.excluded)
            if res is not None:
                (traced_results if traced else results).append(res)
            b += 1
            if time.perf_counter() - t_start >= seconds and (not trace or b % 2 == 0):
                break
        elapsed = time.perf_counter() - t_start
    finally:
        simulation.run_replicate = original

    failures += study_checks(results, cfg.years)
    if trace:
        for plain, traced_res in zip(results, traced_results):
            if any(not np.array_equal(plain.estimates[m], traced_res.estimates[m]) for m in plain.methods):
                failures.append("traced replicates differ from untraced ones")
                break
    for f in failures:
        note(f"check failed: {f}")
    untraced = op_times[False]
    note(f"study: {len(untraced)} untraced replicates, {len(op_times[True])} traced, "
         f"{failed} failed, {elapsed:.1f} s")
    if not trace:
        if len(untraced) >= 200:
            note(f"op_p95_s = {float(np.percentile(untraced, 95)):.6f}")
        return not failures, attempted, failed, end_to_end(
            setup_s, untraced, len(untraced) - failed, elapsed)
    if state["first"] is None:
        raise RuntimeError("no traced replicate completed")
    first, counters = state["first"]
    require_exercised("study", first)
    overhead = statistics.median(op_times[True]) - statistics.median(untraced)
    tracer.write(WORK / "spans-study.json")       # spans of the last traced batch
    return not failures, attempted, failed, per_layer(
        self_totals, len(op_times[True]), first, counters, overhead)


def study_checks(results, years) -> list[str]:
    if not results:
        return ["no replicate completed"]
    failures = []
    truth = reference.ds2_net_survival(years)
    bias = {}
    for method in ("naive", "adjusted"):
        est = np.vstack([r.estimates[method] for r in results])
        if not np.isfinite(est).all() or (est <= 0).any() or (est > 1).any():
            failures.append(f"{method} estimates outside (0, 1]")
        if (np.diff(est, axis=1) > 0).any():
            failures.append(f"{method} estimates increase across years")
        bias[method] = {y: float(est[:, j].mean()) - truth[float(y)] for j, y in enumerate(years)}
    if not bias["naive"][10.0] > 0:
        failures.append(f"naive bias at year 10 is {bias['naive'][10.0]:+.4f}, expected positive")
    for y in (5.0, 7.0, 10.0):
        if not abs(bias["adjusted"][y]) < abs(bias["naive"][y]):
            failures.append(f"adjusted |bias| {abs(bias['adjusted'][y]):.4f} not below naive "
                            f"{abs(bias['naive'][y]):.4f} at year {y:g}")
    return failures


# ------------------------------------------------------------------ registry

def cli_argv(workload: str, paths: dict, out: Path) -> list[str]:
    common = ["--registry", str(paths["registry"]), "--lifetable", str(paths["lifetable"])]
    if workload == "registry_naive":
        return ["estimate", *common, "--mode", "naive", "--out", str(out)]
    incidence = ["--incidence", str(paths["incidence"])]
    if workload == "registry_adjusted":
        return ["estimate", *common, *incidence, "--mode", "adjusted", "--out", str(out)]
    return ["adjust", *common, *incidence, "--out", str(out)]


def run_cli(argv, log: Path, spans: Path | None = None) -> tuple[float, int]:
    """One command in its own process; returns (wall seconds, exit code)."""
    if spans is None:
        cmd = [sys.executable, "-m", "netadjust.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), "--", *argv]
    with log.open("w") as err:
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        dt = time.perf_counter() - t0
    if proc.returncode != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-1:]
        note(f"netadjust {argv[0]} exited with {proc.returncode}: {' '.join(tail)}")
    return dt, proc.returncode


def output_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out.glob("*.csv")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def read_rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_estimates(out: Path) -> dict:
    return {(r["estimator"], float(r["year"])): float(r["value"])
            for r in read_rows(out / "estimates.csv")}


def estimate_checks(est: dict, reg, paths) -> list[str]:
    """Pohar-Perme within TOLERANCE_SE standard errors of the closed-form net
    survival, and crude cancer probability at most 1 - pooled Kaplan-Meier."""
    years = inputs.REPORT_YEARS
    failures = []
    se = reference.pohar_perme_se(reg, years)
    km = reference.pooled_kaplan_meier(paths["registry"], years)
    pp = [est.get(("pohar_perme", y), float("nan")) for y in years]
    if not all(0.0 < v <= 1.0 for v in pp) or any(b > a for a, b in zip(pp, pp[1:])):
        failures.append(f"Pohar-Perme values {pp} not non-increasing in (0, 1]")
    for y, v in zip(years, pp):
        truth = reg.net_survival(y)
        if not abs(v - truth) <= TOLERANCE_SE * se[y]:
            failures.append(f"Pohar-Perme {v:.4f} at year {y:g} vs closed form {truth:.4f} "
                            f"(tolerance {TOLERANCE_SE * se[y]:.4f})")
    for y in years:
        e1 = est.get(("ederer1", y), float("nan"))
        if not (np.isfinite(e1) and e1 > 0):
            failures.append(f"Ederer I {e1} at year {y:g} not finite and positive")
        c = est.get(("crude_probability", y), float("nan"))
        if not (0.0 <= c <= 1.0 - km[y] + 1e-9):
            failures.append(f"crude probability {c:.4f} at year {y:g} outside [0, 1 - KM] "
                            f"(KM {km[y]:.4f})")
    return failures


def export_checks(out: Path, reg) -> list[str]:
    failures = []
    strata = {(int(a), int(y), inputs.SEXES[s]) for a, y, s in zip(reg.age, reg.year, reg.sex)}
    grids: dict = {}
    for r in read_rows(out / "adjusted.csv"):
        grids.setdefault((int(r["age"]), int(r["year"]), r["sex"]), []).append(
            (int(r["t"]), float(r["s_p"])))
    if set(grids) != strata:
        failures.append(f"adjusted.csv covers {len(grids)} strata, the registry has {len(strata)}")
    for key, rows in grids.items():
        ts = [t for t, _ in rows]
        v = np.array([s for _, s in rows])
        if ts != list(range(inputs.HORIZON + 1)):
            failures.append(f"stratum {key}: s_p rows for t={ts[:3]}..., expected 0..{inputs.HORIZON}")
        elif v[0] != 1.0 or (np.diff(v) > 0).any() or (v <= 0).any() or (v > 1).any():
            failures.append(f"stratum {key}: s_p not 1 at 0, non-increasing in (0, 1]")
        if len(failures) > 5:
            break
    alpha = [float(r["alpha"]) for r in read_rows(out / "alpha.csv")]
    if len(alpha) != len(strata) or not all(0.0 <= a < 1.0 for a in alpha):
        failures.append("alpha.csv: one row per stratum with alpha in [0, 1) expected")
    return failures


def null_identity_check(paths, work: Path) -> list[str]:
    """Adjusted mode with an all-zero incidence file reproduces naive mode."""
    naive_out, zero_out = work / "out_naive", work / "out_zero"
    zero_paths = {**paths, "incidence": paths["incidence_zero"]}
    for workload, argv_paths, out in (("registry_naive", paths, naive_out),
                                      ("registry_adjusted", zero_paths, zero_out)):
        _, code = run_cli(cli_argv(workload, argv_paths, out), work / "check.log")
        if code != 0:
            return [f"null-adjustment check: {workload} run failed"]
    naive, zero = read_estimates(naive_out), read_estimates(zero_out)
    gap = max(abs(naive[k] - zero[k]) for k in naive) if naive.keys() == zero.keys() else float("inf")
    return [] if gap <= NULL_IDENTITY_TOL else [f"null-adjustment identity gap {gap:.3e}"]


def run_registry(workload: str, seed: int, seconds: float, trace: bool, small: bool):
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        reg = inputs.generate(seed, inputs.SMOKE if small else inputs.FULL)
        paths = inputs.write_inputs(reg, work / "inputs")
        files = [paths["registry"], paths["lifetable"]]
        if workload != "registry_naive":
            files.append(paths["incidence"])
        setup_s = None if trace else setup_seconds(files, 1 if small else SETUP_REPEATS)

        out = work / "out"
        argv = cli_argv(workload, paths, out)
        spans = WORK / f"spans-{workload}.json"
        op_times = {False: [], True: []}
        attempted = failed = 0
        digest, first, counters = None, None, {}
        self_totals: dict = {}
        failures = []
        t_start = time.perf_counter()
        i = 0
        while True:
            traced = trace and i % 2 == 1
            dt, code = run_cli(argv, work / "op.log", spans if traced else None)
            attempted += 1
            op_times[traced].append(dt)
            if code != 0:
                failed += 1
            else:
                d = output_digest(out)
                if digest is None:
                    digest = d
                elif d != digest and "outputs differ between operations" not in failures:
                    failures.append("outputs differ between operations")
                if traced:
                    prof = read_profile(spans)
                    add_self(self_totals, prof)
                    if first is None:
                        first = prof
                        counters = json.loads((out / "manifest.json").read_text())["counters"]
            i += 1
            if time.perf_counter() - t_start >= seconds and (not trace or i % 2 == 0):
                break
        elapsed = time.perf_counter() - t_start

        if digest is None:
            failures.append("no operation succeeded")
        elif workload == "registry_export":
            failures += export_checks(out, reg)
        else:
            failures += estimate_checks(read_estimates(out), reg, paths)
            if workload == "registry_adjusted":
                failures += null_identity_check(paths, work)
        for f in failures:
            note(f"check failed: {f}")
        note(f"{workload}: {len(op_times[False])} untraced operations, {len(op_times[True])} traced, "
             f"{failed} failed, {elapsed:.1f} s")
        if not trace:
            return not failures, attempted, failed, end_to_end(
                setup_s, op_times[False], attempted - failed, elapsed)
        if first is None:
            raise RuntimeError("no traced operation completed")
        require_exercised(workload, first)
        overhead = statistics.median(op_times[True]) - statistics.median(op_times[False])
        return not failures, attempted, failed, per_layer(
            self_totals, len(op_times[True]), first, counters, overhead)
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------- main

def run_workload(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    runner = run_study if workload == "study" else (
        lambda *a: run_registry(workload, *a))
    correct, attempted, failed, metrics = runner(seed, seconds, trace, small)
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def smoke() -> int:
    """Every workload, both modes, small inputs, one operation each."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_workload(workload, seed=1, seconds=0, trace=trace, small=True)
            print(f"{workload} trace={int(trace)}: {json.dumps(result)}", flush=True)
            ok = ok and result["correct"] and result["failed"] == 0
    print("smoke:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload on small inputs")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "netadjust" / "__init__.py").is_file():
        note(f"no package source at {SRC / 'netadjust'}; run from the root of a netadjust checkout")
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    if args.smoke:
        return smoke()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
