"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload {bias-demo,population,inference}
        --seed N --seconds S --trace {0,1}

Run from the repository root. The program is imported from ``src/`` of the
same checkout. With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead. Every time is scaled to a fixed
host speed by ``hostspeed``. Each run also writes a result record to
``.bench_results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from hostspeed import HostClock

STARTED = time.perf_counter()
# one thread: keep numpy's and scipy's BLAS pools from starting workers
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
# times the same imports as import_program, in a fresh interpreter
IMPORT_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:]; import hostspeed\n"
    "with hostspeed.HostClock().measure() as timing:\n"
    "    import confound_audit, workloads\n"
    "print(timing.seconds)"
)

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
STAGES = ("synth_s", "select_s", "csv_write_s", "csv_read_s", "eval_s", "utility_s", "probe_s")
SPANS = (
    "synth.generate_population",
    "synth.enrol.symptoms_based",
    "synth.enrol.random",
    "synth.enrol.matched",
    "cohort.validate_cohort",
    "cohort.split_cohort",
    "cohort.write_cohort",
    "cohort.write_features",
    "cohort.load_cohort",
    "cohort.load_features",
    "matching.match_exact",
    "resample.resample_general_population",
    "forest.encode_cohort",
    "forest.fit_forest",
    "forest.predict_matrix",
    "metrics.auc_ci.delong",
    "metrics.auc_ci.hanley_mcneil",
    "metrics.delong_test",
    "metrics.roc_curve",
    "metrics.pr_auc",
    "metrics.mwu_test.normal",
    "metrics.mwu_test.exact",
    "metrics.calibration_bins",
    "metrics.stratified_auc",
    "utility.max_eu_curve",
    "probes.weak_robust_curate",
    "probes.nn_substitute",
    "report.emit_figure",
    "report.write",
)
COUNTS = (
    "synth.people",
    "synth.enrolled",
    "cohort.csv_bytes",
    "matching.strata",
    "resample.drawn",
    "forest.nodes",
    "metrics.pairs",
    "metrics.roc_points",
    "utility.eu_evaluations",
    "probes.distance_pairs",
)


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in STAGES}
    units.update({name + ".s": "s" for name in SPANS})
    units["pipeline.self.s"] = "s"
    units.update(dict.fromkeys(COUNTS, "count"))
    units["matching.kept_fraction"] = "fraction"
    units.update({"trace.pass_s": "s", "trace.untraced_pass_s": "s", "trace.overhead": "fraction"})
    return units


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program(host: HostClock):
    """Import the program from this checkout's ``src/`` and the workloads;
    returns the workload table and the scaled import time."""
    if not os.path.isfile(os.path.join(SRC, "confound_audit", "__init__.py")):
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, SRC)
    with host.measure() as timing:
        import confound_audit
        from workloads import WORKLOADS

    if os.path.dirname(os.path.abspath(confound_audit.__file__)) != os.path.join(SRC, "confound_audit"):
        raise SystemExit(f"perfbench: imported confound_audit from {confound_audit.__file__}, not {SRC}")
    return WORKLOADS, timing.seconds


def fresh_import_times(n: int) -> list[float]:
    """Scaled import time of the program and the workloads in ``n`` fresh
    interpreters, one after another."""
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, SRC, HERE],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(proc.stdout))
    return times


def layer_metrics(rec, scale: float = 1.0) -> dict[str, float]:
    """Per-layer values of one traced pass, its times multiplied by
    ``scale``; a layer the pass does not reach reads 0."""
    values = {name: rec.stages.get(name, 0.0) * scale for name in STAGES}
    values.update({name + ".s": rec.total.get(name, 0.0) * scale for name in SPANS})
    values["pipeline.self.s"] = rec.self_time.get("pipeline.run_pipeline", 0.0) * scale
    values.update({name: rec.counts.get(name, 0.0) for name in COUNTS})
    kept, total = rec.counts.get("matching.kept", 0.0), rec.counts.get("matching.in", 0.0)
    values["matching.kept_fraction"] = kept / total if total else 0.0
    return values


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    host = HostClock()
    workloads, import_s = import_program(host)
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads)}", file=sys.stderr)
        return 2
    from tracer import Recorder

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # still remove the scratch directory
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        imports = [import_s] + fresh_import_times(SETUP_REPEATS - 1)
        workload = workloads[args.workload](args.seed, tmp)
        builds = []
        for _ in range(SETUP_REPEATS):
            with host.measure() as timing:
                workload.setup()
            builds.append(timing.seconds)
        setup_s = statistics.median(imports) + statistics.median(builds)

        walls = {False: [], True: []}  # scaled pass times
        raw = []  # (traced, time outside the slices, mean time of each slice kind) per pass
        layers, stages, failures = [], [], []
        attempted = failed = 0
        n_ops = len(workload.OPS)
        start = time.perf_counter()
        index = 0
        while True:
            # a traced run alternates untraced and traced passes, swapping
            # which comes first in each pair
            traced = bool(args.trace) and (index % 2 != (index // 2) % 2)
            rec = Recorder(traced, clock=host.now)
            gc.collect()  # every pass starts without the previous pass's garbage
            try:
                with host.measure() as timing:
                    out = workload.run_pass(rec, index)
                results = workload.check(out, index)
            except Exception as exc:  # a pass that raises fails each of its operations
                results = [[f"{type(exc).__name__}: {exc}"]] * n_ops
            out = None  # free this pass's outputs before the next pass
            if len(results) != n_ops:
                raise RuntimeError(f"{args.workload} checked {len(results)} operations, declares {n_ops}")
            attempted += n_ops
            for op, messages in zip(workload.OPS, results):
                if messages:
                    failed += 1
                    failures.append(f"pass {index} {op}: {messages[0]}")
            walls[traced].append(timing.seconds)
            raw.append((traced, timing.work_s, timing.slice_s))
            stages.append({name: value * timing.scale for name, value in rec.stages.items()})
            if traced:
                layers.append(layer_metrics(rec, timing.scale))
            index += 1
            if time.perf_counter() - start >= args.seconds and (not args.trace or index % 2 == 0):
                break
        run_failures = list(getattr(workload, "run_failures", None) or [])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        units = per_layer_units()
        values = {name: statistics.median(layer[name] for layer in layers) for name in units if name in layers[0]}
        values["trace.pass_s"] = statistics.median(walls[True])
        values["trace.untraced_pass_s"] = statistics.median(walls[False])
        values["trace.overhead"] = values["trace.pass_s"] / values["trace.untraced_pass_s"] - 1.0
    else:
        units = END_TO_END
        values = {"setup_s": setup_s, "pass_s": statistics.median(walls[False]), "peak_rss_mb": peak_rss_mb}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    for line in (failures + run_failures)[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not run_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    write_record(args, result, walls, raw, stages, setup_s, imports, builds, peak_rss_mb, failures + run_failures)
    print(json.dumps(result))
    return 0


def write_record(args, result, walls, raw, stages, setup_s, imports, builds, peak_rss_mb, failures) -> None:
    """One JSON record per run under ``.bench_results/``."""
    out_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **result,
        "failures": failures,
        "setup_s": setup_s,
        "import_s": imports,
        "build_s": builds,
        "peak_rss_mb": peak_rss_mb,
        "untraced_pass_s": walls[False],
        "traced_pass_s": walls[True],
        "unscaled_passes": [{"traced": t, "work_s": w, "slice_s": s} for t, w, s in raw],
        "stages_per_pass": stages,
        "environment": environment(),
        "run_s": time.perf_counter() - STARTED,
    }
    if args.trace:
        untraced = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace0.json")
        if os.path.exists(untraced):
            with open(untraced, encoding="utf-8") as fh:
                base = json.load(fh)["metrics"]["pass_s"]["value"]
            record["overhead_vs_untraced_run"] = result["metrics"]["trace.pass_s"]["value"] / base - 1.0
    with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
