"""One-off reference figures that are not workloads.

    python3 perfbench/reference.py population [--seed 1]
    python3 perfbench/reference.py threads [--seed 1]

``population`` runs one traced, checked pass of the population workload at
10^6 people, the north-star size, too slow to repeat on every check.
``threads`` times ``fit_forest`` with ``threads=1`` and ``threads=2`` on the
bias-demo training matrix, alternating the two five times each, and reports
the medians.
Each prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from run import environment, layer_metrics  # noqa: E402
from tracer import Recorder  # noqa: E402
from workloads import BiasDemo, Population  # noqa: E402

from confound_audit import SplitSpec, SynthConfig, build_encoding, encode_cohort, fit_forest, split_cohort  # noqa: E402
from confound_audit.synth import generate_cohort  # noqa: E402

PEOPLE = 1_000_000
REPEATS = 5


def population(seed: int) -> dict:
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="reference-", dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        workload = Population(seed, tmp)
        workload.N = PEOPLE
        workload.setup()
        rec = Recorder(traced=True)
        start = time.perf_counter()
        out = workload.run_pass(rec, 0)
        pass_s = time.perf_counter() - start
        failures = [m for msgs in workload.check(out, 0) for m in msgs] + workload.run_failures
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    layers = {k: v for k, v in layer_metrics(rec).items() if v}
    return {
        "people": PEOPLE,
        "seed": seed,
        "pass_s": pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failures": failures,
        "layers": layers,
    }


def threads(seed: int) -> dict:
    enrolled, _ = generate_cohort(SynthConfig(**BiasDemo.SYNTH, seed=seed))
    train, _ = split_cohort(enrolled, SplitSpec(train_fraction=0.5, seed=seed))
    x = encode_cohort(train, build_encoding(train, ("features",)))
    y = train.labels()
    times: dict[int, list[float]] = {1: [], 2: []}
    trees = {}
    for i in range(REPEATS):
        for t in ((1, 2) if i % 2 == 0 else (2, 1)):
            start = time.perf_counter()
            model = fit_forest(x, y, n_trees=50, seed=seed, threads=t)
            times[t].append(time.perf_counter() - start)
            trees[t] = model.trees
    med = {t: statistics.median(v) for t, v in times.items()}
    return {
        "matrix": list(x.shape),
        "n_trees": 50,
        "repeats": REPEATS,
        "fit_s": {str(t): v for t, v in times.items()},
        "median_s": {str(t): v for t, v in med.items()},
        "speedup_2_threads": med[1] / med[2],
        "same_trees": trees[1] == trees[2],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("figure", choices=("population", "threads"))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    result = population(args.seed) if args.figure == "population" else threads(args.seed)
    result["environment"] = environment()
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
