"""netsurgeon benchmark: one workload, one seed, one JSON line of results.

    python3 bench/run.py --workload what-if|search|fresh-games --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The benchmark generates the workload's
inputs from the seed, runs the operations in a worker process (worker.py),
checks every answer of a round against dense numpy computations
(oracle.py), and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, op_p50_ms,
op_p90_ms, ops_per_s, peak_rss_mb); with --trace 1 the worker records spans
at netsurgeon's module boundaries and the metrics are the per-layer ones.
The exit code is 0 only when every answer checked out.
"""

from __future__ import annotations

import os
import sys

# Single-threaded BLAS, set before numpy loads here or in any child; the
# exhaustive key-group search gets the worker threads users get by default.
os.environ.update(
    OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
    NETSURGEON_THREADS=str(len(os.sched_getaffinity(0))),
)

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

# setup_s is the median of this many set-ups, each in a fresh process.
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150
FINGERPRINT_RTOL = 1e-12


def _worker(args: list, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, WORKER, *args], cwd=ROOT, capture_output=True, text=True, timeout=timeout
    )


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= FINGERPRINT_RTOL * max(abs(a), abs(b), 1e-300)
    return a == b


def measure(workload: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    plan, inputs = workloads.build(workload, seed, os.path.join(work, "inputs"))
    plan_file = os.path.join(work, "plan.json")
    with open(plan_file, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    outdir = os.path.join(work, "out")
    done = _worker([plan_file, outdir, "--seconds", repr(seconds), "--trace", str(int(trace))],
                   WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    with open(os.path.join(outdir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)

    setups = [result["setup_s"]]
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            extra = _worker([plan_file, "--setup-only"], 60)
            if extra.returncode != 0:
                raise RuntimeError(f"set-up worker exited {extra.returncode}: {extra.stderr.strip()}")
            setups.append(json.loads(extra.stdout.strip().splitlines()[-1])["setup_s"])

    # Independent checks, after the worker has exited.
    problems = []
    ctx = oracle.Context(plan, inputs)
    for k, game in enumerate(plan["games"]):
        if result["labels"][k] != inputs.graphs[game["name"]].labels:
            problems.append(f"game {k}: netsurgeon orders the labels differently")
    outcomes = []
    for k, op in enumerate(plan["ops"]):
        with open(os.path.join(outdir, "answers", f"{k}.pkl"), "rb") as fh:
            answer = pickle.load(fh)
        try:
            outcomes.append(oracle.check(op, answer, ctx))
        except oracle.CheckError as exc:
            outcomes.append("wrong")
            problems.append(f"operation {k} ({_describe(op)}): {exc}")
    first = result["fingerprints"][0]
    for r, prints in enumerate(result["fingerprints"][1:], start=1):
        for k, (a, b) in enumerate(zip(first, prints)):
            if len(a) != len(b) or not all(_same(x, y) for x, y in zip(a, b)):
                problems.append(f"operation {k} ({_describe(plan['ops'][k])}): round {r} differs from round 0")
    rounds = result["rounds"]
    return {
        "result": result,
        "setups": setups,
        "problems": problems,
        "attempted": rounds * len(plan["ops"]),
        "failed": rounds * outcomes.count("failed"),
    }


def _describe(op: dict) -> str:
    if op["kind"] == "cli":
        return " ".join(a for a in op["argv"] if not os.path.isabs(a))
    return op["kind"]


def end_to_end(run: dict) -> dict:
    times = np.asarray(run["result"]["times"])
    # Every round issues the same operations; the median round sets the rate.
    round_s = times.reshape(run["result"]["rounds"], -1).sum(axis=1)
    return {
        "setup_s": {"value": statistics.median(run["setups"]), "unit": "s"},
        "op_p50_ms": {"value": float(np.percentile(times, 50)) * 1e3, "unit": "ms"},
        "op_p90_ms": {"value": float(np.percentile(times, 90)) * 1e3, "unit": "ms"},
        "ops_per_s": {"value": times.size / run["result"]["rounds"] / float(np.median(round_s)),
                      "unit": "1/s"},
        "peak_rss_mb": {"value": run["result"]["peak_rss_kb"] / 1024.0, "unit": "MB"},
    }


LAYER_UNITS = {"calls": "count", "self_s": "s", "factorizations": "count", "rhs_columns": "count",
               "subsets_scored": "count", "frontier_share": "ratio"}


def per_layer(run: dict) -> dict:
    return {
        name: {"value": value, "unit": LAYER_UNITS[name.rsplit(".", 1)[1]]}
        for name, value in run["result"]["layers"].items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "netsurgeon", "__init__.py")):
        print(f"bench: no netsurgeon sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch)
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    for line in run["problems"]:
        print(f"bench: {line}", file=sys.stderr)
    times = run["result"]["times"]
    print(
        f"bench: {args.workload} seed {args.seed}: {len(times)} operations in "
        f"{run['result']['rounds']} rounds, {len(times) / sum(times):.4g} ops/s"
        f"{' (traced)' if args.trace else ''}, {run['failed']} failed",
        file=sys.stderr,
    )
    correct = not run["problems"]
    metrics = per_layer(run) if args.trace else end_to_end(run)
    print(json.dumps({"correct": correct, "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
