"""Runs one workload's operations against netsurgeon, in its own process.

    python3 bench/worker.py PLAN OUTDIR --seconds S --trace 0|1
    python3 bench/worker.py PLAN --setup-only

The process imports netsurgeon, loads and certifies the games the plan's
operations share (set-up), runs a few untimed warm-up operations, then
repeats whole rounds of the plan's operations until at least S seconds have
passed and at least MIN_OPS operations were timed. Each operation is timed
alone, in a closed loop with one client, by the CPU time the process spends
in it (all threads). On a shared virtual machine wall time also counts the
time the hypervisor hands the CPU to other guests, which moved single
operations by up to 40% on the 2-core machine the figures in README.md come
from; CPU time leaves that out. Round 0's answers are saved for the
independent checks; later rounds save a fingerprint that must match round 0. The process's peak resident memory is read before it exits, so it
covers set-up and the operations and nothing the checks do.

Only the standard library is imported before the set-up clock starts.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import pickle
import sys
import time

# p90 needs at least ten operations beyond it.
MIN_OPS = 110

clock = time.process_time


def setup(plan: dict, trace: bool):
    """Import netsurgeon and certify the shared games; returns the pieces
    the operations need and the set-up time in CPU seconds."""
    start = clock()
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    import netsurgeon as ns
    from netsurgeon import cli

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    specs = []
    for game in plan["games"]:
        net = ns.load_network(game["file"])
        specs.append(ns.certify(net, game["delta"], game["theta"]))
    return ns, cli, specs, tracer, clock() - start


def _labels(nodes) -> list[str]:
    return [str(i) for i in nodes]


def prepare(ns, cli, plan: dict, specs: list) -> list:
    """One callable per operation, returning (seconds, answer)."""
    import numpy as np

    def timed_library(call, extract):
        def run():
            start = clock()
            result = call()
            elapsed = clock() - start
            return elapsed, extract(result)

        return run

    def timed_cli(argv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            start = clock()
            rc = cli.run(argv, out, err)
            elapsed = clock() - start
            return elapsed, {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}

        return run

    def effect(r):
        return {"post_b": r.post_b, "delta_x": r.delta_x, "delta_aggregate": r.delta_aggregate}

    def group(r):
        return {"value": r.intercentrality, "direct": r.direct_effect, "indirect": r.indirect_effect}

    def link(r):
        return {"i": r.i, "j": r.j, "kind": r.kind, "value": r.value}

    def walk(r):
        return {
            "excluded": list(r.excluded.members), "kept": list(r.kept.members),
            "kk": r.kept_kept, "ke": r.kept_excluded, "ek": r.excluded_kept, "ee": r.excluded_excluded,
        }

    runs = []
    for op in plan["ops"]:
        kind = op["kind"]
        if kind == "cli":
            runs.append(timed_cli(op["argv"]))
            continue
        spec = specs[op["game"]]
        net = spec.network
        civ = iv = None
        if "dtheta" in op:
            civ = ns.CharacteristicIntervention.from_pairs(net, op["dtheta"])
        if "add" in op:
            iv = ns.StructuralIntervention.from_label_pairs(
                net, add=[_labels(e) for e in op["add"]], remove=[_labels(e) for e in op["remove"]]
            )
        if kind == "characteristic":
            call, extract = (lambda s=spec, c=civ: ns.characteristic_effect(s, c)), effect
        elif kind == "structural":
            call, extract = (lambda s=spec, c=iv: ns.structural_effect(s, c)), effect
        elif kind == "hybrid":
            call, extract = (lambda s=spec, c=iv, d=civ: ns.hybrid_effect(s, c, d)), effect
        elif kind == "intercentrality":
            nodes = ns.NodeSet.of_labels(net, _labels(op["group"]))
            call, extract = (lambda s=spec, g=nodes: ns.intercentrality(s, g)), group
        elif kind == "link_value_existing":
            u, v = _labels(op["pair"])
            call, extract = (lambda s=spec, u=u, v=v: ns.link_value_existing(s, u, v)), link
        elif kind == "link_value_potential":
            u, v = _labels(op["pair"])
            call, extract = (lambda s=spec, u=u, v=v: ns.link_value_potential(s, u, v)), link
        elif kind == "walk_matrix":
            nodes = ns.NodeSet.of_labels(net, _labels(op["excluded"]))
            call, extract = (lambda s=spec, e=nodes: ns.walk_matrix(s, e)), walk
        elif kind == "avoidance_block":
            a = ns.NodeSet.of_labels(net, _labels(op["a"]))
            b = ns.NodeSet.of_labels(net, _labels(op["b"]))
            call, extract = (lambda s=spec, a=a, b=b: ns.avoidance_block(s, a, b)), (
                lambda r: {"block": np.asarray(r)}
            )
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
        runs.append(timed_library(call, extract))
    return runs


def fingerprint(answer: dict) -> list:
    """Small summary of an answer; equal answers give equal fingerprints."""
    import numpy as np

    out = []
    for key in sorted(answer):
        value = answer[key]
        if isinstance(value, np.ndarray):
            flat = value.ravel()
            out += [float(flat.sum()), float(np.abs(flat).max(initial=0.0)), float(flat[::7].sum())]
        elif isinstance(value, (float, np.floating)):
            out.append(float(value))
        else:
            out.append(hashlib.sha256(repr(value).encode()).hexdigest())
    return out


def peak_rss() -> int:
    """High-water resident set of this process's own address space, in kB.

    Not ru_maxrss: Linux carries that across execve, so it would report the
    benchmark parent's memory whenever the parent was the larger."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("outdir", nargs="?")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)

    ns, cli, specs, tracer, setup_s = setup(plan, bool(args.trace))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_trace = tracer.take() if tracer else None

    runs = prepare(ns, cli, plan, specs)
    for k in plan["warmup"]:
        runs[k]()
    if tracer:
        tracer.take()

    answers_dir = os.path.join(args.outdir, "answers")
    os.makedirs(answers_dir, exist_ok=True)
    times, prints = [], []
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < args.seconds or len(times) < MIN_OPS:
        round_prints = []
        for k, run in enumerate(runs):
            elapsed, answer = run()
            times.append(elapsed)
            round_prints.append(fingerprint(answer))
            if rounds == 0:
                with open(os.path.join(answers_dir, f"{k}.pkl"), "wb") as fh:
                    pickle.dump(answer, fh, protocol=5)
            del answer  # not held through the next operation's peak
        prints.append(round_prints)
        rounds += 1
    peak_rss_kb = peak_rss()

    result = {
        "setup_s": setup_s,
        "rounds": rounds,
        "times": times,
        "fingerprints": prints,
        "peak_rss_kb": peak_rss_kb,
        "labels": [list(spec.network.labels) for spec in specs],
    }
    if tracer:
        import tracing

        result["layers"] = tracing.layer_metrics(setup_trace, tracer.take(), rounds)
    with open(os.path.join(args.outdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
