"""Shows that the independent checks catch wrong answers.

    python3 bench/selftest.py

Builds small versions of the three workloads, runs each operation once
through netsurgeon in this process, and requires that every genuine answer
passes oracle.check and that every perturbed copy is refused. A copy moves
the largest entry of one numeric field by one part in a thousand; for a
rejected request, the copy turns the rejection into a success. Exits 0 when
both hold.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BUMP = 1e-3

# Small sizes: same generators and checks, a few seconds in all.
workloads.WHAT_IF_GAMES = (("er", 60, 0.5, True), ("er", 80, 0.55, True),
                           ("cp", 70, 0.5, True), ("cp", 90, 0.45, False))
workloads.SEARCH_EXHAUSTIVE_N = (12, 16)
workloads.SEARCH_GREEDY = ((30, 3), (40, 4))
workloads.SEARCH_BRIDGES = (("er", 20, "regular", 12), ("regular", 10, "regular", 12))
workloads.SEARCH_POTENTIAL_N = (10,)
workloads.SEARCH_EXISTING_N = (14,)
workloads.FRESH_ER = tuple((model, fractions, (30,)) for model, fractions, _ in workloads.FRESH_ER)
workloads.FRESH_PATHS = tuple((model, fraction, 40) for model, fraction, _ in workloads.FRESH_PATHS)
workloads.FAULT_PATH_N = 50


def _bump_largest(values):
    arr = np.array(values, dtype=float)
    k = int(np.argmax(np.abs(arr)))
    arr.flat[k] = arr.flat[k] * (1 + BUMP) if arr.flat[k] else BUMP
    return arr


def _bump_json(value):
    """value with one number moved, or None when it holds no float."""
    if isinstance(value, float):
        return value * (1 + BUMP) if value else BUMP
    if isinstance(value, list) and value and all(isinstance(v, float) for v in value):
        return _bump_largest(value).tolist()
    if isinstance(value, list) and value:
        first = _bump_json(value[0])
        return None if first is None else [first] + value[1:]
    if isinstance(value, dict):
        for key, inner in value.items():
            moved = _bump_json(inner)
            if moved is not None:
                return {**value, key: moved}
    return None


def perturbed(answer: dict):
    """Every wrong copy of one answer that the checks must refuse."""
    if "rc" in answer:
        if answer["rc"] != 0:
            yield "rejection turned into success", {"rc": 0, "out": "{}", "err": ""}
            return
        data = json.loads(answer["out"])
        for key in data:
            moved = _bump_json(data[key])
            if moved is not None:
                yield key, {**answer, "out": json.dumps({**data, key: moved})}
        return
    for key, value in answer.items():
        if isinstance(value, np.ndarray) and value.size:
            yield key, {**answer, key: _bump_largest(value)}
        elif isinstance(value, float):
            yield key, {**answer, key: value * (1 + BUMP) if value else BUMP}


def main() -> int:
    genuine_bad, missed, caught = [], [], 0
    with tempfile.TemporaryDirectory() as root:
        for name in workloads.WORKLOADS:
            plan, inputs = workloads.build(name, 1, os.path.join(root, name))
            ns, cli, specs, _, _ = worker.setup(plan, trace=False)
            ctx = oracle.Context(plan, inputs)
            for k, run in enumerate(worker.prepare(ns, cli, plan, specs)):
                op = plan["ops"][k]
                _, answer = run()
                try:
                    oracle.check(op, answer, ctx)
                except oracle.CheckError as exc:
                    genuine_bad.append(f"{name} op {k}: {exc}")
                    continue
                for what, wrong in perturbed(answer):
                    try:
                        outcome = oracle.check(op, wrong, ctx)
                    except oracle.CheckError:
                        caught += 1
                        continue
                    if outcome != "failed":
                        missed.append(f"{name} op {k} ({op.get('kind')}): {what}")
    for line in genuine_bad:
        print(f"genuine answer refused: {line}")
    for line in missed:
        print(f"perturbed answer accepted: {line}")
    print(f"selftest: {caught} perturbed answers refused, {len(missed)} accepted, "
          f"{len(genuine_bad)} genuine answers refused")
    return 0 if caught and not missed and not genuine_bad else 1


if __name__ == "__main__":
    sys.exit(main())
