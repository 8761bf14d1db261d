"""Reference figures for bench/README.md, not benchmark metrics.

    python3 bench/reference.py

Times (wall and CPU seconds), once each with single-threaded BLAS, the rows
the ROADMAP baseline names: spectral_radius on the 1000-node path,
exhaustive key-group at k=2 on ER n=400 with 1 and 2 workers, link-value
--all-potential on ER n=100, greedy key-group at k=5 on ER n=1000, one
structural_effect on ER n=1000, and one `python3 -m netsurgeon centrality`
subprocess on a 10-node graph (the CLI's cold start, median of 5).
"""

from __future__ import annotations

import io
import os
import resource
import subprocess
import sys
import tempfile
import time

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402

import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import netsurgeon as ns  # noqa: E402
from netsurgeon import cli  # noqa: E402


def seconds(fn) -> tuple[float, float]:
    """Wall and CPU seconds of fn(), CPU time of waited-for children included."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    wall, cpu = time.perf_counter(), time.process_time()
    fn()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    child_cpu = after.ru_utime + after.ru_stime - children.ru_utime - children.ru_stime
    return time.perf_counter() - wall, time.process_time() - cpu + child_cpu


def network(g) -> ns.Network:
    return ns.parse_edge_list(workloads.edge_list_text(g))


def main() -> int:
    rng = np.random.default_rng(0)
    rows = []
    path = network(workloads.make_graph(workloads.path(1000)))
    rows.append(("spectral_radius, path n=1000", seconds(lambda: ns.spectral_radius(path))))

    er400 = network(workloads.make_graph(workloads.erdos_renyi(rng, 400)))
    spec = ns.certify(er400, 0.5 / ns.spectral_radius(er400))
    for workers in (1, 2):
        rows.append((f"key_group_exhaustive k=2, ER n=400, workers={workers}",
                     seconds(lambda: ns.key_group_exhaustive(spec, 2, workers=workers))))

    with tempfile.TemporaryDirectory() as tmp:
        g100 = workloads.make_graph(workloads.erdos_renyi(rng, 100))
        graph_file = os.path.join(tmp, "er100.txt")
        with open(graph_file, "w", encoding="utf-8") as fh:
            fh.write(workloads.edge_list_text(g100))
        argv = ["link-value", "--graph", graph_file, "--delta", repr(0.5 / (g100.lam + 1)),
                "--all-potential"]
        rows.append(("link-value --all-potential, ER n=100 (cli.run)",
                     seconds(lambda: cli.run(argv, io.StringIO(), io.StringIO()))))

        small = os.path.join(tmp, "small.txt")
        with open(small, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{i} {i + 1}\n" for i in range(9)))
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        command = [sys.executable, "-m", "netsurgeon", "centrality", "--graph", small, "--delta", "0.1"]
        subprocess.run(command, env=env, check=True, capture_output=True)
        cold = [seconds(lambda: subprocess.run(command, env=env, check=True, capture_output=True))
                for _ in range(5)]
        rows.append(("CLI cold start, one subprocess command (median of 5)",
                     tuple(np.median(cold, axis=0).tolist())))

    er1000 = network(workloads.make_graph(workloads.erdos_renyi(rng, 1000)))
    spec = ns.certify(er1000, 0.5 / ns.spectral_radius(er1000))
    rows.append(("key_group_greedy k=5, ER n=1000", seconds(lambda: ns.key_group_greedy(spec, 5))))
    spec.solve(np.ones(spec.n))
    absent = next((str(i), str(j)) for i in range(1000) for j in range(i + 1, 1000)
                  if not er1000.adjacency[i, j])
    iv = ns.StructuralIntervention.from_label_pairs(er1000, add=[absent])
    rows.append(("structural_effect, one link, ER n=1000",
                 seconds(lambda: ns.structural_effect(spec, iv))))

    print("   wall s    CPU s")
    for name, (wall, cpu) in rows:
        print(f"{wall:8.3f} {cpu:8.3f}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
