import os
import subprocess
import sys

import netsurgeon


def test_every_export_resolves_and_star_imports():
    assert [name for name in netsurgeon.__all__ if not hasattr(netsurgeon, name)] == []
    assert len(set(netsurgeon.__all__)) == len(netsurgeon.__all__)
    namespace = {}
    exec("from netsurgeon import *", namespace)
    assert set(netsurgeon.__all__) <= namespace.keys()


def test_import_leaves_scipy_sparse_unloaded():
    # Only walk queries and the congestion model pay scipy.sparse's import.
    src = os.path.dirname(os.path.dirname(netsurgeon.__file__))
    probe = "import sys, netsurgeon; print('scipy.sparse' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0 and done.stdout.strip() == "False", done.stderr
