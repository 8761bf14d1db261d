import dataclasses
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


# The public members of each exported class: what netsurgeon's own classes
# define, plus dataclass fields. A member added for tests alone shows here.
PUBLIC_MEMBERS = {
    "BridgeRanking": "cols delta first predicted rows second values",
    "BridgeScore": "i index j predicted_delta_aggregate",
    "CentralityReport": "aggregate b b_unweighted labels self_loops",
    "CharacteristicIntervention": "delta_theta from_pairs support",
    "CongestionSpec": "delta gamma network smallest_eigenvalue system theta",
    "EffectReport": "delta_aggregate delta_x equivalent_delta_theta labels post_b",
    "GameSpec": "b b_unit block delta influence influence_less influence_rows"
    " n network self_loops solve theta theta_is_ones with_theta",
    "GlobalSubstitutionSpec": "delta game network phi",
    "GraphFormatError": "",
    "GroupScore": "direct_effect group indirect_effect intercentrality",
    "InputError": "",
    "InternalCheckError": "",
    "LinkRanking": "cols first kind rows second values",
    "LinkValue": "i j kind value",
    "MultiActivitySpec": "beta delta games network theta_a theta_b",
    "NetsurgeonError": "",
    "Network": "adjacency edges from_edges has_link index index_of labels links n"
    " sparse_adjacency with_changes",
    "NodeSet": "complement labels members of of_labels",
    "RankedPairs": "cols first rows second values",
    "SpectralConditionError": "",
    "StructuralIntervention": "applied_to check_legal entries from_label_pairs is_empty support",
    "WalkMatrix": "excluded excluded_excluded excluded_kept kept kept_excluded kept_kept",
}


def public_members(cls) -> str:
    own = [c for c in cls.__mro__ if c.__module__.startswith("netsurgeon")]
    names = {a for c in own for a in vars(c) if not a.startswith("_")}
    if dataclasses.is_dataclass(cls):
        names.update(f.name for f in dataclasses.fields(cls))
    return " ".join(sorted(names))


def test_exported_classes_keep_their_public_members():
    classes = {n: getattr(netsurgeon, n) for n in netsurgeon.__all__}
    got = {n: public_members(c) for n, c in classes.items() if isinstance(c, type)}
    assert got == PUBLIC_MEMBERS


def test_import_leaves_scipy_sparse_unloaded():
    # Only walk queries and the congestion model pay scipy.sparse's import.
    src = os.path.dirname(os.path.dirname(netsurgeon.__file__))
    probe = "import sys, netsurgeon; print('scipy.sparse' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0 and done.stdout.strip() == "False", done.stderr
