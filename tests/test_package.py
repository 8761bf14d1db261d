import netsurgeon


def test_every_export_resolves_and_star_imports():
    assert [name for name in netsurgeon.__all__ if not hasattr(netsurgeon, name)] == []
    assert len(set(netsurgeon.__all__)) == len(netsurgeon.__all__)
    namespace = {}
    exec("from netsurgeon import *", namespace)
    assert set(netsurgeon.__all__) <= namespace.keys()
