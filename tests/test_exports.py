"""The package export list names only what the package defines."""

import hermwave


def test_every_exported_name_resolves():
    missing = [name for name in hermwave.__all__ if not hasattr(hermwave, name)]
    assert not missing, f"hermwave.__all__ names undefined {missing}"
    assert len(set(hermwave.__all__)) == len(hermwave.__all__)
    namespace = {}
    exec("from hermwave import *", namespace)
    assert set(hermwave.__all__) <= set(namespace)
