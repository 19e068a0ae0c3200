"""The package namespace: every exported name resolves."""

import bowvariety


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from bowvariety import *", namespace)
    assert bowvariety.__all__ and len(set(bowvariety.__all__)) == len(bowvariety.__all__)
    for name in bowvariety.__all__:
        assert namespace[name] is getattr(bowvariety, name), name
