"""The package's public names: every exported name resolves."""

import diagminors


def test_all_names_resolve():
    assert len(set(diagminors.__all__)) == len(diagminors.__all__)
    for name in diagminors.__all__:
        assert getattr(diagminors, name) is not None, name


def test_star_import():
    namespace = {}
    exec("from diagminors import *", namespace)
    assert set(diagminors.__all__) <= set(namespace)
