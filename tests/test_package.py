"""The package namespace: every exported name exists."""

import nahilb


def test_every_exported_name_is_an_attribute():
    missing = [name for name in nahilb.__all__ if not hasattr(nahilb, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from nahilb import *", namespace)
    assert set(nahilb.__all__) <= set(namespace)
