"""The package's public names: each one in ``softgrip.__all__`` resolves."""

import softgrip


def test_every_public_name_is_an_attribute():
    assert [name for name in softgrip.__all__ if not hasattr(softgrip, name)] == []


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from softgrip import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(softgrip.__all__)
