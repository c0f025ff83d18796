import mixmnl


def test_every_exported_name_resolves():
    assert [name for name in mixmnl.__all__ if not hasattr(mixmnl, name)] == []


def test_exported_names_are_unique():
    assert len(set(mixmnl.__all__)) == len(mixmnl.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from mixmnl import *", namespace)
    assert set(mixmnl.__all__) <= namespace.keys()
