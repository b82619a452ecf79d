import dsmatch


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from dsmatch import *", namespace)
    assert set(dsmatch.__all__) <= namespace.keys()
