import crossalign


def test_every_exported_name_resolves():
    missing = [name for name in crossalign.__all__ if not hasattr(crossalign, name)]
    assert missing == []
    assert len(set(crossalign.__all__)) == len(crossalign.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from crossalign import *", namespace)
    assert set(crossalign.__all__) <= set(namespace)
