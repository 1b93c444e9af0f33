"""Each module declares its public names once, in its own `__all__`, and
`optamp` re-exports exactly those names, as the same objects."""

import pytest
from reference import PUBLIC_MODULES

import optamp


@pytest.mark.parametrize("module", PUBLIC_MODULES, ids=lambda module: module.__name__)
def test_module_all_names_public_objects_the_package_re_exports(module):
    names = module.__all__
    assert len(set(names)) == len(names)
    assert [x for x in names if x.startswith("_")] == []
    assert [x for x in names if getattr(optamp, x) is not getattr(module, x)] == []


def test_package_all_concatenates_the_module_lists():
    expected = [x for module in PUBLIC_MODULES for x in module.__all__]
    assert optamp.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_star_import_binds_exactly_the_package_all():
    namespace = {}
    exec("from optamp import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(optamp.__all__)
