import importlib

import pytest

import divilab


def test_exports_resolve_to_their_home_modules():
    assert len(divilab.__all__) == len(set(divilab.__all__))
    for name in divilab.__all__:
        obj = getattr(divilab, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("divilab.")
        assert getattr(home, name) is obj, name


def test_exports_listed_and_star_import():
    assert set(divilab.__all__) <= set(dir(divilab))
    namespace = {}
    exec("from divilab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(divilab.__all__)
    for name in divilab.__all__:
        assert namespace[name] is getattr(divilab, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        divilab.no_such_name  # noqa: B018
    assert not hasattr(divilab, "tau_table")  # a tables name the package never exported
    with pytest.raises(ImportError):
        exec("from divilab import no_such_name", {})

