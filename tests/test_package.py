import ast
import importlib
import re
from fractions import Fraction
from pathlib import Path

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



def test_readme_library_block():
    """README's Library block runs as written, and each value a comment of
    it states holds: an example that names a deleted function fails here."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        code = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            values[code] = eval(code, namespace)
        else:
            exec(code, namespace)
    assert values["dl.median_prime(3)"] == 42719
    assert values["dl.Lambda_kd(3, 4).exact"] == Fraction(1, 6)
    assert values["dl.density_bracket(dl.GeneratorSet(interval=(4, 8))).exact"] == Fraction(17, 35)
    assert values["dl.m_of_y(dl.GeneratorSet([2, 7]), 5).exact"] == Fraction(1, 2)
    direct, dyadic = values["exp.t_sum(10**6)"]
    assert direct == dyadic
    c, c1 = values["exp.maximize_lower_bound()"]
    assert (f"{c:.7f}"[:7], f"{c1:.7f}"[:7]) == ("0.09924", "0.05544")
