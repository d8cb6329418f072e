"""The mutation probe `tools/mutants.py` rewrites a target without changing it."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("module, qualname", [("lattices", "Lattice._det"), ("linalg", "IntMatrix.identity"),
                                              ("linalg", "det_exact")])
def test_unmutated_rewrite_is_the_module(module, qualname):
    # decorated methods included: their decorators are printed once, not twice
    source = (ROOT / "src" / "k3lattices" / f"{module}.py").read_text()
    func = mutants.find_function(ast.parse(source), qualname)
    assert ast.dump(ast.parse(mutants.rewrite(source, func, func))) == ast.dump(ast.parse(source))


def test_rewrite_spans_every_decorator_line():
    source = "class A:\n    x = 1\n\n    @staticmethod\n    @decorate(1)\n    def f(a):  # note\n        return a < 2\n\n    y = 2\n"
    func = mutants.find_function(ast.parse(source), "A.f")
    mutant, what = mutants.mutate(func, mutants.sites(func)[0])
    assert what == "7:15: a < 2  ->  a <= 2"
    assert mutants.rewrite(source, func, mutant) == (
        "class A:\n    x = 1\n\n    @staticmethod\n    @decorate(1)\n    def f(a):\n        return a <= 2\n\n    y = 2\n")
