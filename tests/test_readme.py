"""The README's ```python blocks run as doctests and keep their printed values.

The package exports exactly the names each library module lists in ``__all__``.
"""

from __future__ import annotations

import doctest
import importlib
import re
import types
from pathlib import Path

import symgame

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_pass() -> None:
    text = README.read_text(encoding="utf-8")
    # The block without its fences: ``python -m doctest README.md`` would
    # read the closing fence as expected output.
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)
    assert blocks, "README.md has no python block"
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    report = []
    for k, block in enumerate(blocks):
        test = parser.get_doctest(block, {}, f"README.md python block {k}", str(README), 0)
        assert runner.run(test, out=report.append).attempted > 0, test.name
    assert runner.failures == 0, "".join(report)


#: The library modules whose ``__all__`` lists make up ``symgame.__all__``, in order.
MODULES = ("payoff", "equilibria", "cartography", "taxonomy", "ordergraph", "svgmap")


def test_package_exports_each_module_all_list_once() -> None:
    modules = [importlib.import_module(f"symgame.{name}") for name in MODULES]
    declared_in = {}
    for module in modules:
        for name in module.__all__:
            assert name not in declared_in, f"{name} is in {declared_in[name]} and {module.__name__}"
            declared_in[name] = module.__name__
            value = getattr(module, name)  # unbound: ``import symgame`` raises first
            if isinstance(value, (type, types.FunctionType)):
                assert value.__module__ == module.__name__, name
            assert getattr(symgame, name) is value, name
    assert symgame.__all__ == [name for module in modules for name in module.__all__]
    namespace = {}
    exec("from symgame import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == sorted(symgame.__all__)
