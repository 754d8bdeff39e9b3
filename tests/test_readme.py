"""The README's ```python blocks run as doctests and keep their printed values.

Each ``symgame ...`` line of the README's "Command line" ```sh block runs
through ``cli.main`` and exits 0, writing every ``--out`` file it names.

The package exports exactly the names each library module lists in ``__all__``.
"""

from __future__ import annotations

import doctest
import importlib
import re
import shlex
import types
from pathlib import Path

import symgame
from symgame import cli

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


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys) -> None:
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)
    assert block, "README.md has no Command line sh block"
    commands = [shlex.split(line, comments=True) for line in block.group(1).splitlines()]
    commands = [words[1:] for words in commands if words[:1] == ["symgame"]]
    assert commands, "the Command line block has no symgame lines"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "games.txt").write_text("3,1;4,2\n# a comment\n\n1/2,0;0.25,-1\n", encoding="utf-8")
    for argv in commands:
        out = tmp_path / argv[argv.index("--out") + 1] if "--out" in argv else None
        if out:
            out.unlink(missing_ok=True)  # a file an earlier line wrote must not count
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
        assert out is None or out.is_file(), argv


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
