"""The README's ```python blocks run as doctests and keep their printed values."""

from __future__ import annotations

import doctest
import re
from pathlib import Path

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
