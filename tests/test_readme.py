"""The README's example runs as written and prints what `herald` reports."""

import contextlib
import io
import math
import re
from pathlib import Path

from heraldsim import cli
from heraldsim.dsl import parse

from conftest import fixture_text

README = Path(__file__).resolve().parent.parent / "README.md"


def example_code():
    """The first python code block under the README's `## Example`."""
    section = README.read_text(encoding="utf-8").split("\n## Example\n")[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example_code(), str(README), "exec"), {})
    printed = [float(word) for word in out.getvalue().split()]
    report = cli._herald_report(parse(fixture_text("paper_5050.exp")))
    want = [report["herald_probability"], report["preparation_efficiency"]]
    assert len(printed) == len(want)
    for got, value in zip(printed, want):
        assert math.isclose(got, value, rel_tol=1e-12, abs_tol=0.0)
