import contextlib
import io
import re
import runpy
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue().strip()


def _readme_example():
    """The python block under README.md's "Library example" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_example_prints_its_comments():
    # Each print line's comment gives the value's leading digits, ending in
    # ".." when truncated; a comment without digits is not checked.
    code = _readme_example()
    printed = []
    exec(code, {"print": lambda *args: printed.append(args[0])})
    comments = [line.split("#", 1)[1] for line in code.splitlines()
                if line.startswith("print(")]
    assert len(printed) == len(comments) == 3
    for value, comment in zip(printed, comments):
        digits = re.findall(r"-?\d+\.\d+(?:\.\.)?", comment)
        if not digits:
            continue
        values = np.ravel(value)
        assert len(values) == len(digits), comment
        for v, d in zip(values, digits):
            if d.endswith(".."):
                d = d[:-2]
                places = len(d.split(".")[1])
                assert abs(v - float(d)) < 10.0 ** -places, (v, comment)
            else:
                assert v == float(d), (v, comment)
