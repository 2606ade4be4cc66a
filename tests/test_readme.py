"""The README's library quick start runs against the current API."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_the_fourth_moment_three_ways():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block is not None
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block.group(1), str(README), "exec"), {})
    printed = [float(line) for line in out.getvalue().split()]
    assert len(printed) == 4
    assert printed[0] < 1e-12  # the Wick rule against the monomial
    for value in printed[1:]:
        assert abs(value - 4.0) < 1e-12
