"""The README's library example runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    rows = [line.split() for line in out.getvalue().splitlines()]
    assert [r[0] for r in rows] == ["Ar", "Ac", "Av", "x", "b", "g", "d", "dp", "q"]
    for _, mvf, fea in rows:
        assert 0.0 <= float(fea) <= float(mvf) <= 1.0
