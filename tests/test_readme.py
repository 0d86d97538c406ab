"""The README's library example runs as written, its commands parse, and
its module table names the package's modules."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from memvuln.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def test_every_command_parses():
    # Parsed, not run: a flag the parser no longer takes fails here.
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    commands = [shlex.split(line, comments=True)
                for block in blocks for line in block.splitlines()
                if line.startswith("memvuln ")]
    assert len(commands) >= 6
    for argv in commands:
        build_parser().parse_args(argv[1:])


def test_module_table_names_every_module():
    rows = re.findall(r"^\| `(\w+)` +\|", README.read_text(), flags=re.M)
    modules = sorted(p.stem for p in (ROOT / "src" / "memvuln").glob("*.py")
                     if not p.stem.startswith("_"))
    assert sorted(rows) == modules
