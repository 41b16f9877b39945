"""Rules on the package's source that no behavioural test can see."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fillflow"


def file_reads(source: str) -> list[str]:
    """``line: call`` for each call in ``source`` that reads a file: ``open`` without a write,
    append or create mode, ``.read_text``, ``.read_bytes`` or ``json.load``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = [*node.args[1:2], *(kw.value for kw in node.keywords if kw.arg == "mode")]
            writes = (mode and isinstance(mode[0], ast.Constant)
                      and set(str(mode[0].value)) & set("wax"))
            if not writes:
                found.append(f"{node.lineno}: {ast.unparse(node)}")
        elif isinstance(func, ast.Attribute) and (
                func.attr in ("read_text", "read_bytes")
                or func.attr == "load" and isinstance(func.value, ast.Name)
                and func.value.id == "json"):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("source, reads", [
    ("open(p)", True), ("open(p, 'rb')", True), ("open(p, mode='r+')", True),
    ("open(p, fmt)", True), ("Path(p).read_text()", True), ("p.read_bytes()", True),
    ("json.load(fh)", True), ("open(p, 'w')", False), ("open(p, mode='ab')", False),
    ("json.loads(text)", False), ("p.write_text(t)", False),
])
def test_file_reads_finds_each_read(source, reads):
    assert bool(file_reads(source)) == reads


def test_only_events_reads_input_files():
    # events.py is the one reader of input files: it decodes every input by one rule, so a
    # bad byte names its line, and records the digest each manifest takes.
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "events.py" in modules
    found = [f"{path.name}:{read}" for path in modules if path.name != "events.py"
             for read in file_reads(path.read_text(encoding="utf-8"))]
    assert found == []
