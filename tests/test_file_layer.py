"""Files are opened, and JSON is parsed, in one module: ``hamattn.data``.

Its ``read_text``, ``read_json``, ``parse_json`` and ``write_text`` turn every
failure into a one-line ``DomainError`` that names the file. A module that
opens a file or parses JSON itself would let a bare ``OSError``,
``JSONDecodeError`` or ``RecursionError`` out, so the library's modules and the
benchmark scripts are read with ``ast`` and any direct file call or JSON parse
outside ``data.py`` fails this test.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hamattn"
# methods that open a file: io's and os's ``open`` and pathlib's readers and writers
FILE_METHODS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def _file_calls(source: str) -> list:
    """``line: call`` for each call in ``source`` that reads or writes a file, or parses
    JSON, directly."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            found.append(f"{node.lineno}: open")
        elif isinstance(func, ast.Attribute):
            owner = func.value.id if isinstance(func.value, ast.Name) else None
            if func.attr in FILE_METHODS and owner != "data":
                found.append(f"{node.lineno}: .{func.attr}")
            elif owner == "json" and func.attr in ("load", "loads", "dump"):
                found.append(f"{node.lineno}: json.{func.attr}")
    return found


def test_only_data_opens_files():
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))
    offenders = {
        str(path.relative_to(ROOT)): calls
        for path in paths
        if path != SRC / "data.py" and (calls := _file_calls(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_the_guard_finds_each_kind_of_file_call():
    source = "\n".join([
        "open(p)",
        "Path(p).write_text(s)",
        "out.read_text()",
        "json.dump(x, f)",
        "json.load(f)",
        "os.open(p, 0)",
        "data.write_text(p, [s])",
        "json.dumps(x)",
        "json.loads(data.read_text(p))",
        "data.read_json(p)",
    ])
    assert _file_calls(source) == ["1: open", "2: .write_text", "3: .read_text", "4: json.dump", "5: json.load",
                                   "6: .open", "9: json.loads"]
