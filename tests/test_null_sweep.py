"""``benchmarks/null_sweep.py`` prints the null table and writes ``--out``
through ``data.write_text``. The sweep is faked, so these tests train nothing."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "null_sweep.py"
_spec = importlib.util.spec_from_file_location("null_sweep", SCRIPT)
null_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(null_sweep)


def _row(root):
    return {"root": root, "depths": [1, 2], "best_loss": [0.4, 0.5], "ratios": [1.25],
            "final_loss": {"1": [0.4], "2": [0.5]}}


@pytest.fixture
def rows(monkeypatch):
    monkeypatch.setattr(null_sweep, "null_sweep", _row)


def test_out_holds_the_rows_and_the_table_gives_the_band(rows, tmp_path, capsys):
    out = tmp_path / "null.json"
    assert null_sweep.main(["--roots", "3", "7", "--out", str(out)]) == 0
    assert out.read_text() == json.dumps([_row(3), _row(7)], indent=1)
    printed = capsys.readouterr().out.splitlines()
    assert printed[2:4] == ["| 3 | 0.40000 | 0.50000 | 1.2500 |", "| 7 | 0.40000 | 0.50000 | 1.2500 |"]
    assert printed[-1] == "largest ratio 1.2500: allowed ratio 1.25, SWEEP_TOLERANCE 0.25"


def test_a_failed_out_write_exits_2_naming_the_file(rows, tmp_path, capsys):
    assert null_sweep.main(["--roots", "0", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path}: ") and err.count("\n") == 1


def test_jobs_is_not_an_option(rows, capsys):
    with pytest.raises(SystemExit) as exited:
        null_sweep.main(["--roots", "0", "--jobs", "2"])
    assert exited.value.code == 2 and "unrecognized arguments: --jobs 2" in capsys.readouterr().err
