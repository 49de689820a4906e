"""``benchmarks/null_sweep.py`` checks ``--jobs`` before any process starts,
starts no more workers than roots, and writes ``--out`` through
``data.write_text``. The process pool and the sweep are faked, so these tests
start no process."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "null_sweep.py"
_spec = importlib.util.spec_from_file_location("null_sweep", SCRIPT)
null_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(null_sweep)


class _Pool:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


class _Context:
    """A spawn context that records each pool's size and runs its map in this process."""

    def __init__(self):
        self.pools = []

    def Pool(self, processes):
        self.pools.append(processes)
        return _Pool()


def _row(root):
    return {"root": root, "depths": [1, 2], "best_loss": [0.4, 0.5], "ratios": [1.25],
            "final_loss": {"1": [0.4], "2": [0.5]}}


@pytest.fixture
def context(monkeypatch):
    context = _Context()
    monkeypatch.setattr(null_sweep.multiprocessing, "get_context", lambda method: context)
    monkeypatch.setattr(null_sweep.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(null_sweep, "null_sweep", _row)
    return context


@pytest.mark.parametrize("jobs", ["0", "-3", "5"])
def test_jobs_outside_one_to_cores_exits_2_before_any_pool(jobs, context, capsys):
    assert null_sweep.main(["--roots", "0", "1", "--jobs", jobs]) == 2
    assert context.pools == []
    err = capsys.readouterr().err
    assert err == f"error: --jobs must be an integer in [1, 4], got {jobs}\n"


def test_unknown_core_count_allows_one_job(context, monkeypatch, capsys):
    monkeypatch.setattr(null_sweep.os, "cpu_count", lambda: None)
    assert null_sweep.main(["--jobs", "2"]) == 2
    assert context.pools == [] and "[1, 1]" in capsys.readouterr().err
    assert null_sweep.main(["--jobs", "1"]) == 0
    assert context.pools == [1]


def test_workers_never_outnumber_roots_and_out_holds_the_rows(context, tmp_path, capsys):
    out = tmp_path / "null.json"
    assert null_sweep.main(["--roots", "3", "7", "--jobs", "4", "--out", str(out)]) == 0
    assert null_sweep.main(["--roots", "3", "7", "8", "--jobs", "2"]) == 0
    assert context.pools == [2, 2]
    assert out.read_text() == json.dumps([_row(3), _row(7)], indent=1)
    assert "allowed ratio 1.25" in capsys.readouterr().out


def test_a_failed_out_write_exits_2_naming_the_file(context, tmp_path, capsys):
    assert null_sweep.main(["--roots", "0", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path}: ") and err.count("\n") == 1
