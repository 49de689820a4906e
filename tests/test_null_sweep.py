"""``benchmarks/null_sweep.py`` prints the null table and writes ``--out``
through ``data.write_text``. The sweep is faked, so these tests train nothing."""

import importlib.util
import json
from pathlib import Path

import pytest

from hamattn import cli
from hamattn.train import SweepRecord

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "null_sweep.py"
_spec = importlib.util.spec_from_file_location("null_sweep", SCRIPT)
null_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(null_sweep)
DEV_FULL = Path("/dev/full")


def _row(root):
    return {"root": root, "depths": [1, 2], "best_loss": [0.4, 0.5], "ratios": [1.25],
            "final_loss": {"1": [0.4], "2": [0.5]}}


@pytest.fixture
def calls(monkeypatch):
    """Fake ``run_sweep``: each config's seed gets a two-depth null sweep; the
    fixture holds the roots of each call."""
    calls = []

    def fake_run_sweep(cfgs, null=False):
        assert null
        calls.append([cfg["seed"] for cfg in cfgs])
        return [([SweepRecord(1, cfg["seed"], 0.4, 0.0, 1.0), SweepRecord(2, cfg["seed"], 0.5, 0.0, 1.0)],
                 {"depths": [1, 2], "seed": cfg["seed"], "best_loss": {"1": 0.4, "2": 0.5}}) for cfg in cfgs]

    monkeypatch.setattr(null_sweep, "run_sweep", fake_run_sweep)
    return calls


@pytest.fixture
def no_training(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a corpus was made or a cell trained")

    for name in ("gen_task", "depth_sweep"):
        monkeypatch.setattr(cli, name, no_work)


def test_out_holds_the_rows_and_the_table_gives_the_band(calls, tmp_path, capsys):
    out = tmp_path / "null.json"
    assert null_sweep.main(["--roots", "3", "7", "--out", str(out)]) == 0
    assert calls == [[3, 7]]  # one call for every root
    assert out.read_text() == json.dumps([_row(3), _row(7)], indent=1)
    printed = capsys.readouterr().out.splitlines()
    assert printed[2:4] == ["| 3 | 0.40000 | 0.50000 | 1.2500 |", "| 7 | 0.40000 | 0.50000 | 1.2500 |"]
    assert printed[-1] == "largest ratio 1.2500: allowed ratio 1.25, SWEEP_TOLERANCE 0.25"


@pytest.mark.skipif(not DEV_FULL.exists(), reason="needs /dev/full, a device whose every write fails")
def test_a_failed_out_write_exits_2_naming_the_file(calls, capsys):
    assert null_sweep.main(["--roots", "0", "--out", str(DEV_FULL)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {DEV_FULL}: ") and err.count("\n") == 1


def test_a_bad_late_root_exits_2_before_any_corpus_or_cell(no_training, capsys):
    assert null_sweep.main(["--roots", "0", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"


def test_a_root_that_is_not_an_int_exits_2_with_one_line(no_training, capsys):
    with pytest.raises(SystemExit) as exited:
        null_sweep.main(["--roots", "x"])
    assert exited.value.code == 2
    assert capsys.readouterr().err == "error: argument --roots: invalid int value: 'x'\n"


def test_a_bad_out_exits_2_before_any_corpus_or_cell(no_training, tmp_path, capsys):
    for out in (tmp_path, tmp_path / "missing" / "null.json"):
        assert null_sweep.main(["--roots", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out}") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_jobs_is_not_an_option(calls, capsys):
    with pytest.raises(SystemExit) as exited:
        null_sweep.main(["--roots", "0", "--jobs", "2"])
    assert exited.value.code == 2 and "unrecognized arguments: --jobs 2" in capsys.readouterr().err
