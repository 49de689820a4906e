"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is also part of the default ``pytest`` run. The
depth-sweep criterion trains 15 models and dominates the runtime.
"""

import json
import os
import re
import time
from concurrent import futures

import numpy as np
import pytest

from hamattn.attention import MultiHeadParams, multi_head, sdp_attention, vanilla_attention
from hamattn.checks import gradcheck_table
from hamattn.cli import SWEEP_DEFAULTS, main as cli_main, run_sweep
from hamattn.evaluate import averaged_bleu, bleu2
from hamattn import ham
from hamattn.ham import reduction_report, norm_bound_suite
from hamattn.tensor import l2_norm
from hamattn.train import SWEEP_TOLERANCE

from oracle_bleu import bleu2_bruteforce


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


def test_criterion_1_norm_upper_bound_randomized():
    assert (ham.NORM_BOUND_DK, ham.NORM_BOUND_N, ham.NORM_BOUND_ENTRY) == ((2, 16), (1, 32), 3.0)
    start = time.perf_counter()
    report = norm_bound_suite(10_000, seed=0, max_depth=10)
    elapsed = time.perf_counter() - start
    ok = report["upper_violations"] == 0 and elapsed < 30.0
    _report(
        "1 norm upper bound",
        ok,
        f"{report['upper_violations']} violations over {report['levels_checked']} level checks, {elapsed:.1f}s",
    )
    assert report["upper_violations"] == 0
    assert elapsed < 30.0


def test_criterion_2_lower_bound_counterexample_recorded():
    K = np.array([[1.0, -1.0], [0.0, 0.0]])  # columns (1,0) and (-1,0)
    q = np.array([0.0, 1.0])
    out = vanilla_attention(q, K)
    norms = np.linalg.norm(K, axis=0)
    report = norm_bound_suite(1, seed=0)
    recorded = report["lower_bound_counterexample"]
    ok = (
        l2_norm(out) == 0.0
        and norms.min() == 1.0
        and recorded["lower_bound_violated"] is True
        and recorded["output_norm"] < recorded["min_key_norm"]
    )
    _report("2 lower bound counterexample", ok, f"output norm {l2_norm(out)} < min key norm 1")
    assert ok


def test_criterion_3_reduction_identities():
    assert ham.REDUCTION_HOT == 20.0
    rep = reduction_report(1_000, seed=0)
    ok = (
        rep["ham_v_onehot_max_err"] < 1e-7
        and rep["ham_s_onehot_max_err"] < 1e-7
        and rep["ham_v_d1_max_err"] <= 1e-12
        and rep["ham_s_d1_max_err"] <= 1e-12
    )
    _report(
        "3 reduction identities",
        ok,
        f"one-hot errs {rep['ham_v_onehot_max_err']:.2e}/{rep['ham_s_onehot_max_err']:.2e}, "
        f"d=1 errs {rep['ham_v_d1_max_err']:.2e}/{rep['ham_s_d1_max_err']:.2e}",
    )
    assert ok


def test_criterion_4_gradient_checks():
    start = time.perf_counter()
    rows = gradcheck_table(scale="tiny", seed=0, instances=100)
    elapsed = time.perf_counter() - start
    failed = [r["name"] for r in rows if not r["passed"]]
    worst = max(rows, key=lambda r: r["max_err"] / r["threshold"])
    ok = not failed and elapsed < 120.0
    _report(
        "4 gradient checks",
        ok,
        f"{len(rows)} ops x 100 instances, worst {worst['name']} at {worst['max_err']:.2e}, {elapsed:.0f}s",
    )
    assert not failed, f"gradient check failed for {failed}"
    assert elapsed < 120.0


def test_criterion_5_depth_sweep_monotone_within_tolerance():
    """Best-over-restart losses should be non-increasing in depth within the band.

    One-hot level weights recover a shallower Ham, so a deeper model can
    represent every shallower one; this finite-budget experiment approximates
    that claim. Restart r of every depth trains from the same seed (init
    draws and batch order), so the sweep compares depths, not seed blocks.
    The band SWEEP_TOLERANCE is measured, not tuned: it is the largest
    consecutive-depth ratio of the paired null sweep over root seeds 0-4, in
    which depths 2 and 5 compute the depth-1 function and only round-off,
    grown over 200 epochs, separates them. See README "Depth-sweep behavior
    at desk scale" for the null table; the exact reduction identities
    (criterion 3) and the frozen-one-hot training equivalence test carry the
    representational claim itself. The protocol is ``SWEEP_DEFAULTS``, the
    one ``hamattn sweep`` and the null sweep run.
    """
    start = time.perf_counter()
    [(_, summary)] = run_sweep([SWEEP_DEFAULTS])
    elapsed = time.perf_counter() - start
    best = summary["best_loss"]
    depths = summary["depths"]
    ratios = [best[str(b)] / best[str(a)] for a, b in zip(depths, depths[1:])]
    ok = summary["monotone_within_tolerance"] and elapsed < 900.0
    _report(
        "5 depth sweep trend",
        ok,
        "best losses "
        + ", ".join(f"d={d}: {best[str(d)]:.5f}" for d in depths)
        + f"; transition ratios {ratios[0]:.3f}, {ratios[1]:.3f} "
        f"(allowed <= {1 + SWEEP_TOLERANCE}); {elapsed:.0f}s",
    )
    assert elapsed < 900.0
    assert summary["monotone_within_tolerance"], (
        f"best-over-restart losses not monotone within {SWEEP_TOLERANCE:.0%}: {best}"
    )


def test_criterion_6_bleu_oracle_equivalence():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1_000):
        cand = [int(t) for t in rng.integers(0, 10, rng.integers(1, 15))]
        ref = [int(t) for t in rng.integers(0, 10, rng.integers(1, 15))]
        worst = max(worst, abs(bleu2(cand, ref) - bleu2_bruteforce(cand, ref)))
    lines = [[3, 4, 5], [6, 7], [8, 9, 3, 4], [5]]
    perfect = averaged_bleu(lines, lines)
    ok = worst <= 1e-12 and perfect == 1.0
    _report("6 bleu oracle equivalence", ok, f"max |diff| {worst:.2e}, perfect group {perfect}")
    assert worst <= 1e-12
    assert perfect == 1.0


def test_criterion_7_multi_head_degeneracy():
    rng = np.random.default_rng(0)
    worst_mh = worst_sdp = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 8))
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 8))
        Q = rng.uniform(-3, 3, (m, d))
        K = rng.uniform(-3, 3, (n, d))
        V = rng.uniform(-3, 3, (n, d))
        mh = multi_head(Q, K, V, MultiHeadParams.identity(d, h=1))
        worst_mh = max(worst_mh, float(np.max(np.abs(mh - sdp_attention(Q, K, V)))))
        q = rng.uniform(-3, 3, d)
        single = sdp_attention(q.reshape(1, -1), K, K)[0]
        worst_sdp = max(worst_sdp, float(np.max(np.abs(single - vanilla_attention(q, K.T)))))
    ok = worst_mh <= 1e-12 and worst_sdp <= 1e-12
    _report("7 multi-head degeneracy", ok, f"h=1 identity err {worst_mh:.2e}, m=1 err {worst_sdp:.2e}")
    assert worst_mh <= 1e-12
    assert worst_sdp <= 1e-12


CRITERION_8_SWEEP = {
    "pairs": 24,
    "seq_len": 4,
    "payload_vocab": 6,
    "eval_pairs": 8,
    "depths": [1, 2],
    "restarts": 2,
    "epochs": 3,
    "batch_size": 8,
    "seed": 9,
    "hidden": 8,
}


def test_criterion_8_sweep_determinism(tmp_path):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(CRITERION_8_SWEEP))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out_a)])
    code_b = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out_b)])
    csv_a = (out_a / "sweep.csv").read_bytes()
    csv_b = (out_b / "sweep.csv").read_bytes()
    ok = csv_a == csv_b and code_a == code_b
    _report("8 sweep determinism", ok, f"{len(csv_a)} byte CSVs identical: {csv_a == csv_b}")
    assert csv_a == csv_b


def test_criterion_8_sweep_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, capsys):
    """One usable CPU trains the cells in this process, two in two forked workers;
    sweep.csv, sweep_summary.json (wall times aside) and stdout are the same bytes."""
    real_pool = futures.ProcessPoolExecutor
    pools = []

    def counted_pool(workers, *args, **kwargs):
        pools.append(workers)
        return real_pool(workers, *args, **kwargs)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", counted_pool)
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(CRITERION_8_SWEEP))
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        out = tmp_path / f"cpus{cpus}"
        code = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)])
        summary = re.sub(rb'\n *"wall_time_s": [^\n]*', b"", (out / "sweep_summary.json").read_bytes())
        runs.append((code, (out / "sweep.csv").read_bytes(), summary, capsys.readouterr().out))
    assert pools == [2]
    assert b"wall_time_s" not in runs[0][2] and runs[0][2].count(b'"final_loss"') == 4
    same = runs[0] == runs[1]
    _report("8 sweep bytes across worker counts", same, f"1 and 2 CPUs: identical outputs {same}")
    assert same
