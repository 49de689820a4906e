import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamattn import autodiff as ad
from hamattn import ham as ham_module
from hamattn.attention import attention_levels, self_attention_layer, vanilla_attention
from hamattn.autodiff import Tape, Variable, check_gradients
from hamattn.errors import DimensionError, DomainError
from hamattn.ham import (
    ham_s,
    ham_v,
    MAX_DEPTH,
    MAX_REDUCTION_INSTANCES,
    MAX_TRIALS,
    REDUCTION_CHUNK,
    ham_v_context,
    ham_v_levels,
    reduction_report,
    norm_bound_suite,
)
from hamattn.tensor import softmax_vec


def test_level_logits_validation_and_uniform_weights():
    rng = np.random.default_rng(9)
    K = rng.uniform(-2, 2, (3, 5))
    q = rng.uniform(-2, 2, 3)
    X = K.T
    # zero logits weight the levels uniformly
    np.testing.assert_allclose(
        ham_v(q, K, np.zeros(4)), attention_levels(q, K, 4).mean(axis=0), atol=1e-15
    )
    for bad, error in ((np.zeros(0), DomainError), (np.zeros((3, 2)), DimensionError)):
        with pytest.raises(error):
            ham_v(q, K, bad)
        with pytest.raises(error):
            ham_s(X, bad)


def test_ham_v_depth_one_equals_vanilla_exactly():
    rng = np.random.default_rng(0)
    K = rng.uniform(-2, 2, (3, 5))
    q = rng.uniform(-2, 2, 3)
    for c1 in (-7.0, 0.0, 4.2):
        np.testing.assert_array_equal(
            ham_v(q, K, np.array([c1])), vanilla_attention(q, K)
        )


def test_ham_v_identical_keys_fixed_point():
    v = np.array([2.0, -1.0])
    K = np.tile(v[:, None], (1, 6))
    rng = np.random.default_rng(1)
    for d in (1, 3, 8):
        c = rng.uniform(-3, 3, d)
        np.testing.assert_allclose(ham_v(np.array([0.1, 0.9]), K, c), v, atol=1e-12)


def test_ham_v_one_hot_reduction_to_each_level():
    rng = np.random.default_rng(2)
    for _ in range(50):
        dk, n, d = rng.integers(2, 7), rng.integers(1, 7), int(rng.integers(2, 6))
        K = rng.uniform(-2, 2, (dk, n))
        q = rng.uniform(-2, 2, dk)
        t = int(rng.integers(0, d))
        c = np.zeros(d)
        c[t] = 20.0
        levels = attention_levels(q, K, d)
        assert np.max(np.abs(ham_v(q, K, c) - levels[t])) < 1e-7


def test_ham_s_depth_one_and_fixed_point():
    rng = np.random.default_rng(3)
    X = rng.uniform(-2, 2, (4, 3))
    np.testing.assert_array_equal(ham_s(X, np.zeros(1)), self_attention_layer(X))
    rows = np.tile(np.array([1.0, 2.0, 3.0]), (5, 1))
    for d in (1, 2, 4):
        c = rng.uniform(-2, 2, d)
        np.testing.assert_allclose(ham_s(rows, c), rows, atol=1e-12)


def test_ham_s_one_hot_reduction_to_composed_self_attention():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n, dk, d = rng.integers(1, 6), rng.integers(2, 6), int(rng.integers(2, 6))
        X = rng.uniform(-2, 2, (n, dk))
        c = np.zeros(d)
        c[d - 1] = 20.0
        composed = X
        for _ in range(d):
            composed = self_attention_layer(composed)
        assert np.max(np.abs(ham_s(X, c) - composed)) < 1e-7


def test_level_weight_shift_invariance():
    rng = np.random.default_rng(5)
    K = rng.uniform(-2, 2, (3, 4))
    q = rng.uniform(-2, 2, 3)
    X = rng.uniform(-2, 2, (4, 3))
    # exactly representable c and shift: max-subtraction cancels the shift bitwise
    c = np.array([0.25, -1.5, 2.0])
    for s in (1.0, -3.0, 256.0):
        np.testing.assert_array_equal(
            ham_v(q, K, c), ham_v(q, K, c + s)
        )
        np.testing.assert_array_equal(
            ham_s(X, c), ham_s(X, c + s)
        )
    # arbitrary float shifts agree to rounding
    c = rng.uniform(-2, 2, 3)
    s = float(rng.uniform(-10, 10))
    np.testing.assert_allclose(
        ham_v(q, K, c), ham_v(q, K, c + s), atol=1e-12
    )


def test_ham_v_permutation_invariance_and_ham_s_equivariance():
    rng = np.random.default_rng(6)
    K = rng.uniform(-2, 2, (3, 6))
    q = rng.uniform(-2, 2, 3)
    c = rng.uniform(-1, 1, 3)
    perm = rng.permutation(6)
    np.testing.assert_allclose(ham_v(q, K, c), ham_v(q, K[:, perm], c), atol=1e-12)
    X = rng.uniform(-2, 2, (6, 3))
    np.testing.assert_allclose(ham_s(X, c)[perm], ham_s(X[perm], c), atol=1e-12)


def test_batched_context_matches_per_example_ham_v():
    rng = np.random.default_rng(8)
    b, t, h, d = 3, 4, 5, 3
    enc = rng.uniform(-2, 2, (b, t, h))
    q = rng.uniform(-2, 2, (b, h))
    c = rng.uniform(-1, 1, d)
    out = ham_v_context(Variable(enc), Variable(q), Variable(c)).value
    # ham_v is the connector's forward on one example's keys, bit for bit
    for i in range(b):
        np.testing.assert_array_equal(out[i], ham_v(q[i], enc[i].T, c))


def _primitive_ham_v_context(enc, query, c):
    """The connector as the chain of taped primitives that ham_v_context fuses."""
    inv = 1.0 / np.sqrt(enc.value.shape[2])
    cur = query
    levels = []
    for _ in range(c.value.shape[0]):
        scores = ad.scale(ad.attend_scores(enc, cur), inv)
        cur = ad.attend_combine(enc, ad.softmax(scores))
        levels.append(cur)
    return ad.weighted_sum(levels, ad.softmax(c))


def _connector_run(connector, d, b):
    rng = np.random.default_rng(10 * d + b)
    enc = Variable(rng.uniform(-2, 2, (b, 6, 16)))
    query = Variable(rng.uniform(-2, 2, (b, 16)))
    c = Variable(rng.uniform(-1, 1, d))
    r = Variable(rng.uniform(-1, 1, (b, 16)))
    r2 = Variable(rng.uniform(-1, 1, (b, 6)))
    with Tape() as tape:
        ctx = connector(enc, query, c)
        # fan-out: enc and query also feed an op recorded after the connector,
        # so their gradients are non-zero when the connector's arrive
        side = ad.attend_scores(enc, query)
        loss = ad.add(ad.sum_all(ad.mul(ctx, r)), ad.sum_all(ad.mul(side, r2)))
    tape.backward(loss)
    return loss.value, ctx.value, enc.grad, query.grad, c.grad


@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_fused_context_is_bit_identical_to_primitive_chain(d, b):
    fused = _connector_run(ham_v_context, d, b)
    chain = _connector_run(_primitive_ham_v_context, d, b)
    for name, got, want in zip(("loss", "context", "enc", "query", "c"), fused, chain):
        np.testing.assert_array_equal(got, want, err_msg=name)


def test_fused_context_shape_and_domain_errors():
    enc, q, c = np.zeros((2, 3, 4)), np.zeros((2, 4)), np.zeros(2)
    # stacked: two sets of one example
    senc, sq, sc = np.zeros((2, 1, 3, 4)), np.zeros((2, 1, 4)), np.zeros((2, 3))
    for bad in ((enc[0], q, c), (enc, q[0], c), (enc, np.zeros((3, 4)), c),
                (enc, np.zeros((2, 5)), c), (enc, q, np.zeros((1, 2))),
                (senc, sq, sc[0]), (senc, sq[0], sc), (senc, sq, np.zeros((3, 3))),
                (np.zeros((3, 1, 3, 4)), np.zeros((3, 1, 4)), sc), (senc[None], sq[None], sc[None])):
        with pytest.raises(DimensionError):
            ham_v_context(*bad)
    with Tape():
        with pytest.raises(DimensionError, match="forward-only"):
            ham_v_context(senc, sq, sc)
    for bad in ((np.zeros((2, 0, 4)), q, c), (enc, q, np.zeros(0))):
        with pytest.raises(DomainError):
            ham_v_context(*bad)


@pytest.mark.parametrize("b, t, h, d", [(1, 1, 1, 1), (1, 3, 4, 3), (3, 6, 16, 5)])
def test_stacked_context_is_bit_identical_per_set(b, t, h, d):
    rng = np.random.default_rng(b + t + h + d)
    for sets in (1, 4):
        enc = rng.uniform(-2, 2, (sets, b, t, h))
        q = rng.uniform(-2, 2, (sets, b, h))
        c = rng.uniform(-1, 1, (sets, d))
        out = ham_v_context(enc, q, c).value
        assert out.shape == (sets, b, h)
        for r in range(sets):
            np.testing.assert_array_equal(out[r], ham_v_context(enc[r].copy(), q[r].copy(), c[r].copy()).value)


def test_gradients_of_ham_outputs_pass_finite_differences():
    rng = np.random.default_rng(9)
    q = Variable(rng.uniform(-2, 2, (2, 3)))
    enc = Variable(rng.uniform(-2, 2, (2, 4, 3)))
    c = Variable(rng.uniform(-1, 1, 3))
    r = Variable(rng.uniform(-1, 1, (2, 3)))
    res = check_gradients(lambda: ad.sum_all(ad.mul(ham_v_context(enc, q, c), r)), [q, enc, c])
    assert res.max_rel_error < 1e-5


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ham_v_norm_bound(seed):
    rng = np.random.default_rng(seed)
    dk = int(rng.integers(2, 8))
    n = int(rng.integers(1, 10))
    d = int(rng.integers(1, 7))
    K = rng.uniform(-3, 3, (dk, n))
    q = rng.uniform(-3, 3, dk)
    c = rng.uniform(-3, 3, d)
    assert np.linalg.norm(ham_v(q, K, c)) <= np.linalg.norm(K, axis=0).max() + 1e-9


def test_norm_bound_suite_small_run():
    report = norm_bound_suite(2_000, seed=0, max_depth=10)
    assert report["upper_violations"] == 0
    assert report["lower_violations"] > 0
    assert report["lower_bound_counterexample"]["lower_bound_violated"]
    assert report["lower_bound_counterexample"]["output_norm"] == 0.0
    assert report["lower_bound_counterexample"]["min_key_norm"] == 1.0
    # all-equal-keys instance: both bounds tight
    v = np.array([1.0, 2.0])
    K = np.tile(v[:, None], (1, 3))
    out_norm = np.linalg.norm(vanilla_attention(np.array([0.5, 0.5]), K))
    assert abs(out_norm - np.linalg.norm(v)) < 1e-12


def _suite_reference(trials, seed, max_depth=10, dk_range=(2, 16), n_range=(1, 32), bound=3.0):
    """norm_bound_suite's shape-first draws, checked one instance at a time."""
    rng = np.random.default_rng(seed)
    dks = rng.integers(dk_range[0], dk_range[1] + 1, size=trials)
    ns = rng.integers(n_range[0], n_range[1] + 1, size=trials)
    upper = lower = checked = 0
    first = None
    for dk, n in sorted(set(zip(dks.tolist(), ns.tolist()))):
        g = int(np.sum((dks == dk) & (ns == n)))
        Ks = rng.uniform(-bound, bound, size=(g, dk, n))
        qs = rng.uniform(-bound, bound, size=(g, dk))
        logits = rng.uniform(-2.0, 2.0, size=(g, max_depth))
        for K, q, c in zip(Ks, qs, logits):
            key_norms = np.linalg.norm(K, axis=0)
            hi, lo = key_norms.max(), key_norms.min()
            levels = attention_levels(q, K, max_depth)
            norms = np.linalg.norm(levels, axis=1)
            checked += max_depth + 1
            ham_norm = np.linalg.norm(levels.T @ softmax_vec(c))
            lower += int(np.sum(norms < lo - ham_module.BOUND_TOL))
            bad = np.nonzero(norms > hi + ham_module.BOUND_TOL)[0]
            upper += int(bad.size) + int(ham_norm > hi + ham_module.BOUND_TOL)
            if bad.size and first is None:
                first = {
                    "K_columns": K.T.tolist(),
                    "q": q.tolist(),
                    "level": int(bad[0] + 1),
                    "output_norm": float(norms[bad[0]]),
                    "max_key_norm": float(hi),
                }
    return {
        "trials": trials,
        "max_depth": max_depth,
        "seed": seed,
        "levels_checked": checked,
        "upper_violations": upper,
        "lower_violations": lower,
        "first_upper_violation": first,
        "lower_bound_counterexample": ham_module._counterexample_record(),
    }


@pytest.mark.parametrize("trials, seed, max_depth", [
    pytest.param(600, 0, 6, id="0"),
    pytest.param(600, 1, 6, id="1"),
    pytest.param(3_000, 2, 10, id="bucket_edges"),
])
def test_norm_bound_suite_matches_per_instance_reference(trials, seed, max_depth):
    report = norm_bound_suite(trials, seed=seed, max_depth=max_depth)
    assert report == _suite_reference(trials, seed, max_depth=max_depth)
    assert report["upper_violations"] == 0 and report["first_upper_violation"] is None
    if trials == 3_000:
        # every dk has a key count on both sides of every bucket edge, and the top count
        rng = np.random.default_rng(seed)
        shapes = set(zip(rng.integers(2, 17, size=trials).tolist(), rng.integers(1, 33, size=trials).tolist()))
        assert all((dk, n) in shapes for dk in range(2, 17) for n in (8, 9, 16, 17, 24, 25, 32))


def _batch_sizes(monkeypatch, name) -> list:
    """Record the instance count of each call that ``ham`` makes to its ``name``, one of
    ``level_forward`` (the norm-bound suite's batches) and ``attention_levels`` (the reduction
    report's groups)."""
    sizes, wrapped = [], getattr(ham_module, name)

    def recording(*args):
        sizes.append(len(args[0]))
        return wrapped(*args)

    monkeypatch.setattr(ham_module, name, recording)
    return sizes


def test_norm_bound_suite_runs_at_most_60_masked_batches_at_10k_trials(monkeypatch):
    sizes = _batch_sizes(monkeypatch, "level_forward")
    report = norm_bound_suite(10_000, seed=0, max_depth=10)
    # 15 key dimensions x 4 key-count buckets; one call per exact (dk, n) shape would be 480
    assert report["upper_violations"] == 0 and sum(sizes) == 10_000
    assert len(sizes) <= 60


def test_norm_bound_suite_traced_peak_at_10k_trials_is_at_most_1_95_mb():
    # 2.52 MB when each batch was concatenated from padded per-group pieces and its key norms
    # taken over a squared copy of the whole batch; 2.09 MB while the loop still held the
    # previous batch and its results as the next one was filled
    norm_bound_suite(100)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        report = norm_bound_suite(10_000, seed=0, max_depth=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["upper_violations"] == 0
    assert peak <= 1.95e6


def test_norm_bound_suite_report_does_not_depend_on_the_batch_cap(monkeypatch):
    want = norm_bound_suite(2_000, seed=5, max_depth=10)
    monkeypatch.setattr(ham_module, "REDUCTION_CHUNK", 7)
    sizes = _batch_sizes(monkeypatch, "level_forward")
    assert norm_bound_suite(2_000, seed=5, max_depth=10) == want
    assert sum(sizes) == 2_000 and max(sizes) == 7


def test_norm_bound_suite_records_first_upper_violation(monkeypatch):
    # a negative tolerance makes every level count as an upper-bound violation
    monkeypatch.setattr(ham_module, "BOUND_TOL", -1e3)
    # the first instance has one key, then seven keys padded to a bucket of eight
    for trials, seed, max_depth, first_n in ((300, 3, 4, 1), (100, 2, 10, 7)):
        report = norm_bound_suite(trials, seed=seed, max_depth=max_depth)
        assert report == _suite_reference(trials, seed, max_depth=max_depth)
        assert report["upper_violations"] == trials * (max_depth + 1)
        recorded = report["first_upper_violation"]
        assert len(recorded["K_columns"]) == first_n
        K = np.array(recorded["K_columns"]).T
        levels = attention_levels(np.array(recorded["q"]), K, recorded["level"])
        assert np.linalg.norm(levels, axis=1)[-1] == recorded["output_norm"]
        assert np.linalg.norm(K, axis=0).max() == recorded["max_key_norm"]


def test_norm_bound_suite_deterministic_and_validated():
    a = norm_bound_suite(200, seed=42)
    b = norm_bound_suite(200, seed=42)
    assert a == b
    with pytest.raises(DomainError):
        norm_bound_suite(0)


def test_reduction_report_thresholds():
    rep = reduction_report(200, seed=0)
    assert rep["ham_v_onehot_max_err"] < 1e-7
    assert rep["ham_s_onehot_max_err"] < 1e-7
    assert rep["ham_v_d1_max_err"] <= 1e-12
    assert rep["ham_s_d1_max_err"] <= 1e-12


@pytest.mark.parametrize("batch", [(), (6,), (2, 3)])
def test_attention_levels_is_the_connector_forward_bitwise(batch):
    rng = np.random.default_rng(11 + len(batch))
    for dk, n, d in ((1, 4, 3), (5, 1, 2), (7, 9, 6), (16, 6, 1)):
        K = rng.uniform(-3, 3, (*batch, dk, n))
        q = rng.uniform(-3, 3, (*batch, dk))
        pc = softmax_vec(rng.uniform(-1, 1, d)).reshape(1, -1)
        keys = np.ascontiguousarray(np.swapaxes(K, -1, -2)).reshape(-1, n, dk)
        _, queries, _ = ham_v_levels(keys, q.reshape(-1, dk), pc)
        want = np.stack(queries[1:], axis=1).reshape(*batch, d, dk)
        np.testing.assert_array_equal(attention_levels(q, K, d), want)


def _reduction_reference(instances, seed, hot=20.0):
    """reduction_report's draws, checked through the public ham_v and ham_s."""
    rng = np.random.default_rng(seed)
    worst = {}
    for _ in range(instances):
        dk, n = int(rng.integers(2, 9)), int(rng.integers(1, 9))
        d = int(rng.integers(2, 7))
        t = int(rng.integers(0, d))
        K = rng.uniform(-2.0, 2.0, size=(dk, n))
        q = rng.uniform(-2.0, 2.0, size=dk)
        X = rng.uniform(-2.0, 2.0, size=(n, dk))
        c = np.zeros(d)
        c[t] = hot
        levels = attention_levels(q, K, d)
        s_levels = [X]
        for _ in range(d):
            s_levels.append(self_attention_layer(s_levels[-1]))
        for key, got, want in (
            ("ham_v_onehot_max_err", ham_v(q, K, c), levels[t]),
            ("ham_v_d1_max_err", ham_v(q, K, np.zeros(1)), levels[0]),
            ("ham_s_onehot_max_err", ham_s(X, c), s_levels[t + 1]),
            ("ham_s_d1_max_err", ham_s(X, np.zeros(1)), s_levels[1]),
        ):
            worst[key] = max(worst.get(key, 0.0), float(np.max(np.abs(got - want))))
    return {"instances": instances, "seed": seed, "hot": hot, **worst}


@pytest.mark.parametrize("instances, seed", [
    pytest.param(150, 0, id="0"),
    pytest.param(150, 1, id="1"),
    pytest.param(1_000, 1, id="verify_default"),  # verify's call at seed 0
    pytest.param(REDUCTION_CHUNK + 150, 2, id="two_chunks"),
])
def test_reduction_report_matches_per_instance_ham_v_and_ham_s(instances, seed):
    assert reduction_report(instances, seed=seed) == _reduction_reference(instances, seed)


@pytest.mark.parametrize("chunk", [1, 7, REDUCTION_CHUNK])
def test_reduction_report_holds_at_most_a_chunk_of_instances(monkeypatch, chunk):
    want = reduction_report(300, seed=4)
    monkeypatch.setattr(ham_module, "REDUCTION_CHUNK", chunk)
    seen = _batch_sizes(monkeypatch, "attention_levels")
    # the maxima do not depend on how the instances are grouped
    assert reduction_report(300, seed=4) == want
    assert sum(seen) == 300
    assert max(seen) <= chunk


def test_reduction_report_caps_instances_before_its_loop(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(ham_module, "attention_levels", no_work)
    for instances in (0, MAX_REDUCTION_INSTANCES + 1, 10**30):
        with pytest.raises(DomainError, match="instances"):
            reduction_report(instances)


def test_norm_bound_suite_caps_sizes_before_allocating():
    assert norm_bound_suite(2, max_depth=MAX_DEPTH)["max_depth"] == MAX_DEPTH
    for max_depth in (0, MAX_DEPTH + 1, 10**30):
        with pytest.raises(DomainError, match="max_depth"):
            norm_bound_suite(2, max_depth=max_depth)
    for trials in (MAX_TRIALS + 1, 10**30):
        with pytest.raises(DomainError, match="trials"):
            norm_bound_suite(trials)
