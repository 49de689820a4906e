import gc
import hashlib
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from hamattn import autodiff as ad
from hamattn.autodiff import FD_STEP, Tape, Variable, check_gradients
from hamattn.errors import DimensionError, DomainError


def test_backward_of_sum_is_ones():
    x = Variable(np.array([1.0, -2.0, 3.0]))
    with Tape() as tape:
        loss = ad.sum_all(x)
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, np.ones(3))


def test_backward_of_half_squared_norm_is_x():
    x = Variable(np.array([1.5, -0.25, 2.0, 0.0]))
    with Tape() as tape:
        loss = ad.scale(ad.dot(x, x), 0.5)
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, x.value)


def test_softmax_component_gradient_matches_finite_differences():
    # frozen: d softmax([0,0])[0] / dx = [0.25, -0.25]
    e0 = np.array([1.0, 0.0])

    def f(v):
        return ad.dot(ad.softmax(v), Variable(e0))

    x = Variable(np.zeros(2))
    with Tape() as tape:
        loss = f(x)
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, [0.25, -0.25], atol=1e-15)

    # central-difference oracle, h = 1e-5, computed here independently
    h = 1e-5
    numeric = np.zeros(2)
    for i in range(2):
        xp = np.zeros(2)
        xp[i] = h
        xm = np.zeros(2)
        xm[i] = -h

        def val(vec):
            e = np.exp(vec - vec.max())
            return (e / e.sum())[0]

        numeric[i] = (val(xp) - val(xm)) / (2 * h)
    np.testing.assert_allclose(x.grad, numeric, atol=1e-9)


def test_fanout_gradients_add_exactly():
    rng = np.random.default_rng(0)
    a = rng.uniform(-2, 2, 5)
    b = rng.uniform(-2, 2, 5)
    x = Variable(rng.uniform(-2, 2, 5))
    with Tape() as tape:
        loss = ad.add(ad.dot(x, Variable(a)), ad.dot(x, Variable(b)))
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, a + b)


def _parts_op(x, parts):
    """A toy scalar op whose vjp gives x's gradient as an iterator over ``parts``."""
    return ad._record((x,), Variable(np.sum(x.value)), lambda g: (iter(parts),))


def test_a_gradient_given_as_parts_is_added_in_order():
    # 1e16 + 1.0 rounds to 1e16, so only the given order gives [1, 0]; reversed gives [0, 1]
    parts = [np.array([1e16, 1.0]), np.array([-1e16, 1e16]), np.array([1.0, -1e16])]
    x = Variable(np.zeros(2))
    with Tape() as tape:
        loss = _parts_op(x, parts)
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [1.0, 0.0])


def test_a_view_given_as_the_first_part_is_copied_not_adopted():
    saved = np.arange(6.0)
    x = Variable(np.zeros(3))
    with Tape() as tape:
        loss = _parts_op(x, [saved[:3], np.ones(3)])
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [1.0, 2.0, 3.0])
    # adopting the view would have added the second part into the array it views
    np.testing.assert_array_equal(saved, np.arange(6.0))


def test_two_backward_passes_are_bit_identical():
    rng = np.random.default_rng(1)
    x = Variable(rng.uniform(-2, 2, (3, 4)))
    w = Variable(rng.uniform(-2, 2, (4, 2)))
    with Tape() as tape:
        loss = ad.sum_all(ad.tanh(ad.matmul(x, w)))
    tape.backward(loss)
    first = (x.grad.copy(), w.grad.copy())
    tape.backward(loss)
    assert np.array_equal(first[0], x.grad)
    assert np.array_equal(first[1], w.grad)


def test_finished_tape_is_freed_without_the_cyclic_collector():
    # nothing points back at a tape, so reference counting alone frees it,
    # and the arrays its vjps saved, once its last name goes
    x = Variable(np.arange(4.0))
    gc.disable()
    try:
        with Tape() as tape:
            loss = ad.sum_all(ad.tanh(x))
        tape.backward(loss)
        ref = weakref.ref(tape)
        del tape
        freed = ref() is None
    finally:
        gc.enable()
    assert freed
    np.testing.assert_array_equal(x.grad, 1.0 - np.tanh(np.arange(4.0)) ** 2)


def test_gradcheck_table_leaves_no_tape_to_the_cyclic_collector():
    from hamattn.checks import gradcheck_table

    gc.collect()
    gc.disable()
    try:
        gradcheck_table("tiny", instances=1)
        tapes = [obj for obj in gc.get_objects() if isinstance(obj, Tape)]
    finally:
        gc.enable()
    assert tapes == []


def test_backward_rejects_non_scalar_and_untaped_losses():
    x = Variable(np.ones(3))
    with Tape() as tape:
        y = ad.scale(x, 2.0)
    with pytest.raises(DomainError):
        tape.backward(y)
    with pytest.raises(DomainError):
        tape.backward(Variable(np.float64(1.0)))
    with Tape():
        other = ad.sum_all(x)
    with pytest.raises(DomainError):
        tape.backward(other)


def test_grad_check_quadratic_is_exact_to_roundoff():
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = Variable(rng.uniform(-2, 2, 6))
        assert check_gradients(lambda: ad.dot(x, x), [x]).max_rel_error < 1e-8


def test_grad_check_constant_function():
    x = Variable(np.ones(4))
    assert check_gradients(lambda: ad.sum_all(ad.scale(x, 0.0)), [x]).max_rel_error == 0.0


def _nan_op(x, forward_nan_above=np.inf, vjp_nan_at=()):
    """Identity op whose forward is NaN where x exceeds ``forward_nan_above``
    and whose vjp is NaN at the coordinates ``vjp_nan_at``."""
    x = ad.as_variable(x)

    def vjp(g):
        g = g.copy()
        for coord in vjp_nan_at:
            g[coord] = np.nan
        return (g,)

    out = np.where(x.value > forward_nan_above, np.nan, x.value)
    return ad._record((x,), Variable(out), vjp)


def test_a_nan_gradient_fails_at_its_first_coordinate():
    y, x = Variable(np.ones(4)), Variable(np.ones((2, 3)))

    def build():
        return ad.add(ad.sum_all(y), ad.sum_all(_nan_op(x, vjp_nan_at=[(1, 0), (0, 2)])))

    # not 0.0: a NaN error is infinite, reported at its first coordinate in C order
    assert check_gradients(build, [y, x]) == (np.inf, 1, (0, 2))


def test_a_nan_finite_difference_loss_fails_the_check():
    x = Variable(np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 0.0]]))
    # only the point x[1, 1] + FD_STEP makes the loss NaN
    result = check_gradients(lambda: ad.sum_all(_nan_op(x, forward_nan_above=2.0)), [x])
    assert result == (np.inf, 0, (1, 1))


def _seq2seq_case(scale, seed=0):
    """A depth-2 model's full loss at ``scale``'s sizes, against every parameter: (leaves, build)."""
    from hamattn.checks import _SCALES
    from hamattn.model import ModelConfig, Seq2SeqModel, sequence_loss

    d = _SCALES[scale]
    rng = np.random.default_rng(seed)
    model = Seq2SeqModel(ModelConfig(7, d["hidden"], ham_depth=2), rng)
    src = rng.integers(3, 7, size=(d["batch"], d["steps"]))
    tgt = rng.integers(3, 7, size=(d["batch"], d["steps"]))
    return list(model.parameters().values()), lambda: sequence_loss(model, src, tgt)


def _point_losses(build_loss, variables) -> list:
    """The loss at every central-difference point, one build per point.

    Points run variable by variable and coordinate by coordinate in C
    order, ``+FD_STEP`` before ``-FD_STEP``; each coordinate is restored
    after its build, also when the build raises.
    """
    losses = []
    for v in variables:
        for i in range(v.value.size):
            idx = np.unravel_index(i, v.value.shape)
            orig = v.value[idx]
            try:
                for step in (FD_STEP, -FD_STEP):
                    v.value[idx] = orig + step
                    losses.append(float(build_loss().value))
            finally:
                v.value[idx] = orig
    return losses


# the gradcheck rows whose finite differences run in stacked forwards
STACKED_ROWS = {
    "add", "sub", "mul", "scale", "softmax_vec", "tanh", "sigmoid",
    "cross_entropy", "ham_v", "encoder", "decoder",
}


@pytest.mark.parametrize("scale", ["tiny", "small"])
def test_stacked_finite_differences_match_the_point_loop(scale):
    """Every row, on the table's own instances (the draws of
    ``gradcheck_table(scale, seed, instances=1)`` at seeds 0-2), gives each
    finite-difference loss of the in-place point loop ``_point_losses``, bit
    for bit, from point builds and, on the stacked rows, from stacked builds;
    so the check results agree too."""
    from hamattn import checks

    for seed in range(3):
        rng = np.random.default_rng(seed)
        instances = [
            (name, stacked, *checks._instance(case, projected, rng))
            for name, case, projected, stacked in checks._gradcheck_cases(checks._SCALES[scale], rng)
        ]
        assert {name for name, stacked, *_ in instances if stacked} == STACKED_ROWS
        for name, stacked, leaves, loss in instances:
            originals = [v.value for v in leaves]
            saved = [v.value.copy() for v in leaves]
            oracle = _point_losses(loss, leaves)
            assert ad._fd_losses(loss, leaves, stacked=False) == oracle, name
            if stacked:
                assert ad._fd_losses(loss, leaves, stacked=True) == oracle, name
                assert check_gradients(loss, leaves, stacked=True) == check_gradients(loss, leaves), name
            assert all(v.value is orig for v, orig in zip(leaves, originals))
            for v, value in zip(leaves, saved):
                np.testing.assert_array_equal(v.value, value)
            if name in ("encoder", "decoder"):  # the rows of several chunks
                assert 2 * sum(v.size for v in saved) > ad.FD_CHUNK


def test_point_builds_across_several_chunks_match_the_point_loop():
    leaves, build = _seq2seq_case("small")
    calls = []

    def counted():
        calls.append(None)
        return build()

    points = 2 * sum(v.value.size for v in leaves)
    assert points == 860 and -(-points // ad.FD_CHUNK) == 4
    assert ad._fd_losses(counted, leaves, stacked=False) == _point_losses(build, leaves)
    assert len(calls) == points


def test_point_builds_bind_a_0d_variable_as_a_0d_array():
    x, y = Variable(np.array(0.5)), Variable(np.array([1.0, -2.0]))
    seen = []

    def build():
        seen.append((type(x.value), x.value.shape, type(y.value), y.value.shape))
        return ad.add(ad.mul(x, x), ad.sum_all(y))

    result = check_gradients(build, [x, y])
    assert result.max_rel_error < 1e-8
    # the taped build, then six perturbed points
    assert seen == [(np.ndarray, (), np.ndarray, (2,))] * 7


@pytest.mark.parametrize("stacked", [True, False])
def test_finite_differences_restore_values_after_a_build_raises(stacked):
    leaves, build = _seq2seq_case("tiny")
    originals = [v.value for v in leaves]
    saved = [v.value.copy() for v in leaves]
    calls = []

    def failing():
        calls.append(None)
        if len(calls) == 3:  # the taped build, then a perturbed one, then this
            raise RuntimeError("build failed")
        return build()

    with pytest.raises(RuntimeError, match="build failed"):
        check_gradients(failing, leaves, stacked=stacked)
    for v, orig, value in zip(leaves, originals, saved):
        assert v.value is orig
        np.testing.assert_array_equal(v.value, value)


def test_encoder_and_decoder_rows_make_one_stacked_forward_per_chunk(monkeypatch):
    from hamattn import checks

    calls = {"_encode": [], "_decode": []}

    def counted(name, op):
        def wrapper(*args):
            model = args[-1]
            calls[name].append((model.embedding.value.shape[:-2], ad._current_tape() is not None))
            return op(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(checks, name, counted(name, getattr(checks, name)))
    for scale, points in (("tiny", (294, 292)), ("small", (488, 500))):
        for seen in calls.values():
            seen.clear()
        checks.gradcheck_table(scale, instances=1)
        for name, row_points in zip(calls, points):
            chunks = -(-row_points // ad.FD_CHUNK)
            last = row_points - ad.FD_CHUNK * (chunks - 1)
            # the build that draws the projection, one taped build for the
            # analytic gradient, then one stacked forward per chunk
            stacked = [((ad.FD_CHUNK,), False)] * (chunks - 1) + [((last,), False)]
            assert chunks == 2 and calls[name] == [((), False), ((), True), *stacked], name


def test_gradcheck_bench_tables_match_committed_digests():
    """The benchmark's gradcheck tables (tiny, one instance, seeds 0 and 1), pinned
    by the sha256 of their ``json.dumps``: every row's error and worst coordinate
    at the call the benchmark times. Regenerate the file with the calls this test
    makes and record the move in CHANGES.md."""
    from hamattn.checks import gradcheck_table

    golden = Path(__file__).parent / "golden" / "gradcheck_bench.sha256"
    pinned = dict(line.split()[::-1] for line in golden.read_text().splitlines())
    for seed in (0, 1):
        rows = gradcheck_table("tiny", seed=seed, instances=1)
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == pinned[f"seed={seed}"]


@pytest.fixture(scope="module")
def tiny_gradcheck_rows():
    # full 100-instance sweep lives in the acceptance suite
    from hamattn.checks import gradcheck_table

    return {r["name"]: r for r in gradcheck_table(scale="tiny", seed=11, instances=3)}


@pytest.mark.parametrize(
    "name",
    [
        "matmul",
        "softmax_vec",
        "softmax_rows",
        "tanh",
        "sigmoid",
        "add",
        "scale",
        "concat",
        "dot",
        "mul",
        "add_bias",
        "sub",
        "gather_rows",
        "attend_scores",
        "attend_combine",
        "weighted_sum",
        "cross_entropy",
        "reshape",
        "transpose",
    ],
)
def test_primitive_gradients_smoke(name, tiny_gradcheck_rows):
    row = tiny_gradcheck_rows[name]
    assert row["max_err"] < row["threshold"]


def test_gradcheck_rows_are_plain_json_values(tiny_gradcheck_rows):
    rows = list(tiny_gradcheck_rows.values())
    assert json.loads(json.dumps(rows)) == rows
    for row in rows:
        assert type(row["max_err"]) is float and type(row["passed"]) is bool
        assert all(type(i) is int for i in [row["worst"][0], *row["worst"][1]])


# the gradcheck row of each op a training step records, by its vjp's __qualname__
TAPE_ROWS = {
    "_encode.<locals>.vjp": "encoder",
    "_decode.<locals>.vjp": "decoder",
    "cross_entropy_logits.<locals>.vjp": "cross_entropy",
}


def test_every_op_a_training_step_records_has_a_primitive_row(tiny_gradcheck_rows):
    """Reverse mode needs a checked vjp for each op the program records: every
    tape entry of a training step maps to its own passing row at PRIMITIVE_TOL."""
    from hamattn.checks import PRIMITIVE_TOL
    from hamattn.model import ModelConfig, Seq2SeqModel, sequence_loss

    model = Seq2SeqModel(ModelConfig(9, 4, ham_depth=3), np.random.default_rng(0))
    src, tgt = np.array([[3, 4, 5], [6, 7, 8]]), np.array([[5, 4], [8, 3]])
    with Tape() as tape:
        sequence_loss(model, src, tgt)
    names = [TAPE_ROWS[entry.vjp.__qualname__] for entry in tape.entries]
    assert names == ["encoder", "decoder", "cross_entropy"]
    for name in names:
        row = tiny_gradcheck_rows[name]
        assert row["threshold"] == PRIMITIVE_TOL and row["passed"], row


def test_gradcheck_table_matches_committed_golden():
    """The tiny table's rows, byte for byte: they move with any change to an
    op's arithmetic or to the table's draws. Regenerate the file with the call
    this test makes and record the move in CHANGES.md."""
    from hamattn.checks import gradcheck_table

    rows = gradcheck_table("tiny", seed=0, instances=2)
    golden = Path(__file__).parent / "golden" / "gradcheck_tiny.json"
    assert (json.dumps(rows, indent=2) + "\n").encode() == golden.read_bytes()


def test_shape_errors():
    with pytest.raises(DimensionError):
        ad.add(Variable(np.ones(2)), Variable(np.ones(3)))
    with pytest.raises(DimensionError):
        ad.matmul(Variable(np.ones((2, 3))), Variable(np.ones((2, 3))))
    with pytest.raises(DimensionError):
        ad.dot(Variable(np.ones((2, 2))), Variable(np.ones((2, 2))))
    with pytest.raises(DimensionError):
        ad.add_bias(Variable(np.ones((2, 3))), Variable(np.ones(2)))
    with pytest.raises(DomainError):
        ad.softmax(Variable(np.array([])))
    with pytest.raises(DomainError):
        ad.cross_entropy_logits(Variable(np.zeros((2, 3))), np.array([0, 5]))


def test_structural_ops_roundtrip_values():
    rng = np.random.default_rng(4)
    x = Variable(rng.uniform(-1, 1, (2, 3)))
    assert ad.transpose(ad.transpose(x)).value.tolist() == x.value.tolist()
    stacked = ad.stack([x, x], axis=1)
    assert stacked.value.shape == (2, 2, 3)
    parts = ad.concat([x, ad.scale(x, 2.0)], axis=1)
    assert parts.value.shape == (2, 6)
    sliced = ad.slice_1d(Variable(np.arange(5.0)), 1, 4)
    np.testing.assert_array_equal(sliced.value, [1.0, 2.0, 3.0])


def test_no_tape_means_no_recording():
    x = Variable(np.ones(3))
    with Tape() as tape:
        pass
    y = ad.scale(x, 3.0)
    loss = ad.sum_all(y)
    assert tape.entries == []
    with pytest.raises(DomainError):
        tape.backward(loss)
    np.testing.assert_array_equal(y.value, 3.0 * np.ones(3))
