"""Randomized verification suites behind the verify and gradcheck commands.

Everything here is deterministic given its seed, so reports can be diffed
byte for byte. Gradient checks compare reverse-mode results against central
finite differences (step ``FD_STEP``) through a random linear functional of each
op's output, which exercises the full Jacobian rather than just its row sums.
"""

import numpy as np

from . import autodiff as ad
from .attention import (
    MultiHeadParams,
    attention_distribution,
    multi_head,
    sdp_attention,
    vanilla_attention,
)
from .autodiff import Variable, check_gradients
from .errors import DomainError
from .ham import MAX_REDUCTION_INSTANCES, ham_s_vars, ham_v_context, reduction_report, norm_bound_suite
from .model import GRUParams, ModelConfig, Seq2SeqModel, gru_step, sequence_loss
from .tensor import softmax_vec

PRIMITIVE_TOL = 1e-5
END_TO_END_TOL = 1e-4
REDUCTION_ONEHOT_TOL = 1e-7
REDUCTION_D1_TOL = 1e-12
PROPERTY_TOL = 1e-12
PROPERTY_SAMPLES = 200  # random instances per property_report check
# Largest gradcheck --instances: an instance takes about 0.35 s at scale "tiny"
# and 0.75 s at "small", so the cap is 6-13 minutes; the default is 30.
MAX_GRADCHECK_INSTANCES = 1_000


# ---------------------------------------------------------------------------
# verify: distribution / equivalence properties


def property_report(seed: int = 0) -> dict:
    """Randomized softmax, distribution and degeneracy checks.

    Each entry records the worst deviation observed and the first failing
    instance, if any, for replay.
    """
    rng = np.random.default_rng(seed)
    report = {}

    def run(name, tol, sampler):
        worst = 0.0
        failing = None
        for _ in range(PROPERTY_SAMPLES):
            err, instance = sampler()
            if err > worst:
                worst = err
                if err > tol:
                    failing = instance
        report[name] = {
            "max_err": worst,
            "tolerance": tol,
            "passed": worst <= tol,
            "failing_instance": failing,
        }

    def softmax_probability():
        x = rng.uniform(-50.0, 50.0, size=int(rng.integers(1, 20)))
        p = softmax_vec(x)
        err = max(abs(float(p.sum()) - 1.0), float(-p.min()) if p.min() <= 0 else 0.0)
        return err, {"x": x.tolist()}

    def softmax_shift_invariance():
        x = rng.uniform(-5.0, 5.0, size=int(rng.integers(1, 20)))
        c = float(rng.uniform(-100.0, 100.0))
        err = float(np.max(np.abs(softmax_vec(x) - softmax_vec(x + c))))
        return err, {"x": x.tolist(), "shift": c}

    def distribution_is_probability():
        dk = int(rng.integers(1, 9))
        n = int(rng.integers(1, 17))
        K = rng.uniform(-3.0, 3.0, size=(dk, n))
        q = rng.uniform(-3.0, 3.0, size=dk)
        p = attention_distribution(K, q)
        err = max(abs(float(p.sum()) - 1.0), float(-p.min()) if p.min() <= 0 else 0.0)
        return err, {"K_columns": K.T.tolist(), "q": q.tolist()}

    def sdp_single_query_matches_vanilla():
        dk = int(rng.integers(1, 9))
        n = int(rng.integers(1, 17))
        K = rng.uniform(-3.0, 3.0, size=(dk, n))
        q = rng.uniform(-3.0, 3.0, size=dk)
        row_form = sdp_attention(q.reshape(1, -1), K.T, K.T)[0]
        err = float(np.max(np.abs(row_form - vanilla_attention(q, K))))
        return err, {"K_columns": K.T.tolist(), "q": q.tolist()}

    def multi_head_identity_degenerates():
        d = int(rng.integers(1, 7))
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 7))
        Q = rng.uniform(-2.0, 2.0, size=(m, d))
        K = rng.uniform(-2.0, 2.0, size=(n, d))
        V = rng.uniform(-2.0, 2.0, size=(n, d))
        out = multi_head(Q, K, V, MultiHeadParams.identity(d, h=1))
        err = float(np.max(np.abs(out - sdp_attention(Q, K, V))))
        return err, {"Q": Q.tolist(), "K": K.tolist(), "V": V.tolist()}

    def permutation_equivariance():
        dk = int(rng.integers(1, 9))
        n = int(rng.integers(2, 17))
        K = rng.uniform(-3.0, 3.0, size=(dk, n))
        q = rng.uniform(-3.0, 3.0, size=dk)
        perm = rng.permutation(n)
        p = attention_distribution(K, q)
        p_perm = attention_distribution(K[:, perm], q)
        err = float(np.max(np.abs(p[perm] - p_perm)))
        err = max(err, float(np.max(np.abs(vanilla_attention(q, K) - vanilla_attention(q, K[:, perm])))))
        return err, {"K_columns": K.T.tolist(), "q": q.tolist(), "perm": perm.tolist()}

    run("softmax_probability_vector", PROPERTY_TOL, softmax_probability)
    run("softmax_shift_invariance", PROPERTY_TOL, softmax_shift_invariance)
    run("attention_distribution_probability", PROPERTY_TOL, distribution_is_probability)
    run("sdp_single_query_equals_vanilla", PROPERTY_TOL, sdp_single_query_matches_vanilla)
    run("multi_head_identity_equals_sdp", PROPERTY_TOL, multi_head_identity_degenerates)
    run("permutation_equivariance", PROPERTY_TOL, permutation_equivariance)
    return report


def verify_report(
    trials: int = 10_000,
    seed: int = 0,
    max_depth: int = 10,
    reduction_instances: int = 1_000,
) -> tuple[dict, bool]:
    """Assemble the full verification report; second value is overall pass."""
    cap = MAX_REDUCTION_INSTANCES  # checked before any suite runs
    if not 1 <= reduction_instances <= cap:
        raise DomainError(f"reduction_instances must lie in [1, {cap}], got {reduction_instances}")
    bounds = norm_bound_suite(trials, seed=seed, max_depth=max_depth)
    red = reduction_report(reduction_instances, seed=seed + 1)
    props = property_report(seed=seed + 2)

    reductions_pass = (
        red["ham_v_onehot_max_err"] < REDUCTION_ONEHOT_TOL
        and red["ham_s_onehot_max_err"] < REDUCTION_ONEHOT_TOL
        and red["ham_v_d1_max_err"] <= REDUCTION_D1_TOL
        and red["ham_s_d1_max_err"] <= REDUCTION_D1_TOL
    )
    props_pass = all(entry["passed"] for entry in props.values())
    passed = bounds.passed() and reductions_pass and props_pass
    report = {
        "norm_bounds": bounds.to_dict(),
        "reductions": {
            **red,
            "onehot_tolerance": REDUCTION_ONEHOT_TOL,
            "d1_tolerance": REDUCTION_D1_TOL,
            "passed": reductions_pass,
        },
        "properties": props,
        "passed": passed,
    }
    return report, passed


# ---------------------------------------------------------------------------
# gradcheck table


def _proj(out: Variable, rng: np.random.Generator):
    """Random linear functional of an op output, fixed per instance."""
    r = rng.uniform(-1.0, 1.0, size=out.value.shape)
    return lambda o: ad.sum_all(ad.mul(o, Variable(r)))


def _dims(scale: str) -> dict:
    if scale == "tiny":
        return {"vec": 5, "rows": 3, "cols": 4, "inner": 3, "batch": 2, "steps": 2, "hidden": 3}
    if scale == "small":
        return {"vec": 9, "rows": 5, "cols": 6, "inner": 4, "batch": 3, "steps": 3, "hidden": 4}
    raise DomainError(f"scale must be 'tiny' or 'small', got {scale!r}")


def gradcheck_table(scale: str = "tiny", seed: int = 0, instances: int = 30) -> list:
    """Max relative finite-difference error per differentiable op.

    Returns rows ``{name, max_err, threshold, passed, worst}`` covering every
    primitive, the hierarchical attention forms, a chained GRU and the full
    seq2seq loss (checked against all model parameters at once).
    """
    if not 1 <= instances <= MAX_GRADCHECK_INSTANCES:
        raise DomainError(f"instances must lie in [1, {MAX_GRADCHECK_INSTANCES}], got {instances}")
    d = _dims(scale)
    rng = np.random.default_rng(seed)

    def u(*shape):
        return Variable(rng.uniform(-2.0, 2.0, size=shape))

    def binary(op, sa, sb):
        def one():
            a, b = u(*sa), u(*sb)
            loss = _proj(op(a, b), rng)
            return check_gradients(lambda: loss(op(a, b)), [a, b])

        return one

    def unary(op, shape):
        def one():
            a = u(*shape)
            loss = _proj(op(a), rng)
            return check_gradients(lambda: loss(op(a)), [a])

        return one

    v, r, c, k = d["vec"], d["rows"], d["cols"], d["inner"]

    def concat_case():
        xs = [u(r, c), u(r, c + 1)]
        loss = _proj(ad.concat(xs, axis=1), rng)
        return check_gradients(lambda: loss(ad.concat(xs, axis=1)), xs)

    def scale_case():
        a = u(r, c)
        f = float(rng.uniform(-2.0, 2.0))
        loss = _proj(ad.scale(a, f), rng)
        return check_gradients(lambda: loss(ad.scale(a, f)), [a])

    def gather_case():
        table = u(v, c)
        ids = rng.integers(0, v, size=r)
        loss = _proj(ad.gather_rows(table, ids), rng)
        return check_gradients(lambda: loss(ad.gather_rows(table, ids)), [table])

    def weighted_sum_case():
        xs = [u(r, c) for _ in range(3)]
        w = u(3)
        loss = _proj(ad.weighted_sum(xs, w), rng)
        return check_gradients(lambda: loss(ad.weighted_sum(xs, w)), [*xs, w])

    def cross_entropy_case():
        logits = u(r, v)
        targets = rng.integers(0, v, size=r)
        return check_gradients(lambda: ad.cross_entropy_logits(logits, targets), [logits])

    def ham_v_case():
        # one example through the batched connector: [1, k] query, [1, r, k] keys
        q, K, cc = u(1, k), u(1, r, k), u(3)
        loss = _proj(ham_v_context(K, q, cc), rng)
        return check_gradients(lambda: loss(ham_v_context(K, q, cc)), [q, K, cc])

    def ham_s_case():
        X, cc = u(r, k), u(3)
        loss = _proj(ham_s_vars(X, cc), rng)
        return check_gradients(lambda: loss(ham_s_vars(X, cc)), [X, cc])

    def gru_chain_case():
        h = d["hidden"]
        cell = GRUParams(rng, h, h)
        xs = [u(1, h) for _ in range(3)]
        h0 = u(1, h)

        def forward():
            state = h0
            for x in xs:
                state = gru_step(x, state, cell)
            return state

        loss = _proj(forward(), rng)
        leaves = [*cell.variables().values(), *xs, h0]
        return check_gradients(lambda: loss(forward()), leaves)

    def seq2seq_case():
        h = d["hidden"]
        vocab = 4 + 3
        model = Seq2SeqModel(ModelConfig(vocab, h, ham_depth=2), rng)
        b, n = d["batch"], d["steps"]
        src = rng.integers(3, vocab, size=(b, n))
        tgt = rng.integers(3, vocab, size=(b, n))
        return check_gradients(
            lambda: sequence_loss(model, src, tgt), model.parameters().values()
        )

    cases = [
        ("add", PRIMITIVE_TOL, binary(ad.add, (r, c), (r, c))),
        ("sub", PRIMITIVE_TOL, binary(ad.sub, (r, c), (r, c))),
        ("mul", PRIMITIVE_TOL, binary(ad.mul, (r, c), (r, c))),
        ("scale", PRIMITIVE_TOL, scale_case),
        ("add_bias", PRIMITIVE_TOL, binary(ad.add_bias, (r, c), (c,))),
        ("matmul", PRIMITIVE_TOL, binary(ad.matmul, (r, k), (k, c))),
        ("dot", PRIMITIVE_TOL, binary(ad.dot, (v,), (v,))),
        ("concat", PRIMITIVE_TOL, concat_case),
        ("softmax_vec", PRIMITIVE_TOL, unary(ad.softmax, (v,))),
        ("softmax_rows", PRIMITIVE_TOL, unary(ad.softmax, (r, c))),
        ("tanh", PRIMITIVE_TOL, unary(ad.tanh, (r, c))),
        ("sigmoid", PRIMITIVE_TOL, unary(ad.sigmoid, (r, c))),
        ("gather_rows", PRIMITIVE_TOL, gather_case),
        ("attend_scores", PRIMITIVE_TOL, binary(ad.attend_scores, (d["batch"], r, c), (d["batch"], c))),
        ("attend_combine", PRIMITIVE_TOL, binary(ad.attend_combine, (d["batch"], r, c), (d["batch"], r))),
        ("weighted_sum", PRIMITIVE_TOL, weighted_sum_case),
        ("cross_entropy", PRIMITIVE_TOL, cross_entropy_case),
        ("ham_v", PRIMITIVE_TOL, ham_v_case),
        ("ham_s", PRIMITIVE_TOL, ham_s_case),
        ("gru_chain", PRIMITIVE_TOL, gru_chain_case),
        ("seq2seq_loss", END_TO_END_TOL, seq2seq_case),
    ]

    rows = []
    for name, tol, case in cases:
        worst_err = 0.0
        worst_at = None
        for _ in range(instances):
            result = case()
            if result.max_rel_error > worst_err:
                worst_err = result.max_rel_error
                worst_at = (result.worst_variable, list(result.worst_coord))
        rows.append(
            {
                "name": name,
                "max_err": worst_err,
                "threshold": tol,
                "passed": worst_err < tol,
                "worst": worst_at,
            }
        )
    return rows
