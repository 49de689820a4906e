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
from .errors import DomainError, check_int
from .ham import MAX_REDUCTION_INSTANCES, ham_v_context, reduction_report, norm_bound_suite
from .model import GRUParams, ModelConfig, Seq2SeqModel, gru_step, sequence_loss
from .tensor import softmax_vec

PRIMITIVE_TOL = 1e-5
END_TO_END_TOL = 1e-4
REDUCTION_ONEHOT_TOL = 1e-7
REDUCTION_D1_TOL = 1e-12
PROPERTY_TOL = 1e-12
PROPERTY_SAMPLES = 200  # random instances per property_report check
# Largest gradcheck --instances: an instance takes about 0.026 s at scale "tiny"
# and 0.06 s at "small" on a 2-core host, so the cap is 0.5-1 minute; the default is 30.
MAX_GRADCHECK_INSTANCES = 1_000


# ---------------------------------------------------------------------------
# verify: distribution / equivalence properties


def _probability_error(p) -> float:
    """Distance of p from a probability vector: |sum - 1|, or its most negative entry."""
    return max(abs(float(p.sum()) - 1.0), float(-p.min()) if p.min() <= 0 else 0.0)


def property_report(seed: int = 0) -> dict:
    """Randomized softmax, distribution and degeneracy checks.

    Each entry records the worst deviation observed and the first failing
    instance, if any, for replay.
    """
    rng = np.random.default_rng(check_int("seed", seed, 0))
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

    def keys_and_query(n_min=1):
        """Keys [dk, n] and a query [dk] with entries in [-3, 3], and their replay record."""
        dk = int(rng.integers(1, 9))
        n = int(rng.integers(n_min, 17))
        K = rng.uniform(-3.0, 3.0, size=(dk, n))
        q = rng.uniform(-3.0, 3.0, size=dk)
        return K, q, {"K_columns": K.T.tolist(), "q": q.tolist()}

    def softmax_probability():
        x = rng.uniform(-50.0, 50.0, size=int(rng.integers(1, 20)))
        return _probability_error(softmax_vec(x)), {"x": x.tolist()}

    def softmax_shift_invariance():
        x = rng.uniform(-5.0, 5.0, size=int(rng.integers(1, 20)))
        c = float(rng.uniform(-100.0, 100.0))
        err = float(np.max(np.abs(softmax_vec(x) - softmax_vec(x + c))))
        return err, {"x": x.tolist(), "shift": c}

    def distribution_is_probability():
        K, q, instance = keys_and_query()
        return _probability_error(attention_distribution(K, q)), instance

    def sdp_single_query_matches_vanilla():
        K, q, instance = keys_and_query()
        row_form = sdp_attention(q.reshape(1, -1), K.T, K.T)[0]
        return float(np.max(np.abs(row_form - vanilla_attention(q, K)))), instance

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
        K, q, instance = keys_and_query(n_min=2)
        perm = rng.permutation(K.shape[1])
        p = attention_distribution(K, q)
        p_perm = attention_distribution(K[:, perm], q)
        err = float(np.max(np.abs(p[perm] - p_perm)))
        err = max(err, float(np.max(np.abs(vanilla_attention(q, K) - vanilla_attention(q, K[:, perm])))))
        return err, {**instance, "perm": perm.tolist()}

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
    reduction_instances = check_int("reduction_instances", reduction_instances, 1, MAX_REDUCTION_INSTANCES)
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
    passed = bounds["upper_violations"] == 0 and reductions_pass and props_pass
    report = {
        "norm_bounds": bounds,
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


# the operand sizes of each gradcheck scale; ``gradcheck --scale`` offers these keys
_SCALES = {
    "tiny": {"vec": 5, "rows": 3, "cols": 4, "inner": 3, "batch": 2, "steps": 2, "hidden": 3},
    "small": {"vec": 9, "rows": 5, "cols": 6, "inner": 4, "batch": 3, "steps": 3, "hidden": 4},
}


def _projected(out: Variable, w: np.ndarray) -> Variable:
    """The taped scalar ``sum(w * out)``, or on a stacked output [R, ...] the R
    per-set sums: each set's product is one contiguous run that ``np.sum``
    reduces pairwise, as ``sum_all`` reduces one set, so each sum keeps its bits."""
    if out.value.ndim == w.ndim:
        return ad.sum_all(ad.mul(out, Variable(w)))
    prod = out.value * w
    return Variable(np.sum(prod.reshape(len(prod), -1), axis=1))


def _gradcheck_cases(d: dict, rng: np.random.Generator) -> list:
    """The gradcheck table's rows ``(name, case, threshold, projected, stacked)``
    at the operand sizes ``d`` (one of ``_SCALES``); every case draws from ``rng``."""
    v, r, c, k, b, h = (d[key] for key in ("vec", "rows", "cols", "inner", "batch", "hidden"))

    def u(*shape):
        return Variable(rng.uniform(-2.0, 2.0, size=shape))

    def on(op, *shapes):  # the case applying op to one uniform leaf per shape
        def case():
            leaves = [u(*shape) for shape in shapes]
            return leaves, lambda: op(*leaves)
        return case

    def scale_case():
        a, f = u(r, c), float(rng.uniform(-2.0, 2.0))
        return [a], lambda: ad.scale(a, f)

    def gather_case():
        table, ids = u(v, c), rng.integers(0, v, size=r)
        return [table], lambda: ad.gather_rows(table, ids)

    def weighted_sum_case():
        xs, w = [u(r, c) for _ in range(3)], u(3)
        return [*xs, w], lambda: ad.weighted_sum(xs, w)

    def cross_entropy_case():
        logits, targets = u(r, v), rng.integers(0, v, size=r)
        return [logits], lambda: ad.cross_entropy_logits(logits, targets)

    def gru_chain_case():
        cell = GRUParams(rng, h, h)
        xs = [u(1, h) for _ in range(3)]
        h0 = u(1, h)

        def forward():
            state = h0
            for x in xs:
                state = gru_step(x, state, cell)
            return state

        return [*cell.variables().values(), *xs, h0], forward

    def seq2seq_case():
        vocab = 4 + 3
        model = Seq2SeqModel(ModelConfig(vocab, h, ham_depth=2), rng)
        src = rng.integers(3, vocab, size=(b, d["steps"]))
        tgt = rng.integers(3, vocab, size=(b, d["steps"]))
        return list(model.parameters().values()), lambda: sequence_loss(model, src, tgt)

    P = PRIMITIVE_TOL
    # (name, case, threshold, projected, stacked); the two unprojected rows build
    # scalar losses, and the stacked rows' builds also score stacked parameter sets
    return [
        ("add", on(ad.add, (r, c), (r, c)), P, True, True),
        ("sub", on(ad.sub, (r, c), (r, c)), P, True, True),
        ("mul", on(ad.mul, (r, c), (r, c)), P, True, True),
        ("scale", scale_case, P, True, True),
        ("add_bias", on(ad.add_bias, (r, c), (c,)), P, True, False),
        ("matmul", on(ad.matmul, (r, k), (k, c)), P, True, False),
        ("dot", on(ad.dot, (v,), (v,)), P, True, False),
        ("concat", on(lambda x, y: ad.concat([x, y], axis=1), (r, c), (r, c + 1)), P, True, False),
        ("softmax_vec", on(ad.softmax, (v,)), P, True, True),
        ("softmax_rows", on(ad.softmax, (r, c)), P, True, False),
        ("tanh", on(ad.tanh, (r, c)), P, True, True),
        ("sigmoid", on(ad.sigmoid, (r, c)), P, True, True),
        ("gather_rows", gather_case, P, True, False),
        ("attend_scores", on(ad.attend_scores, (b, r, c), (b, c)), P, True, False),
        ("attend_combine", on(ad.attend_combine, (b, r, c), (b, r)), P, True, False),
        ("weighted_sum", weighted_sum_case, P, True, False),
        ("cross_entropy", cross_entropy_case, P, False, True),
        # one example through the batched connector: [1, k] query, [1, r, k] keys
        ("ham_v", on(lambda q, K, cc: ham_v_context(K, q, cc), (1, k), (1, r, k), (3,)), P, True, True),
        ("gru_chain", gru_chain_case, P, True, True),
        ("seq2seq_loss", seq2seq_case, END_TO_END_TOL, False, True),
        ("reshape", on(lambda x: ad.reshape(x, (b * r, c)), (b, r, c)), P, True, False),
        ("transpose", on(ad.transpose, (r, c)), P, True, False),
    ]


def _instance(case, projected: bool, rng: np.random.Generator):
    """One drawn instance of a row's case as ``(leaves, loss)``: a projected
    row's loss is ``_projected`` of its build under a ``w`` drawn here."""
    leaves, build = case()
    if not projected:
        return leaves, build
    w = rng.uniform(-1.0, 1.0, size=build().value.shape)
    return leaves, lambda: _projected(build(), w)


def gradcheck_table(scale: str = "tiny", seed: int = 0, instances: int = 30) -> list:
    """Max relative finite-difference error per differentiable op of the library.

    Returns rows ``{name, max_err, threshold, passed, worst}`` of plain Python
    values: one per primitive, the batched ham_v connector, a chained GRU and
    the full seq2seq loss (checked against all model parameters at once).
    ``sum_all`` and ``mul`` are in every projected row; ``affine``,
    ``mean_all``, ``slice_1d`` and ``stack`` have no row, as nothing calls them.
    Of the primitive rows, only ``mul`` (the projection) and the model's
    ``matmul``, ``concat``, ``gather_rows``, ``reshape`` and ``cross_entropy`` pin
    ops that run outside their own row; the others stay while the benchmark's
    trace names their ops.

    Each case draws its leaves and returns ``(leaves, build)``. Rows marked
    projected then draw a random linear functional ``w`` of the output, fixed
    per instance, and check ``sum(w * build())``; the others build a scalar loss.
    Every row's finite differences run in ``check_gradients``' one chunked
    loop. Rows marked stacked score a chunk in one forward,
    ``check_gradients(..., stacked=True)``, as their ops take a leading
    parameter-set axis: ``add``, ``sub``, ``mul``, ``scale``, ``softmax_vec``,
    ``tanh``, ``sigmoid``, ``cross_entropy``, ``ham_v`` (``ham_v_context``),
    ``gru_chain`` (``gru_step``) and ``seq2seq_loss`` (``sequence_loss``); a
    projected row's stacked output is reduced per set by ``_projected``. Every
    other row builds once per point of the chunk. Both give the same bits.
    """
    instances = check_int("instances", instances, 1, MAX_GRADCHECK_INSTANCES)
    if not isinstance(scale, str) or scale not in _SCALES:
        raise DomainError(f"scale must be one of {tuple(_SCALES)}, got {scale!r}")
    rng = np.random.default_rng(check_int("seed", seed, 0))
    rows = []
    for name, case, tol, projected, stacked in _gradcheck_cases(_SCALES[scale], rng):
        worst_err, worst_at = 0.0, None
        for _ in range(instances):
            leaves, loss = _instance(case, projected, rng)
            result = check_gradients(loss, leaves, stacked)
            if result.max_rel_error > worst_err:
                worst_err = float(result.max_rel_error)
                worst_at = [int(result.worst_variable), [int(i) for i in result.worst_coord]]
        rows.append(
            {"name": name, "max_err": worst_err, "threshold": tol, "passed": worst_err < tol, "worst": worst_at}
        )
    return rows
