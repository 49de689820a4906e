"""Outside-in span recorder for the traced benchmark run.

The recorder replaces module attributes of the already imported ``hamattn``
package with timing wrappers, so nothing under ``src/`` changes. A name is
patched in every ``hamattn`` module that holds it, because the library looks
most names up where they were imported: ``model`` calls ``ham_v_context``
through its own namespace, ``ham`` calls ``attention_levels`` through its
own, and ``checks`` and ``train`` import model functions by name.

Spans (name, start, end, parent) are kept in flat arrays while the run lasts
and aggregated or written out afterwards. A span's self time is its duration
minus the durations of its direct children. ``uninstall`` puts every
original attribute back; a later ``install`` records into the same spans
and counters.

Backward time is charged per op type without a hook in the tape: each forward
op wrapper tags the tape entries that op appended, and the wrapper on
``Tape.backward`` swaps every entry's ``vjp`` for a timed one before the
original ``backward`` runs, then restores the entries.
"""

import sys
import time
import weakref
from array import array

# autodiff ops whose forward and backward time the benchmark reports; every
# other op is still wrapped so that Tape.backward self time excludes it
REPORTED_OPS = (
    "gru_step",
    "softmax",
    "gather_rows",
    "concat",
    "stack",
    "add",
    "scale",
    "matmul",
    "attend_scores",
    "attend_combine",
    "weighted_sum",
    "cross_entropy_logits",
)
OTHER_OPS = (
    "sub",
    "mul",
    "affine",
    "add_bias",
    "dot",
    "transpose",
    "reshape",
    "slice_1d",
    "tanh",
    "sigmoid",
    "sum_all",
    "mean_all",
)
KERNELS = (
    "softmax_rows",
    "softmax_rows_vjp",
    "sigmoid",
    "sigmoid_vjp",
    "tanh",
    "tanh_vjp",
    "cross_entropy_rows",
)
# (module, function) pairs timed as plain spans
FUNCTIONS = (
    ("data", "gen_task"),
    ("model", "encode_batch"),
    ("model", "decode_step_batch"),
    ("model", "gru_step"),
    ("model", "sequence_loss"),
    ("ham", "ham_v_context"),
    ("ham", "norm_bound_suite"),
    ("ham", "reduction_report"),
    ("attention", "attention_levels"),
    ("attention", "self_attention_layer"),
    ("autodiff", "check_gradients"),
    ("train", "train"),
    ("train", "adam_step"),
    ("checks", "verify_report"),
    ("checks", "property_report"),
    ("checks", "gradcheck_table"),
)


def _nbytes(x) -> int:
    if isinstance(x, tuple):
        return sum(_nbytes(v) for v in x)
    return getattr(x, "nbytes", 0)


class SpanRecorder:
    """Records spans around the public functions of the hamattn modules."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._tags = weakref.WeakKeyDictionary()  # tape -> op name per entry
        self.kernel_bytes: dict[str, int] = {}
        self.clip_calls = 0
        self.clip_fired = 0
        self.generate_tokens = 0
        self.train_steps = 0
        self.train_tape_entries = 0

    # -- span bookkeeping --------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _inside(self, name_id: int) -> bool:
        return any(self.name_id[i] == name_id for i in self._stack)

    # -- wrapper factories -------------------------------------------------

    def _timed(self, name, fn, after=None):
        nid = self._id(name)

        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _op(self, op_name, fn, autodiff):
        nid = self._id(f"autodiff.op.{op_name}.fwd")
        current_tape = autodiff._current_tape

        def wrapper(*args, **kwargs):
            tape = current_tape()
            before = len(tape.entries) if tape is not None else 0
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if tape is not None:
                tags = self._tags.setdefault(tape, [])
                tags.extend([None] * (before - len(tags)))
                tags.extend([op_name] * (len(tape.entries) - before))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_vjp(self, name_id, vjp):
        def timed(g):
            idx = self._open(name_id)
            try:
                return vjp(g)
            finally:
                self._close(idx)

        return timed

    def _backward(self, fn):
        nid = self._id("autodiff.Tape.backward")
        train_id = self._id("train.train")
        bwd_ids = {op: self._id(f"autodiff.op.{op}.bwd") for op in REPORTED_OPS + OTHER_OPS}
        untagged = self._id("autodiff.op.untagged.bwd")
        recorder = self

        def backward(tape, loss):
            tags = recorder._tags.get(tape, [])
            original = list(tape.entries)
            for i, entry in enumerate(original):
                op = tags[i] if i < len(tags) else None
                name_id = bwd_ids[op] if op is not None else untagged
                tape.entries[i] = entry._replace(vjp=recorder._timed_vjp(name_id, entry.vjp))
            if recorder._inside(train_id):
                recorder.train_steps += 1
                recorder.train_tape_entries += len(original)
            idx = recorder._open(nid)
            try:
                return fn(tape, loss)
            finally:
                recorder._close(idx)
                tape.entries[:] = original

        backward.__wrapped__ = fn
        return backward

    # -- installation ------------------------------------------------------

    def _patch_everywhere(self, original, replacement) -> None:
        """Replace ``original`` in every loaded hamattn module that holds it."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "hamattn" or mod_name.startswith("hamattn.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        mods = {
            name: sys.modules[f"hamattn.{name}"]
            for name in ("autodiff", "model", "kernels", "train", "data", "ham", "attention", "checks")
        }
        ad = mods["autodiff"]

        def count_clip(args, norm):
            self.clip_calls += 1
            self.clip_fired += int(norm > args[1])

        def count_tokens(args, tokens):
            self.generate_tokens += len(tokens)

        for mod, fn in FUNCTIONS:
            original = getattr(mods[mod], fn)
            self._patch_everywhere(original, self._timed(f"{mod}.{fn}", original))
        for mod, fn, after in (
            ("train", "clip_gradients", count_clip),
            ("model", "generate", count_tokens),
        ):
            original = getattr(mods[mod], fn)
            self._patch_everywhere(original, self._timed(f"{mod}.{fn}", original, after))
        for op in REPORTED_OPS + OTHER_OPS:
            # the fused GRU cell is the tape op behind model.gru_step
            owner = mods["model"] if op == "gru_step" else ad
            original = getattr(owner, "_gru_cell" if op == "gru_step" else op)
            self._patch_everywhere(original, self._op(op, original, ad))
        for kernel in KERNELS:
            original = getattr(mods["kernels"], kernel)
            self.kernel_bytes.setdefault(kernel, 0)

            def add_bytes(args, result, kernel=kernel):
                self.kernel_bytes[kernel] += _nbytes(args) + _nbytes(result)

            self._patch_everywhere(
                original, self._timed(f"kernels.{kernel}", original, add_bytes)
            )
        self._patched.append((ad.Tape, "backward", ad.Tape.backward))
        ad.Tape.backward = self._backward(ad.Tape.backward)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: ``calls``, ``total_s`` (inclusive) and ``self_s``."""
        import numpy as np

        if self._stack:
            raise RuntimeError("aggregate() called with spans still open")
        n_names = len(self.names)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        calls = np.bincount(names, minlength=n_names)
        total = np.bincount(names, weights=dur, minlength=n_names)
        self_time = np.bincount(names, weights=dur - child, minlength=n_names)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_time[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span to a compressed ``.npz`` file."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
