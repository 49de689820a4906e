"""Every library name that ``perfbench/`` resolves still exists.

The benchmark wraps library functions that it looks up by module and
attribute name, and the tier-1 run never starts a traced benchmark run, so a
rename or a deletion under ``src/`` would otherwise break
``perfbench/run.py --trace 1`` unnoticed. The perfbench files are read with
``ast``, not imported: importing ``run.py`` sets BLAS variables and checks
paths.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(filename: str) -> ast.Module:
    return ast.parse((PERFBENCH / filename).read_text(encoding="utf-8"))


def _constant(tree: ast.Module, name: str):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no top-level constant {name}")


def _module_attributes(tree: ast.Module) -> set:
    """(module, attribute) for every ``alias.attr`` read on a hamattn module alias."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "hamattn":
            aliases.update({a.asname or a.name: a.name for a in node.names})
        # training = importlib.import_module("hamattn.train")
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "attr", None) == "import_module"
        ):
            module = ast.literal_eval(node.value.args[0])
            if module.startswith("hamattn."):
                aliases[node.targets[0].id] = module.removeprefix("hamattn.")
    return {
        (aliases[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    }


def _resolved_names() -> list:
    run, spans = _tree("run.py"), _tree("spans.py")
    names = set(_constant(run, "STAMP_POINTS")) | _module_attributes(run)
    names |= set(_constant(spans, "FUNCTIONS"))
    for op in _constant(spans, "REPORTED_OPS") + _constant(spans, "OTHER_OPS"):
        # the fused GRU cell is the tape op behind model.gru_step
        names.add(("model", "_gru_cell") if op == "gru_step" else ("autodiff", op))
    names |= {("kernels", kernel) for kernel in _constant(spans, "KERNELS")}
    # SpanRecorder.install also wraps these, and swaps Tape.backward
    names |= {
        ("train", "clip_gradients"),
        ("model", "generate"),
        ("autodiff", "_current_tape"),
        ("autodiff", "Tape"),
    }
    return sorted(names)


def test_every_name_perfbench_resolves_exists():
    missing = [
        f"{module}.{attr}"
        for module, attr in _resolved_names()
        if not hasattr(importlib.import_module(f"hamattn.{module}"), attr)
    ]
    assert missing == []
    # the span recorder tags Tape.entries and swaps each entry's vjp
    from hamattn.autodiff import Tape, TapeEntry

    assert Tape().entries == [] and "vjp" in TapeEntry._fields
