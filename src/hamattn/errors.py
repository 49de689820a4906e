"""Exception types shared across the package, and the one integer check."""

import numpy as np


class DimensionError(ValueError):
    """Operands have incompatible shapes. The message names both shapes."""


class DomainError(ValueError):
    """An argument is outside the operation's domain (empty input, bad depth, ...)."""


class CorpusError(ValueError):
    """A corpus file failed to parse or validate. The message names the file and the line."""


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite loss. The message names epoch and batch."""


def check_int(name: str, value, lo: int, hi=None) -> int:
    """``value`` as an int if it is a Python or numpy integer in [lo, hi] (no upper
    bound when ``hi`` is None); a bool, float, string or None raises DomainError."""
    ok = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if ok and lo <= value and (hi is None or value <= hi):
        return int(value)
    span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    raise DomainError(f"{name} must be an integer {span}, got {value!r}")
