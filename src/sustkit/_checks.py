"""Scalar input checks shared by every constructor, JSON reader and CLI verb.

Each check raises ValueError naming the input and the bound, and is written
so that NaN fails it.
"""

from __future__ import annotations

import math
import numbers
from typing import Iterable


def is_number(value) -> bool:
    """A JSON number; ``true`` and ``false`` load as bool, a subclass of int."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_positive(name: str, values: Iterable[float]) -> None:
    """Raise ValueError unless every value is finite and strictly positive."""
    for v in values:
        if not (v > 0 and math.isfinite(v)):
            raise ValueError(f"{name} must be positive and finite, got {v!r}")


def whole_number(name: str, value, minimum: int) -> int:
    """``value`` as an int, rejected with ValueError unless it is a whole
    number of at least ``minimum`` (a whole-valued float counts; NaN, inf
    and bool do not)."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Real) and value >= minimum and float(value).is_integer()):
        raise ValueError(f"{name} must be a whole number >= {minimum}, got {value!r}")
    return int(value)


def check_interval(lo, hi) -> None:
    """Raise ValueError unless lo and hi are finite and lo < hi."""
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got [{lo}, {hi}]")
