"""Input checks shared by every constructor, file reader and CLI verb.

A number is an int or a float, numpy scalars included, but never a bool
(JSON ``true`` loads as one), a string or None.  Each check raises
ValueError naming the input, returns the validated value(s) as float (int
for counts) and is written so that NaN fails it.
"""

from __future__ import annotations

import csv
import math
import numbers
from typing import Iterator, Sequence


def is_number(value) -> bool:
    """The one test of what counts as a number (see the module docstring)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _real(value) -> float:
    """``value`` as a float if it is a number, else NaN, which every check fails."""
    if type(value) is float:  # the common case, without the ABC check
        return value
    try:
        return float(value) if is_number(value) else math.nan
    except OverflowError:  # an int beyond the float range
        return math.inf


def finite(name: str, value) -> float:
    """``value`` as a float, rejected unless it is a finite number."""
    x = _real(value)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return x


def check_positive(name: str, values: Sequence) -> tuple[float, ...]:
    """``values`` as floats, rejected unless each is a finite number > 0."""
    out = tuple(map(_real, values))
    for v, x in zip(values, out):
        if not 0 < x < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {v!r}")
    return out


def whole_number(name: str, value, minimum: int) -> int:
    """``value`` as an int, rejected unless a whole number >= ``minimum`` (2.0 counts)."""
    x = _real(value)
    if not (x >= minimum and x.is_integer()):
        raise ValueError(f"{name} must be a whole number >= {minimum}, got {value!r}")
    return int(value)


def check_interval(lo, hi) -> tuple[float, float]:
    """``(lo, hi)`` as floats, rejected unless both are numbers, lo < hi and the
    length hi - lo is finite (so are lo and hi then)."""
    lo_f, hi_f = _real(lo), _real(hi)
    if not (lo_f < hi_f and hi_f - lo_f < math.inf):
        raise ValueError(f"need finite lo < hi with a finite length hi - lo, got [{lo!r}, {hi!r}]")
    return lo_f, hi_f


def blank(text: str) -> bool:
    """The one test of a blank CSV line or row: empty or whitespace-only."""
    return text.isspace() or not text


def csv_rows(path) -> Iterator[tuple[int, list[str]]]:
    """``(line, fields)`` of each CSV row of the file that is not blank, ``line``
    being the file line the row ends on.  A row that the csv module cannot read,
    such as one with a field over ``csv.field_size_limit()``, is a ValueError."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            yield from ((reader.line_num, row) for row in reader if not blank(",".join(row)))
        except csv.Error as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from exc
