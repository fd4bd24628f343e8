"""Tagged partitions, Riemann-Stieltjes sums and variation of weight functions.

A weight function Omega encodes the differential importance of one
sustainability factor over a compact interval [a, b]; integrands F are
evaluated against it through Riemann-Stieltjes sums

    S(F, Omega, P) = sum_i F(t_i) * (Omega(x_i) - Omega(x_{i-1}))

over tagged partitions P.  Regional variants are the same computation with
a ``region_id`` label on the partition.

Evaluators are plain callables.  They are applied to numpy arrays when they
support it and element by element otherwise, so both numpy expressions and
scalar-only functions work.  Every operation is pure given its inputs and
safe to call concurrently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from ._checks import check_interval, check_positive, csv_rows, finite, is_number, whole_number

TAG_RULES = ("left", "right", "midpoint")

#: refinements required before convergence may be declared; prevents the
#: n = 1, 2 grids from "converging" on data they cannot resolve (e.g. the
#: variation of sin over a full period starts at 0 on those grids)
MIN_REFINEMENTS = 6

#: levels in a row past MIN_REFINEMENTS with a tag spread >= the tag tolerance
#: and > 3/4 of the level before that end the refinement as non-integrable
STALL_LEVELS = 8

_DOMAIN_TOL = 1e-12

#: rounding slack in the variation lower bound: it holds when lhs >= rhs - this
BOUND_TOLERANCE = 1e-9

#: intervals per block of the walk over a level (see _blocks); even
_BLOCK = 2**16

#: the most intervals a uniform partition or a refinement level may hold,
#: whether every interval of [lo, hi] is refined or only some; a deeper level
#: is refused before it is allocated
_MAX_INTERVALS = 2**24

#: the most integrand and weight points one refinement may evaluate
_MAX_POINTS = 2**26

#: the deepest refinement level: the node indices j, 2k+1 and 4k+3 times its
#: spacing stay below 2**53, so each node is lo + j*(hi-lo)/2**level rounded once
_MAX_LEVEL = 50


class DomainMismatchError(ValueError):
    """Partition interval and function domains disagree."""


class NonFiniteValueError(ValueError):
    """A function evaluation produced NaN or infinity."""


class NonConvergenceError(RuntimeError):
    """Refinement did not settle within the allowed depth.

    ``level`` is the last dyadic level reached, ``gap`` and ``spread`` its
    sums of local midpoint gaps and tag spreads; the message gives all three.
    A tag spread that stops decaying signals that the integrand is not
    Riemann-Stieltjes integrable with respect to the weight function (for
    example when both share a discontinuity); a decaying spread with a gap
    stuck at the rounding error of the sums signals an ``eta`` too small for
    double precision.
    """

    def __init__(self, message: str, level: int, gap: float, spread: float):
        super().__init__(message)
        self.level, self.gap, self.spread = level, gap, spread

    def __reduce__(self):  # pickling (e.g. out of a worker process) keeps the attributes
        return type(self), (self.args[0], self.level, self.gap, self.spread)


@dataclass(frozen=True)
class TaggedPartition:
    """Ordered breakpoints of [interval_lo, interval_hi] with one tag per
    subinterval."""

    interval_lo: float
    interval_hi: float
    breakpoints: tuple[float, ...]
    tags: tuple[float, ...]
    region_id: int | None = None

    def __post_init__(self):
        lo, hi = finite("interval_lo", self.interval_lo), finite("interval_hi", self.interval_hi)
        values = (*self.breakpoints, *self.tags)
        one_per_type = dict(zip(map(type, values), values)).values()  # is_number once per type
        if not all(map(is_number, one_per_type)):
            raise ValueError("breakpoints and tags must be numbers")
        not_finite = "breakpoints and tags must be finite"
        try:
            xs, ts = np.asarray(self.breakpoints, dtype=float), np.asarray(self.tags, dtype=float)
        except OverflowError:  # an int beyond the float range
            raise ValueError(not_finite) from None
        if not (np.isfinite(xs).all() and np.isfinite(ts).all()):
            raise ValueError(not_finite)
        if len(xs) < 2 or len(ts) != len(xs) - 1:
            raise ValueError(f"need g >= 1 subintervals with one tag each, got "
                             f"{len(xs)} breakpoints and {len(ts)} tags")
        if xs[0] != lo or xs[-1] != hi:
            raise ValueError("breakpoints must start at interval_lo and end at interval_hi")
        if np.any(xs[:-1] >= xs[1:]):
            raise ValueError("breakpoints must be strictly increasing")
        outside = np.flatnonzero((ts < xs[:-1]) | (ts > xs[1:]))
        if outside.size:
            i = outside[0]
            raise ValueError(f"tag {ts[i]} outside its subinterval [{xs[i]}, {xs[i + 1]}]")
        object.__setattr__(self, "interval_lo", lo)
        object.__setattr__(self, "interval_hi", hi)
        object.__setattr__(self, "breakpoints", tuple(xs.tolist()))
        object.__setattr__(self, "tags", tuple(ts.tolist()))


@dataclass
class WeightFunction:
    """Bounded evaluatable map on [domain_lo, domain_hi].

    ``label`` records what the function weights (a factor, a region, ...).
    Construction samples the evaluator on a coarse grid and rejects
    non-finite values; boundedness beyond that is the caller's promise.
    """

    domain_lo: float
    domain_hi: float
    evaluator: Callable
    label: str = ""

    def __post_init__(self):
        self.domain_lo, self.domain_hi = check_interval(self.domain_lo, self.domain_hi)
        probe = _eval_on(self.evaluator, np.linspace(self.domain_lo, self.domain_hi, 17))
        _finite_or_raise(probe, f"weight function {self.label!r}")

    def __call__(self, x):
        out = _eval_on(self.evaluator, x)
        return float(out) if out.ndim == 0 else out

    @classmethod
    def from_csv(cls, path: str | Path) -> "WeightFunction":
        """Load a function from a two-column CSV (x, value), labelled with the
        file name; linear interpolation between samples.  The first row that
        is not blank may be a header (a row that is not all numbers); every
        other such row must be exactly two numbers (see
        :func:`sustkit._checks.csv_rows`)."""
        path = Path(path)
        samples: list[list[float]] = []
        for n, (line, row) in enumerate(csv_rows(path)):
            try:
                values = [float(v) for v in row]
            except ValueError:
                if n == 0:
                    continue  # header
                values = []
            if len(values) != 2:
                raise ValueError(f"{path}, line {line}: expected two numbers x,value, got {row!r}")
            samples.append(values)
        if len(samples) < 2:
            raise ValueError(f"{path}: need at least two samples")
        table = np.asarray(samples)
        x_arr, y_arr = table[np.argsort(table[:, 0], kind="stable")].T
        if np.any(np.diff(x_arr) <= 0):
            raise ValueError(f"{path}: sample abscissae must be strictly increasing")
        return cls(
            domain_lo=x_arr[0],
            domain_hi=x_arr[-1],
            evaluator=lambda x, _x=x_arr, _y=y_arr: np.interp(x, _x, _y),
            label=path.name,
        )


@np.errstate(all="ignore")  # callers report NaN and inf as NonFiniteValueError
def _eval_on(fn: Callable, xs):
    """Apply fn to an array, falling back to a scalar loop; always returns
    a float array of the same shape (scalar input gives a 0-d array)."""
    arr = np.asarray(xs, dtype=float)
    try:
        out = np.asarray(fn(arr), dtype=float)
        if out.shape != arr.shape:
            out = np.broadcast_to(out, arr.shape)
        return out
    except (TypeError, ValueError):
        # a memoryview yields Python floats one at a time, with no list of the inputs
        flat = [float(fn(x)) for x in memoryview(arr.ravel())]
        return np.asarray(flat, dtype=float).reshape(arr.shape)


def _as_callable(f, lo: float, hi: float, role: str) -> Callable:
    """Accept a WeightFunction (domain checked against [lo, hi]) or a bare
    callable (domain taken on trust)."""
    if isinstance(f, WeightFunction):
        if (
            abs(f.domain_lo - lo) > _DOMAIN_TOL * max(1.0, abs(lo))
            or abs(f.domain_hi - hi) > _DOMAIN_TOL * max(1.0, abs(hi))
        ):
            raise DomainMismatchError(
                f"{role} domain [{f.domain_lo}, {f.domain_hi}] does not match "
                f"[{lo}, {hi}]"
            )
        return f.evaluator
    if callable(f):
        return f
    raise TypeError(f"{role} must be a WeightFunction or callable, got {type(f)!r}")


def _finite_or_raise(vals: np.ndarray, role: str) -> np.ndarray:
    if not np.all(np.isfinite(vals)):
        raise NonFiniteValueError(f"{role} produced a non-finite value")
    return vals


def make_uniform_partition(
    lo: float,
    hi: float,
    n: int,
    tag_rule: str = "midpoint",
    region_id: int | None = None,
) -> TaggedPartition:
    """Uniform n-interval tagged partition of [lo, hi]."""
    n = whole_number("n", n, 1)
    if n > _MAX_INTERVALS:
        raise ValueError(f"n = {n} intervals is over the budget of {_MAX_INTERVALS} intervals")
    lo, hi = check_interval(lo, hi)
    if tag_rule not in TAG_RULES:
        raise ValueError(f"tag_rule must be one of {TAG_RULES}, got {tag_rule!r}")
    xs = np.linspace(lo, hi, n + 1)
    if tag_rule == "left":
        tags = xs[:-1]
    elif tag_rule == "right":
        tags = xs[1:]
    else:
        tags = 0.5 * (xs[:-1] + xs[1:])
    return TaggedPartition(lo, hi, xs.tolist(), tags.tolist(), region_id)


def rs_sum(f, omega, partition: TaggedPartition) -> float:
    """Riemann-Stieltjes sum of f against the weight omega over a tagged
    partition: sum_i f(t_i) * (omega(x_i) - omega(x_{i-1}))."""
    lo, hi = partition.interval_lo, partition.interval_hi
    f_eval = _as_callable(f, lo, hi, "integrand")
    w_eval = _as_callable(omega, lo, hi, "weight")
    xs = np.asarray(partition.breakpoints)
    wv = _finite_or_raise(_eval_on(w_eval, xs), "weight")
    fv = _finite_or_raise(_eval_on(f_eval, np.asarray(partition.tags)), "integrand")
    return _rs_sum("over the partition", wv, fv)


def _blocks(n: int):
    """Consecutive slices of range(n), each at most _BLOCK long: the one walk
    over a level's intervals or points, so that no temporary outgrows a block."""
    return (slice(start, min(start + _BLOCK, n)) for start in range(0, n, _BLOCK))


def _increments(values: np.ndarray):
    """(block, values[i+1] - values[i] for i in block) over the intervals."""
    for b in _blocks(values.size - 1):
        yield b, np.diff(values[b.start:b.stop + 1])


def _finite_sums(sums: list[float], what: str) -> list[float]:
    """sums, refused unless finite.  What is summed is finite, so a sum that is
    not has overflowed the float range."""
    if not all(map(math.isfinite, sums)):
        raise NonFiniteValueError(f"{what} overflowed the float range")
    return sums


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused once, on the sum
def _rs_sum(where: str, w_values: np.ndarray, tags: np.ndarray) -> float:
    """sum_i tags[i] * (w[i+1] - w[i]).  einsum sums in a fixed order, where the
    BLAS dot product sums in an order that depends on its thread count."""
    total = sum(float(np.einsum("i,i->", tags[b], dw)) for b, dw in _increments(w_values))
    return _finite_sums([total], f"the Riemann-Stieltjes sum {where}")[0]


@np.errstate(over="ignore", invalid="ignore")
def _variation(where: str, w_values: np.ndarray) -> float:
    """sum_i |w[i+1] - w[i]|, summed pairwise within each block."""
    total = sum(float(np.abs(dw).sum()) for _, dw in _increments(w_values))
    return _finite_sums([total], f"the variation sum {where}")[0]


def _eval_midpoints(fn, role: str, level: int, lo: float, hi: float, out: np.ndarray):
    """Write fn at the midpoints lo + (2j+1)*((hi-lo)/2**(level+1)) of level's
    intervals into out, one block at a time."""
    h = (hi - lo) / (2 << level)
    for b in _blocks(out.size):
        mids = lo + np.arange(2.0 * b.start + 1, 2.0 * b.stop, 2.0) * h
        out[b] = _finite_or_raise(_eval_on(fn, mids), role)
    return out


def _refined(nodes: np.ndarray) -> np.ndarray:
    """nodes at the even places of an array whose odd places are unset."""
    out = np.empty(2 * nodes.size - 1)
    out[0::2] = nodes
    return out


def _uniform_points(level: int, integrand: bool) -> int:
    """The points of uniform levels 0..level: the weight at 2**level + 1 nodes,
    the integrand (if any) at those and at 2**level midpoints."""
    return (3 << level) + 2 if integrand else (1 << level) + 1


def _dyadic_levels(w_eval, f_eval, lo: float, hi: float):
    """Yield (level, w_nodes, f_nodes, f_mids) for level = 0, 1, ... until one is
    over a budget (f arrays None when f_eval is None).  Node j is
    lo + j*(hi-lo)/2**level, the last hi, so a level's nodes are the last
    level's nodes and midpoints, bit for bit: it evaluates the weight at those
    midpoints and the integrand at its own.  A level holds only these three
    arrays; the caller drops them before asking for the next level, which is
    built from them."""
    w_nodes = _finite_or_raise(_eval_on(w_eval, np.array([lo, hi])), "weight")
    f_nodes = f_mids = None
    if f_eval is not None:
        f_nodes = _finite_or_raise(_eval_on(f_eval, np.array([lo, hi])), "integrand")
    for level in itertools.count():
        if level:
            _check_budget(level, 1 << level, _uniform_points(level, f_eval is not None))
            w_nodes = _refined(w_nodes)
            _eval_midpoints(w_eval, "weight", level - 1, lo, hi, w_nodes[1::2])
            if f_eval is not None:
                f_nodes = _refined(f_nodes)
                f_nodes[1::2], f_mids = f_mids, None
        if f_eval is not None:
            f_mids = _eval_midpoints(f_eval, "integrand", level, lo, hi, np.empty(1 << level))
        yield level, w_nodes, f_nodes, f_mids


# A split is an interval [a, b] of one level halved at its midpoint m into two
# intervals of the next, whose midpoints are q1 and q3.  Both walks below yield
# blocks of splits as (k, w(a), w(m), w(b), f(a), f(m), f(b), f(q1), f(q3)),
# k being the index of [a, b] at its level.

def _uniform_splits(w_nodes, f_nodes, f_mids):
    """A uniform level's intervals in pairs, _BLOCK intervals at a time: the
    splits of the level before."""
    for b in _blocks(f_mids.size):  # _BLOCK is even, so no pair straddles two blocks
        w, f, q = w_nodes[b.start:b.stop + 1], f_nodes[b.start:b.stop + 1], f_mids[b]
        k = range(b.start // 2, b.stop // 2)
        yield k, w[:-1:2], w[1::2], w[2::2], f[:-1:2], f[1::2], f[2::2], q[0::2], q[1::2]


def _local_splits(level, active, w_eval, f_eval, lo, hi):
    """The splits of the active intervals of level - 1 (rows k, w(a), w(b),
    f(a), f(m), f(b)), _BLOCK at a time: the weight is evaluated at their
    midpoints, nodes of level, and the integrand at their quarter points,
    midpoints of level; each point is lo + j*((hi-lo)/2**level) as on a
    uniform level."""
    h_nodes, h_mids = (hi - lo) / (1 << level), (hi - lo) / (2 << level)
    for b in _blocks(active.shape[1]):
        k, wa, wb, fa, fm, fb = active[:, b]
        wm = _finite_or_raise(_eval_on(w_eval, lo + (2 * k + 1) * h_nodes), "weight")
        quarters = (4 * k[:, None] + (1.0, 3.0)).ravel()  # 4k+1, 4k+3 in turn
        fq = _finite_or_raise(_eval_on(f_eval, lo + quarters * h_mids), "integrand")
        yield k, wa, wm, wb, fa, fm, fb, fq[0::2], fq[1::2]


def _halves(keep, k, wa, wm, wb, fa, fm, fb, fq1, fq3) -> np.ndarray:
    """The halves of the splits where keep holds, in order, as active intervals."""
    k = np.asarray(k, dtype=float)[keep]
    halves = np.empty((6, 2 * k.size))
    halves[:, 0::2] = [2 * k, *(row[keep] for row in (wa, wm, fa, fq1, fm))]
    halves[:, 1::2] = [2 * k + 1, *(row[keep] for row in (wm, wb, fm, fq3, fb))]
    return halves


def _abs_difference_times(x, y, scale):
    """|(x - y) * scale| in one new array."""
    out = x - y
    out *= scale
    return np.abs(out, out=out)


def _least(values, where=True) -> float:
    return float(values.min(where=where, initial=math.inf))


class _Walk:
    """One refinement: its budgets, the sums over the splits frozen so far,
    sup|F| over every integrand value sampled, the least weight increment and
    whether the tag spread has stalled.  It stops at a level >= MIN_REFINEMENTS
    whose local gaps sum to less than eta and whose local spreads sum to less
    than the tag tolerance, and gives up once the spread has not decayed for
    STALL_LEVELS levels."""

    def __init__(self, eta: float, length: float, sup_f: float):
        # Tag sensitivity shrinks like O(h) for integrable pairs while the
        # midpoint gap shrinks like O(h^2), so sqrt(eta) keeps the two
        # criteria on the same grid scale.  A pair whose tag spread never decays
        # (e.g. integrand and weight sharing a jump) is reported non-integrable.
        self.eta, self.tag_tol, self.length = eta, max(eta, math.sqrt(eta)), length
        self.spread, self.stalled, self.decaying = math.inf, 0, True
        self.frozen = [0.0, 0.0, 0.0]  # midpoint sum, local gaps, local spreads
        self.sup_f = sup_f  # seeded with the values sampled before the first split
        self.low = math.inf  # least weight increment over the halves of the frozen splits
        self.least = math.inf  # over the halves of the last level's splits

    @np.errstate(over="ignore", invalid="ignore")  # an overflow is refused once, on the sums
    def split(self, level: int, splits, freeze: bool = False):
        """Sum a level's splits onto the frozen ones: return the level's midpoint
        sum, local gaps and local spreads, and the number of splits that settled,
        each below half its length's share of both budgets.  With freeze those
        splits are frozen, and the halves of the rest are returned as the next
        level's active intervals."""
        # a split is 2**-(level - 1) of [lo, hi]: half its share is 2**-level
        gap_tol, spread_tol = math.ldexp(self.eta, -level), math.ldexp(self.tag_tol, -level)
        sums, frozen, settled, halves = [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], 0, []
        self.least = math.inf
        for k, wa, wm, wb, fa, fm, fb, fq1, fq3 in splits:
            dw1, dw2 = wm - wa, wb - wm
            mid = fq1 * dw1
            mid += fq3 * dw2
            gap = wb - wa
            gap *= fm
            gap -= mid
            np.abs(gap, out=gap)
            spread = _abs_difference_times(fm, fa, dw1)
            spread += _abs_difference_times(fb, fm, dw2)
            done = (gap < gap_tol) & (spread < spread_tol)
            settled += int(np.count_nonzero(done))
            for i, values in enumerate((mid, gap, spread)):
                sums[i] += float(np.einsum("i->", values))
                if freeze:
                    frozen[i] += float(np.einsum("i,i->", values, done))
            self.least = min(self.least, _least(dw1), _least(dw2))
            self.sup_f = max(self.sup_f, float(np.abs(fq1).max()), float(np.abs(fq3).max()))
            if freeze:
                self.low = min(self.low, _least(dw1, done), _least(dw2, done))
                halves.append(_halves(~done, k, wa, wm, wb, fa, fm, fb, fq1, fq3))
        where = f"the Riemann-Stieltjes sum at dyadic level {level}"
        sums = _finite_sums([old + new for old, new in zip(self.frozen, sums)], where)
        if not freeze:
            return sums, settled, None
        self.frozen = [old + new for old, new in zip(self.frozen, frozen)]
        return sums, settled, np.concatenate(halves, axis=1)

    def converged(self, level: int, gap: float, spread: float) -> bool:
        """Whether level may stop; raises once the spread has stalled."""
        prev_spread, self.level, self.gap, self.spread = self.spread, level, gap, spread
        if level >= MIN_REFINEMENTS and gap < self.eta and spread < self.tag_tol:
            return True
        # An integrable pair's tag spread falls like O(h), halving per level.
        self.decaying = spread < self.tag_tol or spread <= 0.75 * prev_spread
        self.stalled = 0 if self.decaying or level <= MIN_REFINEMENTS else self.stalled + 1
        if self.stalled == STALL_LEVELS:
            raise self.error()
        return False

    def error(self) -> NonConvergenceError:
        """The error of a refinement that ends at the last level checked."""
        if self.decaying:
            cause = ("the sums are still converging: raise eta "
                     "(an eta below the rounding error of the sums is never reached)")
        else:
            cause = ("the tag spread is not decaying: the integrand may not be integrable "
                     "against this weight (e.g. shared discontinuity)")
        if self.stalled == STALL_LEVELS:
            limit = MIN_REFINEMENTS + STALL_LEVELS
            cause += (f"; stopped after {STALL_LEVELS} levels without decay, so jumps closer "
                      f"than (hi-lo)/2^{limit} = {self.length / 2**limit:.3g} are taken for a "
                      "shared jump")
        return NonConvergenceError(
            f"Riemann-Stieltjes refinement did not converge to eta={self.eta} by dyadic "
            f"level {self.level}: last midpoint gap {self.gap:.3g}, tag spread {self.spread:.3g} "
            f"(tag tolerance {self.tag_tol:.3g}); {cause}",
            self.level, self.gap, self.spread,
        )

    def found(self, value: float, local_from: int | None) -> _Integral:
        """What the refinement found, stopping at the last level checked."""
        low = min(self.low, self.least)
        return _Integral(value, self.level, local_from, self.sup_f, low >= -1e-12)


class _Integral(NamedTuple):
    """What a refinement found: the integral, the level it stopped at, the
    first level refined locally (None when every level was uniform), sup|F|
    over every integrand value sampled, and whether the weight did not fall
    (beyond rounding) over any interval of the final partition."""

    value: float
    level: int
    local_from: int | None
    sup_f: float
    nondecreasing: bool


def _check_budget(level: int, intervals: int, points: int) -> None:
    """Refuse a level over either budget before it is evaluated."""
    if intervals > _MAX_INTERVALS:
        raise ValueError(f"dyadic level {level} would hold {intervals} intervals, over the "
                         f"budget of {_MAX_INTERVALS} intervals per level")
    if points > _MAX_POINTS:
        raise ValueError(f"dyadic level {level} would take the refinement to {points} points, "
                         f"over the budget of {_MAX_POINTS} points per refinement")


def _rs_integrate_info(f, omega, lo, hi, eta) -> _Integral:
    """Refine every interval while most of them still carry error, then only
    those that do.  Level L's local gap of a split of [a, b] is
    |f(q1)(w(m)-w(a)) + f(q3)(w(b)-w(m)) - f(m)(w(b)-w(a))|, and the local
    spread of each half [c, d] is |f(d)-f(c)|*|w(d)-w(c)|.  From the first
    level >= MIN_REFINEMENTS at which at least half the splits settle, settled
    splits are frozen: they keep their midpoint sum, gap and spread in the
    totals, and only the halves of the rest are split at the next level.
    Absolute local estimates cannot cancel between an up-jump and a down-jump,
    as the difference of two whole-level sums can."""
    check_interval(lo, hi)
    check_positive("eta", (eta,))
    f_eval = _as_callable(f, lo, hi, "integrand")
    w_eval = _as_callable(omega, lo, hi, "weight")
    levels = _dyadic_levels(w_eval, f_eval, lo, hi)
    _, _, f_nodes, f_mids = next(levels)  # level 0: one interval, the split of none
    walk = _Walk(eta, hi - lo, float(np.abs(np.append(f_nodes, f_mids)).max()))
    for level, w_nodes, f_nodes, f_mids in levels:
        splits = _uniform_splits(w_nodes, f_nodes, f_mids)
        (mid, gap, spread), settled, _ = walk.split(level, splits)
        if walk.converged(level, gap, spread):
            return walk.found(mid, None)
        if level >= MIN_REFINEMENTS and 2 * settled >= f_mids.size // 2:
            break
        del w_nodes, f_nodes, f_mids  # the next level is built without this one's arrays
    local_from, points = level + 1, _uniform_points(level, True)
    *_, active = walk.split(level, _uniform_splits(w_nodes, f_nodes, f_mids), freeze=True)
    del w_nodes, f_nodes, f_mids
    for level in range(local_from, _MAX_LEVEL + 1):
        points += 3 * active.shape[1]  # the weight at each midpoint, the integrand at two quarters
        _check_budget(level, 2 * active.shape[1], points)
        splits = _local_splits(level, active, w_eval, f_eval, lo, hi)
        (mid, gap, spread), _, active = walk.split(level, splits, freeze=True)
        if walk.converged(level, gap, spread):
            return walk.found(mid, local_from)
    raise walk.error()


def rs_integrate(
    f,
    omega,
    lo: float,
    hi: float,
    eta: float = 1e-6,
) -> float:
    """Riemann-Stieltjes integral of f d(omega) over [lo, hi] by dyadic
    midpoint refinement.

    Refines until the local midpoint gaps, each the change of one interval's
    midpoint sum when it is halved, sum in absolute value to less than
    ``eta``, and the local tag spreads |f(right) - f(left)| * |omega(right) -
    omega(left)| sum to less than ``max(eta, sqrt(eta))``; the second check
    rejects pairs that are not integrable (a shared jump keeps the tag spread
    from decaying).  Once most intervals have settled, only the others are
    halved further.  Raises :class:`NonConvergenceError` when level
    ``_MAX_LEVEL`` (50) is passed first or the tag spread stalls for
    ``STALL_LEVELS`` levels (jumps closer than (hi-lo)/2**14 look shared),
    and ``ValueError`` before evaluating a level of more than
    ``_MAX_INTERVALS`` (2**24) intervals or one that would take the
    refinement past ``_MAX_POINTS`` (2**26) points.
    """
    return _rs_integrate_info(f, omega, lo, hi, eta).value


def total_variation(omega, partition: TaggedPartition) -> float:
    """Variation sum of the weight over one partition:
    sum_i |omega(x_i) - omega(x_{i-1})|."""
    lo, hi = partition.interval_lo, partition.interval_hi
    w_eval = _as_callable(omega, lo, hi, "weight")
    wv = _finite_or_raise(_eval_on(w_eval, np.asarray(partition.breakpoints)), "weight")
    return _variation("over the partition", wv)


def variation_sup(
    omega,
    lo: float,
    hi: float,
    *,
    tol: float = 1e-6,
) -> float:
    """Supremum estimate of the variation of omega over [lo, hi].

    Variation sums are non-decreasing under refinement, so dyadic uniform
    refinement is run until one more halving adds less than ``tol``, or
    until the next level would hold more than ``_MAX_INTERVALS`` (2**24)
    intervals, and the last sum is returned.  The estimate is a lower bound
    on the true variation.
    """
    check_interval(lo, hi)
    check_positive("tol", (tol,))
    w_eval = _as_callable(omega, lo, hi, "weight")
    prev = -math.inf
    for level, w_nodes, _, _ in _dyadic_levels(w_eval, None, lo, hi):
        cur = _variation(f"at dyadic level {level}", w_nodes)
        if (level >= MIN_REFINEMENTS and cur - prev < tol) or 2 << level > _MAX_INTERVALS:
            return cur
        prev = cur


@dataclass
class VariationBoundReport:
    """Outcome of the variation lower-bound check.

    The variation of the weight (lhs) must dominate |integral of F
    d(omega)| / sup|F| (rhs).  ``sup_f_zero`` flags the vacuous case where
    the bound is undefined and rhs is reported as 0; ``omega_nondecreasing``
    records whether the weight looked monotone on the final partition of the
    integration (the bound itself does not require monotonicity).
    """

    lhs: float
    rhs: float
    holds: bool
    sup_f: float
    integral: float
    sup_f_zero: bool = False
    omega_nondecreasing: bool = True


def variation_lower_bound_check(
    f,
    omega,
    lo: float,
    hi: float,
    eta: float = 1e-6,
) -> VariationBoundReport:
    """Check variation(omega) >= |integral F d(omega)| / sup|F| on [lo, hi].

    sup|F| is estimated over every integrand value the integration sampled
    (nodes, midpoints and quarter points); a closed-form supremum is not
    assumed.  When sup|F| is 0 the bound is vacuous: rhs is defined as 0 and
    the report is flagged instead of raising.
    """
    integral, _, _, sup_f, nondecreasing = _rs_integrate_info(f, omega, lo, hi, eta)
    lhs = variation_sup(omega, lo, hi, tol=eta)
    rhs = 0.0 if sup_f == 0.0 else abs(integral) / sup_f
    return VariationBoundReport(
        lhs=lhs,
        rhs=rhs,
        holds=lhs >= rhs - BOUND_TOLERANCE,
        sup_f=sup_f,
        integral=integral,
        sup_f_zero=sup_f == 0.0,
        omega_nondecreasing=nondecreasing,
    )
