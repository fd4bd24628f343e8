import itertools
import json
import math
import pickle
import random
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sustkit import riemann_stieltjes
from sustkit.expressions import compile_expression
from sustkit.riemann_stieltjes import (
    MIN_REFINEMENTS,
    STALL_LEVELS,
    _BLOCK,
    DomainMismatchError,
    NonConvergenceError,
    NonFiniteValueError,
    TaggedPartition,
    WeightFunction,
    _as_callable,
    _dyadic_levels,
    _eval_on,
    _finite_or_raise,
    _rs_integrate_info,
    _rs_sum,
    _uniform_splits,
    _Walk,
    make_uniform_partition,
    rs_integrate,
    rs_sum,
    total_variation,
    variation_lower_bound_check,
    variation_sup,
)

TWO_PI = 2.0 * math.pi


# -- partitions -----------------------------------------------------------------


def _is_points(values, expected) -> bool:
    """values is a 1-D float64 array holding exactly the numbers of expected."""
    return (isinstance(values, np.ndarray) and values.dtype == np.float64
            and values.tolist() == list(expected))


def test_uniform_midpoint_partition():
    p = make_uniform_partition(0.0, 1.0, 2, "midpoint")
    assert _is_points(p.breakpoints, (0.0, 0.5, 1.0))
    assert _is_points(p.tags, (0.25, 0.75))


def test_uniform_single_interval_left():
    p = make_uniform_partition(0.0, 1.0, 1, "left")
    assert _is_points(p.breakpoints, (0.0, 1.0))
    assert _is_points(p.tags, (0.0,))


def test_uniform_partition_rejects_inverted_interval():
    with pytest.raises(ValueError):
        make_uniform_partition(1.0, 0.0, 2, "left")


def test_uniform_partition_rejects_zero_intervals():
    with pytest.raises(ValueError):
        make_uniform_partition(0.0, 1.0, 0, "left")


def test_uniform_partition_rejects_unknown_rule():
    with pytest.raises(ValueError):
        make_uniform_partition(0.0, 1.0, 2, "random")


def test_uniform_partition_over_the_interval_budget_is_refused(monkeypatch):
    monkeypatch.setattr(riemann_stieltjes, "_MAX_INTERVALS", 2**10)
    assert len(make_uniform_partition(0.0, 1.0, 2**10).tags) == 2**10
    over = "^n = 1025 intervals is over the budget of 1024 intervals$"
    with pytest.raises(ValueError, match=over):
        make_uniform_partition(0.0, 1.0, 2**10 + 1)


def test_partition_invariants():
    with pytest.raises(ValueError):  # tag outside its subinterval
        TaggedPartition(0.0, 1.0, (0.0, 0.5, 1.0), (0.6, 0.75))
    with pytest.raises(ValueError):  # not strictly increasing
        TaggedPartition(0.0, 1.0, (0.0, 0.5, 0.5, 1.0), (0.25, 0.5, 0.75))
    with pytest.raises(ValueError):  # tag count != interval count
        TaggedPartition(0.0, 1.0, (0.0, 1.0), (0.25, 0.75))
    with pytest.raises(ValueError):  # endpoints disagree
        TaggedPartition(0.0, 2.0, (0.0, 0.5, 1.0), (0.25, 0.75))


@pytest.mark.parametrize("args", [
    (0, 1, (0, 1), (10**400,)),
    (0, 1, (0, 10**400, 1), (0.25, 0.75)),
    (0, 1, (0, 1), (-(10**400),)),
])
def test_partition_refuses_ints_beyond_the_float_range(args):
    # np.asarray raises OverflowError on such an int; the scalar checks
    # refuse it with ValueError, and so does the partition.
    with pytest.raises(ValueError, match="breakpoints and tags must be finite"):
        TaggedPartition(*args)


def _partition_rule_holds(lo, hi, xs, ts):
    """The partition rule checked one element at a time."""
    return (len(xs) >= 2 and len(ts) == len(xs) - 1 and xs[0] == lo and xs[-1] == hi
            and all(a < b for a, b in zip(xs, xs[1:]))
            and all(xs[i] <= t <= xs[i + 1] for i, t in enumerate(ts)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=8, unique=True).map(sorted),
       st.data())
def test_partition_checks_match_the_elementwise_rule(xs, data):
    # Tags placed by fractions of their subinterval (the ends included, and past
    # them by rounding), then one optional defect; the constructor's array-wise
    # checks accept exactly what the element-wise rule accepts.
    fractions = data.draw(st.lists(st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0, 1),
                                   min_size=len(xs) - 1, max_size=len(xs) - 1))
    ts = [a + f * (b - a) for a, b, f in zip(xs, xs[1:], fractions)]
    lo, hi = xs[0], xs[-1]
    defect = data.draw(st.sampled_from(["none", "swap", "repeat", "tag", "drop", "ends"]))
    i = data.draw(st.integers(0, len(xs) - 2))
    if defect == "swap":
        xs[i], xs[i + 1] = xs[i + 1], xs[i]
    elif defect == "repeat":
        xs[i + 1] = xs[i]
    elif defect == "tag":
        ts[i] = data.draw(st.floats(-2e3, 2e3))
    elif defect == "drop":
        ts.pop(i)
    elif defect == "ends":
        lo, hi = data.draw(st.sampled_from([(lo - 1.0, hi), (lo, hi + 1.0)]))
    try:
        p = TaggedPartition(lo, hi, tuple(xs), tuple(ts))
    except ValueError:
        assert not _partition_rule_holds(lo, hi, xs, ts)
    else:
        assert _partition_rule_holds(lo, hi, xs, ts)
        assert _is_points(p.breakpoints, xs) and _is_points(p.tags, ts)


def test_partition_holds_its_own_read_only_arrays_and_compares_by_value():
    xs, ts = np.array([0.0, 0.5, 1.0]), np.array([0.25, 0.75])
    p = TaggedPartition(0.0, 1.0, xs, ts)
    xs[1], ts[0] = 0.4, 0.1  # the caller's arrays were copied
    assert _is_points(p.breakpoints, (0.0, 0.5, 1.0)) and _is_points(p.tags, (0.25, 0.75))
    assert not p.breakpoints.flags.writeable and not p.tags.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        p.tags[0] = 0.3
    same = TaggedPartition(0, 1, [0, 0.5, 1], (0.25, np.float32(0.75)))
    assert p == same and not p != same
    assert (TaggedPartition(0, 2, np.arange(3), np.array([0.5, 1.5], dtype=np.float32))
            == TaggedPartition(0, 2, (0.0, 1.0, 2.0), (0.5, 1.5)))
    assert p != TaggedPartition(0.0, 1.0, (0.0, 0.5, 1.0), (0.25, 0.75), region_id=3)
    assert p != TaggedPartition(0.0, 1.0, (0.0, 0.5, 1.0), (0.25, 0.5))
    assert p != make_uniform_partition(0.0, 1.0, 4) and p != (0.0, 1.0)
    with pytest.raises(TypeError, match="unhashable"):
        hash(p)
    for bad in (np.array([True, False]), np.array([0.0, 1.0], dtype=object),
                np.array([[0.0, 1.0]]), np.array(["0", "1"]), np.array([0j, 1j])):
        with pytest.raises(ValueError, match="breakpoints and tags must be numbers"):
            TaggedPartition(0.0, 1.0, bad, (0.5,))
        with pytest.raises(ValueError, match="breakpoints and tags must be numbers"):
            TaggedPartition(0.0, 1.0, (0.0, 1.0), bad[..., :1])


def test_partition_carries_region_label():
    p = make_uniform_partition(0.0, 1.0, 4, "midpoint", region_id=3)
    assert p.region_id == 3
    assert len(p.tags) == 4


def test_regional_sum_is_same_computation():
    # Region-specific sums differ only by the label on their inputs.
    f = WeightFunction(0.0, 1.0, lambda x: x, label="importance, region 3")
    omega = WeightFunction(0.0, 1.0, lambda x: x * x, label="weight, region 3")
    plain = make_uniform_partition(0.0, 1.0, 16, "midpoint")
    regional = make_uniform_partition(0.0, 1.0, 16, "midpoint", region_id=3)
    assert rs_sum(f, omega, regional) == rs_sum(f, omega, plain)


# -- weight functions -------------------------------------------------------------


def test_weight_function_rejects_non_finite():
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteValueError):
        WeightFunction(0.0, 1.0, lambda x: 1.0 / x, label="singular")


def test_weight_function_rejects_empty_domain():
    with pytest.raises(ValueError):
        WeightFunction(1.0, 1.0, lambda x: x)


def test_weight_function_call_scalar_and_array():
    w = WeightFunction(0.0, 1.0, lambda x: x * x)
    assert w(0.5) == 0.25
    assert np.allclose(w(np.array([0.0, 1.0])), [0.0, 1.0])


def test_weight_function_from_csv(tmp_path):
    path = tmp_path / "ramp.csv"
    path.write_text("x,value\n0,0\n0.5,1\n1,1\n")
    w = WeightFunction.from_csv(path)
    assert (w.domain_lo, w.domain_hi) == (0.0, 1.0)
    assert w(0.25) == pytest.approx(0.5)  # linear interpolation
    assert w(0.75) == pytest.approx(1.0)
    assert w.label == "ramp.csv"


def test_weight_function_from_csv_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("0,0\n0,1\n1,1\n")
    with pytest.raises(ValueError):
        WeightFunction.from_csv(path)


@pytest.mark.parametrize("body, line", [
    ("x,w\n0,0\n0.5\n1,1\n", 3),  # one field
    ("x,w\n0,0\n0.5,1,7\n1,1\n", 3),  # an extra field
    ("x,w\nunits,none\n0,0\n1,1\n", 2),  # a second header row
    ("0,0\nx,w\n1,1\n", 2),  # a header below line 1
    ("0,0\n0.5,abc\n1,1\n", 2),
    ("0.5\n0,0\n1,1\n", 1),  # an all-number line 1 is a data row
    ('x,w\n"0\n",0\n0.5,abc\n1,1\n', 4),  # the file line, not the row count
    ("\n0,0\nx,w\n1,1\n", 3),  # a header below the first row that is not blank
])
def test_weight_function_from_csv_rejects_bad_rows(tmp_path, body, line):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ValueError, match=f"line {line}: expected two numbers"):
        WeightFunction.from_csv(path)


def test_weight_function_from_csv_header_and_blank_lines(tmp_path):
    rows = "0,0\r\n\r\n0.5,1\r\n1,1\r\n\r\n"
    for name, text in (("plain.csv", rows), ("headed.csv", "x,value,note\r\n" + rows)):
        path = tmp_path / name
        path.write_bytes(text.encode())
        w = WeightFunction.from_csv(path)
        assert (w.domain_lo, w.domain_hi) == (0.0, 1.0)
        assert w(np.array([0.25, 0.75])).tolist() == [0.5, 1.0]


@pytest.mark.parametrize("blank", ["   ", "\t"])
def test_weight_function_from_csv_skips_whitespace_lines(tmp_path, blank):
    path = tmp_path / "w.csv"
    path.write_text(f"x,value\n0,0\n{blank}\n0.5,1\n{blank}\n1,1\n{blank}\n")
    w = WeightFunction.from_csv(path)
    assert (w.domain_lo, w.domain_hi) == (0.0, 1.0)
    assert w(np.array([0.25, 0.75])).tolist() == [0.5, 1.0]


# -- Riemann-Stieltjes sums --------------------------------------------------------


def test_rs_sum_telescopes_for_constant_integrand():
    # F = 1 against omega = x^2 telescopes to omega(1) - omega(0) = 1 on
    # any partition.
    for n in (1, 3, 7):
        for rule in ("left", "right", "midpoint"):
            p = make_uniform_partition(0.0, 1.0, n, rule)
            assert rs_sum(lambda x: np.ones_like(x), lambda x: x * x, p) == pytest.approx(
                1.0, abs=1e-14
            )


def test_rs_sum_midpoint_hand_value():
    # Hand evaluation with omega = x: (0.125 + 0.375 + 0.625 + 0.875) / 4.
    p = make_uniform_partition(0.0, 1.0, 4, "midpoint")
    assert rs_sum(lambda x: x, lambda x: x, p) == pytest.approx(0.5, abs=1e-15)


def test_rs_sum_converges_to_quadrature_oracle():
    # integral of x d(x^2) = integral of 2x^2 dx on [0, 1]; oracle via quad.
    oracle, _ = quad(lambda x: x * 2.0 * x, 0.0, 1.0)
    assert oracle == pytest.approx(2.0 / 3.0, abs=1e-12)
    prev_err = None
    for m in (4, 6, 8, 10):
        p = make_uniform_partition(0.0, 1.0, 2**m, "midpoint")
        err = abs(rs_sum(lambda x: x, lambda x: x * x, p) - oracle)
        if prev_err is not None:
            assert err < prev_err
        prev_err = err
    assert prev_err < 1e-5


def test_rs_sum_checks_weight_function_domains():
    f = WeightFunction(0.0, 2.0, lambda x: x)
    p = make_uniform_partition(0.0, 1.0, 4, "midpoint")
    with pytest.raises(DomainMismatchError):
        rs_sum(f, lambda x: x, p)


def test_rs_sum_rejects_non_finite_evaluation():
    p = make_uniform_partition(-1.0, 1.0, 4, "midpoint")
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteValueError):
        rs_sum(lambda x: x, lambda x: 1.0 / x, p)


@settings(deadline=None, max_examples=60)
@given(
    c=st.floats(-50, 50, allow_nan=False),
    n=st.integers(1, 40),
    rule=st.sampled_from(["left", "right", "midpoint"]),
)
def test_rs_sum_telescoping_property(c, n, rule):
    p = make_uniform_partition(0.0, 2.0, n, rule)
    omega = lambda x: np.sin(x) + 0.5 * x  # noqa: E731
    expected = c * (omega(2.0) - omega(0.0))
    got = rs_sum(lambda x: np.full_like(np.asarray(x, float), c), omega, p)
    assert got == pytest.approx(expected, abs=1e-10 * max(1.0, abs(c)))


@settings(deadline=None, max_examples=60)
@given(
    a=st.floats(-5, 5, allow_nan=False),
    b=st.floats(-5, 5, allow_nan=False),
    n=st.integers(1, 30),
)
def test_rs_sum_linear_in_integrand(a, b, n):
    p = make_uniform_partition(0.0, 1.0, n, "midpoint")
    f1 = lambda x: x  # noqa: E731
    f2 = lambda x: np.cos(3.0 * x)  # noqa: E731
    omega = lambda x: x * x  # noqa: E731
    combined = rs_sum(lambda x: a * f1(x) + b * f2(x), omega, p)
    split = a * rs_sum(f1, omega, p) + b * rs_sum(f2, omega, p)
    assert combined == pytest.approx(split, abs=1e-12)


def test_rs_sum_linear_in_weight():
    p = make_uniform_partition(0.0, 1.0, 8, "midpoint")
    w1 = lambda x: x * x  # noqa: E731
    w2 = lambda x: np.sin(x)  # noqa: E731
    f = lambda x: np.exp(x)  # noqa: E731
    combined = rs_sum(f, lambda x: 2.0 * w1(x) - 3.0 * w2(x), p)
    split = 2.0 * rs_sum(f, w1, p) - 3.0 * rs_sum(f, w2, p)
    assert combined == pytest.approx(split, abs=1e-12)


# -- refinement-based integration ---------------------------------------------------


def test_rs_integrate_x_against_x_squared():
    value = rs_integrate(lambda x: x, lambda x: x * x, 0.0, 1.0, eta=1e-6)
    assert abs(value - 2.0 / 3.0) <= 1e-6


def test_rs_integrate_constant_telescopes():
    value = rs_integrate(
        lambda x: np.full_like(np.asarray(x, float), 4.0),
        lambda x: np.exp(x),
        0.0,
        1.0,
        eta=1e-3,
    )
    assert value == pytest.approx(4.0 * (math.e - 1.0), abs=1e-12)


def test_rs_integrate_shared_jump_is_not_integrable():
    step = lambda x: np.where(np.asarray(x, float) >= 0.5, 1.0, 0.0)  # noqa: E731
    with pytest.raises(NonConvergenceError):
        rs_integrate(step, step, 0.0, 1.0, eta=1e-9)


def test_rs_integrate_jump_against_smooth_weight_is_fine():
    # A jump in F alone is integrable against a smooth omega.
    step = lambda x: np.where(np.asarray(x, float) >= 0.5, 1.0, 0.0)  # noqa: E731
    value = rs_integrate(step, lambda x: x, 0.0, 1.0, eta=1e-4)
    assert value == pytest.approx(0.5, abs=1e-3)


def test_rs_integrate_rejects_bad_eta():
    with pytest.raises(ValueError):
        rs_integrate(lambda x: x, lambda x: x, 0.0, 1.0, eta=0.0)


@pytest.mark.parametrize(
    "f,omega,omega_prime,lo,hi",
    [
        (np.exp, np.sin, np.cos, 0.0, 2.0),
        (lambda x: x**3 - x, lambda x: x**2 + 0.5 * x, lambda x: 2.0 * x + 0.5, -1.0, 1.5),
        (np.cos, lambda x: np.exp(-x), lambda x: -np.exp(-x), 0.0, 3.0),
    ],
)
def test_rs_integrate_against_quadrature_oracle(f, omega, omega_prime, lo, hi):
    # For differentiable omega, integral of F d(omega) = integral of
    # F * omega' dx; the right side comes from an independent quadrature.
    oracle, err = quad(lambda x: float(f(x) * omega_prime(x)), lo, hi)
    assert err < 1e-9
    value = rs_integrate(f, omega, lo, hi, eta=1e-7)
    assert value == pytest.approx(oracle, abs=5e-5)


def test_rs_integrate_csv_weight_against_exact_sum(tmp_path):
    # Piecewise-linear weight from a table: integral of x d(omega) over each
    # linear piece is slope * integral of x dx, summed in closed form.
    path = tmp_path / "w.csv"
    path.write_text("x,value\n0,0\n0.25,2\n0.75,1\n1,3\n")
    w = WeightFunction.from_csv(path)
    pieces = [(0.0, 0.25, 8.0), (0.25, 0.75, -2.0), (0.75, 1.0, 8.0)]
    oracle = sum(s * 0.5 * (b * b - a * a) for a, b, s in pieces)
    value = rs_integrate(lambda x: x, w, 0.0, 1.0, eta=1e-7)
    assert value == pytest.approx(oracle, abs=1e-4)


def test_rs_integrate_oscillatory_pair():
    # F and omega oscillating on a scale the coarse grids cannot see; the
    # minimum refinement depth prevents a premature stop at 0.
    f = lambda x: np.sin(TWO_PI * x)  # noqa: E731
    omega = lambda x: np.cos(TWO_PI * x)  # noqa: E731
    oracle, _ = quad(lambda x: -TWO_PI * math.sin(TWO_PI * x) ** 2, 0.0, 1.0)
    value = rs_integrate(f, omega, 0.0, 1.0, eta=1e-6)
    assert value == pytest.approx(oracle, abs=1e-4)


# -- variation -----------------------------------------------------------------------


def test_total_variation_monotone_weight():
    for n in (1, 5, 64):
        p = make_uniform_partition(0.0, 1.0, n, "midpoint")
        assert total_variation(lambda x: x * x, p) == pytest.approx(1.0, abs=1e-12)


def test_total_variation_constant_weight():
    p = make_uniform_partition(0.0, 1.0, 16, "midpoint")
    assert total_variation(lambda x: np.full_like(np.asarray(x, float), 2.5), p) == 0.0


def test_variation_sup_sine_over_full_period():
    # Extrema at pi/2 and 3pi/2 give |0..1| + |1..-1| + |-1..0| = 4.
    assert variation_sup(np.sin, 0.0, TWO_PI) == pytest.approx(4.0, abs=1e-4)


def test_variation_monotone_under_refinement():
    omega = lambda x: np.sin(3.0 * x) + x  # noqa: E731
    values = []
    for m in range(1, 12):
        p = make_uniform_partition(0.0, 4.0, 2**m, "midpoint")
        values.append(total_variation(omega, p))
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_variation_sup_at_least_any_partition_sum():
    omega = lambda x: np.abs(np.sin(2.0 * x)) - 0.3 * x  # noqa: E731
    sup_est = variation_sup(omega, 0.0, 5.0)
    rng = random.Random(11)
    for _ in range(20):
        cuts = sorted(rng.uniform(0.0, 5.0) for _ in range(6))
        xs = [0.0] + cuts + [5.0]
        xs = [x for i, x in enumerate(xs) if i == 0 or x > xs[i - 1]]
        tags = [0.5 * (a + b) for a, b in zip(xs, xs[1:])]
        p = TaggedPartition(0.0, 5.0, tuple(xs), tuple(tags))
        assert total_variation(omega, p) <= sup_est + 1e-6


# -- variation lower bound --------------------------------------------------------


def test_lower_bound_identity_integrand():
    report = variation_lower_bound_check(lambda x: x, lambda x: x, 0.0, 1.0)
    assert report.lhs == pytest.approx(1.0, abs=1e-9)
    assert report.rhs == pytest.approx(0.5, abs=1e-6)
    assert report.holds
    assert report.omega_nondecreasing


def test_lower_bound_equality_case():
    report = variation_lower_bound_check(
        lambda x: np.ones_like(np.asarray(x, float)), lambda x: x, 0.0, 1.0
    )
    assert report.lhs == pytest.approx(1.0, abs=1e-12)
    assert report.rhs == pytest.approx(1.0, abs=1e-12)
    assert report.holds


def test_lower_bound_constant_weight_vanishes():
    report = variation_lower_bound_check(
        lambda x: x, lambda x: np.full_like(np.asarray(x, float), 2.0), 0.0, 1.0
    )
    assert report.lhs == pytest.approx(0.0, abs=1e-12)
    assert report.rhs == pytest.approx(0.0, abs=1e-12)
    assert report.holds


def test_lower_bound_zero_integrand_flagged_vacuous():
    report = variation_lower_bound_check(
        lambda x: np.zeros_like(np.asarray(x, float)), lambda x: x, 0.0, 1.0
    )
    assert report.sup_f_zero
    assert report.rhs == 0.0
    assert report.holds


def test_lower_bound_flags_non_monotone_weight():
    report = variation_lower_bound_check(lambda x: x, np.sin, 0.0, TWO_PI)
    assert not report.omega_nondecreasing
    assert report.holds


def test_lower_bound_reads_the_finest_level():
    # F = 1 telescopes and a constant weight sums to 0, so both pairs stop at
    # level 6 (h = 1/64), whose midpoints are the odd multiples of 1/128.
    peak = lambda x: 1.0 - np.abs(np.asarray(x, float) - 1 / 128)  # noqa: E731
    flat = lambda x: np.full_like(np.asarray(x, float), 2.0)  # noqa: E731
    assert variation_lower_bound_check(peak, flat, 0.0, 1.0).sup_f == 1.0  # at a midpoint
    # nondecreasing on the level-5 nodes j/32 but not on the level-6 nodes j/64
    wiggle = lambda x: x + 0.05 * np.sin(32 * np.pi * np.asarray(x, float))  # noqa: E731
    one = lambda x: np.ones_like(np.asarray(x, float))  # noqa: E731
    assert not variation_lower_bound_check(one, wiggle, 0.0, 1.0).omega_nondecreasing


@pytest.mark.parametrize("eta", [1e-8, 1e-10, 1e-12])
def test_lower_bound_equality_pair_holds_at_small_eta(eta):
    # F = 1 before x = 1/3 and -1 after, where Omega = -(x - 1/3)^2 turns from
    # rising to falling, so F dOmega >= 0 and |integral| / sup|F| is the whole
    # variation 1/9 + 4/9: the bound holds with equality.  The variation side
    # must be refined to the same eta as the integral.
    report = variation_lower_bound_check(compile_expression("1 - 2*step(x - 1/3)"),
                                         compile_expression("-(x - 1/3)^2"), 0.0, 1.0, eta=eta)
    assert report.holds
    assert report.lhs == pytest.approx(5 / 9, abs=10 * eta)
    assert report.rhs == pytest.approx(5 / 9, abs=10 * eta)


def random_bound_case(rng: random.Random):
    """One (polynomial F, piecewise-monotone omega) draw; F kept away from
    the vacuous sup|F| = 0 case, which is tested separately."""
    while True:
        f_coeffs = [rng.uniform(-2.0, 2.0) for _ in range(4)]
        if max(abs(c) for c in f_coeffs) > 0.1:
            break
    w_coeffs = [rng.uniform(-2.0, 2.0) for _ in range(4)]
    f = lambda x: np.polyval(f_coeffs, x)  # noqa: E731
    omega = lambda x: np.polyval(w_coeffs, x)  # noqa: E731
    return f, omega


def test_lower_bound_randomized_suite():
    rng = random.Random(20240817)
    for case in range(100):
        f, omega = random_bound_case(rng)
        report = variation_lower_bound_check(f, omega, 0.0, 1.0, eta=1e-6)
        assert report.holds, (
            f"case {case}: lhs={report.lhs} rhs={report.rhs} "
            f"integral={report.integral} sup_f={report.sup_f}"
        )


# -- argument checks and non-convergence diagnosis ------------------------------------


def _linear(slope, offset=0.0):
    return lambda x: offset + slope * np.asarray(x, float)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"eta": math.nan}, "eta must be positive and finite"),
        ({"eta": math.inf}, "eta must be positive and finite"),
        ({"eta": 0.0}, "eta must be positive and finite"),
        ({"hi": math.inf}, "need finite lo < hi"),
        ({"lo": math.nan}, "need finite lo < hi"),
        ({"hi": 0.0}, "need finite lo < hi"),
    ],
)
def test_refinement_arguments_checked_in_one_place(kwargs, message):
    f, omega = _linear(1.0), _linear(2.0)
    lo, hi = kwargs.get("lo", 0.0), kwargs.get("hi", 1.0)
    eta = kwargs.get("eta", 1e-6)
    with pytest.raises(ValueError, match=message):
        rs_integrate(f, omega, lo, hi, eta=eta)
    with pytest.raises(ValueError, match=message):
        variation_lower_bound_check(f, omega, lo, hi, eta=eta)
    with pytest.raises(ValueError, match=message.replace("eta", "tol")):
        variation_sup(omega, lo, hi, tol=eta)


def test_interval_whose_length_overflows_is_refused_where_intervals_are_checked():
    lo, hi = -1e308, 1e308  # both finite, but hi - lo is inf
    with pytest.raises(ValueError, match="need finite lo < hi with a finite length"):
        make_uniform_partition(lo, hi, 4)
    with pytest.raises(ValueError, match="finite length"):
        WeightFunction(lo, hi, _linear(1.0))
    for run in (lambda: rs_integrate(_linear(1.0), _linear(1.0), lo, hi),
                lambda: variation_sup(_linear(1.0), lo, hi)):
        with pytest.raises(ValueError, match="finite length"):
            run()


@pytest.mark.parametrize("run, where", [
    (lambda: rs_sum(_linear(1.0), _linear(1.0), make_uniform_partition(0.0, 1e308, 4)),
     "the Riemann-Stieltjes sum over the partition"),
    (lambda: rs_integrate(_linear(1.0), _linear(1.0), 0.0, 1e308),
     "the Riemann-Stieltjes sum at dyadic level 1"),
    (lambda: variation_lower_bound_check(_linear(1.0), _linear(1.0), 0.0, 1e308),
     "the Riemann-Stieltjes sum at dyadic level 1"),
    (lambda: total_variation(lambda x: 1e308 * np.sin(50 * x), make_uniform_partition(0, 1, 99)),
     "the variation sum over the partition"),
    (lambda: variation_sup(lambda x: 1e308 * np.sin(50 * x), 0.0, 1.0),
     "the variation sum at dyadic level 4"),
])
def test_sums_that_overflow_name_where_without_a_numpy_warning(run, where):
    # every value summed is finite; only the sum overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValueError, match=f"^{where} overflowed the float range$"):
            run()


def _gap_and_spread(message):
    import re

    found = re.search(r"last midpoint gap (\S+), tag spread (\S+) ", message)
    return float(found.group(1)), float(found.group(2))


# F is smooth at omega's jump, a node of every level, so the sums converge as
# O(h) down to the rounding error of F near e^0.5, about 2e-16: eta = 1e-17 is
# never reached, and the walk gives up at the deepest level
UNREACHABLE = (np.exp, compile_expression("step(x-0.5)"), 0.0, 1.0, 1e-17)


def test_non_convergence_reports_rounding_floor_gap():
    # the gap is rounding alone and the tag spread is still halving, so
    # integrability is not blamed
    with pytest.raises(NonConvergenceError) as info:
        rs_integrate(*UNREACHABLE)
    gap, spread = _gap_and_spread(str(info.value))
    assert gap <= 1e-14
    assert 0.0 < spread < 0.01
    assert "still converging" in str(info.value)
    assert "not be integrable" not in str(info.value)


def test_non_convergence_reports_shared_jump_spread():
    # Jumps of 2 in F and 1.5 in omega at x = 0.5: the left and right tags
    # differ by 2 * 1.5 on the interval that holds the jump, at every level.
    f = lambda x: np.where(np.asarray(x, float) >= 0.5, 2.0, 0.0)  # noqa: E731
    omega = lambda x: np.where(np.asarray(x, float) >= 0.5, 1.5, 0.0)  # noqa: E731
    with pytest.raises(NonConvergenceError) as info:
        rs_integrate(f, omega, 0.0, 1.0, eta=1e-6)
    _, spread = _gap_and_spread(str(info.value))
    assert spread == pytest.approx(3.0)
    assert "not be integrable" in str(info.value)


def test_non_convergence_names_the_level_reached():
    with pytest.raises(NonConvergenceError) as info:
        rs_integrate(*UNREACHABLE)
    exc = info.value
    assert exc.level == riemann_stieltjes._MAX_LEVEL == 50
    assert _gap_and_spread(str(exc)) == pytest.approx((exc.gap, exc.spread), rel=5e-3)
    assert "by dyadic level 50:" in str(exc)
    assert "2^14" not in str(exc)  # no early stop, so no resolution limit
    copy = pickle.loads(pickle.dumps(exc))
    assert (str(copy), copy.level, copy.gap, copy.spread) == (str(exc), 50, exc.gap, exc.spread)


# -- nested refinement: evaluation counts and early failure -----------------------------


class Counting:
    """Callable that records how many points each call evaluates."""

    def __init__(self, fn):
        self.fn = fn
        self.points = 0

    def __call__(self, x):
        self.points += np.size(x)
        return self.fn(x)


def test_each_level_evaluates_only_new_points():
    f, w = Counting(np.exp), Counting(np.sin)
    seen_f = seen_w = 0
    for level, w_nodes, f_nodes, f_mids in itertools.islice(_dyadic_levels(w, f, 0.0, 2.0), 13):
        if level:
            assert f.points - seen_f <= 2**level
            assert w.points - seen_w <= 2 ** (level - 1) + 1
        seen_f, seen_w = f.points, w.points
        xs = np.linspace(0.0, 2.0, 2**level + 1)
        assert np.array_equal(w_nodes, np.sin(xs))
        assert np.array_equal(f_nodes, np.exp(xs))
        assert np.allclose(f_mids, np.exp(0.5 * (xs[:-1] + xs[1:])), rtol=1e-15, atol=0)
    # the finest level's nodes and midpoints, each evaluated once
    assert f.points == 2**13 + 1
    assert w.points == 2**12 + 1


def test_weight_only_levels_skip_the_integrand():
    w = Counting(np.cos)
    for level, w_nodes, f_nodes, f_mids in itertools.islice(_dyadic_levels(w, None, -1.0, 3.0), 10):
        assert f_nodes is None and f_mids is None
        assert np.array_equal(w_nodes, np.cos(np.linspace(-1.0, 3.0, 2**level + 1)))
    assert w.points == 2**9 + 1


def test_shared_jump_fails_early():
    step = compile_expression("step(x-0.5)")
    f, w = Counting(step), Counting(step)
    with pytest.raises(NonConvergenceError) as info:
        rs_integrate(f, w, 0.0, 1.0)
    exc = info.value
    assert exc.level == MIN_REFINEMENTS + STALL_LEVELS == 14
    assert (exc.gap, exc.spread) == (0.0, 1.0)
    assert f.points + w.points < 2**16
    assert "by dyadic level 14:" in str(exc)
    assert "not be integrable" in str(exc)
    assert "(hi-lo)/2^14 = 6.1e-05" in str(exc)


@pytest.mark.parametrize("distance, integrable", [
    (2.0**-13, True),
    (2.0**-14, True),  # resolved at level 14, the last before the stall rule fires
    (2.0**-16, False),  # closer than (hi-lo)/2^14: taken for a shared jump
])
def test_near_jumps_and_the_resolution_limit(distance, integrable):
    # F jumps at 1/3 and omega at 1/3 + distance; F is 1 at omega's jump.
    f = lambda x: np.where(np.asarray(x, float) >= 1 / 3, 1.0, 0.0)  # noqa: E731
    omega = lambda x: np.where(np.asarray(x, float) >= 1 / 3 + distance, 1.0, 0.0)  # noqa: E731
    if integrable:
        assert rs_integrate(f, omega, 0.0, 1.0) == 1.0
    else:
        with pytest.raises(NonConvergenceError) as info:
            rs_integrate(f, omega, 0.0, 1.0)
        assert info.value.level == 14
        assert "jumps closer than (hi-lo)/2^14" in str(info.value)


# -- nested refinement against the per-level reference --------------------------------


def _level_sums(f_eval, w_eval, lo, hi, n):
    """Reference: midpoint, left and right R-S sums on the uniform n-interval
    grid with every point evaluated afresh, as before levels were nested."""
    xs = np.linspace(lo, hi, n + 1)
    wv = _finite_or_raise(_eval_on(w_eval, xs), "weight")
    dw = np.diff(wv)
    f_nodes = _finite_or_raise(_eval_on(f_eval, xs), "integrand")
    f_mid = _finite_or_raise(_eval_on(f_eval, 0.5 * (xs[:-1] + xs[1:])), "integrand")
    return (
        float(np.dot(f_mid, dw)),
        float(np.dot(f_nodes[:-1], dw)),
        float(np.dot(f_nodes[1:], dw)),
    )


def _reference_split_sums(f_eval, w_eval, lo, hi, level, eta, tag_tol):
    """Reference: the sums of the local gaps and spreads on the uniform grid of
    2**level intervals, every point evaluated afresh, and how many of the
    intervals of level - 1 it halves settle (gap below eta*2**-level, spread
    of both halves below tag_tol*2**-level)."""
    xs = np.linspace(lo, hi, 2**level + 1)
    wv = _finite_or_raise(_eval_on(w_eval, xs), "weight")
    fv = _finite_or_raise(_eval_on(f_eval, xs), "integrand")
    fq = _finite_or_raise(_eval_on(f_eval, 0.5 * (xs[:-1] + xs[1:])), "integrand")
    dw = np.diff(wv)
    gaps = np.abs(fq[0::2] * dw[0::2] + fq[1::2] * dw[1::2] - fv[1::2] * (wv[2::2] - wv[:-2:2]))
    spreads = (np.abs(np.diff(fv)) * np.abs(dw)).reshape(-1, 2).sum(axis=1)
    settled = (gaps < eta * 2.0**-level) & (spreads < tag_tol * 2.0**-level)
    return float(gaps.sum()), float(spreads.sum()), int(settled.sum())


def _tagged_sums(level, w_nodes, f_nodes, f_mids):
    """Midpoint, left and right R-S sums of one level."""
    where = f"at dyadic level {level}"
    return [_rs_sum(where, w_nodes, tags) for tags in (f_mids, f_nodes[:-1], f_nodes[1:])]


def _check_against_reference(name, f, omega, lo, hi, eta=1e-6):
    """Every uniform level the refinement walks has the reference's sums within
    1e-13 * sum|f dw|, and the stopping rule applied to the reference sums
    stops on the same level, or goes local on the same level (or never stops,
    when the refinement raised)."""
    try:
        found = _rs_integrate_info(f, omega, lo, hi, eta)
        reached, converged = found.level, True
    except NonConvergenceError as exc:
        reached, converged = exc.level, False
    f_eval = _as_callable(f, lo, hi, "integrand")
    w_eval = _as_callable(omega, lo, hi, "weight")
    tag_tol = max(eta, math.sqrt(eta))
    reference_stop = reference_local_from = None
    levels = itertools.islice(_dyadic_levels(w_eval, f_eval, lo, hi), reached + 1)
    for level, w_nodes, f_nodes, f_mids in levels:
        got = _tagged_sums(level, w_nodes, f_nodes, f_mids)
        want = _level_sums(f_eval, w_eval, lo, hi, 2**level)
        abs_dw = np.abs(np.diff(w_nodes))
        scale = max(np.abs(f_mids) @ abs_dw, np.abs(f_nodes[:-1]) @ abs_dw,
                    np.abs(f_nodes[1:]) @ abs_dw)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-13 * scale, (name, level, got, want)
        if level == 0:
            continue
        (mid, gap, spread), settled, _ = _Walk(eta, hi - lo, 0.0).split(
            level, _uniform_splits(w_nodes, f_nodes, f_mids))
        *reference, reference_settled = _reference_split_sums(f_eval, w_eval, lo, hi, level,
                                                              eta, tag_tol)
        for g, w in zip((mid, gap, spread), (want[0], *reference)):
            assert abs(g - w) <= 1e-13 * scale, (name, level, (mid, gap, spread), reference)
        if level >= MIN_REFINEMENTS:
            if reference[0] < eta and reference[1] < tag_tol:
                reference_stop = level
                break
            if 2 * reference_settled >= 2 ** (level - 1):
                reference_local_from = level + 1
                break
    if converged:
        assert (found.level if found.local_from is None else None) == reference_stop, name
        assert found.local_from == reference_local_from, (name, found, reference_local_from)
    else:
        assert reference_stop is None, (name, reached, reference_stop)


def test_nested_sums_match_reference_on_suite_pairs(tmp_path):
    step = lambda x: np.where(np.asarray(x, float) >= 0.5, 1.0, 0.0)  # noqa: E731
    table = tmp_path / "w.csv"
    table.write_text("x,value\n0,0\n0.25,2\n0.75,1\n1,3\n")
    pairs = [
        ("x_x2", lambda x: x, lambda x: x * x, 0.0, 1.0, 1e-6),
        ("const_exp", lambda x: np.full_like(np.asarray(x, float), 4.0), np.exp, 0.0, 1.0, 1e-3),
        ("shared_jump", step, step, 0.0, 1.0, 1e-9),
        ("jump_smooth", step, lambda x: x, 0.0, 1.0, 1e-4),
        ("exp_sin", np.exp, np.sin, 0.0, 2.0, 1e-7),
        ("cubic_quadratic", lambda x: x**3 - x, lambda x: x**2 + 0.5 * x, -1.0, 1.5, 1e-7),
        ("cos_exp", np.cos, lambda x: np.exp(-x), 0.0, 3.0, 1e-7),
        ("x_table", lambda x: x, WeightFunction.from_csv(table), 0.0, 1.0, 1e-7),
        ("oscillatory", lambda x: np.sin(TWO_PI * x), lambda x: np.cos(TWO_PI * x), 0.0, 1.0),
        ("bound_identity", lambda x: x, lambda x: x, 0.0, 1.0),
        ("bound_constant_weight", lambda x: x,
         lambda x: np.full_like(np.asarray(x, float), 2.0), 0.0, 1.0),
        ("bound_zero_integrand", lambda x: np.zeros_like(np.asarray(x, float)),
         lambda x: x, 0.0, 1.0),
        ("bound_sine_weight", lambda x: x, np.sin, 0.0, TWO_PI),
        ("rounding_floor", *UNREACHABLE),
        ("jumps_2_and_1.5",
         lambda x: np.where(np.asarray(x, float) >= 0.5, 2.0, 0.0),
         lambda x: np.where(np.asarray(x, float) >= 0.5, 1.5, 0.0), 0.0, 1.0, 1e-6),
    ]
    rng = random.Random(20240817)  # the draws of test_lower_bound_randomized_suite
    pairs += [(f"random_{case}", *random_bound_case(rng), 0.0, 1.0) for case in range(100)]
    for name, *pair in pairs:
        _check_against_reference(name, *pair)


def _benchmark_table(tmp_path):
    """A weight table of the benchmark's shape: 33 knots j/32, rising."""
    rng = random.Random(7)
    xs = [j / 32 for j in range(33)]
    ys = np.cumsum([0.2] + [rng.uniform(0.5, 2.0) / 32 for _ in xs[1:]]).tolist()
    table = tmp_path / "weight_table.csv"
    table.write_text("x,value\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(xs, ys)))
    return WeightFunction.from_csv(table)


def _compiled(*functions):
    return [compile_expression(g) if isinstance(g, str) else g for g in functions]


def _benchmark_pairs(tmp_path):
    """(name, f, omega, eta) on [0, 1]: the integrand/weight pairs of the benchmark's
    rs_integrate operations, with the offsets it draws fixed at cf = 0.3, cw = 0.7."""

    def scalar_exp(x):
        if not isinstance(x, float):
            raise TypeError("scalar input only")
        return math.exp(x) + 0.3

    pairs = [
        ("exp_x3", "exp(x) + 0.3", "x^3 + 0.7", 1e-9),
        ("sin_x2", "sin(2*pi*x) + 0.3", "x^2 + 0.7", 1e-8),
        ("x2_table", "x^2 + 0.3", _benchmark_table(tmp_path), 1e-8),
        ("exp_step", "exp(x) + 0.3", "step(x-0.5) + 0.7", 1e-6),
        ("linear_x2", "50*x + 0.3", "x^2 + 0.7", 1e-6),
        ("scalar_x2", scalar_exp, "x^2 + 0.7", 1e-8),
    ]
    return [(name, *_compiled(f, omega), eta) for name, f, omega, eta in pairs]


def test_nested_sums_match_reference_on_benchmark_pairs(tmp_path):
    for name, f, omega, eta in _benchmark_pairs(tmp_path):
        _check_against_reference(name, f, omega, 0.0, 1.0, eta)


# -- the block walk: memory, block boundaries, one place for level-wide work ----------


@pytest.fixture
def small_blocks(monkeypatch):
    """Walk levels 2**7 intervals at a time, so every level above 7 takes several
    blocks (with blocks of 8 the two reference suites take about 40 s on 2 cores)."""
    monkeypatch.setattr(riemann_stieltjes, "_BLOCK", 2**7)


def test_multi_block_levels_evaluate_only_new_points(monkeypatch):
    monkeypatch.setattr(riemann_stieltjes, "_BLOCK", 8)  # every level above 3 has blocks
    test_each_level_evaluates_only_new_points()


def test_multi_block_sums_match_reference_on_suite_pairs(tmp_path, small_blocks):
    test_nested_sums_match_reference_on_suite_pairs(tmp_path)


def test_multi_block_sums_match_reference_on_benchmark_pairs(tmp_path, small_blocks):
    test_nested_sums_match_reference_on_benchmark_pairs(tmp_path)


def test_rs_sum_and_total_variation_walk_partial_blocks(monkeypatch):
    p = make_uniform_partition(0.0, 3.0, 37, "left")
    whole = rs_sum(np.cos, np.exp, p), total_variation(np.sin, p)
    monkeypatch.setattr(riemann_stieltjes, "_BLOCK", 8)  # four blocks of 8 and one of 5
    blocked = rs_sum(np.cos, np.exp, p), total_variation(np.sin, p)
    assert blocked == pytest.approx(whole, rel=1e-14)


def _traced_peak(run):
    """Peak bytes traced while run() runs, and what it returned (or raised)."""
    tracemalloc.start()
    try:
        result = run()
    except (NonConvergenceError, ValueError) as exc:
        result = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak, result


# Level L is reached from level L-1 without it: the new weight and integrand
# nodes (2**L + 1 doubles each) are built while level L-1's three arrays of
# 2**(L-1) are dropped one by one, then the new integrand midpoints (2**L) are
# filled, so the level arrays never exceed 3 * 8 * 2**L bytes (plus 16).  On
# top of them come one block's temporaries, each at most _BLOCK doubles: the
# midpoints, the evaluator's intermediate results, the increments of a sum
# and the finiteness mask (an eighth); six blocks cover them.  That is
# 3 + 6 * _BLOCK / 2**L times 8 * 2**L: 3.375 at level 20, 4.5 at level 18.
def _level_bound(level, arrays=3):
    return 8 * 2**level * (arrays + 6 * _BLOCK / 2**level)


def test_integral_to_level_20_holds_under_one_mib():
    # only the intervals next to the jump at 0.5 are refined past level 6
    f, omega = compile_expression("exp(x) + 0.3"), compile_expression("step(x-0.5) + 0.7")
    peak, found = _traced_peak(lambda: _rs_integrate_info(f, omega, 0.0, 1.0, 1e-6))
    assert (found.level, found.local_from) == (20, MIN_REFINEMENTS + 1)
    assert abs(found.value - (math.exp(0.5) + 0.3)) < 1e-6
    assert peak < 2**20, peak / 2**20


def test_integral_that_reaches_the_budget_holds_three_level_arrays(monkeypatch):
    # below eta = 1e-300 no interval settles, so every level is uniform, up to
    # level 18 at a budget of 2**18 intervals
    monkeypatch.setattr(riemann_stieltjes, "_MAX_INTERVALS", 2**18)
    f, omega = compile_expression("x"), compile_expression("x^2")
    peak, exc = _traced_peak(lambda: rs_integrate(f, omega, 0.0, 1.0, 1e-300))
    assert isinstance(exc, ValueError) and "dyadic level 19 would hold" in str(exc)
    assert peak <= _level_bound(18), peak / 2**20


def test_variation_to_level_20_holds_one_and_a_half_level_arrays(monkeypatch):
    # the weight's nodes only: level L's 2**L + 1 built beside level L-1's
    # 2**(L-1) + 1, so 1.5 + 6 * _BLOCK / 2**L = 1.875 at level 20, the last
    # within a budget of 2**20 intervals
    monkeypatch.setattr(riemann_stieltjes, "_MAX_INTERVALS", 2**20)
    omega = compile_expression("sin(40*x)")
    peak, value = _traced_peak(lambda: variation_sup(omega, 0.0, 1.0, tol=1e-300))
    assert value == pytest.approx(26 - math.sin(40), rel=1e-9)  # integral of |40 cos(40x)|
    assert peak <= _level_bound(20, arrays=1.5), peak / 2**20


def test_level_wide_work_goes_through_the_block_walk():
    source = Path(riemann_stieltjes.__file__).read_text()
    assert "np.dot" not in source
    diffs = re.findall(r"np\.diff\(([^)]*)\)", source)
    assert diffs == ["x_arr", "values[b.start:b.stop + 1]"]  # the CSV samples and one block


# -- local refinement: off-node jumps, sup|F|, the interval budget ----------------------


def _bump(a, b):
    """exp(x) d(x + step(x-a) - step(x-b)) over [0, 1] in closed form."""
    return math.e - 1 + math.exp(a) - math.exp(b)


BUMP = "x + step(x-0.3) - step(x-0.301)"
KINK = 0.123456

# (f, omega, eta, closed form, level it stops at): the pairs whose jumps and
# kinks are off the dyadic nodes.  In signed whole-level sums a bump's up-jump
# and down-jump cancel, and a rule on them stops at 31.6 eta (1e-6), 74 eta
# (1e-8) and 631 eta (1e-10) from the closed form.
OFF_NODE_PAIRS = {
    "bump_1e-6": ("exp(x)", BUMP, 1e-6, _bump(0.3, 0.301), 21),
    "bump_1e-8": ("exp(x)", BUMP, 1e-8, _bump(0.3, 0.301), 28),
    "bump_1e-10": ("exp(x)", BUMP, 1e-10, _bump(0.3, 0.301), 34),
    "bump_at_0.1": ("exp(x)", "x + step(x-0.1) - step(x-0.101)", 1e-6, _bump(0.1, 0.101), 21),
    "wide_bump": ("exp(x)", "x + step(x-0.3) - step(x-0.31)", 1e-6, _bump(0.3, 0.31), 21),
    "one_jump": ("exp(x)", "x + step(x-0.3)", 1e-6, math.e - 1 + math.exp(0.3), 20),
    "exp_step_0.1": ("exp(x)", "step(x-0.1)", 1e-4, math.exp(0.1), 13),
    "kink": (f"abs(x-{KINK})", "x^2", 1e-10, 2 / 3 - KINK + 2 * KINK**3 / 3, 17),
}


@pytest.mark.parametrize("case", sorted(OFF_NODE_PAIRS))
def test_off_node_pairs_are_within_eta(case):
    f, omega, eta, exact, level = OFF_NODE_PAIRS[case]
    f, omega = compile_expression(f), compile_expression(omega)
    found = _rs_integrate_info(f, omega, 0.0, 1.0, eta)
    assert abs(found.value - exact) < eta, abs(found.value - exact) / eta
    assert found.level == level


@pytest.mark.parametrize("f, omega, exact, points", [
    ("exp(x)", BUMP, _bump(0.3, 0.301), 200_000),
    # the jump at 0.5 is a node of every level: the sums converge as O(h)
    ("x^2", "step(x-0.5)", 0.25, 400),
])
def test_jumps_at_1e_8_converge_with_more_levels(f, omega, exact, points):
    f, omega = Counting(compile_expression(f)), Counting(compile_expression(omega))
    value = rs_integrate(f, omega, 0.0, 1.0, 1e-8)
    assert abs(value - exact) < 1e-8
    assert f.points + omega.points < points


def test_local_result_agrees_with_a_deep_uniform_reference():
    # smooth pairs whose detail sits in one place, so most intervals settle
    # early; level 20's midpoint sum is within 1e-3 eta of each integral
    pairs = [
        ("exp(-((x-0.3)*50)^2)", "x^2", 1e-9),
        ("1/(1 + (100*(x-0.3))^2)", "x^3", 1e-8),
        ("sin(x)", "exp(-((x-0.7)*30)^2)", 1e-8),
        ("sqrt(abs(x-0.3))", "x^2", 1e-7),
    ]
    for f, omega, eta in pairs:
        f, omega = compile_expression(f), compile_expression(omega)
        found = _rs_integrate_info(f, omega, 0.0, 1.0, eta)
        assert found.local_from is not None
        reference = _level_sums(f, omega, 0.0, 1.0, 2**20)[0]
        assert abs(found.value - reference) < eta, (found, reference)


def test_benchmark_pairs_hold_under_six_mib(tmp_path):
    table = tmp_path / "weight_table.csv"
    table.write_text("x,value\n" + "".join(f"{j / 32!r},{0.2 + j / 20!r}\n" for j in range(33)))
    pairs = [
        ("exp(x) + 0.3", "x^3 + 0.7", 0.0, 1.0, 1e-9),
        ("sin(2*pi*x) + 0.3", "x^2 + 0.7", 0.0, 1.0, 1e-8),
        ("x^2 + 0.3", WeightFunction.from_csv(table), 0.0, 1.0, 1e-8),
        ("exp(x) + 0.3", "step(x-0.5) + 0.7", 0.0, 1.0, 1e-6),
        ("50*x + 0.3", "x^2 + 0.7", 0.0, 1.0, 1e-6),
        ("cos(x) + 0.3", "sin(x) + 0.7", 0.0, TWO_PI, 1e-6),
    ]
    for f, omega, lo, hi, eta in pairs:
        f, omega = (compile_expression(g) if isinstance(g, str) else g for g in (f, omega))
        peak, _ = _traced_peak(lambda: variation_lower_bound_check(f, omega, lo, hi, eta))
        assert peak < 6 * 2**20, peak / 2**20


class Recording:
    """Callable that keeps a copy of every array it is evaluated at."""

    def __init__(self, fn):
        self.fn, self.seen = fn, []

    def __call__(self, x):
        self.seen.append(np.array(x, dtype=float, copy=True))
        return self.fn(x)


def test_lower_bound_takes_sup_f_over_every_sampled_value():
    f = Recording(compile_expression("2 - abs(x - 0.30003)"))  # peak by the jump
    for omega, rises in ((BUMP, False), ("x + step(x-0.3)", True)):
        report = variation_lower_bound_check(f, compile_expression(omega), 0.0, 1.0)
        assert report.sup_f == max(float(np.abs(f.fn(x)).max()) for x in f.seen)
        assert report.omega_nondecreasing is rises  # the bump falls at 0.301
        f.seen.clear()


def test_levels_over_the_interval_budget_are_refused_before_they_are_built(monkeypatch):
    monkeypatch.setattr(riemann_stieltjes, "_MAX_INTERVALS", 2**10)
    over = "dyadic level {} would hold 2048 intervals, over the budget of 1024 intervals per level"
    x, x2 = _linear(1.0), lambda x: np.asarray(x, float) ** 2
    # below eta = 1e-300 no interval settles, so every level is uniform
    with pytest.raises(ValueError, match=over.format(11)):
        rs_integrate(x, x2, 0.0, 1.0, eta=1e-300)
    # the variation returns its sum at level 10, the last within the budget
    omega = compile_expression("sin(1000*x)")
    level_10 = total_variation(omega, make_uniform_partition(0.0, 1.0, 2**10))
    assert variation_sup(omega, 0.0, 1.0, tol=1e-300) == pytest.approx(level_10, rel=1e-12)
    # the weight is flat on [0, 0.5], whose intervals settle at level 6; the
    # others double per level, 2**(L-1) at level L
    omega = Counting(compile_expression("(x-0.5)*step(x-0.5)"))
    with pytest.raises(ValueError, match=over.format(12)):
        rs_integrate(np.exp, omega, 0.0, 1.0, eta=1e-300)
    assert omega.points < 2**11
    # deep levels with few intervals stay allowed
    found = _rs_integrate_info(compile_expression("x^2"), compile_expression("step(x-0.5)"),
                               0.0, 1.0, 1e-8)
    assert found.level == 26 and abs(found.value - 0.25) < 1e-8


def test_points_over_the_budget_are_refused_before_the_level_is_evaluated(monkeypatch):
    monkeypatch.setattr(riemann_stieltjes, "_MAX_POINTS", 256)
    over = r"^dyadic level (\d+) would take the refinement to (\d+) points, over the budget of " \
           r"256 points per refinement$"
    # uniform: levels 0..L take 3 * 2**L + 2 points, 194 through level 6
    f, omega = Counting(_linear(1.0)), Counting(compile_expression("x^2"))
    with pytest.raises(ValueError, match=over) as info:
        rs_integrate(f, omega, 0.0, 1.0, eta=1e-300)
    assert re.match(over, str(info.value)).groups() == ("7", "386")
    assert f.points + omega.points == 194
    # local from level 7: at 1e-8 this pair takes 314 points through level 26
    f, omega = Counting(compile_expression("x^2")), Counting(compile_expression("step(x-0.5)"))
    with pytest.raises(ValueError, match=over) as info:
        rs_integrate(f, omega, 0.0, 1.0, eta=1e-8)
    level, points = map(int, re.match(over, str(info.value)).groups())
    assert 7 < level < 26 and f.points + omega.points <= 256 < points


# [lo, hi] far from 0 and short: past level 23, lo + j*(hi-lo)/2**level rounds
# several nodes to one double.  The references are taken on the doubles: the
# length L = hi - lo, which is not 1e-3, and F at the double c where the step
# jumps.
FAR_LO, FAR_HI, FAR_C = 1e6, 1e6 + 1e-3, 1e6 + 3.7e-4


@pytest.mark.parametrize("eta", [1e-8, 1e-12, 1e-14, 1e-17])
def test_short_interval_far_from_zero_is_within_eta(eta):
    f = compile_expression("exp(x-1e6)")
    smooth = rs_integrate(f, compile_expression("x"), FAR_LO, FAR_HI, eta)
    assert abs(smooth - math.expm1(FAR_HI - FAR_LO)) < eta
    found = _rs_integrate_info(f, compile_expression(f"step(x-{FAR_C!r})"), FAR_LO, FAR_HI, eta)
    assert abs(found.value - math.exp(FAR_C - 1e6)) < eta
    assert found.level <= 25


# -- the refinement's outputs, bit for bit ---------------------------------------------

RS_OUTPUTS = Path(__file__).parent / "data" / "rs_outputs.json"


def _bits(values: dict) -> dict:
    """values with each float as its repr, which names the double exactly."""
    return {key: repr(v) if isinstance(v, float) else v for key, v in values.items()}


def _refinement_outputs(tmp_path) -> dict:
    """What the refinement returns on the benchmark's integral and bound pairs,
    on the off-node bump and on a jump at a node, and where a shared jump ends."""
    outputs = {}

    def integrate(name, f, omega, lo, hi, eta):
        found = _rs_integrate_info(f, omega, lo, hi, eta)._asdict()
        outputs[f"integral {name} {eta!r}"] = _bits(found)

    for name, f, omega, eta in _benchmark_pairs(tmp_path):
        integrate(name, f, omega, 0.0, 1.0, eta)
    bounds = [
        ("cos_sin", *_compiled("cos(x) + 0.3", "sin(x) + 0.7"), 0.0, TWO_PI, 1e-6),
        ("x2_table", *_compiled("x^2 + 0.3", _benchmark_table(tmp_path)), 0.0, 1.0, 1e-8),
        ("exp_x3", *_compiled("exp(x) + 0.3", "x^3 + 0.7"), 0.0, 1.0, 1e-9),
    ]
    for name, f, omega, lo, hi, eta in bounds:
        integrate(f"bound {name}", f, omega, lo, hi, eta)
        outputs[f"variation_sup {name} {eta!r}"] = repr(variation_sup(omega, lo, hi, tol=eta))
    for eta in (1e-6, 1e-8):
        integrate("bump", *_compiled("exp(x)", BUMP), 0.0, 1.0, eta)
    integrate("x2_step", *_compiled("x^2", "step(x-0.5)"), 0.0, 1.0, 1e-8)
    jump = compile_expression("step(x-0.5)")
    with pytest.raises(NonConvergenceError) as info:
        rs_integrate(jump, jump, 0.0, 1.0)
    outputs["shared_jump"] = _bits(vars(info.value))
    return outputs


def test_refinement_outputs_are_the_recorded_bits(tmp_path):
    recorded = json.loads(RS_OUTPUTS.read_text())
    assert recorded["integral exp_x3 1e-09"]["value"] == "2.4548454853428066"
    assert _refinement_outputs(tmp_path) == recorded
