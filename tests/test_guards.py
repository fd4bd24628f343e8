"""Property tests of the public constructor guards: NaN, infinities,
fractional counts and out-of-domain numbers are rejected with ValueError
(or a subclass of it) when the object is built, not later."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import assume, example
from hypothesis import strategies as st

from sustkit.diffusion import AffineRule, ScalarField, ScenarioSpec, field_from_json
from sustkit.index import IndexInputs, index_value
from sustkit.index import Interval
from sustkit.pavement import MixDesign, MixTableError, run_demo_figures
from sustkit.polynomials import FAMILY_VARIANTS, SolutionFamily, build_solution
from sustkit.riemann_stieltjes import (WeightFunction, make_uniform_partition, rs_integrate,
                                      variation_sup)
from sustkit.riemann_stieltjes import TaggedPartition

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NON_POSITIVE = st.floats(max_value=0.0)  # zero, negatives and -inf
FINITE = st.floats(min_value=-1e6, max_value=1e6)
FRACTIONAL = FINITE.filter(lambda x: not x.is_integer())


def not_whole(minimum):
    """Values a count with this minimum must refuse."""
    return st.one_of(NON_FINITE, FRACTIONAL, st.integers(max_value=minimum - 1),
                     st.integers(-50, minimum - 1).map(float), st.booleans())


def empty_interval():
    """(lo, hi) with hi <= lo."""
    return st.tuples(FINITE, st.floats(0.0, 1e6)).map(lambda p: (p[0], p[0] - p[1]))


def bad_interval():
    return st.one_of(empty_interval(), NON_FINITE.map(lambda v: (v, 1.0)),
                     NON_FINITE.map(lambda v: (0.0, v)))


def bad_weights(k):
    """k weights of which one is non-finite or non-positive."""
    return st.tuples(st.integers(0, k - 1), st.one_of(NON_FINITE, NON_POSITIVE)).map(
        lambda p: tuple(p[1] if i == p[0] else 1.0 for i in range(k)))


GUARD_SETTINGS = settings(max_examples=60, deadline=None)


# -- ScenarioSpec ------------------------------------------------------------------

SPEC = dict(domain=((0.0, 1.0), (0.0, 2.0)), resolution=(5, 7), t_end=0.1, dt="auto")


@GUARD_SETTINGS
@given(st.one_of(
    bad_interval().map(lambda ax: {"domain": (ax, (0.0, 2.0))}),
    bad_interval().map(lambda ax: {"domain": ((0.0, 1.0), ax)}),
    not_whole(3).map(lambda n: {"resolution": (n, 7)}),
    not_whole(3).map(lambda n: {"resolution": (5, n)}),
    st.one_of(NON_FINITE, NON_POSITIVE).map(lambda t: {"t_end": t}),
    st.one_of(NON_FINITE, NON_POSITIVE, st.floats(1.0, 1e6)).map(lambda dt: {"dt": dt}),
))
def test_scenario_spec_rejects(changes):
    with pytest.raises(ValueError):
        ScenarioSpec(boundary_rule=AffineRule(), initial_rule=AffineRule(), **{**SPEC, **changes})


# -- SolutionFamily ----------------------------------------------------------------


@GUARD_SETTINGS
@given(st.sampled_from(FAMILY_VARIANTS), st.data())
def test_solution_family_rejects_bad_k(variant, data):
    k = data.draw(st.one_of(not_whole(1 if variant in ("T1a", "T1b") else 2), st.text()))
    with pytest.raises(ValueError):
        SolutionFamily(variant, k, alpha=1.0, beta=1.0, weights=(1.0, 1.0))


@GUARD_SETTINGS
@given(st.sampled_from(["C_ab", "C2w_ab"]), st.one_of(NON_FINITE, NON_POSITIVE), st.booleans())
def test_solution_family_rejects_bad_alpha_beta(variant, value, on_alpha):
    alpha, beta = (value, 1.0) if on_alpha else (1.0, value)
    with pytest.raises(ValueError):
        SolutionFamily(variant, 3, alpha=alpha, beta=beta, weights=(1.0, 1.0, 1.0))


@GUARD_SETTINGS
@given(st.sampled_from(["T3w", "C1w", "C2w_ab"]), st.one_of(bad_weights(3), st.just((1.0, 1.0))))
def test_solution_family_rejects_bad_weights(variant, weights):
    with pytest.raises(ValueError):
        SolutionFamily(variant, 3, alpha=1.0, beta=1.0, weights=weights)


def test_solution_family_normalises_whole_k():
    for k in (3.0, np.int64(3), np.float64(3.0)):
        fam = SolutionFamily("C2w_ab", k, alpha=1.5, beta=0.5, weights=(1.0, 2.0, 0.5))
        assert type(fam.k) is int and fam.k == 3
        assert build_solution(fam) == build_solution(
            SolutionFamily("C2w_ab", 3, alpha=1.5, beta=0.5, weights=(1.0, 2.0, 0.5)))


# -- IndexInputs -------------------------------------------------------------------

INPUTS = dict(k=3, t=0.5, psi=(0.1, 0.2, 0.3), weights=(1.0, 2.0, 0.5), alpha=1.5, beta=0.5)


@GUARD_SETTINGS
@given(st.one_of(
    st.one_of(not_whole(2), st.text()).map(lambda k: {"k": k}),
    NON_FINITE.map(lambda t: {"t": t}),
    NON_FINITE.map(lambda x: {"psi": (0.1, x, 0.3)}),
    bad_weights(3).map(lambda w: {"weights": w}),
    st.one_of(NON_FINITE, NON_POSITIVE).map(lambda a: {"alpha": a}),
    st.one_of(NON_FINITE, NON_POSITIVE).map(lambda b: {"beta": b}),
    st.just({"psi": (0.1, 0.2)}),
))
def test_index_inputs_rejects(changes):
    with pytest.raises(ValueError):
        IndexInputs(**{**INPUTS, **changes})


def test_index_inputs_normalises_whole_k():
    inputs = IndexInputs(**{**INPUTS, "k": 3.0})
    assert type(inputs.k) is int and inputs.k == 3
    assert index_value(inputs, "C2w_ab") == index_value(IndexInputs(**INPUTS), "C2w_ab")


# -- WeightFunction ----------------------------------------------------------------


@GUARD_SETTINGS
@given(bad_interval())
def test_weight_function_rejects_bad_domain(interval):
    with pytest.raises(ValueError):
        WeightFunction(*interval, evaluator=lambda x: x)


@GUARD_SETTINGS
@given(NON_FINITE, st.integers(0, 16))
def test_weight_function_rejects_non_finite_values(bad, where):
    # the constructor probes 17 evenly spaced points of [0, 1]
    with pytest.raises(ValueError):
        WeightFunction(0.0, 1.0, lambda x: np.where(np.isclose(x, where / 16), bad, x))


# -- make_uniform_partition --------------------------------------------------------


@GUARD_SETTINGS
@given(st.one_of(
    st.one_of(not_whole(1), st.text()).map(lambda n: (0.0, 1.0, n, "midpoint")),
    bad_interval().map(lambda ax: (*ax, 4, "midpoint")),
    st.text().filter(lambda r: r not in ("left", "right", "midpoint")).map(
        lambda r: (0.0, 1.0, 4, r)),
))
def test_uniform_partition_rejects(args):
    with pytest.raises(ValueError):
        make_uniform_partition(*args)


def test_uniform_partition_normalises_whole_n():
    assert make_uniform_partition(0.0, 1.0, 4.0) == make_uniform_partition(0.0, 1.0, 4)


# -- ScalarField -------------------------------------------------------------------

FIELD = dict(k=2, extents=(3, 4), spacings=(0.5, 0.25), origin=(0.0, 1.0))


def bad_field():
    """ScalarField arguments with one spacing NaN, infinite, zero or negative,
    or one origin coordinate non-finite."""
    return st.one_of(
        st.tuples(st.integers(0, 1), st.one_of(NON_FINITE, NON_POSITIVE)).map(
            lambda p: {"spacings": tuple(p[1] if i == p[0] else 0.5 for i in range(2))}),
        st.tuples(st.integers(0, 1), NON_FINITE).map(
            lambda p: {"origin": tuple(p[1] if i == p[0] else 0.0 for i in range(2))}),
    )


@GUARD_SETTINGS
@given(bad_field())
def test_scalar_field_rejects(changes):
    with pytest.raises(ValueError):
        ScalarField(**{**FIELD, **changes}, values=np.zeros(FIELD["extents"]))


@pytest.fixture(scope="module")
def field_json(tmp_path_factory):
    return tmp_path_factory.mktemp("field") / "field.json"


@GUARD_SETTINGS
@given(bad_field())
def test_field_from_json_rejects(field_json, changes):
    # json writes NaN and Infinity as the non-standard literals it reads back
    data = {**FIELD, **changes, "time": 0.0, "values": [0.0] * 12}
    field_json.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        field_from_json(field_json)


# -- bools, strings and None ----------------------------------------------------------
#
# The guards above also refuse bools, strings and None.  A number is an int or a
# float, numpy scalars included.  Every real-valued field refuses anything else as it
# refuses NaN and the infinities: with ValueError (or a subclass), never TypeError and
# never by coercing it.  The fixed examples were once accepted (the bools and the
# string origin and breakpoints) or raised TypeError.

NOT_NUMBERS = st.one_of(st.booleans(), st.just(np.True_), st.text(), st.none())
NOT_REAL = st.one_of(NOT_NUMBERS, NON_FINITE)
NOT_REAL_OR_ABSENT = NOT_REAL.filter(lambda v: v is not None)  # where None means "not given"


def one_not_real(values):
    """``values`` with one entry replaced by a drawn non-number or non-finite float."""
    return st.tuples(st.integers(0, len(values) - 1), NOT_REAL).map(
        lambda p: tuple(p[1] if i == p[0] else v for i, v in enumerate(values)))


@GUARD_SETTINGS
@given(st.one_of(
    one_not_real(FIELD["spacings"]).map(lambda h: {**FIELD, "spacings": h}),
    one_not_real(FIELD["origin"]).map(lambda o: {**FIELD, "origin": o}),
))
@example({"k": 1, "extents": (3,), "spacings": (0.5,), "origin": ("0",)})
def test_scalar_field_refuses_non_numbers(kwargs):
    with pytest.raises(ValueError):
        ScalarField(**kwargs, values=np.zeros(kwargs["extents"]))


@GUARD_SETTINGS
@given(st.one_of(
    one_not_real((0.0, 1.0)).map(lambda ax: {"domain": (ax, (0.0, 2.0))}),
    one_not_real((0.0, 2.0)).map(lambda ax: {"domain": ((0.0, 1.0), ax)}),
    NOT_NUMBERS.map(lambda n: {"resolution": (5, n)}),
    NOT_REAL.map(lambda t: {"t_end": t}),
    NOT_REAL.filter(lambda dt: not isinstance(dt, str) or dt != "auto").map(
        lambda dt: {"dt": dt}),
))
@example({"t_end": True})
@example({"t_end": "1"})
def test_scenario_spec_refuses_non_numbers(changes):
    with pytest.raises(ValueError):
        ScenarioSpec(boundary_rule=AffineRule(), initial_rule=AffineRule(), **{**SPEC, **changes})


@GUARD_SETTINGS
@given(st.one_of(
    NOT_REAL.map(lambda t: {"t": t}),
    one_not_real(INPUTS["psi"]).map(lambda psi: {"psi": psi}),
    one_not_real(INPUTS["weights"]).map(lambda w: {"weights": w}),
    NOT_REAL_OR_ABSENT.map(lambda a: {"alpha": a}),
    NOT_REAL_OR_ABSENT.map(lambda b: {"beta": b}),
))
@example({"t": True, "alpha": True})
@example({"t": "1"})
def test_index_inputs_refuse_non_numbers(changes):
    with pytest.raises(ValueError):
        IndexInputs(**{**INPUTS, **changes})


@GUARD_SETTINGS
@given(one_not_real((0.0, 1.0)))
@example(("a", 1))
def test_interval_refuses_non_numbers(ends):
    with pytest.raises(ValueError):
        Interval(*ends)


@GUARD_SETTINGS
@given(st.sampled_from(["T3w", "C1w", "C2w_ab"]), one_not_real((1.0, 2.0, 0.5)))
def test_solution_family_refuses_non_number_weights(variant, weights):
    with pytest.raises(ValueError):
        SolutionFamily(variant, 3, alpha=1.0, beta=1.0, weights=weights)


@GUARD_SETTINGS
@given(st.sampled_from(["C_ab", "C2w_ab"]), one_not_real((1.0, 1.0)))
def test_solution_family_refuses_non_number_alpha_beta(variant, alpha_beta):
    alpha, beta = alpha_beta
    with pytest.raises(ValueError):
        SolutionFamily(variant, 3, alpha=alpha, beta=beta, weights=(1.0, 1.0, 1.0))


PARTITION = (0.0, 1.0, (0.0, 0.5, 1.0), (0.25, 0.75))


@GUARD_SETTINGS
@given(st.one_of(
    NOT_REAL.map(lambda lo: (lo, *PARTITION[1:])),
    NOT_REAL.map(lambda hi: (PARTITION[0], hi, *PARTITION[2:])),
    one_not_real(PARTITION[2]).map(lambda xs: (*PARTITION[:2], xs, PARTITION[3])),
    one_not_real(PARTITION[3]).map(lambda ts: (*PARTITION[:3], ts)),
))
@example((0, 1, ("0", "1"), ("0.5",)))
def test_tagged_partition_refuses_non_numbers(args):
    with pytest.raises(ValueError):
        TaggedPartition(*args)


@GUARD_SETTINGS
@given(st.sampled_from(["lo", "hi", "eta"]), NOT_REAL)
@example("eta", True)
def test_refinement_arguments_refuse_non_numbers(name, value):
    args = {"lo": 0.0, "hi": 1.0, "eta": 1e-6, name: value}
    with pytest.raises(ValueError):
        rs_integrate(lambda x: x, lambda x: x, args["lo"], args["hi"], eta=args["eta"])
    with pytest.raises(ValueError):
        variation_sup(lambda x: x, args["lo"], args["hi"], tol=args["eta"])


@GUARD_SETTINGS
@given(one_not_real((0.0, 1.0)))
@example(("0", 1))
def test_uniform_partition_and_weight_function_refuse_non_number_ends(ends):
    with pytest.raises(ValueError):
        make_uniform_partition(*ends, 4)
    with pytest.raises(ValueError):
        WeightFunction(*ends, evaluator=lambda x: x)


MIX = dict(label="m", ac_mm=80.0, drainage_mm=None, subbase_mm=200.0, base_mm=275.0,
           total_mm=555.0, base_mr_mpa=350.0)


@GUARD_SETTINGS
@given(st.sampled_from(["ac_mm", "drainage_mm", "subbase_mm", "base_mm", "total_mm",
                        "base_mr_mpa"]), NOT_REAL)
@example("ac_mm", "80")
def test_mix_design_refuses_non_numbers(field, value):
    assume(not (field == "drainage_mm" and value is None))  # None: no drainage layer
    with pytest.raises(MixTableError):
        MixDesign(**{**MIX, field: value})


@settings(max_examples=20, deadline=None)
@given(NOT_REAL)
def test_demo_figures_refuse_non_number_s_before_writing(s):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        with pytest.raises(ValueError):
            run_demo_figures("fig4", out, resolution=5, s=s, t_end=0.01)
        assert not out.exists()


def test_numpy_scalars_are_numbers():
    spec = ScenarioSpec(boundary_rule=AffineRule(), initial_rule=AffineRule(),
                        domain=((np.int64(0), np.float32(1.0)), (0, 2)), resolution=(5, 7),
                        t_end=np.float64(0.1))
    assert spec.domain == ((0.0, 1.0), (0.0, 2.0)) and spec.t_end == 0.1
    assert all(type(v) is float for ax in spec.domain for v in ax) and type(spec.t_end) is float
    assert Interval(np.int64(1), np.float32(2.5)).contains(Interval(1.5, 2.0))
    p = make_uniform_partition(np.float64(0.0), np.int32(1), np.int64(4))
    assert type(p.interval_lo) is float and type(p.interval_hi) is float
    assert p.breakpoints.dtype == p.tags.dtype == np.float64
    assert p.breakpoints.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert p.tags.tolist() == [0.125, 0.375, 0.625, 0.875]
