"""Property tests of the public constructor guards: NaN, infinities,
fractional counts and out-of-domain numbers are rejected with ValueError
(or a subclass of it) when the object is built, not later."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sustkit.diffusion import AffineRule, ScalarField, ScenarioSpec, field_from_json
from sustkit.index import IndexInputs, index_value
from sustkit.polynomials import FAMILY_VARIANTS, SolutionFamily, build_solution
from sustkit.riemann_stieltjes import (WeightFunction, make_uniform_partition, rs_integrate,
                                      variation_sup)

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


# -- refinement depth ----------------------------------------------------------------

BAD_DEPTH = st.one_of(st.floats(1.0, 60.0).filter(lambda x: not x.is_integer()),
                      st.just(math.inf), st.just(True))


@GUARD_SETTINGS
@given(BAD_DEPTH)
def test_refinement_depth_must_be_whole(depth):
    with pytest.raises(ValueError, match="max_refinements must be a whole number >= 1"):
        rs_integrate(lambda x: x, lambda x: x, 0.0, 1.0, max_refinements=depth)
    with pytest.raises(ValueError, match="max_refinements must be a whole number >= 1"):
        variation_sup(lambda x: x, 0.0, 1.0, max_refinements=depth)
