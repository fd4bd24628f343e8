import json
import math
import random
import warnings
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sustkit import polynomials
from sustkit.polynomials import (
    DIFFUSION_FAMILIES,
    FAMILY_VARIANTS,
    ZERO_TOL,
    ArityMismatchError,
    FamilyCheck,
    SolutionFamily,
    SparsePolynomial,
    build_solution,
    diffusion_residual,
    family_coefficients,
    interaction_residual,
    verify_solution_families,
)

DATA = Path(__file__).parent / "data"


# -- independent oracle: rebuild residuals symbolically with sympy ------------


def _to_sympy(p: SparsePolynomial):
    t = sympy.Symbol("t")
    psis = sympy.symbols(f"psi1:{p.arity + 1}")
    expr = sympy.Integer(0)
    for exps, c in p.terms.items():
        term = sympy.Float(c, 30) * t ** exps[0]
        for sym, e in zip(psis, exps[1:]):
            term *= sym**e
        expr += term
    return expr, t, psis


def sympy_diffusion_residual(p: SparsePolynomial):
    expr, t, psis = _to_sympy(p)
    res = sympy.diff(expr, t) - sum(sympy.diff(expr, s, 2) for s in psis)
    return sympy.expand(res)


def sympy_interaction_residual(p: SparsePolynomial):
    expr, t, psis = _to_sympy(p)
    k = p.arity
    res = sympy.diff(expr, t) - sum(sympy.diff(expr, s, k) for s in psis)
    res -= sympy.diff(expr, *psis)
    return sympy.expand(res)


def _assert_matches_sympy(mine: SparsePolynomial, oracle_expr) -> None:
    expr, t, psis = _to_sympy(mine)
    diff = sympy.expand(expr - oracle_expr)
    poly = sympy.Poly(diff, t, *psis) if diff != 0 else None
    worst = max((abs(float(c)) for c in poly.coeffs()), default=0.0) if poly else 0.0
    assert worst < 1e-9, f"disagrees with sympy oracle by {worst}"


# -- arithmetic ---------------------------------------------------------------


def test_partial_power_rule():
    p = SparsePolynomial(1, {(0, 2): 1.0})  # psi1^2, k=1
    assert p.partial(1) == SparsePolynomial(1, {(0, 1): 2.0})


def test_partial_product_variables():
    p = SparsePolynomial(2, {(0, 1, 1): 1.0})  # psi1*psi2, k=2
    assert p.partial(2) == SparsePolynomial(2, {(0, 1, 0): 1.0})


def test_eval_simple():
    p = SparsePolynomial(1, {(1, 0): 1.0, (0, 2): 1.0})  # t + psi1^2
    assert p([1.0, 2.0]) == 5.0


def test_add_mul_scalar():
    a = SparsePolynomial(1, {(1, 0): 2.0})
    b = SparsePolynomial(1, {(0, 1): 3.0})
    s = a + b
    assert s.terms == {(1, 0): 2.0, (0, 1): 3.0}
    assert (2 * a).terms == {(1, 0): 4.0}
    prod = a * b
    assert prod.terms == {(1, 1): 6.0}


def test_zero_coefficients_dropped():
    p = SparsePolynomial(1, {(1, 0): 1.0}) - SparsePolynomial(1, {(1, 0): 1.0})
    assert p.terms == {}
    assert p.is_zero()


def test_arity_mismatch_raises():
    a = SparsePolynomial(1, {(1, 0): 1.0})
    b = SparsePolynomial(2, {(1, 0, 0): 1.0})
    with pytest.raises(ArityMismatchError):
        _ = a + b
    with pytest.raises(ArityMismatchError):
        _ = a * b
    with pytest.raises(ArityMismatchError):
        a([1.0, 2.0, 3.0])


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        SparsePolynomial(1, {(0, -1): 1.0})


@settings(deadline=None, max_examples=100)
@given(
    terms=st.dictionaries(
        st.tuples(*(st.integers(0, 3) for _ in range(4))),
        st.floats(-10, 10, allow_nan=False),
        min_size=1,
        max_size=6,
    ),
    i=st.integers(1, 3),
    j=st.integers(1, 3),
)
def test_partials_commute(terms, i, j):
    p = SparsePolynomial(3, terms)
    assert p.partial(i).partial(j) == p.partial(j).partial(i)


# -- reference path: one single derivative at a time ---------------------------


def reference_partial(p: SparsePolynomial, var: int) -> SparsePolynomial:
    out = {}
    for exps, c in p.terms.items():
        n = exps[var]
        if n == 0:
            continue
        key = list(exps)
        key[var] = n - 1
        out[tuple(key)] = out.get(tuple(key), 0.0) + c * n
    return SparsePolynomial(p.arity, out)


def reference_diffusion_residual(h: SparsePolynomial) -> SparsePolynomial:
    res = reference_partial(h, 0)
    for i in range(1, h.arity + 1):
        res = res - reference_partial(reference_partial(h, i), i)
    return res


def reference_interaction_residual(h: SparsePolynomial) -> SparsePolynomial:
    k = h.arity
    res = reference_partial(h, 0)
    for i in range(1, k + 1):
        pure = h
        for _ in range(k):
            pure = reference_partial(pure, i)
        res = res - pure
    mixed = h
    for i in range(1, k + 1):
        mixed = reference_partial(mixed, i)
    return res - mixed


def _hex_terms(residual, h):
    """The residual's terms in order with each coefficient's float.hex, or
    ValueError if it raises one."""
    try:
        return [(key, c.hex()) for key, c in residual(h).terms.items()]
    except ValueError:
        return ValueError


HUGE = st.floats(1e300, 1.7e308)
COEFFS = st.one_of(
    st.sampled_from([1.0, -1.0, 0.5, 2.0, 1.0 / 6.0, 3.0]),
    st.floats(-10, 10, allow_nan=False).filter(bool),
    HUGE,
    HUGE.map(lambda c: -c),
)


@st.composite
def polynomials_to_differentiate(draw):
    """Arity 1-5, exponents up to 9 (above every derivative order taken),
    and optionally a closed-form family underneath, whose terms cancel."""
    k = draw(st.integers(1, 5))
    terms = {}
    variants = ["T1a", "T1b"] + (list(FAMILY_VARIANTS[2:]) if k >= 2 else [])
    variant = draw(st.one_of(st.none(), st.sampled_from(variants)))
    if variant is not None:
        fam = SolutionFamily(variant, k, alpha=1.3, beta=0.7,
                             weights=tuple(0.5 + 0.25 * i for i in range(k)))
        terms.update(build_solution(fam).terms)
    exps = st.tuples(*(st.integers(0, 9) for _ in range(k + 1)))
    terms.update(draw(st.dictionaries(exps, COEFFS, max_size=6)))
    return SparsePolynomial(k, terms)


@settings(deadline=None, max_examples=400)
@given(h=polynomials_to_differentiate())
@example(h=build_solution(SolutionFamily("T2a", 3)))
# the constant term cancels after d^2/dpsi1^2 and comes back after d^2/dpsi2^2
@example(h=SparsePolynomial(2, {(1, 0, 0): 1.0, (2, 0, 0): 1.0, (0, 2, 0): 0.5, (0, 0, 2): 0.5}))
@example(h=SparsePolynomial(2, {(1, 0, 0): 1.5e308, (0, 2, 0): -0.8e308}))
def test_residuals_match_reference_bit_for_bit(h):
    assert _hex_terms(diffusion_residual, h) == _hex_terms(reference_diffusion_residual, h)
    if h.arity >= 2:
        assert _hex_terms(interaction_residual, h) == _hex_terms(
            reference_interaction_residual, h)
    for var in range(h.arity + 1):
        assert _hex_terms(lambda p: p.partial(var), h) == _hex_terms(
            lambda p: reference_partial(p, var), h)


@pytest.mark.parametrize("terms", [
    {(0, 9, 0): 1.5e308},  # the first derivative overflows
    {(0, 2, 0, 0): 1.5e308},  # at k = 3, it overflows in a term that later vanishes
    {(1, 0, 0): 1.5e308, (0, 2, 0): -0.8e308},  # dH/dt minus d^2H/dpsi1^2 overflows
])
@pytest.mark.parametrize("residual", [
    diffusion_residual, reference_diffusion_residual,
    interaction_residual, reference_interaction_residual,
])
def test_residual_overflow_raises_on_both_paths(terms, residual):
    with pytest.raises(ValueError):
        residual(SparsePolynomial(len(next(iter(terms))) - 1, terms))


# -- closed forms -------------------------------------------------------------


def test_t1a_value():
    h = build_solution(SolutionFamily("T1a", 2))
    assert h([1.0, 0.0, 0.0]) == 2.0


def test_t2a_value():
    h = build_solution(SolutionFamily("T2a", 2))
    assert h([0.0, 1.0, 1.0]) == pytest.approx(2.0, abs=1e-15)


def test_t3w_value():
    h = build_solution(SolutionFamily("T3w", 2, weights=(1.0, 1.0)))
    assert h([1.0, 0.0, 0.0]) == 5.0


@pytest.mark.parametrize("variant", ["T1a", "T1b"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_diffusion_families_solve_their_model(variant, k):
    res = diffusion_residual(build_solution(SolutionFamily(variant, k)))
    assert res.is_zero()


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_interaction_families_solve_their_model(k):
    weights = tuple(0.3 + 0.4 * i for i in range(k))
    fams = [
        SolutionFamily("T2a", k),
        SolutionFamily("T2b", k),
        SolutionFamily("C_ab", k, alpha=0.7, beta=1.9),
        SolutionFamily("T3w", k, weights=weights),
        SolutionFamily("C1w", k, weights=weights),
        SolutionFamily("C2w_ab", k, alpha=1.3, beta=0.4, weights=weights),
    ]
    for fam in fams:
        res = interaction_residual(build_solution(fam))
        assert res.is_zero(), f"{fam.variant} k={k}: max coeff {res.max_abs_coeff()}"


@pytest.mark.parametrize("k", [2, 3])
def test_residuals_match_sympy_oracle(k):
    weights = tuple(0.5 * (i + 1) for i in range(k))
    cases = [
        build_solution(SolutionFamily("T2a", k)),
        build_solution(SolutionFamily("T3w", k, weights=weights)),
        build_solution(SolutionFamily("C_ab", k, alpha=0.9, beta=1.4)),
        SparsePolynomial(k, {(2,) + (0,) * k: 1.0}),  # t^2, a non-solution
    ]
    for h in cases:
        _assert_matches_sympy(interaction_residual(h), sympy_interaction_residual(h))
        _assert_matches_sympy(diffusion_residual(h), sympy_diffusion_residual(h))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_residuals_of_random_polynomials_match_sympy(seed):
    import random

    rng = random.Random(seed)
    k = 3
    terms = {
        tuple(rng.randint(0, 3) for _ in range(k + 1)): rng.uniform(-4.0, 4.0)
        for _ in range(6)
    }
    h = SparsePolynomial(k, terms)
    _assert_matches_sympy(diffusion_residual(h), sympy_diffusion_residual(h))
    _assert_matches_sympy(interaction_residual(h), sympy_interaction_residual(h))


def test_t_squared_is_not_a_diffusion_solution():
    h = SparsePolynomial(1, {(2, 0): 1.0})  # t^2
    res = diffusion_residual(h)
    assert res.terms == {(1, 0): 2.0}  # residual 2t


def test_t3w_uneven_weights_solve_interaction_model():
    h = build_solution(SolutionFamily("T3w", 2, weights=(0.5, 2.0)))
    assert interaction_residual(h).is_zero()


def test_t1a_does_not_solve_interaction_model_for_k3():
    # T1a solves the diffusion model; against the interaction model at k=3
    # its psi-terms drop out entirely and the residual is the constant k
    # (confirmed by the sympy oracle above).
    h = build_solution(SolutionFamily("T1a", 3))
    res = interaction_residual(h)
    assert not res.is_zero()
    assert res.terms == {(0, 0, 0, 0): 3.0}
    _assert_matches_sympy(res, sympy_interaction_residual(h))


def test_t1b_k3_solves_diffusion():
    res = diffusion_residual(build_solution(SolutionFamily("T1b", 3)))
    assert res.is_zero()


# -- reduction identities (exact term maps) -----------------------------------


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_t3w_unit_weights_equals_t2b(k):
    ones = (1.0,) * k
    assert build_solution(SolutionFamily("T3w", k, weights=ones)) == build_solution(
        SolutionFamily("T2b", k)
    )


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_c1w_unit_weights_equals_t2a(k):
    ones = (1.0,) * k
    assert build_solution(SolutionFamily("C1w", k, weights=ones)) == build_solution(
        SolutionFamily("T2a", k)
    )


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_c2w_ab_unit_parameters_equals_t3w(k):
    weights = tuple(0.2 + 0.3 * i for i in range(k))
    assert build_solution(
        SolutionFamily("C2w_ab", k, alpha=1.0, beta=1.0, weights=weights)
    ) == build_solution(SolutionFamily("T3w", k, weights=weights))


# -- stated time coefficients --------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 4])
def test_dt_coefficient_matches_stated_value(k):
    weights = tuple(0.4 + 0.5 * i for i in range(k))
    alpha, beta = 1.3, 0.7
    fact = math.factorial(k)
    sum_w, prod_w = math.fsum(weights), math.prod(weights)
    cases = [
        (SolutionFamily("T1a", k), float(k)),
        (SolutionFamily("T1b", k), float(2 * k)),
        (SolutionFamily("T2a", k), float(k + 1)),
        (SolutionFamily("T2b", k), float(fact * k + 1)),
        (SolutionFamily("C_ab", k, alpha=alpha, beta=beta), k * alpha * fact + beta),
        (SolutionFamily("T3w", k, weights=weights), fact * sum_w + prod_w),
        (SolutionFamily("C1w", k, weights=weights), sum_w + prod_w),
        (
            SolutionFamily("C2w_ab", k, alpha=alpha, beta=beta, weights=weights),
            alpha * fact * sum_w + beta * prod_w,
        ),
    ]
    for fam, coeff in cases:
        dt = build_solution(fam).partial(0)
        assert dt.terms == {(0,) * (k + 1): pytest.approx(coeff, rel=1e-15)}, fam.variant


# -- the uncorrected two-parameter form ----------------------------------------


@pytest.mark.parametrize("k", [2, 3, 4])
def test_uncorrected_c_ab_residual_is_expected_constant(k):
    alpha, beta = 1.7, 0.6
    fam = SolutionFamily("C_ab", k, alpha=alpha, beta=beta, uncorrected=True)
    res = interaction_residual(build_solution(fam))
    expected = (k * alpha * math.factorial(k) + beta) - (k + 1)
    assert res.terms == {(0,) * (k + 1): pytest.approx(expected, rel=1e-12)}
    assert not res.is_zero()


def test_uncorrected_c_ab_vanishes_only_at_special_parameters():
    k = 3
    fam = SolutionFamily(
        "C_ab", k, alpha=1.0 / math.factorial(k), beta=1.0, uncorrected=True
    )
    assert interaction_residual(build_solution(fam)).is_zero()


# -- family validation ----------------------------------------------------------


def test_family_validation_errors():
    with pytest.raises(ValueError):
        SolutionFamily("nope", 2)
    with pytest.raises(ValueError):
        SolutionFamily("T2a", 1)  # mixed term needs k >= 2
    with pytest.raises(ValueError):
        SolutionFamily("C_ab", 2)  # alpha/beta missing
    with pytest.raises(ValueError):
        SolutionFamily("C_ab", 2, alpha=-1.0, beta=1.0)
    with pytest.raises(ValueError):
        SolutionFamily("T3w", 2, weights=(1.0,))  # wrong length
    with pytest.raises(ValueError):
        SolutionFamily("T3w", 2, weights=(1.0, 0.0))  # not strictly positive
    with pytest.raises(ValueError):
        SolutionFamily("T3w", 2, weights=(1.0, 1.0), uncorrected=True)


def test_verify_solution_families_all_pass():
    checks = verify_solution_families(k_values=(2, 3), draws=5, seed=7)
    assert all(c.ok for c in checks)
    variants = {c.variant for c in checks}
    assert set(FAMILY_VARIANTS) <= variants
    assert "C_ab(uncorrected)" in variants
    uncorrected = [c for c in checks if c.variant == "C_ab(uncorrected)"]
    assert all(c.max_residual_coeff > ZERO_TOL for c in uncorrected)


@pytest.mark.parametrize("variant", ["T2a", "T2b", "C_ab", "T3w", "C1w", "C2w_ab"])
def test_family_coefficients_for_small_k_are_those_of_the_integer_factorial(variant):
    # k! is taken as a float; for k <= 7 every coefficient keeps its bits
    rng = random.Random(3)
    for k in range(2, 8):
        w = np.array([rng.uniform(0.5, 2.0) for _ in range(k)])
        alpha, beta = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        a0, b0, w0 = {"T2a": (1.0 / math.factorial(k), 1.0, np.ones(k)),
                      "T2b": (1.0, 1.0, np.ones(k)), "C_ab": (alpha, beta, np.ones(k)),
                      "T3w": (1.0, 1.0, w), "C1w": (1.0 / math.factorial(k), 1.0, w),
                      "C2w_ab": (alpha, beta, w)}[variant]
        c_t, a, p, b = family_coefficients(variant, k, alpha, beta, w)
        assert c_t == a0 * math.factorial(k) * np.sum(w0) + b0 * np.prod(w0)
        assert np.array_equal(a, a0 * w0) and p == k and b == b0 * np.prod(w0)
        c_t, a, _, b = family_coefficients("C_ab", k, alpha, beta, uncorrected=True)
        assert c_t == alpha * math.factorial(k) * k + beta
        assert np.array_equal(a, np.full(k, 1.0 / math.factorial(k))) and b == 1.0


@pytest.mark.parametrize("variant, k", [("T2a", 171), ("T2b", 170), ("C1w", 200)])
def test_family_beyond_the_float_range_is_refused_without_a_numpy_warning(variant, k):
    fam = SolutionFamily(variant, k, weights=(1.0,) * k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c_t, _, _, _ = family_coefficients(variant, k, weights=fam.weights)
        assert not math.isfinite(c_t)
        with pytest.raises(ValueError, match="non-finite coefficient"):
            build_solution(fam)
        with pytest.raises(ValueError, match="non-finite coefficient"):
            verify_solution_families(k_values=(k,), draws=1)


def test_verify_solution_families_judges_uncorrected_c_ab_relative_to_dhdt():
    # k = 10, seed 0: the uncorrected residual (about 6.2e7) equals its closed
    # form to rounding; the rule is ZERO_TOL * max(1, |dH/dt coefficient|)
    checks = verify_solution_families(k_values=(10,), seed=0)
    assert all(c.ok for c in checks)
    (uncorrected,) = [c for c in checks if c.variant == "C_ab(uncorrected)"]
    assert uncorrected.max_residual_coeff > 1e7


def test_verify_solution_families_needs_a_k():
    with pytest.raises(ValueError, match="at least one k"):
        verify_solution_families(k_values=())


# -- verify_solution_families against the polynomial reference path -------------


def _drawn_families(k, seed):
    """Every family at k (T1a and T1b only at k = 1), the uncorrected C_ab form
    included, with random parameters from the ranges verify_solution_families draws."""
    rng = random.Random(seed)
    variants = FAMILY_VARIANTS if k >= 2 else DIFFUSION_FAMILIES
    families = [SolutionFamily(variant, k, weights=tuple(rng.uniform(0.5, 2.0) for _ in range(k)),
                               alpha=rng.uniform(0.5, 2.0), beta=rng.uniform(0.5, 2.0))
                for variant in variants]
    if k >= 2:
        families.append(SolutionFamily("C_ab", k, alpha=rng.uniform(0.5, 2.0),
                                       beta=rng.uniform(0.5, 2.0), uncorrected=True))
    return families


@pytest.mark.parametrize("k, seed", [(k, seed) for k in (1, 2, 3, 4, 5, 6, 7, 10, 40)
                                     for seed in (0, 1, 2)] + [(169, 0)])
def test_residual_constant_is_the_reference_residual_bit_for_bit(k, seed):
    zero = (0,) * (k + 1)
    for family in _drawn_families(k, seed):
        h = build_solution(family)
        model_residual = diffusion_residual if family.model == "diffusion" else interaction_residual
        reference = model_residual(h).terms
        # each family's power is its model's order, so its residual is a constant
        assert set(reference) <= {zero}, family
        res, scale = polynomials._residual_constant(family)
        # equal finite doubles have equal bits, up to the sign of a zero
        assert res == reference.get(zero, 0.0), family
        assert scale == max(1.0, h.partial(0).max_abs_coeff()), family


def reference_verify_solution_families(k_values, draws, seed):
    """verify_solution_families on the polynomial path: each family is built
    with build_solution and its residual polynomial differentiated."""
    rng = random.Random(seed)
    ks = sorted(set(k_values))
    checks = []

    def time_scale(h):
        return max(1.0, h.partial(0).max_abs_coeff())

    for variant in FAMILY_VARIANTS:
        for k in [1] + ks if variant in DIFFUSION_FAMILIES else ks:
            drawn = variant in ("T3w", "C1w", "C2w_ab", "C_ab")
            worst = worst_ratio = 0.0
            for _ in range(draws if drawn else 1):
                family = SolutionFamily(variant, k,
                                        weights=tuple(rng.uniform(0.5, 2.0) for _ in range(k)),
                                        alpha=rng.uniform(0.5, 2.0), beta=rng.uniform(0.5, 2.0))
                h = build_solution(family)
                fn = diffusion_residual if family.model == "diffusion" else interaction_residual
                res = fn(h).max_abs_coeff()
                worst = max(worst, res)
                worst_ratio = max(worst_ratio, res / time_scale(h))
            checks.append(FamilyCheck(variant, k, family.model, worst, worst_ratio < ZERO_TOL))
    for k in ks:
        alpha = rng.uniform(0.5, 2.0)
        beta = rng.uniform(0.5, 2.0)
        h = build_solution(SolutionFamily("C_ab", k, alpha=alpha, beta=beta, uncorrected=True))
        res = interaction_residual(h)
        expected = (k * alpha * math.factorial(k) + beta) - (k + 1)
        coeff = res.terms.get(tuple([0] * (k + 1)), 0.0)
        ok = abs(coeff - expected) < ZERO_TOL * time_scale(h) < abs(coeff)
        checks.append(FamilyCheck("C_ab(uncorrected)", k, "interaction", res.max_abs_coeff(), ok,
                                  note=f"expected nonzero residual {expected:.6g}"))
    return checks


@pytest.mark.parametrize("k_values, draws, seed", [
    (k_values, draws, seed)
    for k_values, draws in [((2, 3, 4, 5, 6, 7), 3), ((2,), 1), ((3, 2), 2), ((10, 40), 1)]
    for seed in (0, 1, 2, 3)
] + [((169,), 1, 0)])
def test_verify_solution_families_gives_the_records_of_the_polynomial_path(k_values, draws, seed):
    assert verify_solution_families(k_values, draws, seed) == reference_verify_solution_families(
        k_values, draws, seed)


def test_verify_solution_families_builds_no_polynomial(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a polynomial was built")

    monkeypatch.setattr(SparsePolynomial, "__init__", refuse)
    checks = verify_solution_families((2, 3), 2)
    assert len(checks) == 2 * 3 + 6 * 2 + 2


def test_verify_bound_is_the_edge_of_the_float_range():
    k = polynomials._MAX_K
    # at the bound every family is finite at the largest parameters drawn
    for variant in FAMILY_VARIANTS:
        build_solution(SolutionFamily(variant, k, alpha=2.0, beta=2.0, weights=(2.0,) * k))
    build_solution(SolutionFamily("C_ab", k, alpha=2.0, beta=2.0, uncorrected=True))
    build_solution(SolutionFamily("T2a", k + 1))
    # one past it a family that takes no draw is refused, whatever is drawn
    with pytest.raises(ValueError, match=f"in T2b at k={k + 1} "):
        build_solution(SolutionFamily("T2b", k + 1))
    with pytest.raises(ValueError, match=f"in T2a at k={k + 2} "):
        build_solution(SolutionFamily("T2a", k + 2))


def _first_refusal(k_values):
    """The error the polynomial path raises first: variant by variant, k ascending.
    T2b is refused at every k above the bound, so no drawn family is reached."""
    for variant in ("T1a", "T1b", "T2a", "T2b"):
        for k in sorted(k_values):
            try:
                build_solution(SolutionFamily(variant, k))
            except ValueError as err:
                return str(err)
    raise AssertionError(f"nothing refused at {k_values}")


@pytest.mark.parametrize("k_values", [(170,), (2, 170), (171,), (170, 175), (169, 173, 172)])
def test_verify_refuses_k_beyond_the_float_range_before_any_draw(monkeypatch, k_values):
    expected = _first_refusal(k_values)
    monkeypatch.setattr(random.Random, "uniform", _refuse_to_draw)
    with pytest.raises(ValueError) as err:
        verify_solution_families(k_values, draws=1)
    assert str(err.value) == expected


def _refuse_to_draw(*args, **kwargs):
    raise AssertionError("a parameter was drawn")


def test_verify_refuses_a_huge_k_before_any_draw(monkeypatch):
    monkeypatch.setattr(random.Random, "uniform", _refuse_to_draw)
    with pytest.raises(ValueError, match=r"^non-finite coefficient in T2a at k=1000000000000 "):
        verify_solution_families((2, 10**12), draws=10**9)


# -- serialisation ---------------------------------------------------------------


def test_golden_file_t3w_k3():
    h = build_solution(SolutionFamily("T3w", 3, weights=(0.5, 1.0, 2.0)))
    with open(DATA / "t3w_k3_weights_0.5_1_2.json") as fh:
        data = json.load(fh)
    golden = SparsePolynomial(
        data["arity"], {tuple(t["exponents"]): t["coefficient"] for t in data["terms"]}
    )
    assert h == golden
