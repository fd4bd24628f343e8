import csv
import math
import random
import re
import warnings
from contextlib import suppress
from itertools import filterfalse, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sustkit._checks import blank
from sustkit.index import (
    FitResult,
    IndexInputs,
    Interval,
    Observations,
    PsiRangeWarning,
    RankDeficiencyError,
    dHdt_interval,
    fit_alpha_beta,
    index_seven_ab,
    index_value,
    read_observations,
    read_observations_csv,
    read_observations_json,
    weight_from_function,
    write_fit_report,
)
from sustkit.polynomials import SolutionFamily, build_solution
from sustkit.riemann_stieltjes import WeightFunction, rs_integrate


def random_inputs(rng, k, with_ab=False, lo=0.0, hi=1.0):
    return IndexInputs(
        k=k,
        t=rng.uniform(lo, hi),
        psi=tuple(rng.uniform(lo, hi) for _ in range(k)),
        weights=tuple(rng.uniform(0.1, hi) for _ in range(k)),
        alpha=rng.uniform(0.5, 2.0) if with_ab else None,
        beta=rng.uniform(0.5, 2.0) if with_ab else None,
    )


def family_for(inputs: IndexInputs, variant: str) -> SolutionFamily:
    kwargs = {}
    if variant in ("T3w", "C1w", "C2w_ab"):
        kwargs["weights"] = inputs.weights
    if variant in ("C_ab", "C2w_ab"):
        kwargs["alpha"] = inputs.alpha
        kwargs["beta"] = inputs.beta
    return SolutionFamily(variant, inputs.k, **kwargs)


# -- evaluation ------------------------------------------------------------------


def test_seven_variable_definitions():
    from sustkit.index import SEVEN_VARIABLES

    assert len(SEVEN_VARIABLES) == 7
    assert [v[0] for v in SEVEN_VARIABLES] == [f"psi{i}" for i in range(1, 8)]
    names = [v[1] for v in SEVEN_VARIABLES]
    assert names[0] == "food and agriculture"
    assert names[-1] == "science and technology"
    assert all(v[2] for v in SEVEN_VARIABLES)


def test_seven_variable_index_at_origin_time_one():
    inputs = IndexInputs(k=7, t=1.0, psi=(0.0,) * 7, weights=(1.0,) * 7)
    assert index_value(inputs, "C1w") == 8.0


def test_seven_variable_index_unit_psi_time_zero():
    inputs = IndexInputs(k=7, t=0.0, psi=(1.0,) * 7, weights=(1.0,) * 7)
    # sum(w_i psi_i^7)/7! + prod(w_i psi_i) = 7/5040 + 1
    assert index_value(inputs, "C1w") == pytest.approx(1.0013888888888889, abs=1e-15)


def test_t3w_unit_weights_value():
    inputs = IndexInputs(k=2, t=1.0, psi=(0.0, 0.0), weights=(1.0, 1.0))
    assert index_value(inputs, "T3w") == 5.0


def test_missing_parameters_raise():
    inputs = IndexInputs(k=2, t=1.0, psi=(0.1, 0.2), weights=(1.0, 1.0))
    with pytest.raises(ValueError):
        index_value(inputs, "C_ab")
    with pytest.raises(ValueError):
        index_value(inputs, "C2w_ab")
    with pytest.raises(ValueError):
        index_value(inputs, "T9x")


def test_inputs_validation():
    with pytest.raises(ValueError):
        IndexInputs(k=1, t=0.0, psi=(0.0,), weights=(1.0,))
    with pytest.raises(ValueError):
        IndexInputs(k=2, t=0.0, psi=(0.0,), weights=(1.0, 1.0))
    with pytest.raises(ValueError):
        IndexInputs(k=2, t=0.0, psi=(0.0, 0.0), weights=(1.0, -1.0))
    with pytest.raises(ValueError):
        IndexInputs(k=2, t=0.0, psi=(0.0, 0.0), weights=(1.0, 1.0), alpha=0.0)


def test_direct_evaluation_agrees_with_polynomial_route():
    # Two independent code paths: scalar closed forms here, exact polynomial
    # construction + evaluation in sustkit.polynomials.
    rng = random.Random(101)
    variants = ("T1a", "T1b", "T2a", "T2b", "C_ab", "T3w", "C1w", "C2w_ab")
    for probe in range(1000):
        k = rng.choice((2, 3, 4, 5))
        variant = variants[probe % len(variants)]
        inputs = random_inputs(rng, k, with_ab=True)
        poly = build_solution(family_for(inputs, variant))
        direct = index_value(inputs, variant)
        via_poly = poly((inputs.t,) + inputs.psi)
        assert abs(direct - via_poly) < 1e-12, f"{variant} k={k} probe={probe}"


def test_direct_evaluation_agrees_for_k_six_and_seven():
    # Larger k reaches 7! scale coefficients, so the comparison is relative.
    rng = random.Random(202)
    for _ in range(200):
        k = rng.choice((6, 7))
        inputs = random_inputs(rng, k, with_ab=True)
        poly = build_solution(family_for(inputs, "C2w_ab"))
        direct = index_value(inputs, "C2w_ab")
        via_poly = poly((inputs.t,) + inputs.psi)
        assert direct == pytest.approx(via_poly, rel=1e-12)


def test_weight_scaling_decomposition():
    # Scaling all weights by c multiplies the sum terms by c and the product
    # terms by c^k; checked by evaluating both decompositions directly.
    rng = random.Random(303)
    for _ in range(100):
        k = rng.choice((2, 3, 4))
        c = rng.uniform(0.2, 3.0)
        base = random_inputs(rng, k)
        scaled = IndexInputs(
            k=k, t=base.t, psi=base.psi, weights=tuple(c * w for w in base.weights)
        )
        fact = math.factorial(k)
        sum_w = math.fsum(base.weights)
        prod_w = math.prod(base.weights)
        sum_wpk = math.fsum(w * x**k for w, x in zip(base.weights, base.psi))
        prod_psi = math.prod(base.psi)
        recomposed = (
            c * (fact * sum_w) * base.t
            + c * sum_wpk
            + c**k * prod_w * (base.t + prod_psi)
        )
        assert index_value(scaled, "T3w") == pytest.approx(recomposed, rel=1e-12)


def test_seven_ab_reference_value():
    inputs = IndexInputs(
        k=7, t=1.0, psi=(0.0,) * 7, weights=(1.0,) * 7, alpha=1.0, beta=1.0
    )
    assert index_seven_ab(inputs) == 35281.0  # 7! * 7 + 1


def test_seven_ab_reduces_to_t3w_at_unit_parameters():
    rng = random.Random(404)
    for _ in range(50):
        base = random_inputs(rng, 7)
        with_ab = IndexInputs(
            k=7, t=base.t, psi=base.psi, weights=base.weights, alpha=1.0, beta=1.0
        )
        assert index_seven_ab(with_ab) == pytest.approx(
            index_value(base, "T3w"), rel=1e-14
        )


def test_seven_ab_vanishes_at_origin():
    for alpha, beta in ((1.0, 1.0), (2.5, 0.5), (0.1, 9.0)):
        inputs = IndexInputs(
            k=7, t=0.0, psi=(0.0,) * 7, weights=(0.3,) * 7, alpha=alpha, beta=beta
        )
        assert index_seven_ab(inputs) == 0.0


def test_seven_ab_requires_k_seven_and_parameters():
    with pytest.raises(ValueError):
        index_seven_ab(
            IndexInputs(k=6, t=0.0, psi=(0.0,) * 6, weights=(1.0,) * 6, alpha=1, beta=1)
        )
    with pytest.raises(ValueError):
        index_seven_ab(IndexInputs(k=7, t=0.0, psi=(0.0,) * 7, weights=(1.0,) * 7))


def test_seven_ab_warns_on_out_of_band_psi():
    inputs = IndexInputs(
        k=7, t=0.5, psi=(0.2, 1.7, 0.3, 0.4, 0.5, 0.6, 0.7),
        weights=(1.0,) * 7, alpha=1.0, beta=1.0,
    )
    with pytest.warns(PsiRangeWarning):
        index_seven_ab(inputs)


@pytest.mark.parametrize("variant, k, t, weights, alpha", [
    ("C2w_ab", 2, 1e308, (1.0, 1.0), 1e308),  # inf
    ("C2w_ab", 170, 0.0, (1.0,) * 170, 1.0),  # 170! * 170 is inf, times t = 0 is nan
    ("T2a", 171, 1.0, (1.0,) * 171, None),    # 171! is beyond the float range
    ("C2w_ab", 7, 0.0, (1e300,) * 7, 1.0),    # prod(w) is inf
])
def test_index_value_refuses_a_value_beyond_the_float_range(variant, k, t, weights, alpha):
    inputs = IndexInputs(k=k, t=t, psi=(0.5,) * k, weights=weights, alpha=alpha,
                         beta=None if alpha is None else alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"the {variant} index value must be finite"):
            index_value(inputs, variant)
        if k == 7:
            with pytest.raises(ValueError, match="must be finite"):
                index_seven_ab(inputs)


# -- fitting ---------------------------------------------------------------------


def as_observations(pairs):
    """Columns of a list of (IndexInputs, H_obs) pairs."""
    return Observations(
        np.array([inputs.t for inputs, _ in pairs]),
        np.array([inputs.psi for inputs, _ in pairs]),
        np.array([inputs.weights for inputs, _ in pairs]),
        np.array([h for _, h in pairs]),
    )


def planted_observations(alpha, beta, n=10, k=7, seed=12345):
    rng = random.Random(seed)
    obs = []
    for _ in range(n):
        base = random_inputs(rng, k)
        truth = IndexInputs(
            k=k, t=base.t, psi=base.psi, weights=base.weights, alpha=alpha, beta=beta
        )
        obs.append((base, index_value(truth, "C2w_ab")))
    return as_observations(obs)


def test_fit_recovers_planted_parameters():
    fit = fit_alpha_beta(planted_observations(2.5, 0.5))
    assert fit.alpha == pytest.approx(2.5, abs=1e-9)
    assert fit.beta == pytest.approx(0.5, abs=1e-9)
    assert fit.residual_norm < 1e-9
    assert fit.n_obs == 10


def test_fit_recovers_identity_parameters():
    fit = fit_alpha_beta(planted_observations(1.0, 1.0, seed=777))
    assert fit.alpha == pytest.approx(1.0, abs=1e-9)
    assert fit.beta == pytest.approx(1.0, abs=1e-9)


def test_fit_handles_ill_scaled_columns():
    # Large weights make the product basis column ~1e5 times the sum
    # column; the scaled normal equations must still recover exactly.
    rng = random.Random(88)
    obs = []
    for _ in range(12):
        base = IndexInputs(
            k=7,
            t=rng.uniform(0.1, 2.0),
            psi=tuple(rng.uniform(0.0, 1.0) for _ in range(7)),
            weights=tuple(rng.uniform(4.0, 9.0) for _ in range(7)),
        )
        truth = IndexInputs(
            k=7, t=base.t, psi=base.psi, weights=base.weights, alpha=0.03, beta=40.0
        )
        obs.append((base, index_value(truth, "C2w_ab")))
    fit = fit_alpha_beta(as_observations(obs))
    assert fit.alpha == pytest.approx(0.03, rel=1e-8)
    assert fit.beta == pytest.approx(40.0, rel=1e-8)


@pytest.mark.parametrize("k", [2, 3, 7])
@pytest.mark.parametrize("seed", range(4))
def test_fit_matches_exact_least_squares(k, seed):
    # The normal equations of the same float columns, solved in rational
    # arithmetic; the QR in floats was at most 1.3e-12 off on 60 such draws.
    from fractions import Fraction

    from sustkit.index import _evaluate
    from sustkit.polynomials import family_coefficients

    obs = planted_observations(0.03, 40.0, n=40, k=k, seed=seed)
    noise = np.random.default_rng(seed).normal(0.0, 1e-3, obs.h_obs.shape)
    obs.h_obs[:] += noise * np.abs(obs.h_obs).max()
    t, psi, w, h = obs
    u, v, h = ([Fraction(x) for x in column.tolist()] for column in (
        _evaluate(family_coefficients("C2w_ab", k, 1.0, 0.0, w), t, psi),
        _evaluate(family_coefficients("C2w_ab", k, 0.0, 1.0, w), t, psi), h))
    uu, vv, uv = (sum(a * b for a, b in zip(x, y)) for x, y in ((u, u), (v, v), (u, v)))
    uh, vh = (sum(a * b for a, b in zip(x, h)) for x in (u, v))
    det = uu * vv - uv * uv
    fit = fit_alpha_beta(obs)
    assert fit.alpha == pytest.approx(float((vv * uh - uv * vh) / det), rel=1e-10)
    assert fit.beta == pytest.approx(float((uu * vh - uv * uh) / det), rel=1e-10)


def test_fit_requires_two_observations():
    with pytest.raises(ValueError):
        fit_alpha_beta(planted_observations(1.0, 1.0, n=1))


def test_fit_rejects_zero_design():
    origin = IndexInputs(k=2, t=0.0, psi=(0.0, 0.0), weights=(1.0, 1.0))
    with pytest.raises(RankDeficiencyError):
        fit_alpha_beta(as_observations([(origin, 0.0), (origin, 0.0), (origin, 0.0)]))


def test_fit_rejects_proportional_observations():
    one = IndexInputs(k=2, t=1.0, psi=(0.5, 0.5), weights=(1.0, 1.0))
    h = index_value(
        IndexInputs(k=2, t=1.0, psi=(0.5, 0.5), weights=(1.0, 1.0), alpha=1, beta=1),
        "C2w_ab",
    )
    with pytest.raises(RankDeficiencyError):
        fit_alpha_beta(as_observations([(one, h)] * 5))


# -- interval arithmetic ------------------------------------------------------------


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.inf)


def test_interval_time_derivative_degenerate_matches_scalar():
    # Degenerate [w, w] inputs must reproduce sum(w) + prod(w), the time
    # coefficient of the scaled weighted family.
    out = dHdt_interval([Interval(1.0, 1.0), Interval(2.0, 2.0)])
    assert (out.lo, out.hi) == (5.0, 5.0)


def test_interval_time_derivative_example():
    out = dHdt_interval([Interval(1.0, 2.0), Interval(1.0, 2.0)])
    assert (out.lo, out.hi) == (3.0, 8.0)


def test_interval_time_derivative_needs_two():
    with pytest.raises(ValueError):
        dHdt_interval([Interval(0.0, 1.0)])


def test_interval_product_with_negatives():
    out = Interval(-2.0, 1.0) * Interval(-3.0, 0.5)
    assert (out.lo, out.hi) == (-3.0, 6.0)


@settings(deadline=None, max_examples=100)
@given(
    los=st.lists(st.floats(-3, 3, allow_nan=False), min_size=3, max_size=3),
    widths=st.lists(st.floats(0, 2, allow_nan=False), min_size=3, max_size=3),
    grow=st.floats(0, 1.5, allow_nan=False),
    which=st.integers(0, 2),
)
def test_interval_widening_never_shrinks_output(los, widths, grow, which):
    base = [Interval(lo, lo + w) for lo, w in zip(los, widths)]
    widened = list(base)
    widened[which] = Interval(base[which].lo - grow, base[which].hi + grow)
    assert dHdt_interval(widened).contains(dHdt_interval(base))


@settings(deadline=None, max_examples=100)
@given(
    los=st.lists(st.floats(-4, 4, allow_nan=False), min_size=2, max_size=4),
    widths=st.lists(st.floats(0, 3, allow_nan=False), min_size=4, max_size=4),
)
def test_interval_fold_matches_corner_enumeration(los, widths):
    # The pairwise product fold must reproduce the exact range of the
    # product over the box, which is attained at corners; likewise the sum.
    import itertools

    ivs = [Interval(lo, lo + w) for lo, w in zip(los, widths)]
    corners = list(itertools.product(*((iv.lo, iv.hi) for iv in ivs)))
    prods = [math.prod(c) for c in corners]
    got = dHdt_interval(ivs)
    lo = min(sum(c) for c in corners) + min(prods)
    hi = max(sum(c) for c in corners) + max(prods)
    assert got.lo == pytest.approx(lo, rel=1e-12, abs=1e-12)
    assert got.hi == pytest.approx(hi, rel=1e-12, abs=1e-12)


# -- weight bridge -------------------------------------------------------------------


def test_weight_from_function_constant_density():
    # Importance 1 against omega(x) = x on [0, 2]: integral 2, normalised 1.
    w = WeightFunction(0.0, 2.0, lambda x: x)
    ones = lambda x: np.ones_like(np.asarray(x, float))  # noqa: E731
    assert weight_from_function(ones, w) == pytest.approx(1.0, abs=1e-9)
    assert rs_integrate(ones, w, 0.0, 2.0) == pytest.approx(2.0, abs=1e-9)


# -- IO --------------------------------------------------------------------------------


def test_observation_csv_round_trip(tmp_path):
    obs = planted_observations(2.5, 0.5, n=6, k=3, seed=99)
    path = tmp_path / "obs.csv"
    k = 3
    header = ["t"] + [f"psi{i}" for i in range(1, k + 1)]
    header += [f"omega{i}" for i in range(1, k + 1)] + ["H_obs"]
    rows = [header]
    for t, psi, weights, h in zip(*obs):
        rows.append(
            [repr(float(t))]
            + [repr(float(x)) for x in psi]
            + [repr(float(w)) for w in weights]
            + [repr(float(h))]
        )
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    loaded = read_observations_csv(path)
    assert len(loaded.t) == 6
    fit = fit_alpha_beta(loaded)
    assert fit.alpha == pytest.approx(2.5, abs=1e-9)
    assert fit.beta == pytest.approx(0.5, abs=1e-9)


def test_observation_json_round_trip(tmp_path):
    import json

    obs = planted_observations(2.5, 0.5, n=6, k=4, seed=31)
    path = tmp_path / "obs.json"
    path.write_text(
        json.dumps(
            [
                {"t": t, "psi": list(psi), "omega": list(weights), "H_obs": h}
                for t, psi, weights, h in zip(*(column.tolist() for column in obs))
            ]
        )
    )
    loaded = read_observations_json(path)
    assert all(np.array_equal(a, b) for a, b in zip(loaded, read_observations(path)))
    fit = fit_alpha_beta(loaded)
    assert fit.alpha == pytest.approx(2.5, abs=1e-9)
    assert fit.beta == pytest.approx(0.5, abs=1e-9)


def test_observation_json_rejects_bad_record(tmp_path):
    import json

    path = tmp_path / "obs.json"
    path.write_text(json.dumps([{"t": 1.0, "psi": [0.1, 0.2]}]))
    with pytest.raises(ValueError, match="record 0"):
        read_observations_json(path)
    path.write_text(json.dumps({"t": 1.0}))
    with pytest.raises(ValueError, match="array"):
        read_observations_json(path)


def test_observation_json_rejects_unknown_field(tmp_path):
    import json

    records = [{"t": 0.1 * i, "psi": [0.2, 0.3], "omega": [1, 1], "H_obs": 0.5} for i in range(3)]
    records[1]["omgea"] = [9, 9]
    path = tmp_path / "obs.json"
    path.write_text(json.dumps(records))
    with pytest.raises(ValueError, match=r"record 1: unknown fields \['omgea'\]"):
        read_observations_json(path)


def test_observation_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,psi1,omega1,H_obs\n0,0,1,0\n")
    with pytest.raises(ValueError):
        read_observations_csv(path)


def test_fit_report_json(tmp_path):
    import json

    path = tmp_path / "report.json"
    write_fit_report(FitResult(alpha=2.5, beta=0.5, residual_norm=1e-12, n_obs=10), path)
    data = json.loads(path.read_text())
    assert data == {
        "alpha": 2.5,
        "beta": 0.5,
        "residual_norm": 1e-12,
        "n_obs": 10,
    }


# -- hand-computed oracle --------------------------------------------------------------

# k = 3, t = 0.5, psi = (1, 2, 3), w = (2, 1, 0.5), alpha = 0.25, beta = 2:
# sum psi^2 = 14, sum psi^3 = 36, prod psi = 6, sum w = 3.5, prod w = 1,
# sum w psi^3 = 23.5, prod (w psi) = 6, k! = 6.
ORACLE = {
    "T1a": 8.5,  # 3*0.5 + 14/2
    "T1b": 17.0,  # 6*0.5 + 14
    "T2a": 14.0,  # 4*0.5 + 36/6 + 6
    "T2b": 51.5,  # 19*0.5 + 36 + 6
    "C_ab": 24.25,  # (3*0.25*6 + 2)*0.5 + 0.25*36 + 2*6
    "T3w": 40.5,  # (6*3.5 + 1)*0.5 + 23.5 + 6
    "C1w": 73 / 6,  # (3.5 + 1)*0.5 + 23.5/6 + 6
    "C2w_ab": 21.5,  # (0.25*6*3.5 + 2*1)*0.5 + 0.25*23.5 + 2*6
}


@pytest.mark.parametrize("variant", sorted(ORACLE))
def test_families_match_hand_computed_values(variant):
    inputs = IndexInputs(
        k=3, t=0.5, psi=(1.0, 2.0, 3.0), weights=(2.0, 1.0, 0.5), alpha=0.25, beta=2.0
    )
    assert index_value(inputs, variant) == pytest.approx(ORACLE[variant], rel=1e-15)
    poly = build_solution(family_for(inputs, variant))
    assert poly((0.5, 1.0, 2.0, 3.0)) == pytest.approx(ORACLE[variant], rel=1e-15)


def test_uncorrected_c_ab_matches_hand_computed_value():
    # (3*0.25*6 + 2)*0.5 + 36/6 + 6
    fam = SolutionFamily("C_ab", 3, alpha=0.25, beta=2.0, uncorrected=True)
    assert build_solution(fam)((0.5, 1.0, 2.0, 3.0)) == 15.25


# -- non-finite parameters -----------------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_inputs_and_parameters_rejected(bad):
    with pytest.raises(ValueError):
        IndexInputs(k=2, t=0.0, psi=(0.0, 0.0), weights=(1.0, bad))
    with pytest.raises(ValueError):
        IndexInputs(k=2, t=bad, psi=(0.0, 0.0), weights=(1.0, 1.0))
    with pytest.raises(ValueError):
        IndexInputs(k=2, t=0.0, psi=(bad, 0.0), weights=(1.0, 1.0))
    with pytest.raises(ValueError):
        IndexInputs(k=2, t=0.0, psi=(0.0, 0.0), weights=(1.0, 1.0), alpha=bad)
    with pytest.raises(ValueError):
        IndexInputs(k=2, t=0.0, psi=(0.0, 0.0), weights=(1.0, 1.0), beta=bad)
    with pytest.raises(ValueError):
        SolutionFamily("T3w", 2, weights=(bad, 1.0))
    with pytest.raises(ValueError):
        SolutionFamily("C_ab", 2, alpha=bad, beta=1.0)
    with pytest.raises(ValueError):
        SolutionFamily("C2w_ab", 2, alpha=1.0, beta=bad, weights=(1.0, 1.0))


# -- fit conditioning and input checks ------------------------------------------------


def test_fit_accurate_on_nearly_collinear_columns():
    # k = 2, unit weights, psi1 = psi2 = x: u = 4t + 2x^2 and v = t + x^2, so
    # with t ~ 1e-4 the scaled columns are nearly parallel (condition ~1e4).
    # The normal equations square that and lose about 1e-7 relative.
    rng = random.Random(5)
    obs = []
    for _ in range(50):
        x, t = rng.uniform(0.5, 1.0), 1e-4 * rng.uniform(0.0, 1.0)
        h = 0.75 * (4 * t + 2 * x * x) + 1.5 * (t + x * x)
        obs.append((IndexInputs(k=2, t=t, psi=(x, x), weights=(1.0, 1.0)), h))
    fit = fit_alpha_beta(as_observations(obs))
    assert fit.alpha == pytest.approx(0.75, rel=1e-10)
    assert fit.beta == pytest.approx(1.5, rel=1e-10)


def test_fit_rejects_mixed_k(tmp_path):
    # Columns cannot mix k; the JSON reader names the first record whose
    # psi/omega length differs from record 0.
    import json

    records = [
        {"t": float(t), "psi": psi.tolist(), "omega": w.tolist(), "H_obs": float(h)}
        for n, k in ((4, 3), (2, 2))
        for t, psi, w, h in zip(*planted_observations(1.0, 1.0, n=n, k=k))
    ]
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(records))
    with pytest.raises(ValueError, match="record 4: .*k=3"):
        read_observations_json(path)


def test_fit_rejects_non_finite_observation():
    obs = planted_observations(1.0, 1.0, n=4)
    obs.h_obs[2] = math.nan
    with pytest.raises(ValueError, match="non-finite"):
        fit_alpha_beta(obs)


def test_fit_over_several_blocks():
    # More rows than one evaluation block of the basis columns.
    obs = planted_observations(1.3, 0.7, n=10_000, k=4, seed=3)
    fit = fit_alpha_beta(obs)
    assert fit.alpha == pytest.approx(1.3, rel=1e-12)
    assert fit.beta == pytest.approx(0.7, rel=1e-12)


# -- observation columns ----------------------------------------------------------------


def test_fit_validates_shapes_and_k():
    obs = planted_observations(1.0, 1.0, n=5, k=3)
    with pytest.raises(ValueError, match="shape"):
        fit_alpha_beta(obs._replace(h_obs=obs.h_obs[:4]))
    with pytest.raises(ValueError, match="shape"):
        fit_alpha_beta(obs._replace(weights=obs.weights[:, :2]))
    with pytest.raises(ValueError, match="shape"):
        fit_alpha_beta(obs._replace(psi=obs.psi[:, 0]))
    with pytest.raises(ValueError, match="k >= 2"):
        fit_alpha_beta(obs._replace(psi=obs.psi[:, :1], weights=obs.weights[:, :1]))


@pytest.mark.parametrize(
    "column, value, message",
    [
        ("t", math.inf, "non-finite"),
        ("psi", math.nan, "non-finite"),
        ("h_obs", -math.inf, "non-finite"),
        ("weights", math.nan, "positive and finite"),
        ("weights", math.inf, "positive and finite"),
        ("weights", 0.0, "positive and finite"),
        ("weights", -1.0, "positive and finite"),
    ],
)
def test_fit_names_first_bad_observation(column, value, message):
    obs = planted_observations(1.0, 1.0, n=8, k=3)
    values = getattr(obs, column)
    for row in (5, 3):  # the error names the first of the two
        values[(row, -1) if values.ndim == 2 else row] = value
    with pytest.raises(ValueError, match=f"observation 3: .*{message}"):
        fit_alpha_beta(obs)


def test_fit_rejects_basis_overflow():
    obs = planted_observations(1.0, 1.0, n=4, k=3)
    obs.psi[1] = 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="observation 1: non-finite basis value"):
            fit_alpha_beta(obs)


def test_fit_refuses_basis_overflow_without_a_numpy_warning():
    obs = planted_observations(1.0, 1.0, n=4, k=3)
    obs.psi[2] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="observation 2: non-finite basis value"):
            fit_alpha_beta(obs)


def test_fit_refuses_a_column_norm_beyond_the_float_range():
    # basis values near 1e160 are finite, but the 2-norm of their column is not
    obs = planted_observations(1.0, 1.0, n=4, k=3)
    obs.t[:] = 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="2-norm is beyond the float range"):
            fit_alpha_beta(obs)


def write_csv(path, k, rows):
    header = ["t"] + [f"psi{i}" for i in range(1, k + 1)]
    header += [f"omega{i}" for i in range(1, k + 1)] + ["H_obs"]
    path.write_text("\n".join([",".join(header), *rows]) + "\n")


def test_observation_csv_matches_per_field_parse(tmp_path):
    # Reference: split each row with the csv module and float() every field.
    import csv

    rng = np.random.default_rng(8)
    k = 4
    table = np.column_stack(
        [rng.uniform(0, 1, 50), rng.uniform(-1e3, 1e3, (50, k)),
         rng.uniform(1e-9, 9.0, (50, k)), rng.normal(0, 1e6, 50)]
    )
    path = tmp_path / "obs.csv"
    # repr, %.17g and %.6e spellings, blank lines and CRLF endings
    lines = [",".join(repr(float(v)) for v in row) for row in table[:20]]
    lines += [",".join(f"{v:.17g}" for v in row) for row in table[20:35]]
    lines += [""] + [",".join(f"{v:.6e}" for v in row) for row in table[35:]]
    write_csv(path, k, lines)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    with open(path, newline="") as fh:
        expected = np.array([[float(x) for x in row] for row in list(csv.reader(fh))[1:] if row])
    # quoted numbers are read by the CSV path that names bad rows, not by loadtxt
    quoted = tmp_path / "quoted.csv"
    write_csv(quoted, k, ['"' + line.replace(",", '","') + '"' for line in lines if line])
    for loaded in (read_observations_csv(path), read_observations_csv(quoted)):
        assert np.array_equal(loaded.t, expected[:, 0])
        assert np.array_equal(loaded.psi, expected[:, 1 : 1 + k])
        assert np.array_equal(loaded.weights, expected[:, 1 + k : 1 + 2 * k])
        assert np.array_equal(loaded.h_obs, expected[:, -1])


@pytest.mark.parametrize(
    "rows, message",
    [
        (["0.1,0.2,0.3,1,1,0.5", "0.1,0.2,0.3,1,1"], "line 3: 5 fields, expected 6"),
        (["0.1,0.2,0.3,1,1,0.5", "0.1,0.2,0.3,1,1,0.5,9"], "line 3: 7 fields, expected 6"),
        (["0.1,0.2,0.3,1,1,0.5,9", "0.2,0.2,0.3,1,1,0.5,9"], "line 2: 7 fields, expected 6"),
        (["0.1,0.2,0.3,1", "0.2,0.2,0.3,1"], "line 2: 4 fields, expected 6"),
        (["0.1,0.2,x,1,1,0.5"], "line 2: could not convert"),
        (["0.1,0.2,0.3,1,1,0.5", "", "   ", "0.2,x,0.3,1,1,0.5"], "line 5: could not convert"),
        (["0.1,0.2,0.3,1,1,0.5", "", "\t", "0.2,0.3,1,1,0.5"], "line 5: 5 fields, expected 6"),
    ],
)
def test_observation_csv_rejects_wrong_field_count(tmp_path, rows, message):
    path = tmp_path / "obs.csv"
    write_csv(path, 2, rows)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, {message}"):
        read_observations_csv(path)


@pytest.mark.parametrize("row", ["#0.2,0.2,0.3,1,1,0.6", "0.2,0.2,0.3,1,1,1.9 # note"])
def test_observation_csv_refuses_hash_rows(tmp_path, row):
    # A "#" is not a comment: read as one, the first row would vanish from the
    # fit and the second be cut to 1.9, both without a word.
    path = tmp_path / "obs.csv"
    write_csv(path, 2, ["0.1,0.2,0.3,1,1,0.5", row, "", "0.3,0.1,0.2,1,1,0.4",
                        "0.4,0.3,0.1,1,1,0.7"])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line 3: could not convert"):
        read_observations_csv(path)


@pytest.mark.parametrize("blank", ["   ", "\t"])
def test_observation_csv_skips_whitespace_lines(tmp_path, blank):
    rows = ["0.1,0.2,0.3,1,1,0.5", "0.3,0.1,0.2,1,1,0.4", "0.4,0.3,0.1,1,1,0.7"]
    plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
    write_csv(plain, 2, rows)
    write_csv(spaced, 2, [rows[0], blank, rows[1], "", blank, rows[2], blank])
    for expected, loaded in zip(read_observations_csv(plain), read_observations_csv(spaced)):
        assert np.array_equal(loaded, expected)


def _blank_filter_reader(path):
    """The reader before its fast path skipped the header by line number: every
    blank line is filtered out in Python before np.loadtxt sees the rows."""
    with open(path, newline="") as fh:
        rows = [(n, row) for n, row in enumerate(csv.reader(fh), 1) if not blank(",".join(row))]
    width = len(rows[0][1])
    with open(path, newline="") as fh, suppress(ValueError), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(islice(filterfalse(blank, fh), 1, None), delimiter=",", ndmin=2,
                          comments=None)
        if data.shape[1] == width:
            return data
    values = []
    for line, row in rows[1:]:
        if len(row) != width:
            return f"line {line}: {len(row)} fields, expected {width}"
        try:
            values.append([float(v) for v in row])
        except ValueError as exc:
            return f"line {line}: {exc}"
    return np.array(values).reshape(-1, width)


OBS_HEADER = "t,psi1,omega1,H_obs"
OBSERVATION_FILES = {
    "plain": f"{OBS_HEADER}\n1,2,3,4\n5,6,7,8\n",
    "blank_lines": f"{OBS_HEADER}\n1,2,3,4\n\n5,6,7,8\n\n",
    "whitespace_line": f"{OBS_HEADER}\n1,2,3,4\n   \n5,6,7,8\n",
    "tab_line": f"{OBS_HEADER}\n1,2,3,4\n\t\n5,6,7,8\n",
    "leading_blank_lines": f"\n\n  \n{OBS_HEADER}\n1,2,3,4\n5,6,7,8\n",
    "crlf": f"\r\n{OBS_HEADER}\r\n1,2,3,4\r\n\r\n5,6,7,8\r\n",
    "bare_cr": f"\r{OBS_HEADER}\r1,2,3,4\r\r5,6,7,8\r",
    "mixed_endings": f"{OBS_HEADER}\r\n1,2,3,4\n\r5,6,7,8\r\r\n",
    "header_only": f"{OBS_HEADER}\n",
    "no_final_newline": f"{OBS_HEADER}\n1,2,3,4\n5,6,7,8",
    "hash": f"{OBS_HEADER}\n1,2,3,4\n#5,6,7,8\n",
    "short_row": f"{OBS_HEADER}\n1,2,3,4\n\n5,6,7\n",
    "quoted_fields": f'"t","psi1","omega1","H_obs"\n"1","2","3","4"\n5,6,7,8\n',
    "nan": f"{OBS_HEADER}\n1,nan,3,4\n5,6,7,8\n",
    "spaces_around_numbers": f"{OBS_HEADER}\n 1, 2 ,3,4\n",
    "bad_number_on_line_5": f"{OBS_HEADER}\n1,2,3,4\n\n  \n5,x,7,8\n",
}


@pytest.mark.parametrize("name", sorted(OBSERVATION_FILES))
def test_observation_csv_matches_the_blank_filter_reader(tmp_path, name):
    path = tmp_path / "obs.csv"
    path.write_bytes(OBSERVATION_FILES[name].encode())
    want = _blank_filter_reader(path)
    if isinstance(want, str):
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, {re.escape(want)}$"):
            read_observations_csv(path)
    else:
        got = read_observations_csv(path)
        assert np.array_equal(np.column_stack([got.t, got.psi, got.weights, got.h_obs]), want,
                              equal_nan=True)


def test_observation_csv_without_rows_reaches_the_fit(tmp_path):
    path = tmp_path / "obs.csv"
    write_csv(path, 2, [])
    with pytest.raises(ValueError, match="at least 2 observations, got 0"):
        fit_alpha_beta(read_observations_csv(path))
    path.write_text("")
    with pytest.raises(ValueError, match="expected header"):
        read_observations_csv(path)


def test_observation_json_without_records_reaches_the_fit(tmp_path):
    path = tmp_path / "obs.json"
    path.write_text("[]")
    with pytest.raises(ValueError, match="at least 2 observations, got 0"):
        fit_alpha_beta(read_observations_json(path))
