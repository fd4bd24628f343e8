"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Figure scenarios run at reduced resolution and horizon; the verified
properties (exact boundary forcing, axis symmetry, interior bounds,
asymmetric-domain exports) do not depend on grid size or duration.
"""

import filecmp
import math
import random
import subprocess
import sys

import numpy as np
import pytest

from sustkit.diffusion import (
    convergence_study,
    manufactured_exponential,
    manufactured_quadratic,
    run_scenario,
)
from sustkit.index import (
    Interval,
    IndexInputs,
    Observations,
    dHdt_interval,
    fit_alpha_beta,
    index_value,
)
from sustkit.pavement import figure_scenarios, load_mix_table, run_demo_figures, thickness_reduction
from sustkit.polynomials import (
    DIFFUSION_FAMILIES,
    SolutionFamily,
    build_solution,
    diffusion_residual,
    interaction_residual,
)
from sustkit.riemann_stieltjes import (
    make_uniform_partition,
    rs_integrate,
    rs_sum,
    variation_lower_bound_check,
)

RESIDUAL_TOL = 1e-12


def random_bound_case(rng: random.Random):
    """(polynomial F, piecewise-monotone omega) draw; F kept away from the
    vacuous sup|F| = 0 case, which the module tests cover separately."""
    while True:
        f_coeffs = [rng.uniform(-2.0, 2.0) for _ in range(4)]
        if max(abs(c) for c in f_coeffs) > 0.1:
            break
    w_coeffs = [rng.uniform(-2.0, 2.0) for _ in range(4)]
    f = lambda x: np.polyval(f_coeffs, x)  # noqa: E731
    omega = lambda x: np.polyval(w_coeffs, x)  # noqa: E731
    return f, omega


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[ACCEPTANCE] criterion {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_family_residuals():
    rng = random.Random(1)
    worst = 0.0
    for variant in DIFFUSION_FAMILIES:
        for k in (1, 2, 3, 4, 5):
            res = diffusion_residual(build_solution(SolutionFamily(variant, k)))
            worst = max(worst, res.max_abs_coeff())
    for k in (2, 3, 4, 5):
        for _ in range(20):
            weights = tuple(rng.uniform(0.5, 2.0) for _ in range(k))
            alpha, beta = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
            fams = [
                SolutionFamily("T2a", k),
                SolutionFamily("T2b", k),
                SolutionFamily("C_ab", k, alpha=alpha, beta=beta),
                SolutionFamily("T3w", k, weights=weights),
                SolutionFamily("C1w", k, weights=weights),
                SolutionFamily("C2w_ab", k, alpha=alpha, beta=beta, weights=weights),
            ]
            for fam in fams:
                res = interaction_residual(build_solution(fam))
                worst = max(worst, res.max_abs_coeff())
    ok = worst < RESIDUAL_TOL

    # The uncorrected two-parameter form must report the nonzero constant
    # residual (k*alpha*k! + beta) - (k + 1) away from alpha=1/k!, beta=1.
    for k in (2, 3, 4, 5):
        alpha, beta = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        fam = SolutionFamily("C_ab", k, alpha=alpha, beta=beta, uncorrected=True)
        res = interaction_residual(build_solution(fam))
        expected = (k * alpha * math.factorial(k) + beta) - (k + 1)
        coeff = res.terms.get((0,) * (k + 1), 0.0)
        ok = ok and abs(coeff - expected) < 1e-9 and abs(coeff) > RESIDUAL_TOL
    _report(1, "closed-form residuals", ok, f"max residual coeff {worst:.3e}")


def test_criterion_2_reduction_identities():
    ok = True
    for k in (2, 3, 4, 5):
        ones = (1.0,) * k
        weights = tuple(0.3 + 0.4 * i for i in range(k))
        ok = ok and build_solution(
            SolutionFamily("T3w", k, weights=ones)
        ) == build_solution(SolutionFamily("T2b", k))
        ok = ok and build_solution(
            SolutionFamily("C1w", k, weights=ones)
        ) == build_solution(SolutionFamily("T2a", k))
        ok = ok and build_solution(
            SolutionFamily("C2w_ab", k, alpha=1.0, beta=1.0, weights=weights)
        ) == build_solution(SolutionFamily("T3w", k, weights=weights))
    _report(2, "reduction identities", ok, "exact coefficient-level equality")


def test_criterion_3_riemann_stieltjes():
    value = rs_integrate(lambda x: x, lambda x: x * x, 0.0, 1.0, eta=1e-6)
    ok = (2.0 / 3.0 - 1e-6) <= value <= (2.0 / 3.0 + 1e-6)
    detail = f"integral {value:.8f}"

    rng = random.Random(3)
    for _ in range(200):  # telescoping + linearity on each randomised case
        lo = rng.uniform(-2.0, 1.0)
        hi = lo + rng.uniform(0.5, 3.0)
        n = rng.randint(1, 64)
        rule = rng.choice(("left", "right", "midpoint"))
        p = make_uniform_partition(lo, hi, n, rule)
        w_coeffs = [rng.uniform(-2.0, 2.0) for _ in range(4)]
        omega = lambda x, c=w_coeffs: np.polyval(c, x)  # noqa: E731
        c = rng.uniform(-5.0, 5.0)
        const = lambda x, c=c: np.full_like(np.asarray(x, float), c)  # noqa: E731
        tele = rs_sum(const, omega, p)
        ok = ok and abs(tele - c * (omega(hi) - omega(lo))) < 1e-10 * max(1.0, abs(c))
        a, b = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        f1 = lambda x: np.asarray(x, float)  # noqa: E731
        f2 = lambda x: np.cos(2.0 * np.asarray(x, float))  # noqa: E731
        lin = rs_sum(lambda x: a * f1(x) + b * f2(x), omega, p)
        split = a * rs_sum(f1, omega, p) + b * rs_sum(f2, omega, p)
        ok = ok and abs(lin - split) < 1e-9

    rng = random.Random(31)
    for _ in range(100):
        f, omega = random_bound_case(rng)
        report = variation_lower_bound_check(f, omega, 0.0, 1.0, eta=1e-6)
        ok = ok and report.holds
    _report(3, "Riemann-Stieltjes convergence and bounds", ok, detail)


def test_criterion_4_finite_difference(tmp_path):
    quad = convergence_study(manufactured_quadratic(2), [21], t_end=1.0)
    ok = quad.max_errors[0] < 1e-8
    detail = f"manufactured error {quad.max_errors[0]:.2e}"

    expo = convergence_study(manufactured_exponential(2), [11, 21, 41], t_end=0.1)
    order = min(expo.observed_orders)
    ok = ok and order >= 1.9
    detail += f", spatial order {order:.2f}"

    # Figure-4 scenario properties at every snapshot (reduced scale).
    for spec in figure_scenarios("fig4", resolution=19, t_end=1.0):
        for fld in run_scenario(spec, [0.0, 0.5, 1.0]):
            mask = np.ones(fld.extents, dtype=bool)
            mask[1:-1, 1:-1] = False
            ok = ok and bool(np.all(fld.values[mask] == 10.0 * fld.time))
            ok = ok and float(np.max(np.abs(fld.values - fld.values.T))) < 1e-12
            interior = fld.values[1:-1, 1:-1]
            ok = ok and bool(np.all(interior >= 0.0))
            ok = ok and bool(np.all(interior <= 10.0 * fld.time * (1 + 1e-12)))

    # Figure-5 scenario runs on all four asymmetric domains and exports grids.
    manifest = run_demo_figures(
        "fig5", tmp_path, resolution=13, t_end=0.5, snapshot_times=[0.5]
    )
    ok = ok and len(manifest["panels"]) == 4
    for panel in manifest["panels"]:
        ok = ok and panel["resolution"][0] != panel["resolution"][1]
        ok = ok and all((tmp_path / e["file"]).exists() for e in panel["files"])
    _report(4, "finite-difference solver", ok, detail)


def test_criterion_5_pavement_numbers():
    designs = load_mix_table()
    ok = len(designs) == 8
    for d in designs:
        ok = ok and math.fsum(d.present_layers().values()) == d.total_mm
    by_label = {d.label: d for d in designs}
    base = by_label["0R:100VA"]
    headline = {
        "50R:50V+20F": 18.0,
        "60R:40V+30F": 14.5,
        "100R:0VA+20F": 8.0,
    }
    worst = 0.0
    for label, pct in headline.items():
        got = thickness_reduction(by_label[label], base)
        worst = max(worst, abs(got - pct))
    ok = ok and worst <= 0.2
    _report(5, "pavement table and reductions", ok, f"worst gap {worst:.3f} pp")


def test_criterion_6_index_and_fitting():
    eq12 = index_value(
        IndexInputs(k=7, t=1.0, psi=(0.0,) * 7, weights=(1.0,) * 7), "C1w"
    )
    ok = eq12 == 8.0
    detail = f"seven-variable index {eq12:g}"

    rng = random.Random(6)
    obs = []
    for _ in range(10):
        base = IndexInputs(
            k=7,
            t=rng.uniform(0.1, 2.0),
            psi=tuple(rng.uniform(0.0, 1.0) for _ in range(7)),
            weights=tuple(rng.uniform(0.5, 2.0) for _ in range(7)),
        )
        truth = IndexInputs(
            k=7, t=base.t, psi=base.psi, weights=base.weights, alpha=2.5, beta=0.5
        )
        obs.append((base, index_value(truth, "C2w_ab")))
    fit = fit_alpha_beta(
        Observations(
            np.array([inputs.t for inputs, _ in obs]),
            np.array([inputs.psi for inputs, _ in obs]),
            np.array([inputs.weights for inputs, _ in obs]),
            np.array([h for _, h in obs]),
        )
    )
    ok = ok and abs(fit.alpha - 2.5) <= 1e-9 and abs(fit.beta - 0.5) <= 1e-9
    ok = ok and fit.residual_norm <= 1e-9
    detail += f", fit ({fit.alpha:.12g}, {fit.beta:.12g})"

    weights = (1.5, 2.0, 0.5)
    out = dHdt_interval([Interval(w, w) for w in weights])
    scalar = math.fsum(weights) + math.prod(weights)
    ok = ok and out.lo == scalar and out.hi == scalar
    _report(6, "index evaluation and fitting", ok, detail)


def test_criterion_7_cli_determinism(tmp_path):
    cmd = [sys.executable, "-m", "sustkit.cli", "verify-solutions",
           "--k", "2,3", "--draws", "5", "--seed", "42", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = first.returncode == 0 and first.stdout == second.stdout

    fig_args = [sys.executable, "-m", "sustkit.cli", "figures", "--which", "fig4",
                "--resolution", "8", "--t-end", "0.2", "--snapshots", "0,0.2"]
    a, b = tmp_path / "a", tmp_path / "b"
    ra = subprocess.run(fig_args + ["--out", str(a)], capture_output=True)
    rb = subprocess.run(fig_args + ["--out", str(b)], capture_output=True)
    ok = ok and ra.returncode == 0 and rb.returncode == 0
    for path in sorted(a.iterdir()):
        ok = ok and filecmp.cmp(path, b / path.name, shallow=False)
    _report(7, "CLI determinism", ok, "byte-identical repeated runs")
