"""Tests of the benchmark's own references and output checks.

    python3 -m pytest perfbench -q

Each check is shown to accept a correct output and to reject a perturbed
one.  The FTCS references are compared with a plain numpy stepping loop
written here, not with sustkit.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from sustkit import diffusion, polynomials  # noqa: E402
from sustkit import riemann_stieltjes as rs  # noqa: E402


def direct_ftcs(resolution, spacings, dt, g_values, c0, n):
    """n explicit steps with the boundary set to g_values[j] after step j."""
    u = np.full(resolution, float(c0))
    core = tuple(slice(1, -1) for _ in resolution)
    edge = checks.boundary_mask(resolution)
    u[edge] = g_values[0]
    for j in range(1, n + 1):
        lap = np.zeros_like(u[core])
        for a, h in enumerate(spacings):
            lo, hi = list(core), list(core)
            lo[a], hi[a] = slice(0, -2), slice(2, None)
            lap += (u[tuple(hi)] - 2 * u[core] + u[tuple(lo)]) / h**2
        u[core] += dt * lap
        u[edge] = g_values[j]
    return u


@pytest.mark.parametrize("resolution,spacings", [((7, 9), (0.5, 0.25)), ((6, 6, 6), (0.2, 0.2, 0.2))])
def test_affine_reference_is_the_ftcs_iterate(resolution, spacings):
    dt, s = checks.stable_dt(spacings), 3.5
    modes = checks.FTCSModes(resolution, spacings, dt)
    for n in (0, 1, 5, 37):
        g = [s * (j * dt) for j in range(n + 1)]
        want = direct_ftcs(resolution, spacings, dt, g, 0.0, n)
        assert np.max(np.abs(modes.affine(n, s, dt) - want)) <= 1e-12 * max(s * n * dt, 1.0)


def test_forced_reference_is_the_ftcs_iterate():
    resolution, spacings = (8, 11), (0.3, 0.3)
    dt = checks.stable_dt(spacings)
    g = [2.0 * math.sin(1.7 * j * dt + 0.4) for j in range(61)]
    got = checks.FTCSModes(resolution, spacings, dt).forced(np.array(g), 0.6, (0, 13, 60))
    for n in (0, 13, 60):
        want = direct_ftcs(resolution, spacings, dt, g, 0.6, n)
        assert np.max(np.abs(got[n] - want)) <= 1e-12


def _affine_case():
    resolution, spacings, s = (9, 9), (0.125, 0.125), 7.0
    dt = checks.stable_dt(spacings)
    n = 40
    ref = checks.FTCSModes(resolution, spacings, dt).affine(n, s, dt)
    return ref, s, n * dt


def test_affine_check_accepts_the_reference_and_rejects_perturbations():
    ref, s, t = _affine_case()
    checks.check_affine_grid(ref.copy(), s, t, ref, symmetric=True)
    bumped = ref.copy()
    bumped[3, 5] += 1e-8 * s * t  # one interior value, still symmetric-range
    with pytest.raises(CheckError, match="exact FTCS"):
        checks.check_affine_grid(bumped, s, t, ref)
    with pytest.raises(CheckError, match="symmetric"):
        checks.check_affine_grid(bumped, s, t, None, symmetric=True)
    edge = ref.copy()
    edge[0, 4] *= 1 + 1e-9
    with pytest.raises(CheckError, match="boundary"):
        checks.check_affine_grid(edge, s, t, ref)
    low = ref.copy()
    low[4, 4] = -1e-6
    with pytest.raises(CheckError, match="outside"):
        checks.check_affine_grid(low, s, t)


def test_normalized_check_rejects_one_changed_value():
    ref, s, t = _affine_case()
    scaled = ref / (s * t)
    checks.check_normalized(scaled, ref, s, t)
    scaled[2, 2] *= 1 + 1e-12
    with pytest.raises(CheckError):
        checks.check_normalized(scaled, ref, s, t)


def test_forced_check_rejects_perturbations():
    resolution, spacings = (8, 8), (0.3, 0.3)
    dt = checks.stable_dt(spacings)
    g = np.array([1.5 * math.sin(2.0 * j * dt) for j in range(41)])
    ref = checks.FTCSModes(resolution, spacings, dt).forced(g, 0.2, (40,))[40]
    checks.check_forced_grid(ref.copy(), ref, g, 0.2, 1.7, "forced")
    bad = ref.copy()
    bad[3, 3] += 1e-8
    with pytest.raises(CheckError, match="exact FTCS"):
        checks.check_forced_grid(bad, ref, g, 0.2, 1.7, "forced")
    bad = ref.copy()
    bad[0, 0] += 1e-6
    with pytest.raises(CheckError, match="boundary"):
        checks.check_forced_grid(bad, ref, g, 0.2, 1.7, "forced")


def test_snapshot_time_check():
    assert checks.check_snapshot_time(0.5, 222 * 0.00225, 0.00225) == 222
    with pytest.raises(CheckError):
        checks.check_snapshot_time(0.5, 0.4995 + 1e-7, 0.00225)  # not on a step
    with pytest.raises(CheckError):
        checks.check_snapshot_time(0.5, 220 * 0.00225, 0.00225)  # two steps away


def test_grid_csv_reader_rejects_off_lattice_coordinates(tmp_path):
    path = tmp_path / "g.csv"
    rows = ["psi1,psi2,value"] + [f"{i * 0.5!r},{j * 0.25!r},{i + j}" for i in range(3) for j in range(4)]
    path.write_text("\n".join(rows) + "\n")
    values = checks.read_grid_csv(path, [0.0, 0.0], [0.5, 0.25], [3, 4])
    assert values[2, 3] == 5
    with pytest.raises(CheckError, match="psi2"):
        checks.read_grid_csv(path, [0.0, 0.0], [0.5, 0.26], [3, 4])


def test_integral_check_rejects_ten_eta():
    checks.check_integral(1.0 + 0.5e-6, 1.0, 1e-6)
    with pytest.raises(CheckError):
        checks.check_integral(1.0 + 10e-6, 1.0, 1e-6)


def test_bound_check_rejects_wrong_reports():
    good = rs.VariationBoundReport(lhs=4.0, rhs=math.pi / 1.5, holds=True, sup_f=1.5, integral=math.pi)
    checks.check_bound(good, math.pi, 4.0, 1e-6)
    for bad in (
        rs.VariationBoundReport(lhs=3.9, rhs=math.pi / 1.5, holds=True, sup_f=1.5, integral=math.pi),
        rs.VariationBoundReport(lhs=4.0, rhs=math.pi / 1.5, holds=False, sup_f=1.5, integral=math.pi),
        rs.VariationBoundReport(lhs=4.0, rhs=math.pi / 1.4, holds=True, sup_f=1.5, integral=math.pi),
        rs.VariationBoundReport(lhs=4.0, rhs=math.pi / 1.5, holds=True, sup_f=1.5, integral=math.pi + 1e-5),
    ):
        with pytest.raises(CheckError):
            checks.check_bound(bad, math.pi, 4.0, 1e-6)


def test_table_integral_matches_quadrature():
    xs, ys = workloads._table(0.3)
    x = np.linspace(0.0, 1.0, 2**16 + 1)
    mid = 0.5 * (x[:-1] + x[1:])
    numeric = float(np.sum((mid**2 + 0.7) * np.diff(np.interp(x, xs, ys))))
    assert abs(checks.table_integral_of_quadratic(xs, ys, 0.7) - numeric) < 1e-9


def _records(ks):
    out = [{"variant": v, "k": k, "max_residual_coeff": 0.0, "ok": True}
           for v in ("T1a", "T1b") for k in [1] + list(ks)]
    out += [{"variant": v, "k": k, "max_residual_coeff": 0.0, "ok": True}
            for v in ("T2a", "T2b", "C_ab", "T3w", "C1w", "C2w_ab") for k in ks]
    out += [{"variant": "C_ab(uncorrected)", "k": k, "max_residual_coeff": 3.0, "ok": True} for k in ks]
    return out


def test_family_records_check():
    ks = (2, 7)
    assert checks.check_family_records(_records(ks), ks) == []
    rounding = _records(ks)
    rounding[-3].update(ok=False, max_residual_coeff=2e-11)  # C2w_ab k=7
    assert len(checks.check_family_records(rounding, ks)) == 1
    for change in ({"max_residual_coeff": 1e-6}, {"variant": "T9"}):
        bad = _records(ks)
        bad[-3].update(ok=False, **change)
        with pytest.raises(CheckError):
            checks.check_family_records(bad, ks)
    with pytest.raises(CheckError):
        checks.check_family_records(_records(ks)[:-1], ks)


def test_uncorrected_residual_check():
    fam = polynomials.SolutionFamily("C_ab", 5, alpha=1.25, beta=0.75, uncorrected=True)
    poly = polynomials.interaction_residual(polynomials.build_solution(fam))
    checks.check_uncorrected_residual(poly, 5, 1.25, 0.75)
    with pytest.raises(CheckError):
        checks.check_uncorrected_residual(poly, 5, 1.25 * (1 + 1e-9), 0.75)


def test_fit_check_rejects_wrong_beta():
    payload = {"alpha": 1.3, "beta": 0.7 * (1 + 1e-11), "residual_norm": 0.0, "n_obs": 10}
    checks.check_fit(payload, 1.3, 0.7, 10)
    payload["beta"] = 0.7 * (1 + 1e-8)
    with pytest.raises(CheckError, match="beta"):
        checks.check_fit(payload, 1.3, 0.7, 10)


# -- whole operations: a perturbed program output is caught ---------------------------


def _op(ops, name):
    return next(op for op in ops if op.name == name)


def test_solve_op_catches_a_changed_grid_value(tmp_path, monkeypatch):
    op = _op(workloads.figures_affine(3, tmp_path, tracing.Counters()), "solve_s")
    op.check(op.run())
    original = diffusion.field_to_json

    def perturbed(field, path):
        field = field.copy()
        field.values[15, 15, 15] += 1e-6
        original(field, path)

    monkeypatch.setattr(diffusion, "field_to_json", perturbed)
    with pytest.raises(CheckError):
        op.check(op.run())


def test_rs_integrate_op_catches_ten_eta(tmp_path, monkeypatch):
    op = _op(workloads.rs_weights(3, tmp_path, tracing.Counters()), "rs_integrate_s")
    op.check(op.run())
    original = rs.rs_integrate
    monkeypatch.setattr(rs, "rs_integrate", lambda *a, eta, **k: original(*a, eta=eta, **k) + 10 * eta)
    with pytest.raises(CheckError):
        op.check(op.run())


def test_verify_solutions_fails_only_by_rounding():
    rc, text = workloads.cli_call(["verify-solutions", "--k", "2,3,4,5,6,7", "--seed", "0", "--format", "json"])
    failing = checks.check_family_records(json.loads(text), (2, 3, 4, 5, 6, 7))
    assert rc == 1 and failing and all(r["k"] >= 6 for r in failing)


def test_counted_counts_points_of_successful_calls():
    counters = tracing.Counters()
    f = tracing.Counted(np.sin, counters, "integrand_points", "weight_passes")
    f(np.zeros(5))
    f(0.5)
    with pytest.raises(TypeError):
        f("x")
    assert counters.current["integrand_points"] == 6 and counters.current["weight_passes"] == 2


def test_tracer_records_nested_spans_and_restores_the_program():
    from sustkit import cli

    counters = tracing.Counters()
    tracer = tracing.Tracer(counters)
    original = cli.main
    tracer.install()
    try:
        tracer.round = 0
        assert workloads.cli_call(["index", "eval", "--family", "T1a", "--k", "2", "--psi", "0,0"])[0] == 0
    finally:
        tracer.uninstall()
    counters.end_round()
    assert cli.main is original and diffusion.run_scenario.__name__ == "run_scenario"
    names = [tracer.names[sp[0]] for sp in tracer.spans]
    assert names == ["cli.main", "cli.build_parser", "cli.parse_args"]
    assert [sp[1] for sp in tracer.spans] == [-1, 0, 0]
    metrics = tracer.layer_metrics()
    assert metrics["cli.parse_ms"][0] > 0 and metrics["cli.handler_self_s"][0] > 0
