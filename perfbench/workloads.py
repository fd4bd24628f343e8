"""The benchmark workloads.

Four groups of operations, joined in pairs into the two workloads at the
end of this file.  Each group turns the seed into its inputs once, then
offers a fixed list of operations.  A round runs every operation of the
workload once, in order, and checks its outputs.  The seed changes the inputs' values (slopes, offsets, amplitudes,
parameters, data rows) but never their size or the refinement depth they
need, so that every seed asks the program for the same work.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from sustkit import cli, diffusion, expressions, polynomials
from sustkit import riemann_stieltjes as rs

import checks
from checks import require
from tracing import Counted, Counters


@dataclass
class Op:
    """One benchmark operation.  ``run`` is timed; ``check`` is not, and
    raises CheckError on a wrong output; ``failed`` tells whether the
    program reported a failure."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    failed: Callable[[object], bool] = lambda result: False


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run ``sustkit.cli.main(argv)`` in this process; returns the exit code
    and what it printed on stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def _cli_failed(result) -> bool:
    return result[0] != 0


# -- figures_affine ---------------------------------------------------------------

FIG_DOMAINS = {
    "fig4": [((0.0, 1.0), (0.0, 1.0)), ((0.0, 3.0), (0.0, 3.0)),
             ((0.0, 6.0), (0.0, 6.0)), ((0.0, 9.0), (0.0, 9.0))],
    "fig5": [((0.0, 4.0), (0.0, 6.0)), ((0.0, 6.0), (0.0, 9.0)),
             ((0.0, 8.0), (0.0, 12.0)), ((0.0, 10.0), (0.0, 15.0))],
}
FIG_POINTS = 91
FIG4_T_END = 0.5
FIG5_T_END = 0.1
FIG5_SNAPSHOTS = (0.0, 0.02, 0.04, 0.06, 0.08, 0.1)
SOLVE_POINTS = 31
SOLVE_T_END = 0.1
SOLVE_SNAPSHOTS = (0.0, 0.05, 0.1)


def figures_affine(seed: int, work: Path, counters: Counters) -> list[Op]:
    rng = random.Random(seed)
    s4, s5, s3 = (rng.uniform(5.0, 15.0) for _ in range(3))

    @functools.cache
    def ftcs_modes(resolution: tuple, spacings: tuple, dt: float) -> checks.FTCSModes:
        return checks.FTCSModes(resolution, spacings, dt)

    spec_path = work / "cube.json"
    spec_path.write_text(json.dumps({
        "domain": [[0.0, 1.0]] * 3,
        "resolution": [SOLVE_POINTS] * 3,
        "s": s3,
        "t_end": SOLVE_T_END,
        "dt": "auto",
        "boundary": "s*t",
        "initial": 0.0,
    }))

    def figure_op(which, s, t_end, snapshots, normalized):
        out = work / which
        argv = ["figures", "--which", which, "--resolution", str(FIG_POINTS),
                "--t-end", repr(t_end), "--s", repr(s), "--out", str(out)]
        if snapshots:
            argv += ["--snapshots", ",".join(repr(t) for t in snapshots)]
        if normalized:
            argv.append("--normalized")
        times = list(snapshots) if snapshots else [0.0, t_end]

        def check(result):
            require(result[0] == 0, f"figures {which} exited with {result[0]}")
            manifest = json.loads((out / f"{which}_manifest.json").read_text())
            require(len(manifest["panels"]) == 4, f"{which}: {len(manifest['panels'])} panels")
            for panel, domain in zip(manifest["panels"], FIG_DOMAINS[which]):
                lengths = [hi - lo for lo, hi in domain]
                h = max(lengths) / (FIG_POINTS - 1)
                resolution = [round(length / h) + 1 for length in lengths]
                spacings = [length / (n - 1) for length, n in zip(lengths, resolution)]
                name = f"{which} panel {panel['label']}"
                require(panel["domain"] == [list(d) for d in domain], f"{name}: domain")
                require(panel["resolution"] == resolution, f"{name}: resolution")
                dt = checks.stable_dt(spacings)
                require(abs(panel["dt"] - dt) <= 1e-15 * dt, f"{name}: dt {panel['dt']!r} != {dt!r}")
                require([f["time_requested"] for f in panel["files"]] == times, f"{name}: times")
                ftcs = ftcs_modes(tuple(resolution), tuple(spacings), dt)
                for entry in panel["files"]:
                    t = entry["time_actual"]
                    n = checks.check_snapshot_time(entry["time_requested"], t, dt, name)
                    values = checks.read_grid_csv(out / entry["file"], [0.0, 0.0], spacings, resolution)
                    checks.check_affine_grid(values, s, t, ftcs.affine(n, s, dt),
                                             symmetric=which == "fig4", name=entry["file"])
                    if normalized and t > 0:
                        scaled = checks.read_grid_csv(out / entry["normalized_file"], [0.0, 0.0],
                                                      spacings, resolution)
                        checks.check_normalized(scaled, values, s, t, entry["normalized_file"])
                    else:
                        require("normalized_file" not in entry, f"{entry['file']}: normalized at t=0")

        return Op(f"{which}_s", lambda: cli_call(argv), check, _cli_failed)

    solve_out = work / "solve"
    solve_argv = ["solve", "--spec", str(spec_path), "--format", "json",
                  "--snapshots", ",".join(repr(t) for t in SOLVE_SNAPSHOTS), "--out", str(solve_out)]

    def check_solve(result):
        require(result[0] == 0, f"solve exited with {result[0]}")
        manifest = json.loads((solve_out / "cube_manifest.json").read_text())
        h = 1.0 / (SOLVE_POINTS - 1)
        resolution, spacings = [SOLVE_POINTS] * 3, [h] * 3
        dt = checks.stable_dt(spacings)
        require(abs(manifest["dt"] - dt) <= 1e-15 * dt, f"solve: dt {manifest['dt']!r} != {dt!r}")
        require([f["time_requested"] for f in manifest["files"]] == list(SOLVE_SNAPSHOTS), "solve: times")
        ftcs = ftcs_modes(tuple(resolution), tuple(spacings), dt)
        for entry in manifest["files"]:
            data, values = checks.read_grid_json(solve_out / entry["file"])
            t = entry["time_actual"]
            require(data["time"] == t and data["extents"] == resolution
                    and np.allclose(data["spacings"], spacings, rtol=1e-15) and data["origin"] == [0.0] * 3,
                    f"{entry['file']}: header {dict((k, data[k]) for k in ('time', 'extents', 'origin'))}")
            n = checks.check_snapshot_time(entry["time_requested"], t, dt, entry["file"])
            checks.check_affine_grid(values, s3, t, ftcs.affine(n, s3, dt), symmetric=True,
                                     name=entry["file"])

    return [
        figure_op("fig4", s4, FIG4_T_END, None, False),
        figure_op("fig5", s5, FIG5_T_END, FIG5_SNAPSHOTS, True),
        Op("solve_s", lambda: cli_call(solve_argv), check_solve, _cli_failed),
    ]


# -- solve_general -------------------------------------------------------------------

# (k, resolutions, t_end) of the exponential convergence studies on [0, 1]^k
CONVERGENCE = ((1, (21, 41, 81), 0.1), (2, (11, 21, 41), 0.05), (3, (9, 17), 0.02))
QUADRATIC_POINTS = 21
QUADRATIC_T_END = 0.05
PERIODIC_POINTS = 91
PERIODIC_LENGTH = 9.0
PERIODIC_STEPS = 8000
EXPLICIT_STEPS = 1000


def solve_general(seed: int, work: Path, counters: Counters) -> list[Op]:
    rng = random.Random(seed)
    offsets = [rng.uniform(0.0, 1.0) for _ in CONVERGENCE]
    c_quad = rng.uniform(0.0, 1.0)
    amp, omega, phase, c0 = (rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0),
                             rng.uniform(0.0, 2 * math.pi), rng.uniform(-1.0, 1.0))

    def shifted(rule, c):
        return lambda coords, t: rule(coords, t) + c

    def periodic(coords, t):
        return amp * math.sin(omega * t + phase)

    def counted(rule):
        return Counted(rule, counters, None, "boundary_calls")

    h = PERIODIC_LENGTH / (PERIODIC_POINTS - 1)
    p_res, p_spacings = (PERIODIC_POINTS,) * 2, (h, h)
    p_dt = checks.stable_dt(p_spacings)
    p_steps = (0, EXPLICIT_STEPS, PERIODIC_STEPS // 2, PERIODIC_STEPS)
    g_values = np.array([periodic(None, j * p_dt) for j in range(PERIODIC_STEPS + 1)])
    p_reference = checks.FTCSModes(p_res, p_spacings, p_dt).forced(g_values, c0, p_steps)

    def run():
        out = {}
        for (k, resolutions, t_end), c in zip(CONVERGENCE, offsets):
            rule = counted(shifted(diffusion.manufactured_exponential(k), c))
            out[f"exp{k}"] = diffusion.convergence_study(
                rule, resolutions, domain=((0.0, 1.0),) * k, t_end=t_end)
        quad = counted(shifted(diffusion.manufactured_quadratic(3), c_quad))
        spec = diffusion.ScenarioSpec(
            domain=((0.0, 1.0),) * 3, resolution=(QUADRATIC_POINTS,) * 3,
            boundary_rule=quad, initial_rule=lambda coords: quad(coords, 0.0),
            t_end=QUADRATIC_T_END)
        out["quadratic"] = diffusion.run_scenario(spec, [QUADRATIC_T_END])[0]
        rule = counted(periodic)
        spec = diffusion.ScenarioSpec(
            domain=((0.0, PERIODIC_LENGTH),) * 2, resolution=p_res,
            boundary_rule=rule, initial_rule=lambda coords: c0,
            t_end=PERIODIC_STEPS * p_dt)
        out["periodic"] = diffusion.run_scenario(spec, [n * p_dt for n in p_steps])
        field = spec.initial_field()
        for _ in range(EXPLICIT_STEPS):
            field = diffusion.step_explicit(field, rule, p_dt)
        out["explicit"] = field
        return out

    def check(out):
        for k, _, _ in CONVERGENCE:
            study = out[f"exp{k}"]
            require(all(1.8 <= p <= 2.2 for p in study.observed_orders),
                    f"exp k={k}: observed orders {study.observed_orders} outside [1.8, 2.2]")
        quad = out["quadratic"]
        axis = np.arange(QUADRATIC_POINTS) / (QUADRATIC_POINTS - 1)
        r2 = sum(np.meshgrid(axis**2, axis**2, axis**2, indexing="ij"))
        exact = 3 * quad.time + 0.5 * r2 + c_quad
        err = float(np.max(np.abs(quad.values - exact)))
        require(err <= 1e-12 * float(np.max(np.abs(exact))),
                f"quadratic k=3: error {err:.3g} is above rounding")
        scale = abs(c0) + amp
        for n, fld in zip(p_steps, out["periodic"]):
            name = f"periodic step {n}"
            require(checks.check_snapshot_time(n * p_dt, fld.time, p_dt, name) == n, f"{name}: step")
            checks.check_forced_grid(fld.values, p_reference[n], g_values[: n + 1], c0, scale, name)
        fld = out["explicit"]
        require(abs(fld.time - EXPLICIT_STEPS * p_dt) <= 1e-9 * p_dt, "step_explicit: time")
        checks.check_forced_grid(fld.values, p_reference[EXPLICIT_STEPS],
                                 g_values[: EXPLICIT_STEPS + 1], c0, scale, "step_explicit")

    return [Op("general_s", run, check)]


# -- rs_weights -----------------------------------------------------------------------

TABLE_KNOTS = 33  # knots j/32 on [0, 1]: every dyadic level >= 5 puts them on nodes
TABLE_SEED = 20210513  # the table's shape is fixed; the seed only shifts it


def _table(offset: float):
    rng = random.Random(TABLE_SEED)
    xs = [j / (TABLE_KNOTS - 1) for j in range(TABLE_KNOTS)]
    ys = [offset]
    for _ in xs[1:]:
        ys.append(ys[-1] + rng.uniform(0.5, 2.0) / (TABLE_KNOTS - 1))
    return xs, ys


def rs_weights(seed: int, work: Path, counters: Counters) -> list[Op]:
    rng = random.Random(seed)
    cf, cw, c_table, c_step = (rng.uniform(0.0, 1.0) for _ in range(4))
    xs, ys = _table(c_table)
    table_path = work / "weight_table.csv"
    table_path.write_text("x,value\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(xs, ys)))
    two_pi = 2 * math.pi
    e = math.e

    def scalar_exp(x):
        # a model that only accepts Python floats, as a user's code may
        if not isinstance(x, float):
            raise TypeError("scalar input only")
        counters.add("scalar_fallback_points")
        return math.exp(x) + cf

    # (name, integrand, weight, lo, hi, eta, closed-form value); an expression
    # is a string, "table" is the CSV weight
    integrals = [
        ("exp_x3", f"exp(x) + {cf!r}", f"x^3 + {cw!r}", 0.0, 1.0, 1e-9, 3 * (e - 2) + cf),
        ("sin_x2", f"sin(2*pi*x) + {cf!r}", f"x^2 + {cw!r}", 0.0, 1.0, 1e-8, -1 / math.pi + cf),
        ("x2_table", f"x^2 + {cf!r}", "table", 0.0, 1.0, 1e-8,
         checks.table_integral_of_quadratic(xs, ys, cf)),
        ("exp_step", f"exp(x) + {cf!r}", f"step(x-0.5) + {cw!r}", 0.0, 1.0, 1e-6, math.exp(0.5) + cf),
        # linear integrand: the midpoint sums are exact to O(h^2) early, so
        # the left/right tag spread (50*h) sets the depth
        ("linear_x2", f"50*x + {cf!r}", f"x^2 + {cw!r}", 0.0, 1.0, 1e-6, 100 / 3 + cf),
        ("scalar_x2", scalar_exp, f"x^2 + {cw!r}", 0.0, 1.0, 1e-8, 2 + cf),
    ]
    # (name, integrand, weight, lo, hi, eta, integral, variation of the weight)
    bounds = [
        ("cos_sin", f"cos(x) + {cf!r}", f"sin(x) + {cw!r}", 0.0, two_pi, 1e-6, math.pi, 4.0),
        ("x2_table", f"x^2 + {cf!r}", "table", 0.0, 1.0, 1e-8,
         checks.table_integral_of_quadratic(xs, ys, cf), float(np.sum(np.abs(np.diff(ys))))),
        ("exp_x3", f"exp(x) + {cf!r}", f"x^3 + {cw!r}", 0.0, 1.0, 1e-9, 3 * (e - 2) + cf, 1.0),
    ]
    jump = f"step(x-0.5) + {c_step!r}"

    def integrand(f):
        if isinstance(f, str):
            f = expressions.compile_expression(f)
        return Counted(f, counters, "integrand_points")

    def weight(w):
        if w == "table":
            fn = rs.WeightFunction.from_csv(table_path)
            fn.evaluator = Counted(fn.evaluator, counters, "weight_points", "weight_passes")
            return fn
        return Counted(expressions.compile_expression(w), counters, "weight_points", "weight_passes")

    def run_integrals():
        return [rs.rs_integrate(integrand(f), weight(w), lo, hi, eta=eta)
                for _, f, w, lo, hi, eta, _ in integrals]

    def check_integrals(values):
        for (name, *_, eta, exact), value in zip(integrals, values):
            checks.check_integral(value, exact, eta, name)

    def run_bounds():
        return [rs.variation_lower_bound_check(integrand(f), weight(w), lo, hi, eta=eta)
                for _, f, w, lo, hi, eta, _, _ in bounds]

    def check_bounds(reports):
        for (name, *_, eta, exact, variation), report in zip(bounds, reports):
            checks.check_bound(report, exact, variation, eta, name)

    def run_nonconv():
        try:
            return rs.rs_integrate(integrand(jump), weight(jump), 0.0, 1.0)
        except rs.NonConvergenceError as exc:
            return exc

    def check_nonconv(result):
        require(isinstance(result, rs.NonConvergenceError),
                f"shared jump: expected NonConvergenceError, got {result!r}")

    return [
        Op("rs_integrate_s", run_integrals, check_integrals),
        Op("rs_bound_s", run_bounds, check_bounds),
        Op("rs_nonconv_s", run_nonconv, check_nonconv),
    ]


# -- closed_forms -------------------------------------------------------------------------

VERIFY_KS = (2, 3, 4, 5, 6, 7)
# verify-solutions draws its own parameters from this seed.  It is fixed
# rather than taken from the workload seed because the run fails on every
# seed (absolute residual tolerance at k >= 6) and a failure share that
# varied with the seed could not be compared between runs.
VERIFY_SEED = 0
FIT_ROWS = 100_000


def closed_forms(seed: int, work: Path, counters: Counters) -> list[Op]:
    rng = random.Random(seed)
    alpha, beta = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    residual_params = [(k, rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)) for k in VERIFY_KS]
    data = np.random.default_rng(seed)
    t = data.uniform(0.0, 1.0, FIT_ROWS)
    psi = data.uniform(0.0, 1.0, (FIT_ROWS, 7))
    w = data.uniform(0.5, 2.0, (FIT_ROWS, 7))
    u, v = checks.seven_variable_basis(t, psi, w)
    obs_path = work / "observations.csv"
    header = ",".join(["t"] + [f"psi{i}" for i in range(1, 8)] + [f"omega{i}" for i in range(1, 8)] + ["H_obs"])
    np.savetxt(obs_path, np.column_stack([t, psi, w, alpha * u + beta * v]),
               fmt="%.17g", delimiter=",", header=header, comments="")
    report_path = work / "fit.json"

    verify_argv = ["verify-solutions", "--k", ",".join(map(str, VERIFY_KS)),
                   "--seed", str(VERIFY_SEED), "--format", "json"]

    def check_verify(result):
        rc, text = result
        failing = checks.check_family_records(json.loads(text), VERIFY_KS)
        require(rc == (1 if failing else 0), f"verify-solutions exit code {rc} with {len(failing)} failing")

    def run_residuals():
        return [polynomials.interaction_residual(polynomials.build_solution(
            polynomials.SolutionFamily("C_ab", k, alpha=a, beta=b, uncorrected=True)))
            for k, a, b in residual_params]

    def check_residuals(polys):
        for (k, a, b), poly in zip(residual_params, polys):
            checks.check_uncorrected_residual(poly, k, a, b)

    fit_argv = ["index", "fit", "--observations", str(obs_path), "--format", "json",
                "--out", str(report_path)]

    def check_fit(result):
        rc, text = result
        require(rc == 0, f"index fit exited with {rc}")
        payload = json.loads(text)
        checks.check_fit(payload, alpha, beta, FIT_ROWS)
        require(json.loads(report_path.read_text()) == payload, "fit report differs from stdout")

    return [
        Op("verify_s", lambda: cli_call(verify_argv), check_verify, _cli_failed),
        Op("residual_s", run_residuals, check_residuals),
        Op("fit_s", lambda: cli_call(fit_argv), check_fit, _cli_failed),
    ]


def _joined(*parts):
    """A workload whose rounds run the operations of every part in turn."""

    def build(seed: int, work: Path, counters: Counters) -> list[Op]:
        return [op for part in parts for op in part(seed, work, counters)]

    return build


# Each workload pairs an operation group that one planned optimisation
# serves with groups that another serves, so that each optimisation has a
# workload that runs its mechanism and one that bypasses it.
WORKLOADS = {
    "affine_forms": _joined(figures_affine, closed_forms),
    "general_weights": _joined(solve_general, rs_weights),
}
