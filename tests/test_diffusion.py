import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sustkit import diffusion
from sustkit.diffusion import (
    MAX_LATTICE_POINTS,
    MAX_STEPS,
    AffineRule,
    NonFiniteFieldError,
    ScalarField,
    ScenarioSpec,
    StabilityError,
    convergence_study,
    field_from_json,
    field_to_csv,
    field_to_json,
    manufactured_exponential,
    manufactured_quadratic,
    run_scenario,
    scenario_from_json,
    stable_dt,
    step_explicit,
)
from sustkit.diffusion import _ftcs_stepper, _iterates, _lattice, _sine_modes


def unit_square_spec(resolution=11, t_end=1.0, boundary=None, initial=None, k=2):
    return ScenarioSpec(
        domain=tuple((0.0, 1.0) for _ in range(k)),
        resolution=tuple(resolution for _ in range(k)),
        boundary_rule=boundary or (lambda coords, t: 10.0 * t),
        initial_rule=initial or (lambda coords: 0.0),
        t_end=t_end,
    )


def field_from_rule(spec: ScenarioSpec, rule, time: float) -> ScalarField:
    fld = spec.initial_field()
    fld.values[...] = np.broadcast_to(
        np.asarray(rule(fld.coordinate_grids(), time), dtype=float), fld.extents
    )
    fld.time = time
    return fld


# -- stepping -------------------------------------------------------------------


def test_stable_dt_formula():
    assert stable_dt((0.5, 0.25)) == pytest.approx(0.9 / (2.0 * (4.0 + 16.0)))


def test_step_rejects_unstable_dt():
    spec = unit_square_spec()
    fld = spec.initial_field()
    bound = stable_dt(fld.spacings)
    with pytest.raises(StabilityError):
        step_explicit(fld, spec.boundary_rule, 1.5 * bound)


def test_step_rejects_non_positive_dt():
    spec = unit_square_spec()
    fld = spec.initial_field()
    with pytest.raises(ValueError):
        step_explicit(fld, spec.boundary_rule, 0.0)


def test_constant_field_is_a_fixed_point():
    const = 3.25
    spec = unit_square_spec(
        boundary=lambda coords, t: const, initial=lambda coords: const
    )
    fld = spec.initial_field()
    stepped = step_explicit(fld, spec.boundary_rule, stable_dt(fld.spacings))
    assert np.array_equal(stepped.values, fld.values)


def test_quadratic_solution_propagated_exactly():
    # Space-quadratic, time-linear fields are exact for the FTCS stencil.
    exact = manufactured_quadratic(2)
    spec = unit_square_spec(resolution=21, boundary=exact)
    fld = field_from_rule(spec, exact, time=0.5)
    dt = stable_dt(fld.spacings)
    stepped = step_explicit(fld, exact, dt)
    expected = field_from_rule(spec, exact, time=0.5 + dt)
    assert float(np.max(np.abs(stepped.values - expected.values))) < 1e-10


def test_step_aborts_on_non_finite():
    spec = unit_square_spec()
    fld = spec.initial_field()
    fld.values[5, 5] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteFieldError):
        step_explicit(fld, spec.boundary_rule, stable_dt(fld.spacings))


def test_boundary_nodes_equal_rule_after_step():
    spec = unit_square_spec()
    fld = spec.initial_field()
    dt = stable_dt(fld.spacings)
    stepped = step_explicit(fld, spec.boundary_rule, dt)
    mask = _boundary_mask(stepped)
    assert np.all(stepped.values[mask] == 10.0 * stepped.time)


# -- the in-place stepping kernel against the allocating reference -----------------


def _interior_laplacian(u, spacings):
    """Reference: the discrete Laplacian of the interior as computed before
    the in-place stepper, with fresh arrays for every term."""
    k = u.ndim
    core = tuple(slice(1, -1) for _ in range(k))
    lap = np.zeros_like(u[core])
    for a in range(k):
        lo = list(core)
        lo[a] = slice(0, -2)
        hi = list(core)
        hi[a] = slice(2, None)
        lap += (u[tuple(hi)] - 2.0 * u[core] + u[tuple(lo)]) / spacings[a] ** 2
    return lap


def _boundary_faces(field: ScalarField):
    """(index, coords) for every boundary face of a lattice: the face's
    index and its slice of each coordinate grid."""
    grids, whole = field.coordinate_grids(), (slice(None),) * field.k
    faces = []
    for a in range(field.k):
        for side in (0, -1):
            idx = whole[:a] + (side,) + whole[a + 1:]
            faces.append((idx, tuple([g[idx] for g in grids])))
    return faces


def _apply_boundary(values, faces, rule, t):
    """Reference boundary write: the rule called on each face in turn with
    that face's coordinates, and its value written there."""
    for idx, coords in faces:
        values[idx] = rule(coords, t)


def _reference_step(u, faces, spacings, rule, dt, t_new):
    """Reference FTCS successor of ``u``: ``u + dt*lap`` inside, the rule on
    the boundary, face by face."""
    core = tuple(slice(1, -1) for _ in range(u.ndim))
    out = np.empty_like(u)
    out[core] = u[core] + dt * _interior_laplacian(u, spacings)
    _apply_boundary(out, faces, rule, t_new)
    return out


def _bits(values):
    return values.view(np.int64)


def _boundary_mask(fld):
    """True on the nodes of the lattice's boundary, corners included."""
    mask = np.ones(fld.extents, dtype=bool)
    mask[tuple(slice(1, -1) for _ in range(fld.k))] = False
    return mask


def _wavy_rule(coords, t):
    return sum(np.sin((a + 1.0) * c + t) for a, c in enumerate(coords)) * (1.0 + t)


# Non-square lattices, 3-point axes (a one-node interior) and k = 1, 2, 3.
KERNEL_LATTICES = [
    ((7,), ((0.0, 1.0),)),
    ((3,), ((-1.0, 2.0),)),
    ((9, 5), ((0.0, 1.0), (-1.0, 2.0))),
    ((3, 6), ((0.0, 0.5), (0.0, 3.0))),
    ((4, 3, 6), ((0.0, 1.0), (0.0, 0.2), (-2.0, 1.0))),
    ((3, 3, 3), ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))),
]


def _rough_field(extents, domain, seed):
    """Values over nine decades with signed zeros mixed in."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(extents) * 10.0 ** rng.integers(-4, 5, extents)
    values[rng.random(extents) < 0.15] = -0.0
    values[rng.random(extents) < 0.15] = 0.0
    return ScalarField(
        k=len(extents),
        extents=extents,
        spacings=tuple((hi - lo) / (n - 1) for (lo, hi), n in zip(domain, extents)),
        origin=tuple(lo for lo, _ in domain),
        values=values,
    )


@pytest.mark.parametrize("dt_factor", [1.0, 0.37], ids=["at_bound", "below_bound"])
@pytest.mark.parametrize("extents, domain", KERNEL_LATTICES, ids=str)
def test_stepper_matches_reference_bit_for_bit(extents, domain, dt_factor):
    fld = _rough_field(extents, domain, seed=sum(extents))
    faces, lattice = _boundary_faces(fld), _lattice(fld.extents, fld.spacings, fld.origin)
    dt = dt_factor * stable_dt(fld.spacings)
    step = _ftcs_stepper(lattice)
    ref, u, out = fld.values.copy(), fld.values.copy(), np.empty_like(fld.values)
    for n in range(1, 31):
        ref = _reference_step(ref, faces, fld.spacings, _wavy_rule, dt, n * dt)
        step(u.reshape(-1), out.reshape(-1), _wavy_rule(lattice.coords, n * dt), dt, n * dt)
        assert np.array_equal(_bits(out), _bits(ref)), n
        u, out = out, u
    # step_explicit builds its own stepper per call and gives the same bits
    one = step_explicit(fld, _wavy_rule, dt)
    assert np.array_equal(
        _bits(one.values), _bits(_reference_step(fld.values, faces, fld.spacings, _wavy_rule, dt, dt)))


@pytest.mark.parametrize("extents, domain", KERNEL_LATTICES, ids=str)
def test_stepper_keeps_signed_zeros_as_the_reference(extents, domain):
    fld = _rough_field(extents, domain, seed=1)
    faces, lattice = _boundary_faces(fld), _lattice(fld.extents, fld.spacings, fld.origin)
    dt = stable_dt(fld.spacings)
    for fill in (-0.0, 0.0):
        for rule in (lambda coords, t: -0.0, lambda coords, t: 0.0):
            u = np.full(fld.extents, fill)
            u[np.indices(fld.extents).sum(axis=0) % 2 == 1] = -fill  # checkerboard of zeros
            out = np.empty_like(u)
            _ftcs_stepper(lattice)(u.reshape(-1), out.reshape(-1), rule(lattice.coords, dt),
                                   dt, dt)
            want = _reference_step(u, faces, fld.spacings, rule, dt, dt)
            assert np.array_equal(_bits(out), _bits(want))


def test_run_scenario_matches_reference_over_200_steps():
    dt = 2.0**-12
    spec = ScenarioSpec(
        domain=((0.0, 1.0), (-1.0, 1.5)),
        resolution=(17, 26),
        boundary_rule=_wavy_rule,
        initial_rule=lambda coords: _wavy_rule(coords, 0.0),
        t_end=200 * dt,
        dt=dt,
    )
    got = run_scenario(spec, [100 * dt, 200 * dt])
    fld = spec.initial_field()
    faces = _boundary_faces(fld)
    ref = fld.values
    for n in range(1, 201):
        ref = _reference_step(ref, faces, fld.spacings, _wavy_rule, dt, n * dt)
        if n in (100, 200):
            assert np.array_equal(_bits(got[n // 100 - 1].values), _bits(ref)), n


def test_interleaved_runs_share_no_buffers():
    # Two runs on the same lattice, advanced alternately, each give the
    # iterates they give when run alone.
    spec = unit_square_spec(resolution=13)
    dt = spec.resolved_dt()
    steps = list(range(1, 41))

    def run(rule, scale):
        fld = spec.initial_field()
        fld.values[...] = scale * _rough_field(fld.extents, spec.domain, seed=scale).values
        return _iterates(fld, rule, dt, steps)

    def slow(coords, t):
        return np.cos(coords[0] * coords[1] + t)

    alone_a = [values.copy() for _, values in run(_wavy_rule, 1)]
    alone_b = [values.copy() for _, values in run(slow, 2)]
    for n, ((_, a), (_, b)) in enumerate(zip(run(_wavy_rule, 1), run(slow, 2))):
        assert np.array_equal(_bits(a), _bits(alone_a[n]))
        assert np.array_equal(_bits(b), _bits(alone_b[n]))


def test_concurrent_runs_share_no_buffers():
    # Scenario runs may execute concurrently: four threads stepping the same
    # lattice, switching every microsecond, each get the run-alone result.
    def spec_for(shift):
        return unit_square_spec(
            resolution=15, t_end=0.02,
            boundary=lambda coords, t: np.sin(coords[0] + shift * t) + coords[1] * t,
            initial=lambda coords: shift * coords[0] * coords[1])

    shifts = [1.0, 2.0, 3.0, 4.0]
    alone = [run_scenario(spec_for(c), [0.02])[0].values for c in shifts]
    results = [None] * len(shifts)

    def work(i):
        results[i] = run_scenario(spec_for(shifts[i]), [0.02])[0].values

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(shifts))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    for got, want in zip(results, alone):
        assert np.array_equal(_bits(got), _bits(want))


def test_lattice_is_built_once_and_shared_read_only():
    fld = _rough_field((9, 7), ((0.0, 1.0), (-1.0, 2.0)), seed=3)
    dt = stable_dt(fld.spacings)
    fld = step_explicit(fld, _wavy_rule, dt)
    misses = diffusion._lattice.cache_info().misses
    for _ in range(200):
        fld = step_explicit(fld, _wavy_rule, dt)
    assert diffusion._lattice.cache_info().misses == misses
    lattice = _lattice(fld.extents, fld.spacings, fld.origin)
    assert not any(array.flags.writeable for array in (lattice.index, *lattice.coords))


def test_overflowing_step_raises_at_the_reference_time():
    # The boundary jumps to 1e308 after step 5; the next step's differences
    # over h^2 = 0.01 overflow next to the boundary.
    def rule(coords, t):
        return 1e308 if t > 5.5 * dt else 0.0

    spec = unit_square_spec(boundary=rule, initial=lambda coords: 0.0, t_end=0.5)
    dt = spec.resolved_dt()
    fld = spec.initial_field()
    faces = _boundary_faces(fld)
    ref, n = fld.values, 0
    with np.errstate(over="ignore", invalid="ignore"):
        while np.all(np.isfinite(ref)):
            n += 1
            ref = _reference_step(ref, faces, fld.spacings, rule, dt, n * dt)
        assert n == 7
        with pytest.raises(NonFiniteFieldError) as via_run:
            run_scenario(spec, [spec.t_end])
    assert str(via_run.value) == f"non-finite values after step to t={n * dt:g}"


def _reference_run(fld, rule, dt, steps):
    """Reference iterates of ``fld``: its boundary written face by face at
    t = 0 (as initial_field does), then ``steps`` reference steps."""
    faces = _boundary_faces(fld)
    u = fld.values.copy()
    _apply_boundary(u, faces, rule, 0.0)
    out = [u]
    for n in range(1, steps + 1):
        out.append(_reference_step(out[-1], faces, fld.spacings, rule, dt, n * dt))
    return out


def test_stepper_sums_the_laplacian_from_plus_zero():
    # -0.0 beside -5e-324 on a spacing of 10: the axis term underflows to -0.0,
    # and only a sum that starts from +0.0, as the reference's does, leaves
    # u + dt*lap at +0.0 there; a stencil that starts from the first term gives -0.0
    fld = ScalarField(k=1, extents=(5,), spacings=(10.0,), origin=(0.0,),
                      values=np.array([-5e-324, -0.0, -0.0, 0.0, 0.0]))

    def rule(coords, t):
        return np.where(coords[0] == 0.0, -5e-324, 0.0)

    dt = stable_dt(fld.spacings)
    want = _reference_step(fld.values, _boundary_faces(fld), fld.spacings, rule, dt, dt)
    assert not np.signbit(want[1])
    assert np.array_equal(_bits(step_explicit(fld, rule, dt).values), _bits(want))


@settings(max_examples=60, deadline=None)
@given(extents=st.lists(st.integers(3, 9), min_size=1, max_size=3).map(tuple),
       seed=st.integers(0, 2**16), dt_factor=st.sampled_from([1.0, 0.37]))
def test_flat_stepper_matches_the_face_by_face_reference(extents, seed, dt_factor):
    domain = tuple((-0.5 * a, 1.0 + a) for a in range(len(extents)))
    fld = _rough_field(extents, domain, seed)
    dt = dt_factor * stable_dt(fld.spacings)
    reference = _reference_run(fld, _wavy_rule, dt, 12)
    spec = ScenarioSpec(domain=domain, resolution=extents, boundary_rule=_wavy_rule,
                        initial_rule=lambda coords: fld.values, t_end=12 * dt, dt=dt)
    for got, n in zip(run_scenario(spec, [0.0, dt, 5 * dt, 12 * dt]), (0, 1, 5, 12)):
        assert np.array_equal(_bits(got.values), _bits(reference[n])), n
    # step_explicit accumulates its time, which the reference then takes too
    faces, ref, stepped = _boundary_faces(fld), reference[0], replace(fld, values=reference[0])
    for n in range(1, 6):
        ref = _reference_step(ref, faces, fld.spacings, _wavy_rule, dt, stepped.time + dt)
        stepped = step_explicit(stepped, _wavy_rule, dt)
        assert np.array_equal(_bits(stepped.values), _bits(ref)), n


def test_boundary_rule_sees_every_boundary_node_once_per_step():
    # one call per step, with k read-only 1-D arrays: the coordinates of the
    # nodes of _boundary_mask(), in row-major order; step_explicit calls once
    seen = []

    def rule(coords, t):
        seen.append((t, coords))
        return _wavy_rule(coords, t)

    for extents in [(7,), (9, 5), (4, 3, 6)]:
        seen.clear()
        spec = ScenarioSpec(domain=tuple((-1.0, 2.0 + a) for a in range(len(extents))),
                            resolution=extents, boundary_rule=rule,
                            initial_rule=lambda coords: 0.0, t_end=100.0)
        dt = spec.resolved_dt()
        run_scenario(spec, [10 * dt])
        assert [t for t, _ in seen] == [n * dt for n in range(11)]
        fld = spec.initial_field()
        mask = _boundary_mask(fld)
        want = [np.broadcast_to(g, fld.extents)[mask] for g in fld.coordinate_grids()]
        for _, coords in seen:
            assert len(coords) == len(extents)
            for c, w in zip(coords, want):
                assert c.ndim == 1 and np.array_equal(_bits(c), _bits(w))
                with pytest.raises(ValueError):
                    c[0] = 1.0
        seen.clear()
        step_explicit(fld, rule, dt)
        assert len(seen) == 1


@pytest.mark.parametrize("extents", [(9, 7), (3, 4), (5, 4, 6)], ids=str)
def test_corner_values_out_of_the_stencil_stay_quiet(extents):
    # No interior node reads a corner, but the flat stencil's boundary nodes,
    # whose results are discarded, do: corners at 1e308 overflow there only.
    spec = ScenarioSpec(domain=tuple((0.0, 1.0 + a) for a in range(len(extents))),
                        resolution=extents, boundary_rule=None,
                        initial_rule=lambda coords: 0.0, t_end=100.0)
    ends = [(0.0, h * (n - 1)) for h, n in zip(spec.spacings(), extents)]

    def rule(coords, t):
        corner = True
        for c, (lo, hi) in zip(coords, ends):
            corner = corner & ((c == lo) | (c == hi))
        return np.where(corner, 1e308, np.sin(sum(coords) + t))

    spec = replace(spec, boundary_rule=rule)
    dt = spec.resolved_dt()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run_scenario(spec, [20 * dt])[0]
        once = step_explicit(spec.initial_field(), rule, dt)
    reference = _reference_run(spec.initial_field(), rule, dt, 20)
    assert np.all(np.isfinite(got.values))
    assert np.array_equal(_bits(got.values), _bits(reference[20]))
    assert np.array_equal(_bits(once.values), _bits(reference[1]))


# run under -W error in a fresh interpreter, where a warning at import or at any
# step is an exception
RULE_CALLS_AND_QUIET_CORNERS = """
import numpy as np
from sustkit.diffusion import ScenarioSpec, run_scenario
calls = []
def wavy(coords, t):
    calls.append(t)
    return np.sin(coords[0] + 2.0 * coords[1] + t)
def corners(coords, t):
    x, y = coords
    return np.where(((x == 0.0) | (x == 1.0)) & ((y == 0.0) | (y == 2.0)), 1e308, 0.5)
for rule in (wavy, corners):
    spec = ScenarioSpec(domain=((0.0, 1.0), (0.0, 2.0)), resolution=(11, 21),
                        boundary_rule=rule, initial_rule=lambda coords: 0.0, t_end=0.01)
    steps = round(spec.t_end / spec.resolved_dt())
    final = run_scenario(spec, [spec.t_end])[0]
    assert np.isfinite(final.values).all(), rule.__name__
assert len(calls) == steps + 1, (len(calls), steps)
"""


def test_rule_calls_and_quiet_corners_under_warnings_as_errors():
    # a rule not affine in t is called once for the initial field and once per
    # step; corners at 1e308, which no interior node reads, raise no warning
    proc = subprocess.run([sys.executable, "-W", "error", "-c", RULE_CALLS_AND_QUIET_CORNERS],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# -- scenarios --------------------------------------------------------------------


def test_scenario_validation():
    with pytest.raises(ValueError):
        unit_square_spec(resolution=2)
    with pytest.raises(ValueError):
        unit_square_spec(t_end=0.0)
    with pytest.raises(ValueError):
        ScenarioSpec(
            domain=((0.0, 1.0), (1.0, 1.0)),
            resolution=(5, 5),
            boundary_rule=lambda c, t: 0.0,
            initial_rule=lambda c: 0.0,
        )


def test_lattice_budget_admits_2048_squared_and_no_more():
    # specs only: nothing is allocated before a run
    from sustkit.pavement import figure_scenarios

    assert MAX_LATTICE_POINTS == 2048**2
    assert max(math.prod(spec.resolution) for spec in figure_scenarios("fig4", 2048)) == 2048**2
    with pytest.raises(ValueError, match="a lattice of 4198401 points exceeds "
                                         "MAX_LATTICE_POINTS = 4194304"):
        figure_scenarios("fig4", 2049)
    with pytest.raises(ValueError, match="MAX_LATTICE_POINTS"):
        scenario_from_json({"domain": [[0.0, 1.0]] * 3, "resolution": [162] * 3, "t_end": 0.1})


@pytest.mark.parametrize("resolution", [(5, 7), (7, 5), (3, 4, 3)], ids=str)
def test_lattice_budget_edge(monkeypatch, resolution):
    # a lattice of exactly the budget runs; one more point per row is refused
    budget = math.prod(resolution)
    monkeypatch.setattr(diffusion, "MAX_LATTICE_POINTS", budget)
    spec = ScenarioSpec(domain=((0.0, 1.0),) * len(resolution), resolution=resolution,
                        boundary_rule=AffineRule(s=1.0), initial_rule=AffineRule(0.0),
                        t_end=0.01)
    assert run_scenario(spec, [spec.t_end])[0].values.shape == resolution
    bigger = resolution[:-1] + (resolution[-1] + 1,)
    points = math.prod(bigger)
    with pytest.raises(ValueError, match=f"^a lattice of {points} points exceeds "
                                         f"MAX_LATTICE_POINTS = {budget}$"):
        replace(spec, resolution=bigger)


def test_explicit_dt_above_bound_rejected():
    spec = unit_square_spec()
    spec.dt = 10.0
    with pytest.raises(StabilityError):
        run_scenario(spec, [spec.t_end])


def test_snapshot_times_must_lie_in_range():
    spec = unit_square_spec(t_end=1.0)
    with pytest.raises(ValueError):
        run_scenario(spec, [2.0])


def test_initial_snapshot_is_all_zero():
    spec = unit_square_spec()
    first = run_scenario(spec, [0.0])[0]
    assert first.time == 0.0
    assert np.all(first.values == 0.0)


def test_snapshots_snap_to_nearest_step():
    spec = unit_square_spec(t_end=0.1)
    dt = spec.resolved_dt()
    snap = run_scenario(spec, [0.05])[0]
    assert snap.time == pytest.approx(round(0.05 / dt) * dt, rel=1e-12)
    assert abs(snap.time - 0.05) <= 0.5 * dt + 1e-12


def test_boundary_identity_at_every_snapshot():
    spec = unit_square_spec(t_end=0.5)
    for fld in run_scenario(spec, [0.0, 0.25, 0.5]):
        mask = _boundary_mask(fld)
        assert np.all(fld.values[mask] == 10.0 * fld.time)


def test_symmetric_scenario_stays_symmetric():
    spec = ScenarioSpec(
        domain=((0.0, 9.0), (0.0, 9.0)),
        resolution=(31, 31),
        boundary_rule=lambda coords, t: 10.0 * t,
        initial_rule=lambda coords: 0.0,
        t_end=2.0,
    )
    final = run_scenario(spec, [2.0])[0]
    assert float(np.max(np.abs(final.values - final.values.T))) < 1e-12


def test_asymmetric_domain_breaks_axis_symmetry():
    spec = ScenarioSpec(
        domain=((0.0, 10.0), (0.0, 15.0)),
        resolution=(21, 31),
        boundary_rule=lambda coords, t: 10.0 * t,
        initial_rule=lambda coords: 0.0,
        t_end=2.0,
    )
    final = run_scenario(spec, [2.0])[0]
    # (5, 7.5) sits 5 from the nearest edge, its swap (7.5, 5) only 2.5.
    a = final.values[10, 15]
    b = final.values[15, 10]
    assert abs(a - b) > 1e-3


def test_interior_bounded_by_monotone_boundary_forcing():
    spec = unit_square_spec(t_end=0.5)
    for fld in run_scenario(spec, [0.1, 0.3, 0.5]):
        interior = fld.values[1:-1, 1:-1]
        assert np.all(interior >= 0.0)
        assert np.all(interior <= 10.0 * fld.time * (1.0 + 1e-12))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_dimensions_one_to_three_supported(k):
    exact = manufactured_quadratic(k)
    spec = ScenarioSpec(
        domain=tuple((0.0, 1.0) for _ in range(k)),
        resolution=tuple(9 for _ in range(k)),
        boundary_rule=exact,
        initial_rule=lambda coords: exact(coords, 0.0),
        t_end=0.2,
    )
    final = run_scenario(spec, [0.2])[0]
    expected = np.broadcast_to(
        np.asarray(exact(final.coordinate_grids(), final.time), dtype=float),
        final.extents,
    )
    assert float(np.max(np.abs(final.values - expected))) < 1e-10


# -- manufactured-solution verification ---------------------------------------------


def test_quadratic_manufactured_run_is_discretely_exact():
    result = convergence_study(manufactured_quadratic(2), [11, 21], t_end=1.0)
    assert all(e < 1e-8 for e in result.max_errors)


def test_constant_manufactured_solution_has_zero_error():
    const = lambda coords, t: 7.0  # noqa: E731
    result = convergence_study(const, [9], t_end=0.3)
    assert result.max_errors == [0.0]


def test_exponential_manufactured_second_order():
    result = convergence_study(
        manufactured_exponential(2), [11, 21, 41], t_end=0.1
    )
    assert len(result.observed_orders) == 2
    assert min(result.observed_orders) >= 1.9


def test_agrees_with_method_of_lines_reference():
    # Independent route: the same semi-discrete system (interior ODEs with
    # the s*t boundary data substituted) integrated by scipy's RK45.  The
    # FTCS run must land within its own O(dt) distance of that reference.
    from scipy.integrate import solve_ivp

    n = 9
    s, t_end = 10.0, 0.5
    spec = ScenarioSpec(
        domain=((0.0, 1.0), (0.0, 1.0)),
        resolution=(n, n),
        boundary_rule=lambda coords, t: s * t,
        initial_rule=lambda coords: 0.0,
        t_end=t_end,
    )
    ours = run_scenario(spec, [t_end])[0]
    h = 1.0 / (n - 1)
    m = n - 2  # interior points per axis

    def rhs(t, y):
        u = np.zeros((n, n))
        u[1:-1, 1:-1] = y.reshape(m, m)
        u[0, :] = u[-1, :] = u[:, 0] = u[:, -1] = s * t
        lap = (
            u[2:, 1:-1] - 2.0 * u[1:-1, 1:-1] + u[:-2, 1:-1]
            + u[1:-1, 2:] - 2.0 * u[1:-1, 1:-1] + u[1:-1, :-2]
        ) / h**2
        return lap.ravel()

    sol = solve_ivp(
        rhs, (0.0, ours.time), np.zeros(m * m), rtol=1e-10, atol=1e-12,
        method="RK45",
    )
    reference = sol.y[:, -1].reshape(m, m)
    gap = float(np.max(np.abs(ours.values[1:-1, 1:-1] - reference)))
    # Shared spatial grid, so only the Euler-vs-RK45 time error remains;
    # measured ~1.4e-5 on a field of scale ~5.
    assert gap < 1e-3


def test_lattice_refusals_name_their_cause():
    with pytest.raises(ValueError, match="extents, spacings and origin must all have length k"):
        ScalarField(k=2, extents=(3, 3), spacings=(0.5,), origin=(0.0, 0.0),
                    values=np.zeros((3, 3)))
    with pytest.raises(ValueError, match=r"values shape \(3, 4\) != extents \(3, 3\)"):
        ScalarField(k=2, extents=(3, 3), spacings=(0.5, 0.5), origin=(0.0, 0.0),
                    values=np.zeros((3, 4)))
    with pytest.raises(ValueError, match="domain and resolution must have equal length"):
        ScenarioSpec(domain=((0.0, 1.0), (0.0, 1.0)), resolution=(5,),
                     boundary_rule=AffineRule(), initial_rule=AffineRule())
    fld = ScalarField(k=2, extents=(2, 5), spacings=(1.0, 0.25), origin=(0.0, 0.0),
                      values=np.zeros((2, 5)))
    with pytest.raises(ValueError, match="stepping needs at least 3 points per axis"):
        step_explicit(fld, AffineRule(), 1e-3)


# -- IO ------------------------------------------------------------------------------


def test_field_csv_export(tmp_path):
    spec = unit_square_spec(resolution=5)
    fld = run_scenario(spec, [spec.t_end])[0]
    path = tmp_path / "field.csv"
    field_to_csv(fld, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "psi1,psi2,value"
    assert len(lines) == 1 + 5 * 5
    first = [float(v) for v in lines[1].split(",")]
    assert first[:2] == [0.0, 0.0]
    assert first[2] == 10.0 * fld.time  # corner carries the boundary value


# -- the grid writer against the one-call reference ---------------------------------


def _reference_csv(field, path):
    """The writer field_to_csv replaced: every coordinate of every row is
    formatted again, and the whole table in one ``%`` call."""
    grids = np.meshgrid(*(field.axis_coords(a) for a in range(field.k)), indexing="ij")
    table = np.column_stack([g.ravel() for g in grids] + [field.values.ravel()])
    header = ",".join([f"psi{a + 1}" for a in range(field.k)] + ["value"]) + "\r\n"
    row = "%.17g," * field.k + "%.17g\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + row * len(table) % tuple(table.ravel().tolist()))


def _csv_bytes_match_reference(fld, directory) -> bytes:
    got, want = directory / "got.csv", directory / "want.csv"
    field_to_csv(fld, got)
    _reference_csv(fld, want)
    data = got.read_bytes()
    assert data == want.read_bytes()
    return data


SPECIAL_VALUES = [-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.5e-310,
                  1e308, -sys.float_info.max, 1 / 3, -1e-300]


REFERENCE_LATTICES = [
    ((15,), (0.0,), (0.1,)),
    ((4, 6), (-3.0, 1e-300), (1e-9, 1 / 3)),
    ((3, 3), (-1e5, -0.0), (0.25, 1e-9)),
    ((5, 3, 4), (1e-300, -1e5, 2.0), (1 / 3, 0.1, 1e-9)),
    ((3, 4, 3, 2), (-1.0, 0.5, -1e5, 1e-300), (0.5, 1 / 3, 1e-9, 7.0)),
    ((0,), (0.0,), (0.1,)),
    ((0, 3), (-1e5, 0.0), (1 / 3, 0.1)),
    ((4, 0, 2), (0.0, 1e-300, -1.0), (0.1, 1e-9, 1 / 3)),
]


@pytest.mark.parametrize("extents, origin, spacings", REFERENCE_LATTICES)
def test_field_csv_matches_reference_bytes(tmp_path, extents, origin, spacings):
    n = math.prod(extents)
    rng = np.random.default_rng(n)
    values = np.concatenate([SPECIAL_VALUES, rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)])
    values = rng.permutation(values[:n]).reshape(extents)
    fld = ScalarField(k=len(extents), extents=extents, spacings=spacings, origin=origin,
                      values=values)
    text = _csv_bytes_match_reference(fld, tmp_path)
    assert text.count(b"\r\n") == 1 + n
    if n == 0:  # an axis with no points: the header alone
        assert text == b",".join(b"psi%d" % (a + 1) for a in range(len(extents))) + b",value\r\n"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=3).flatmap(lambda ext: st.tuples(
    st.just(tuple(ext)),
    st.lists(st.floats(-1e6, 1e6), min_size=len(ext), max_size=len(ext)),
    st.lists(st.floats(1e-12, 1e3), min_size=len(ext), max_size=len(ext)),
    st.lists(st.floats(), min_size=math.prod(ext), max_size=math.prod(ext)))))
def test_field_csv_matches_reference_on_random_lattices(case):
    extents, origin, spacings, values = case
    fld = ScalarField(k=len(extents), extents=extents, spacings=spacings, origin=origin,
                      values=np.array(values, dtype=float).reshape(extents))
    with tempfile.TemporaryDirectory() as directory:
        _csv_bytes_match_reference(fld, Path(directory))


# rows of up to 15 cells in pieces of 2 and 3: split evenly, unevenly and not at all
@pytest.mark.parametrize("chunk", [2, 3])
@pytest.mark.parametrize("extents, origin, spacings", REFERENCE_LATTICES)
def test_field_csv_in_pieces_matches_reference_bytes(tmp_path, monkeypatch, chunk, extents,
                                                     origin, spacings):
    monkeypatch.setattr(diffusion, "_CHUNK", chunk)
    test_field_csv_matches_reference_bytes(tmp_path, extents, origin, spacings)


@pytest.mark.parametrize("chunk", [2, 3])
def test_field_csv_in_pieces_matches_reference_on_random_lattices(monkeypatch, chunk):
    monkeypatch.setattr(diffusion, "_CHUNK", chunk)
    test_field_csv_matches_reference_on_random_lattices()


def test_field_csv_holds_one_lattice_row_at_a_time():
    # a 256 x 256 grid's text and a tuple of its values would take 13 MiB; the
    # text of a whole axis would take 11, 5.7 and 3.8 MiB on the three long axes
    for extents in [(256, 256), (2**16,), (2, 2**15), (2**15, 2)]:
        values = np.random.default_rng(3).standard_normal(extents)
        fld = ScalarField(k=len(extents), extents=extents, spacings=(1e-3, 1 / 3)[:len(extents)],
                          origin=(-0.5, 0.0)[:len(extents)], values=values)
        tracemalloc.start()
        try:
            field_to_csv(fld, os.devnull)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, extents


def _json_dump_reference(fld, path):
    """The bytes field_to_json wrote with the pure-Python json.dump encoder."""
    data = {"k": fld.k, "extents": list(fld.extents), "spacings": list(fld.spacings),
            "origin": list(fld.origin), "time": fld.time, "values": fld.values.ravel().tolist()}
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True)
        fh.write("\n")
    return path.read_bytes()


# 1, 7 and 59 split the 60 values unevenly; 60 and 4096 leave them whole
@pytest.mark.parametrize("chunk", [1, 7, 59, 60, 4096])
def test_field_json_bytes_match_json_dump(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(diffusion, "_CHUNK", chunk)
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308,
                1.7976931348623157e308, 0.1, 1 / 3, -2 / 3, 123456789.01234567, 1e16 + 2.0]
    rng = np.random.default_rng(7)
    scales = 10.0 ** rng.integers(-300, 300, 46)
    values = np.concatenate([specials, rng.standard_normal(46) * scales])
    fld = ScalarField(k=2, extents=(6, 10), spacings=(1 / 3, 0.1), origin=(-0.0, 1e-310),
                      values=values.reshape(6, 10), time=0.30000000000000004)
    path = tmp_path / "field.json"
    field_to_json(fld, path)
    assert path.read_bytes() == _json_dump_reference(fld, tmp_path / "reference.json")
    assert np.array_equal(_bits(field_from_json(path).values.ravel()), _bits(values))
    empty = ScalarField(k=1, extents=(0,), spacings=(0.5,), origin=(1.0,), values=np.empty(0))
    field_to_json(empty, path)
    assert path.read_bytes() == _json_dump_reference(empty, tmp_path / "reference.json")


def test_field_json_round_trip(tmp_path):
    spec = unit_square_spec(resolution=5)
    fld = run_scenario(spec, [spec.t_end])[0]
    path = tmp_path / "field.json"
    field_to_json(fld, path)
    back = field_from_json(path)
    assert back.extents == fld.extents
    assert back.time == fld.time
    assert np.array_equal(back.values, fld.values)


def test_scenario_from_json_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {
                "domain": [[0.0, 9.0], [0.0, 9.0]],
                "resolution": [9, 9],
                "s": 10.0,
                "t_end": 0.5,
                "boundary": "s*t",
                "initial": 0.0,
            }
        )
    )
    spec = scenario_from_json(path)
    final = run_scenario(spec, [0.5])[0]
    mask = _boundary_mask(final)
    assert np.all(final.values[mask] == 10.0 * final.time)


def test_scenario_from_json_constant_boundary():
    spec = scenario_from_json(
        {
            "domain": [[0.0, 1.0], [0.0, 1.0]],
            "resolution": [5, 5],
            "t_end": 0.1,
            "boundary": 2.0,
            "initial": 2.0,
        }
    )
    final = run_scenario(spec, [0.1])[0]
    assert np.all(final.values == 2.0)


def test_scenario_from_json_rejects_unknown_rules():
    base = {
        "domain": [[0.0, 1.0], [0.0, 1.0]],
        "resolution": [5, 5],
        "t_end": 0.1,
    }
    with pytest.raises(ValueError):
        scenario_from_json({**base, "boundary": "t*s"})
    with pytest.raises(ValueError):
        scenario_from_json({**base, "initial": "ramp"})


def test_scenario_from_json_names_unknown_keys():
    base = {"domain": [[0.0, 1.0]], "resolution": [5], "t_end": 0.1}
    with pytest.raises(ValueError, match=r"unknown fields \['boundry', 'intial'\]"):
        scenario_from_json({**base, "boundry": 5, "intial": 3})


@pytest.mark.parametrize("text", ["5", "[1, 2]", '"spec"', "null"])
def test_scenario_from_json_needs_an_object(tmp_path, text):
    path = tmp_path / "spec.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="must be a JSON object"):
        scenario_from_json(path)


# -- validation, step count and the shared step -----------------------------------


@pytest.mark.parametrize("dt", [0.0, -1.0, float("nan"), float("inf")])
def test_scenario_rejects_bad_dt(dt):
    with pytest.raises(ValueError):
        ScenarioSpec(
            domain=((0.0, 1.0), (0.0, 1.0)),
            resolution=(5, 5),
            boundary_rule=lambda c, t: 0.0,
            initial_rule=lambda c: 0.0,
            dt=dt,
        )
    spec = unit_square_spec()
    spec.dt = dt  # set after construction, as `sustkit solve --dt` does
    with pytest.raises(ValueError):
        run_scenario(spec, [spec.t_end])
    with pytest.raises(ValueError):
        step_explicit(spec.initial_field(), spec.boundary_rule, dt)


def test_scenario_rejects_infinite_t_end():
    with pytest.raises(ValueError):
        unit_square_spec(t_end=float("inf"))


@pytest.mark.parametrize("axis", [(float("nan"), 1.0), (0.0, float("nan")), (0.0, float("inf"))])
def test_scenario_rejects_non_finite_domain(axis):
    with pytest.raises(ValueError):
        ScenarioSpec(
            domain=((0.0, 1.0), axis),
            resolution=(5, 5),
            boundary_rule=lambda c, t: 0.0,
            initial_rule=lambda c: 0.0,
        )


def test_run_stops_at_last_requested_snapshot():
    # fig4 panel d at t_end = 0.5: dt = 0.00225, so t_end/dt = 222.2 and the
    # t_end snapshot is step 222; the boundary rule runs once for the
    # initial field and once for each step.
    from dataclasses import replace

    from sustkit.pavement import figure_scenarios

    spec = figure_scenarios("fig4", t_end=0.5)[3]
    calls = []

    def rule(coords, t):
        calls.append(t)
        return 10.0 * t

    fields = run_scenario(replace(spec, boundary_rule=rule), [0.0, 0.5])
    assert len(calls) == 1 + 222
    assert fields[1].time == 222 * spec.resolved_dt()


def test_run_scenario_matches_repeated_step_explicit():
    # dt is a power of two, so step*dt (run_scenario) and the accumulated
    # time (step_explicit) are the same doubles and the boundary rule sees
    # the same t; the stepping itself must then agree bit for bit.
    def rule(coords, t):
        x, y = coords
        return np.sin(3.0 * x + t) * np.cos(2.0 * y) + t * t

    dt = 2.0**-10
    n = 40
    spec = ScenarioSpec(
        domain=((0.0, 1.0), (0.0, 2.0)),
        resolution=(13, 21),
        boundary_rule=rule,
        initial_rule=lambda coords: rule(coords, 0.0),
        t_end=n * dt,
        dt=dt,
    )
    via_run = run_scenario(spec, [n * dt / 2, n * dt])
    fld = spec.initial_field()
    for step in range(1, n + 1):
        fld = step_explicit(fld, rule, dt)
        if step == n // 2:
            assert np.array_equal(fld.values, via_run[0].values)
            assert fld.time == via_run[0].time
    assert np.array_equal(fld.values, via_run[1].values)
    assert fld.time == via_run[1].time


def test_spec_rejects_fractional_resolution():
    with pytest.raises(ValueError, match="resolution must be a whole number >= 3"):
        ScenarioSpec(
            domain=((0.0, 1.0), (0.0, 1.0)),
            resolution=(3.7, 5),
            boundary_rule=lambda coords, t: 0.0,
            initial_rule=lambda coords: 0.0,
        )
    base = {"domain": [[0.0, 1.0], [0.0, 1.0]], "t_end": 0.1}
    with pytest.raises(ValueError, match="resolution must be a whole number >= 3"):
        scenario_from_json({**base, "resolution": [9.5, 9]})
    assert scenario_from_json({**base, "resolution": [9.0, 9]}).resolution == (9, 9)


@pytest.mark.parametrize("field", ["boundary", "initial"])
@pytest.mark.parametrize("value", [True, False])
def test_scenario_from_json_rejects_boolean_rules(tmp_path, field, value):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        {"domain": [[0.0, 1.0], [0.0, 1.0]], "resolution": [5, 5], "t_end": 0.1, field: value}
    ))
    with pytest.raises(ValueError, match=f"unsupported {field} rule"):
        scenario_from_json(path)


# -- closed form for affine data against stepping ----------------------------------


def test_affine_rule_equals_the_plain_rules_bit_for_bit():
    # -0.0 marks an omitted term, so the values (signed zeros included) are
    # those of ``lambda coords, t: s * t`` and ``lambda coords, t: c``.
    for s in (10.0, -3.5, 0.0, -0.0):
        for t in (0.0, 0.00225, 7.0):
            got, want = AffineRule(s=s)((), t), s * t
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
    for c in (2.0, -1.25, 0.0, -0.0):
        for got in (AffineRule(c)((), 0.0), AffineRule(c)((), 3.0), AffineRule(c)(())):
            assert got == c and math.copysign(1.0, got) == math.copysign(1.0, c)
    assert AffineRule(1.5, 2.0)((), 0.25) == 2.0


@pytest.mark.parametrize("a, s", [(True, 2.0), ("x", -0.0), (None, -0.0),
                                  (1.0, False), (1.0, "2"), (1.0, None)])
def test_affine_rule_refuses_non_numbers(a, s):
    # True would otherwise run as 1 and "x" fail later, inside numpy
    with pytest.raises(ValueError, match="AffineRule [as] must be a number"):
        AffineRule(a, s)


def test_affine_rule_keeps_numbers_as_given():
    rule = AffineRule(np.float64(1.5), 2)
    assert type(rule.a) is np.float64 and type(rule.s) is int
    assert rule((), 0.25) == 2.0 and rule(()) == 1.5


def stepped(spec: ScenarioSpec, times) -> list[ScalarField]:
    """The snapshots run_scenario gives for ``times``, computed by FTCS
    stepping (the reference path) whatever the rules return: the kernel is
    called directly, once per step, not through the run loop."""
    dt = spec.resolved_dt()
    fld = spec.initial_field()
    want = [round(t / dt) for t in times]
    lattice = _lattice(fld.extents, fld.spacings, fld.origin)
    step = _ftcs_stepper(lattice)
    got = {0: fld.values.copy()}
    for n in range(1, max(want) + 1):
        got[n] = np.empty(fld.extents)
        step(got[n - 1].reshape(-1), got[n].reshape(-1),
             spec.boundary_rule(lattice.coords, n * dt), dt, n * dt)
    return [replace(fld, values=got[n], time=n * dt) for n in want]


@dataclass(frozen=True)
class CountingAffineRule(AffineRule):
    """An AffineRule that records the time of every call."""

    calls: list = field(default_factory=list, compare=False)

    def __call__(self, coords, t=None):
        self.calls.append(t)
        return super().__call__(coords, t)


# (domain, resolution, a, s, initial value c or rule, dt as a fraction of
# the stability bound); at the bound (1.0) the fastest modes have
# 1 + dt*mu < 0.
AFFINE_CASES = {
    "k1_n3": (((0.0, 1.0),), (3,), -0.0, 10.0, 0.0, 1.0),
    "k1_n31_offset": (((-1.0, 2.0),), (31,), 2.5, -3.0, -1.0, 1.0),
    "k1_n17_small_dt": (((0.0, 1.0),), (17,), 0.0, 4.0, 1.0, 0.3),
    "k1_n31_varying": (((-1.0, 2.0),), (31,), 2.5, -3.0,
                       lambda coords: np.sin(3.0 * coords[0]) - 1.0, 1.0),
    "k2_square_fig": (((0.0, 9.0), (0.0, 9.0)), (19, 19), -0.0, 10.0, 0.0, 1.0),
    "k2_rectangle_offset": (((0.0, 4.0), (0.0, 6.0)), (21, 31), -1.5, 4.0, 3.0, 0.5),
    "k2_rectangle_n3": (((0.0, 1.0), (0.0, 2.0)), (3, 5), 1.0, -2.0, 1.0, 1.0),
    "k2_constant": (((0.0, 2.0), (-1.0, 1.0)), (7, 13), 1.25, 0.0, 1.25, 1.0),
    "k2_rectangle_varying": (((0.0, 4.0), (0.0, 6.0)), (21, 31), 0.5, 3.0,
                             lambda coords: np.sin(coords[0]) * np.cos(coords[1]), 1.0),
    "k3_cube_negative_s": (((0.0, 1.0),) * 3, (9, 9, 9), -0.0, -2.0, 0.5, 1.0),
    "k3_box_offset": (((0.0, 1.0), (0.0, 2.0), (0.0, 3.0)), (5, 9, 13), 0.25, 7.0, -2.0, 0.7),
    "k3_box_varying": (((0.0, 1.0), (0.0, 2.0), (0.0, 3.0)), (5, 9, 13), 0.25, 7.0,
                       lambda coords: coords[0] * coords[1] - coords[2], 0.7),
}


@pytest.mark.parametrize("case", sorted(AFFINE_CASES))
def test_affine_closed_form_matches_stepping(case):
    domain, resolution, a, s, c, dt_fraction = AFFINE_CASES[case]
    spacings = [(hi - lo) / (n - 1) for (lo, hi), n in zip(domain, resolution)]
    dt = dt_fraction * stable_dt(spacings)
    initial_rule = c if callable(c) else AffineRule(c)
    spec = ScenarioSpec(domain=domain, resolution=resolution, boundary_rule=AffineRule(a, s),
                        initial_rule=initial_rule, t_end=150 * dt, dt=dt)
    times = [0.0, dt, 7 * dt, 40.4 * dt, 150 * dt]
    counting = CountingAffineRule(a, s)
    closed = run_scenario(replace(spec, boundary_rule=counting), times)
    reference = stepped(spec, times)
    # the rule is called once at t = 0 and once at each snapshot step only
    assert counting.calls == [n * dt for n in (0, 1, 7, 40, 150)]
    boundary = _boundary_mask(reference[0])
    assert np.array_equal(closed[0].values, reference[0].values)
    lo, hi = float(reference[0].values.min()), float(reference[0].values.max())
    for got, want in zip(closed, reference):
        assert got.time == want.time
        assert np.array_equal(_bits(got.values[boundary]), _bits(want.values[boundary]))
        scale = float(np.max(np.abs(want.values)))
        assert np.max(np.abs(got.values - want.values)) <= 1e-12 * scale
        g = a + s * got.time
        assert got.values.min() >= min(lo, g) and got.values.max() <= max(hi, g)
    if s == 0.0 and c == a:
        assert all(np.all(f.values == c) for f in closed)


def test_affine_closed_form_reaches_full_scale_horizon():
    # fig4 panel a at t_end = 1000 is about 36 M steps: far past every mode's
    # decay, so the interior is the steady offset s * w with -lap w = 1.
    from sustkit.pavement import figure_scenarios

    spec = figure_scenarios("fig4")[0]
    final = run_scenario(spec, [spec.t_end])[0]
    assert final.time == round(spec.t_end / spec.resolved_dt()) * spec.resolved_dt()
    h = final.spacings[0]
    core = final.values[1:-1, 1:-1]
    u = final.values
    lap = (u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2] - 4 * core) / h**2
    # The stencil differences of values near 1e4 over h^2 = 1.2e-4 carry
    # rounding of about 4e-9 relative to s = 10.
    assert np.allclose(lap, 10.0, rtol=1e-7, atol=0.0)


def test_step_budget_refuses_rules_that_must_step():
    # fig4 panel a at t_end = 1000 is about 36 M steps, past MAX_STEPS: a
    # lambda boundary is refused before either rule is called, while an
    # AffineRule boundary reaches the horizon whatever the initial rule.
    from sustkit.pavement import figure_scenarios

    calls = []
    spec = replace(figure_scenarios("fig4")[0],
                   initial_rule=lambda coords: calls.append(coords) or 0.0)
    steps = round(spec.t_end / spec.resolved_dt())
    assert steps > MAX_STEPS
    with pytest.raises(ValueError, match=f"{steps} steps exceed MAX_STEPS.*AffineRule"):
        run_scenario(replace(spec, boundary_rule=lambda coords, t: calls.append(t) or 10.0 * t),
                     [1.0, spec.t_end])
    assert calls == []
    final = run_scenario(spec, [spec.t_end])[0]
    assert final.time == steps * spec.resolved_dt() and len(calls) == 1


@pytest.mark.parametrize("last_step", [5, 6])
def test_step_budget_counts_the_last_wanted_step(monkeypatch, last_step):
    monkeypatch.setattr(diffusion, "MAX_STEPS", 5)
    spec = unit_square_spec(resolution=5, t_end=1.0)
    dt = spec.resolved_dt()
    if last_step > 5:
        with pytest.raises(ValueError, match="6 steps exceed MAX_STEPS = 5"):
            run_scenario(spec, [0.0, last_step * dt])
    else:
        assert run_scenario(spec, [0.0, last_step * dt])[-1].time == 5 * dt


@pytest.mark.parametrize("t_end, dt", [(0.1, 1e-320), (1e308, 1e-3)])
def test_step_count_beyond_the_float_range_is_refused(t_end, dt):
    # t_end / dt is inf, which no step count can hold, affine boundary or not
    for boundary in (AffineRule(1.0), lambda coords, t: 0.0):
        spec = replace(unit_square_spec(t_end=t_end, boundary=boundary), dt=dt)
        with pytest.raises(ValueError, match="is not a finite number of steps"):
            run_scenario(spec, [t_end])


@pytest.mark.parametrize("s", [float("nan"), float("inf")])
def test_affine_non_finite_slope_is_rejected(s):
    spec = unit_square_spec(boundary=AffineRule(s=s), initial=AffineRule(0.0))
    with pytest.raises(NonFiniteFieldError):
        run_scenario(spec, [spec.t_end])
    base = {"domain": [[0.0, 1.0], [0.0, 1.0]], "resolution": [5, 5], "t_end": 0.1}
    with pytest.raises(ValueError, match="s must be finite"):
        scenario_from_json({**base, "s": s})


def test_affine_modes_that_overflow_are_refused_not_clipped():
    # fig4 panel c at s = 1e308: the closed form's forced modes overflow.  Were
    # they clipped to the range of the boundary values, the interior would read
    # 0, where the s = 1 run scaled by 1e308 reads about 0.228 * s.  At t = 1 the
    # field is finite, and the modes are scaled into range by a power of two;
    # at t = 2 s*t overflows too, and the run is refused.
    from sustkit.pavement import figure_scenarios

    spec = figure_scenarios("fig4", resolution=5, s=1e308, t_end=1.0)[2]
    got = run_scenario(spec, [spec.t_end])[0].values
    small = replace(spec, boundary_rule=AffineRule(s=math.ldexp(1e308, -60)))
    assert np.array_equal(got, np.ldexp(run_scenario(small, [spec.t_end])[0].values, 60))
    assert 0.2 * 1e308 < got[1, 1] < 0.25 * 1e308
    spec = replace(spec, t_end=2.0)
    with pytest.raises(NonFiniteFieldError, match="^non-finite values after step to t="):
        run_scenario(spec, [spec.t_end])


@pytest.mark.parametrize("field, value", [
    ("resolution", 9), ("resolution", [9, "9"]), ("domain", 5), ("domain", [[0.0, 1.0], 1.0]),
    ("domain", [[0.0, 1.0], [0.0, 1.0, 2.0]]), ("domain", [[0.0, 1.0], [0.0, "1"]]),
    ("s", True), ("s", "10"), ("t_end", "0.5"), ("dt", "0.01"), ("dt", None),
])
def test_scenario_from_json_requires_json_numbers(field, value):
    base = {"domain": [[0.0, 1.0], [0.0, 1.0]], "resolution": [9, 9], "t_end": 0.1}
    with pytest.raises(ValueError, match=field):
        scenario_from_json({**base, field: value})


def test_json_and_figure_specs_take_the_closed_form():
    from sustkit.pavement import figure_scenarios

    base = {"domain": [[0.0, 1.0], [0.0, 1.0]], "resolution": [9, 9], "t_end": 0.1}
    for spec in [scenario_from_json(base), scenario_from_json({**base, "boundary": 2.0}),
                 *figure_scenarios("fig4"), *figure_scenarios("fig5")]:
        assert isinstance(spec.boundary_rule, AffineRule)
        assert isinstance(spec.initial_rule, AffineRule)


def test_field_csv_bytes_match_csv_writer(tmp_path):
    import csv
    import io

    values = [-0.0, 5e-324, 1.0 / 3.0, 1e16, -2.5e-300, 123456789.125, 0.0, 7.0, 1e300]
    for k, extents in ((1, (9,)), (2, (3, 3)), (3, (3, 3, 1))):
        fld = ScalarField(k=k, extents=extents, spacings=(1.0 / 3.0,) * k, origin=(-0.0,) * k,
                          values=np.array(values).reshape(extents))
        path = tmp_path / f"k{k}.csv"
        field_to_csv(fld, path)
        grids = np.meshgrid(*(fld.axis_coords(a) for a in range(k)), indexing="ij")
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow([f"psi{a + 1}" for a in range(k)] + ["value"])
        for row in zip(*(g.ravel() for g in grids), fld.values.ravel()):
            writer.writerow([f"{x:.17g}" for x in row])
        assert path.read_bytes() == buf.getvalue().encode()


# -- the sine transform against the dense DST-I matrices -----------------------------


def _dst_matrix(m):
    """The orthonormal DST-I of m points as a dense matrix, symmetric and its
    own inverse; j*l is reduced modulo the period 2(m+1) so that sin sees
    small arguments."""
    j = np.arange(1, m + 1)
    return math.sqrt(2.0 / (m + 1)) * np.sin(np.pi * (np.outer(j, j) % (2 * (m + 1))) / (m + 1))


def _matrix_transform(v):
    """The reference DST-I along every axis of ``v``: one matrix product per axis."""
    for axis, m in enumerate(v.shape):
        v = np.moveaxis(np.tensordot(_dst_matrix(m), v, axes=([1], [axis])), 0, axis)
    return v


def _matrix_ones(interior):
    """The reference amplitudes of the all-ones interior: the outer product of
    each axis's matrix row sums."""
    ones = np.ones(())
    for m in interior:
        ones = np.multiply.outer(ones, _dst_matrix(m).sum(axis=1))
    return ones


# k = 1, 2, 3; 3- and 4-point axes (m = 1 and 2); non-square lattices; 91 points.
TRANSFORM_LATTICES = [(3,), (4,), (91,), (3, 3), (4, 3), (91, 4), (61, 91), (91, 91),
                      (3, 4, 5), (9, 5, 7)]


def _modes_of(extents):
    fld = ScalarField(k=len(extents), extents=extents, spacings=(0.1,) * len(extents),
                      origin=(0.0,) * len(extents), values=np.zeros(extents))
    return _sine_modes(fld, 1e-3)


def _close(got, want):
    """Within 1e-14 of the largest |value| of ``want``, shape included."""
    return got.shape == want.shape and np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("extents", TRANSFORM_LATTICES, ids=str)
def test_sine_transform_matches_the_dense_matrices_and_scipy(extents):
    import scipy.fft

    transform, _, ones = _modes_of(extents)
    interior = tuple(n - 2 for n in extents)
    v = np.random.default_rng(sum(extents)).standard_normal(interior)
    modes = transform(v)
    assert _close(modes, _matrix_transform(v))
    assert _close(modes, scipy.fft.dstn(v, type=1, norm="ortho"))
    assert _close(ones, _matrix_ones(interior))
    assert _close(ones, scipy.fft.dstn(np.ones(interior), type=1, norm="ortho"))
    assert _close(transform(modes), v)  # its own inverse


# -- modal path for spatially uniform boundary data against stepping -----------------

# k = 1, 2, 3, non-square lattices and 3-point axes (a one-node interior).
MODAL_LATTICES = [
    (((0.0, 1.0),), (17,)),
    (((-1.0, 2.0),), (3,)),
    (((0.0, 4.0), (0.0, 6.0)), (21, 31)),
    (((0.0, 1.0), (0.0, 2.0)), (3, 6)),
    (((0.0, 1.0), (0.0, 2.0), (0.0, 3.0)), (5, 9, 13)),
    (((0.0, 1.0),) * 3, (3, 3, 3)),
]
MODAL_STEPS = 120
SWITCH_STEP = 60  # the first step of a switching rule that differs across the boundary
# One float, numpy scalar or 0-d array per step, cycling through the three.
SCALAR_TYPES = (float, np.float64, np.array)


def _uniform_then_varying(calls, dt, switch_step):
    """A boundary rule that is uniform in space, 1.5 sin(3t + 0.4) - 0.2 t,
    until ``switch_step`` and varies across the boundary from then on; it
    records the time of every call in ``calls``."""
    def rule(coords, t):
        calls.append(t)
        g = 1.5 * math.sin(3.0 * t + 0.4) - 0.2 * t
        n = round(t / dt)
        if n >= switch_step:
            return g + 0.1 * sum(np.cos(np.asarray(c)) for c in coords)
        return SCALAR_TYPES[n % 3](g)

    return rule


def _counting_steppers(monkeypatch):
    """Count the FTCS kernel steps that run_scenario takes from here on."""
    taken = []
    make = diffusion._ftcs_stepper

    def counting(lattice):
        step = make(lattice)

        def counted(*args):
            taken.append(args[-1])
            step(*args)

        return counted

    monkeypatch.setattr(diffusion, "_ftcs_stepper", counting)
    return taken


@pytest.mark.parametrize("switch_step", [None, SWITCH_STEP], ids=["uniform", "turns_varying"])
@pytest.mark.parametrize("initial", ["constant", "varying"])
@pytest.mark.parametrize("dt_factor", [1.0, 0.37], ids=["at_bound", "below_bound"])
@pytest.mark.parametrize("domain, resolution", MODAL_LATTICES, ids=str)
def test_modal_path_matches_stepping(domain, resolution, dt_factor, initial, switch_step,
                                     monkeypatch):
    k = len(domain)
    spacings = [(hi - lo) / (n - 1) for (lo, hi), n in zip(domain, resolution)]
    dt = dt_factor * stable_dt(spacings)
    initial_rule = {"constant": lambda coords: 0.7,
                    "varying": lambda coords: sum(np.sin(2.0 * np.asarray(c)) for c in coords)}
    switch = MODAL_STEPS + 1 if switch_step is None else switch_step
    ref_calls, calls = [], []
    spec = ScenarioSpec(domain=domain, resolution=resolution,
                        boundary_rule=_uniform_then_varying(ref_calls, dt, switch),
                        initial_rule=initial_rule[initial], t_end=MODAL_STEPS * dt, dt=dt)
    times = [n * dt for n in (0, 1, 7, SWITCH_STEP - 1, SWITCH_STEP, SWITCH_STEP + 1,
                              MODAL_STEPS - 1, MODAL_STEPS)]
    reference = stepped(spec, times)
    taken = _counting_steppers(monkeypatch)
    got = run_scenario(replace(spec, boundary_rule=_uniform_then_varying(calls, dt, switch)),
                       times)

    # the rule runs once for the initial field and once per step; the
    # kernel runs only from the step where the boundary values differ
    assert len(calls) == 1 + MODAL_STEPS
    assert calls == ref_calls
    assert len(taken) == max(0, MODAL_STEPS + 1 - switch)
    # Tolerance: 1e-12 of the data's size, max(|H_0|, max |g|); the two
    # paths round differently, by at most about 5e-15 of it on these lattices.
    g_max = max(abs(1.5 * math.sin(3.0 * t + 0.4) - 0.2 * t) for t in calls) + 0.1 * k
    scale = max(float(np.max(np.abs(reference[0].values))), g_max)
    boundary = _boundary_mask(reference[0])
    for have, want in zip(got, reference):
        assert have.time == want.time
        assert np.array_equal(_bits(have.values[boundary]), _bits(want.values[boundary]))
        assert np.max(np.abs(have.values - want.values)) <= 1e-12 * scale


def test_modal_path_keeps_the_maximum_principle():
    # The interior stays within the range of the initial data and of every
    # boundary value so far, as the exact FTCS iterate does.  In the first
    # steps the nodes far from the boundary still hold exactly the initial
    # 1.0, the top of that range, which the modes give only to rounding.
    calls = []
    spec = ScenarioSpec(domain=((0.0, 9.0), (0.0, 9.0)), resolution=(31, 31),
                        boundary_rule=lambda coords, t: calls.append(t) or math.sin(5.0 * t),
                        initial_rule=lambda coords: 1.0, t_end=2.0)
    dt = spec.resolved_dt()
    times = [dt, 2 * dt, 0.1, 0.5, 1.0, 2.0]
    for fld in run_scenario(spec, times):
        so_far = [math.sin(5.0 * t) for t in calls if t <= fld.time]
        assert fld.values.min() >= min(1.0, *so_far)
        assert fld.values.max() <= max(1.0, *so_far)
    assert len(calls) == 1 + round(2.0 / dt)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_modal_path_non_finite_boundary_raises_at_its_step(bad):
    # A uniform but non-finite boundary value hands the run to stepping,
    # which refuses it at the step it appears, with the stepping message.
    spec = unit_square_spec(boundary=lambda coords, t: bad if t > 9.5 * dt else 1.0 - t,
                            initial=lambda coords: 0.0, t_end=0.5)
    dt = spec.resolved_dt()
    with pytest.raises(NonFiniteFieldError) as raised:
        run_scenario(spec, [spec.t_end])
    assert str(raised.value) == f"non-finite values after step to t={10 * dt:g}"


# The spec of a 91x91 run at h = 10 whose initial data, 1e307 on the
# interior, has sine modes beyond the float range.
HUGE_SPEC = {"domain": [[0, 900], [0, 900]], "resolution": [91, 91], "t_end": 1e9,
             "initial": 1e307}


@pytest.mark.parametrize("initial", [
    lambda coords: 1e307 * (-1.0) ** ((coords[0] + coords[1]) / 10.0), AffineRule(1e307)],
    ids=["checkerboard", "constant"])
@pytest.mark.parametrize("boundary", [lambda coords, t: 0.0, AffineRule(0.0)],
                         ids=["callable", "affine"])
def test_overflowing_initial_modes_step_as_the_kernel(boundary, initial, monkeypatch):
    # +-1e307 or 1e307 under a uniform boundary: the modes overflow (the
    # constant's in the transform's sums, which would warn), so the run is
    # stepped from step 1, bit for bit, and with no warning.
    spec = replace(scenario_from_json({**HUGE_SPEC, "t_end": 1.0}), boundary_rule=boundary,
                   initial_rule=initial)
    dt = spec.resolved_dt()
    times = [0.0, dt, 7 * dt, 40 * dt]
    reference = stepped(replace(spec, t_end=40 * dt), times)
    taken = _counting_steppers(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run_scenario(replace(spec, t_end=40 * dt), times)
    assert len(taken) == 40
    for have, want in zip(got, reference):
        assert have.time == want.time
        assert np.array_equal(_bits(have.values), _bits(want.values))
    assert 1e300 < np.max(np.abs(got[-1].values)) < math.inf


@pytest.mark.parametrize("last_step", [5, 6])
def test_stepped_affine_run_counts_against_the_step_budget(monkeypatch, last_step):
    # An AffineRule run whose initial modes overflow takes every step, so
    # the budget applies: refused after the t = 0 call, before any step.
    monkeypatch.setattr(diffusion, "MAX_STEPS", 5)
    spec = scenario_from_json(HUGE_SPEC)
    dt = spec.resolved_dt()
    counting = CountingAffineRule(spec.boundary_rule.a, spec.boundary_rule.s)
    taken = _counting_steppers(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if last_step > 5:
            with pytest.raises(ValueError, match="6 steps exceed MAX_STEPS = 5"):
                run_scenario(replace(spec, boundary_rule=counting), [last_step * dt])
            assert counting.calls == [0.0] and taken == []
        else:
            run_scenario(replace(spec, boundary_rule=counting), [last_step * dt])
            assert len(counting.calls) == 1 + last_step == 1 + len(taken)


def test_hand_over_at_step_one(monkeypatch):
    # Uniform at t = 0 and an array from step 1: the run steps from step 1,
    # calling the rule 1 + steps times, as a run that is never uniform.
    steps = 30
    calls, ref_calls = [], []
    spec = unit_square_spec(resolution=13, t_end=1.0,
                            initial=lambda coords: np.sin(3.0 * coords[0]) * coords[1])
    dt = spec.resolved_dt()
    spec = replace(spec, t_end=steps * dt)
    times = [0.0, dt, 2 * dt, steps * dt]
    reference = stepped(replace(spec, boundary_rule=_uniform_then_varying(ref_calls, dt, 1)),
                        times)
    taken = _counting_steppers(monkeypatch)
    got = run_scenario(replace(spec, boundary_rule=_uniform_then_varying(calls, dt, 1)), times)
    assert len(calls) == 1 + steps and calls == ref_calls
    assert len(taken) == steps
    for have, want in zip(got, reference):
        assert have.time == want.time
        assert np.array_equal(_bits(have.values), _bits(want.values))
