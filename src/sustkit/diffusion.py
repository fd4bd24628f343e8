"""Explicit finite-difference solver for the diffusion-type index model.

Forward-time centred-space (FTCS) stepping of

    dH/dt = sum_i d^2 H / dpsi_i^2      (unit diffusion coefficient)

on a rectangular lattice with time-dependent Dirichlet boundary data.
Dimension k = 2 is the main use; k = 1..3 are supported.

Rule callables are vectorised.  An initial rule receives ``coords``, a
tuple of broadcastable coordinate arrays (one per axis), and must return
an array broadcastable to their common shape, or a scalar.  A boundary
rule receives ``(coords, t)`` where ``coords`` holds k read-only 1-D
arrays, one entry per boundary node (corners included), and must return
one value per node or a scalar; its value must not depend on which face a
node lies on, as the paper's boundary data are pointwise in (psi, t).
``lambda coords, t: s * t`` and numpy expressions both qualify.

:func:`run_scenario` takes one of two paths.  The discrete sine basis
diagonalises the interior Laplacian ``A``, and with ``v = H - g`` for a
boundary value ``g`` that is the same on every boundary node, the FTCS
update is ``v <- (I + dt*A) v - (g_new - g)`` under zero Dirichlet data:

* **modal**, when the boundary is uniform at t = 0 and the sine modes of
  the initial data, which enter at snapshots only, are finite.  When the
  boundary rule is an :class:`AffineRule` ``a + s*t`` (JSON specs and the
  pavement figures build these), the forcing is a geometric series in each
  mode, so every snapshot is computed directly, without the steps in
  between.  Any other rule is called once per step, and a step is one
  multiply-add per sine mode that the forcing reaches (all wave numbers
  odd);
* **stepping**, one FTCS step at a time on the flat row-major lattice,
  double-buffered (reads the previous level, writes the next), with the
  scratch arrays of one run allocated once, before its first step.  A step
  calls the rule once and writes its value into every boundary node with
  one assignment.  A modal run turns to stepping at the first step whose
  value is not one finite scalar, or whose forcing could overflow the
  modes: the previous level is rebuilt from the modes and that step is
  finished with the value already returned.

Unless its boundary rule is an :class:`AffineRule` on the modal path, a
run takes every step, calling the rule ``1 + steps`` times, and one of
more than :data:`MAX_STEPS` steps is refused.

Both paths snap snapshots to the same steps and write boundary nodes with
the values the rule returned.  Scenario runs share no mutable state (a
lattice's boundary nodes and stencil slices are cached read-only, and each
run owns its scratch arrays), so independent runs may execute concurrently.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ._checks import check_interval, check_positive, finite, is_number, whole_number

CFL_SAFETY = 0.9
# Most steps run_scenario takes one at a time (any boundary rule but an AffineRule).
MAX_STEPS = 10**7
# Most lattice points a ScenarioSpec may have: fig4 at 2048^2 = 2^22 points
# peaks at about 520 MB of RSS with --t-end 0.001, and a k = 1 solve of 2^22
# points at 450 MB, the CSV export included.
MAX_LATTICE_POINTS = 2**22
# Lattices whose geometry is kept for reuse by later runs and steps.
_LATTICE_CACHE = 16
# Most grid cells field_to_csv and field_to_json write at a time.
_CHUNK = 4096


class StabilityError(ValueError):
    """Requested time step exceeds the explicit stability bound."""


class NonFiniteFieldError(RuntimeError):
    """A step produced NaN or infinity; the run is aborted."""


@dataclass(frozen=True)
class AffineRule:
    """Spatially constant data ``a + s*t``.

    ``rule(coords, t)`` is a boundary rule and ``rule(coords)``, which gives
    ``a``, an initial rule.  When the boundary rule is one of these,
    :func:`run_scenario` computes each snapshot in closed form, whatever the
    initial rule.  An omitted term is -0.0, the additive identity of IEEE
    arithmetic (``x + -0.0`` is ``x`` for every ``x``, the zeros included),
    so ``AffineRule(c)`` gives exactly ``c`` and ``AffineRule(s=s)`` exactly
    ``s * t``.
    """

    a: float = -0.0
    s: float = -0.0

    def __post_init__(self):
        # Stored as given; NaN and inf pass here and are refused by the run.
        for name, value in (("a", self.a), ("s", self.s)):
            if not is_number(value):
                raise ValueError(f"AffineRule {name} must be a number, got {value!r}")

    def __call__(self, coords, t=None):
        return self.a if t is None else self.a + self.s * t


def stable_dt(spacings: Sequence[float]) -> float:
    """Largest admitted explicit step: CFL_SAFETY / (2 * sum_i 1/dpsi_i^2)."""
    return CFL_SAFETY / (2.0 * sum(1.0 / h**2 for h in spacings))


def _checked_dt(dt: float, spacings: Sequence[float]) -> float:
    """``dt`` as a float, rejected unless it is a positive number within the
    stability bound for ``spacings``."""
    (dt,) = check_positive("dt", (dt,))
    bound = stable_dt(spacings)
    if dt > bound * (1.0 + 1e-12):
        raise StabilityError(f"dt={dt:g} exceeds the stability bound {bound:g}")
    return dt


@dataclass
class ScalarField:
    """Index values H on a rectangular lattice at one instant.

    ``values`` is a dense float64 array of shape ``extents`` (row-major);
    ``origin[i] + j * spacings[i]`` is the coordinate of lattice index j
    along axis i.
    """

    k: int
    extents: tuple[int, ...]
    spacings: tuple[float, ...]
    origin: tuple[float, ...]
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.extents = tuple(int(n) for n in self.extents)
        self.spacings = check_positive("spacings", self.spacings)
        self.origin = tuple(finite("origin", o) for o in self.origin)
        if not (len(self.extents) == len(self.spacings) == len(self.origin) == self.k):
            raise ValueError("extents, spacings and origin must all have length k")
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.values.shape != self.extents:
            raise ValueError(f"values shape {self.values.shape} != extents {self.extents}")

    def axis_coords(self, axis: int) -> np.ndarray:
        return self.origin[axis] + self.spacings[axis] * np.arange(self.extents[axis])

    def coordinate_grids(self) -> tuple[np.ndarray, ...]:
        """Sparse broadcastable coordinate arrays, one per axis."""
        return tuple(np.meshgrid(*map(self.axis_coords, range(self.k)), indexing="ij",
                                 sparse=True))

    def copy(self) -> "ScalarField":
        return replace(self, values=self.values.copy())


@dataclass
class ScenarioSpec:
    """One solver run: domain, lattice, data rules and horizon.

    ``boundary_rule(coords, t)`` supplies Dirichlet values on every boundary
    node (corners included), given as 1-D coordinate arrays;
    ``initial_rule(coords)`` fills the lattice at t=0.
    ``dt`` is a float or "auto" (the stability bound).  A lattice of more
    than :data:`MAX_LATTICE_POINTS` points is refused before it is allocated.
    """

    domain: tuple[tuple[float, float], ...]
    resolution: tuple[int, ...]
    boundary_rule: Callable
    initial_rule: Callable
    t_end: float = 1.0
    dt: float | str = "auto"

    def __post_init__(self):
        self.domain = tuple(check_interval(finite("domain", lo), finite("domain", hi))
                            for lo, hi in self.domain)
        self.resolution = tuple(whole_number("resolution", n, 3) for n in self.resolution)
        if len(self.domain) != len(self.resolution):
            raise ValueError("domain and resolution must have equal length")
        points = math.prod(self.resolution)
        if points > MAX_LATTICE_POINTS:
            raise ValueError(f"a lattice of {points} points exceeds MAX_LATTICE_POINTS = "
                             f"{MAX_LATTICE_POINTS}")
        (self.t_end,) = check_positive("t_end", (self.t_end,))
        self.resolved_dt()

    @property
    def k(self) -> int:
        return len(self.domain)

    def spacings(self) -> tuple[float, ...]:
        return tuple(
            (hi - lo) / (n - 1) for (lo, hi), n in zip(self.domain, self.resolution)
        )

    def resolved_dt(self) -> float:
        if self.dt == "auto":
            return stable_dt(self.spacings())
        return _checked_dt(self.dt, self.spacings())

    def initial_field(self) -> ScalarField:
        fld = ScalarField(
            k=self.k,
            extents=self.resolution,
            spacings=self.spacings(),
            origin=tuple(lo for lo, _ in self.domain),
            values=np.zeros(self.resolution),
            time=0.0,
        )
        fld.values[...] = self.initial_rule(fld.coordinate_grids())
        lattice = _lattice(fld.extents, fld.spacings, fld.origin)
        lattice.write(fld.values, self.boundary_rule(lattice.coords, 0.0))
        if not np.all(np.isfinite(fld.values)):
            raise NonFiniteFieldError("initial data is not finite")
        return fld


class _Lattice(NamedTuple):
    """The geometry of a lattice in its flat row-major order.

    ``index`` holds the ascending flat indices of the boundary nodes and
    ``coords`` one 1-D array per axis of their coordinates, the values of
    :meth:`ScalarField.axis_coords`.  With row-major strides ``s_i`` the
    FTCS stencil runs on the contiguous ``span`` ``[sum_i s_i, N - sum_i
    s_i)``, which holds every interior node, and ``axes`` holds, per axis,
    the span shifted by ``+s_i`` and by ``-s_i`` and ``h_i**2``.  The arrays
    are read-only, so every run and step on the lattice may share them.
    """

    index: np.ndarray
    coords: tuple[np.ndarray, ...]
    span: slice
    axes: tuple[tuple[slice, slice, float], ...]

    def write(self, values: np.ndarray, value) -> None:
        """Write a boundary rule's ``value`` into the C-contiguous ``values``."""
        values.reshape(-1)[self.index] = value


@functools.lru_cache(maxsize=_LATTICE_CACHE)
def _lattice(extents: tuple[int, ...], spacings: tuple[float, ...],
             origin: tuple[float, ...]) -> _Lattice:
    mask = np.ones(extents, dtype=bool)
    mask[(slice(1, -1),) * len(extents)] = False
    index = np.flatnonzero(mask)
    position = np.unravel_index(index, extents)
    coords = tuple((o + h * np.arange(n))[j]
                   for o, h, n, j in zip(origin, spacings, extents, position))
    for array in (index, *coords):
        array.flags.writeable = False
    strides = [math.prod(extents[a + 1:]) for a in range(len(extents))]
    n, edge = math.prod(extents), sum(strides)
    axes = tuple((slice(edge + s, n - edge + s), slice(edge - s, n - edge - s), h**2)
                 for s, h in zip(strides, spacings))
    return _Lattice(index, coords, slice(edge, n - edge), axes)


def _uniform_value(value) -> float | None:
    """A boundary rule's ``value`` as a float when it is one finite scalar,
    else None.  The ``isinstance`` test spares the slower ``np.ndim`` for
    Python and numpy floats."""
    if not (isinstance(value, float) or np.ndim(value) == 0):
        return None
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return value if math.isfinite(value) else None


def _ftcs_stepper(lattice: _Lattice) -> Callable:
    """The FTCS step for one run on ``lattice``.

    The returned ``step(u, out, value, dt, t_new)`` writes the successor of
    ``u`` into ``out``, both flat C-order arrays of the lattice (distinct):
    the stencil on the lattice's span, then the boundary rule's ``value`` at
    ``t_new`` into its boundary nodes.  The other nodes of the span are
    boundary nodes, overwritten before the finiteness check, so their
    arithmetic, which may overflow where the interior does not, runs with
    floating-point errors ignored.  Each node evaluates
    ``u + dt * sum_i (u[+s_i] - 2u + u[-s_i]) / h_i**2`` in that order, with
    in-place ufuncs into scratch arrays built here, once per stepper, so a
    step allocates nothing.  Steppers share no buffers.
    """
    span, axes, index = lattice.span, lattice.axes, lattice.index
    lap, two, tmp = (np.empty(span.stop - span.start) for _ in range(3))
    finite = np.empty(span.start + span.stop, dtype=bool)  # the span is [edge, N - edge)

    def step(u, out, value, dt: float, t_new: float) -> None:
        with np.errstate(all="ignore"):
            lap.fill(0.0)
            np.multiply(u[span], 2.0, out=two)
            for hi, lo, h2 in axes:
                np.subtract(u[hi], two, out=tmp)
                np.add(tmp, u[lo], out=tmp)
                np.divide(tmp, h2, out=tmp)
                np.add(lap, tmp, out=lap)
            np.multiply(lap, dt, out=lap)
            np.add(u[span], lap, out=out[span])
        out[index] = value
        if not np.isfinite(out, out=finite).all():
            raise NonFiniteFieldError(f"non-finite values after step to t={t_new:g}")

    return step


def step_explicit(field: ScalarField, boundary_rule: Callable, dt: float) -> ScalarField:
    """One FTCS step: interior updated from the discrete Laplacian, then
    every boundary node overwritten with the rule at the new time, called
    once with the coordinates of all of them.

    ``dt`` must be positive and satisfy
    dt <= CFL_SAFETY / (2 * sum_i 1/dpsi_i^2); any other step is rejected
    before anything is computed.
    """
    if any(n < 3 for n in field.extents):
        raise ValueError("stepping needs at least 3 points per axis")
    dt = _checked_dt(dt, field.spacings)
    t_new = field.time + dt
    lattice = _lattice(field.extents, field.spacings, field.origin)
    out = np.empty(field.extents)
    _ftcs_stepper(lattice)(field.values.reshape(-1), out.reshape(-1),
                           boundary_rule(lattice.coords, t_new), dt, t_new)
    return replace(field, values=out, time=t_new)


def run_scenario(spec: ScenarioSpec, snapshot_times: Sequence[float]) -> list[ScalarField]:
    """Advance a scenario from t=0 to the last requested snapshot time,
    returning one field per requested time (nearest completed step, at
    most ceil(t_end/dt); dt is not adjusted to hit the times exactly).

    When the boundary is uniform at t = 0 the run takes the sine basis (see
    :func:`_iterates`), otherwise it is stepped.  An :class:`AffineRule`
    boundary ``a + s*t`` is called at t = 0 and at the snapshot steps only,
    each snapshot being the exact FTCS iterate in closed form.  Any other
    boundary rule is called once per step, with the coordinates of every
    boundary node (see :class:`_Lattice`), so ``1 + steps`` times in all,
    and a scenario that needs more than :data:`MAX_STEPS` such steps is
    refused with ``ValueError`` before any rule is called (an
    :class:`AffineRule` run that has to step, before its first step).  The
    modal interiors agree with stepping to rounding error.  Either way the
    boundary nodes hold the values the rule returned and every snapshot is
    checked for non-finite values.
    """
    snapshot_times = [finite("snapshot time", t) for t in snapshot_times]
    for t in snapshot_times:
        if not 0.0 <= t <= spec.t_end * (1.0 + 1e-12):
            raise ValueError(f"snapshot time {t} outside [0, {spec.t_end}]")
    dt = spec.resolved_dt()
    steps = spec.t_end / dt - 1e-12
    if not math.isfinite(steps):  # before int(), which cannot take it
        raise ValueError(f"t_end / dt = {spec.t_end!r} / {dt!r} is not a finite number of steps")
    last_step = max(1, math.ceil(steps))
    want: dict[int, list[int]] = {}
    for pos, t in enumerate(snapshot_times):
        want.setdefault(min(last_step, max(0, round(t / dt))), []).append(pos)
    steps = sorted(step for step in want if step > 0)
    if not isinstance(spec.boundary_rule, AffineRule):
        _refuse_beyond_budget(steps)

    field = spec.initial_field()
    out: list[ScalarField | None] = [None] * len(snapshot_times)
    for pos in want.get(0, ()):
        out[pos] = field.copy()
    for step, values in _iterates(field, spec.boundary_rule, dt, steps):
        for pos in want[step]:
            out[pos] = replace(field, values=values.copy(), time=step * dt)
    return out  # type: ignore[return-value]


def _refuse_beyond_budget(steps) -> None:
    """Refuse a run that takes each of the ascending ``steps`` past :data:`MAX_STEPS`."""
    if steps and steps[-1] > MAX_STEPS:
        raise ValueError(f"{steps[-1]} steps exceed MAX_STEPS = {MAX_STEPS}; only an AffineRule "
                         "boundary over initial data with finite sine modes reaches a snapshot "
                         "without taking every step")


def _sine_modes(field: ScalarField, dt: float):
    """The FTCS update of a lattice's interior in the orthonormal DST-I
    basis, as ``(transform, decay, ones)``.

    ``transform`` maps interior values to mode amplitudes and back: it is
    its own inverse, and overflows to inf or NaN without a warning.  Along
    an axis of m nodes it is ``-sqrt(2/(m+1))`` times the imaginary part, at
    wave numbers 1..m, of the real FFT of the values put at places 1..m of
    2(m+1) zeros (Press et al., Numerical Recipes, 3rd ed., sec. 12.4.1),
    which calls no BLAS routine, so no thread count changes it.  In that
    basis the interior Laplacian ``A`` is diagonal with eigenvalues ``mu =
    sum_i -(4/h_i^2) sin^2(j_i*pi/(2(m_i+1)))``, so a step multiplies each
    mode by ``r = 1 + dt*mu`` (LeVeque, Finite Difference Methods for ODEs
    and PDEs, 2007, sec. 2.10).  ``decay`` is ``-dt*mu``, which is ``1 - r``
    without its rounding.  ``ones`` holds the amplitudes of the interior
    all-ones array; they vanish, up to rounding, unless every wave number
    ``j_i`` is odd.
    """
    k = field.k
    interior = tuple(n - 2 for n in field.extents)
    mu = np.zeros(())
    for axis, (m, h) in enumerate(zip(interior, field.spacings)):
        j = np.arange(1, m + 1)
        shape = [1] * k
        shape[axis] = m
        mu = mu + (-(4.0 / h**2) * np.sin(j * np.pi / (2 * (m + 1))) ** 2).reshape(shape)

    def transform(v):
        with np.errstate(over="ignore", invalid="ignore"):
            for axis, m in enumerate(interior):
                modes = (slice(None),) * axis + (slice(1, m + 1),)
                padded = np.zeros(v.shape[:axis] + (2 * (m + 1),) + v.shape[axis + 1:])
                padded[modes] = v
                v = np.fft.rfft(padded, axis=axis).imag[modes] * -math.sqrt(2.0 / (m + 1))
        return v

    return transform, -dt * mu, transform(np.ones(interior))


def _iterates(field: ScalarField, boundary_rule: Callable, dt: float, steps):
    """Yield ``(step, values)`` for each of the ascending ``steps`` from
    ``field``, the lattice of step 0; ``values`` may be a buffer that later
    steps reuse.  The run is modal when the boundary of ``field`` is uniform
    and the sine modes of its interior are finite, else it is stepped.

    With ``v_n = H_n - g_n`` for the boundary value ``g_n`` of step n,
    ``v_{n+1} = (I + dt*A) v_n - (g_{n+1} - g_n)`` with zero Dirichlet data,
    so in the basis of :func:`_sine_modes` ``v_n = r^n v_0 + w_n * ones``.
    ``r^n v_0`` is computed at snapshot steps only.  The interior is clipped
    to the range of the initial lattice and of the boundary values so far
    (the discrete maximum principle).

    * An :class:`AffineRule` boundary ``a + s*t`` gives the geometric series
      ``w_n = s*dt (r^n - 1) / (1 - r)``, so only the snapshot steps are
      visited and the rule is called at those alone.
    * Any other rule is called once per step.  While the run is modal,
      ``w_n = r w_{n-1} - (g_n - g_{n-1})`` is advanced on the all-odd
      modes alone.  For stable dt ``|r| <= 1``, so ``|w_n|`` is at most
      ``reach``, the sum of ``|g_j - g_{j-1}|``.  At the first step n whose
      value is not one finite scalar, or whose ``reach`` could overflow the
      forced modes, the lattice of step n-1 is rebuilt from the modes and
      stepping takes over with the value of step n.
    """
    lattice = _lattice(field.extents, field.spacings, field.origin)
    edge = field.values.reshape(-1)[lattice.index]
    g, core = float(edge[0]), (slice(1, -1),) * field.k
    modal = bool(np.all(edge == g))
    if modal:
        transform, decay, ones = _sine_modes(field, dt)
        with np.errstate(over="ignore", invalid="ignore"):  # modes that overflow make it step
            initial = transform(field.values[core] - g)
        modal = bool(np.isfinite(initial).all())
    if isinstance(boundary_rule, AffineRule) and not modal:
        _refuse_beyond_budget(steps)
    if modal:
        growth = 1.0 - decay
        lo, hi = float(field.values.min()), float(field.values.max())
        # |x| < 2**exponent(x).  The modes are less than |initial| + |w| * |ones|, so
        # than 2**(max(initial_top, exponent(w) + ones_top) + 1), and the transform's
        # sums of them than prod_i 2(n_i - 1) times that.  Kept below 2**1020, they
        # leave the FFT room for its own partial sums.
        exponent = lambda x: math.frexp(float(x))[1]
        headroom = 1020 - 1 - sum(exponent(2 * (n - 1)) for n in field.extents)
        initial_top, ones_top = exponent(np.abs(initial).max()), exponent(np.abs(ones).max())

        def from_modes(step, modes, w, value):
            """The lattice of ``step`` from ``modes(step, shift)``, its sine modes
            times ``2**-shift``, refused unless finite before its interior is
            clipped.  ``w`` bounds ``|w_n|``.  ``shift`` is 0 unless the modes or
            the transform's sums could overflow where the lattice need not; the
            interior is scaled back before ``g`` is added, and scaling by a power
            of two changes no bit."""
            shift = max(0, max(initial_top, exponent(w) + ones_top) - headroom)
            values = np.empty(field.extents)
            interior = values[core]
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
                np.add(np.ldexp(transform(modes(step, shift)), shift), g, out=interior)
            lattice.write(values, value)
            if not np.isfinite(values).all():
                raise NonFiniteFieldError(f"non-finite values after step to t={step * dt:g}")
            np.clip(interior, lo, hi, out=interior)
            return values

        if isinstance(boundary_rule, AffineRule):

            def affine_modes(step, shift):
                power = growth**step
                w = math.ldexp(boundary_rule.s, -shift) * dt * (power - 1.0) / decay
                return power * np.ldexp(initial, -shift) + w * ones

            for step in steps:
                g = boundary_rule(lattice.coords, step * dt)
                lo, hi = min(lo, g), max(hi, g)
                # |w_n| <= |s| * n*dt, as |r| <= 1
                yield step, from_modes(step, affine_modes, abs(boundary_rule.s) * (step * dt), g)
            return

        odd = (slice(None, None, 2),) * field.k
        rate, forced = np.ascontiguousarray(growth[odd]), np.zeros(ones[odd].shape)
        reach, reach_limit = 0.0, sys.float_info.max / float(np.abs(ones).max())

        def forced_modes(step, shift):
            """The modes of ``step``, the last step the forced modes were advanced
            to, times ``2**-shift``."""
            v = growth**step * np.ldexp(initial, -shift)
            v[odd] += np.ldexp(forced, -shift) * ones[odd]
            return v

    wanted, previous, u = set(steps), None, None  # u stays None while the run is modal
    for step in range(1, max(steps, default=0) + 1):
        t = step * dt
        value = boundary_rule(lattice.coords, t)
        if u is None:
            g_new = _uniform_value(value) if modal else None
            if g_new is not None:
                reach += abs(g_new - g)
                if reach <= reach_limit:
                    np.multiply(forced, rate, out=forced)
                    np.subtract(forced, g_new - g, out=forced)
                    g, previous = g_new, value
                    lo, hi = min(lo, g), max(hi, g)
                    if step in wanted:
                        yield step, from_modes(step, forced_modes, np.abs(forced).max(), value)
                    continue
            # Double buffering from the previous lattice: each step reads u
            # and overwrites every node of nxt.
            start = field.values if step == 1 else from_modes(
                step - 1, forced_modes, np.abs(forced).max(), previous)
            u, nxt = start.reshape(-1).copy(), np.empty(start.size)
            ftcs_step = _ftcs_stepper(lattice)
        ftcs_step(u, nxt, value, dt, t)
        u, nxt = nxt, u
        if step in wanted:
            yield step, u.reshape(field.extents)


# -- verification ------------------------------------------------------------


def manufactured_quadratic(k: int) -> Callable:
    """k*t + 0.5 * sum_i psi_i^2; solves the diffusion model exactly and is
    reproduced by the FTCS stencil to rounding error."""

    def h(coords, t):
        return k * t + 0.5 * sum(np.asarray(c) ** 2 for c in coords)

    return h


def manufactured_exponential(k: int) -> Callable:
    """exp(k*t + sum_i psi_i); smooth non-polynomial diffusion solution used
    to expose the scheme's O(h^2) truncation error."""

    def h(coords, t):
        return np.exp(k * t + sum(np.asarray(c) for c in coords))

    return h


@dataclass
class ConvergenceResult:
    resolutions: list[int]
    spacings: list[float]
    max_errors: list[float]
    observed_orders: list[float]  # between consecutive resolutions


def convergence_study(
    manufactured: Callable,
    resolutions: Sequence[int],
    domain: tuple[tuple[float, float], ...] = ((0.0, 1.0), (0.0, 1.0)),
    t_end: float = 0.1,
) -> ConvergenceResult:
    """Max-norm error of the solver against a closed form solving the
    diffusion model, for a list of per-axis resolutions.

    Boundary and initial data are taken from the manufactured solution, and
    each run steps at its stability bound (``dt="auto"``).
    The observed order between spacings h1 > h2 is
    log(e1/e2) / log(h1/h2) (log2 of the error ratio when h halves).
    """
    spacings: list[float] = []
    errors: list[float] = []
    for n in resolutions:
        spec = ScenarioSpec(
            domain=domain,
            resolution=(n,) * len(domain),
            boundary_rule=manufactured,
            initial_rule=lambda coords: manufactured(coords, 0.0),
            t_end=t_end,
        )
        final = run_scenario(spec, [t_end])[0]
        exact = np.broadcast_to(
            np.asarray(manufactured(final.coordinate_grids(), final.time), dtype=float),
            final.extents,
        )
        spacings.append(max(final.spacings))
        errors.append(float(np.max(np.abs(final.values - exact))))
    orders = []
    for (h1, e1), (h2, e2) in zip(zip(spacings, errors), zip(spacings[1:], errors[1:])):
        if e1 > 0 and e2 > 0:
            orders.append(math.log(e1 / e2) / math.log(h1 / h2))
        else:
            orders.append(math.inf)
    return ConvergenceResult(
        resolutions=[int(n) for n in resolutions],
        spacings=spacings,
        max_errors=errors,
        observed_orders=orders,
    )


# -- IO ----------------------------------------------------------------------


def field_to_csv(field: ScalarField, path: str | Path) -> None:
    """One row per lattice point in row-major order: psi coordinates then
    the value, each as ``%.17g``, comma-separated with CRLF line ends (the
    bytes the csv module's default dialect writes).

    Written a lattice row (a run along the last axis) at a time, in pieces of
    at most :data:`_CHUNK` cells, which one ``%`` call fills with values; a
    piece's text is kept while the next row's piece is the same.  No text of
    a whole axis is held: ``tracemalloc`` peaks at 0.7 MiB on 2^22 points
    along one axis and 0.2 MiB on 1024^2.  No points on an axis: no rows."""
    *lead, n = field.extents
    # the leading axes, last first: a row's number is divided along them in turn
    axes = list(zip(field.origin, field.spacings, lead))[::-1]
    x0, dx = field.origin[-1], field.spacings[-1]
    header = ",".join([f"psi{a + 1}" for a in range(field.k)] + ["value"]) + "\r\n"
    cells = (None, [])  # a piece's first index and its cell templates
    with open(path, "w", newline="") as fh:
        fh.write(header)
        for row, values in enumerate(field.values.reshape(math.prod(lead), n)):
            prefix = ""
            for origin, spacing, m in axes:
                row, i = divmod(row, m)
                prefix = "%.17g," % (origin + spacing * i) + prefix  # axis_coords' bits
            for start in range(0, n, _CHUNK):
                if cells[0] != start:
                    # joined by a row's prefix: the leading "" puts one before each cell
                    cells = (start, ["", *("%.17g,%%.17g\r\n" % (x0 + dx * i)
                                           for i in range(start, min(start + _CHUNK, n)))])
                fh.write(prefix.join(cells[1]) % tuple(values[start:start + _CHUNK].tolist()))


def field_to_json(field: ScalarField, path: str | Path) -> None:
    """The field as one JSON object with sorted keys and a final newline,
    the bytes ``json.dump(data, fh, sort_keys=True)`` writes.

    ``json.dumps`` takes the C encoder, which ``json.dump`` does not; both
    write each float as its ``repr`` and ``", "`` between list items.  The
    values, the last key, are encoded :data:`_CHUNK` at a time, so
    neither their text nor a list of them is ever held whole."""
    head = json.dumps({"k": field.k, "extents": list(field.extents),
                       "spacings": list(field.spacings), "origin": list(field.origin),
                       "time": field.time, "values": []}, sort_keys=True)
    values = field.values.ravel()
    with open(path, "w") as fh:
        fh.write(head[:-len("]}")])
        separator = ""
        for start in range(0, values.size, _CHUNK):
            # each chunk's list text without its brackets
            fh.write(separator + json.dumps(values[start:start + _CHUNK].tolist())[1:-1])
            separator = ", "
        fh.write("]}\n")


def export_snapshots(out_dir: Path, stem: str, times, fields, fmt: str = "csv") -> list[dict]:
    """Write each snapshot as ``{stem}_t{requested:g}.{fmt}`` (csv or json)
    and return its manifest entry: file name, requested and actual time."""
    write = field_to_csv if fmt == "csv" else field_to_json
    entries = []
    for requested, fld in zip(times, fields):
        name = f"{stem}_t{requested:g}.{fmt}"
        write(fld, out_dir / name)
        entries.append({"file": name, "time_requested": requested, "time_actual": fld.time})
    return entries


def write_manifest(manifest: dict, path: str | Path) -> None:
    """Add the snapshot note to ``manifest`` and write it as indented JSON."""
    manifest["snapshot_note"] = "snapshots snap to the nearest completed step; dt is not adjusted"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def field_from_json(path: str | Path) -> ScalarField:
    with open(path) as fh:
        data = json.load(fh)
    return ScalarField(
        k=data["k"],
        extents=tuple(data["extents"]),
        spacings=tuple(data["spacings"]),
        origin=tuple(data["origin"]),
        values=np.asarray(data["values"], dtype=float).reshape(data["extents"]),
        time=data["time"],
    )


def scenario_from_json(source: str | Path | dict) -> ScenarioSpec:
    """Build a ScenarioSpec from a JSON file or dict.

    Fields, and no others: domain [[lo, hi], ...], resolution [n, ...],
    s (default 10), t_end, dt (number or "auto"), boundary ("s*t" or a
    number, default "s*t") and initial (a number, default 0).  Both rules
    become :class:`AffineRule` objects; the boundary rule being one,
    :func:`run_scenario` computes the scenario in closed form.
    """
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            data = json.load(fh)
    else:
        data = dict(source)
    if not isinstance(data, dict):
        raise ValueError(f"scenario spec must be a JSON object, got {type(data).__name__}")
    required = ("domain", "resolution", "t_end")
    unknown = [key for key in data if key not in (*required, "s", "dt", "boundary", "initial")]
    if unknown:
        raise ValueError(f"scenario spec has unknown fields {unknown}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ValueError(f"scenario spec is missing required fields {missing}")
    domain, resolution = data["domain"], data["resolution"]
    if not (isinstance(domain, (list, tuple)) and all(
            isinstance(ax, (list, tuple)) and len(ax) == 2 for ax in domain)):
        raise ValueError(f"domain must be a list of [lo, hi] pairs, got {domain!r}")
    if not isinstance(resolution, (list, tuple)):
        raise ValueError(f"resolution must be a list, got {resolution!r}")
    s = finite("s", data.get("s", 10.0))
    boundary = data.get("boundary", "s*t")
    if boundary == "s*t":
        boundary_rule = AffineRule(s=s)
    elif is_number(boundary):
        boundary_rule = AffineRule(float(boundary))
    else:
        raise ValueError(f"unsupported boundary rule {boundary!r}")
    initial = data.get("initial", 0.0)
    if not is_number(initial):
        raise ValueError(f"unsupported initial rule {initial!r}")
    return ScenarioSpec(
        domain=domain,
        resolution=resolution,
        boundary_rule=boundary_rule,
        initial_rule=AffineRule(float(initial)),
        t_end=data["t_end"],
        dt=data.get("dt", "auto"),
    )
