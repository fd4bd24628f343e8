"""Output checks made apart from sustkit.

Every check raises :class:`CheckError` with a message when an output is
wrong.  The references are computed here with numpy and closed forms; none
of them is a stored copy of an earlier output.

FTCS reference.  For a lattice whose boundary carries one value g(t) on
every node and whose interior starts at a constant c0, write the field as
u = g(t_n) + v.  The explicit step then reads v <- (I + dt*L0) v - (g_{n+1}
- g_n) with L0 the second-difference operator under zero Dirichlet data.
L0 is the Kronecker sum of the 1-D second-difference matrices, so after
eigen-decomposing each of those with ``numpy.linalg.eigh`` every mode
evolves on its own: a <- m*a - dg with m = 1 + dt*mu.  For affine data
(dg constant) the n-step sum is a geometric series.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np


class CheckError(AssertionError):
    """A program output disagrees with the benchmark's reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# -- FTCS reference -------------------------------------------------------------


class FTCSModes:
    """Eigenbasis of the interior second-difference operator on a lattice."""

    def __init__(self, resolution, spacings, dt):
        self.resolution = tuple(resolution)
        self.bases = []
        mu = np.zeros([n - 2 for n in resolution])
        ones_hat = np.ones(())
        for axis, (n, h) in enumerate(zip(resolution, spacings)):
            m = n - 2
            a = (np.diag(np.full(m, -2.0)) + np.diag(np.ones(m - 1), 1)
                 + np.diag(np.ones(m - 1), -1)) / h**2
            lam, q = np.linalg.eigh(a)
            self.bases.append(q)
            shape = [1] * len(resolution)
            shape[axis] = m
            mu = mu + lam.reshape(shape)
            ones_hat = np.multiply.outer(ones_hat, q.T @ np.ones(m))
        self.m = 1.0 + dt * mu
        self.ones_hat = ones_hat

    def grid(self, a: np.ndarray, g: float) -> np.ndarray:
        """Full lattice for mode amplitudes a (times the projected ones) and
        boundary value g."""
        v = a * self.ones_hat
        for axis, q in enumerate(self.bases):
            v = np.moveaxis(np.tensordot(q, v, axes=([1], [axis])), 0, axis)
        out = np.full(self.resolution, float(g))
        out[tuple(slice(1, -1) for _ in self.resolution)] += v
        return out

    def affine(self, n: int, s: float, dt: float) -> np.ndarray:
        """n FTCS steps from H = 0 with H = s*t on the boundary."""
        mn = self.m**n
        # a_n = -s*dt * sum_{j<n} m^j = -s*dt * (1 - m^n) / (1 - m)
        a = -s * dt * (1.0 - mn) / (1.0 - self.m)
        return self.grid(a, s * (n * dt))

    def forced(self, g_values, c0: float, steps) -> dict[int, np.ndarray]:
        """Fields after each of ``steps`` for boundary values g_values[j] at
        step j and a constant initial interior c0."""
        wanted = set(steps)
        a = np.full(self.m.shape, c0 - g_values[0])
        out = {}
        if 0 in wanted:
            out[0] = self.grid(a, g_values[0])
        for j in range(1, max(wanted) + 1):
            a = self.m * a - (g_values[j] - g_values[j - 1])
            if j in wanted:
                out[j] = self.grid(a, g_values[j])
        return out


def stable_dt(spacings) -> float:
    return 0.9 / (2.0 * sum(1.0 / h**2 for h in spacings))


# -- grids ------------------------------------------------------------------------


def read_grid_csv(path, origin, spacings, resolution) -> np.ndarray:
    """Values of a field CSV; checks the header and every coordinate."""
    k = len(resolution)
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    require(header == [f"psi{a + 1}" for a in range(k)] + ["value"],
            f"{path.name}: header {header}")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    require(table.shape == (math.prod(resolution), k + 1), f"{path.name}: shape {table.shape}")
    grids = np.meshgrid(*(o + h * np.arange(n) for o, h, n in zip(origin, spacings, resolution)),
                        indexing="ij")
    for a, g in enumerate(grids):
        require(np.allclose(table[:, a], g.ravel(), rtol=1e-12, atol=1e-12),
                f"{path.name}: psi{a + 1} coordinates are off the lattice")
    return table[:, k].reshape(resolution)


def read_grid_json(path):
    with open(path) as fh:
        data = json.load(fh)
    values = np.asarray(data["values"], dtype=float).reshape(data["extents"])
    return data, values


def boundary_mask(shape) -> np.ndarray:
    mask = np.ones(shape, dtype=bool)
    mask[tuple(slice(1, -1) for _ in shape)] = False
    return mask


def check_affine_grid(values, s, t, reference=None, symmetric=False, name="grid"):
    """Boundary equals s*t, interior lies in [0, s*t], the field matches
    the exact FTCS iterate within 1e-10 relative, and square lattices are
    symmetric under exchange of axes."""
    top = s * t
    tol = 1e-12 * max(abs(top), 1.0)
    edge = values[boundary_mask(values.shape)]
    require(np.all(np.abs(edge - top) <= tol),
            f"{name}: boundary differs from s*t={top!r} by {np.max(np.abs(edge - top)):.3g}")
    require(values.min() >= -tol and values.max() <= top + tol,
            f"{name}: values span [{values.min()!r}, {values.max()!r}], outside [0, {top!r}]")
    if reference is not None:
        err = float(np.max(np.abs(values - reference)))
        require(err <= 1e-10 * abs(top),
                f"{name}: differs from the exact FTCS iterate by {err:.3g} (s*t={top:.6g})")
    if symmetric:
        for axes in _axis_swaps(values.ndim):
            err = float(np.max(np.abs(values - np.transpose(values, axes))))
            require(err <= tol, f"{name}: not symmetric under axes {axes} ({err:.3g})")


def _axis_swaps(k):
    for i in range(k):
        for j in range(i + 1, k):
            axes = list(range(k))
            axes[i], axes[j] = j, i
            yield tuple(axes)


def check_forced_grid(values, reference, g_history, c0, scale, name):
    """Boundary carries the latest boundary value, the maximum principle
    holds, and the field is the exact FTCS iterate within 1e-10."""
    edge = values[boundary_mask(values.shape)]
    require(np.all(np.abs(edge - g_history[-1]) <= 1e-9 * scale),
            f"{name}: boundary differs from the rule at its time")
    lo, hi = min(c0, g_history.min()), max(c0, g_history.max())
    tol = 1e-12 * scale
    require(values.min() >= lo - tol and values.max() <= hi + tol,
            f"{name}: values leave [{lo}, {hi}] (maximum principle)")
    err = float(np.max(np.abs(values - reference)))
    require(err <= 1e-10 * scale, f"{name}: differs from the exact FTCS iterate by {err:.3g}")


def check_normalized(scaled, values, s, t, name="normalized grid"):
    require(np.allclose(scaled, values / (s * t), rtol=1e-14, atol=0),
            f"{name}: not the grid divided by s*t")


def check_snapshot_time(requested, actual, dt, name="snapshot"):
    """The snapshot sits on a completed step within half a step of the
    requested time; returns that step."""
    n = round(actual / dt)
    require(abs(actual - n * dt) <= 1e-9 * dt, f"{name}: time {actual!r} is not a step of {dt!r}")
    require(abs(actual - requested) <= 0.5 * dt * (1 + 1e-9),
            f"{name}: time {actual!r} is more than half a step from {requested!r}")
    return n


# -- Riemann-Stieltjes ---------------------------------------------------------------

#: a converged integral must lie within this multiple of eta of its closed
#: form.  The midpoint sums stop when two successive levels differ by less
#: than eta; with errors shrinking like h^2 the remaining error is about a
#: third of that difference, and like h (a weight jump) about all of it.
RS_ETA_MULTIPLE = 2.0


def check_integral(value, exact, eta, name="integral"):
    err = abs(value - exact)
    require(err <= RS_ETA_MULTIPLE * eta,
            f"{name}: {value!r} differs from the closed form {exact!r} by {err:.3g} "
            f"> {RS_ETA_MULTIPLE}*eta")


def check_bound(report, exact_integral, variation, eta, name="bound"):
    """The variation bound holds, the variation estimate reaches the
    known variation from below, and rhs is |integral| / sup|F|."""
    check_integral(report.integral, exact_integral, eta, name)
    require(report.holds and report.lhs >= report.rhs, f"{name}: bound does not hold {report}")
    require(abs(report.lhs - variation) <= 1e-9 * max(1.0, variation),
            f"{name}: variation {report.lhs!r}, expected {variation!r}")
    require(report.sup_f > 0 and abs(report.rhs - abs(report.integral) / report.sup_f) <= 1e-12 * report.rhs,
            f"{name}: rhs {report.rhs!r} is not |integral|/sup|F|")


def table_integral_of_quadratic(xs, ys, c):
    """Integral of (x^2 + c) against the piecewise-linear table (xs, ys)."""
    xs = np.asarray(xs, dtype=float)
    slopes = np.diff(ys) / np.diff(xs)
    pieces = (xs[1:] ** 3 - xs[:-1] ** 3) / 3.0 + c * np.diff(xs)
    return float(np.sum(slopes * pieces))


# -- closed forms -------------------------------------------------------------------------


def uncorrected_c_ab_residual(k, alpha, beta) -> float:
    return (k * alpha * math.factorial(k) + beta) - (k + 1)


def check_uncorrected_residual(poly, k, alpha, beta, name="C_ab(uncorrected)"):
    """The residual of the unscaled C_ab form is the constant
    (k*alpha*k! + beta) - (k + 1) and nothing else."""
    expected = uncorrected_c_ab_residual(k, alpha, beta)
    constant = tuple([0] * (k + 1))
    others = {e: c for e, c in poly.terms.items() if e != constant}
    scale = k * alpha * math.factorial(k) + beta
    require(not others or max(abs(c) for c in others.values()) <= 1e-12 * scale,
            f"{name} k={k}: residual has non-constant terms {others}")
    got = poly.terms.get(constant, 0.0)
    require(abs(got - expected) <= 1e-12 * scale,
            f"{name} k={k}: residual constant {got!r}, expected {expected!r}")


def family_rounding_bound(k) -> float:
    """Largest residual coefficient that rounding alone can leave in a
    family verified with parameters and weights drawn from [0.5, 2]: 32 ulp
    of the largest time coefficient, alpha*k!*sum(w) + beta*prod(w)."""
    return 32 * np.finfo(float).eps * (2.0 * math.factorial(k) * 2.0 * k + 2.0 * 2.0**k)


def check_family_records(records, ks, name="verify-solutions"):
    """Every family is reported for every k; a family reported as failing
    must fail only by a residual that rounding explains, and every
    uncorrected C_ab record must pass.  Returns the failing records."""
    expected = {(v, k) for v in ("T1a", "T1b") for k in [1] + list(ks)}
    expected |= {(v, k) for v in ("T2a", "T2b", "C_ab", "T3w", "C1w", "C2w_ab") for k in ks}
    expected |= {("C_ab(uncorrected)", k) for k in ks}
    got = {(r["variant"], r["k"]) for r in records}
    require(got == expected and len(records) == len(expected),
            f"{name}: reported {sorted(got ^ expected)} unexpectedly")
    failing = [r for r in records if not r["ok"]]
    for r in failing:
        require(r["variant"] != "C_ab(uncorrected)", f"{name}: {r}")
        require(r["max_residual_coeff"] <= family_rounding_bound(r["k"]),
                f"{name}: {r['variant']} k={r['k']} residual {r['max_residual_coeff']!r} "
                "is larger than rounding explains")
    for r in records:
        if r["variant"] == "C_ab(uncorrected)":
            require(r["max_residual_coeff"] > 1e-12, f"{name}: {r} should be nonzero")
    return failing


def seven_variable_basis(t, psi, w):
    """u = 7! * sum(w) * t + sum(w psi^7), v = prod(w) * (t + prod(psi)) for
    row arrays (t: (n,), psi and w: (n, 7))."""
    u = math.factorial(7) * w.sum(axis=1) * t + (w * psi**7).sum(axis=1)
    v = w.prod(axis=1) * (t + psi.prod(axis=1))
    return u, v


def check_fit(payload, alpha, beta, n_rows, name="index fit"):
    require(payload["n_obs"] == n_rows, f"{name}: n_obs {payload['n_obs']} != {n_rows}")
    for key, want in (("alpha", alpha), ("beta", beta)):
        got = payload[key]
        require(abs(got - want) <= 1e-9 * abs(want),
                f"{name}: {key} {got!r} differs from the generating {want!r}")
