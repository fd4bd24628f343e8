"""Sparse multivariate polynomials and the closed-form index families.

Polynomials live in the variables ``(t, psi_1, ..., psi_k)`` with real
coefficients, stored sparsely as a map from exponent vectors to
coefficients.  Differentiation is exact coefficient arithmetic, so every
closed-form index family can be checked against its defining model without
numerical differentiation: a candidate solves its model iff the residual
polynomial has all coefficients below :data:`ZERO_TOL` relative to the
size of its time derivative.  That is the reference path for
:func:`verify_solution_families`, which builds no polynomial: each family's
residual is one constant, taken from :func:`family_coefficients`.

Two models are covered.  In the *diffusion* model each factor acts
independently::

    dH/dt = sum_i d^2 H / dpsi_i^2

The *interaction* model adds a fully mixed k-th order term::

    dH/dt = sum_i d^k H / dpsi_i^k  +  d^k H / (dpsi_1 ... dpsi_k)

Polynomials have value semantics; all operations are pure and reentrant.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._checks import check_positive, whole_number

# A residual counts as the zero polynomial when every coefficient is below
# this, relative to max(1, |dH/dt coefficients|) in verify_solution_families.
# A family's residual is dH/dt's coefficient minus terms of its size, each
# a_i times the running product p*(p-1)*...*1; their rounding leaves at most
# ~1e-15 relative noise for the k <= 7 used here.
ZERO_TOL = 1e-12

# verify_solution_families refuses every larger k before its first draw: two
# families that take no draw leave the float range beyond it, T2b's time
# coefficient k!*k + 1 at k = 170 and T2a's alpha = 1/k! at k = 171, where k!
# does.  At k = 169 every drawn coefficient is below 2*169!*2*169 + 2*2**169.
_MAX_K = 169

T = 0  # variable id of t; psi_i has id i (1-based)

FAMILY_VARIANTS = ("T1a", "T1b", "T2a", "T2b", "C_ab", "T3w", "C1w", "C2w_ab")

# The families solving the diffusion model; the rest solve the interaction model.
DIFFUSION_FAMILIES = ("T1a", "T1b")

_NEEDS_WEIGHTS = ("T3w", "C1w", "C2w_ab")
_NEEDS_ALPHA_BETA = ("C_ab", "C2w_ab")


class ArityMismatchError(ValueError):
    """Operands or exponent vectors disagree on the number of variables."""


class SparsePolynomial:
    """Exact polynomial in (t, psi_1..psi_k) as {exponent vector: coefficient}.

    Exponent vectors have length ``arity + 1``: slot 0 is the degree in t,
    slot i (1-based) the degree in psi_i.  Zero coefficients are never
    stored, so two polynomials are equal iff their term maps are equal.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Mapping[Sequence[int], float] | None = None):
        arity = int(arity)
        if arity < 1:
            raise ValueError(f"arity must be >= 1, got {arity}")
        self.arity = arity
        clean: dict[tuple[int, ...], float] = {}
        for exps, coeff in (terms or {}).items():
            key = tuple(int(e) for e in exps)
            if len(key) != arity + 1:
                raise ArityMismatchError(
                    f"exponent vector {key} has length {len(key)}, expected {arity + 1}"
                )
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in {key}")
            if not math.isfinite(float(coeff)):
                raise ValueError(f"non-finite coefficient for {key}")
            c = clean.get(key, 0.0) + float(coeff)
            if c == 0.0:
                clean.pop(key, None)
            else:
                clean[key] = c
        self.terms = clean

    # -- arithmetic --------------------------------------------------------
    # No program path combines polynomials.  Sums, differences and partial
    # remain because the tests' reference residuals subtract polynomials and
    # hold partial to an independent derivative, and perfbench/tracing.py
    # wraps partial and __add__ by name.

    def _check_arity(self, other: "SparsePolynomial") -> None:
        if self.arity != other.arity:
            raise ArityMismatchError(f"arity {self.arity} != {other.arity}")

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        self._check_arity(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, 0.0) + c
        return SparsePolynomial(self.arity, out)

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self + (-other)

    def __neg__(self) -> "SparsePolynomial":
        return SparsePolynomial(self.arity, {e: -c for e, c in self.terms.items()})

    def _derivative(self, orders: Sequence[tuple[int, int]]):
        """Yield (exponents, coefficient) of each term's derivative of order n
        in var for each (var, n) of ``orders``, var ascending.  Coefficients
        are multiplied as repeated :meth:`partial` calls would, bit for bit; a
        term whose exponent runs out vanishes, raising if it overflowed first."""
        for exps, c in self.terms.items():
            key = list(exps)
            for var, n in orders:
                e = key[var]
                for j in range(min(e, n)):
                    c *= e - j
                key[var] = e - n
                if e < n:
                    break
            if not math.isfinite(c):
                raise ValueError(f"non-finite coefficient in the derivative of {exps}")
            if min(key) >= 0:
                yield tuple(key), c

    def partial(self, var: int) -> "SparsePolynomial":
        """Exact partial derivative w.r.t. t (var=0) or psi_var (1-based)."""
        if not 0 <= var <= self.arity:
            raise ValueError(f"variable id {var} out of range for arity {self.arity}")
        return SparsePolynomial(self.arity, dict(self._derivative([(var, 1)])))

    def __call__(self, point: Sequence[float]) -> float:
        """Evaluate at (t, psi_1, ..., psi_k)."""
        if len(point) != self.arity + 1:
            raise ArityMismatchError(
                f"point has {len(point)} coordinates, expected {self.arity + 1}"
            )
        total = 0.0
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(point, exps):
                if e:
                    v *= float(x) ** e
            total += v
        if not math.isfinite(total):
            raise ValueError(f"non-finite evaluation at {tuple(point)}")
        return total

    # -- queries -----------------------------------------------------------

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def is_zero(self) -> bool:
        return self.max_abs_coeff() < ZERO_TOL

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms


@dataclass(frozen=True)
class SolutionFamily:
    """Identifies one closed-form index family and its parameters.

    variant   one of FAMILY_VARIANTS
    k         number of factor variables (T1a/T1b admit k >= 1, the rest
              need k >= 2 for the mixed term)
    alpha,
    beta      positive scale parameters (C_ab, C2w_ab only)
    weights   k positive scalar weights (T3w, C1w, C2w_ab only)
    uncorrected
              C_ab only: leave the spatial terms unscaled (coefficients 1/k!
              and 1 instead of alpha and beta).  That form's time
              coefficient matches the interaction model only when
              alpha = 1/k! and beta = 1, so its residual is generally
              nonzero; kept available for reporting.
    """

    variant: str
    k: int
    alpha: float | None = None
    beta: float | None = None
    weights: tuple[float, ...] | None = None
    uncorrected: bool = False

    def __post_init__(self):
        if self.variant not in FAMILY_VARIANTS:
            raise ValueError(f"unknown family variant {self.variant!r}")
        min_k = 1 if self.variant in DIFFUSION_FAMILIES else 2
        object.__setattr__(self, "k", whole_number(f"{self.variant} k", self.k, min_k))
        if self.variant in _NEEDS_ALPHA_BETA:
            if self.alpha is None or self.beta is None:
                raise ValueError(f"{self.variant} needs alpha and beta")
            check_positive("alpha and beta", (self.alpha, self.beta))
        if self.variant in _NEEDS_WEIGHTS:
            if self.weights is None:
                raise ValueError(f"{self.variant} needs {self.k} weights")
            object.__setattr__(self, "weights", check_positive("weights", self.weights))
            if len(self.weights) != self.k:
                raise ValueError(f"expected {self.k} weights, got {len(self.weights)}")
        if self.uncorrected and self.variant != "C_ab":
            raise ValueError("uncorrected form only exists for C_ab")

    @property
    def model(self) -> str:
        return "diffusion" if self.variant in DIFFUSION_FAMILIES else "interaction"


@np.errstate(all="ignore")
def family_coefficients(
    variant: str,
    k: int,
    alpha: float | None = None,
    beta: float | None = None,
    weights=None,
    uncorrected: bool = False,
):
    """Coefficients (c_t, a, p, b) of a family's closed form

        H = c_t*t + sum_i a_i*psi_i^p + b*prod_i psi_i

    The families (k factor variables, factorial written k!):

    ==========  ============================================================
    T1a         k*t + (1/2) sum_i psi_i^2
    T1b         2k*t + sum_i psi_i^2
    C2w_ab      (alpha*k! sum_i w_i + beta prod_i w_i)*t
                + alpha sum_i w_i psi_i^k + beta prod_i (w_i psi_i)
    T2a         C2w_ab at alpha = 1/k!, beta = 1, unit weights
    T2b         C2w_ab at alpha = beta = 1, unit weights
    C_ab        C2w_ab with unit weights
    T3w         C2w_ab at alpha = beta = 1
    C1w         C2w_ab at alpha = 1/k!, beta = 1
    ==========  ============================================================

    T1a and T1b solve the diffusion model, the rest the interaction model.
    The ``uncorrected`` C_ab form keeps the C_ab time coefficient but the
    T2a spatial coefficients (1/k! and 1), so it does not.

    ``weights`` may be an array of shape (..., k) holding many rows; c_t and
    b then have shape (...) and a has shape (..., k).  Parameters are not
    validated here (see SolutionFamily), and a coefficient beyond the float
    range is inf or nan, with no warning, for the caller to refuse.
    """
    try:
        fact = float(math.factorial(k))
    except OverflowError:  # k > 170
        fact = math.inf
    if variant in DIFFUSION_FAMILIES:  # T1a is T1b halved
        scale = 0.5 if variant == "T1a" else 1.0
        return 2.0 * k * scale, np.full(k, scale), 2, 0.0
    alpha, beta, weights = {
        "T2a": (1.0 / fact, 1.0, None),
        "T2b": (1.0, 1.0, None),
        "C_ab": (alpha, beta, None),
        "T3w": (1.0, 1.0, weights),
        "C1w": (1.0 / fact, 1.0, weights),
        "C2w_ab": (alpha, beta, weights),
    }[variant]
    w = np.ones(k) if weights is None else np.asarray(weights, dtype=float)
    prod_w = np.prod(w, axis=-1)
    c_t = alpha * fact * np.sum(w, axis=-1) + beta * prod_w
    if uncorrected:
        return c_t, np.full(k, 1.0 / fact), k, 1.0
    return c_t, alpha * w, k, beta * prod_w


_BEYOND_FLOAT_RANGE = "non-finite coefficient in {} at k={} (beyond the float range)"


def _finite_coefficients(family: SolutionFamily):
    """:func:`family_coefficients` of a family, refusing one beyond the float range."""
    c_t, a, p, b = family_coefficients(
        family.variant, family.k, family.alpha, family.beta, family.weights, family.uncorrected
    )
    if not (np.isfinite(c_t) and np.isfinite(a).all() and np.isfinite(b)):
        raise ValueError(_BEYOND_FLOAT_RANGE.format(family.variant, family.k))
    return c_t, a, p, b


def build_solution(family: SolutionFamily) -> SparsePolynomial:
    """The closed-form index polynomial of a family (see
    :func:`family_coefficients` for the forms)."""
    k = family.k
    c_t, a, p, b = _finite_coefficients(family)
    terms = {(1,) + (0,) * k: c_t}
    for i in range(1, k + 1):
        terms[(0,) * i + (p,) + (0,) * (k - i)] = a[i - 1]
    terms[(0,) + (1,) * k] = b
    return SparsePolynomial(k, terms)


def _residual(h: SparsePolynomial, orders: Iterable) -> SparsePolynomial:
    """dH/dt minus each derivative of h in ``orders``, term by term in order."""
    out = dict(h._derivative([(T, 1)]))
    for order in orders:
        for key, c in h._derivative(order):
            out[key] = out.get(key, 0.0) - c
            if not out[key]:
                del out[key]
    return SparsePolynomial(h.arity, out)


def diffusion_residual(h: SparsePolynomial) -> SparsePolynomial:
    """Residual dH/dt - sum_i d^2 H/dpsi_i^2, exactly zero iff H solves the
    diffusion model."""
    return _residual(h, ([(i, 2)] for i in range(1, h.arity + 1)))


def interaction_residual(h: SparsePolynomial) -> SparsePolynomial:
    """Residual dH/dt - sum_i d^k H/dpsi_i^k - d^k H/(dpsi_1..dpsi_k).

    Requires arity k >= 2 (k = 1 leaves no genuine mixed term).
    """
    k = h.arity
    if k < 2:
        raise ValueError(f"interaction model needs k >= 2, got {k}")
    psis = range(1, k + 1)
    return _residual(h, [[(i, k)] for i in psis] + [[(i, 1) for i in psis]])


def _residual_constant(family: SolutionFamily) -> tuple[float, float]:
    """A family's residual under its model, and max(1, |c_t|), the size of dH/dt.

    Every family's power p is its model's order, so the residual is the constant
    c_t - sum_i a_i*p*(p-1)*...*1 - b (b under the interaction model only), summed
    in the order and with the roundings of :func:`_residual`."""
    c_t, a, p, b = _finite_coefficients(family)
    res = c_t = float(c_t)
    for a_i in a.tolist():
        for j in range(p, 0, -1):
            a_i *= j
        res -= a_i
    if family.model == "interaction":
        res -= float(b)
    return res, max(1.0, abs(c_t))


@dataclass
class FamilyCheck:
    """Outcome of checking one family/parameter draw against its model."""

    variant: str
    k: int
    model: str
    max_residual_coeff: float
    ok: bool
    note: str = ""


def verify_solution_families(
    k_values: Iterable[int] = (2, 3, 4, 5),
    draws: int = 20,
    seed: int = 0,
) -> list[FamilyCheck]:
    """Check every family against its model over random parameter draws.

    For each k in ``k_values`` (T1a/T1b additionally run k = 1) the weighted
    and parametrised families are drawn ``draws`` times with random
    positive weights, alpha and beta; the worst residual coefficient over
    all draws is reported.  Each residual is a constant from the families'
    coefficient table, bit for bit that of the reference path,
    ``*_residual(build_solution(family))``; no polynomial is built.  A
    family passes when its residual is below :data:`ZERO_TOL` times max(1,
    |coefficient of dH/dt|): the residual is a difference of terms of that
    size, so rounding grows with it (the time coefficient reaches 1e5 at
    k = 7).  A final record covers the uncorrected C_ab form, whose residual
    is the constant (k*alpha*k! + beta) - (k + 1) and is expected to be
    nonzero away from alpha = 1/k!, beta = 1; it passes when the residual is
    that constant, and is not zero, by the same relative rule.  A k above
    169 is refused before the first draw, naming the family that would be.
    """
    rng = random.Random(seed)
    ks = sorted({whole_number("k_values", k, 2) for k in k_values})
    if not ks:
        raise ValueError("k_values must name at least one k")
    draws = whole_number("draws", draws, 1)
    if ks[-1] > _MAX_K:
        # T2a runs before T2b, so past k = 170 it is the one refused first
        k = next((k for k in ks if k > _MAX_K + 1), ks[-1])
        raise ValueError(_BEYOND_FLOAT_RANGE.format("T2a" if k > _MAX_K + 1 else "T2b", k))
    checks: list[FamilyCheck] = []

    for variant in FAMILY_VARIANTS:
        k_list = [1] + ks if variant in DIFFUSION_FAMILIES else ks
        for k in k_list:
            n = draws if (variant in _NEEDS_WEIGHTS or variant in _NEEDS_ALPHA_BETA) else 1
            worst = worst_ratio = 0.0
            for _ in range(n):
                family = SolutionFamily(
                    variant,
                    k,
                    weights=tuple(rng.uniform(0.5, 2.0) for _ in range(k)),
                    alpha=rng.uniform(0.5, 2.0),
                    beta=rng.uniform(0.5, 2.0),
                )
                res, scale = _residual_constant(family)
                worst = max(worst, abs(res))
                worst_ratio = max(worst_ratio, abs(res) / scale)
            checks.append(FamilyCheck(variant, k, family.model, worst, worst_ratio < ZERO_TOL))

    # Uncorrected C_ab: report that its residual is the expected nonzero
    # constant for a random (alpha, beta) away from (1/k!, 1).
    for k in ks:
        alpha = rng.uniform(0.5, 2.0)
        beta = rng.uniform(0.5, 2.0)
        fam = SolutionFamily("C_ab", k, alpha=alpha, beta=beta, uncorrected=True)
        coeff, scale = _residual_constant(fam)
        expected = (k * alpha * math.factorial(k) + beta) - (k + 1)
        ok = abs(coeff - expected) < ZERO_TOL * scale < abs(coeff)
        checks.append(
            FamilyCheck(
                "C_ab(uncorrected)",
                k,
                "interaction",
                abs(coeff),
                ok,
                note=f"expected nonzero residual {expected:.6g}",
            )
        )
    return checks
