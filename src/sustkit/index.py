"""Weighted sustainability-index evaluation, (alpha, beta) fitting and the
interval form of the index time derivative.

Index values and the fit's basis columns are evaluated from the same
coefficient table, :func:`sustkit.polynomials.family_coefficients`, from
which :mod:`sustkit.polynomials` builds the exact polynomials.  The two
routes share their formulas; the test suite checks them against
hand-computed values and sympy residuals.

One evaluation point is an :class:`IndexInputs`.  Fit observations are the
columns of an :class:`Observations`: the readers parse CSV or JSON straight
into arrays and :func:`fit_alpha_beta` is the one place that validates them.
"""

from __future__ import annotations

import json
import math
import warnings
from contextlib import suppress
from dataclasses import asdict, dataclass
from itertools import islice
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import riemann_stieltjes as rs
from ._checks import check_positive, csv_rows, finite, is_number, whole_number
from .polynomials import SolutionFamily, family_coefficients

#: the seven factor variables of the headline index: (symbol, name, what the
#: value measures).  Proportions and levels are normalised to [0, 1] by
#: convention; durations are rescaled by the caller.
SEVEN_VARIABLES = (
    ("psi1", "food and agriculture",
     "proportion of food-production yield to arable land"),
    ("psi2", "climate and environment",
     "proportion of people living with clean air, clean water and normal "
     "climatic conditions"),
    ("psi3", "population and economics",
     "proportion of people above multidimensional-poverty levels and the "
     "skilled-population share needed for economic growth"),
    ("psi4", "political situation",
     "duration the population has lived under a stable political situation"),
    ("psi5", "medical technology",
     "proportion of people within reach of good medical treatment and "
     "health facilities"),
    ("psi6", "energy",
     "proportion of industry, transport, agriculture and general "
     "infrastructure with sufficient electricity for optimum productivity"),
    ("psi7", "science and technology",
     "level of basic research and of technology available to support the "
     "population's needs"),
)


class RankDeficiencyError(ValueError):
    """Observations do not determine both fit parameters."""


class PsiRangeWarning(UserWarning):
    """Factor values fell outside the conventional [0, 1] band."""


@dataclass
class IndexInputs:
    """One evaluation point: time, factor values and scalar weights."""

    k: int
    t: float
    psi: tuple[float, ...]
    weights: tuple[float, ...]
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        self.k = whole_number("k", self.k, 2)
        self.t = finite("t", self.t)
        self.psi = tuple(finite("psi", x) for x in self.psi)
        self.weights = check_positive("weights", self.weights)
        if len(self.psi) != self.k or len(self.weights) != self.k:
            raise ValueError(f"psi and weights must each have length k={self.k}, got "
                             f"{len(self.psi)} and {len(self.weights)}")
        check_positive("alpha and beta", [v for v in (self.alpha, self.beta) if v is not None])


class Observations(NamedTuple):
    """Fit observations as columns: t, h_obs of shape (n,); psi, weights (n, k)."""

    t: np.ndarray
    psi: np.ndarray
    weights: np.ndarray
    h_obs: np.ndarray


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with finite endpoints."""

    lo: float
    hi: float

    def __post_init__(self):
        if finite("interval lo", self.lo) > finite("interval hi", self.hi):
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other: "Interval") -> "Interval":
        products = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
        return Interval(min(products), max(products))

    def contains(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


@np.errstate(all="ignore")  # a value beyond the float range is refused by the caller
def _evaluate(coefficients, t, psi):
    """H = c_t*t + sum_i a_i*psi_i^p + b*prod_i psi_i, psi of shape (..., k)."""
    c_t, a, p, b = coefficients
    return c_t * t + np.sum(a * psi**p, axis=-1) + b * np.prod(psi, axis=-1)


def index_value(inputs: IndexInputs, variant: str) -> float:
    """Evaluate one closed-form index family at (t, psi).

    Raises ValueError when the chosen family needs parameters the inputs do
    not carry (alpha/beta for C_ab and C2w_ab; weights are always present
    on IndexInputs and ignored by the unweighted families), or when the
    value is beyond the float range.
    """
    fam = SolutionFamily(
        variant, inputs.k, alpha=inputs.alpha, beta=inputs.beta, weights=inputs.weights
    )
    coefficients = family_coefficients(variant, fam.k, fam.alpha, fam.beta, fam.weights)
    return finite(f"the {variant} index value",
                  float(_evaluate(coefficients, inputs.t, np.array(inputs.psi))))


def index_seven_ab(inputs: IndexInputs) -> float:
    """Seven-variable parametrised index
    (alpha*7!*sum(w) + beta*prod(w))*t + alpha*sum(w_i psi_i^7)
    + beta*prod(w_i psi_i).

    The factor values of the seven-variable table are proportions or levels
    normalised to [0, 1]; values outside that band are accepted with a
    warning.
    """
    if inputs.k != 7:
        raise ValueError(f"the seven-variable index needs k=7, got {inputs.k}")
    if inputs.alpha is None or inputs.beta is None:
        raise ValueError("the seven-variable index needs alpha and beta")
    out_of_band = [x for x in inputs.psi if not 0.0 <= x <= 1.0]
    if out_of_band:
        warnings.warn(
            f"psi values outside [0, 1]: {out_of_band}; accepted as given",
            PsiRangeWarning,
            stacklevel=2,
        )
    return index_value(inputs, "C2w_ab")


@dataclass
class FitResult:
    alpha: float
    beta: float
    residual_norm: float
    n_obs: int


# Rows per block when the fit evaluates its basis columns: bounds the
# temporaries to a few MB however many observations there are.
_FIT_BLOCK = 4096
# A scaled design whose smallest singular value is below this fraction of
# the largest is treated as rank-deficient: (alpha, beta) would then be set
# by rounding in the data rather than by the data.
_MIN_SINGULAR_RATIO = 1e-6


def _reject_rows(bad: np.ndarray, what: str) -> None:
    if bad.any():
        raise ValueError(f"observation {int(np.argmax(bad))}: {what}")


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b summed by einsum in a fixed order, where the BLAS dot product
    sums in an order that depends on its thread count."""
    return float(np.einsum("i,i->", a, b))


def fit_alpha_beta(observations: Observations) -> FitResult:
    """Least-squares fit of (alpha, beta) in H = alpha*u + beta*v.

    u and v are the C2w_ab closed form at (alpha, beta) = (1, 0) and (0, 1).
    Each column is scaled to unit 2-norm and the problem solved by modified
    Gram-Schmidt QR on the scaled columns augmented by H (Bjorck, Numerical
    Methods for Least Squares Problems, 1996, sec. 2.4), which avoids
    squaring the condition number as the normal equations do.  Every
    reduction sums in a fixed order, so the fit does not depend on the BLAS
    thread count.  This is the one place the columns are validated.
    """
    t, psi, w, h = (np.asarray(column, dtype=float) for column in observations)
    if not (t.ndim == 1 and psi.ndim == 2 and w.shape == psi.shape
            and t.shape == h.shape == psi.shape[:1]):
        raise ValueError(f"need t, h_obs of shape (n,) and psi, weights of shape (n, k); "
                         f"got {t.shape}, {h.shape}, {psi.shape}, {w.shape}")
    n, k = psi.shape
    if n < 2:
        raise ValueError(f"need at least 2 observations, got {n}")
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    finite = np.isfinite(t) & np.isfinite(psi).all(axis=1) & np.isfinite(h)
    _reject_rows(~finite, "non-finite t, psi or H_obs")
    _reject_rows(~((w > 0) & np.isfinite(w)).all(axis=1), "weights must be positive and finite")
    u, v = np.empty(n), np.empty(n)
    for lo in range(0, n, _FIT_BLOCK):
        rows = slice(lo, lo + _FIT_BLOCK)
        u[rows] = _evaluate(family_coefficients("C2w_ab", k, 1.0, 0.0, w[rows]), t[rows], psi[rows])
        v[rows] = _evaluate(family_coefficients("C2w_ab", k, 0.0, 1.0, w[rows]), t[rows], psi[rows])
    _reject_rows(~(np.isfinite(u) & np.isfinite(v)), "non-finite basis value")
    su, sv = math.sqrt(_dot(u, u)), math.sqrt(_dot(v, v))
    if su == 0.0 or sv == 0.0:
        raise RankDeficiencyError(
            "a basis column is identically zero; alpha and beta are not identifiable"
        )
    if math.isinf(su) or math.isinf(sv):
        raise ValueError("a basis column's 2-norm is beyond the float range")
    a, b = u / su, v / sv  # a = r11*q1 and b = r12*q1 + r22*q2
    r11 = math.sqrt(_dot(a, a))
    q1 = a / r11
    r12 = _dot(q1, b)
    b -= r12 * q1
    r22 = math.sqrt(_dot(b, b))
    # The singular values of R = [[r11, r12], [0, r22]]: the largest is half
    # the sum of two hypotenuses, the smallest |det R| over the largest.
    largest = (math.hypot(r11 + r22, r12) + math.hypot(r11 - r22, r12)) / 2.0
    if r11 * r22 / largest < _MIN_SINGULAR_RATIO * largest:
        raise RankDeficiencyError(
            "observations are proportional in (u, v); the design matrix has rank < 2"
        )
    c1 = _dot(q1, h)
    scaled_beta = _dot(b / r22, h - c1 * q1) / r22
    alpha, beta = (c1 - r12 * scaled_beta) / r11 / su, scaled_beta / sv
    r = alpha * u + beta * v - h
    return FitResult(alpha=alpha, beta=beta, residual_norm=math.sqrt(_dot(r, r)), n_obs=n)


def dHdt_interval(intervals: Sequence[Interval]) -> Interval:
    """Interval form of the index time derivative: sum of the k weight
    intervals plus their product (endpoint-combination arithmetic, folded
    pairwise)."""
    ivs = list(intervals)
    if len(ivs) < 2:
        raise ValueError(f"need k >= 2 intervals, got {len(ivs)}")
    total_sum = total_prod = ivs[0]
    for iv in ivs[1:]:
        total_sum = total_sum + iv
        total_prod = total_prod * iv
    return total_sum + total_prod


def weight_from_function(importance, weight_fn: rs.WeightFunction) -> float:
    """Bridge from a weight *function* to the scalar weight used by the
    index families: the Riemann-Stieltjes integral of an importance density
    against the function at :func:`rs_integrate`'s default ``eta`` (1e-6),
    divided by the domain length.

    This is an artifact convention, not a prescribed rule; any positive
    scalar weight may be supplied to the families directly, and
    :func:`rs_integrate` gives the integral at any other ``eta`` or unscaled.
    """
    lo, hi = weight_fn.domain_lo, weight_fn.domain_hi
    return rs.rs_integrate(importance, weight_fn, lo, hi) / (hi - lo)


# -- IO ----------------------------------------------------------------------


def _columns(table: np.ndarray, k: int) -> Observations:
    """Split rows laid out as t, psi1..psik, omega1..omegak, H_obs."""
    return Observations(table[:, 0], table[:, 1 : 1 + k], table[:, 1 + k : 1 + 2 * k], table[:, -1])


def read_observations_csv(path: str | Path) -> Observations:
    """Read fit observations from CSV with header
    t, psi1..psik, omega1..omegak, H_obs (k inferred from the header).
    A row that is not 2k+2 numbers raises ValueError naming its file line."""
    header_line, header = next(csv_rows(path), (0, []))
    header = [h.strip() for h in header]
    k = sum(1 for h in header if h.startswith("psi"))
    numbers = range(1, k + 1)
    expected = ["t", *(f"psi{i}" for i in numbers), *(f"omega{i}" for i in numbers), "H_obs"]
    if k == 0 or header != expected:
        raise ValueError(f"{path}: expected header t, psi1..psik, omega1..omegak, "
                         f"H_obs, got {header}")
    # the fast path, which skips empty lines; should it fail, as on a whitespace-only
    # line, the rows are read again as CSV to name the bad row's line
    with open(path, newline="") as fh, suppress(ValueError), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty body is reported by the fit
        # comments=None: a "#" is a malformed number, not a comment that drops data
        data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None, skiprows=header_line)
        if data.shape[1] == len(header):
            return _columns(data, k)
    rows = []
    for line, row in islice(csv_rows(path), 1, None):
        try:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} fields, expected {len(header)}")
            rows.append([float(v) for v in row])
        except ValueError as exc:
            raise ValueError(f"{path}, line {line}: {exc}") from exc
    return _columns(np.array(rows).reshape(-1, len(header)), k)


def read_observations_json(path: str | Path) -> Observations:
    """Read fit observations from JSON: a list of objects with fields
    t, psi (length-k array), omega (length-k array) and H_obs, all JSON
    numbers; k is set by record 0.  Any other field is refused."""
    with open(path) as fh:
        records = json.load(fh)
    if not isinstance(records, list):
        raise ValueError(f"{path}: expected a JSON array of observations")
    rows, k = [], 0
    for i, rec in enumerate(records):
        try:
            t, psi, omega, h_obs = rec["t"], rec["psi"], rec["omega"], rec["H_obs"]
            unknown = [key for key in rec if key not in ("t", "psi", "omega", "H_obs")]
            if unknown:
                raise ValueError(f"unknown fields {unknown}")
            if not (isinstance(psi, list) and isinstance(omega, list)
                    and all(map(is_number, psi + omega))):
                raise ValueError(f"psi and omega must be arrays of numbers, got {psi!r} and {omega!r}")
            if not (is_number(t) and is_number(h_obs)):
                raise ValueError(f"t and H_obs must be numbers, got {t!r} and {h_obs!r}")
            k = len(psi) if i == 0 else k
            if len(psi) != k or len(omega) != k:
                raise ValueError(f"psi and omega must each have the length k={k} of "
                                 f"record 0, got {len(psi)} and {len(omega)}")
            rows.append([t, *psi, *omega, h_obs])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}, record {i}: {exc}") from exc
    return _columns(np.array(rows, dtype=float).reshape(len(rows), 2 * k + 2), k)


def read_observations(path: str | Path) -> Observations:
    """Dispatch on extension: .json records or the CSV column layout."""
    if str(path).endswith(".json"):
        return read_observations_json(path)
    return read_observations_csv(path)


def write_fit_report(result: FitResult, path: str | Path) -> None:
    """Write ``result`` as sorted-key JSON to ``path``, making its directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(asdict(result), fh, sort_keys=True)
        fh.write("\n")
