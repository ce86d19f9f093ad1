"""Terminal densities: reference bumps, CSV-loaded tables, compatibility.

A terminal density is the mass-1 target ``m_T`` the flow must reach at the
horizon.  The solver reads only its support ``[a, b]`` and its quantile,
which `TerminalDensity` shares between two constructions:

* *bumps* ``((x-a)(b-x))_+^p / Z`` whose cdf is a regularized incomplete
  beta function (exact; `power_bump`, and `self_similar_terminal`, the
  rescaled self-similar profile used as the analytic oracle), and
* *tables* (`TerminalDensity.from_table`, `load_csv`) interpolated by a
  shape-preserving monotone cubic (PCHIP, built in numpy with scipy's
  arithmetic), with the quantile computed as the bisected inverse of the
  table cdf.

The compatibility certificate checks on a table the growth condition that
the density vanish like ``dist(x, {a,b})^{1/theta}`` at the support edges,
which is what the Lagrangian solver's free-boundary rows assume.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import special

from .errors import (
    CompatibilityError,
    FormatError,
    InvalidParameterError,
)
from .profile import Profile

__all__ = [
    "TerminalDensity",
    "CompatibilityReport",
    "power_bump",
    "self_similar_terminal",
    "validate_compatibility",
    "load_csv",
]

RATIO_BOUND = 1e3          # default edge-growth ratio tolerance
MIN_CSV_ROWS = 8


@dataclass(frozen=True)
class CompatibilityReport:
    """Envelope constants of ``density / dist^{1/theta}`` over the support."""

    c_lower: float
    c_upper: float
    ratio: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class TerminalDensity:
    """Mass-one terminal density on its support ``[a, b]``.

    The bump (`power_bump`, `self_similar_terminal`) and the table
    (`from_table`, `load_csv`) each give ``cdf`` and its inverse on
    ``(0, 1)``; `quantile` is shared.
    """

    a: float
    b: float

    @staticmethod
    def from_table(x: np.ndarray, pdf: np.ndarray,
                   theta: float) -> _Table:
        """Build a table-backed density; normalizes total mass to one.
        ``theta`` is the exponent its compatibility is checked against."""
        x = np.asarray(x, dtype=float)
        pdf = np.asarray(pdf, dtype=float)
        if x.ndim != 1 or x.shape != pdf.shape or x.size < MIN_CSV_ROWS:
            raise FormatError(
                f"need >= {MIN_CSV_ROWS} (x, density) rows, got {x.size}")
        if np.any(~np.isfinite(x)) or np.any(~np.isfinite(pdf)):
            raise FormatError("non-finite entries in density table")
        if np.any(np.diff(x) <= 0.0):
            raise FormatError("x column must be strictly increasing")
        if np.any(pdf < 0.0):
            raise FormatError("density column must be nonnegative")
        if np.any(pdf[1:-1] <= 0.0):
            raise FormatError("density must be strictly positive between "
                              "the support endpoints")
        raw_mass = _pchip_antiderivative(x, pdf)[1]
        if raw_mass <= 0.0:
            raise FormatError("density table has zero total mass")
        pdf = pdf / raw_mass
        return _Table(a=float(x[0]), b=float(x[-1]), theta=float(theta),
                      x_nodes=x, samples=pdf,
                      _coef=_pchip_antiderivative(x, pdf)[0])

    def quantile(self, u):
        """Inverse of `cdf`, monotone; maps 0 to ``a`` and 1 to ``b``."""
        u = np.asarray(u, dtype=float)
        if not np.all((u >= 0.0) & (u <= 1.0)):
            raise InvalidParameterError("quantile argument outside [0, 1]")
        scalar = not u.ndim
        u = np.atleast_1d(u)
        out = self._inverse_cdf(u)
        out[u == 0.0] = self.a
        out[u == 1.0] = self.b
        return float(out[0]) if scalar else out


@dataclass(frozen=True)
class _Bump(TerminalDensity):
    """Bump ``((x-a)(b-x))_+^power / Z``, whose cdf is a regularized
    incomplete beta function."""

    power: float

    def __post_init__(self):
        if not self.b > self.a:
            raise InvalidParameterError(
                f"support [{self.a}, {self.b}] is empty")
        if not self.power > 0.0 or not np.isfinite(self.power):
            raise InvalidParameterError(
                f"bump exponent must be positive, got {self.power}")

    def pdf(self, x):
        """Density value(s); zero outside ``[a, b]``."""
        x = np.asarray(x, dtype=float)
        p = self.power
        norm = float((self.b - self.a) ** (2.0 * p + 1.0)
                     * special.beta(p + 1.0, p + 1.0))
        out = np.clip((x - self.a) * (self.b - x), 0.0, None) ** p / norm
        return out if out.ndim else float(out)

    def cdf(self, x):
        q = self.power + 1.0
        z = np.clip((np.asarray(x, dtype=float) - self.a) / (self.b - self.a),
                    0.0, 1.0)
        out = special.betainc(q, q, z)
        return out if out.ndim else float(out)

    def _inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        q = self.power + 1.0
        width = self.b - self.a
        out = self.a + width * special.betaincinv(q, q, u)
        # betaincinv alone drifts to ~1e-8 near the flat endpoints; two
        # safeguarded Newton corrections on the closed-form cdf restore
        # machine-level inversion
        for _ in range(2):
            miss = self.cdf(out) - u
            dens = self.pdf(out)
            out = np.clip(out - np.where(dens > 0.0,
                                         miss / np.where(dens > 0.0, dens, 1.0),
                                         0.0),
                          self.a, self.b)
        return out


@dataclass(frozen=True)
class _Table(TerminalDensity):
    """Sampled density: the cdf is the antiderivative of the monotone cubic
    (PCHIP) through the normalized ``samples`` at ``x_nodes``, held as the
    quartic pieces ``_coef`` of `_pchip_antiderivative`; the quantile is its
    bisected inverse.  ``theta`` is the exponent of its compatibility
    check."""

    theta: float
    x_nodes: np.ndarray
    samples: np.ndarray
    _coef: np.ndarray = field(repr=False)

    def cdf(self, x):
        x = np.clip(np.asarray(x, dtype=float), self.a, self.b)
        # piece i holds x_nodes[i] <= x < x_nodes[i+1]; x = b takes the last
        i = np.clip(np.searchsorted(self.x_nodes, x, side="right") - 1,
                    0, self.x_nodes.size - 2)
        out = np.clip(_piece_value(self._coef[:, i], x - self.x_nodes[i]),
                      0.0, 1.0)
        return out if out.ndim else float(out)

    def _inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        lo = np.full(u.shape, self.a)
        hi = np.full(u.shape, self.b)
        for _ in range(80):  # bisection: interval shrinks to ~(b-a) * 2^-80
            mid = 0.5 * (lo + hi)
            below = self.cdf(mid) < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)


def _pchip_antiderivative(x: np.ndarray,
                          y: np.ndarray) -> tuple[np.ndarray, float]:
    """Antiderivative, zero at ``x[0]``, of the monotone cubic through
    ``(x, y)`` (PCHIP; Fritsch & Carlson, SIAM J. Numer. Anal. 17, 1980):
    its coefficients, shape (5, n-1), highest degree first on each piece
    ``[x[i], x[i+1]]`` in the offset ``x - x[i]``, and its value at ``x[-1]``.

    The arithmetic is that of scipy's
    ``PchipInterpolator(x, y).antiderivative()``, so both agree to the last
    bit: the same node slopes (weighted harmonic means, zero at an extremum,
    one-sided at the ends), the cubic Hermite coefficients divided by 4, 3,
    2 and 1, and each piece's constant the previous piece's value at its
    right end.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    sign = np.sign(m)
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    mean = ~((sign[1:] != sign[:-1]) | (m[1:] == 0.0) | (m[:-1] == 0.0))
    d = np.zeros_like(y)
    d[1:-1][mean] = 1.0 / whmean[mean]
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    coef = np.stack([t / h / 4.0, ((m - d[:-1]) / h - t) / 3.0,
                     d[:-1] / 2.0, y[:-1], np.zeros_like(h)])
    ends = [0.0]
    for piece, width in zip(coef[:4].T.tolist(), h.tolist()):
        ends.append(_piece_value([*piece, ends[-1]], width))
    coef[4] = ends[:-1]
    return coef, ends[-1]


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at an end, set to 0 where its sign
    differs from the end interval's and to 3 m0 where it overshoots a
    turn (Moler, Numerical Computing with MATLAB, 3.6)."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _piece_value(c, s):
    """``sum_k c[k] s^(4-k)``, added from the constant ``c[4]`` up, the
    order of scipy's piecewise polynomial evaluation."""
    out, power = 0.0, 1.0
    for ck in c[::-1]:
        out = out + ck * power
        power = power * s
    return out


def power_bump(a: float, b: float, theta: float) -> TerminalDensity:
    """Reference bump ``((x-a)(b-x))^{1/theta} / Z`` with the edge growth
    matched to the congestion exponent."""
    if not theta > 0.0:
        raise InvalidParameterError(f"theta must be positive, got {theta}")
    return _Bump(float(a), float(b), 1.0 / theta)


def self_similar_terminal(p: Profile, T: float,
                          eps: float) -> TerminalDensity:
    """Exact self-similar slice ``(T+eps)^{-alpha} phi((T+eps)^{-alpha} x)``.

    This is the terminal datum for which the solved flow has the closed-form
    answer ``gamma(t, y) = (t+eps)^alpha y``; the beta-bump normalization
    reproduces the profile's constants exactly, so no sampling error enters.
    """
    if not T > 0.0 or not eps >= 0.0:
        raise InvalidParameterError("need T > 0 and eps >= 0")
    scale = (T + eps) ** p.alpha
    return _Bump(-p.r_alpha * scale, p.r_alpha * scale, 1.0 / p.theta)


def validate_compatibility(m: _Table, ratio_bound: float = RATIO_BOUND
                           ) -> CompatibilityReport:
    """Envelope of ``density / dist(x, {a, b})^{1/theta}`` over the interior
    nodes of a table; advisory, `load_csv` raises on it in strict mode."""
    x = m.x_nodes[1:-1]
    vals = m.samples[1:-1]
    dist = np.minimum(x - m.a, m.b - x)
    with np.errstate(divide="ignore"):  # a power that underflows gives inf
        ratio_vals = vals / dist ** (1.0 / m.theta)
    c_lower = float(np.min(ratio_vals))
    c_upper = float(np.max(ratio_vals))
    ratio = c_upper / c_lower if c_lower > 0.0 else float("inf")
    passed = bool(c_lower > 0.0 and ratio <= ratio_bound)
    return CompatibilityReport(c_lower=c_lower, c_upper=c_upper,
                               ratio=ratio, bound=float(ratio_bound),
                               passed=passed)


def load_csv(path, theta: float, strict: bool = False) -> TerminalDensity:
    """Read a ``x,density`` CSV into a table-backed terminal density.

    The file must have the exact header ``x,density``, at least 8 rows,
    strictly increasing x and nonnegative density.  Mass is normalized to
    one.  ``theta`` fixes the exponent for the compatibility certificate;
    in strict mode a failed certificate raises `CompatibilityError`.  A
    missing or unreadable file raises `FormatError`.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"{path}: no such target file") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a text file ({exc.reason})") from exc
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row and any(c.strip() for c in row)]
    if not rows or [c.strip() for c in rows[0]] != ["x", "density"]:
        raise FormatError(f"{path}: expected header 'x,density'")
    if any(len(row) != 2 for row in rows[1:]):
        raise FormatError(f"{path}: expected exactly two columns")
    try:
        data = np.array([[float(c) for c in row] for row in rows[1:]],
                        dtype=float).reshape(-1, 2)
    except ValueError as exc:
        raise FormatError(f"{path}: non-numeric entry ({exc})") from exc
    try:
        out = TerminalDensity.from_table(data[:, 0], data[:, 1], theta=theta)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if strict:
        rep = validate_compatibility(out)
        if not rep.passed:
            raise CompatibilityError(
                f"terminal density violates the dist^(1/theta) edge growth: "
                f"envelope ratio {rep.ratio:.3g} exceeds {rep.bound:.3g}")
    return out

