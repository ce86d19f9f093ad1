"""Terminal densities: reference bumps, CSV-loaded tables, compatibility.

A terminal density is the mass-1 target ``m_T`` the flow must reach at the
horizon.  Two constructions exist:

* *beta bumps* ``((x-a)(b-x))_+^p / Z`` whose cdf/quantile are regularized
  incomplete beta functions (exact; this family contains both `power_bump`
  and the rescaled self-similar profile used as the analytic oracle), and
* *tables* loaded from CSV, interpolated by a shape-preserving monotone
  cubic, with the quantile computed as the bisected inverse of the table
  cdf.

The compatibility certificate checks the growth condition that the density
vanish like ``dist(x, {a,b})^{1/theta}`` at the support edges, which is what
the Lagrangian solver's free-boundary rows assume.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace
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
    "save_csv",
]

N_QUADRATURE_NODES = 2048  # size of the sampled beta tables
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
    """Sampled terminal density with exact or table-backed transforms.

    ``kind`` is "beta" for the closed-form bump family and "table" for
    CSV-backed data.  ``theta`` is the congestion exponent against which
    edge-growth compatibility is checked, ``power`` the bump exponent of the
    beta family (nan for tables).
    """

    kind: str
    a: float
    b: float
    theta: float
    power: float
    x_nodes: np.ndarray
    samples: np.ndarray
    mass: float
    report: CompatibilityReport | None = None
    _pdf_interp: object | None = field(default=None, repr=False)
    _cdf_interp: object | None = field(default=None, repr=False)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_table(cls, x: np.ndarray, pdf: np.ndarray,
                   theta: float) -> "TerminalDensity":
        """Build a table-backed density; normalizes total mass to one and
        attaches its compatibility report."""
        # imported here: beta targets never load scipy.interpolate
        from scipy.interpolate import PchipInterpolator

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
        interp = PchipInterpolator(x, pdf)
        anti = interp.antiderivative()
        raw_mass = float(anti(x[-1]) - anti(x[0]))
        if raw_mass <= 0.0:
            raise FormatError("density table has zero total mass")
        pdf = pdf / raw_mass
        interp = PchipInterpolator(x, pdf)
        anti = interp.antiderivative()
        out = cls(kind="table", a=float(x[0]), b=float(x[-1]),
                  theta=float(theta), power=float("nan"),
                  x_nodes=x, samples=pdf, mass=1.0,
                  _pdf_interp=interp, _cdf_interp=anti)
        return replace(out, report=validate_compatibility(out))

    # -- pointwise transforms -------------------------------------------------

    def pdf(self, x):
        """Density value(s); zero outside ``[a, b]``."""
        x = np.asarray(x, dtype=float)
        if self.kind == "beta":
            rad = np.clip((x - self.a) * (self.b - x), 0.0, None)
            out = rad**self.power / self._beta_norm()
        else:
            inside = (x >= self.a) & (x <= self.b)
            out = np.where(inside,
                           np.clip(self._pdf_interp(np.clip(x, self.a, self.b)),
                                   0.0, None), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "beta":
            q = self.power + 1.0
            z = np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)
            out = special.betainc(q, q, z)
        else:
            lo = float(self._cdf_interp(self.a))
            out = np.clip(self._cdf_interp(np.clip(x, self.a, self.b)) - lo,
                          0.0, 1.0)
        return out if out.ndim else float(out)

    def quantile(self, u):
        """Monotone inverse of `cdf`; maps 0 to ``a`` and 1 to ``b`` exactly."""
        u = np.asarray(u, dtype=float)
        if np.any((u < 0.0) | (u > 1.0)):
            raise InvalidParameterError("quantile argument outside [0, 1]")
        scalar = not u.ndim
        u = np.atleast_1d(u)
        if self.kind == "beta":
            out = self._beta_quantile(u)
        else:
            out = self._table_quantile(u)
        out[u == 0.0] = self.a
        out[u == 1.0] = self.b
        return float(out[0]) if scalar else out

    # -- internals -------------------------------------------------------------

    def _beta_norm(self) -> float:
        p = self.power
        return float((self.b - self.a) ** (2.0 * p + 1.0)
                     * special.beta(p + 1.0, p + 1.0))

    def _beta_quantile(self, u: np.ndarray) -> np.ndarray:
        q = self.power + 1.0
        width = self.b - self.a
        out = self.a + width * special.betaincinv(q, q, u)
        # betaincinv alone drifts to ~1e-8 near the flat endpoints; two
        # safeguarded Newton corrections on the closed-form cdf restore
        # machine-level inversion
        for _ in range(2):
            z = np.clip((out - self.a) / width, 0.0, 1.0)
            miss = special.betainc(q, q, z) - u
            dens = self.pdf(out)
            out = np.clip(out - np.where(dens > 0.0,
                                         miss / np.where(dens > 0.0, dens, 1.0),
                                         0.0),
                          self.a, self.b)
        return out

    def _table_quantile(self, u: np.ndarray) -> np.ndarray:
        lo = np.full(u.shape, self.a)
        hi = np.full(u.shape, self.b)
        for _ in range(80):  # bisection: interval shrinks to ~(b-a) * 2^-80
            mid = 0.5 * (lo + hi)
            below = self.cdf(mid) < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)


def _beta_density(a: float, b: float, power: float,
                  theta: float) -> TerminalDensity:
    if not b > a:
        raise InvalidParameterError(f"support [{a}, {b}] is empty")
    if not power > 0.0 or not np.isfinite(power):
        raise InvalidParameterError(f"bump exponent must be positive, got {power}")
    n = N_QUADRATURE_NODES
    x = a + (b - a) * np.arange(1, n + 1) / (n + 1.0)
    out = TerminalDensity(kind="beta", a=float(a), b=float(b),
                          theta=float(theta), power=float(power),
                          x_nodes=x, samples=np.empty(0), mass=1.0)
    out = replace(out, samples=out.pdf(x))
    return replace(out, report=validate_compatibility(out))


def power_bump(a: float, b: float, theta: float) -> TerminalDensity:
    """Reference bump ``((x-a)(b-x))^{1/theta} / Z`` with the edge growth
    matched to the congestion exponent."""
    if not theta > 0.0:
        raise InvalidParameterError(f"theta must be positive, got {theta}")
    return _beta_density(a, b, 1.0 / theta, theta)


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
    return _beta_density(-p.r_alpha * scale, p.r_alpha * scale,
                         1.0 / p.theta, p.theta)


def validate_compatibility(m: TerminalDensity,
                           ratio_bound: float = RATIO_BOUND
                           ) -> CompatibilityReport:
    """Envelope of ``density / dist(x, {a, b})^{1/theta}`` over the interior
    sample nodes; advisory, `load_csv` raises on it in strict mode."""
    inner = (m.x_nodes > m.a) & (m.x_nodes < m.b)
    x = m.x_nodes[inner]
    vals = m.samples[inner]
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
    try:
        data = np.array([[float(c) for c in row] for row in rows[1:]])
    except ValueError as exc:
        raise FormatError(f"{path}: non-numeric entry ({exc})") from exc
    if data.ndim != 2 or data.shape[1] != 2:
        raise FormatError(f"{path}: expected exactly two columns")
    out = TerminalDensity.from_table(data[:, 0], data[:, 1], theta=theta)
    rep = out.report
    if strict and not rep.passed:
        raise CompatibilityError(
            f"terminal density violates the dist^(1/theta) edge growth: "
            f"envelope ratio {rep.ratio:.3g} exceeds {rep.bound:.3g}")
    return out


def save_csv(m: TerminalDensity, path) -> None:
    """Write the sample table as ``x,density`` (17 significant digits)."""
    with open(path, "w", newline="") as fh:
        fh.write("x,density\n")
        for x, d in zip(m.x_nodes, m.samples):
            fh.write(f"{x:.17g},{d:.17g}\n")
