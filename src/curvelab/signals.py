"""Grid-sampled functions, L^p functionals, smooth dyadic cutoffs, and the
uncentered Hardy-Littlewood maximal function.

Evaluation outside a grid returns 0 (zero extension); the bilinear operators
shift arguments by t and P(t), which routinely leaves the sampled window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "GridFunction",
    "theta",
    "phi_hat",
    "psi",
    "rho",
    "lp_norm",
    "weak_lp_quasinorm",
    "littlewood_paley_piece",
    "multiplier_piece",
    "hl_maximal",
]


@dataclass(frozen=True)
class GridFunction:
    """Uniform samples of a real or complex function on [lo, hi]."""

    lo: float
    hi: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.dtype.kind not in "fc":
            v = v.astype(float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("values must be 1-d with at least 2 samples")
        if not self.hi > self.lo:
            raise ValueError("need hi > lo")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)

    @property
    def is_complex(self) -> bool:
        return self.values.dtype.kind == "c"

    @classmethod
    def sample(cls, fn: Callable, lo: float, hi: float, n: int) -> "GridFunction":
        xs = np.linspace(lo, hi, n)
        return cls(lo, hi, np.asarray(fn(xs)))

    @classmethod
    def indicator(cls, a: float, b: float, lo: float, hi: float, n: int) -> "GridFunction":
        xs = np.linspace(lo, hi, n)
        return cls(lo, hi, ((xs >= a) & (xs <= b)).astype(float))

    def __call__(self, x):
        """Linear interpolation with zero extension outside [lo, hi]."""
        x = np.asarray(x, dtype=float)
        if self.is_complex:
            re = np.interp(x, self.x, self.values.real, left=0.0, right=0.0)
            im = np.interp(x, self.x, self.values.imag, left=0.0, right=0.0)
            out = re + 1j * im
        else:
            out = np.interp(x, self.x, self.values, left=0.0, right=0.0)
        if out.ndim == 0:
            return complex(out) if self.is_complex else float(out)
        return out

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.lo, self.hi, values)

    def translate(self, h: float) -> "GridFunction":
        return GridFunction(self.lo + h, self.hi + h, self.values)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return self.with_values(self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return self.with_values(self.values - other.values)

    def __mul__(self, c) -> "GridFunction":
        return self.with_values(self.values * c)

    __rmul__ = __mul__

    def _check_same_grid(self, other: "GridFunction") -> None:
        if (self.lo, self.hi, self.n) != (other.lo, other.hi, other.n):
            raise ValueError("grid mismatch")


# -- smooth cutoffs ----------------------------------------------------------
#
# The one cutoff family behind every dyadic decomposition:
# phi_hat(xi) = theta(xi/2) - theta(xi) is supported on 1/2 < |xi| < 2 and
# telescopes to a partition of unity; rho(t) = psi(|t|)/t is odd, and
# sum_j 2^j rho(2^j t) reconstructs 1/t where the telescope closes.


def _bump_sigma(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def theta(xi) -> np.ndarray:
    """C^inf cutoff: 1 on |xi| <= 1/2, 0 on |xi| >= 1, mollifier-ratio glue."""
    xi = np.asarray(xi, dtype=float)
    s = 2.0 * (np.abs(xi) - 0.5)
    a = _bump_sigma(1.0 - s)
    b = _bump_sigma(s)
    denom = a + b
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(denom > 0, a / np.where(denom > 0, denom, 1.0), 0.0)
    out = np.where(s <= 0.0, 1.0, out)
    out = np.where(s >= 1.0, 0.0, out)
    return out if out.ndim else float(out)


def phi_hat(xi):
    return theta(np.asarray(xi, dtype=float) / 2.0) - theta(xi)


def psi(t):
    return phi_hat(np.abs(np.asarray(t, dtype=float)))


def rho(t):
    t = np.asarray(t, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(t != 0.0, psi(t) / np.where(t != 0.0, t, 1.0), 0.0)
    return out if out.ndim else float(out)


# -- norms -------------------------------------------------------------------


def _trapezoid_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def _quad_nodes(a: float, b: float, n: int):
    """n equispaced nodes on [a, b] and their trapezoid weights."""
    return np.linspace(a, b, n), _trapezoid_weights(n) * ((b - a) / (n - 1))


def lp_norm(f: GridFunction, p: float) -> float:
    """(integral |f|^p)^(1/p) with trapezoid end-weights; quasi-norm for p < 1."""
    if p <= 0:
        raise ValueError("p must be positive")
    w = _trapezoid_weights(f.n)
    return float(np.sum(w * np.abs(f.values) ** p) * f.step) ** (1.0 / p)


def weak_lp_quasinorm(f: GridFunction, p: float) -> float:
    """sup over lambda of lambda * |{|f| >= lambda}|^(1/p), measure by step-counting.

    Closed sublevel sets make the sup attainable at the sample magnitudes
    themselves (the lambda -> v^- limit of the open-set definition), so it is
    evaluated exactly there.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    mag = np.abs(f.values)
    w = _trapezoid_weights(f.n) * f.step
    if not np.any(mag > 0):
        return 0.0
    order = np.argsort(mag)[::-1]
    sorted_mag = mag[order]
    suffix = np.cumsum(w[order])  # measure of {|f| >= sorted_mag[k]}
    keep = sorted_mag > 0
    return float(np.max(sorted_mag[keep] * suffix[keep] ** (1.0 / p)))


# -- Littlewood-Paley pieces ------------------------------------------------


def multiplier_piece(f: GridFunction, multiplier: Callable) -> GridFunction:
    """Apply a frequency multiplier (in cycles per unit) via FFT."""
    fx = np.fft.fft(f.values)
    freqs = np.fft.fftfreq(f.n, d=f.step)
    out = np.fft.ifft(fx * multiplier(freqs))
    if not f.is_complex and np.max(np.abs(out.imag)) < 1e-9 * (1.0 + np.max(np.abs(out.real))):
        out = out.real
    return f.with_values(out)


def littlewood_paley_piece(f: GridFunction, k: float) -> GridFunction:
    """f * Phi_k via Fourier multiplication with phi_hat(xi / 2^k); k may be fractional."""
    nyquist = 1.0 / (2.0 * f.step)
    if 2.0 ** (k + 1) >= nyquist:
        raise ValueError("scale too fine for grid")
    return multiplier_piece(f, lambda xi: phi_hat(xi / 2.0**k))


# -- maximal function --------------------------------------------------------


def _one_sided_max_avg(x: np.ndarray, S: np.ndarray) -> np.ndarray:
    """max over a < i of (S[i]-S[a])/(x[i]-x[a]), via the lower hull of (x, S).

    The scan runs on Python floats, whose arithmetic is float64's, so the
    result is bit-identical to the same loop on numpy scalars.
    """
    xs, Ss = x.tolist(), S.tolist()
    out = [0.0] * len(xs)
    hull: list = [0]
    for i in range(1, len(xs)):
        xi, si = xs[i], Ss[i]
        # pop vertices on or above the chord to i; the last one left is where
        # the lower tangent from i touches the hull, so its slope to i is the max
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (Ss[b] - Ss[a]) * (xi - xs[b]) >= (si - Ss[b]) * (xs[b] - xs[a]):
                hull.pop()
            else:
                break
        h = hull[-1]
        out[i] = (si - Ss[h]) / (xi - xs[h])
        hull.append(i)
    return np.array(out)


def hl_maximal(f: GridFunction) -> GridFunction:
    """Uncentered Hardy-Littlewood maximal function on the grid.

    Averages run over grid intervals [x_a, x_b] containing x; the two-sided
    sup splits exactly into left/right one-sided sups (weighted-mean
    inequality), each solved with prefix sums and a convex-hull scan.
    """
    a = np.abs(f.values)
    x = f.x
    S = np.concatenate([[0.0], np.cumsum(f.step * 0.5 * (a[1:] + a[:-1]))])
    left = _one_sided_max_avg(x, S)
    right = _one_sided_max_avg(-x[::-1], -S[::-1])[::-1]
    return f.with_values(np.maximum(a, np.maximum(left, right)))


def maximal_p(f: GridFunction, p: float) -> GridFunction:
    """M_p f = (M |f|^p)^(1/p)."""
    mp = hl_maximal(f.with_values(np.abs(f.values) ** p))
    return f.with_values(mp.values ** (1.0 / p))
