"""Polynomial arithmetic, real roots with multiplicities from clusters of the
companion eigenvalues, and sublevel/level-set measure estimation.

`bisect` and `bands` are the one bracketed solver and the one band finder
behind every root, crossing, inverse and band search in the package.

Curve polynomials P(t) = a_d t^d + ... + a_2 t^2 carry no constant and no
linear term; derived objects (P', P' - 1, ...) may carry both, so the class
stores the full ascending coefficient tuple (a_0, a_1, ..., a_d).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Polynomial",
    "truncate_term",
    "real_roots_with_orders",
    "level_set_measure",
    "bisect",
    "bands",
    "fit_decay_exponent",
]


def _as_floats(coeffs) -> list:
    """coeffs as a list of floats; ValueError with a message when they are
    not a sequence of numbers."""
    if not isinstance(coeffs, (str, bytes)):
        try:
            return [float(c) for c in coeffs]
        except (TypeError, ValueError):
            pass
    raise ValueError(f"polynomial coefficients must be a sequence of numbers, got {coeffs!r}")


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial with ascending coefficients; coeffs[k] multiplies t^k."""

    coeffs: tuple

    def __init__(self, coeffs: Sequence[float]):
        cs = _as_floats(coeffs)
        while len(cs) > 1 and cs[-1] == 0.0:
            cs.pop()
        if not cs:
            cs = [0.0]
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def curve(cls, coeffs_from_linear: Sequence[float]) -> "Polynomial":
        """Build from (a_1, ..., a_d); the constant term is implicitly zero."""
        p = cls((0.0, *coeffs_from_linear))
        if p.degree < 1:
            raise ValueError("curve polynomial must have degree >= 1")
        return p

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.coeffs)

    @property
    def max_abs_coeff(self) -> float:
        return max(abs(c) for c in self.coeffs)

    def coefficient(self, k: int) -> float:
        if 0 <= k <= self.degree:
            return self.coeffs[k]
        return 0.0

    def eval(self, t):
        """Horner evaluation; accepts scalars or numpy arrays, real or complex.

        A Python float or int (np.float64 included) takes a plain-float loop
        with the same arithmetic as the array path: from 0.0, multiply by t
        then add each coefficient, highest first.  It returns the same float
        bit for bit, without the cost of a 0-d array.
        """
        if isinstance(t, (float, int)):
            t = float(t)
            out = 0.0
            for c in reversed(self.coeffs):
                out = out * t + c
            return out
        t = np.asarray(t)
        t = t.astype(complex if t.dtype.kind == "c" else float, copy=False)
        out = np.zeros_like(t)
        for c in reversed(self.coeffs):
            out = out * t + c
        if out.ndim == 0:
            return out.item()
        return out

    __call__ = eval

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((0.0,))
        return Polynomial(tuple((k + 1) * c for k, c in enumerate(self.coeffs[1:])))

    def nth_derivative(self, n: int) -> "Polynomial":
        p = self
        for _ in range(n):
            p = p.derivative()
        return p

    def sub_constant(self, c: float) -> "Polynomial":
        """P - c, used for objects like P' - 1."""
        cs = list(self.coeffs)
        cs[0] -= c
        return Polynomial(cs)

    def has_linear_term(self, tol: float = 0.0) -> bool:
        return abs(self.coefficient(1)) > tol

    def require_no_linear_term(self) -> None:
        if self.coefficient(0) != 0.0 or self.has_linear_term(1e-12):
            raise ValueError(
                "polynomial must have zero constant and zero linear term; "
                f"got a_0={self.coefficient(0)!r}, a_1={self.coefficient(1)!r}"
            )


def _eval_vec(fn: Callable, xs: np.ndarray) -> np.ndarray:
    """fn at the points xs, broadcast to their shape (fn may return a constant)."""
    v = np.asarray(fn(xs))
    if v.shape != xs.shape:
        v = np.broadcast_to(v, xs.shape).copy()
    return v


def bisect(f: Callable, lo: float, hi: float, width: float = 0.0) -> float:
    """A point where f changes sign in [lo, hi], which must bracket a change.

    The bracket is halved, keeping the half over which the sign of f flips,
    while it is wider than width and its midpoint falls strictly inside; the
    last midpoint is returned.  With width = 0 that is the floating-point
    limit.  Only the test f(t) < 0 is used, so f may be any real function,
    a band indicator mapped to +-1 included.
    """
    neg_lo = f(lo) < 0
    while True:
        mid = 0.5 * (lo + hi)
        if not hi - lo > width or mid == lo or mid == hi:
            return mid
        if (f(mid) < 0) != neg_lo:
            hi = mid
        else:
            lo = mid


def bands(inside: Callable, lo: float, hi: float, samples: int, width: float) -> list:
    """Maximal subintervals (a, b) of [lo, hi] on which inside holds.

    inside maps an array of points to booleans, and a float point to one
    boolean.  It is sampled at samples + 1 equispaced points, and every flip
    between neighbours is refined by bisection to width, one float point at
    a time; a band thinner than one sample cell can be missed.
    """
    xs = np.linspace(lo, hi, samples + 1)
    mask = inside(xs)
    flips = np.nonzero(mask[1:] != mask[:-1])[0]

    def sign(t):
        return -1.0 if inside(t) else 1.0

    edges = [bisect(sign, xs[i], xs[i + 1], width) for i in flips]
    if mask[0]:
        edges.insert(0, xs[0])
    if mask[-1]:
        edges.append(xs[-1])
    return list(zip(edges[::2], edges[1::2]))


def truncate_term(P: Polynomial, l: int) -> Polynomial:
    """Zero out the coefficient of t^l, leaving all others untouched."""
    if not (2 <= l <= P.degree):
        raise ValueError(f"l={l} out of range [2, {P.degree}]")
    cs = list(P.coeffs)
    cs[l] = 0.0
    return Polynomial(cs)


def _newton_polish(P: Polynomial, r: float, lo: float, hi: float) -> float:
    dP = P.derivative()
    for _ in range(60):
        f = P.eval(r)
        df = dP.eval(r)
        if df == 0.0:
            break
        step = f / df
        r_new = r - step
        if not (lo - 1.0 <= r_new <= hi + 1.0):
            break
        if r_new == r:
            break
        r = r_new
        if abs(step) < 1e-16 * (1.0 + abs(r)):
            break
    return r


_SEGMENT = np.linspace(0.0, 1.0, 65)  # where |P| is sampled between two eigenvalues


def real_roots_with_orders(P: Polynomial, interval, tol: float) -> list:
    """All real roots of P on [lo, hi] with multiplicities, in ascending order.

    The roots of P are the eigenvalues of its companion matrix.  Two of them
    join when |P| <= tol at 65 points of the segment between them, so each
    joined cluster stands for one component of {z : |P(z)| <= tol}, where
    any perturbation of P below tol keeps that many roots.  A cluster whose
    mean is real and in [lo, hi] is one root; its order is the cluster's
    size, and it is polished by Newton on P^(order-1), where it is simple.
    The orders add up to at most the degree of P.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if P.is_zero:
        raise ValueError("zero polynomial")
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("empty interval")
    z = np.polynomial.polynomial.polyroots(P.coeffs)
    segments = z[:, None, None] + _SEGMENT * (z[None, :, None] - z[:, None, None])
    joined = np.all(np.abs(P.eval(segments)) <= tol, axis=2)
    parent = list(range(z.size))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, k in zip(*np.nonzero(joined)):
        parent[find(i)] = find(k)
    clusters: dict = {}
    for i, root in enumerate(z.tolist()):
        clusters.setdefault(find(i), []).append(root)
    out = []
    for members in clusters.values():
        mean = sum(members) / len(members)
        r, order = mean.real, len(members)
        if abs(mean.imag) > 1e-12 * (1.0 + abs(r)) or not lo <= r <= hi:
            continue
        r = _newton_polish(P.nth_derivative(order - 1), r, lo, hi)
        if lo <= r <= hi:
            out.append((r, order))
    return sorted(out)


def level_set_measure(g: Callable, h: float, domain, resolution: int = 4096) -> float:
    """Lebesgue measure of {t in domain : |g(t)| < h}.

    The summed length of the bands of |g| < h found at this resolution, with
    every threshold crossing refined to width (hi-lo)*1e-9, so the error is
    dominated by features thinner than one sample cell.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if resolution < 1024:
        raise ValueError("resolution must be >= 1024")
    lo, hi = float(domain[0]), float(domain[1])

    def below(t):
        if isinstance(t, float):  # a bisection step: the same test without numpy's array overhead
            return abs(g(t)) < h
        return np.abs(_eval_vec(g, t)) < h

    found = bands(below, lo, hi, resolution, (hi - lo) * 1e-9)
    return sum((b - a for a, b in found), 0.0)


def fit_decay_exponent(pairs) -> tuple:
    """Ordinary least squares of log y against log x.

    Returns (slope, intercept, r_squared); the workhorse behind every
    measured scaling law in the experiment suites.
    """
    arr = np.asarray(list(pairs), dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 3:
        raise ValueError("need at least 3 (x, y) pairs")
    if np.any(arr <= 0):
        raise ValueError("all x and y must be positive")
    lx, ly = np.log(arr[:, 0]), np.log(arr[:, 1])
    slope, intercept = np.polyfit(lx, ly, 1)
    fit = slope * lx + intercept
    ss_res = float(np.sum((ly - fit) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    if ss_tot <= 1e-300:
        r2 = 1.0 if ss_res <= 1e-20 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2
