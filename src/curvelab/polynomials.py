"""Polynomial arithmetic, real root isolation with multiplicities, and
sublevel/level-set measure estimation.

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
        """Horner evaluation; accepts scalars or numpy arrays.

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
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for c in reversed(self.coeffs):
            out = out * t + c
        if out.ndim == 0:
            return float(out)
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


def _effective_degree(P: Polynomial) -> int:
    for k in range(P.degree, -1, -1):
        if abs(P.coeffs[k]) > 0.0:
            return k
    return -1


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


def _root_order(P: Polynomial, r: float, tol_order: float, max_order: int) -> int:
    p = P
    for m in range(1, max_order + 1):
        p = p.derivative()
        if abs(p.eval(r)) > tol_order:
            return m
    return max_order


def _roots_recursive(P: Polynomial, lo: float, hi: float, tol: float) -> list:
    deg = _effective_degree(P)
    if deg <= 0:
        return []
    if deg == 1:
        r = -P.coeffs[0] / P.coeffs[1]
        return [r] if lo <= r <= hi else []
    crit = _roots_recursive(P.derivative(), lo, hi, tol)
    breaks = sorted({lo, hi, *crit})
    roots = []
    vals = [P.eval(x) for x in breaks]
    for (a, fa), (b, fb) in zip(zip(breaks, vals), zip(breaks[1:], vals[1:])):
        if fa == 0.0:
            roots.append(a)
        if (fa < 0) != (fb < 0) and fa != 0.0 and fb != 0.0:
            roots.append(_newton_polish(P, bisect(P.eval, a, b), lo, hi))
    if vals and vals[-1] == 0.0:
        roots.append(breaks[-1])
    # even-order roots produce no sign change; they sit at critical points
    tol_res = max(tol, 1e-12 * (1.0 + P.max_abs_coeff))
    for c in crit:
        if abs(P.eval(c)) <= tol_res:
            roots.append(c)
    return roots


def real_roots_with_orders(P: Polynomial, interval, tol: float) -> list:
    """All real roots of P on [lo, hi] with multiplicities.

    Root isolation walks the derivative chain: between consecutive critical
    points P is monotone (bisection + Newton finds sign-change roots), and
    even-order roots are exactly the critical points where |P| <= tol.
    The order is the smallest m with |P^(m)(r)| above a coefficient-scaled
    threshold.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if P.is_zero:
        raise ValueError("zero polynomial")
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("empty interval")
    tol_order = 1e-6 * (1.0 + P.max_abs_coeff)
    candidates = sorted(_roots_recursive(P, lo, hi, tol))
    sep = 1e-7 * (hi - lo + 1.0)
    merged: list = []
    for r in candidates:
        if merged and abs(r - merged[-1]) <= sep:
            if abs(P.eval(r)) < abs(P.eval(merged[-1])):
                merged[-1] = r
        else:
            merged.append(r)
    out = []
    for r in merged:
        if abs(P.eval(r)) > tol:
            continue
        order = _root_order(P, r, tol_order, _effective_degree(P))
        if order > 1:
            # polish on P^(order-1), where the root is simple
            r = _newton_polish(P.nth_derivative(order - 1), r, lo, hi)
        if lo <= r <= hi:
            out.append((r, order))
    return out


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
