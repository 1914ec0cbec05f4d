"""Oscillatory-integral quadrature, sublevel-set decay checks, the scale
shift j_l and the perturbation Q_l behind the curve multipliers, D_K norms,
and inverse-function perturbation machinery.

High-order numerical differentiation runs through Chebyshev interpolants
(never finite differences): D_K norms up to K ~ 8 need stable derivatives.
Functions may carry analytic derivatives, which always take precedence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .polynomials import Polynomial, _eval_vec, bisect, truncate_term
from . import polynomials as _poly

__all__ = [
    "SmoothFn",
    "PhasePair",
    "oscillatory_integral",
    "sublevel_check",
    "j_l_shift",
    "q_perturbation",
    "dk_norm",
    "inverse_function",
    "inverse_derivatives",
    "perturbation_pair_check",
]


@dataclass(frozen=True)
class SmoothFn:
    """A smooth function on an interval, optionally with analytic derivatives.

    derivs[k-1] is the k-th derivative; when absent, differentiation falls
    back to a Chebyshev interpolant of the values.
    """

    fn: Callable
    domain: tuple
    derivs: tuple = ()

    @property
    def derivative_order_available(self) -> int:
        return len(self.derivs)

    def __call__(self, t):
        return self.fn(t)

    def deriv(self, k: int) -> Callable:
        if k == 0:
            return self.fn
        if k <= len(self.derivs):
            return self.derivs[k - 1]
        raise ValueError(f"analytic derivative of order {k} not available")

    @classmethod
    def from_polynomial(cls, P: Polynomial, domain) -> "SmoothFn":
        """P with its first 12 derivatives, all analytic."""
        ders = []
        q = P
        for _ in range(12):
            q = q.derivative()
            ders.append(q.eval)
        return cls(fn=P.eval, domain=(float(domain[0]), float(domain[1])), derivs=tuple(ders))

    def minus(self, other: "SmoothFn") -> "SmoothFn":
        n = min(len(self.derivs), len(other.derivs))
        ders = tuple(
            (lambda k: (lambda t: self.derivs[k](t) - other.derivs[k](t)))(k) for k in range(n)
        )
        return SmoothFn(
            fn=lambda t: self.fn(t) - other.fn(t),
            domain=self.domain,
            derivs=ders,
        )


@dataclass(frozen=True)
class PhasePair:
    """Two phases that are (K, N)-close: unit derivative floors, bounded D_K
    norms, and D_K distance at most 2^-N."""

    f0: SmoothFn
    f1: SmoothFn
    K: int
    N: float


# -- 1d oscillatory quadrature -------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_NODE_BUDGET = 1 << 26
_REL_TOL = 1e-8
_CHUNK = 1 << 21
_SAMPLES = 4097  # phase' samples that find sup|phase'| and its sign flips
_WINDOW = 8.0  # stationary window half-width, in units of (|lam phase''(t0)|)^(-1/2)


def _lobatto_differentiation(n: int) -> tuple:
    """Chebyshev-Lobatto points on [-1, 1], ascending, and the matrix that
    differentiates their degree n-1 interpolant (Trefethen, Spectral Methods
    in MATLAB, ch. 6; diagonal by the negative-sum trick)."""
    x = -np.cos(np.pi * np.arange(n) / (n - 1))
    c = np.ones(n)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n)
    D = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n))
    D -= np.diag(D.sum(axis=1))
    return x, D


_LOBATTO_X, _LOBATTO_D = _lobatto_differentiation(25)
_LEVIN_STACK = 512  # panels per batched solve: 512 * 25^2 complex entries = 5 MB


def _sampled_derivative(phase: SmoothFn, xs: np.ndarray) -> np.ndarray:
    """phase' at the points xs: analytic when the phase carries it, else
    np.gradient of the sampled values."""
    if phase.derivative_order_available >= 1:
        return _eval_vec(phase.deriv(1), xs)
    return np.gradient(_eval_vec(phase.fn, xs), xs)


def _composite_gl(phase, amplitude, lam: float, a: float, b: float, n_panels: int) -> complex:
    total = 0.0 + 0.0j
    panels_per_chunk = max(1, _CHUNK // _GL_NODES.size)
    h = (b - a) / n_panels
    for start in range(0, n_panels, panels_per_chunk):
        stop = min(start + panels_per_chunk, n_panels)
        lefts = a + h * np.arange(start, stop)
        ts = (lefts[:, None] + h * 0.5 * (1.0 + _GL_NODES)[None, :]).ravel()
        w = np.broadcast_to(_GL_WEIGHTS * (h * 0.5), (stop - start, _GL_NODES.size)).ravel()
        vals = np.exp(1j * lam * _eval_vec(phase.fn, ts)) * _eval_vec(amplitude.fn, ts)
        total += complex(np.sum(w * vals))
    return total


def _composite_levin(phase, amplitude, lam: float, a: float, b: float, n_panels: int) -> complex:
    """Levin's rule: on each panel solve p' + i*lam*phase'*p = amplitude by
    collocation at the Chebyshev-Lobatto points, then the panel contributes
    [p exp(i*lam*phase)] across its two ends.  The work does not grow with lam.
    """
    edges = a + (b - a) / n_panels * np.arange(n_panels + 1)
    edges[-1] = b
    lo, hi = edges[:-1, None], edges[1:, None]
    # convex weights keep each panel's end nodes exactly on its edges
    ts = lo * (0.5 * (1.0 - _LOBATTO_X)) + hi * (0.5 * (1.0 + _LOBATTO_X))
    shape = ts.shape
    dphase = _eval_vec(phase.deriv(1), ts.ravel()).reshape(shape)
    amp = _eval_vec(amplitude.fn, ts.ravel()).reshape(shape)
    ends = np.exp(1j * lam * _eval_vec(phase.fn, edges))
    diag = np.arange(_LOBATTO_X.size)
    D = _LOBATTO_D * (2.0 * n_panels / (b - a))
    total = 0.0 + 0.0j
    for start in range(0, n_panels, _LEVIN_STACK):
        stop = min(start + _LEVIN_STACK, n_panels)
        A = np.empty((stop - start, *D.shape), dtype=complex)
        A[:] = D
        A[:, diag, diag] += 1j * lam * dphase[start:stop]
        p = np.linalg.solve(A, amp[start:stop, :, None])[:, :, 0]
        total += complex(np.sum(p[:, -1] * ends[start + 1 : stop + 1] - p[:, 0] * ends[start:stop]))
    return total


def _tol_floor(phase, amplitude, lam: float, a: float, b: float) -> float:
    """Absolute part of the acceptance rule, from 2049 samples of each."""
    probe = np.linspace(a, b, 2049)
    amp_mass = float(np.sum(np.abs(_eval_vec(amplitude.fn, probe)))) * ((b - a) / 2048)
    sup_phase = float(np.max(np.abs(_eval_vec(phase.fn, probe))))
    # exp(i lam phi) carries irreducible rounding noise ~ lam*|phi|*eps
    return amp_mass * (1e-14 + abs(lam) * sup_phase * 5e-16)


def _one_piece(phase, amplitude, lam: float, a: float, b: float, dphase: np.ndarray) -> complex:
    """int over [a, b] by one panel rule, given phase' at _SAMPLES points of [a, b]."""
    sup_dphase = float(np.max(np.abs(dphase)))
    periods = abs(lam) * sup_dphase * (b - a) / (2 * math.pi)
    n_nodes = max(128, int(math.ceil(20.0 * periods)))
    n_panels = max(8, int(math.ceil(n_nodes / _GL_NODES.size)))
    tol_floor = _tol_floor(phase, amplitude, lam, a, b)
    one_sign = bool(np.all(dphase > 0) or np.all(dphase < 0))
    levin_cap = min(n_panels * _GL_NODES.size, _NODE_BUDGET)
    levin_panels = 4
    if (
        lam != 0.0
        and phase.derivative_order_available >= 1
        and one_sign
        and 2 * levin_panels * _LOBATTO_X.size <= levin_cap
    ):
        prev = _composite_levin(phase, amplitude, lam, a, b, levin_panels)
        while 2 * levin_panels * _LOBATTO_X.size <= levin_cap:
            levin_panels *= 2
            cur = _composite_levin(phase, amplitude, lam, a, b, levin_panels)
            if abs(cur - prev) <= _REL_TOL * abs(cur) + tol_floor:
                return cur
            prev = cur
    prev = None
    while True:
        if n_panels * _GL_NODES.size > _NODE_BUDGET:
            raise ValueError(f"node budget exceeded: needs about {n_panels * _GL_NODES.size:.3g} nodes")
        cur = _composite_gl(phase, amplitude, lam, a, b, n_panels)
        if prev is not None and abs(cur - prev) <= _REL_TOL * abs(cur) + tol_floor:
            return cur
        prev = cur
        n_panels *= 2


def _cuts(phase, lam: float, xs: np.ndarray, dphase: np.ndarray) -> list:
    """Cut points a <= t0 - delta < t0 + delta <= b of [a, b] = [xs[0], xs[-1]]
    around its one stationary point t0, with delta = _WINDOW *
    |lam * phase''(t0)|^(-1/2), clipped to [a, b] and without repeats; just
    [a, b] when the samples dphase of phase' at xs do not flip sign exactly
    once."""
    a, b = float(xs[0]), float(xs[-1])
    flips = np.nonzero(np.signbit(dphase[1:]) != np.signbit(dphase[:-1]))[0]
    if lam == 0.0 or phase.derivative_order_available < 1 or flips.size != 1:
        return [a, b]
    i = int(flips[0])
    t0 = bisect(phase.deriv(1), float(xs[i]), float(xs[i + 1]))
    curvature = abs(lam * (dphase[i + 1] - dphase[i]) / (xs[i + 1] - xs[i]))
    if curvature == 0.0:
        return [a, b]
    delta = _WINDOW / math.sqrt(curvature)
    ends = [a, max(a, t0 - delta), min(b, t0 + delta), b]
    return [ends[0]] + [hi for lo, hi in zip(ends, ends[1:]) if hi > lo]


def oscillatory_integral(
    phase: SmoothFn,
    amplitude: SmoothFn,
    lam: float,
    interval=None,
) -> complex:
    """int exp(i*lam*phase(t)) amplitude(t) dt by two panel rules, on at most
    three pieces of the interval.

    - Composite Gauss-Legendre: 16 nodes per panel, and at least 20 nodes per
      oscillation period (estimated from lam * sup|phase'|) in the first pass.
    - Levin collocation: on each panel, p' + i*lam*phase'*p = amplitude is
      solved at 25 Chebyshev-Lobatto points and the panel contributes
      [p exp(i*lam*phase)] at its two ends, so the work does not grow with lam.

    Both rules double their panel count each pass and share one acceptance
    rule: a pass is accepted once it moves the result by at most
    1e-8 * |result| plus a floor for the rounding noise of exp(i*lam*phase).

    phase' is sampled at 4097 points, and the interval takes one of three
    routes:

    - Levin: lam != 0, the phase carries an analytic first derivative, and
      phase' keeps one strict sign on the samples (no stationary point).
    - Split: lam != 0, phase' is analytic and its samples flip sign exactly
      once.  The stationary point t0 is bisected in the flip's bracket and
      |phase''(t0)| estimated from the two bracketing samples.  A window of
      half-width 8 * (|lam * phase''(t0)|)^(-1/2) around t0, clipped to the
      interval, takes Gauss-Legendre, and each side of it is one more piece,
      with phase' sampled again on it, that normally takes Levin (Olver 2006;
      Iserles and Norsett 2005).  The pieces add up to the result.
    - Gauss-Legendre: every other interval, and a split whose window covers
      the whole interval.

    Each piece has its own acceptance floor.  Levin starts at 4 panels, runs
    only if its second pass fits, and stops before its node count would
    exceed the first Gauss-Legendre pass's or the node budget; Gauss-Legendre
    then runs as if Levin had not been tried.  The node budget (2^26 nodes)
    is checked whenever Gauss-Legendre is about to run a pass, so work Levin
    finishes is never refused.
    """
    a, b = map(float, interval if interval is not None else amplitude.domain)
    if not b > a:
        raise ValueError("empty interval")
    xs = np.linspace(a, b, _SAMPLES)
    dphase = _sampled_derivative(phase, xs)
    cuts = _cuts(phase, lam, xs, dphase)
    if len(cuts) == 2:
        return _one_piece(phase, amplitude, lam, a, b, dphase)
    total = 0.0 + 0.0j
    for lo, hi in zip(cuts, cuts[1:]):
        piece = _sampled_derivative(phase, np.linspace(lo, hi, _SAMPLES))
        total += _one_piece(phase, amplitude, lam, lo, hi, piece)
    return total


# -- sublevel sets -------------------------------------------------------------


def sublevel_check(
    u: SmoothFn, k: int, alpha_list: Sequence[float], interval=None, resolution: int = 4096
) -> tuple:
    """(measures, ratios): |{ |u| <= alpha }| for each alpha, and its ratio
    to alpha^(1/k).

    Requires |u^(k)| >= 1 on the interval, verified by sampling.  The
    resolution must out-resolve the thinnest band (width ~ alpha^(1/k) near
    a root cluster), which for k = 1 and small alpha means well above the
    default.
    """
    a, b = map(float, interval if interval is not None else u.domain)
    xs = np.linspace(a, b, 4097)
    if u.derivative_order_available >= k:
        dk = np.abs(_eval_vec(u.deriv(k), xs))
    else:
        interp = _cheb_interpolant(u, (a, b), 128)
        dk = np.abs(interp.deriv(k)(xs))
    if dk.min() < 1.0 - 1e-9:
        raise ValueError(f"derivative floor violated: min |u^({k})| = {dk.min():.3g} < 1")
    measures = [_poly.level_set_measure(u.fn, float(alpha), (a, b), resolution=resolution) for alpha in alpha_list]
    return measures, [m / float(alpha) ** (1.0 / k) for m, alpha in zip(measures, alpha_list)]


# -- scale shift and perturbation ----------------------------------------------


def j_l_shift(P: Polynomial, l: int) -> float:
    """j_l = log2|a_l| / (l - 1), the scale shift that normalizes a_l t^l."""
    if not 2 <= l <= P.degree:
        raise ValueError(f"l={l} out of range [2, {P.degree}]")
    a_l = P.coefficient(l)
    if a_l == 0.0:
        raise ValueError(f"coefficient a_{l} vanishes")
    return math.log2(abs(a_l)) / (l - 1)


def q_perturbation(P: Polynomial, l: int, j: float) -> Polynomial:
    """Q_l(t) = 2^(j_l + l*j) * (P - a_l t^l)(2^(-j_l - j) t), exactly in coefficients."""
    j_l = j_l_shift(P, l)
    Pl = truncate_term(P, l)
    scaled = [c * 2.0 ** (j_l * (1 - k) + j * (l - k)) for k, c in enumerate(Pl.coeffs)]
    return Polynomial(scaled)


# -- D_K norms -----------------------------------------------------------------


def _cheb_interpolant(F: SmoothFn, interval, degree: int):
    """DCT-based Chebyshev interpolant, trimmed at the rounding-noise floor.

    Repeated differentiation amplifies trailing-coefficient noise violently,
    so the series is cut where genuine decay meets the noise plateau.
    """
    a, b = interval
    n = degree + 1
    theta = (2 * np.arange(n) + 1) * np.pi / (2 * n)
    xs = 0.5 * (a + b) + 0.5 * (b - a) * np.cos(theta)
    vals = _eval_vec(F.fn, xs)
    # DCT-II as a cosine matrix; angles reduced mod 2π in integers first, so
    # cos never sees an argument beyond 2π and each entry keeps full accuracy
    k = np.arange(n)
    c = (2.0 / n) * (np.cos(np.pi * (np.outer(k, 2 * k + 1) % (4 * n)) / (2 * n)) @ vals)
    c[0] *= 0.5
    scale = max(float(np.max(np.abs(c))), 1e-300)
    if float(np.max(np.abs(c[-8:]))) > 1e-10 * max(scale, 1.0):
        raise ValueError("not smooth enough at this degree")
    noise = float(np.median(np.abs(c[-max(8, n // 4):])))
    thr = max(10.0 * noise, 1e-16 * scale)
    keep = np.nonzero(np.abs(c) > thr)[0]
    trimmed = c[: keep[-1] + 1] if keep.size else c[:1]
    return cheb.Chebyshev(trimmed, domain=[a, b])


def dk_norm(F: SmoothFn, K: int, interval=None) -> float:
    """sup over k <= K of the sup-norm of the k-th derivative on the interval,
    from 4097 samples; a degree-256 Chebyshev interpolant stands in for
    derivatives F does not carry."""
    if K < 0:
        raise ValueError("K must be >= 0")
    a, b = map(float, interval if interval is not None else F.domain)
    xs = np.linspace(a, b, 4097)
    best = float(np.max(np.abs(_eval_vec(F.fn, xs))))
    if F.derivative_order_available >= K:
        for k in range(1, K + 1):
            best = max(best, float(np.max(np.abs(_eval_vec(F.deriv(k), xs)))))
        return best
    series = _cheb_interpolant(F, (a, b), 256)
    for k in range(1, K + 1):
        series = series.deriv(1)
        best = max(best, float(np.max(np.abs(series(xs)))))
    return best


# -- inverse functions ----------------------------------------------------------


def inverse_function(F: SmoothFn, a: float) -> float:
    """Solve F(t) = a on F's domain, where F must be strictly monotone."""
    lo, hi = map(float, F.domain)
    xs = np.linspace(lo, hi, 4097)
    vals = _eval_vec(F.fn, xs)
    d = np.diff(vals)
    if np.all(d > 0):
        pass
    elif np.all(d < 0):
        xs, vals = xs[::-1], vals[::-1]
    else:
        raise ValueError("function not strictly monotone on interval")
    if not (vals[0] <= a <= vals[-1]):
        raise ValueError(f"target {a} outside range [{vals[0]}, {vals[-1]}]")
    i = int(np.searchsorted(vals, a).clip(1, len(vals) - 1))
    t_lo, t_hi = sorted((xs[i - 1], xs[i]))
    t = bisect(lambda t: F.fn(t) - a, t_lo, t_hi)
    if F.derivative_order_available >= 1:
        # polish all the way to the rounding floor: downstream finite
        # differences divide by h^4 and feel every spare ulp
        for _ in range(50):
            r = float(F.fn(t)) - a
            df = float(F.deriv(1)(t))
            if df == 0.0:
                break
            step = r / df
            t -= step
            if abs(step) <= 4e-16 * (1.0 + abs(t)):
                break
    return t


def _taylor_coefficients(F: SmoothFn, x0: float, n_max: int) -> np.ndarray:
    """Coefficients of F(x0 + u) = sum c_k u^k for k = 0..n_max."""
    if F.derivative_order_available >= n_max:
        cs = [float(F.fn(x0))]
        fact = 1.0
        for k in range(1, n_max + 1):
            fact *= k
            cs.append(float(F.deriv(k)(x0)) / fact)
        return np.asarray(cs)
    a, b = F.domain
    series = _cheb_interpolant(F, (a, b), 256)
    cs = []
    fact = 1.0
    cur = series
    cs.append(float(cur(x0)))
    for k in range(1, n_max + 1):
        cur = cur.deriv(1)
        fact *= k
        cs.append(float(cur(x0)) / fact)
    return np.asarray(cs)


def _reverse_series(f_taylor: np.ndarray, n_max: int) -> np.ndarray:
    """Power-series reversion: y = sum_{k>=1} f_k u^k -> u = sum_{n>=1} g_n y^n.

    Term by term: with G known through degree n-1, the y^n coefficient of
    sum_k f_k G(y)^k must vanish, which pins g_n.
    """
    f1 = f_taylor[1]
    if f1 == 0.0:
        raise ValueError("critical point: reversion requires f'(x0) != 0")
    g = np.zeros(n_max + 1)
    g[1] = 1.0 / f1
    for n in range(2, n_max + 1):
        G = np.zeros(n + 1)
        G[1:n] = g[1:n]
        acc = 0.0
        Gk = np.polynomial.polynomial.polymul(G, G)[: n + 1]
        for k in range(2, n + 1):
            fk = f_taylor[k] if k < len(f_taylor) else 0.0
            if fk != 0.0 and len(Gk) > n:
                acc += fk * Gk[n]
            if k < n:
                Gk = np.polynomial.polynomial.polymul(Gk, G)[: n + 1]
        g[n] = -acc / f1
    return g


def inverse_derivatives(F: SmoothFn, x0: float, n_max: int) -> list:
    """d^n x / dy^n of the inverse function at y0 = F(x0), n = 1..n_max.

    Computed by Lagrange reversion of the Taylor series at x0, then scaled
    by factorials.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    taylor = _taylor_coefficients(F, float(x0), n_max)
    if taylor[1] == 0.0:
        raise ValueError("critical point")
    g = _reverse_series(taylor, n_max)
    out = []
    fact = 1.0
    for n in range(1, n_max + 1):
        fact *= n
        out.append(float(g[n] * fact))
    return out


# -- (K, N)-pairs ----------------------------------------------------------------


def perturbation_pair_check(pair: PhasePair, sample_points: Sequence[float]) -> tuple:
    """(distance, bound): the D_{K-1} distance of the two inverse functions
    over the sampled range, and the 2^(-N/3) bound it should stay below.

    Validates the pair invariants first: (i) derivative floors >= 1/2,
    (ii) D_K norms <= 10, (iii) D_K distance <= 2^-N; failure names the
    offending condition.
    """
    K, N = pair.K, pair.N
    if K < 2:
        raise ValueError(f"K must be at least 2, got {K}")
    dom = pair.f0.domain
    failures = []
    xs = np.linspace(dom[0], dom[1], 2049)
    for tag, F in (("F0", pair.f0), ("F1", pair.f1)):
        dmin = float(np.min(np.abs(_sampled_derivative(F, xs))))
        if dmin < 0.5:
            failures.append(f"(i) inf|D{tag}| = {dmin:.3g} < 0.5")
    for tag, F in (("F0", pair.f0), ("F1", pair.f1)):
        nrm = dk_norm(F, K, dom)
        if nrm > 10.0:
            failures.append(f"(ii) ||{tag}||_D{K} = {nrm:.3g} > 10")
    dist = dk_norm(pair.f0.minus(pair.f1), K, dom)
    if dist > 2.0**-N:
        failures.append(f"(iii) ||F0-F1||_D{K} = {dist:.3g} > 2^-{N}")
    if failures:
        raise ValueError("(K,N)-pair invariant failed: " + "; ".join(failures))

    norm = 0.0
    for a in sample_points:
        t0 = inverse_function(pair.f0, float(a))
        t1 = inverse_function(pair.f1, float(a))
        d0 = [t0, *inverse_derivatives(pair.f0, t0, K - 1)]
        d1 = [t1, *inverse_derivatives(pair.f1, t1, K - 1)]
        norm = max(norm, *(abs(u - v) for u, v in zip(d0, d1)))
    return norm, 2.0 ** (-N / 3.0)
