"""Reference computations for the output checks, written apart from curvelab.

Nothing here imports curvelab: each function re-derives a quantity from its
mathematical definition (the smooth cutoffs, the Whitney selection rule, the
scale-domination rule, inverse-function derivatives) or evaluates an integral
with a quadrature of its own.
"""

from __future__ import annotations

import math

import numpy as np

# -- smooth cutoffs -------------------------------------------------------------


def _sigma(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def theta(xi):
    """C-infinity cutoff: 1 for |xi| <= 1/2, 0 for |xi| >= 1, and
    sigma(1-s) / (sigma(1-s) + sigma(s)) with s = 2|xi| - 1 in between,
    where sigma(x) = exp(-1/x) for x > 0."""
    s = 2.0 * np.abs(np.asarray(xi, dtype=float)) - 1.0
    a = _sigma(1.0 - s)
    b = _sigma(s)
    mid = (s > 0.0) & (s < 1.0)
    out = np.where(s <= 0.0, 1.0, 0.0)
    out[mid] = a[mid] / (a[mid] + b[mid])
    return out


def phi_hat(xi):
    xi = np.asarray(xi, dtype=float)
    return theta(xi / 2.0) - theta(xi)


def rho(t):
    """Odd kernel psi(|t|)/t with psi = phi_hat on the annulus 1/2 < |t| < 2."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    nz = t != 0.0
    out[nz] = phi_hat(np.abs(t[nz])) / t[nz]
    return out


# -- quadrature -----------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(40)
_CHUNK_PANELS = 4096  # 160k nodes per block keeps the checks' memory small


def gl_integral(fn, a, b, n_panels):
    """Composite 40-point Gauss-Legendre rule over n_panels equal panels."""
    h = (b - a) / n_panels
    total = 0.0
    for start in range(0, n_panels, _CHUNK_PANELS):
        stop = min(start + _CHUNK_PANELS, n_panels)
        lefts = a + h * np.arange(start, stop)
        ts = (lefts[:, None] + 0.5 * h * (1.0 + _GL_X)[None, :]).ravel()
        w = np.tile(_GL_W * 0.5 * h, stop - start)
        total = total + np.sum(w * fn(ts))
    return total


def quadratic_phase_integral(lam, xi, eta, a, b):
    """int_a^b exp(-2 pi i lam (t xi + t^2 eta)) rho(t) dt.

    Each panel spans at most two periods of the phase, 20 Gauss nodes per
    period, and never more than 1/512 of the interval, which resolves the
    flat ends of rho.
    """
    sup_dphase = 2.0 * math.pi * max(abs(xi + 2.0 * a * eta), abs(xi + 2.0 * b * eta))
    periods = lam * sup_dphase * (b - a) / (2.0 * math.pi)
    n_panels = max(512, int(math.ceil(periods / 2)))

    def integrand(t):
        return np.exp(-2j * math.pi * lam * (t * xi + t * t * eta)) * rho(t)

    return complex(gl_integral(integrand, a, b, n_panels))


# -- Whitney cells --------------------------------------------------------------


def whitney_cell_count(omega, defect_budget=2.0**-35):
    """Number of dyadic cells J = [n 2^-k, (n+1) 2^-k] the Whitney rule emits.

    J is emitted when it lies strictly inside a component (c, d) with
    min(lo - c, d - hi) >= |J|, and J is at the top level or its parent fails
    that test while being no shorter than the defect floor.  Within one
    component the passing n at a level form one run, so each level contributes
    the passing run minus the children of the parent level's passing run.
    """
    comps = sorted((float(a), float(b)) for a, b in omega if b > a)
    merged = []
    for a, b in comps:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    if not merged:
        return 0
    total = sum(b - a for a, b in merged)
    floor_len = total * defect_budget / 4.0
    k0 = math.floor(-math.log2(merged[-1][1] - merged[0][0]))

    def passing_run(c, d, k):
        # n with min(n L - c, d - (n + 1) L) >= L, as the float predicate
        L = 2.0**-k

        def ok(n):
            lo, hi = n * L, (n + 1) * L
            return lo > c and hi < d and min(lo - c, d - hi) >= L

        lo_guess = math.ceil(c / L) + 1
        hi_guess = math.floor(d / L) - 2
        n_lo = next((n for n in range(lo_guess - 2, lo_guess + 3) if ok(n)), None)
        n_hi = next((n for n in range(hi_guess + 2, hi_guess - 3, -1) if ok(n)), None)
        if n_lo is None or n_hi is None or n_hi < n_lo:
            return None
        return n_lo, n_hi

    count = 0
    for c, d in merged:
        k = k0
        parent = None
        while True:
            run = passing_run(c, d, k)
            if run is not None:
                n_lo, n_hi = run
                emitted = n_hi - n_lo + 1
                if parent is not None:
                    # children of passing parents pass too and are not emitted
                    emitted -= 2 * (parent[1] - parent[0] + 1)
                count += emitted
            parent = run
            # cells at level k are split only when no shorter than the floor
            if 2.0**-k < floor_len:
                break
            k += 1
    return count


# -- scale classification -----------------------------------------------------------


def classify_rule(coeffs, N, j_lo, j_hi, guard=1e-9):
    """Class of every scale j: 'l=<l>' when |j| >= N and the l-th term beats
    every other active term by N + 2d in log2 size at scale j, else 'good'."""
    active = [k for k in range(1, len(coeffs)) if coeffs[k] != 0.0]
    d = max(active)
    margin = N + 2 * d
    logs = {k: math.log2(abs(coeffs[k])) for k in active}
    out = {}
    for j in range(j_lo, j_hi + 1):
        cls = "good"
        if abs(j) >= N:
            for l in active:
                if all(logs[l] - j * l > logs[k] - j * k + margin + guard for k in active if k != l):
                    cls = f"l={l}"
                    break
        out[j] = cls
    return out


# -- inverse-function derivatives --------------------------------------------------


def inverse_derivatives_mp(coeffs, x0, n_max, dps=50):
    """d^n x/dy^n of the inverse of P at y = P(x0), n = 1..4, in mpmath.

    Closed forms from differentiating x'(y) = 1 / P'(x) repeatedly.
    """
    import mpmath

    if n_max > 4:
        raise ValueError("closed forms cover orders 1..4")
    with mpmath.workdps(dps):
        cs = [mpmath.mpf(c) for c in coeffs]
        x = mpmath.mpf(x0)

        def deriv(m):
            return sum(
                cs[i] * mpmath.ff(i, m) * x ** (i - m) for i in range(m, len(cs))
            )

        p1, p2, p3, p4 = (deriv(m) for m in (1, 2, 3, 4))
        g = [
            1 / p1,
            -p2 / p1**3,
            (3 * p2**2 - p1 * p3) / p1**5,
            (-15 * p2**3 + 10 * p1 * p2 * p3 - p1**2 * p4) / p1**7,
        ]
        return [float(v) for v in g[:n_max]]
