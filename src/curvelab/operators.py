"""Quadrature evaluation of the single-scale bilinear pieces T_j, their
truncated sums, the bilinear maximal average, the level-set-restricted pieces,
and the frequency-side multiplier.

Everything works in the rescaled variable: T_j(f,g)(x) integrates
f(x - 2^-j s) g(x - P(2^-j s)) rho(s) ds over the fixed annulus
1/2 < |s| < 2, so quadrature nodes never chase the scale.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .oscillatory import SmoothFn, j_l_shift, oscillatory_integral, q_perturbation
from .polynomials import Polynomial, bands
from .signals import GridFunction, _quad_nodes, lp_norm, phi_hat, rho

__all__ = [
    "OperatorResult",
    "apply_Tj",
    "apply_H_truncated",
    "apply_M",
    "restricted_Tj_alpha",
    "restricted_Tjh",
    "multiplier_Mmn",
    "operator_ratio",
]

_COMPONENTS = ((0.5, 2.0), (-2.0, -0.5))
_CHUNK = 1 << 16  # elements in two tiles of _weighted_row_sum: np.interp stays in cache
_WAVE = 16  # tiles whose partial rows are held at once

# threads that fill the tiles, the caller included: one per CPU
# in this process's affinity mask, or one per CPU where the platform has none
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:
    _WORKERS = os.cpu_count() or 1


@functools.cache
def _helper_pool(helpers: int):
    """A pool of helper threads for _on_fill_threads, started on first use
    and kept for the life of the process; concurrent.futures is imported
    only then.  A forked child inherits none of the threads, so it drops the
    cached pool and makes a new one."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(helpers, thread_name_prefix="curvelab-fill")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_helper_pool.cache_clear)


@dataclass
class OperatorResult:
    output: GridFunction
    j_terms: Optional[dict] = None
    nodes_per_component: int = 0
    resolution_warning: bool = False
    extras: dict = field(default_factory=dict)


def below_resolution_floor(j: int, step: float) -> bool:
    """True when T_j's kernel width 1.5*2^-j spans fewer than 4 grid steps;
    raises OverflowError when 2^-j is beyond float range."""
    return 1.5 * 2.0 ** (-j) < 4.0 * step


def _weighted_row_sum(f, g, x, a, b, w, absval=False):
    """sum over r of w[r] * h(f(x - a[r]) * g(x - b[r])), where h is abs if
    absval and the identity otherwise.

    The rows go in full-width tiles of max(1, _CHUNK // (2 * x.size)) rows,
    so a tile, its arguments and its f and g values stay cache-sized.  The
    tiles come in waves of _WAVE.  The calling thread and _WORKERS - 1
    helpers take a wave's tiles in turn (np.interp releases the GIL); the
    thread that takes a tile weights its rows and adds them in row order into
    the tile's partial row.  The caller then adds the wave's partials in tile
    order.  So every element is summed in an order fixed by the sizes alone:
    neither the thread count nor BLAS can move a bit, and at most _WAVE
    partial rows are held.  np.add.reduce(axis=0) adds rows in order only
    while there are at least two columns, which holds because a GridFunction
    has at least two samples.  f and g are called from the helpers and must
    be thread-safe, as GridFunction is.
    """
    n = x.size
    step = max(1, _CHUNK // (2 * n))
    tiles = range(0, a.size, step)
    dtype = complex if (f.is_complex or g.is_complex) and not absval else float
    total = np.zeros(n, dtype=dtype)
    partials = np.empty((min(_WAVE, len(tiles)), n), dtype=dtype)

    def fill(i, s):
        e = min(s + step, a.size)
        prod = f(x[None, :] - a[s:e, None]) * g(x[None, :] - b[s:e, None])
        if absval:
            prod = np.abs(prod)
        prod *= w[s:e, None]
        np.add.reduce(prod, axis=0, out=partials[i])

    for first in range(0, len(tiles), _WAVE):
        wave = tiles[first : first + _WAVE]
        _on_fill_threads(fill, wave)
        for p in partials[: len(wave)]:
            total += p
    return total


def _on_fill_threads(task, items):
    """task(i, item) for each item, on the calling thread and up to
    _WORKERS - 1 helper threads, each taking the next item until none is
    left; returns once every thread is done, and re-raises a helper's error."""
    order = iter(enumerate(items))
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                nxt = next(order, None)
            if nxt is None:
                return
            task(*nxt)

    helpers = [_helper_pool(_WORKERS - 1).submit(drain) for _ in range(min(_WORKERS, len(items)) - 1)]
    try:
        drain()
    finally:
        for h in helpers:
            h.exception()  # waits, so no helper writes a partial after we return
    for h in helpers:
        h.result()


def _bilinear_sum(f, g, P, scale, x, subintervals, nodes_per_unit):
    """sum over subintervals of int f(x - scale*s) g(x - P(scale*s)) rho(s) ds."""
    out = np.zeros(x.size, dtype=complex if f.is_complex or g.is_complex else float)
    for a, b in subintervals:
        n = max(33, int(math.ceil((b - a) * nodes_per_unit)) + 1)
        ts, w = _quad_nodes(a, b, n)
        shifted = scale * ts
        out += _weighted_row_sum(f, g, x, shifted, P.eval(shifted), rho(ts) * w)
    return out


def apply_Tj(
    f: GridFunction,
    g: GridFunction,
    P: Polynomial,
    j: int,
    nodes_per_component: int = 512,
) -> OperatorResult:
    """T_j(f,g)(x) = int f(x-t) g(x-P(t)) rho_j(t) dt on the grid of f."""
    if nodes_per_component < 1:
        raise ValueError(f"nodes_per_component must be at least 1, got {nodes_per_component}")
    P.require_no_linear_term()
    scale = 2.0 ** (-j)
    warn = below_resolution_floor(j, f.step)
    x = f.x
    nodes_per_unit = nodes_per_component / 1.5
    vals = _bilinear_sum(f, g, P, scale, x, _COMPONENTS, nodes_per_unit)
    return OperatorResult(
        output=f.with_values(vals),
        nodes_per_component=nodes_per_component,
        resolution_warning=warn,
    )


def apply_H_truncated(
    f: GridFunction,
    g: GridFunction,
    P: Polynomial,
    j_min: int,
    j_max: int,
    retain_terms: bool = False,
) -> OperatorResult:
    """Sum of T_j over j_min <= j <= j_max, 512 nodes per component each."""
    if j_min > j_max:
        raise ValueError("need j_min <= j_max")
    total = np.zeros(f.n, dtype=complex if f.is_complex or g.is_complex else float)
    terms = {} if retain_terms else None
    warn = False
    for j in range(j_min, j_max + 1):
        res = apply_Tj(f, g, P, j)
        total += res.output.values
        warn = warn or res.resolution_warning
        if retain_terms:
            terms[j] = res.output
    return OperatorResult(
        output=f.with_values(total),
        j_terms=terms,
        nodes_per_component=512,
        resolution_warning=warn,
    )


def apply_M(
    f: GridFunction,
    g: GridFunction,
    P: Polynomial,
    epsilon_grid,
) -> GridFunction:
    """Pointwise max over epsilon in epsilon_grid of
    (1/2eps) int_{-eps}^{eps} |f(x-t) g(x-P(t))| dt, each average by the
    trapezoid rule on 513 nodes."""
    eps_arr = np.asarray(epsilon_grid, dtype=float)
    if eps_arr.size == 0 or np.any(eps_arr <= 0) or np.any(np.diff(eps_arr) < 0):
        raise ValueError("epsilon grid must be nonempty, positive and sorted")
    x = f.x
    best = np.zeros(f.n)
    for eps in eps_arr:
        ts, w = _quad_nodes(-eps, eps, 513)
        avg = _weighted_row_sum(f, g, x, ts, P.eval(ts), w / (2 * eps), absval=True)
        np.maximum(best, avg, out=best)
    return f.with_values(best)


def _derivative_of_curve(P: Polynomial, j: int):
    """s -> d/ds P(2^-j s) = 2^-j P'(2^-j s)."""
    scale = 2.0 ** (-j)
    dP = P.derivative()

    def G(s):
        return scale * dP.eval(scale * np.asarray(s, dtype=float))

    return G


def restricted_Tj_alpha(
    f: GridFunction,
    g: GridFunction,
    P: Polynomial,
    j: int,
    alpha: float,
    nodes_per_component: int = 512,
) -> OperatorResult:
    """T_j restricted to E_alpha = {s in supp rho : alpha <= |dP(2^-j s)/ds| <= 2 alpha}."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    P.require_no_linear_term()
    G = _derivative_of_curve(P, j)
    scale = 2.0 ** (-j)
    x = f.x
    nodes_per_unit = nodes_per_component / 1.5

    def in_band(s):
        v = np.abs(G(s))
        return (v >= alpha) & (v <= 2.0 * alpha)

    subs = []
    measure = 0.0
    for a, b in _COMPONENTS:
        found = bands(in_band, a, b, 4096, (b - a) * 1e-12)
        subs.extend(found)
        measure += sum(hi - lo for lo, hi in found)
    vals = _bilinear_sum(f, g, P, scale, x, subs, nodes_per_unit)
    return OperatorResult(
        output=f.with_values(vals),
        nodes_per_component=nodes_per_component,
        extras={"band_measure": measure, "subintervals": subs},
    )


def restricted_Tjh(
    f: GridFunction,
    g: GridFunction,
    P: Polynomial,
    j: int,
    h: float,
):
    """T_j restricted to E_0(h), plus the measure |E_0(h)|, at 512 nodes per component.

    E_0 keeps the positive-derivative window (1/2) 2^-j < dP(2^-j s)/ds < 2 * 2^-j;
    E_0(h) further requires h 2^-j <= |dP(2^-j s)/ds - 2^-j| <= 2h 2^-j.
    """
    if not 0 < h <= 1:
        raise ValueError("h must lie in (0, 1]")
    P.require_no_linear_term()
    G = _derivative_of_curve(P, j)
    sj = 2.0 ** (-j)
    x = f.x

    def member(s):
        v = G(s)
        in_e0 = (v > 0.5 * sj) & (v < 2.0 * sj)
        dev = np.abs(v - sj)
        return in_e0 & (dev >= h * sj) & (dev <= 2.0 * h * sj)

    subs = []
    for a, b in _COMPONENTS:
        subs.extend(bands(member, a, b, 4096, (b - a) * 1e-12))
    measure = sum(b - a for a, b in subs)
    vals = _bilinear_sum(f, g, P, sj, x, subs, 512 / 1.5)
    result = OperatorResult(
        output=f.with_values(vals),
        nodes_per_component=512,
        extras={"band_measure": measure, "subintervals": subs},
    )
    return result, measure


def multiplier_Mmn(
    P: Polynomial,
    l: int,
    j: int,
    m: int,
    n: int,
    xi: float,
    eta: float,
) -> complex:
    """M_{m,n}(xi, eta): two band cutoffs times the oscillatory rho-integral.

    Returns 0 immediately when either frequency misses its Phi-hat band.
    """
    j_l = j_l_shift(P, l)
    c1 = float(phi_hat(xi / 2.0 ** (j_l + j + m)))
    c2 = float(phi_hat(eta / 2.0 ** (j_l + l * j + n)))
    if c1 == 0.0 or c2 == 0.0:
        return 0.0 + 0.0j
    Q = q_perturbation(P, l, j)
    s1 = xi / 2.0 ** (j_l + j)
    s2 = eta / 2.0 ** (j_l + l * j)

    def phase(t):
        t = np.asarray(t, dtype=float)
        return -2.0 * math.pi * (t * s1 + (t**l + Q.eval(t)) * s2)

    dQ = Q.derivative()

    def dphase(t):
        t = np.asarray(t, dtype=float)
        return -2.0 * math.pi * (s1 + (l * t ** (l - 1) + dQ.eval(t)) * s2)

    total = 0.0 + 0.0j
    for comp in _COMPONENTS:
        ph = SmoothFn(fn=phase, domain=comp, derivs=(dphase,))
        amp = SmoothFn(fn=rho, domain=comp)
        total += oscillatory_integral(ph, amp, 1.0, comp)
    return c1 * c2 * total


def operator_ratio(Tfg: GridFunction, f: GridFunction, g: GridFunction, p1: float, p2: float, r: float) -> float:
    """||T(f,g)||_r / (||f||_p1 ||g||_p2), the quantity the uniform bounds cap."""
    denom = lp_norm(f, p1) * lp_norm(g, p2)
    if denom == 0.0:
        raise ValueError("zero denominator: input norms vanish")
    return lp_norm(Tfg, r) / denom

