"""Lower-bound counterexample families and the scaling experiments that
measure the exponents behind the r >= (d-1)/d threshold.

The single-scale evaluations exploit the indicator structure: for f = 1_[0,d]
the t-integration window is known exactly, so the contributing interval is
located by bisection and the smooth remainder integrated by quadrature.  That
keeps the d-sweeps honest down to d = 2^-16 without million-node grids.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .polynomials import Polynomial, bisect, fit_decay_exponent, real_roots_with_orders
from .report import ExperimentReport
from .signals import GridFunction, _trapezoid_weights, lp_norm, rho

__all__ = [
    "CounterexampleInstance",
    "build_counterexample_endpoint",
    "endpoint_scaling_experiment",
    "build_counterexample_rootorder",
    "rootorder_scaling_experiment",
    "endpoint_polynomial",
    "predicted_endpoint_exponent",
    "predicted_rootorder_exponent",
]

_GL64 = np.polynomial.legendre.leggauss(64)
_N_WINDOW = 33  # trapezoid nodes across the window in the scaling experiments


@dataclass(frozen=True)
class CounterexampleInstance:
    P: Polynomial
    delta: float
    f: GridFunction
    g: GridFunction
    window: tuple
    meta: dict = field(default_factory=dict)


def _check_hoelder(r: float, p1: float, p2: float) -> None:
    if not min(r, p1, p2) > 0:
        raise ValueError(f"r, p1 and p2 must be positive, got r={r}, p1={p1}, p2={p2}")
    if abs(1.0 / p1 + 1.0 / p2 - 1.0 / r) > 1e-12:
        raise ValueError("Hoelder relation violated: 1/p1 + 1/p2 must equal 1/r")


def endpoint_polynomial(d: int) -> Polynomial:
    """P(t) = t + ((1-t)/A)^d - 1/A^d with A = d^(1/d); the linear term cancels."""
    A = d ** (1.0 / d)
    coeffs = np.zeros(d + 1)
    binom = 1.0
    for k in range(d + 1):
        coeffs[k] += binom * (-1.0) ** k / d  # A^d = d
        binom *= (d - k) / (k + 1)
    coeffs[0] -= 1.0 / d
    coeffs[1] += 1.0
    if abs(coeffs[0]) > 1e-12 or abs(coeffs[1]) > 1e-12:
        raise AssertionError("constant or linear term failed to cancel")
    coeffs[0] = 0.0
    coeffs[1] = 0.0
    return Polynomial(coeffs)


def _window_interval(P: Polynomial, x: float, g_lo: float, g_hi: float, t_lo: float, t_hi: float):
    """{t in [t_lo, t_hi] : x - P(t) in [g_lo, g_hi]} for P monotone there."""
    v_lo = x - P.eval(t_hi)
    v_hi = x - P.eval(t_lo)
    if v_lo > v_hi:
        v_lo, v_hi = v_hi, v_lo
    lo_cut = max(g_lo, v_lo)
    hi_cut = min(g_hi, v_hi)
    if lo_cut >= hi_cut:
        return None
    width = 2e-15 * max(1.0, abs(t_lo), abs(t_hi))

    def solve(target):
        """The t where x - P(t) = target; target lies strictly inside its range."""
        return bisect(lambda t: x - P.eval(t) - target, t_lo, t_hi, width)

    increasing = (x - P.eval(t_hi)) > (x - P.eval(t_lo))
    if increasing:
        a = solve(lo_cut) if lo_cut > v_lo else t_lo
        b = solve(hi_cut) if hi_cut < v_hi else t_hi
    else:
        a = solve(hi_cut) if hi_cut < v_hi else t_lo
        b = solve(lo_cut) if lo_cut > v_lo else t_hi
    if b <= a:
        return None
    return a, b


def t0_endpoint_value(instance: CounterexampleInstance, x: float) -> float:
    """T_0(f,g)(x) for the endpoint instance, via the exact indicator windows."""
    delta = instance.delta
    g_lo, g_hi = instance.meta["g_support"]
    # f = 1_[0, delta] restricts t to [x - delta, x]
    t_lo, t_hi = x - delta, x
    seg = _window_interval(instance.P, x, g_lo, g_hi, t_lo, t_hi)
    if seg is None:
        return 0.0
    a, b = seg  # rho integrated over the window by 64-point Gauss-Legendre
    ts = 0.5 * (a + b) + 0.5 * (b - a) * _GL64[0]
    return float(np.sum(_GL64[1] * rho(ts))) * 0.5 * (b - a)


def build_counterexample_endpoint(d: int, delta: float, grid_resolution: int = 64) -> CounterexampleInstance:
    """The endpoint family: f = 1_[0,delta], g a shifted delta-indicator, with
    the claimed window where T_0 >= delta/8 pointwise.

    grid_resolution counts grid steps across delta and must be >= 64.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if not 0 < delta < 0.1:
        raise ValueError("delta must lie in (0, 0.1)")
    if grid_resolution < 64:
        raise ValueError("resolution too coarse: need >= 64 grid steps across delta")
    P = endpoint_polynomial(d)
    A = d ** (1.0 / d)
    B = A / 10.0
    shift = 1.0 / d  # 1/A^d
    step = delta / grid_resolution
    n = 3 * grid_resolution + 1
    f = GridFunction.indicator(0.0, delta, -delta, 2 * delta, n)
    g = GridFunction.indicator(shift, shift + delta, shift - delta, shift + 2 * delta, n)
    w_lo = 1.0 + B * delta ** (1.0 / d)
    w_hi = 1.0 + 2.0 * B * delta ** (1.0 / d)
    inst = CounterexampleInstance(
        P=P,
        delta=delta,
        f=f,
        g=g,
        window=(w_lo, w_hi),
        meta={
            "d": d,
            "A": A,
            "B": B,
            "f_support": (0.0, delta),
            "g_support": (shift, shift + delta),
            "step": step,
        },
    )
    # certified region: rho bounded below on [x - delta/2, x - delta/4]
    ts = np.linspace(w_lo - delta / 2, w_hi - delta / 4, 257)
    rho_min = float(np.min(rho(ts)))
    if rho_min < 0.4:
        raise AssertionError(f"rho lower bound failed: {rho_min:.3f} < 0.4")
    object.__setattr__(inst, "meta", {**inst.meta, "rho_min": rho_min})
    for x in np.linspace(w_lo, w_hi, 100):
        if t0_endpoint_value(inst, float(x)) < delta / 8.0:
            raise AssertionError(f"pointwise bound T_0 >= delta/8 failed at x = {x}")
    return inst


def predicted_endpoint_exponent(d: int, r: float) -> float:
    return 1.0 / (r * d) + 1.0 - 1.0 / r


def _delta_sweep(name, instances, value, e_pred, config) -> ExperimentReport:
    """Window-restricted ratio ||value||_{L^r(window)} / (||f||_p1 ||g||_p2)
    for each instance in the order given, r, p1 and p2 read from config, with
    the fitted slope against the predicted exponent e_pred."""
    r, p1, p2 = config["r"], config["p1"], config["p2"]
    start = time.perf_counter()
    rows = []
    for inst in instances:
        w_lo, w_hi = inst.window
        xs = np.linspace(w_lo, w_hi, _N_WINDOW)
        vals = np.array([value(inst, float(x)) for x in xs])
        wq = _trapezoid_weights(_N_WINDOW) * ((w_hi - w_lo) / (_N_WINDOW - 1))
        norm_r = float(np.sum(wq * vals**r)) ** (1.0 / r)
        ratio = norm_r / (lp_norm(inst.f, p1) * lp_norm(inst.g, p2))
        rows.append({"delta": inst.delta, "ratio": ratio})
    slope, _, r2 = fit_decay_exponent([(row["delta"], row["ratio"]) for row in rows])
    ok = abs(slope - e_pred) <= 0.05
    for row in rows:
        row["predicted_exponent"] = e_pred
        row["fitted_slope"] = slope
        row["pass"] = ok
    return ExperimentReport(
        name=name,
        rows=rows,
        fitted={"slope": slope, "predicted_exponent": e_pred, "r_squared": r2},
        passed=ok,
        flags={"diverges": slope < 0.0},
        runtime_s=time.perf_counter() - start,
        config=config,
    )


def endpoint_scaling_experiment(
    d: int,
    r: float,
    p1: float,
    p2: float,
    delta_list,
    grid_resolution: int = 64,
) -> ExperimentReport:
    """Window-restricted ratio ||T_0||_{L^r(window)} / (||f||_p1 ||g||_p2) over
    a delta ladder, largest delta first, with the fitted slope against the
    predicted exponent."""
    _check_hoelder(r, p1, p2)
    deltas = [float(x) for x in delta_list]
    if len(deltas) < 5:
        raise ValueError("need at least 5 deltas")
    instances = (build_counterexample_endpoint(d, delta, grid_resolution) for delta in sorted(deltas, reverse=True))
    config = {"d": d, "r": r, "p1": p1, "p2": p2, "grid_resolution": grid_resolution}
    return _delta_sweep("endpoint_scaling", instances, t0_endpoint_value, predicted_endpoint_exponent(d, r), config)


def build_counterexample_rootorder(
    P: Polynomial,
    t0: float,
    k0: int,
    delta: float,
    A_big: float,
) -> CounterexampleInstance:
    """The root-order family at a root t0 of P' - 1 of order k0, on grids
    with 64 steps across delta.

    Validates the root and its order, rejects polynomials with a linear term,
    and checks |(t - P(t)) - (t0 - P(t0))| <= delta/100 throughout the
    thickened window (raising "A too small" when the window is too wide).
    """
    if P.coefficient(0) != 0.0 or abs(P.coefficient(1)) > 1e-12:
        raise ValueError(f"polynomial has a linear term: a_1 = {P.coefficient(1)!r}")
    if t0 == 0.0:
        raise ValueError("t0 must be nonzero")
    if not 0 < delta < abs(t0) / 8:
        raise ValueError("delta must be small next to |t0|")
    Q = P.derivative().sub_constant(1.0)
    roots = real_roots_with_orders(Q, (t0 - 0.1, t0 + 0.1), 1e-8)
    match = [(r, o) for r, o in roots if abs(r - t0) < 1e-6]
    if not match or match[0][1] != k0:
        raise ValueError(f"t0 is not a root of P'-1 of order {k0}: found {roots}")
    c0 = t0 - P.eval(t0)
    half = delta ** (1.0 / (k0 + 1)) / A_big
    w_lo, w_hi = t0 - half, t0 + half
    ts = np.linspace(w_lo - delta / 100, w_hi + delta / 100, 513)
    drift = np.abs((ts - P.eval(ts)) - c0)
    if np.max(drift) > delta / 100:
        raise ValueError("A too small: the identity drift exceeds delta/100 on the window")
    step = delta / 64
    n = 2 * (3 * 64 + 1)
    f = GridFunction.indicator(-delta, delta, -2 * delta, 2 * delta, n)
    g = GridFunction.indicator(c0 - delta, c0 + delta, c0 - 2 * delta, c0 + 2 * delta, n)
    return CounterexampleInstance(
        P=P,
        delta=delta,
        f=f,
        g=g,
        window=(w_lo, w_hi),
        meta={
            "k0": k0,
            "t0": t0,
            "A": A_big,
            "f_support": (-delta, delta),
            "g_support": (c0 - delta, c0 + delta),
            "step": step,
        },
    )


def rootorder_kernel_value(instance: CounterexampleInstance, x: float) -> float:
    """Single-scale 1/t-kernel proxy: int over {f(x-t) g(x-P(t)) = 1} of dt/t.

    t stays near t0 != 0, so the kernel keeps one sign and no principal value
    is involved.
    """
    delta = instance.delta
    g_lo, g_hi = instance.meta["g_support"]
    t_lo, t_hi = x - delta, x + delta
    seg = _window_interval(instance.P, x, g_lo, g_hi, t_lo, t_hi)
    if seg is None:
        return 0.0
    a, b = seg
    if a <= 0.0 <= b:
        raise ValueError("window crosses the kernel singularity")
    return abs(math.log(b / a))


def predicted_rootorder_exponent(k0: int, r: float) -> float:
    return 1.0 / (r * (k0 + 1)) + 1.0 - 1.0 / r


def rootorder_scaling_experiment(
    P: Polynomial,
    t0: float,
    k0: int,
    r: float,
    p1: float,
    p2: float,
    delta_list,
    A_big: float = 20.0,
) -> ExperimentReport:
    """Fitted slope of the window-restricted kernel lower bound against
    1/(r (k0+1)) + 1 - 1/r, smallest delta first."""
    _check_hoelder(r, p1, p2)
    instances = (
        build_counterexample_rootorder(P, t0, k0, delta, A_big) for delta in sorted(float(x) for x in delta_list)
    )
    config = {"k0": k0, "t0": t0, "r": r, "p1": p1, "p2": p2, "A_big": A_big}
    return _delta_sweep(
        "rootorder_scaling", instances, rootorder_kernel_value, predicted_rootorder_exponent(k0, r), config
    )
