"""Batch experiment runner: every subsystem exposed as a subcommand that
reads a JSON config, runs deterministically under a seed, and writes
<out>/<subcommand>.csv plus <out>/<subcommand>.json.

Exit codes: 0 all checks passed; 1 a usage error or a bad config value (a
config that leaves no case to check counts as one); 2 a check failed or an
asserted bound broke.  Errors and broken bounds print one `error:` line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .polynomials import Polynomial, fit_decay_exponent, level_set_measure, real_roots_with_orders
from .report import ExperimentReport
from .scales import classify_scales, partition_to_json, verify_cardinality_bound
from .signals import GridFunction, maximal_p, rho
from .operators import apply_M, apply_Tj, below_resolution_floor, multiplier_Mmn
from .oscillatory import (
    PhasePair,
    SmoothFn,
    inverse_derivatives,
    inverse_function,
    j_l_shift,
    oscillatory_integral,
    perturbation_pair_check,
    sublevel_check,
)
from .sharpness import endpoint_scaling_experiment, rootorder_scaling_experiment
from .tiling import (
    build_tiles,
    forest_to_json,
    greedy_tree_selection,
    random_open_set,
    set_size,
    whitney_decompose,
    whitney_pair_properties,
    whitney_properties,
)

SUBCOMMANDS = {}


def subcommand(name, columns, **defaults):
    """Register run(cfg, rng) as `name`: its CSV columns and its default config."""

    def deco(run):
        SUBCOMMANDS[name] = (run, columns, {**defaults, "seed": 0})
        return run

    return deco


def _columns(rows, width):
    """Rows of `width` values as `width` columns, empty ones when there are no rows."""
    return list(zip(*rows)) or [()] * width


_FUNCTION_KEYS = {"gaussian": ("center", "width"), "indicator": ("a", "b"), "ones": ()}


def _build_grid_function(cfg, field):
    """The function that config field `field` describes, sampled on cfg["grid"]."""
    grid = cfg["grid"]
    if len(grid) != 3:
        raise ValueError(f"config field 'grid' must be [lo, hi, n], got {grid!r}")
    lo, hi, n = float(grid[0]), float(grid[1]), int(grid[2])
    spec = cfg[field]
    kind = spec.get("kind")
    if kind not in _FUNCTION_KEYS:
        raise ValueError(f"config field {field!r} has unknown function kind {kind!r}")
    for key in _FUNCTION_KEYS[kind]:
        if _kind(spec.get(key)) != "number":
            raise ValueError(f"config field {field!r} of kind {kind!r} needs a number {key!r}")
    if kind == "gaussian":
        c, w = float(spec["center"]), float(spec["width"])
        return GridFunction.sample(lambda x: np.exp(-(((x - c) / w) ** 2)), lo, hi, n)
    if kind == "indicator":
        return GridFunction.indicator(float(spec["a"]), float(spec["b"]), lo, hi, n)
    return GridFunction(lo, hi, np.ones(n))


@subcommand("classify", "j,class", coeffs=[0.0, 0.0, 1.0, 1.0], N=8, j_range=[-170, 170])
def run_classify(cfg, rng):
    P = Polynomial(cfg["coeffs"])
    part = classify_scales(P, int(cfg["N"]), tuple(cfg["j_range"]))
    count, bound, ok = verify_cardinality_bound(part)
    classes = partition_to_json(part)["classes"]
    runs_ok = all(lo <= hi for lo, hi in part.domination_runs.values())
    return ExperimentReport(
        columns={"j": [c["j"] for c in classes], "class": [c["class"] for c in classes]},
        fitted={"count_good": count, "bound": bound},
        passed=bool(ok and runs_ok),
        flags={"domination_runs": {str(k): list(v) for k, v in part.domination_runs.items()}},
    )


def _known_order_poly(rng, m):
    """Curve polynomial whose P' - 1 = c (t - r)^m; returns (P, r, |c|)."""
    r = float(rng.choice([-1, 1]) * rng.uniform(0.4, 1.8))
    base = np.array([1.0])
    for _ in range(m):
        base = np.convolve(base, [-r, 1.0])
    c = -1.0 / base[0]
    dP = np.concatenate([[1.0], np.zeros(len(base) - 1)]) + c * base
    coeffs = np.concatenate([[0.0], dP / np.arange(1, len(dP) + 1)])
    return Polynomial(coeffs), r, abs(c)


def levelset_resolution(span, h_min, c_abs, m):
    """Samples needed so the thinnest level band spans >= 8 cells."""
    width = max(2.0 * (h_min / c_abs) ** (1.0 / m), 1e-300)  # thinner bands get the cap anyway
    return int(np.clip(np.ceil(8.0 * span / width), 4096, 1 << 21))


@subcommand(
    "levelset", "order,root,fitted_slope,expected,pass",
    orders=[1, 2, 3], count=6, h_ladder=[2.0**-k for k in range(4, 15)],
)
def run_levelset(cfg, rng):
    orders = cfg["orders"]
    if not all(m == int(m) >= 1 for m in orders):
        raise ValueError(f"config field 'orders' must hold integers >= 1, got {orders!r}")
    if not all(h > 0 for h in cfg["h_ladder"]):
        raise ValueError(f"config field 'h_ladder' must hold positive numbers, got {cfg['h_ladder']!r}")
    jobs = [(int(m), _known_order_poly(rng, int(m))) for m in orders for _ in range(int(cfg["count"]))]

    def one(job):
        m, (P, r, c_abs) = job
        Q = P.derivative().sub_constant(1.0)
        R = abs(r) + 2.0
        res = levelset_resolution(2 * R, min(cfg["h_ladder"]), c_abs, m)
        pts = [
            (h, level_set_measure(Q.eval, float(h), (-R, R), resolution=res))
            for h in cfg["h_ladder"]
        ]
        slope, _, _ = fit_decay_exponent(pts)
        return m, r, slope

    order, root, slope = _columns(sorted(map(one, jobs), key=lambda row: row[:2]), 3)
    expected = [1.0 / m for m in order]
    ok = [abs(s - e) <= 0.1 * e for s, e in zip(slope, expected)]
    return ExperimentReport(
        columns={"order": order, "root": root, "fitted_slope": slope, "expected": expected, "pass": ok},
        fitted={"n_checked": len(order)},
        passed=all(ok),
    )


def _sweep_report(sweep):
    """The sharpness and rootorder report: one row per delta of the sweep."""
    n = len(sweep.deltas)
    return ExperimentReport(
        columns={
            "delta": sweep.deltas, "ratio": sweep.ratios, "predicted_exponent": [sweep.predicted] * n,
            "fitted_slope": [sweep.slope] * n, "pass": [sweep.passed] * n,
        },
        fitted={"slope": sweep.slope, "predicted_exponent": sweep.predicted, "r_squared": sweep.r_squared},
        passed=sweep.passed,
        flags={"diverges": sweep.slope < 0.0},
    )


@subcommand(
    "sharpness", "delta,ratio,predicted_exponent,fitted_slope,pass",
    d=2, r=0.5, p1=1.0, p2=1.0, deltas=[2.0**-k for k in range(6, 15)], grid_resolution=64,
)
def run_sharpness(cfg, rng):
    return _sweep_report(endpoint_scaling_experiment(
        int(cfg["d"]), float(cfg["r"]), float(cfg["p1"]), float(cfg["p2"]),
        cfg["deltas"], grid_resolution=int(cfg["grid_resolution"]),
    ))


@subcommand(
    "rootorder", "delta,ratio,predicted_exponent,fitted_slope,pass",
    coeffs=[0.0, 0.0, 0.0, 1.0], k0=1, r=1.0, p1=2.0, p2=2.0,
    deltas=[2.0**-k for k in range(8, 17)], A_big=20.0,
)
def run_rootorder(cfg, rng):
    P = Polynomial(cfg["coeffs"])
    k0 = int(cfg["k0"])
    Q = P.derivative().sub_constant(1.0)
    roots = real_roots_with_orders(Q, (-4.0, 4.0), 1e-8)
    match = [r for r, o in roots if o == k0 and r != 0.0]
    if not match:
        raise ValueError(f"no root of order {k0} found for P' - 1")
    t0 = max(match, key=abs)
    return _sweep_report(rootorder_scaling_experiment(
        P, t0, k0, float(cfg["r"]), float(cfg["p1"]), float(cfg["p2"]),
        cfg["deltas"], A_big=float(cfg["A_big"]),
    ))


@subcommand(
    "vdc", "alpha,measure,ratio",
    u_coeffs=[0.0, 0.0, 0.5], k=2, alphas=[2.0**-k for k in range(2, 17)],
    interval=[-1.0, 1.0], ratio_cap=16.0,
)
def run_vdc(cfg, rng):
    interval = tuple(cfg["interval"])
    if len(interval) != 2:
        raise ValueError(f"config field 'interval' must be [lo, hi], got {cfg['interval']!r}")
    u = SmoothFn.from_polynomial(Polynomial(cfg["u_coeffs"]), interval)
    alphas = [float(a) for a in cfg["alphas"]]
    measures, ratios = sublevel_check(u, int(cfg["k"]), alphas, interval)
    worst = max(ratios, default=0.0)
    return ExperimentReport(
        columns={"alpha": alphas, "measure": measures, "ratio": ratios},
        fitted={"max_ratio": worst},
        passed=bool(worst <= float(cfg["ratio_cap"])),
    )


@subcommand(
    "stationary", "xi,eta,m,normalized,target,rel_err,pass",
    pairs=[[-2.0, 1.0], [-1.5, 1.0], [-2.6, 1.0]], m_list=[10, 12, 14], rel_tol=0.02,
)
def run_stationary(cfg, rng):
    if not all(_numbers(pair) and len(pair) == 2 for pair in cfg["pairs"]):
        raise ValueError(f"config field 'pairs' must hold [xi, eta] pairs, got {cfg['pairs']!r}")
    top = max(cfg["m_list"], default=None)
    if top is not None and top > 1023:
        raise ValueError(f"config field 'm_list' puts the phase scale 2^m outside float range at m={top}")

    def one(job):
        (xi, eta), m = job
        ph = SmoothFn(
            fn=lambda t: -2 * math.pi * (t * xi + t**2 * eta),
            domain=(0.5, 2.0),
            derivs=(lambda t: -2 * math.pi * (xi + 2 * t * eta),),
        )
        amp_p = SmoothFn(fn=rho, domain=(0.5, 2.0))
        amp_n = SmoothFn(fn=rho, domain=(-2.0, -0.5))
        total = oscillatory_integral(ph, amp_p, 2.0**m, (0.5, 2.0))
        total += oscillatory_integral(ph, amp_n, 2.0**m, (-2.0, -0.5))
        t0 = -xi / (2 * eta)
        target = float(rho(t0)) / math.sqrt(2.0 * abs(eta))
        normalized = abs(total) * 2.0 ** (m / 2)
        return xi, eta, m, normalized, target, abs(normalized - target) / target

    jobs = [((float(x), float(e)), int(m)) for x, e in cfg["pairs"] for m in cfg["m_list"]]
    xi, eta, m, normalized, target, rel_err = _columns(sorted(map(one, jobs), key=lambda row: row[:3]), 6)
    ok = [rel <= float(cfg["rel_tol"]) or k < top for rel, k in zip(rel_err, m)]
    return ExperimentReport(
        columns={
            "xi": xi, "eta": eta, "m": m, "normalized": normalized, "target": target, "rel_err": rel_err, "pass": ok,
        },
        fitted={"max_rel_err_at_top_m": max((rel for rel, k in zip(rel_err, m) if k == top), default=None)},
        passed=all(ok),
    )


def _fornberg(z, x, m):
    """Finite-difference weights (Fornberg recurrences) for the m-th derivative
    at z from nodes x; dtype follows the inputs."""
    n = len(x)
    dtype = np.result_type(np.asarray(x).dtype, float)
    c = np.zeros((n, m + 1), dtype=dtype)
    one = dtype.type(1.0)
    c1, c4 = one, x[0] - z
    c[0, 0] = one
    for i in range(1, n):
        mn = min(i, m)
        c2, c5, c4 = one, c4, x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def _horner_ld(coeffs, x):
    acc = np.longdouble(0.0)
    for c in reversed(coeffs):
        acc = acc * x + np.longdouble(c)
    return acc


def fd_inverse_derivative(P, F, y0, n, h=0.06):
    """Finite-difference oracle for d^n of the inverse at y0.

    Roots are Newton-polished in extended precision and two 11-point stencil
    widths are Richardson-combined; the oracle noise floor sits near 1e-8
    relative, comfortably under the 1e-6 comparisons it backs.
    """
    dP = P.derivative()

    def inv_ld(y):
        x = np.longdouble(inverse_function(F, float(y)))
        yl = np.longdouble(y)
        for _ in range(3):
            x = x - (_horner_ld(P.coeffs, x) - yl) / _horner_ld(dP.coeffs, x)
        return x

    def fd_at(step):
        nodes = np.longdouble(y0) + np.longdouble(step) * np.arange(-5, 6)
        vals = np.array([inv_ld(y) for y in nodes], dtype=np.longdouble)
        w = _fornberg(np.longdouble(y0), nodes, n)
        return w @ vals

    a = fd_at(h)
    b = fd_at(h / 2)
    return float((np.longdouble(2.0) ** 8 * b - a) / (np.longdouble(2.0) ** 8 - 1))


def _random_monotone_quintic(rng):
    """A quintic with P' >= 1/2 on [0.4, 2.1] and |P''(1.2)| >= 0.3."""
    while True:
        cs = [0.0, rng.uniform(2.0, 3.5)] + list(rng.uniform(-0.12, 0.12, size=4))
        P = Polynomial(cs)
        xs = np.linspace(0.4, 2.1, 257)
        if np.min(P.derivative().eval(xs)) >= 0.5 and abs(P.nth_derivative(2).eval(1.2)) >= 0.3:
            return P


@subcommand(
    "inverse", "poly_index,order,reversion,finite_difference,rel_err,pass",
    count=20, n_max=4, fd_step=0.06, rel_tol=1e-6,
)
def run_inverse(cfg, rng):
    n_max = int(cfg["n_max"])
    h = float(cfg["fd_step"])
    rows = []
    for i in range(int(cfg["count"])):
        P = _random_monotone_quintic(rng)
        F = SmoothFn.from_polynomial(P, (0.4, 2.1))
        x0 = 1.2
        y0 = P.eval(x0)
        got = inverse_derivatives(F, x0, n_max)
        for n in range(1, n_max + 1):
            fd = fd_inverse_derivative(P, F, y0, n, h=h)
            rows.append((i, n, got[n - 1], fd, abs(got[n - 1] - fd) / max(abs(fd), 1e-3)))
    index, order, reversion, finite_difference, rel_err = _columns(rows, 5)
    ok = [rel <= float(cfg["rel_tol"]) for rel in rel_err]
    return ExperimentReport(
        columns={
            "poly_index": index, "order": order, "reversion": reversion, "finite_difference": finite_difference,
            "rel_err": rel_err, "pass": ok,
        },
        fitted={"max_rel_err": max(rel_err, default=None)},
        passed=all(ok),
    )


def _make_pair(rng, K, N):
    a = rng.uniform(1.5, 2.5)
    b = rng.uniform(-0.15, 0.15)
    w = rng.uniform(0.3, 1.0)
    ph = rng.uniform(0, 2 * math.pi)
    eps = 2.0**-N

    def f0(t):
        t = np.asarray(t, dtype=float)
        return a * t + 0.5 * b * t**2

    d0 = (lambda t: a + b * np.asarray(t, dtype=float),
          lambda t: b * np.ones_like(np.asarray(t, dtype=float))) + tuple(
        (lambda t: np.zeros_like(np.asarray(t, dtype=float)),) * 6
    )

    def f1(t):
        t = np.asarray(t, dtype=float)
        return f0(t) + eps * np.sin(w * t + ph)

    d1 = tuple(
        (lambda t, k=k: d0[k - 1](t) + eps * w**k * np.sin(w * np.asarray(t, dtype=float) + ph + k * math.pi / 2))
        for k in range(1, 9)
    )
    return PhasePair(
        f0=SmoothFn(fn=f0, domain=(0.5, 2.0), derivs=d0),
        f1=SmoothFn(fn=f1, domain=(0.5, 2.0), derivs=d1),
        K=K,
        N=N,
    )


@subcommand("pairs", "pair_index,dk_distance,bound,pass", count=10, K=6, N=30)
def run_pairs(cfg, rng):
    K, N = int(cfg["K"]), int(cfg["N"])
    rows = []
    for i in range(int(cfg["count"])):
        pair = _make_pair(rng, K, N)
        lo = max(pair.f0.fn(0.6), pair.f1.fn(0.6))
        hi = min(pair.f0.fn(1.9), pair.f1.fn(1.9))
        rows.append((i, *perturbation_pair_check(pair, np.linspace(lo, hi, 7))))
    index, distance, bound = _columns(rows, 3)
    ok = [bool(d <= b) for d, b in zip(distance, bound)]
    return ExperimentReport(
        columns={"pair_index": index, "dk_distance": distance, "bound": bound, "pass": ok},
        fitted={"max_distance": max(distance, default=None)},
        passed=all(ok),
    )


@subcommand(
    "whitney", "case,cells,disjoint_violations,sandwich_violations,coverage_ok,pairs_pass",
    count=200, max_components=8,
)
def run_whitney(cfg, rng):
    def one(seed):
        omega = random_open_set(seed, int(cfg["max_components"]))
        if not omega:
            return None
        cells = whitney_decompose(omega)
        props = whitney_properties(cells, omega)
        pairs_ok = whitney_pair_properties(cells, omega, n_pairs=100, seed=seed)["ok"]
        return seed, len(cells), props["disjoint"], props["sandwich"], props["coverage_ok"], pairs_ok

    base = int(cfg["seed"])
    rows = [r for r in map(one, range(base, base + int(cfg["count"]))) if r is not None]
    case, cells, disjoint, sandwich, coverage_ok, pairs_ok = _columns(rows, 6)
    return ExperimentReport(
        columns={
            "case": case, "cells": cells, "disjoint_violations": disjoint, "sandwich_violations": sandwich,
            "coverage_ok": coverage_ok, "pairs_pass": pairs_ok,
        },
        fitted={"cases": len(rows)},
        passed=not any(disjoint) and not any(sandwich) and all(coverage_ok) and all(pairs_ok),
    )


@subcommand(
    "tiles", "run,which,n_tiles,n_trees,residual_size,threshold,tops_disjoint,containment_ok,pass",
    coeffs=[0.0, 0.0, 1.0, 2.0**-40], N=2, j_range=[-5, 4], l=2, m=0, x_range=[0.0, 1.0],
    runs=10, p=2.0, grid_n=4096,
)
def run_tiles(cfg, rng):
    P = Polynomial(cfg["coeffs"])
    part = classify_scales(P, int(cfg["N"]), tuple(cfg["j_range"]))
    l, m, p = int(cfg["l"]), int(cfg["m"]), float(cfg["p"])
    all_tiles = build_tiles(part, l, m, tuple(cfg["x_range"]))
    n_grid = int(cfg["grid_n"])
    lo, hi = -0.5, 1.5
    xs = np.linspace(lo, hi, n_grid)
    rows = []
    last_forest = ([], [])
    for run in range(int(cfg["runs"])):
        which = 1 + (run % 2)
        vals = np.zeros(n_grid)
        for _ in range(int(rng.integers(1, 4))):
            a, b = np.sort(rng.uniform(0, 1, 2))
            vals += (xs >= a) & (xs <= b)
        data = GridFunction(lo, hi, np.clip(vals, 0, 1))
        k = int(rng.integers(6, len(all_tiles)))
        idx = rng.choice(len(all_tiles), size=k, replace=False)
        S = [all_tiles[i] for i in idx]
        forest, residual = greedy_tree_selection(S, which, data, p, l, m)
        last_forest = (forest, residual)
        size_S = set_size(S, which, data, p, l, m)
        thr = 0.5 ** (1.0 / p) * size_S
        res_size = set_size(residual, which, data, p, l, m)
        tops = [t.top for t in forest]
        disjoint = all(tops[i].disjoint(tops[j]) for i in range(len(tops)) for j in range(i + 1, len(tops)))
        contain = True
        if forest:
            Mp = maximal_p(data, p)
            for t in forest:
                mask = (Mp.x >= t.top.lo - 1e-12) & (Mp.x <= t.top.hi + 1e-12)
                if float(np.min(Mp.values[mask])) < thr:
                    contain = False
        ok = res_size <= thr * (1 + 1e-9) and disjoint and contain
        rows.append((run, which, len(S), len(forest), res_size, thr, disjoint, contain, ok))
    run, which, n_tiles, n_trees, res_size, thr, disjoint, contain, ok = _columns(rows, 9)
    return ExperimentReport(
        columns={
            "run": run, "which": which, "n_tiles": n_tiles, "n_trees": n_trees, "residual_size": res_size,
            "threshold": thr, "tops_disjoint": disjoint, "containment_ok": contain, "pass": ok,
        },
        fitted={"runs": len(rows)},
        passed=all(ok),
        flags={"last_forest": forest_to_json(*last_forest)},
    )


@subcommand(
    "apply-T", "x,value",
    coeffs=[0.0, 0.0, 1.0], j=0, grid=[-8.0, 8.0, 2049],
    f={"kind": "gaussian", "center": 0.0, "width": 1.0},
    g={"kind": "gaussian", "center": 0.3, "width": 0.9},
    nodes=512,
)
def run_apply_T(cfg, rng):
    P = Polynomial(cfg["coeffs"])
    f, g = _build_grid_function(cfg, "f"), _build_grid_function(cfg, "g")
    j = int(cfg["j"])
    try:
        too_fine = below_resolution_floor(j, f.step)
    except OverflowError:
        raise ValueError(f"config field 'j' puts the kernel scale 2^-j outside float range at j={j}") from None
    if too_fine:
        raise ValueError(
            f"config fields 'j' and 'grid' put the kernel width 1.5*2^-j below 4 grid steps"
            f" of {f.step:.3g} at j={j}"
        )
    out = apply_Tj(f, g, P, j, nodes_per_component=int(cfg["nodes"]))
    return ExperimentReport(
        columns={"x": out.x, "value": out.values},
        fitted={"sup_norm": float(np.max(np.abs(out.values)))},
        passed=True,
    )


@subcommand(
    "apply-M", "x,value",
    coeffs=[0.0, 0.0, 1.0], grid=[-8.0, 8.0, 2049],
    f={"kind": "indicator", "a": 0.0, "b": 1.0},
    g={"kind": "gaussian", "center": 0.3, "width": 0.9},
    epsilons=[2.0**-k for k in range(0, 6)][::-1],
)
def run_apply_M(cfg, rng):
    P = Polynomial(cfg["coeffs"])
    f, g = _build_grid_function(cfg, "f"), _build_grid_function(cfg, "g")
    out = apply_M(f, g, P, cfg["epsilons"])
    return ExperimentReport(
        columns={"x": out.x, "value": out.values},
        fitted={"sup_norm": float(np.max(out.values))},
        passed=True,
    )


@subcommand(
    "multiplier", "m,abs_value,normalized",
    coeffs=[0.0, 0.0, 1.0], l=2, j=0, m_list=[0, 4, 8, 12], xi_band=-1.5, eta_band=1.0,
)
def run_multiplier(cfg, rng):
    P = Polynomial(cfg["coeffs"])
    l, j = int(cfg["l"]), int(cfg["j"])
    j_l = j_l_shift(P, l)
    rows = []
    for m in cfg["m_list"]:
        m = int(m)
        try:
            xi = float(cfg["xi_band"]) * 2.0 ** (j_l + j + m)
            eta = float(cfg["eta_band"]) * 2.0 ** (j_l + l * j + m)
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                val = abs(multiplier_Mmn(P, l, j, m, m, xi, eta))
        except (OverflowError, ZeroDivisionError, FloatingPointError):
            raise ValueError(
                f"config fields 'j' and 'm_list' put a frequency scale outside float range at j={j}, m={m}"
            ) from None
        except ValueError as exc:
            if not str(exc).startswith("node budget exceeded"):
                raise
            raise ValueError(
                f"config fields 'm_list', 'xi_band', 'eta_band', 'j' and 'coeffs' set the phase scale;"
                f" at m={m}: {exc}"
            ) from None
        rows.append((m, val, val * 2.0 ** (m / 2)))
    m, abs_value, normalized = _columns(rows, 3)
    return ExperimentReport(
        columns={"m": m, "abs_value": abs_value, "normalized": normalized},
        fitted={"max_normalized": max(normalized, default=None)},
        passed=all(v < 10.0 for v in normalized),
    )


def _parse_override(text):
    if "=" not in text:
        raise ValueError(f"override must look like key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _kind(value) -> str:
    """The JSON kind of a config value: number (finite only), list, object, or another."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
        return "number"
    return {list: "list", dict: "object"}.get(type(value), type(value).__name__)


def _numbers(value) -> bool:
    return _kind(value) == "list" and all(_kind(v) == "number" for v in value)


def _check_kind(key, value, default):
    """Raise ValueError when value is not of the JSON kind of the field's default;
    a list whose default holds numbers must hold only numbers."""
    if _numbers(default):
        want, ok = "sequence of numbers", _numbers(value)
    else:
        want = _kind(default)
        ok = _kind(value) == want
    if not ok:
        raise ValueError(f"config field {key!r} must be a {want}, got {value!r}")


def _config(defaults, args):
    """`defaults` with the --config file, each --set and --seed applied."""
    overrides = []
    if args.config:
        try:
            with open(args.config) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config: {exc}") from None
        if not isinstance(user, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(user) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        overrides.extend(user.items())
    for text in args.set:
        key, value = _parse_override(text)
        if key not in defaults:
            raise ValueError(f"unknown config field {key!r}")
        overrides.append((key, value))
    cfg = dict(defaults)
    for key, value in overrides:
        _check_kind(key, value, defaults[key])
        cfg[key] = value
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="curvelab", description=__doc__)
    parser.add_argument("subcommand", choices=sorted(SUBCOMMANDS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed override")
    parser.add_argument("--schema", action="store_true", help="print the CSV schema and exit")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config field (JSON-parsed value)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    name = args.subcommand
    run, columns, defaults = SUBCOMMANDS[name]
    if args.schema:
        print(columns)
        return 0
    try:
        cfg = _config(defaults, args)
        start = time.perf_counter()
        rep = run(cfg, np.random.default_rng(int(cfg["seed"])))
        lengths = {len(col) for col in rep.columns.values()}
        if list(rep.columns) != columns.split(",") or len(lengths) != 1:
            raise AssertionError(
                f"subcommand {name!r} returned columns {','.join(rep.columns)} of lengths {sorted(lengths)},"
                f" not its declared {columns}"
            )
        n_rows = lengths.pop()
        if not n_rows:
            raise ValueError("no cases checked")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rep.name, rep.runtime_s, rep.config = name, time.perf_counter() - start, cfg
    os.makedirs(args.out, exist_ok=True)
    rep.to_csv(os.path.join(args.out, f"{name}.csv"))
    rep.to_json(os.path.join(args.out, f"{name}.json"))
    status = "PASS" if rep.passed else "FAIL"
    print(f"{name}: {status} ({n_rows} rows, {rep.runtime_s:.2f}s)")
    return 0 if rep.passed else 2


if __name__ == "__main__":
    sys.exit(main())
