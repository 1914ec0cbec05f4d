"""Output checks, one per subcommand, run outside the timed region.

Each check reads the CSV and JSON a case wrote and compares them with a
computation from `refmath` or with a property the method must have.  A check
raises CheckError with a reason; nothing here compares against stored output.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
from scipy import integrate

from . import refmath


class CheckError(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


def read_csv(out_dir, sub):
    with open(os.path.join(out_dir, f"{sub}.csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def read_json(out_dir, sub):
    with open(os.path.join(out_dir, f"{sub}.json")) as fh:
        return json.load(fh)


def _true(v):
    return v == "True"


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# -- Whitney cells (on kernel-mix) -------------------------------------------------


def check_whitney(case, rows, doc):
    from .workloads import whitney_open_set

    base, count = case.meta["seed"], case.meta["count"]
    omegas = {s: whitney_open_set(s, case.meta["max_components"])[1] for s in range(base, base + count)}
    require(
        [int(r["case"]) for r in rows] == [s for s, omega in omegas.items() if omega],
        "case column is not the seeds with a non-empty open set",
    )
    for row in rows:
        expected = refmath.whitney_cell_count(omegas[int(row["case"])])
        require(int(row["cells"]) == expected, f"case {row['case']}: cells {row['cells']} != Whitney rule {expected}")
        require(row["disjoint_violations"] == "0" and row["sandwich_violations"] == "0", "property violations")
        require(_true(row["coverage_ok"]) and _true(row["pairs_pass"]), "coverage or pair check failed")


# -- tiles (on kernel-mix) -------------------------------------------------------------


def _contains(top, cell):
    """Integer test: dyadic (k, n) `top` contains (k, n) `cell`."""
    shift = cell[0] - top[0]
    return shift >= 0 and (cell[1] >> shift) == top[1]


def check_tiles(case, rows, doc):
    require([int(r["which"]) for r in rows] == [1, 2], "expected one run with which=1 and one with which=2")
    for r in rows:
        res, thr = float(r["residual_size"]), float(r["threshold"])
        require(res <= thr * (1 + 1e-9), f"run {r['run']}: residual size {res} above threshold {thr}")
        require(_true(r["tops_disjoint"]) and _true(r["containment_ok"]) and _true(r["pass"]), "run flags false")
    cfg = doc["config"]
    l = int(cfg["l"])
    j_l = round(math.log2(abs(cfg["coeffs"][l])) / (l - 1))
    forest = doc["flags"]["last_forest"]
    tops = [(t["top"]["k"], t["top"]["n"]) for t in forest["trees"]]
    for a in range(len(tops)):
        for b in range(a + 1, len(tops)):
            require(
                not (_contains(tops[a], tops[b]) or _contains(tops[b], tops[a])),
                f"tops {tops[a]} and {tops[b]} overlap",
            )
    seen = []
    for t, top in zip(forest["trees"], tops):
        require(len(t["tiles"]) > 0, "empty tree")
        for tile in t["tiles"]:
            cell = (j_l + tile["j"], tile["n"])
            require(_contains(top, cell), f"tile {cell} escapes its top {top}")
            seen.append((tile["j"], tile["n"]))
    seen += [(tile["j"], tile["n"]) for tile in forest["residual"]]
    last = rows[-1]
    require(len(seen) == len(set(seen)), "a tile sits in two trees or in a tree and the residual")
    require(len(seen) == int(last["n_tiles"]), f"trees and residual hold {len(seen)} tiles, run had {last['n_tiles']}")
    require(len(tops) == int(last["n_trees"]), "tree count differs from the CSV")


# -- phase-ladder --------------------------------------------------------------------


def stationary_reference(xi, eta, m):
    lam = 2.0**m
    total = refmath.quadratic_phase_integral(lam, xi, eta, 0.5, 2.0)
    total += refmath.quadratic_phase_integral(lam, xi, eta, -2.0, -0.5)
    return abs(total) * 2.0 ** (m / 2)


def check_stationary(case, rows, doc):
    xi, eta, t0 = case.meta["xi"], case.meta["eta"], case.meta["t0"]
    ms = sorted(int(r["m"]) for r in rows)
    require(ms == sorted(doc["config"]["m_list"]), f"m rows {ms}")
    target = float(refmath.rho(t0)[0]) / math.sqrt(2.0 * abs(eta))
    for r in rows:
        m, got = int(r["m"]), float(r["normalized"])
        if case.meta["quadrature"]:
            ref = stationary_reference(xi, eta, m)
            require(_rel(got, ref) <= 1e-6, f"m={m}: normalized {got} vs reference quadrature {ref}")
        if m == ms[-1]:
            require(_rel(got, target) <= case.meta["rel_tol"], f"m={m}: {got} not within rel_tol of {target}")


# -- the other kernel-mix subcommands ------------------------------------------------


def _gaussian_fn(spec):
    c, w = spec["center"], spec["width"]
    return lambda x: np.exp(-(((x - c) / w) ** 2))


def _xy(rows):
    return np.array([float(r["x"]) for r in rows]), np.array([float(r["value"]) for r in rows])


def _spread_pick(idx, n):
    """n indices spread evenly over the index array idx."""
    return idx[np.linspace(0, idx.size - 1, n).round().astype(int)]


def check_apply_T(case, rows, doc):
    cfg = case.meta
    lo, hi, n = cfg["grid"]
    require(len(rows) == n, f"{len(rows)} rows for a {n}-point grid")
    f, g = _gaussian_fn(cfg["f"]), _gaussian_fn(cfg["g"])
    coeffs = cfg["coeffs"]
    scale = 2.0 ** -cfg["j"]

    def P(t):
        return sum(c * t**i for i, c in enumerate(coeffs))

    xs, vals = _xy(rows)
    pick = _spread_pick(np.nonzero((xs >= -3.0) & (xs <= 3.0))[0], 17)
    require(np.allclose(xs, np.linspace(lo, hi, n), rtol=0, atol=1e-12), "x column is not the config grid")
    x = xs[pick]

    def integrand(s):
        return f(x - scale * s) * g(x - P(scale * s)) * float(refmath.rho(s)[0])

    ref = sum(
        integrate.quad_vec(integrand, a, b, epsabs=1e-11, epsrel=1e-11)[0] for a, b in ((0.5, 2.0), (-2.0, -0.5))
    )
    # linear interpolation of f and g on the grid errs by O(h^2); measured
    # errors stay below h^2 / 3, while one grid step of shift moves values
    # by more than 2 h^2
    h = (hi - lo) / (n - 1)
    err = np.abs(vals[pick] - ref)
    worst = int(np.argmax(err))
    require(err[worst] <= h * h, f"T_j at x={x[worst]}: {vals[pick][worst]} vs quad {ref[worst]}")


def check_apply_M(case, rows, doc):
    cfg = case.meta
    lo, hi, n = cfg["grid"]
    require(len(rows) == n, f"{len(rows)} rows for a {n}-point grid")
    a, b = cfg["f"]["a"], cfg["f"]["b"]
    g = _gaussian_fn(cfg["g"])
    c2 = cfg["coeffs"][2]
    eps_list = cfg["epsilons"]
    h = (hi - lo) / (n - 1)
    reach = max(eps_list) + 2 * h
    xs, vals = _xy(rows)
    # sample where every averaging window sees the indicator as constant
    inside = np.nonzero((xs > a + reach) & (xs < b - reach))[0]
    outside = np.nonzero((xs < a - reach - 1.0) & (xs > lo + reach))[0]
    require(inside.size >= 9 and outside.size >= 3, "too few sample points away from the indicator edges")
    pick = list(_spread_pick(inside, 9)) + list(_spread_pick(outside, 3))
    for i in pick:
        x = xs[i]
        if not (a < x < b):
            require(abs(vals[i]) <= 1e-12, f"M at x={x} outside the indicator: {vals[i]}")
            continue
        best = 0.0
        for eps in eps_list:
            avg = integrate.quad(lambda t: g(x - c2 * t * t), -eps, eps, epsabs=1e-12, epsrel=1e-12)[0] / (2 * eps)
            best = max(best, avg)
        # as for apply-T: grid interpolation errs by O(h^2), measured below h^2 / 3
        require(abs(vals[i] - best) <= h * h, f"M at x={x}: {vals[i]} vs quad {best}")


def check_levelset(case, rows, doc):
    orders = case.meta["orders"]
    got = sorted(int(r["order"]) for r in rows)
    require(got == sorted(orders * case.meta["count"]), f"orders {got}")
    for r in rows:
        m, slope = int(r["order"]), float(r["fitted_slope"])
        require(abs(slope - 1.0 / m) <= 1e-4, f"order {m}: slope {slope} vs exact 1/m")


def check_vdc(case, rows, doc):
    alphas = case.meta["alphas"]
    require(len(rows) == len(alphas), "row count")
    for r, alpha in zip(rows, alphas):
        require(float(r["alpha"]) == alpha, "alpha column")
        exact = 2.0 * min(math.sqrt(2.0 * alpha), 1.0)
        # band edges are bisected to width 2e-9
        require(abs(float(r["measure"]) - exact) <= 1e-8, f"alpha={alpha}: measure {r['measure']} vs {exact}")


def check_classify(case, rows, doc):
    cfg = case.meta
    j_lo, j_hi = cfg["j_range"]
    expected = refmath.classify_rule(cfg["coeffs"], cfg["N"], j_lo, j_hi)
    require(len(rows) == j_hi - j_lo + 1, "row count")
    for r in rows:
        j = int(r["j"])
        require(r["class"] == expected[j], f"j={j}: class {r['class']} vs rule {expected[j]}")


def _slope_check(rows, predicted):
    require(len(rows) >= 5, "too few deltas")
    for r in rows:
        require(float(r["predicted_exponent"]) == predicted, f"predicted exponent {r['predicted_exponent']} vs {predicted}")
        require(abs(float(r["fitted_slope"]) - predicted) <= 0.01, f"slope {r['fitted_slope']} vs {predicted}")


def check_sharpness(case, rows, doc):
    d, r = case.meta["d"], case.meta["r"]
    _slope_check(rows, 1.0 / (r * d) + 1.0 - 1.0 / r)


def check_rootorder(case, rows, doc):
    k0, r = case.meta["k0"], case.meta["r"]
    _slope_check(rows, 1.0 / (r * (k0 + 1)) + 1.0 - 1.0 / r)


def inverse_quintics(seed, count):
    """The monotone quintics `curvelab inverse --seed S` draws, in order."""
    rng = np.random.default_rng(seed)
    out = []
    xs = np.linspace(0.4, 2.1, 257)
    while len(out) < count:
        cs = [0.0, rng.uniform(2.0, 3.5)] + list(rng.uniform(-0.12, 0.12, size=4))
        d1 = sum(i * cs[i] * xs ** (i - 1) for i in range(1, 6))
        d2 = sum(i * (i - 1) * cs[i] * 1.2 ** (i - 2) for i in range(2, 6))
        if np.min(d1) >= 0.5 and abs(d2) >= 0.3:
            out.append([float(c) for c in cs])
    return out


def check_inverse(case, rows, doc):
    cfg = case.meta
    polys = inverse_quintics(cfg["seed"], cfg["count"])
    require(len(rows) == cfg["count"] * cfg["n_max"], "row count")
    refs = [refmath.inverse_derivatives_mp(cs, 1.2, cfg["n_max"]) for cs in polys]
    for r in rows:
        ref = refs[int(r["poly_index"])][int(r["order"]) - 1]
        got = float(r["reversion"])
        require(abs(got - ref) <= 1e-10 * max(abs(ref), 1e-3), f"poly {r['poly_index']} order {r['order']}: {got} vs mpmath {ref}")


def check_pairs(case, rows, doc):
    bound = 2.0 ** (-case.meta["N"] / 3.0)
    require(len(rows) == case.meta["count"], "row count")
    for r in rows:
        require(float(r["bound"]) == bound, "bound is not 2^(-N/3)")
        require(0.0 <= float(r["dk_distance"]) <= bound, f"D_(K-1) distance {r['dk_distance']} above {bound}")


def check_multiplier(case, rows, doc):
    cfg = case.meta
    require(cfg["coeffs"] == [0.0, 0.0, 1.0] and cfg["l"] == 2 and cfg["j"] == 0, "reference covers P = t^2, j = 0")
    # P = t^2: j_l = 0, Q = 0, xi = xi_band 2^m, eta = eta_band 2^m
    cut = float(refmath.phi_hat(cfg["xi_band"])) * float(refmath.phi_hat(cfg["eta_band"]))
    require([int(r["m"]) for r in rows] == cfg["m_list"], "m column")
    for r in rows:
        m = int(r["m"])
        lam = 2.0**m
        ref = 0.0
        for a, b in ((0.5, 2.0), (-2.0, -0.5)):
            ref += refmath.quadratic_phase_integral(lam, cfg["xi_band"], cfg["eta_band"], a, b)
        ref = abs(cut * ref)
        got = float(r["abs_value"])
        require(abs(got - ref) <= 1e-7 * max(ref, 1e-3), f"m={m}: |M| {got} vs reference {ref}")
        require(_rel(float(r["normalized"]), got * 2.0 ** (m / 2)) <= 1e-12, "normalized column")


CHECKS = {
    "whitney": check_whitney,
    "tiles": check_tiles,
    "stationary": check_stationary,
    "apply-T": check_apply_T,
    "apply-M": check_apply_M,
    "levelset": check_levelset,
    "vdc": check_vdc,
    "classify": check_classify,
    "sharpness": check_sharpness,
    "rootorder": check_rootorder,
    "inverse": check_inverse,
    "pairs": check_pairs,
    "multiplier": check_multiplier,
}


def check_case(case, out_dir):
    """Check one case's output; raises CheckError."""
    rows = read_csv(out_dir, case.sub)
    doc = read_json(out_dir, case.sub)
    require(len(rows) > 0, "no rows")
    require(doc.get("passed") is True, "report not passed")
    CHECKS[case.sub](case, rows, doc)
