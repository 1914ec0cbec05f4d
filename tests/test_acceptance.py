"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math
import time

import numpy as np

from curvelab.cli import _known_order_poly, _make_pair, levelset_resolution
from curvelab.operators import apply_Tj, restricted_Tj_alpha
from curvelab.oscillatory import (
    SmoothFn,
    inverse_derivatives,
    oscillatory_integral,
    perturbation_pair_check,
    sublevel_check,
)
from curvelab.polynomials import Polynomial, fit_decay_exponent, level_set_measure, real_roots_with_orders
from curvelab.scales import classify_scales, verify_cardinality_bound
from curvelab.sharpness import endpoint_scaling_experiment, predicted_endpoint_exponent, rootorder_scaling_experiment
from curvelab.signals import GridFunction, maximal_p, rho
from curvelab.tiling import (
    build_tiles,
    greedy_tree_selection,
    random_open_set,
    set_size,
    whitney_decompose,
    whitney_pair_properties,
    whitney_properties,
)


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_endpoint_exponent():
    start = time.perf_counter()
    deltas = [2.0**-k for k in range(6, 15)]
    slopes = {}
    for r in (0.40, 0.50, 0.60):
        rep = endpoint_scaling_experiment(2, r, 2 * r, 2 * r, deltas)
        slopes[r] = rep.fitted["slope"]
    elapsed = time.perf_counter() - start
    within = all(abs(slopes[r] - predicted_endpoint_exponent(2, r)) <= 0.05 for r in slopes)
    sign_change = slopes[0.40] < 0.0 < slopes[0.60] and abs(slopes[0.50]) <= 0.05
    ok = within and sign_change and elapsed < 120.0
    report(
        1,
        ok,
        f"slopes {({r: round(s, 4) for r, s in slopes.items()})} vs 1/(rd)+1-1/r, "
        f"sign change at r=0.5, runtime {elapsed:.1f}s < 120s",
    )


def test_criterion_2_level_set_characterization():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    hs = [2.0**-k for k in range(4, 15)]
    checked = 0
    worst = 0.0
    for m in (1, 2, 3):
        for _ in range(7):
            if checked >= 20:
                break
            P, r, c_abs = _known_order_poly(rng, m)
            Q = P.derivative().sub_constant(1.0)
            R = abs(r) + 2.0
            roots = real_roots_with_orders(Q, (-R, R), 1e-7)
            assert max(o for _, o in roots) == m
            res = levelset_resolution(2 * R, min(hs), c_abs, m)
            pts = [(h, level_set_measure(Q.eval, h, (-R, R), resolution=res)) for h in hs]
            slope, _, _ = fit_decay_exponent(pts)
            worst = max(worst, abs(slope - 1.0 / m) / (1.0 / m))
            checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 20 and worst <= 0.10 and elapsed < 60.0
    report(2, ok, f"20 polynomials, worst slope error {worst * 100:.2f}% <= 10%, runtime {elapsed:.1f}s < 60s")


def test_criterion_3_cardinality_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    N = 8
    failures_bound = 0
    failures_continuity = 0
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        coeffs = [0.0, 0.0]
        for k in range(2, d + 1):
            if k < d and rng.random() < 0.2:
                coeffs.append(0.0)
            else:
                coeffs.append(float(rng.choice([-1, 1]) * 2.0 ** rng.uniform(-60, 60)))
        P = Polynomial(coeffs)
        part = classify_scales(P, N, (-170, 170))
        _, _, ok = verify_cardinality_bound(part)
        if not ok:
            failures_bound += 1
        # continuity: every J_l equals its contiguous domination interval
        # clipped by |j| >= N (the only admissible hole at desk-scale N)
        for l, (lo, hi) in part.domination_runs.items():
            for j in range(part.j_min, part.j_max + 1):
                expected = l if (lo <= j <= hi and abs(j) >= N) else None
                actual = part.classes[j] if part.classes[j] == l else None
                if (expected is None) != (actual is None):
                    failures_continuity += 1
                    break
    elapsed = time.perf_counter() - start
    ok = failures_bound == 0 and failures_continuity == 0 and elapsed < 30.0
    report(
        3,
        ok,
        f"1000/1000 within bound ({failures_bound} violations), continuity holds "
        f"({failures_continuity} violations), runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_4_rootorder_exponent():
    P = Polynomial.curve([0, 0, 1.0])  # t^3: P'-1 has simple roots at +-1/sqrt(3)
    t0 = 1.0 / math.sqrt(3.0)
    deltas = [2.0**-k for k in range(8, 17)]
    results = {}
    for r in (1.0, 2.0 / 3.0):
        rep = rootorder_scaling_experiment(P, t0, 1, r, 2 * r, 2 * r, deltas)
        pred = 1.0 / (r * 2.0) + 1.0 - 1.0 / r
        results[r] = (rep.fitted["slope"], pred)
    ok = all(abs(s - p) <= 0.05 for s, p in results.values())
    report(4, ok, f"k0=1 slopes {({round(r, 3): round(v[0], 4) for r, v in results.items()})} within 0.05 of 1/(2r)+1-1/r")


def test_criterion_5_van_der_corput():
    # closed form: u = t^2/2 with |u''| = 1
    u = SmoothFn.from_polynomial(Polynomial([0, 0, 0.5]), (-1.0, 1.0))
    alphas = [2.0**-k for k in range(2, 17)]
    rep = sublevel_check(u, 2, alphas, (-1.0, 1.0), resolution=1 << 16)
    worst_rel = max(
        abs(row["measure"] - 2.0 * math.sqrt(2.0 * row["alpha"])) / (2.0 * math.sqrt(2.0 * row["alpha"]))
        for row in rep.rows
    )
    closed_ok = worst_rel <= 0.01

    # 100 random polynomials with a k-th derivative floor of 1; the ratio
    # peaks at the large-alpha end, so the ladder stops where simple-root
    # bands stay several sample cells wide
    rng = np.random.default_rng(55)
    caps = {1: 0.0, 2: 0.0, 3: 0.0}
    alphas_k = [2.0**-e for e in range(2, 13)]
    counts = {1: 34, 2: 33, 3: 33}
    for k, n_polys in counts.items():
        for _ in range(n_polys):
            lead = float(rng.choice([-1, 1])) * (1.0 + rng.random())
            coeffs = list(rng.uniform(-2, 2, size=k)) + [lead / math.factorial(k)]
            P = Polynomial(coeffs)  # u^(k) = k! c_k = lead with |lead| >= 1
            uk = SmoothFn.from_polynomial(P, (-2.0, 2.0))
            sup_du = float(np.max(np.abs(P.derivative().eval(np.linspace(-2, 2, 1025)))))
            res = int(np.clip(math.ceil(4.0 * 4.0 * max(sup_du, 1.0) / min(alphas_k)), 4096, 1 << 20))
            rep_k = sublevel_check(uk, k, alphas_k, (-2.0, 2.0), resolution=res)
            caps[k] = max(caps[k], rep_k.fitted["max_ratio"])
    bounded = all(caps[k] <= 2 * math.e * math.factorial(k) ** (1.0 / k) for k in caps)
    ok = closed_ok and bounded
    report(
        5,
        ok,
        f"u=t^2/2 measure within {worst_rel * 100:.3f}% of 2*sqrt(2a); "
        f"100 random polys: C_k caps {({k: round(v, 2) for k, v in caps.items()})}",
    )


def test_criterion_6_stationary_phase_normalization():
    m = 14
    worst = 0.0
    for xi, eta in ((-2.0, 1.0), (-1.5, 1.0), (-2.6, 1.0)):
        ph = SmoothFn(
            fn=lambda t, xi=xi, eta=eta: -2 * math.pi * (t * xi + t**2 * eta),
            domain=(0.5, 2.0),
            derivs=(lambda t, xi=xi, eta=eta: -2 * math.pi * (xi + 2 * t * eta),),
        )
        total = oscillatory_integral(ph, SmoothFn(fn=rho, domain=(0.5, 2.0)), 2.0**m, (0.5, 2.0))
        total += oscillatory_integral(ph, SmoothFn(fn=rho, domain=(-2.0, -0.5)), 2.0**m, (-2.0, -0.5))
        t0 = -xi / (2 * eta)
        target = float(rho(t0)) / math.sqrt(2.0 * abs(eta))
        worst = max(worst, abs(abs(total) * 2.0 ** (m / 2) - target) / target)
    ok = worst <= 0.02
    report(6, ok, f"normalized magnitude within {worst * 100:.2f}% of rho(t0)/sqrt(2|eta|) at m=14, 3 pairs")


def test_criterion_7_inverse_perturbation():
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(50):
        pair = _make_pair(rng, 6, 30)
        lo = max(pair.f0.fn(0.6), pair.f1.fn(0.6))
        hi = min(pair.f0.fn(1.9), pair.f1.fn(1.9))
        rep = perturbation_pair_check(pair, np.linspace(lo, hi, 7))
        worst = max(worst, rep.fitted["dk_minus_1_distance"])
    ident = _make_pair(rng, 6, 30)
    from curvelab.oscillatory import PhasePair

    same = PhasePair(f0=ident.f0, f1=ident.f0, K=6, N=30)
    rep0 = perturbation_pair_check(same, [ident.f0.fn(1.2)])
    ok = worst <= 2.0**-10 and rep0.fitted["dk_minus_1_distance"] == 0.0
    report(7, ok, f"50 (6,30)-pairs: max D_5 inverse distance {worst:.3e} <= 2^-10; identical pair = 0")


def test_criterion_8_inverse_derivatives():
    # ln closed form
    F = SmoothFn(fn=np.exp, domain=(-1, 1), derivs=tuple([np.exp] * 8))
    got = inverse_derivatives(F, 0.0, 5)
    expected = [1.0, -1.0, 2.0, -6.0, 24.0]
    ln_ok = all(abs(g - e) <= 1e-10 * abs(e) for g, e in zip(got, expected))

    from curvelab.cli import _random_monotone_quintic, fd_inverse_derivative

    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        P = _random_monotone_quintic(rng)
        F = SmoothFn.from_polynomial(P, (0.4, 2.1))
        x0 = 1.2
        y0 = P.eval(x0)
        got = inverse_derivatives(F, x0, 4)
        for n in range(1, 5):
            fd = fd_inverse_derivative(P, F, y0, n)
            worst = max(worst, abs(got[n - 1] - fd) / max(abs(fd), 1e-3))
    ok = ln_ok and worst <= 1e-6
    report(8, ok, f"ln derivatives exact to 1e-10; 100 quintics max FD deviation {worst:.2e} <= 1e-6 for n <= 4")


def test_criterion_9_whitney_suite():
    start = time.perf_counter()
    violations = 0
    cases = 0
    seed = 0
    while cases < 10_000:
        omega = random_open_set(seed, 8)
        seed += 1
        if not omega:
            continue
        cases += 1
        cells = whitney_decompose(omega)
        props = whitney_properties(cells, omega)
        if props["disjoint"] or props["sandwich"] or not props["coverage_ok"]:
            violations += 1
            continue
        pair_rep = whitney_pair_properties(cells, omega, n_pairs=50, seed=seed)
        if not pair_rep.passed:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0
    # far pairs are held to 23/24, the triangle-inequality constant the
    # dist <= 3|J| sandwich actually yields; endpoint-extremal pairs reach
    # ratios near 0.963, which rules out anything sharper like 95/98
    report(9, ok, f"10^4 random open sets: {violations} violations "
                  f"(disjoint/coverage/sandwich/pairs at 23/24), {elapsed:.0f}s")


def test_criterion_10_greedy_selection():
    start = time.perf_counter()
    P = Polynomial.curve([0, 1.0, 2.0**-40])
    part = classify_scales(P, 2, (-5, 4))
    all_tiles = build_tiles(part, 2, 0, (0.0, 1.0))
    n_grid, lo, hi = 4096, -0.5, 1.5
    xs = np.linspace(lo, hi, n_grid)
    rng = np.random.default_rng(10)
    p = 2.0

    failures = 0
    for run in range(500):
        which = 1 + (run % 2)
        vals = np.zeros(n_grid)
        for _ in range(int(rng.integers(1, 4))):
            a, b = np.sort(rng.uniform(0, 1, 2))
            vals += (xs >= a) & (xs <= b)
        data = GridFunction(lo, hi, np.clip(vals, 0, 1))
        k = int(rng.integers(6, len(all_tiles)))
        idx = rng.choice(len(all_tiles), size=k, replace=False)
        S = [all_tiles[i] for i in idx]
        forest, residual = greedy_tree_selection(S, which, data, p, 2, 0)
        size_S = set_size(S, which, data, p, 2, 0)
        thr = 0.5 ** (1.0 / p) * size_S
        if set_size(residual, which, data, p, 2, 0) > thr * (1 + 1e-9):
            failures += 1
            continue
        tops = [t.top for t in forest]
        if any(not tops[i].disjoint(tops[j]) for i in range(len(tops)) for j in range(i + 1, len(tops))):
            failures += 1
            continue
        if forest and size_S > 0:
            Mp = maximal_p(data, p)
            for t in forest:
                mask = (Mp.x >= t.top.lo - 1e-12) & (Mp.x <= t.top.hi + 1e-12)
                if float(np.min(Mp.values[mask])) < thr:
                    failures += 1
                    break
    elapsed = time.perf_counter() - start
    ok = failures == 0
    report(10, ok, f"500 randomized tile sets: {failures} postcondition failures (halving/disjoint tops/containment), {elapsed:.0f}s")


def test_criterion_11_operator_sanity():
    P = Polynomial.curve([0, 1.0])
    lo, hi, n = -8.0, 8.0, 1025
    f1 = GridFunction.sample(lambda x: np.exp(-(x**2)), lo, hi, n)
    f2 = GridFunction.sample(lambda x: np.exp(-(((x - 0.5) / 0.7) ** 2)), lo, hi, n)
    g = GridFunction.sample(lambda x: np.exp(-(((x + 0.2) / 0.9) ** 2)), lo, hi, n)

    # bilinearity
    a, b = 1.3, -0.6
    lhs = apply_Tj(a * f1 + b * f2, g, P, 0).output.values
    rhs = a * apply_Tj(f1, g, P, 0).output.values + b * apply_Tj(f2, g, P, 0).output.values
    bilinear_ok = np.max(np.abs(lhs - rhs)) <= 1e-9 * (np.max(np.abs(rhs)) + 1e-30)

    # translation covariance on a grid-aligned shift
    h = 32 * f1.step
    shifted = apply_Tj(f1.translate(h), g.translate(h), P, 0).output.values
    base = apply_Tj(f1, g, P, 0).output.values
    translation_ok = np.max(np.abs(shifted - base)) <= 1e-9

    # cancellation on constants
    ones = GridFunction(lo, hi, np.ones(2049))
    cancel = apply_Tj(ones, ones, P, 0).output
    inner = (cancel.x > lo + 4.5) & (cancel.x < hi - 4.5)
    cancel_ok = np.max(np.abs(cancel.values[inner])) <= 1e-10

    # alpha-ladder reassembly
    full = apply_Tj(f1, g, P, 0, nodes_per_component=8192).output.values
    total = np.zeros_like(full)
    for alpha in [2.0**k for k in range(-12, 3)]:
        total += restricted_Tj_alpha(f1, g, P, 0, alpha, nodes_per_component=8192).output.values
    ladder_ok = np.max(np.abs(total - full)) <= 1e-8 * max(1.0, np.max(np.abs(full)))

    # self-convergence order >= 1.9 under grid doubling
    n0 = 513
    ref_n = 8 * (n0 - 1) + 1
    f_ref = GridFunction.sample(lambda x: np.exp(-(x**2)), lo, hi, ref_n)
    g_ref = GridFunction.sample(lambda x: np.exp(-(((x + 0.2) / 0.9) ** 2)), lo, hi, ref_n)
    ref = apply_Tj(f_ref, g_ref, P, 0, nodes_per_component=2048).output
    errs = []
    for nn in (n0, 2 * (n0 - 1) + 1):
        fc = GridFunction.sample(lambda x: np.exp(-(x**2)), lo, hi, nn)
        gc = GridFunction.sample(lambda x: np.exp(-(((x + 0.2) / 0.9) ** 2)), lo, hi, nn)
        out = apply_Tj(fc, gc, P, 0, nodes_per_component=2048).output
        common = np.linspace(lo + 5, hi - 5, 257)
        errs.append(np.max(np.abs(out(common) - ref(common))))
    order = math.log2(errs[0] / errs[1])
    order_ok = order >= 1.9

    ok = bilinear_ok and translation_ok and cancel_ok and ladder_ok and order_ok
    report(
        11,
        ok,
        f"bilinearity {bilinear_ok}, translation {translation_ok}, cancellation {cancel_ok}, "
        f"alpha-ladder {ladder_ok}, convergence order {order:.2f} >= 1.9",
    )
