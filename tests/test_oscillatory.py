import math

import numpy as np
import pytest

from curvelab import oscillatory as osc
from curvelab.cli import _random_monotone_quintic, fd_inverse_derivative
from curvelab.oscillatory import (
    PhasePair,
    SmoothFn,
    dk_norm,
    inverse_derivatives,
    inverse_function,
    oscillatory_integral,
    perturbation_pair_check,
    q_perturbation,
    sublevel_check,
)
from curvelab.polynomials import Polynomial
from curvelab.signals import rho


def const_one(t):
    return np.ones_like(np.asarray(t, dtype=float))


def smooth_poly(coeffs, domain):
    return SmoothFn.from_polynomial(Polynomial(coeffs), domain)


def cli_phase(xi, eta):
    """The phase of the CLI's stationary subcommand at the pair (xi, eta)."""
    return SmoothFn(
        fn=lambda t: -2 * math.pi * (t * xi + t**2 * eta),
        domain=(0.5, 2.0),
        derivs=(lambda t: -2 * math.pi * (xi + 2 * t * eta),),
    )


class TestOscillatoryIntegral:
    def test_lambda_zero(self):
        amp = SmoothFn(fn=const_one, domain=(0.0, 1.0))
        ph = smooth_poly([0, 1], (0, 1))
        val = oscillatory_integral(ph, amp, 0.0)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_riemann_lebesgue(self):
        # smooth compactly supported amplitude, linear phase: decay in lambda
        def amp_fn(t):
            t = np.asarray(t, dtype=float)
            s = (t - math.pi) / math.pi
            out = np.zeros_like(s)
            inside = np.abs(s) < 1
            out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
            return out

        amp = SmoothFn(fn=amp_fn, domain=(0, 2 * math.pi))
        ph = smooth_poly([0, 1], (0, 2 * math.pi))
        vals = [abs(oscillatory_integral(ph, amp, lam)) for lam in (2.0, 8.0, 32.0)]
        assert vals[-1] < 0.05 * vals[0]

    def test_stationary_phase_constant(self):
        # int exp(-2 pi i 2^m (t xi + t^2 eta)) rho dt, magnitude -> rho(t0)/sqrt(2|eta|) * 2^{-m/2}
        xi, eta, m = -2.0, 1.0, 14
        ph = cli_phase(xi, eta)
        amp = SmoothFn(fn=rho, domain=(0.5, 2.0))
        total = oscillatory_integral(ph, amp, 2.0**m, (0.5, 2.0))
        total += oscillatory_integral(ph, amp, 2.0**m, (-2.0, -0.5))
        target = rho(1.0) / math.sqrt(2.0 * abs(eta))
        assert abs(total) * 2.0 ** (m / 2) == pytest.approx(target, rel=0.02)

    def test_conjugate_symmetry(self):
        amp = SmoothFn(fn=lambda t: np.exp(-((np.asarray(t) - 1.0) ** 2) * 8), domain=(0, 2))
        ph = smooth_poly([0, 1, 0.3], (0, 2))
        a = oscillatory_integral(ph, amp, 37.0)
        b = oscillatory_integral(ph, amp, -37.0)
        assert abs(a - np.conj(b)) < 1e-12

    def test_modulus_bound(self):
        amp = SmoothFn(fn=lambda t: np.cos(np.asarray(t)) ** 2, domain=(0, 3))
        ph = smooth_poly([0, 0, 1], (0, 3))
        val = abs(oscillatory_integral(ph, amp, 11.0))
        mass = np.trapezoid(np.cos(np.linspace(0, 3, 40001)) ** 2, dx=3 / 40000)
        assert val <= mass * (1 + 1e-9)

    def test_budget_error(self):
        # without an analytic phase' Levin cannot run, so Gauss-Legendre must
        amp = SmoothFn(fn=const_one, domain=(0, 1))
        ph = SmoothFn(fn=lambda t: np.asarray(t, dtype=float), domain=(0, 1))
        with pytest.raises(ValueError, match="node budget"):
            oscillatory_integral(ph, amp, 1e12)

    def test_levin_beyond_node_budget(self):
        # the first Gauss-Legendre pass would need ~3e12 nodes; Levin needs none of them
        amp = SmoothFn(fn=const_one, domain=(0, 1))
        ph = smooth_poly([0, 1], (0, 1))
        lam = 1e12
        exact = (np.exp(1j * lam) - 1.0) / (1j * lam)
        got = oscillatory_integral(ph, amp, lam)
        # the acceptance rule's relative part alone: its floor, 5e-4 here, exceeds |exact|
        assert abs(got - exact) <= 1e-8 * abs(exact)


def dense_gl(ph, amp, lam, a, b):
    """Composite Gauss-Legendre with 4 panels (64 nodes) per period at least."""
    sup_d = float(np.max(np.abs(ph.deriv(1)(np.linspace(a, b, 4097)))))
    periods = abs(lam) * sup_d * (b - a) / (2 * math.pi)
    return osc._composite_gl(ph, amp, lam, a, b, max(4096, 4 * math.ceil(periods)))


class CountingFn:
    """Wraps a vectorized function and counts the points it is evaluated at."""

    def __init__(self, fn):
        self.fn, self.points = fn, 0

    def __call__(self, t):
        self.points += np.size(t)
        return self.fn(t)


class TestLevinRoute:
    """Intervals with no stationary point, where the Levin rule answers."""

    def test_matches_dense_gl(self, monkeypatch):
        rng = np.random.default_rng(21)
        cases = []
        while len(cases) < 12:
            P = Polynomial(rng.uniform(-1, 1, 5))
            comp = ((0.5, 2.0), (-2.0, -0.5))[len(cases) % 2]
            d = P.derivative().eval(np.linspace(*comp, 4097))
            if np.all(d > 0) or np.all(d < 0):
                cases.append((SmoothFn.from_polynomial(P, comp), comp, 2.0 ** rng.uniform(6, 12)))
        refs = [dense_gl(ph, SmoothFn(fn=rho, domain=comp), lam, *comp) for ph, comp, lam in cases]

        def no_gl(*args):
            raise AssertionError("fell back to Gauss-Legendre")

        monkeypatch.setattr(osc, "_composite_gl", no_gl)
        for (ph, comp, lam), ref in zip(cases, refs):
            amp = SmoothFn(fn=rho, domain=comp)
            got = oscillatory_integral(ph, amp, lam, comp)
            # the acceptance rule, at its 1e-8 relative tolerance
            assert abs(got - ref) <= 1e-8 * abs(ref) + osc._tol_floor(ph, amp, lam, *comp)

    def test_work_independent_of_lambda(self):
        ph = cli_phase(-2.0, 1.0)
        points = []
        for m in (10, 14):
            counted = CountingFn(rho)
            oscillatory_integral(ph, SmoothFn(fn=counted, domain=(-2.0, -0.5)), 2.0**m, (-2.0, -0.5))
            points.append(counted.points)
        assert points[0] == points[1]
        assert points[0] < 10**4

    def test_stationary_point_between_samples(self):
        # phase' = (t - c)^2 + 1e-9 keeps one sign on the 4097 samples but
        # nearly vanishes at c, halfway between two of them
        a, b = 0.0, 1.0
        xs = np.linspace(a, b, 4097)
        amp = SmoothFn(fn=lambda t: np.exp(-np.asarray(t) ** 2), domain=(a, b))
        for k in (1000, 2048, 3001):
            c = 0.5 * (xs[k] + xs[k + 1])
            ph = SmoothFn(
                fn=lambda t, c=c: (np.asarray(t) - c) ** 3 / 3 + 1e-9 * np.asarray(t),
                domain=(a, b),
                derivs=(lambda t, c=c: (np.asarray(t) - c) ** 2 + 1e-9,),
            )
            for lam in (200.0, 2.0**11, 2.0**14):
                got = oscillatory_integral(ph, amp, lam, (a, b))
                ref = dense_gl(ph, amp, lam, a, b)
                assert abs(got - ref) <= 1e-8 * abs(ref) + osc._tol_floor(ph, amp, lam, a, b)


def one_root_phase(rng, degree, interval):
    """A polynomial phase of the given degree (2 or 4) whose derivative has
    one simple root t0 inside the interval and no other there."""
    a, b = interval
    t0 = rng.uniform(a + 0.1 * (b - a), b - 0.1 * (b - a))
    scale = float(rng.choice([-1, 1])) * rng.uniform(0.5, 3.0)
    dP = np.array([-t0, 1.0]) * scale
    if degree == 4:
        # times alpha + (t - s)^2 with alpha > 0, which has no real root
        s, alpha = rng.uniform(a, b), rng.uniform(0.2, 1.0)
        dP = np.polynomial.polynomial.polymul(dP, [alpha + s * s, -2 * s, 1.0])
    P = np.polynomial.polynomial.polyint(dP, k=rng.uniform(-1, 1))
    return SmoothFn.from_polynomial(Polynomial(P), interval), t0


def amplitude_on(interval):
    return SmoothFn(fn=lambda t: np.exp(-((np.asarray(t) - 0.7) ** 2)), domain=interval)


def square_about(c, interval):
    """The phase (t - c)^2, stationary at c."""
    return SmoothFn(
        fn=lambda t: (np.asarray(t) - c) ** 2,
        domain=interval,
        derivs=(lambda t: 2.0 * (np.asarray(t) - c),),
    )


def assert_matches_dense_gl(ph, amp, lam, a, b):
    got = oscillatory_integral(ph, amp, lam, (a, b))
    ref = dense_gl(ph, amp, lam, a, b)
    assert abs(got - ref) <= 1e-8 * abs(ref) + osc._tol_floor(ph, amp, lam, a, b)


def n_pieces(ph, lam, a, b):
    xs = np.linspace(a, b, osc._SAMPLES)
    return len(osc._cuts(ph, lam, xs, osc._sampled_derivative(ph, xs))) - 1


class TestStationarySplit:
    """Intervals with one stationary point, cut into a Gauss-Legendre window
    around it and Levin pieces beside it."""

    @pytest.mark.parametrize("interval", [(0.5, 2.0), (0.0, 1.0)])
    @pytest.mark.parametrize("degree", [2, 4])
    def test_matches_dense_gl(self, interval, degree):
        rng = np.random.default_rng(90 + degree)
        for _ in range(3):
            ph, _ = one_root_phase(rng, degree, interval)
            for k in range(6, 15, 2):
                assert_matches_dense_gl(ph, amplitude_on(interval), 2.0**k, *interval)
            assert n_pieces(ph, 2.0**14, *interval) >= 2

    @pytest.mark.parametrize("where", ["on_sample", "halfway"])
    def test_stationary_point_on_and_between_samples(self, where):
        a, b = 0.0, 1.0
        xs = np.linspace(a, b, osc._SAMPLES)
        for k in (1000, 2048, 3001):
            c = xs[k] if where == "on_sample" else 0.5 * (xs[k] + xs[k + 1])
            ph = square_about(c, (a, b))
            for lam in (2.0**6, 2.0**10, 2.0**14):
                assert_matches_dense_gl(ph, amplitude_on((a, b)), lam, a, b)
            assert n_pieces(ph, 2.0**14, a, b) == 3

    def test_window_clipped_at_either_end(self):
        a, b, lam = 0.5, 2.0, 2.0**12
        delta = osc._WINDOW / math.sqrt(lam * 2.0)
        for c in (a + 0.5 * delta, b - 0.5 * delta):
            ph = square_about(c, (a, b))
            assert n_pieces(ph, lam, a, b) == 2
            assert_matches_dense_gl(ph, amplitude_on((a, b)), lam, a, b)

    def test_degenerate_stationary_point(self):
        # phase' = (t - c)^3 flips sign with phase''(c) = 0: the curvature
        # estimated from the bracketing samples is ~1e-8, so the window
        # covers the interval and Gauss-Legendre takes all of it
        a, b = 0.0, 1.0
        for c in (0.37, 0.5):
            ph = SmoothFn(
                fn=lambda t, c=c: (np.asarray(t) - c) ** 4 / 4,
                domain=(a, b),
                derivs=(lambda t, c=c: (np.asarray(t) - c) ** 3,),
            )
            for k in range(6, 15, 2):
                assert_matches_dense_gl(ph, amplitude_on((a, b)), 2.0**k, a, b)
            assert n_pieces(ph, 2.0**14, a, b) == 1

    def test_rho_evaluations_bounded_in_lambda(self):
        ph = cli_phase(-2.0, 1.0)
        for m in (10, 14, 18):
            counted = CountingFn(rho)
            oscillatory_integral(ph, SmoothFn(fn=counted, domain=(0.5, 2.0)), 2.0**m, (0.5, 2.0))
            assert counted.points < 2 * 10**4


class TestSublevel:
    def test_linear(self):
        u = smooth_poly([0, 1], (-1, 1))
        (measure,), (ratio,) = sublevel_check(u, 1, [0.3])
        assert measure == pytest.approx(0.6, abs=1e-8)
        assert ratio == pytest.approx(2.0, abs=1e-7)

    def test_quadratic_closed_form(self):
        u = smooth_poly([0, 0, 0.5], (-1, 1))
        (measure,), _ = sublevel_check(u, 2, [0.1])
        assert measure == pytest.approx(2 * math.sqrt(0.2), rel=1e-6)

    def test_random_cubics_bounded(self):
        rng = np.random.default_rng(0)
        alphas = [2.0**-k for k in range(2, 21, 3)]
        for _ in range(10):
            # cubic with |u'''| = 6|c3| >= 1
            c3 = float(rng.choice([-1, 1])) * (1.0 + rng.random()) / 6.0 * 1.5
            u = smooth_poly([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-0.5, 0.5), c3], (-2, 2))
            _, ratios = sublevel_check(u, 3, alphas)
            assert max(ratios) <= 2 * math.e * 6 ** (1 / 3)

    def test_monotone_in_alpha(self):
        u = smooth_poly([0.2, -1, 0, 1.0], (-2, 2))
        ms, _ = sublevel_check(u, 3, [2.0**-k for k in range(1, 10)])
        assert all(a >= b - 1e-9 for a, b in zip(ms, ms[1:]))

    def test_floor_violation(self):
        u = smooth_poly([0, 0, 0.25], (-1, 1))  # |u''| = 0.5 < 1
        with pytest.raises(ValueError, match="derivative floor"):
            sublevel_check(u, 2, [0.1])


class TestDkNorm:
    def test_linear(self):
        F = SmoothFn(fn=lambda t: np.asarray(t, dtype=float), domain=(0.5, 2.0))
        assert dk_norm(F, 3) == pytest.approx(2.0, rel=1e-9)

    def test_quadratic(self):
        F = SmoothFn(fn=lambda t: np.asarray(t, dtype=float) ** 2, domain=(0.5, 2.0))
        assert dk_norm(F, 2) == pytest.approx(4.0, rel=1e-9)

    def test_sin_k6_chebyshev(self):
        F = SmoothFn(fn=np.sin, domain=(0.5, 2.0))
        val = dk_norm(F, 6)
        assert val <= 1.0 + 1e-8
        assert val >= 1.0 - 1e-8  # sup |sin| on [1/2, 2] is 1 at pi/2

    def test_sin_matches_analytic(self):
        ders = (np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t), np.sin, np.cos, lambda t: -np.sin(t))
        Fa = SmoothFn(fn=np.sin, domain=(0.5, 2.0), derivs=ders)
        Fc = SmoothFn(fn=np.sin, domain=(0.5, 2.0))
        assert dk_norm(Fc, 6) == pytest.approx(dk_norm(Fa, 6), abs=1e-8)

    def test_kink_rejected(self):
        F = SmoothFn(fn=lambda t: np.abs(np.asarray(t, dtype=float) - 1.2), domain=(0.5, 2.0))
        with pytest.raises(ValueError, match="not smooth enough"):
            dk_norm(F, 2)


def mp_dct2(vals):
    """c_k = (2/n) sum_i vals[i] cos(pi k (2i+1) / 2n), with c_0 halved: the
    Chebyshev coefficients of the interpolant through the values at the n
    Chebyshev points, summed at 32 digits."""
    mpmath = pytest.importorskip("mpmath")
    n = len(vals)
    with mpmath.workdps(32):
        cosines = [mpmath.cos(mpmath.pi * r / (2 * n)) for r in range(4 * n)]
        v = [mpmath.mpf(float(x)) for x in vals]
        c = [2 * mpmath.fsum(v[i] * cosines[k * (2 * i + 1) % (4 * n)] for i in range(n)) / n for k in range(n)]
        c[0] /= 2
        return np.array([float(x) for x in c])


class TestChebInterpolant:
    @pytest.mark.parametrize("degree", [64, 256])
    @pytest.mark.parametrize("fn", [lambda t: np.sin(12 * t), lambda t: np.exp(4 * t)], ids=["sin12t", "exp4t"])
    def test_kept_coefficients_vs_mpmath_dct(self, fn, degree):
        seen = []

        def recording(t):
            seen.append(fn(t))
            return seen[-1]

        series = osc._cheb_interpolant(SmoothFn(fn=recording, domain=(0.5, 2.0)), (0.5, 2.0), degree)
        ref = mp_dct2(seen[0])
        kept = series.coef
        assert len(kept) >= 16  # enough of the series to test more than the leading terms
        assert np.max(np.abs(kept - ref[: len(kept)])) <= 1e-14 * np.max(np.abs(ref))


class TestInverseFunction:
    def test_square(self):
        F = smooth_poly([0, 0, 1], (0.5, 2.0))
        assert inverse_function(F, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_linear(self):
        F = smooth_poly([0, 2], (0.5, 2.0))
        assert inverse_function(F, 3.0) == pytest.approx(1.5, abs=1e-13)

    def test_tiny_perturbation(self):
        F = SmoothFn(
            fn=lambda t: np.asarray(t, dtype=float) ** 2 + 2.0**-30 * np.sin(t),
            domain=(0.5, 2.0),
            derivs=(lambda t: 2 * np.asarray(t, dtype=float) + 2.0**-30 * np.cos(t),),
        )
        assert abs(inverse_function(F, 1.0) - 1.0) <= 2.0**-29

    def test_out_of_range(self):
        F = smooth_poly([0, 1], (0.5, 2.0))
        with pytest.raises(ValueError, match="outside range"):
            inverse_function(F, 5.0)

    def test_non_monotone(self):
        F = smooth_poly([0, 0, 1], (-1.0, 1.0))
        with pytest.raises(ValueError, match="monotone"):
            inverse_function(F, 0.5)


class TestInverseDerivatives:
    def test_log_closed_form(self):
        F = SmoothFn(fn=np.exp, domain=(-1, 1), derivs=tuple([np.exp] * 8))
        got = inverse_derivatives(F, 0.0, 5)
        expected = [1.0, -1.0, 2.0, -6.0, 24.0]
        for g, e in zip(got, expected):
            assert g == pytest.approx(e, rel=1e-10)

    def test_first_is_reciprocal_slope(self):
        F = smooth_poly([0.3, 2.0, 0.1, 0.05], (0.5, 2.0))
        x0 = 1.1
        got = inverse_derivatives(F, x0, 1)
        assert got[0] == pytest.approx(1.0 / F.deriv(1)(x0), rel=1e-12)

    def test_second_explicit_formula(self):
        F = smooth_poly([0.0, 1.5, 0.2, -0.04], (0.5, 2.0))
        x0 = 0.9
        got = inverse_derivatives(F, x0, 2)
        f1, f2 = F.deriv(1)(x0), F.deriv(2)(x0)
        assert got[1] == pytest.approx(-f2 / f1**3, rel=1e-10)

    def test_random_quintics_vs_fd_oracle(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 20:
            cs = [0.0, rng.uniform(2.0, 3.5)] + list(rng.uniform(-0.12, 0.12, size=4))
            P = Polynomial(cs)
            dP = P.derivative()
            xs_chk = np.linspace(0.4, 2.1, 257)
            if np.min(dP.eval(xs_chk)) < 0.5 or abs(P.nth_derivative(2).eval(1.2)) < 0.3:
                continue
            checked += 1
            F = SmoothFn.from_polynomial(P, (0.4, 2.1))
            x0 = 1.2
            y0 = P.eval(x0)
            got = inverse_derivatives(F, x0, 4)
            for n in range(1, 5):
                fd = fd_inverse_derivative(P, F, y0, n)
                denom = max(abs(fd), 1e-3)
                assert abs(got[n - 1] - fd) / denom < 1e-6, (n, got[n - 1], fd)

    def test_fd_oracle_vs_mpmath(self):
        """The finite-difference oracle must be well inside the 1e-6 bound it
        enforces; check it against a 50-digit inverse on the same quintics
        (`_random_monotone_quintic` applies the rejection rule above)."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        with mpmath.workdps(50):
            for _ in range(20):
                P = _random_monotone_quintic(rng)
                F = SmoothFn.from_polynomial(P, (0.4, 2.1))
                x0 = 1.2
                y0 = P.eval(x0)
                coeffs = [mpmath.mpf(c) for c in reversed(P.coeffs)]

                def inv(y):
                    return mpmath.findroot(lambda x: mpmath.polyval(coeffs, x) - y, x0)

                ref = [float(d) for d in mpmath.diffs(inv, y0, 4)][1:]
                for n in range(1, 5):
                    fd = fd_inverse_derivative(P, F, y0, n)
                    denom = max(abs(ref[n - 1]), 1e-3)
                    assert abs(fd - ref[n - 1]) / denom < 1e-7, (n, fd, ref[n - 1])

    def test_critical_point_rejected(self):
        F = smooth_poly([0, 0, 1], (-1, 1))
        with pytest.raises(ValueError, match="critical point"):
            inverse_derivatives(F, 0.0, 3)


def make_pair(seed, K=6, N=30):
    rng = np.random.default_rng(seed)
    a = rng.uniform(1.5, 2.5)
    b = rng.uniform(-0.15, 0.15)
    w = rng.uniform(0.3, 1.0)
    ph = rng.uniform(0, 2 * math.pi)

    def f0(t):
        return a * np.asarray(t, dtype=float) + 0.5 * b * np.asarray(t, dtype=float) ** 2

    d0 = (lambda t: a + b * np.asarray(t, dtype=float), lambda t: b * np.ones_like(np.asarray(t, dtype=float))) + tuple(
        (lambda t: np.zeros_like(np.asarray(t, dtype=float)),) * 6
    )
    eps = 2.0**-N

    def f1(t):
        return f0(t) + eps * np.sin(w * np.asarray(t, dtype=float) + ph)

    def sin_deriv(k):
        def d(t):
            t = np.asarray(t, dtype=float)
            return eps * w**k * np.sin(w * t + ph + k * math.pi / 2)

        return d

    d1 = tuple(
        (lambda t, k=k: d0[k - 1](t) + sin_deriv(k)(t)) for k in range(1, 9)
    )
    F0 = SmoothFn(fn=f0, domain=(0.5, 2.0), derivs=d0)
    F1 = SmoothFn(fn=f1, domain=(0.5, 2.0), derivs=d1)
    return PhasePair(f0=F0, f1=F1, K=K, N=N)


class TestPerturbationPairs:
    def test_identical_pair_zero(self):
        pair = make_pair(0)
        same = PhasePair(f0=pair.f0, f1=pair.f0, K=6, N=30)
        lo = same.f0.fn(0.6)
        hi = same.f0.fn(1.9)
        distance, bound = perturbation_pair_check(same, np.linspace(lo, hi, 5))
        assert distance == 0.0
        assert bound == 2.0**-10

    def test_constructed_pairs_pass(self):
        for seed in range(8):
            pair = make_pair(seed)
            lo = max(pair.f0.fn(0.6), pair.f1.fn(0.6))
            hi = min(pair.f0.fn(1.9), pair.f1.fn(1.9))
            distance, bound = perturbation_pair_check(pair, np.linspace(lo, hi, 7))
            assert distance <= bound == 2.0**-10

    def test_violated_closeness_names_condition(self):
        pair = make_pair(3)
        big = SmoothFn(
            fn=lambda t: pair.f0.fn(t) + 2.0**-5 * np.sin(np.asarray(t, dtype=float)),
            domain=(0.5, 2.0),
            derivs=tuple(
                (lambda t, k=k: pair.f0.derivs[k - 1](t) + 2.0**-5 * np.sin(np.asarray(t, dtype=float) + k * math.pi / 2))
                for k in range(1, 9)
            ),
        )
        bad = PhasePair(f0=pair.f0, f1=big, K=6, N=30)
        with pytest.raises(ValueError, match=r"\(iii\)"):
            perturbation_pair_check(bad, [pair.f0.fn(1.0)])

    def test_shrinking_perturbation_monotone(self):
        prev = math.inf
        for N in (20, 24, 28, 32):
            pair = make_pair(99, N=N)
            lo = max(pair.f0.fn(0.6), pair.f1.fn(0.6))
            hi = min(pair.f0.fn(1.9), pair.f1.fn(1.9))
            cur, _ = perturbation_pair_check(pair, np.linspace(lo, hi, 5))
            assert cur <= prev * (1 + 1e-9)
            prev = cur


class TestQPerturbation:
    def test_monomial_gives_zero(self):
        P = Polynomial.curve([0, 1.0])
        assert q_perturbation(P, 2, 5).is_zero

    def test_coefficient_scaling(self):
        # Q coefficients: a_k 2^{j_l (1-k) + j (l-k)}
        P = Polynomial.curve([0, 4.0, 1.0])  # a_2 = 4 -> j_2 = 2
        Q = q_perturbation(P, 2, 3)
        assert Q.coefficient(3) == pytest.approx(2.0 ** (2 * (1 - 3) + 3 * (2 - 3)), rel=1e-12)

    def test_small_cubic_gives_small_perturbation(self):
        # a_3 chosen so ||Q_2||_{D_K} <= 2^-20 at j = 10
        eps = 2.0**-10 / 48.0
        Q = q_perturbation(Polynomial.curve([0, 1.0, eps]), 2, 10)
        assert max(abs(c) for c in Q.coeffs) * 48 <= 2.0**-19
