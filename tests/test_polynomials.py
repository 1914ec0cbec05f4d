import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from curvelab.polynomials import (
    Polynomial,
    bands,
    bisect,
    fit_decay_exponent,
    level_set_measure,
    real_roots_with_orders,
    truncate_term,
)


def coeff_lists(max_degree=6):
    return st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        min_size=2,
        max_size=max_degree,
    ).filter(lambda cs: any(abs(c) > 1e-3 for c in cs))


class TestEval:
    def test_monomial(self):
        assert Polynomial.curve([0, 1]).eval(3.0) == 9.0

    def test_zero_input(self):
        assert Polynomial.curve([1, 1]).eval(0.0) == 0.0

    def test_quadratic_counterexample_curve(self):
        # P(t) = t + ((1-t)/A)^2 - 1/A^2 with A = sqrt(2) collapses to t^2/2
        A = math.sqrt(2.0)
        P = Polynomial([1 / A**2 - 1 / A**2, 1 - 2 / A**2, 1 / A**2])
        assert P.eval(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_vectorized(self):
        P = Polynomial.curve([0, 2, 1])
        ts = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(P.eval(ts), [0.0, 3.0, 16.0])

    @staticmethod
    def assert_scalar_path_matches_array_path(P, t):
        got = P.eval(t)
        with np.errstate(all="ignore"):
            want = P.eval(np.array([t], dtype=float))[0]
        assert type(got) is float
        assert np.array([got]).view(np.int64)[0] == np.array([want]).view(np.int64)[0]

    @pytest.mark.parametrize("t", [
        0, 3, -7, 10**6, 0.0, -0.0, 1.5, np.float64(-0.0), np.float64(2.25),
        1e200, -1e200, np.float64(1e300), math.inf, -math.inf, math.nan, np.float64(math.nan),
    ])
    @pytest.mark.parametrize("cs", [[0.0], [0.0, 0.0, 1.0], [1.0, -3.0, 0.0, 2.0], [-0.0, 0.5, -4.0, 0.0, 0.0, 7.0]])
    def test_scalar_path_bits_at_special_points(self, cs, t):
        # +-0.0, ints, np.float64, overflow to +-inf (1e200 squared), inf - inf and NaN
        self.assert_scalar_path_matches_array_path(Polynomial(cs), t)

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
        st.one_of(
            st.floats(),
            st.integers(min_value=-(10**12), max_value=10**12),
            st.floats(min_value=-1e3, max_value=1e3).map(np.float64),
        ),
    )
    def test_scalar_path_matches_array_path(self, cs, t):
        self.assert_scalar_path_matches_array_path(Polynomial(cs), t)

    @pytest.mark.parametrize("bad", [5, "12", [[1.0, 2.0]], [0.0, "x"], None])
    def test_non_numeric_coefficients_rejected(self, bad):
        with pytest.raises(ValueError, match="sequence of numbers"):
            Polynomial(bad)


class TestDerivative:
    def test_square(self):
        assert Polynomial.curve([0, 1]).derivative().coeffs == (0.0, 2.0)

    def test_cube(self):
        assert Polynomial.curve([0, 0, 1]).derivative().coeffs == (0.0, 0.0, 3.0)

    def test_mixed(self):
        assert Polynomial.curve([0, 1, 1]).derivative().coeffs == (0.0, 2.0, 3.0)

    @given(coeff_lists(), st.floats(min_value=-2, max_value=2, allow_nan=False))
    def test_matches_central_differences(self, coeffs, t):
        P = Polynomial(coeffs)
        h = 1e-6 * (1.0 + abs(t))
        fd = (P.eval(t + h) - P.eval(t - h)) / (2 * h)
        exact = P.derivative().eval(t)
        scale = max(1.0, abs(exact), P.max_abs_coeff * 10)
        assert abs(fd - exact) <= 1e-8 * scale * 100


class TestTruncateTerm:
    def test_drop_cubic(self):
        P = Polynomial.curve([0, 1, 1])
        assert truncate_term(P, 3).coeffs == (0.0, 0.0, 1.0)

    def test_to_zero(self):
        P = Polynomial.curve([0, 1])
        assert truncate_term(P, 2).is_zero

    def test_keep_high_term(self):
        P = Polynomial([0, 0, 4, 0, 0, 1])
        assert truncate_term(P, 2).coeffs == (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            truncate_term(Polynomial.curve([0, 1]), 3)
        with pytest.raises(ValueError):
            truncate_term(Polynomial.curve([0, 1]), 1)


def poly_from_roots(locs, orders):
    coeffs = np.array([1.0])
    for r, m in zip(locs, orders):
        for _ in range(m):
            coeffs = np.convolve(coeffs, [-r, 1.0])
    return Polynomial(coeffs)


# 1-4 roots in [-2, 2] on a grid of 0.01, at least 0.1 apart
known_roots = st.tuples(
    st.integers(min_value=-200, max_value=200),
    st.lists(st.integers(min_value=10, max_value=130), max_size=3),
).map(lambda t: [k / 100 for k in np.cumsum([t[0], *t[1]]).tolist() if k <= 200])


class TestRoots:
    def test_linear(self):
        # P' - 1 for P = t^2
        Q = Polynomial.curve([0, 1]).derivative().sub_constant(1.0)
        roots = real_roots_with_orders(Q, (-10, 10), 1e-10)
        assert len(roots) == 1
        r, order = roots[0]
        assert r == pytest.approx(0.5, abs=1e-12)
        assert order == 1

    def test_perfect_square(self):
        Q = Polynomial([3, -6, 3])  # 3(t-1)^2
        roots = real_roots_with_orders(Q, (-10, 10), 1e-10)
        assert len(roots) == 1
        r, order = roots[0]
        assert r == pytest.approx(1.0, abs=1e-8)
        assert order == 2

    def test_pm_one_over_sqrt3(self):
        Q = Polynomial.curve([0, 0, 1]).derivative().sub_constant(1.0)  # 3t^2 - 1
        roots = real_roots_with_orders(Q, (-10, 10), 1e-10)
        expected = 1.0 / math.sqrt(3.0)
        assert [o for _, o in roots] == [1, 1]
        assert roots[0][0] == pytest.approx(-expected, abs=1e-12)
        assert roots[1][0] == pytest.approx(expected, abs=1e-12)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            real_roots_with_orders(Polynomial([0.0]), (-1, 1), 1e-10)

    def test_triple_root(self):
        # (t-2)^3 = t^3 - 6t^2 + 12t - 8
        Q = Polynomial([-8, 12, -6, 1])
        roots = real_roots_with_orders(Q, (-5, 5), 1e-8)
        assert len(roots) == 1
        assert roots[0][0] == pytest.approx(2.0, abs=1e-5)
        assert roots[0][1] == 3

    @given(
        st.lists(st.floats(min_value=-2, max_value=2, allow_nan=False), min_size=1, max_size=4),
        st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=4),
    )
    def test_orders_sum_below_degree(self, root_locs, orders):
        locs = sorted({round(r, 2) for r in root_locs})
        if not locs:
            return
        orders = (orders * len(locs))[: len(locs)]
        coeffs = np.array([1.0])
        for r, m in zip(locs, orders):
            for _ in range(m):
                coeffs = np.convolve(coeffs, [-r, 1.0])
        P = Polynomial(coeffs)
        found = real_roots_with_orders(P, (-3, 3), 1e-7)
        assert sum(o for _, o in found) <= P.degree

    @example(locs=[1.97, 2.0], orders=[2, 2])  # |P| <= 5.1e-8 between them: one root of order 4
    @example(locs=[-2.0, -1.88], orders=[2, 2])
    @example(locs=[-2.0, -1.875], orders=[2, 2])
    @given(known_roots, st.lists(st.integers(min_value=1, max_value=3), min_size=4, max_size=4))
    def test_orders_match_brute_force_clusters(self, locs, orders):
        # neighbours form one root when |P| <= tol on a dense grid between
        # them; otherwise each keeps its own order
        tol = 1e-7
        P = poly_from_roots(locs, orders)
        groups = [[0]]
        for i in range(1, len(locs)):
            between = np.linspace(locs[i - 1], locs[i], 4097)
            if np.max(np.abs(P.eval(between))) <= tol:
                groups[-1].append(i)
            else:
                groups.append([i])
        found = real_roots_with_orders(P, (-3, 3), tol)
        assert [o for _, o in found] == [sum(orders[i] for i in g) for g in groups]
        for (r, _), g in zip(found, groups):
            if len(g) == 1:
                assert r == pytest.approx(locs[g[0]], abs=1e-6)
            else:
                assert locs[g[0]] <= r <= locs[g[-1]]


class TestBisect:
    @given(st.floats(min_value=-5, max_value=5), st.floats(min_value=-4, max_value=4))
    def test_floating_point_limit(self, root, offset):
        f = lambda t: t - root
        lo, hi = min(root, offset) - 1.0, max(root, offset) + 1.0
        t = bisect(f, lo, hi)
        # the bracket ends one ulp apart, so the root is at most one ulp away
        assert abs(t - root) <= np.spacing(abs(root)) + 1e-300

    def test_width_stops_early(self):
        calls = []

        def f(t):
            calls.append(t)
            return t - 0.3

        t = bisect(f, 0.0, 1.0, width=2.0**-10)
        assert abs(t - 0.3) <= 2.0**-11
        assert len(calls) == 11  # f(lo), then one per halving

    def test_decreasing_and_indicator(self):
        assert bisect(lambda t: 1.0 - t, 0.0, 4.0) == pytest.approx(1.0, abs=1e-15)
        edge = bisect(lambda t: -1.0 if t < 0.7 else 1.0, 0.0, 1.0, width=1e-12)
        assert abs(edge - 0.7) <= 1e-12


class TestBands:
    def test_matches_exact_intervals(self):
        # |sin(3t)| < 1/2 on [0, 2]: [0, pi/18), (5pi/18, 7pi/18), (11pi/18, 2]
        found = bands(lambda t: np.abs(np.sin(3 * t)) < 0.5, 0.0, 2.0, 1024, 1e-12)
        exact = [(0.0, math.pi / 18), (5 * math.pi / 18, 7 * math.pi / 18), (11 * math.pi / 18, 2.0)]
        assert len(found) == len(exact)
        for (a, b), (ea, eb) in zip(found, exact):
            assert a == pytest.approx(ea, abs=1e-11)
            assert b == pytest.approx(eb, abs=1e-11)

    def test_empty_and_full(self):
        assert bands(lambda t: np.abs(t) > 5, -1.0, 1.0, 64, 1e-9) == []
        assert bands(lambda t: np.abs(t) < 5, -1.0, 1.0, 64, 1e-9) == [(-1.0, 1.0)]

    @given(st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=2, max_size=8, unique=True))
    def test_polynomial_sign_bands_vs_dense_sampler(self, roots):
        roots = sorted(roots)
        if min(np.diff(roots)) < 0.01:
            return
        P = Polynomial(np.polynomial.polynomial.polyfromroots(roots))
        found = bands(lambda t: P.eval(t) < 0, 0.0, 1.0, 4096, 1e-12)
        xs = np.linspace(0.0, 1.0, 200_001)
        dense = float(np.mean(P.eval(xs) < 0))
        assert sum(b - a for a, b in found) == pytest.approx(dense, abs=2e-5)
        for a, b in found:
            assert P.eval(0.5 * (a + b)) < 0


class TestLevelSet:
    @given(coeff_lists(5), st.floats(min_value=0.01, max_value=2.0))
    def test_scalar_steps_match_the_array_test_bit_for_bit(self, coeffs, h):
        g = Polynomial(coeffs).eval
        found = bands(lambda t: np.abs(g(t)) < h, -2.0, 2.0, 1024, 4.0 * 1e-9)
        assert level_set_measure(g, h, (-2, 2), 1024) == sum((b - a for a, b in found), 0.0)

    def test_linear_band(self):
        m = level_set_measure(lambda t: 2 * t - 1, 0.1, (0, 1))
        assert m == pytest.approx(0.1, abs=1e-8)

    def test_empty(self):
        assert level_set_measure(lambda t: 5.0, 1.0, (0, 1)) == 0.0

    def test_two_simple_roots_vs_dense_oracle(self):
        g = Polynomial([-1, 0, 3])  # 3t^2 - 1
        h = 0.01
        m = level_set_measure(g.eval, h, (-2, 2), resolution=8192)
        # independent oracle: dense sampling
        xs = np.linspace(-2, 2, 10_000_001)
        oracle = float(np.mean(np.abs(g.eval(xs)) < h) * 4.0)
        linearized = 2 * h / math.sqrt(3.0)
        assert m == pytest.approx(linearized, rel=0.01)
        assert oracle == pytest.approx(linearized, rel=0.01)
        assert m == pytest.approx(oracle, rel=0.01)

    def test_monotone_and_bounded(self):
        g = Polynomial([0.3, -1, 0, 1]).eval
        prev = 0.0
        for h in [0.01, 0.05, 0.1, 0.5, 1.0, 5.0]:
            m = level_set_measure(g, h, (-2, 2))
            assert m >= prev - 1e-8
            assert m <= 4.0 + 1e-12
            prev = m

    def test_resolution_validated(self):
        with pytest.raises(ValueError):
            level_set_measure(lambda t: t, 0.1, (0, 1), resolution=100)

    @given(
        st.lists(st.floats(min_value=-2, max_value=2, allow_nan=False), min_size=2, max_size=5),
        st.floats(min_value=0.02, max_value=0.98),
    )
    def test_quartics_vs_dense_sampler(self, coeffs, q):
        g = Polynomial(coeffs).eval
        lo, hi, resolution = -1.0, 1.0, 1024
        n = 1 << 20
        w = (hi - lo) / n
        dense = np.abs(g(lo + w * (np.arange(n) + 0.5)))  # at cell midpoints
        h = q * float(dense.max())  # below the maximum, so most draws cross h
        assume(h > 0)
        inside = dense < h
        flips = np.nonzero(inside[1:] != inside[:-1])[0]
        # level_set_measure misses a band or gap thinner than a sample cell
        assume(np.all(np.diff(flips) >= 4 * n // resolution))
        oracle = w * np.count_nonzero(inside)
        # each crossing puts at most one cell of error in the oracle and one
        # refinement width in level_set_measure; a crossing in either end's
        # half-cell is seen by no midpoint, hence the two extra
        bound = (flips.size + 2) * (w + (hi - lo) * 1e-9)
        assert abs(level_set_measure(g, h, (lo, hi), resolution) - oracle) <= bound


def make_known_order_poly(r: float, m: int, extra_root=None) -> Polynomial:
    """Curve polynomial (a_0 = a_1 = 0) whose P'-1 has a root of order m at r.

    P' - 1 = c (t-r)^m [(t-s)] with c chosen to kill the linear term of P.
    """
    base = np.array([1.0])
    for _ in range(m):
        base = np.convolve(base, [-r, 1.0])
    if extra_root is not None:
        base = np.convolve(base, [-extra_root, 1.0])
    value_at_zero = base[0]
    assert abs(value_at_zero) > 1e-9
    c = -1.0 / value_at_zero
    dP = np.concatenate([[1.0], np.zeros(len(base) - 1)]) + c * base
    coeffs = np.concatenate([[0.0], dP / np.arange(1, len(dP) + 1)])
    P = Polynomial(coeffs)
    assert abs(P.coefficient(1)) < 1e-12
    return P


class TestLevelSetExponentLaw:
    @pytest.mark.parametrize("r,m", [(1.03, 1), (0.7, 2), (-1.2, 3)])
    def test_slope_matches_inverse_order(self, r, m):
        P = make_known_order_poly(r, m)
        Q = P.derivative().sub_constant(1.0)
        roots = real_roots_with_orders(Q, (-4, 4), 1e-7)
        assert max(o for _, o in roots) == m
        hs = [2.0**-k for k in range(4, 15)]
        # resolution chosen so the thinnest band spans several sample cells
        res = 1 << 19 if m == 1 else 8192
        pts = [(h, level_set_measure(Q.eval, h, (-4, 4), resolution=res)) for h in hs]
        slope, _, r2 = fit_decay_exponent(pts)
        assert slope == pytest.approx(1.0 / m, abs=0.1)
        assert r2 > 0.99


class TestFitDecay:
    def test_identity_law(self):
        slope, _, r2 = fit_decay_exponent([(1, 1), (10, 10), (100, 100)])
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert r2 == pytest.approx(1.0)

    def test_constant(self):
        slope, _, _ = fit_decay_exponent([(1, 2), (4, 2), (16, 2)])
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_sqrt_power_law(self):
        pts = [(2.0**k, math.sqrt(2.0**k)) for k in range(11)]
        slope, _, r2 = fit_decay_exponent(pts)
        assert slope == pytest.approx(0.5, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            fit_decay_exponent([(1, 1), (2, 2)])
        with pytest.raises(ValueError):
            fit_decay_exponent([(1, 1), (2, -2), (3, 3)])
