import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelab.signals import (
    GridFunction,
    _one_sided_max_avg,
    hl_maximal,
    littlewood_paley_piece,
    lp_norm,
    maximal_p,
    phi_hat,
    rho,
    theta,
)


class TestCutoffs:
    def test_theta_plateau_and_support(self):
        assert theta(0.0) == 1.0
        assert theta(0.5) == 1.0
        assert theta(-0.5) == 1.0
        assert theta(1.0) == 0.0
        assert theta(3.0) == 0.0
        mid = theta(0.75)
        assert 0.0 < mid < 1.0

    def test_phi_hat_support(self):
        xs = np.concatenate([np.linspace(-0.5, 0.5, 101), np.linspace(2.0, 5.0, 101), -np.linspace(2.0, 5.0, 101)])
        assert np.max(np.abs(phi_hat(xs))) <= 1e-14
        assert phi_hat(1.0) == 1.0  # theta(1/2)=1, theta(1)=0

    def test_rho_odd(self):
        ts = np.linspace(0.01, 3.0, 500)
        np.testing.assert_allclose(rho(-ts), -rho(ts), atol=1e-15)
        assert rho(0.0) == 0.0

    def test_rho_positive_on_interior(self):
        # strictly positive where the endpoint counterexample integrates;
        # float underflow flattens the glue within ~1e-2 of the support edges
        ts = np.linspace(0.6, 1.9, 200)
        assert np.all(rho(ts) > 0)
        wide = np.linspace(0.5001, 1.9999, 500)
        assert np.all(rho(wide) >= 0)

    def test_telescoping_reconstructs_one_over_t(self):
        J = 10
        ts = np.concatenate([np.geomspace(2.0**-J, 2.0**J, 400), -np.geomspace(2.0**-J, 2.0**J, 400)])
        total = np.zeros_like(ts)
        for j in range(-J - 2, J + 3):
            total += 2.0**j * rho(2.0**j * ts)
        np.testing.assert_allclose(total, 1.0 / ts, rtol=1e-12)


class TestGrid:
    def test_x_is_the_linspace_built_once_and_read_only(self):
        f = GridFunction(-3.0, 5.0, np.ones(1025))
        assert f.x is f.x
        assert np.array_equal(f.x.view(np.int64), np.linspace(-3.0, 5.0, 1025).view(np.int64))
        with pytest.raises(ValueError):
            f.x[0] = 0.0


class TestLpNorm:
    def test_indicator(self):
        f = GridFunction.indicator(0, 1, -0.5, 1.5, 4001)
        assert lp_norm(f, 2) == pytest.approx(1.0, abs=2 * f.step)

    def test_delta_indicator_matches_power(self):
        delta = 1e-3
        f = GridFunction.indicator(0, delta, -delta, 2 * delta, 4001)
        p1 = 1.5
        assert lp_norm(f, p1) == pytest.approx(delta ** (1 / p1), rel=4 * f.step / delta)

    def test_zero(self):
        f = GridFunction(0, 1, np.zeros(100))
        assert lp_norm(f, 1.0) == 0.0

    def test_p_validation(self):
        f = GridFunction(0, 1, np.ones(10))
        with pytest.raises(ValueError):
            lp_norm(f, 0.0)


class TestLittlewoodPaley:
    def test_band_identity_on_cosine(self):
        # frequency sits exactly on an FFT bin (period n*step) and at the
        # single point |xi| = 2^k where the multiplier equals 1
        step, n, k = 1.0 / 128, 2048, 3
        xs = np.arange(n) * step
        f = GridFunction(0, (n - 1) * step, np.cos(2 * np.pi * (2.0**k) * xs))
        out = littlewood_paley_piece(f, k)
        np.testing.assert_allclose(out.values, f.values, atol=1e-10)

    def test_constant_annihilated(self):
        f = GridFunction(0, 1, np.ones(512))
        out = littlewood_paley_piece(f, 0)
        assert np.max(np.abs(out.values)) < 1e-10

    def test_telescoped_reconstruction(self):
        # FFT period 32 with frequencies 1 and 3 on bins; Nyquist 4096 clears
        # the k = 10 band
        step, n = 1.0 / 8192, 262144
        xs = np.arange(n) * step
        vals = np.cos(2 * np.pi * 1.0 * xs) + 0.5 * np.sin(2 * np.pi * 3.0 * xs)
        f = GridFunction(0, (n - 1) * step, vals)
        total = np.zeros(n)
        for k in range(-10, 11):
            total += littlewood_paley_piece(f, k).values
        np.testing.assert_allclose(total, vals, atol=1e-8)

    def test_nyquist_guard(self):
        f = GridFunction(0, 1, np.ones(64))
        with pytest.raises(ValueError, match="scale too fine"):
            littlewood_paley_piece(f, 12)


def brute_force_maximal(f: GridFunction) -> np.ndarray:
    a = np.abs(f.values)
    x = f.x
    S = np.concatenate([[0.0], np.cumsum(f.step * 0.5 * (a[1:] + a[:-1]))])
    n = f.n
    out = np.zeros(n)
    for i in range(n):
        best = a[i]
        for lo in range(i + 1):
            for hi in range(i, n):
                if hi > lo:
                    best = max(best, (S[hi] - S[lo]) / (x[hi] - x[lo]))
        out[i] = best
    return out


def numpy_scalar_hull(x: np.ndarray, S: np.ndarray) -> np.ndarray:
    """The hull scan indexing numpy arrays one scalar at a time: the oracle
    that _one_sided_max_avg's loop on Python floats must match bit for bit."""
    n = len(x)
    out = np.zeros(n)
    hull: list = [0]
    for i in range(1, n):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (S[b] - S[a]) * (x[i] - x[b]) >= (S[i] - S[b]) * (x[b] - x[a]):
                hull.pop()
            else:
                break
        out[i] = (S[i] - S[hull[-1]]) / (x[i] - x[hull[-1]])
        hull.append(i)
    return out


def bits(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.int64)


# runs of a value, drawn mostly from a few integers and 0 so that hull
# points tie and whole stretches are flat, repeated to the drawn length
_runs = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(min_value=0, max_value=3, allow_nan=False)),
        st.integers(min_value=1, max_value=1500),
    ),
    min_size=1, max_size=8,
)


class TestHullScanBitIdentity:
    @settings(deadline=None, max_examples=60)
    @given(
        _runs,
        st.one_of(st.sampled_from([2, 3, 4096, 4097, 5000]), st.integers(min_value=2, max_value=64)),
        st.sampled_from([(0.0, 1.0), (-0.5, 1.5), (-8.0, 8.0)]),
    )
    def test_matches_numpy_scalar_loop(self, runs, n, window):
        vals = np.resize(np.repeat([v for v, _ in runs], [k for _, k in runs]), n)
        f = GridFunction(*window, vals)
        a, x = np.abs(f.values), f.x
        S = np.concatenate([[0.0], np.cumsum(f.step * 0.5 * (a[1:] + a[:-1]))])
        left = numpy_scalar_hull(x, S)
        right = numpy_scalar_hull(-x[::-1], -S[::-1])[::-1]
        assert np.array_equal(bits(_one_sided_max_avg(x, S)), bits(left))
        assert np.array_equal(bits(_one_sided_max_avg(-x[::-1], -S[::-1])[::-1]), bits(right))
        assert np.array_equal(bits(hl_maximal(f).values), bits(np.maximum(a, np.maximum(left, right))))


class TestHLMaximal:
    def test_indicator_far_point(self):
        f = GridFunction.indicator(0, 1, -1, 3, 4001)
        M = hl_maximal(f)
        assert M(2.0) == pytest.approx(0.5, abs=5e-3)

    def test_indicator_inside(self):
        f = GridFunction.indicator(0, 1, -1, 3, 4001)
        M = hl_maximal(f)
        assert M(0.5) == pytest.approx(1.0, abs=5e-3)

    def test_dominates_pointwise(self):
        rng = np.random.default_rng(7)
        f = GridFunction(0, 1, rng.random(257))
        M = hl_maximal(f)
        assert np.all(M.values >= np.abs(f.values) - 1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            f = GridFunction(0, 1, rng.random(41) * rng.choice([1, 2, 5]))
            fast = hl_maximal(f).values
            slow = brute_force_maximal(f)
            np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-12)

    @given(
        st.lists(st.floats(min_value=0, max_value=3, allow_nan=False), min_size=8, max_size=40),
        st.lists(st.floats(min_value=0, max_value=3, allow_nan=False), min_size=8, max_size=40),
    )
    def test_sublinear(self, u, v):
        n = min(len(u), len(v))
        fu = GridFunction(0, 1, np.asarray(u[:n]))
        fv = GridFunction(0, 1, np.asarray(v[:n]))
        both = hl_maximal(fu + fv).values
        split = hl_maximal(fu).values + hl_maximal(fv).values
        assert np.all(both <= split + 1e-10)

    @given(st.lists(
        st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(min_value=0, max_value=3, allow_nan=False)),
        min_size=2, max_size=40,
    ))
    def test_matches_brute_force_with_ties(self, vals):
        # values drawn mostly from a few integers put many points on one line
        f = GridFunction(0, 1, np.asarray(vals))
        np.testing.assert_allclose(hl_maximal(f).values, brute_force_maximal(f), rtol=1e-12, atol=1e-12)

    def test_maximal_p_monotone_in_p(self):
        rng = np.random.default_rng(5)
        f = GridFunction(0, 1, rng.random(129))
        m1 = maximal_p(f, 1.0000001).values
        m2 = maximal_p(f, 2).values
        assert np.all(m2 >= m1 - 1e-9)

    def test_weak_1_1_constant(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b = np.sort(rng.uniform(-2, 2, size=2))
            if b - a < 0.05:
                continue
            f = GridFunction.indicator(a, b, -4, 4, 2049)
            M = hl_maximal(f)
            meas_f = lp_norm(f, 1)
            for lam in (0.1, 0.25, 0.5):
                measure = np.sum(M.values > lam) * f.step
                assert measure <= 4.0 * meas_f / lam * (1 + 1e-6)
