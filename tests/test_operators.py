import math
import os
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvelab import operators
from curvelab.operators import (
    _CHUNK,
    _COMPONENTS,
    _WAVE,
    _quad_nodes,
    _weighted_row_sum,
    apply_M,
    apply_Tj,
    below_resolution_floor,
    multiplier_Mmn,
    restricted_Tj_alpha,
)
from curvelab.polynomials import Polynomial
from curvelab.signals import GridFunction, lp_norm, phi_hat, rho

P_SQ = Polynomial.curve([0, 1.0])  # t^2


def wide_ones(lo=-8.0, hi=8.0, n=2049):
    return GridFunction(lo, hi, np.ones(n))


def gaussian(center, width, lo=-8.0, hi=8.0, n=2049):
    return GridFunction.sample(lambda x: np.exp(-(((x - center) / width) ** 2)), lo, hi, n)


def interior_slice(g: GridFunction, margin: float):
    xs = g.x
    return (xs > g.lo + margin) & (xs < g.hi - margin)


class TestApplyTj:
    def test_cancellation_on_constants(self):
        f = wide_ones()
        res = apply_Tj(f, f, P_SQ, 0)
        inner = interior_slice(f, 4.5)
        assert np.max(np.abs(res.values[inner])) < 1e-10

    def test_g_constant_reduces_to_single_integral(self):
        f = gaussian(0.0, 1.0)
        g = wide_ones()
        res = apply_Tj(f, g, P_SQ, 1, nodes_per_component=8192)
        # independent 1d quadrature of int f(x - t) rho_1(t) dt
        xs = f.x
        inner = interior_slice(f, 5.0)
        for idx in np.nonzero(inner)[0][::256]:
            x = xs[idx]
            total = 0.0
            for a, b in ((0.25, 1.0), (-1.0, -0.25)):
                ts = np.linspace(a, b, 32001)
                w = np.full(ts.size, (b - a) / 32000)
                w[0] *= 0.5
                w[-1] *= 0.5
                total += np.sum(w * 2.0 * rho(2.0 * ts) * f(x - ts))
            assert res.values[idx] == pytest.approx(total, abs=1e-10)

    def test_self_convergence(self):
        f = gaussian(-0.3, 0.8)
        g = gaussian(0.4, 1.1)
        coarse = apply_Tj(f, g, P_SQ, 0, nodes_per_component=512).values
        fine = apply_Tj(f, g, P_SQ, 0, nodes_per_component=1024).values
        assert np.max(np.abs(coarse - fine)) < 1e-6

    def test_bilinearity(self):
        f1 = gaussian(0.0, 1.0)
        f2 = gaussian(0.5, 0.7)
        g = gaussian(-0.2, 0.9)
        a, b = 1.7, -0.4
        lhs = apply_Tj(a * f1 + b * f2, g, P_SQ, 0).values
        rhs = a * apply_Tj(f1, g, P_SQ, 0).values + b * apply_Tj(f2, g, P_SQ, 0).values
        scale = np.max(np.abs(rhs)) + 1e-30
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-9

    def test_translation_covariance(self):
        f = gaussian(0.0, 1.0)
        g = gaussian(0.3, 0.8)
        h = 64 * f.step
        shifted = apply_Tj(f.translate(h), g.translate(h), P_SQ, 0)
        base = apply_Tj(f, g, P_SQ, 0)
        np.testing.assert_allclose(shifted.values, base.values, atol=1e-9)

    def test_indicator_l1_bound(self):
        f = GridFunction.indicator(-0.5, 0.5, -8, 8, 2049)
        g = GridFunction.indicator(-0.25, 1.0, -8, 8, 2049)
        res = apply_Tj(f, g, P_SQ, 0)
        rho_l1 = 2.0 * abs(
            np.trapezoid(rho(np.linspace(0.5, 2.0, 20001)), dx=1.5 / 20000)
        )
        p = 2.0
        bound = rho_l1 * lp_norm(f, p) * lp_norm(g, p / (p - 1.0)) * (1 + 1e-3)
        assert lp_norm(res, 1.0) <= bound

    def test_linear_term_rejected(self):
        with pytest.raises(ValueError, match="linear"):
            apply_Tj(wide_ones(), wide_ones(), Polynomial.curve([1.0, 1.0]), 0)

    def test_fine_scale_warning(self):
        f = GridFunction(-1, 1, np.ones(65))
        assert below_resolution_floor(12, f.step)

    def test_partial_sums_cauchy(self):
        f = gaussian(0.0, 1.0)
        g = gaussian(0.1, 1.2)
        tails = []
        for J in (2, 4, 6):
            lo = apply_Tj(f, g, P_SQ, -J - 1).values
            hi = apply_Tj(f, g, P_SQ, J + 1).values
            tails.append(np.max(np.abs(lo + hi)))
        assert tails[2] < tails[1] < tails[0]


def bits(a):
    """The raw bytes of a float or complex array as int64s, so -0.0 != 0.0."""
    return np.ascontiguousarray(a).view(np.int64)


def complex_gaussian():
    return GridFunction.sample(lambda x: np.exp(1j * x - x**2), -8.0, 8.0, 2049)


class TestComplexInput:
    @pytest.mark.parametrize("j", [0, 1])
    def test_apply_Tj_is_linear_over_real_and_imaginary_parts(self, j):
        f, g = complex_gaussian(), gaussian(0.3, 0.9)
        T = apply_Tj(f, g, P_SQ, j).values
        re = apply_Tj(f.with_values(f.values.real), g, P_SQ, j).values
        im = apply_Tj(f.with_values(f.values.imag), g, P_SQ, j).values
        assert T.dtype == complex
        assert np.max(np.abs(T - (re + 1j * im))) <= 1e-13 * np.max(np.abs(T))


class TestApplyM:
    def test_constants_give_one(self):
        f = wide_ones()
        out = apply_M(f, f, P_SQ, [0.25, 0.5, 1.0])
        inner = interior_slice(f, 4.0)
        np.testing.assert_allclose(out.values[inner], 1.0, rtol=1e-12)

    def test_half_indicator_average(self):
        # sampled indicator edges carry ~step/(4 eps) quantization, so keep eps large
        f = GridFunction.indicator(0, 1, -8, 8, 4097)
        g = wide_ones(n=4097)
        out = apply_M(f, g, P_SQ, [0.4, 0.6, 0.8])
        idx = np.argmin(np.abs(f.x))
        assert out.values[idx] == pytest.approx(0.5, abs=5e-3)

    def test_monotone_in_grid_refinement(self):
        f = gaussian(0.0, 1.0, n=1025)
        g = gaussian(0.4, 0.8, n=1025)
        coarse = apply_M(f, g, P_SQ, [0.25, 1.0]).values
        fine = apply_M(f, g, P_SQ, [0.125, 0.25, 0.5, 1.0, 2.0]).values
        assert np.all(fine >= coarse - 1e-12)


def tiled_row_sum(prod, w, absval):
    """What _weighted_row_sum promises, in plain numpy over the one-shot
    product: the rows of each tile weighted and added in row order, then the
    tiles' partial rows added in tile order, one wave of _WAVE after another."""
    rows, n = prod.shape
    terms = (np.abs(prod) if absval else prod) * w[:, None]
    step = max(1, _CHUNK // (2 * n))
    partials = []
    for s in range(0, rows, step):
        acc = terms[s].copy()
        for r in range(s + 1, min(s + step, rows)):
            acc += terms[r]
        partials.append(acc)
    total = np.zeros(n, dtype=terms.dtype)
    for first in range(0, len(partials), _WAVE):
        for p in partials[first : first + _WAVE]:
            total += p
    return total


def column_fsums(terms):
    """The correctly rounded sum of each column of a real array."""
    return np.array([math.fsum(col) for col in terms.T.tolist()])


class TestShiftedProducts:
    """The tiled weighted row sum of the shifted products against the one-shot
    broadcast product: bit for bit in the promised order, and within the
    rounding bound of recursive summation of an exact sum."""

    @given(
        st.sampled_from([17, 2049, _CHUNK + 3]),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.booleans(),
    )
    def test_matches_one_shot_broadcast(self, n, seed, complex_g, absval):
        # n = 17 and 2049 fill many rows per tile, n = _CHUNK + 3 one row per
        # tile; up to 2 * _WAVE + 1 tiles, so the last wave can be partial
        rng = np.random.default_rng(seed)
        lo, hi = -3.0, 5.0
        f = GridFunction(lo, hi, rng.standard_normal(n))
        gv = rng.standard_normal(n)
        g = GridFunction(lo, hi, gv + 1j * rng.standard_normal(n) if complex_g else gv)
        x = f.x
        rows = int(rng.integers(1, (2 * _WAVE + 1) * max(1, _CHUNK // (2 * n)) + 1))
        # whole and half grid steps: shifts on grid points, halfway between
        # them, and past [lo, hi] once |k| h / 2 > hi - lo
        a = rng.integers(-4 * n, 4 * n, rows) * (f.step / 2)
        b = np.where(rng.random(rows) < 0.5, a[::-1], rng.uniform(-2 * (hi - lo), 2 * (hi - lo), rows))
        w = rng.standard_normal(rows)
        prod = f(x[None, :] - a[:, None]) * g(x[None, :] - b[:, None])
        want = tiled_row_sum(prod, w, absval)
        got = _weighted_row_sum(f, g, x, a, b, w, absval)
        assert got.dtype == want.dtype
        assert np.array_equal(bits(got), bits(want))

        terms = (np.abs(prod) if absval else prod) * w[:, None]
        bound = (rows + 1) * 2.0**-53 * np.abs(terms).sum(axis=0)
        assert np.all(np.abs(got.real - column_fsums(terms.real)) <= bound)
        if got.dtype == complex:
            assert np.all(np.abs(got.imag - column_fsums(terms.imag)) <= bound)

    def test_apply_Tj_at_8193_matches_one_shot_blocks(self):
        # 2^16 // (2 * 8193) = 4 rows per tile, so each component's 513 nodes
        # take 129 tiles in 9 waves; the sums must run in the same order
        f = gaussian(0.0, 1.0, n=8193)
        g = gaussian(0.3, 0.9, n=8193)
        x = f.x
        want = np.zeros(x.size)
        for a, b in _COMPONENTS:
            ts, w = _quad_nodes(a, b, max(33, int(math.ceil((b - a) * (512 / 1.5))) + 1))
            shifted = 0.5 * ts
            prod = f(x[None, :] - shifted[:, None]) * g(x[None, :] - P_SQ.eval(shifted)[:, None])
            assert _WAVE * max(1, _CHUNK // (2 * x.size)) < ts.size
            want += tiled_row_sum(prod, rho(ts) * w, False)
        got = apply_Tj(f, g, P_SQ, 1).values
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("phase", [1.0, np.exp(0.3j)])
    def test_apply_M_matches_one_shot(self, phase):
        f = gaussian(0.0, 1.0, n=1025)
        g = GridFunction(-8.0, 8.0, GridFunction.indicator(-1.0, 2.0, -8.0, 8.0, 1025).values * phase)
        x = f.x
        want = np.zeros(f.n)
        for eps in (0.25, 0.5, 1.0):
            ts, w = _quad_nodes(-eps, eps, 513)
            prod = f(x[None, :] - ts[:, None]) * g(x[None, :] - P_SQ.eval(ts)[:, None])
            want = np.maximum(want, tiled_row_sum(prod, w / (2 * eps), True))
        got = apply_M(f, g, P_SQ, [0.25, 0.5, 1.0]).values
        assert np.array_equal(bits(got), bits(want))


# apply_Tj at 8193 points and apply_M at 2049, their outputs' bytes to stdout
BLAS_PROBE = """
import sys
import numpy as np
from curvelab.operators import apply_M, apply_Tj
from curvelab.polynomials import Polynomial
from curvelab.signals import GridFunction

P = Polynomial.curve([0, 1.0])
def gaussian(center, width, n):
    return GridFunction.sample(lambda x: np.exp(-(((x - center) / width) ** 2)), -8.0, 8.0, n)
f, g = gaussian(0.0, 1.0, 8193), gaussian(0.3, 0.9, 8193)
out = [apply_Tj(f, g, P, j).values for j in (0, 1)]
ind = GridFunction.indicator(0.0, 1.0, -8.0, 8.0, 2049)
out.append(apply_M(ind, gaussian(0.3, 0.9, 2049), P, [0.25, 0.5, 1.0]).values)
sys.stdout.buffer.write(np.concatenate(out).tobytes())
"""


class TestFillThreads:
    """_weighted_row_sum fills and adds its tiles on _WORKERS threads, the
    caller included."""

    @staticmethod
    def outputs():
        out = []
        for n in (2049, 8193):
            f, g = gaussian(0.0, 1.0, n=n), gaussian(0.3, 0.9, n=n)
            out += [apply_Tj(f, g, P_SQ, j).values for j in (0, 1)]
        ind = GridFunction.indicator(0.0, 1.0, -8.0, 8.0, 2049)
        out.append(apply_M(ind, gaussian(0.3, 0.9), P_SQ, [0.25, 0.5, 1.0]).values)
        return out

    # 1 runs the fill in the calling thread alone; 3 uses helpers on any host
    @pytest.mark.parametrize("workers", [1, 3])
    def test_bits_do_not_depend_on_the_worker_count(self, monkeypatch, workers):
        with monkeypatch.context() as m:
            m.setattr(operators, "_WORKERS", workers)
            forced = self.outputs()
        for got, want in zip(self.outputs(), forced):
            assert np.array_equal(bits(got), bits(want))

    def test_bits_do_not_depend_on_blas_threads(self):
        src = os.path.dirname(os.path.dirname(operators.__file__))
        runs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env, capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr.decode()
            runs.append(np.frombuffer(proc.stdout, dtype=np.float64))
        assert runs[0].size == 2 * 8193 + 2049
        assert np.array_equal(runs[0].view(np.int64), runs[1].view(np.int64))

    def test_error_in_a_helper_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(operators, "_WORKERS", 2)
        helper_called = threading.Event()

        class FailsInHelper(GridFunction):
            def __call__(self, x):
                if threading.current_thread() is threading.main_thread():
                    assert helper_called.wait(10)  # the helper takes a tile first
                    return super().__call__(x)
                helper_called.set()
                raise RuntimeError("fill failed")

        f, g = gaussian(0.0, 1.0), gaussian(0.3, 0.9)
        with pytest.raises(RuntimeError, match="fill failed"):
            apply_Tj(FailsInHelper(f.lo, f.hi, f.values), g, P_SQ, 0)
        # the pool survives the failed call
        assert np.array_equal(bits(apply_Tj(f, g, P_SQ, 0).values), bits(self.outputs()[0]))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_makes_its_own_pool(self, monkeypatch):
        monkeypatch.setattr(operators, "_WORKERS", 2)
        f, g = gaussian(0.0, 1.0), gaussian(0.3, 0.9)
        want = apply_Tj(f, g, P_SQ, 0).values  # the pool's thread now exists
        pid = os.fork()
        if pid == 0:  # the child inherits no helper thread; a stale pool would hang
            signal.alarm(30)
            os._exit(0 if np.array_equal(bits(apply_Tj(f, g, P_SQ, 0).values), bits(want)) else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_cli_import_leaves_concurrent_futures_unloaded(self):
        code = "import sys, curvelab.cli; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert proc.stdout.strip() == "False", proc.stderr


class TestRestrictedAlpha:
    def test_ladder_reassembles_Tj(self):
        f = gaussian(0.0, 1.0, n=1025)
        g = gaussian(0.2, 0.9, n=1025)
        j = 0
        full = apply_Tj(f, g, P_SQ, j, nodes_per_component=8192).values
        alphas = [2.0**k for k in range(-12, 3)]  # bands tile (0, sup|2t|] = (0, 4]
        total = np.zeros_like(full)
        for alpha in alphas:
            total += restricted_Tj_alpha(f, g, P_SQ, j, alpha, nodes_per_component=8192).values
        # bands [alpha, 2 alpha] tile (0, G_sup]; leftover below 2^-12 has tiny measure
        assert np.max(np.abs(total - full)) < 1e-8 * max(1.0, np.max(np.abs(full)))

    def test_empty_above_sup(self):
        f = gaussian(0.0, 1.0, n=513)
        # an empty band sums nothing
        assert np.all(restricted_Tj_alpha(f, f, P_SQ, 0, 16.0).values == 0.0)

    def test_empty_below_min(self):
        # P = t^4 at j = 0: |dP/ds| = 4|s|^3 >= 0.5 on the annulus
        P4 = Polynomial([0, 0, 0, 0, 1.0])
        f = gaussian(0.0, 1.0, n=513)
        assert np.all(restricted_Tj_alpha(f, f, P4, 0, 0.01).values == 0.0)


class TestMultiplier:
    def test_band_zero_exact(self):
        val = multiplier_Mmn(P_SQ, 2, 0, 3, 3, 0.1, 12.0)
        assert val == 0.0

    def test_normalized_magnitude_bounded(self):
        vals = []
        for m in range(0, 17, 4):
            xi = -1.5 * 2.0**m
            eta = 1.0 * 2.0**m
            v = abs(multiplier_Mmn(P_SQ, 2, 0, m, m, xi, eta)) * 2.0 ** (m / 2)
            vals.append(v)
        assert max(vals) < 2.0
        assert min(vals[2:]) > 0.05

    def test_monomial_matches_stationary_phase(self):
        # |integral| ~ rho(t0) (2^m l (l-1) t0^{l-2} |c_eta|)^{-1/2} for pure t^l
        l, m = 2, 12
        c_xi, c_eta = -1.5, 1.0
        xi, eta = c_xi * 2.0**m, c_eta * 2.0**m
        t0 = -c_xi / (2 * c_eta)
        val = abs(multiplier_Mmn(P_SQ, l, 0, m, m, xi, eta))
        pred = rho(t0) * 2.0 ** (-m / 2) / math.sqrt(2.0 * abs(c_eta))
        band = phi_hat(c_xi) * phi_hat(c_eta)
        assert val == pytest.approx(band * pred, rel=0.05)
