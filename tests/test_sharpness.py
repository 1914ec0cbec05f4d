import math

import numpy as np
import pytest

from curvelab.operators import apply_Tj
from curvelab.polynomials import Polynomial
from curvelab.sharpness import (
    build_counterexample_endpoint,
    build_counterexample_rootorder,
    endpoint_polynomial,
    endpoint_scaling_experiment,
    predicted_endpoint_exponent,
    predicted_rootorder_exponent,
    rootorder_kernel_value,
    rootorder_scaling_experiment,
    t0_endpoint_value,
)
from curvelab.signals import GridFunction


class TestEndpointBuilder:
    def test_d2_polynomial_is_half_t_squared(self):
        P = endpoint_polynomial(2)
        assert P.coeffs == (0.0, 0.0, 0.5)

    def test_no_linear_term_all_d(self):
        for d in range(2, 7):
            P = endpoint_polynomial(d)
            assert P.coefficient(0) == 0.0
            assert P.coefficient(1) == 0.0
            assert P.degree == d

    def test_window_size_frozen(self):
        inst = build_counterexample_endpoint(2, 1e-3)
        # B delta^(1/2) with B = sqrt(2)/10
        assert inst.window[1] - inst.window[0] == pytest.approx(0.0044721359, abs=1e-9)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("delta", [1e-2, 1e-3])
    def test_pointwise_lower_bound(self, d, delta):
        inst = build_counterexample_endpoint(d, delta)
        w_lo, w_hi = inst.window
        for x in np.linspace(w_lo, w_hi, 100):
            assert t0_endpoint_value(inst, float(x)) >= delta / 8.0

    def test_rho_floor_recorded(self):
        inst = build_counterexample_endpoint(2, 1e-3)
        assert inst.meta["rho_min"] >= 0.4

    def test_product_is_one_on_certified_region(self):
        d, delta = 2, 1e-3
        inst = build_counterexample_endpoint(d, delta)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.uniform(*inst.window)
            t = rng.uniform(x - delta / 2, x - delta / 4)
            f_lo, f_hi = inst.meta["f_support"]
            g_lo, g_hi = inst.meta["g_support"]
            assert f_lo <= x - t <= f_hi
            assert g_lo <= x - inst.P.eval(t) <= g_hi

    def test_resolution_guard(self):
        with pytest.raises(ValueError, match="resolution too coarse"):
            build_counterexample_endpoint(2, 1e-3, grid_resolution=16)

    def test_indicator_evaluator_matches_generic_operator(self):
        # cross-check the window evaluator against the generic quadrature T_0;
        # sampled indicator edges smear over ~1 grid cell, hence the loose rel
        d, delta = 2, 2.0**-5
        inst = build_counterexample_endpoint(d, delta, grid_resolution=128)
        lo, hi = -0.2, 1.6
        n = 1 << 13
        fw = GridFunction.indicator(0, delta, lo, hi, n)
        gw = GridFunction.indicator(*inst.meta["g_support"], lo, hi, n)
        res = apply_Tj(fw, gw, inst.P, 0, nodes_per_component=1 << 13)
        xs = np.linspace(*inst.window, 7)
        for x in xs:
            generic = float(res.output(float(x)))
            exact = t0_endpoint_value(inst, float(x))
            assert generic == pytest.approx(exact, rel=0.05)


class TestEndpointScaling:
    DELTAS = [2.0**-k for k in range(6, 15)]

    def test_endpoint_r_half_flat(self):
        rep = endpoint_scaling_experiment(2, 0.5, 1.0, 1.0, self.DELTAS)
        assert rep.fitted["predicted_exponent"] == pytest.approx(0.0)
        assert abs(rep.fitted["slope"]) <= 0.05

    def test_subcritical_diverges(self):
        rep = endpoint_scaling_experiment(2, 0.4, 0.8, 0.8, self.DELTAS)
        assert rep.fitted["predicted_exponent"] == pytest.approx(-0.25)
        assert rep.fitted["slope"] == pytest.approx(-0.25, abs=0.05)
        assert rep.flags["diverges"]

    def test_supercritical_converges(self):
        rep = endpoint_scaling_experiment(2, 0.6, 1.2, 1.2, self.DELTAS)
        assert rep.fitted["slope"] == pytest.approx(predicted_endpoint_exponent(2, 0.6), abs=0.05)
        assert not rep.flags["diverges"]

    def test_d3_endpoint(self):
        rep = endpoint_scaling_experiment(3, 2.0 / 3.0, 4.0 / 3.0, 4.0 / 3.0, self.DELTAS)
        assert rep.fitted["predicted_exponent"] == pytest.approx(0.0)
        assert abs(rep.fitted["slope"]) <= 0.05

    def test_hoelder_validated(self):
        with pytest.raises(ValueError, match="Hoelder"):
            endpoint_scaling_experiment(2, 0.5, 2.0, 2.0, self.DELTAS)

    def test_sign_flip_at_threshold(self):
        slopes = {}
        for r in (0.45, 0.5, 0.6):
            rep = endpoint_scaling_experiment(2, r, 2 * r, 2 * r, self.DELTAS)
            slopes[r] = rep.fitted["slope"]
        assert slopes[0.45] < 0.0 < slopes[0.6]
        assert abs(slopes[0.5]) <= 0.05


class TestRootOrderBuilder:
    def test_rejects_linear_term(self):
        # P'(t) - 1 = 3(t-1)^2 integrated without killing the linear term
        P = Polynomial([0, 4.0, -3.0, 1.0])  # P' = 4 - 6t + 3t^2 = 1 + 3(t-1)^2
        with pytest.raises(ValueError, match="linear term"):
            build_counterexample_rootorder(P, 1.0, 2, 1e-4, 50.0)

    def test_cubic_simple_root_window(self):
        P = Polynomial.curve([0, 0, 1.0])
        t0 = 1.0 / math.sqrt(3.0)
        delta = 1e-4
        inst = build_counterexample_rootorder(P, t0, 1, delta, 20.0)
        half = delta**0.5 / 20.0
        assert inst.window[0] == pytest.approx(t0 - half, rel=1e-12)
        assert inst.window[1] == pytest.approx(t0 + half, rel=1e-12)

    def test_product_one_and_kernel_positive(self):
        P = Polynomial.curve([0, 0, 1.0])
        t0 = 1.0 / math.sqrt(3.0)
        inst = build_counterexample_rootorder(P, t0, 1, 1e-4, 20.0)
        x = 0.5 * sum(inst.window)
        assert rootorder_kernel_value(inst, x) > 0.0

    def test_wrong_order_rejected(self):
        P = Polynomial.curve([0, 0, 1.0])
        with pytest.raises(ValueError, match="order"):
            build_counterexample_rootorder(P, 1.0 / math.sqrt(3.0), 2, 1e-4, 20.0)

    def test_a_too_small(self):
        P = Polynomial.curve([0, 0, 1.0])
        with pytest.raises(ValueError, match="A too small"):
            build_counterexample_rootorder(P, 1.0 / math.sqrt(3.0), 1, 1e-4, 1.5)


class TestRootOrderScaling:
    def test_simple_root_slope(self):
        P = Polynomial.curve([0, 0, 1.0])
        t0 = 1.0 / math.sqrt(3.0)
        deltas = [2.0**-k for k in range(8, 17)]
        rep = rootorder_scaling_experiment(P, t0, 1, 1.0, 2.0, 2.0, deltas)
        assert rep.fitted["slope"] == pytest.approx(predicted_rootorder_exponent(1, 1.0), abs=0.05)
        assert rep.passed

    def test_r_below_one(self):
        P = Polynomial.curve([0, 0, 1.0])
        t0 = 1.0 / math.sqrt(3.0)
        deltas = [2.0**-k for k in range(8, 17)]
        rep = rootorder_scaling_experiment(P, t0, 1, 2.0 / 3.0, 4.0 / 3.0, 4.0 / 3.0, deltas)
        assert rep.fitted["slope"] == pytest.approx(0.25, abs=0.05)
