"""The two workloads: each turns a workload seed into a fixed list of CLI cases.

A case is one `curvelab` invocation: its argument list (without --out) plus
the facts its output check needs.  Inputs come only from the workload seed,
through numpy's PCG64 generator, so a seed always yields the same cases.
Draws are stratified where the cost of a case depends on them, which keeps the
cost of a whole round nearly the same from seed to seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

TILES_CASES = 10
STATIONARY_PAIRS = 100
STATIONARY_M = [10, 12, 14]


@dataclass(frozen=True)
class Case:
    sub: str
    args: tuple
    meta: dict = field(default_factory=dict, compare=False)

    def argv(self, out_dir):
        return [self.sub, *self.args, "--out", out_dir]


def _sets(**fields):
    out = []
    for key, value in fields.items():
        out += ["--set", f"{key}={json.dumps(value)}"]
    return tuple(out)


def whitney_open_set(seed, max_components):
    """The open set `curvelab whitney` draws for its case seed S."""
    local = np.random.default_rng(seed)
    k = int(local.integers(1, max_components + 1))
    pts = np.sort(local.uniform(-10, 10, 2 * k))
    omega = [(float(pts[2 * i]), float(pts[2 * i + 1])) for i in range(k) if pts[2 * i + 1] - pts[2 * i] > 1e-4]
    return k, omega


def phase_ladder(rng):
    """`stationary` for one (xi, eta) pair per case, m = 10, 12, 14.

    t0 = -xi / (2 eta) is stratified over [0.8, 1.5] and |eta| over
    [0.075, 0.09]; the sign of eta is random.  Every fourth case also gets
    the costly reference quadrature check.
    """
    n = STATIONARY_PAIRS
    t0 = 0.8 + 0.7 * (rng.permutation(n) + rng.uniform(0, 1, n)) / n
    mag = 0.075 + 0.015 * (rng.permutation(n) + rng.uniform(0, 1, n)) / n
    eta = mag * rng.choice([-1.0, 1.0], n)
    xi = -2.0 * eta * t0
    return [
        Case(
            "stationary",
            _sets(pairs=[[float(x), float(e)]], m_list=STATIONARY_M),
            {"xi": float(x), "eta": float(e), "t0": float(t), "rel_tol": 0.02, "quadrature": i % 4 == 0},
        )
        for i, (x, e, t) in enumerate(zip(xi, eta, t0))
    ]


def _gaussian(rng, c_lo, c_hi):
    return {"kind": "gaussian", "center": float(rng.uniform(c_lo, c_hi)), "width": float(rng.uniform(0.7, 1.2))}


def kernel_mix(rng):
    """A fixed mix of the remaining subcommands; parameters drawn per seed."""
    cases = []
    # apply-T: j ladder at 2049 points, two scales at 8193
    for n, js in ((2049, [-1, 0, 1, 2]), (8193, [0, 1])):
        for _ in range(6 if n == 2049 else 3):
            coeffs = [0.0, 0.0, float(rng.uniform(0.7, 1.3)), float(rng.uniform(-0.3, 0.3))]
            f, g = _gaussian(rng, -0.5, 0.5), _gaussian(rng, -0.5, 0.5)
            for j in js:
                cfg = {"coeffs": coeffs, "j": j, "grid": [-8.0, 8.0, n], "f": f, "g": g, "nodes": 512}
                cases.append(Case("apply-T", _sets(**cfg), cfg))
    for _ in range(8):
        a = float(rng.uniform(-1.5, -0.5))
        cfg = {
            "coeffs": [0.0, 0.0, float(rng.uniform(0.7, 1.3))],
            "grid": [-8.0, 8.0, 2049],
            "f": {"kind": "indicator", "a": a, "b": a + float(rng.uniform(2.6, 3.4))},
            "g": _gaussian(rng, -0.5, 0.5),
            "epsilons": [2.0**-k for k in range(5, -1, -1)],
        }
        cases.append(Case("apply-M", _sets(**cfg), cfg))
    for _ in range(6):
        cfg = {"orders": [1, 2, 3], "count": 1}
        cases.append(Case("levelset", ("--seed", str(int(rng.integers(0, 2**31 - 1)))) + _sets(**cfg), cfg))
    for _ in range(8):
        cfg = {"coeffs": [0.0, 0.0, 0.0, float(rng.uniform(0.5, 2.0))], "k0": 1, "r": 1.0, "p1": 2.0, "p2": 2.0}
        cases.append(Case("rootorder", _sets(**cfg), cfg))
    for _ in range(2):
        cfg = {"d": 2, "r": 0.5, "p1": 1.0, "p2": 1.0}
        cases.append(Case("sharpness", _sets(**cfg), cfg))
    for _ in range(14):
        alphas = sorted((2.0 ** -rng.uniform(1.5, 16.0, 12)).tolist(), reverse=True)
        cfg = {"alphas": alphas}
        cases.append(Case("vdc", _sets(**cfg), cfg))
    for _ in range(16):
        degree = int(rng.integers(3, 5))
        coeffs = [0.0, 0.0] + [float(rng.choice([-1, 1]) * 2.0 ** rng.uniform(-20, 20)) for _ in range(degree - 1)]
        cfg = {"coeffs": coeffs, "N": int(rng.integers(4, 11)), "j_range": [-170, 170]}
        cases.append(Case("classify", _sets(**cfg), cfg))
    for _ in range(6):
        seed = int(rng.integers(0, 2**31 - 1))
        cfg = {"count": 2, "n_max": 4}
        cases.append(Case("inverse", ("--seed", str(seed)) + _sets(**cfg), {**cfg, "seed": seed}))
    for _ in range(6):
        cfg = {"count": 2, "K": 6, "N": 30}
        cases.append(Case("pairs", ("--seed", str(int(rng.integers(0, 2**31 - 1)))) + _sets(**cfg), cfg))
    for _ in range(4):
        cfg = {
            "coeffs": [0.0, 0.0, 1.0], "l": 2, "j": 0, "m_list": [0, 4, 8, 10],
            "xi_band": float(rng.uniform(-1.6, -1.4)), "eta_band": float(rng.uniform(0.9, 1.1)),
        }
        cases.append(Case("multiplier", _sets(**cfg), cfg))
    # tiles: two randomized tile sets per case, which = 1 then 2
    for _ in range(TILES_CASES):
        seed = int(rng.integers(0, 2**31 - 1))
        cases.append(Case("tiles", ("--seed", str(seed)) + _sets(runs=2, x_range=[0.0, 0.5]), {}))
    for _ in range(8):
        seed = int(rng.integers(0, 2**31 - 11))
        cfg = {"count": 10, "max_components": 8}
        cases.append(Case("whitney", ("--seed", str(seed)) + _sets(**cfg), {**cfg, "seed": seed}))
    order = rng.permutation(len(cases))
    return [cases[i] for i in order]


WORKLOADS = {
    "phase-ladder": phase_ladder,
    "kernel-mix": kernel_mix,
}


def make_cases(workload, seed):
    return WORKLOADS[workload](np.random.default_rng(seed))
