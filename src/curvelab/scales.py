"""Dyadic scale classification: at scale j the monomial a_l t^l dominates the
rest of the curve polynomial by the factor 2^(N+2d), or no term does and j is
"good". The good set is finite with a closed-form cardinality bound.

All comparisons run in log2 coordinates with a small guard band; ties inside
the band are classified good, which is the conservative direction for the
cardinality bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .polynomials import Polynomial

__all__ = [
    "ScalePartition",
    "classify_scales",
    "verify_cardinality_bound",
    "shifted_scale_set",
    "cardinality_bound",
    "partition_to_json",
]

GUARD_BAND = 1e-9
GOOD = "good"


@dataclass(frozen=True)
class ScalePartition:
    """Classification of integer scales j into dominated classes and the good set.

    classes[j] is either the string "good" or the dominating index l.
    domination_runs[l] is the clamp-free integer interval (j_lo, j_hi) on
    which the l-th term wins; intersecting it with |j| >= N gives the class.
    The |j| < N hole can split that interval in two at desk-scale N, which is
    why run bookkeeping is kept alongside the plain classes.
    """

    N: int
    j_min: int
    j_max: int
    classes: dict
    j_l_shifts: dict
    degree: int
    coeffs: tuple
    has_linear_term: bool
    domination_runs: dict = field(default_factory=dict)

    def good_scales(self) -> list:
        return [j for j in range(self.j_min, self.j_max + 1) if self.classes[j] == GOOD]

    def dominated_scales(self, l: int) -> list:
        return [j for j in range(self.j_min, self.j_max + 1) if self.classes[j] == l]

    def count_good(self) -> int:
        return len(self.good_scales())


def _active_indices(P: Polynomial) -> list:
    return [k for k in range(1, P.degree + 1) if P.coeffs[k] != 0.0]


def classify_scales(P: Polynomial, N: int, j_range) -> ScalePartition:
    """Assign every j in j_range to a dominated class or to the good set.

    j is dominated by l iff |j| >= N and
    log2|a_l| - j*l > N + 2d + log2|a_k| - j*k + guard for every other
    active k.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if len(j_range) != 2:
        raise ValueError(f"j_range must be [j_min, j_max], got {list(j_range)!r}")
    j_min, j_max = int(j_range[0]), int(j_range[1])
    if j_min > j_max:
        raise ValueError("empty scale range")
    active = _active_indices(P)
    if not active:
        raise ValueError("polynomial has no active terms")
    d = P.degree
    has_linear = P.coefficient(1) != 0.0
    margin = N + 2 * d

    js = np.arange(j_min, j_max + 1)
    logs = {k: math.log2(abs(P.coeffs[k])) for k in active}
    # log-size of the k-th term at scale j (up to the common 2^{-j} factor)
    size = {k: logs[k] - js * k for k in active}

    classes = {}
    domination_runs = {}
    dominated_by = np.full(js.shape, 0, dtype=int)  # 0 = nobody
    for l in active:
        wins = np.ones(js.shape, dtype=bool)
        for k in active:
            if k == l:
                continue
            wins &= size[l] > size[k] + margin + GUARD_BAND
        if wins.any():
            idx = np.nonzero(wins)[0]
            domination_runs[l] = (int(js[idx[0]]), int(js[idx[-1]]))
            dominated_by[wins] = l

    clamp = np.abs(js) >= N
    for pos, j in enumerate(js):
        l = dominated_by[pos]
        classes[int(j)] = int(l) if (l and clamp[pos]) else GOOD

    shifts = {l: logs[l] / (l - 1) for l in active if l >= 2}
    return ScalePartition(
        N=N,
        j_min=j_min,
        j_max=j_max,
        classes=classes,
        j_l_shifts=shifts,
        degree=d,
        coeffs=P.coeffs,
        has_linear_term=has_linear,
        domination_runs=domination_runs,
    )


def cardinality_bound(N: int, d: int) -> int:
    return (2 * (N + 2 * d) + 1) * d * (d - 1) + (2 * N - 1)


def verify_cardinality_bound(partition: ScalePartition):
    """Count the good scales against the closed-form bound at the
    partition's degree.

    Requires the range to be wide enough that both tails are dominated
    (the 10 outermost j on each side), otherwise the count is meaningless.
    """
    tail = 10
    js = range(partition.j_min, partition.j_max + 1)
    if len(list(js)) < 2 * tail:
        raise ValueError("range too narrow")
    low_tail = [partition.classes[partition.j_min + i] for i in range(tail)]
    high_tail = [partition.classes[partition.j_max - i] for i in range(tail)]
    if GOOD in low_tail or GOOD in high_tail:
        raise ValueError("range too narrow")
    count = partition.count_good()
    bound = cardinality_bound(partition.N, partition.degree)
    return count, bound, count <= bound


def _contiguous_runs(js: list) -> list:
    runs = []
    for j in js:
        if runs and j == runs[-1][1] + 1:
            runs[-1][1] = j
        else:
            runs.append([j, j])
    return [(a, b) for a, b in runs]


def _dyadic_cover(a: float, b: float) -> list:
    """Cover [a, b] in (0, inf) with at most 3 dyadic intervals of comparable length."""
    if not b > a:
        return []
    k = math.ceil(-math.log2(b - a))
    out = []
    n = math.floor(a * 2.0**k)
    while n * 2.0**-k < b:
        out.append((n * 2.0**-k, (n + 1) * 2.0**-k))
        n += 1
    return out


def shifted_scale_set(partition: ScalePartition, l: int):
    """Shift J_l by j_l = log2|a_l|/(l-1) so the shift acts as an integer.

    Returns (J_star, E_intervals): J_star holds the integer scales j with
    inf J_l <= j + j_l <= sup J_l, run by run; E_intervals covers, by finitely
    many dyadic intervals, the part of the original |t|-support annulus union
    the shifted union misses. Empty whenever j_l is an integer.
    """
    if l not in partition.j_l_shifts:
        raise ValueError(f"no shift defined for l={l}")
    J_l = partition.dominated_scales(l)
    if not J_l:
        raise ValueError(f"J_{l} is empty")
    j_l = partition.j_l_shifts[l]
    j_star: list = []
    e_intervals: list = []
    for lo_run, hi_run in _contiguous_runs(J_l):
        star_lo = math.ceil(lo_run - j_l - 1e-12)
        star_hi = math.floor(hi_run - j_l + 1e-12)
        run_star = list(range(star_lo, star_hi + 1))
        j_star.extend(run_star)
        # original |t|-annulus union for this run: [2^{-hi-1}, 2^{-lo+1}]
        a0, b0 = 2.0 ** (-hi_run - 1), 2.0 ** (-lo_run + 1)
        if run_star:
            a1 = 2.0 ** (-(run_star[-1] + j_l) - 1)
            b1 = 2.0 ** (-(run_star[0] + j_l) + 1)
            e_intervals.extend(_dyadic_cover(a0, min(a1, b0)))
            e_intervals.extend(_dyadic_cover(max(b1, a0), b0))
        else:
            e_intervals.extend(_dyadic_cover(a0, b0))
    return j_star, e_intervals


def partition_to_json(partition: ScalePartition) -> dict:
    return {
        "N": partition.N,
        "classes": [
            {
                "j": j,
                "class": GOOD if partition.classes[j] == GOOD else f"l={partition.classes[j]}",
            }
            for j in range(partition.j_min, partition.j_max + 1)
        ],
    }
