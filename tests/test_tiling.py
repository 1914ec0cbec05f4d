import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvelab.polynomials import Polynomial
from curvelab.scales import classify_scales
from curvelab.signals import GridFunction, littlewood_paley_piece, lp_norm, maximal_p, multiplier_piece, phi_hat
from curvelab.tiling import (
    DyadicInterval,
    Tree,
    _candidate_tops,
    _tail_weight,
    build_tiles,
    forest_to_json,
    greedy_tree_selection,
    set_size,
    tree_size,
    tree_top,
    whitney_decompose,
    whitney_pair_properties,
    whitney_properties,
)

dyadic = st.builds(
    DyadicInterval,
    st.integers(min_value=-6, max_value=12),
    st.integers(min_value=0, max_value=4000),
)


class TestDyadicInterval:
    @given(dyadic, dyadic)
    def test_nested_or_disjoint(self, a, b):
        lo = max(a.lo, b.lo)
        hi = min(a.hi, b.hi)
        overlap_interior = hi - lo > 1e-15 * max(1.0, abs(hi))
        if overlap_interior:
            assert a.contains(b) or b.contains(a)
        if a.disjoint(b):
            assert hi - lo <= 1e-12 * max(1.0, abs(hi))

    @given(dyadic)
    def test_parent_contains(self, a):
        assert a.parent().contains(a)
        c0, c1 = a.children()
        assert a.contains(c0) and a.contains(c1)
        assert c0.disjoint(c1)


class TestWhitney:
    def test_unit_interval(self):
        cells = whitney_decompose([(0.0, 1.0)])
        rep = whitney_properties(cells, [(0.0, 1.0)])
        assert rep["disjoint"] == 0
        assert rep["sandwich"] == 0
        assert rep["coverage_ok"]

    def test_empty(self):
        assert whitney_decompose([]) == []

    def test_gap_not_straddled(self):
        omega = [(0.0, 1.0), (2.0, 3.0)]
        cells = whitney_decompose(omega)
        for c in cells:
            assert c.hi <= 1.0 or c.lo >= 2.0

    def test_random_suite(self):
        rng = np.random.default_rng(3)
        for _ in range(150):
            k = rng.integers(1, 9)
            pts = np.sort(rng.uniform(-10, 10, 2 * k))
            omega = [(pts[2 * i], pts[2 * i + 1]) for i in range(k)]
            omega = [(a, b) for a, b in omega if b - a > 1e-4]
            if not omega:
                continue
            cells = whitney_decompose(omega)
            rep = whitney_properties(cells, omega)
            assert rep["disjoint"] == 0
            assert rep["sandwich"] == 0
            assert rep["coverage_ok"]

    def test_pair_properties(self):
        rng = np.random.default_rng(9)
        for seed in range(20):
            k = rng.integers(1, 6)
            pts = np.sort(rng.uniform(-8, 8, 2 * k))
            omega = [(pts[2 * i], pts[2 * i + 1]) for i in range(k)]
            omega = [(a, b) for a, b in omega if b - a > 1e-3]
            if not omega:
                continue
            cells = whitney_decompose(omega)
            assert whitney_pair_properties(cells, omega, n_pairs=200, seed=seed)["ok"]


TILE_POLY = Polynomial.curve([0, 1.0, 2.0**-40])


def tile_partition(j_hi=4):
    return classify_scales(TILE_POLY, 2, (-5, j_hi))


class TestBuildTiles:
    def test_single_scale_count(self):
        part = tile_partition(2)
        tiles = build_tiles(part, 2, 0, (0.0, 0.25))
        # one scale j = 2 (length 1/4): one or two tiles cover a length-1/4 window
        assert {t.j for t in tiles} == {2}
        assert 1 <= len(tiles) <= 2

    def test_count_doubles_per_scale(self):
        part = tile_partition(3)
        tiles = build_tiles(part, 2, 0, (0.0, 1.0))
        per_scale = {}
        for t in tiles:
            per_scale.setdefault(t.j, 0)
            per_scale[t.j] += 1
        assert per_scale[3] == 2 * per_scale[2]

    def test_nesting(self):
        part = tile_partition(3)
        tiles = build_tiles(part, 2, 0, (0.0, 1.0))
        fine = [t for t in tiles if t.j == 3]
        coarse = [t for t in tiles if t.j == 2]
        for tf in fine:
            parents = [tc for tc in coarse if tc.interval.contains(tf.interval)]
            assert len(parents) == 1

    def test_tree_top_minimal(self):
        part = tile_partition(3)
        tiles = build_tiles(part, 2, 0, (0.0, 1.0))
        sub = [t for t in tiles if t.interval.hi <= 0.5 + 1e-12]
        top = tree_top(sub)
        assert top.lo <= min(t.interval.lo for t in sub)
        assert top.hi >= max(t.interval.hi for t in sub)
        child_l, child_r = top.children()
        for child in (child_l, child_r):
            assert not all(child.contains(t.interval) for t in sub)


def make_data(rng, n=4096, lo=-0.5, hi=1.5):
    xs = np.linspace(lo, hi, n)
    vals = np.zeros(n)
    for _ in range(rng.integers(1, 4)):
        a, b = np.sort(rng.uniform(0, 1, 2))
        vals += (xs >= a) & (xs <= b)
    return GridFunction(lo, hi, np.clip(vals, 0, 1))


def brute_force_set_size(tiles, which, data, p, l=2, m=0):
    if not tiles:
        return 0.0
    best = 0.0
    for cand in _candidate_tops(tiles):
        sub = [t for t in tiles if cand.contains(t.interval)]
        if sub:
            tr = Tree(tiles=tuple(sub), top=tree_top(sub))
            best = max(best, tree_size(tr, which, data, p, l, m))
    return best


class TestTreeSize:
    def test_zero_data(self):
        part = tile_partition(3)
        tiles = build_tiles(part, 2, 0, (0.0, 1.0))[:3]
        tr = Tree(tiles=tuple(tiles), top=tree_top(tiles))
        zero = GridFunction(-0.5, 1.5, np.zeros(4096))
        assert tree_size(tr, 1, zero, 2.0, 2, 0) == 0.0

    def test_homogeneity(self):
        rng = np.random.default_rng(2)
        part = tile_partition(3)
        tiles = build_tiles(part, 2, 0, (0.0, 1.0))[:5]
        tr = Tree(tiles=tuple(tiles), top=tree_top(tiles))
        data = make_data(rng)
        s1 = tree_size(tr, 2, data, 2.0, 2, 0)
        s3 = tree_size(tr, 2, 3.0 * data, 2.0, 2, 0)
        assert s3 == pytest.approx(3.0 * s1, rel=1e-12)

    def test_monotone_same_top(self):
        rng = np.random.default_rng(4)
        part = tile_partition(3)
        tiles = build_tiles(part, 2, 0, (0.0, 1.0))
        data = make_data(rng)
        big = [t for t in tiles if t.interval.hi <= 0.5 + 1e-12]
        top = tree_top(big)
        small = big[:-2]
        s_small = tree_size(Tree(tiles=tuple(small), top=top), 1, data, 2.0, 2, 0)
        s_big = tree_size(Tree(tiles=tuple(big), top=top), 1, data, 2.0, 2, 0)
        assert s_small <= s_big * (1 + 1e-12)

    def test_two_size_below_maximal_function(self):
        rng = np.random.default_rng(6)
        part = tile_partition(3)
        tiles = build_tiles(part, 2, 0, (0.0, 1.0))
        worst = 0.0
        for _ in range(10):
            data = make_data(rng)
            sub = list(rng.choice(len(tiles), size=6, replace=False))
            tr_tiles = [tiles[i] for i in sub]
            tr = Tree(tiles=tuple(tr_tiles), top=tree_top(tr_tiles))
            size2 = tree_size(tr, 2, data, 2.0, 2, 0)
            Mp = maximal_p(data, 2.0)
            mask = (Mp.x >= tr.top.lo) & (Mp.x <= tr.top.hi)
            inf_mp = float(np.min(Mp.values[mask]))
            if inf_mp > 0:
                worst = max(worst, size2 / inf_mp)
        assert worst <= 1.0  # empirical comparison constant, recorded

    def test_set_size_matches_brute_force(self):
        # one shared context must not change a bit of any candidate's size;
        # seed 14 includes a set whose size summed in reverse tile order differs
        rng = np.random.default_rng(14)
        tiles = build_tiles(tile_partition(4), 2, 0, (0.0, 1.0))
        for trial in range(12):
            which = 1 + (trial % 2)
            S = [tiles[i] for i in rng.choice(len(tiles), size=int(rng.integers(1, len(tiles) + 1)), replace=False)]
            data = make_data(rng)
            assert set_size(S, which, data, 2.0, 2, 0) == brute_force_set_size(S, which, data, 2.0)
        assert set_size([], 1, data, 2.0, 2, 0) == 0.0

    @pytest.mark.parametrize("which", [1, 2])
    def test_matches_size_formula(self, which):
        # the paper's size built from the library's one-piece primitives:
        # pieces Phi_k f (and, for which=1, the derivative-weighted piece) at
        # k = j_l + j + m (which=1) or j_l + l j + m (which=2), each tile's
        # piece weighted by its 1** tail, squared and summed over the tree
        rng = np.random.default_rng(20 + which)
        p, l, m = 2.5, 2, 1
        tiles = build_tiles(tile_partition(3), l, m, (0.0, 1.0))
        sub = [tiles[i] for i in sorted(rng.choice(len(tiles), size=7, replace=False))]
        top = tree_top(sub)
        data = make_data(rng)
        squares = None
        for t in sub:
            j_l = t.interval.k - t.j
            k = j_l + t.j + m if which == 1 else j_l + l * t.j + m
            pieces = [littlewood_paley_piece(data, k).values]
            if which == 1:
                pieces.append(multiplier_piece(data, lambda xi: 2j * math.pi * (xi / 2.0**k) * phi_hat(xi / 2.0**k)).values)
            w = _tail_weight(t.interval, k, data.x)
            rows = np.array([np.abs(w * piece) ** 2 for piece in pieces])
            squares = rows if squares is None else squares + rows
        norms = [lp_norm(data.with_values(np.sqrt(row)), p) for row in squares]
        expected = sum(norms) * top.length ** (-1.0 / p)
        got = tree_size(Tree(tiles=tuple(sub), top=top), which, data, p, l, m)
        assert expected > 0
        assert got == pytest.approx(expected, rel=1e-12)

    def test_empty_tree_rejected(self):
        with pytest.raises(ValueError):
            tree_size(Tree(tiles=(), top=DyadicInterval(0, 0)), 1, make_data(np.random.default_rng(0)), 2.0, 2, 0)


class TestGreedySelection:
    def test_single_tile_above_threshold(self):
        rng = np.random.default_rng(1)
        part = tile_partition(3)
        tiles = [build_tiles(part, 2, 0, (0.0, 1.0))[4]]
        data = make_data(rng)
        forest, residual = greedy_tree_selection(tiles, 2, data, 2.0, 2, 0)
        size = brute_force_set_size(tiles, 2, data, 2.0)
        if size > 0:
            assert len(forest) == 1
            assert residual == []

    def test_zero_data(self):
        part = tile_partition(3)
        tiles = build_tiles(part, 2, 0, (0.0, 1.0))
        zero = GridFunction(-0.5, 1.5, np.zeros(4096))
        forest, residual = greedy_tree_selection(tiles, 1, zero, 2.0, 2, 0)
        assert forest == []
        assert len(residual) == len(tiles)

    def test_randomized_postconditions(self):
        rng = np.random.default_rng(12)
        part = tile_partition(4)
        all_tiles = build_tiles(part, 2, 0, (0.0, 1.0))
        worst_tops_constant = 0.0
        for trial in range(12):
            which = 1 + (trial % 2)
            p = 2.0
            k = int(rng.integers(6, len(all_tiles)))
            idx = rng.choice(len(all_tiles), size=k, replace=False)
            S = [all_tiles[i] for i in idx]
            data = make_data(rng)
            forest, residual = greedy_tree_selection(S, which, data, p, 2, 0)
            size_S = brute_force_set_size(S, which, data, p)
            thr = 0.5 ** (1 / p) * size_S
            assert brute_force_set_size(residual, which, data, p) <= thr * (1 + 1e-9)
            tops = [t.top for t in forest]
            for i in range(len(tops)):
                for j in range(i + 1, len(tops)):
                    assert tops[i].disjoint(tops[j])
            if forest:
                Mp = maximal_p(data, p)
                for t in forest:
                    mask = (Mp.x >= t.top.lo - 1e-12) & (Mp.x <= t.top.hi + 1e-12)
                    assert float(np.min(Mp.values[mask])) >= thr
                # weak-type shape: sum |I_T| <= C |{data > 0}| / threshold^p,
                # with the empirical C recorded per run
                support = float(np.sum(data.values > 0)) * data.step
                if thr > 0 and support > 0:
                    c_emp = sum(t.top.length for t in forest) * thr**p / support
                    worst_tops_constant = max(worst_tops_constant, c_emp)
        assert worst_tops_constant <= 100.0

    def test_forest_json_schema(self):
        rng = np.random.default_rng(3)
        part = tile_partition(3)
        tiles = build_tiles(part, 2, 0, (0.0, 1.0))
        forest, residual = greedy_tree_selection(tiles, 2, make_data(rng), 2.0, 2, 0)
        doc = forest_to_json(forest, residual)
        assert set(doc) == {"trees", "residual"}
        for tr in doc["trees"]:
            assert set(tr) == {"top", "tiles"}
            assert set(tr["top"]) == {"k", "n"}
            for tile in tr["tiles"]:
                assert set(tile) == {"j", "n"}
