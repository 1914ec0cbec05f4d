"""Whitney decomposition with geometric property checks, dyadic tiles and
trees with their sizes, and greedy size-halving tree selection.

Dyadic bookkeeping runs on integer (scale, index) pairs so nesting and
disjointness are exact; only measures and distances become floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .scales import ScalePartition, shifted_scale_set
from .signals import GridFunction, _trapezoid_weights, multiplier_piece, phi_hat

__all__ = [
    "DyadicInterval",
    "Tile",
    "Tree",
    "random_open_set",
    "whitney_decompose",
    "whitney_properties",
    "whitney_pair_properties",
    "build_tiles",
    "tree_top",
    "tree_size",
    "set_size",
    "greedy_tree_selection",
    "forest_to_json",
]

TAIL_K = 10  # decay order in the 1** tail majorant


@dataclass(frozen=True, order=True)
class DyadicInterval:
    """[n 2^-k, (n+1) 2^-k]; two dyadic intervals are nested or disjoint."""

    k: int
    n: int

    @property
    def lo(self) -> float:
        return self.n * 2.0**-self.k

    @property
    def hi(self) -> float:
        return (self.n + 1) * 2.0**-self.k

    @property
    def length(self) -> float:
        return 2.0**-self.k

    def parent(self) -> "DyadicInterval":
        return DyadicInterval(self.k - 1, self.n >> 1)

    def children(self) -> tuple:
        return (DyadicInterval(self.k + 1, 2 * self.n), DyadicInterval(self.k + 1, 2 * self.n + 1))

    def contains(self, other: "DyadicInterval") -> bool:
        if other.k < self.k:
            return False
        shift = other.k - self.k
        return (other.n >> shift) == self.n

    def disjoint(self, other: "DyadicInterval") -> bool:
        return not (self.contains(other) or other.contains(self))


@dataclass(frozen=True)
class Tile:
    """Scale-position pair (j, n) with its spatial interval at scale j_l + j."""

    j: int
    n: int
    interval: DyadicInterval


@dataclass(frozen=True)
class Tree:
    tiles: tuple
    top: DyadicInterval

    def __post_init__(self):
        for t in self.tiles:
            if not self.top.contains(t.interval):
                raise ValueError("tile interval escapes the tree top")


# -- Whitney decomposition -----------------------------------------------------


def _merge_intervals(intervals) -> list:
    ordered = sorted((float(a), float(b)) for a, b in intervals if b > a)
    out: list = []
    for a, b in ordered:
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return [(a, b) for a, b in out]


def _dist_to_boundary(lo: float, hi: float, comp) -> float:
    c, d = comp
    return min(lo - c, d - hi)


def random_open_set(seed: int, max_components: int) -> list:
    """Up to max_components disjoint intervals in (-10, 10), drawn from
    np.random.default_rng(seed): 2k sorted uniform endpoints for k uniform in
    1..max_components, keeping the intervals longer than 1e-4.  May be empty."""
    if max_components < 1:
        raise ValueError(f"max_components must be at least 1, got {max_components}")
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, max_components + 1))
    pts = np.sort(rng.uniform(-10, 10, 2 * k))
    return [(pts[2 * i], pts[2 * i + 1]) for i in range(k) if pts[2 * i + 1] - pts[2 * i] > 1e-4]


def whitney_decompose(omega) -> list:
    """Disjoint dyadic intervals covering the open set with
    |J| <= dist(J, boundary) <= 3 |J|.

    Maximal dyadic cells strictly inside a component with dist >= |J| are
    emitted; ambiguous cells below the defect floor are dropped, which keeps
    the coverage defect under 2^-35 |Omega|.
    """
    comps = _merge_intervals(omega)
    if not comps:
        return []
    total = sum(b - a for a, b in comps)
    if not math.isfinite(total) or total <= 0:
        raise ValueError("Omega must be a bounded open set of positive measure")
    diam = comps[-1][1] - comps[0][0]
    floor_len = total * 2.0**-35 / 4.0
    k0 = math.floor(-math.log2(diam))  # cells at least as long as the hull
    out = []
    n_lo = math.floor(comps[0][0] * 2.0**k0)
    n_hi = math.floor(comps[-1][1] * 2.0**k0)
    stack = [DyadicInterval(k0, n) for n in range(n_lo, n_hi + 1)]
    while stack:
        cell = stack.pop()
        lo, hi, ln = cell.lo, cell.hi, cell.length
        # find a component overlapping the cell
        inside = None
        overlaps = False
        for c, d in comps:
            if hi <= c or lo >= d:
                continue
            overlaps = True
            if c < lo and hi < d:
                inside = (c, d)
            break
        if not overlaps:
            continue
        if inside is not None and _dist_to_boundary(lo, hi, inside) >= ln:
            out.append(cell)
            continue
        if ln < floor_len:
            continue
        stack.extend(cell.children())
    return sorted(out, key=lambda c: (c.lo, c.k))


def whitney_properties(cells: Sequence[DyadicInterval], omega) -> dict:
    """Disjointness, coverage defect, and the distance sandwich, checked exactly."""
    comps = _merge_intervals(omega)
    total = sum(b - a for a, b in comps)
    violations = {"disjoint": 0, "sandwich": 0}
    ordered = sorted(cells, key=lambda c: c.lo)
    for a, b in zip(ordered, ordered[1:]):
        if not a.disjoint(b):
            violations["disjoint"] += 1
    covered = 0.0
    for cell in cells:
        covered += cell.length
        # dist(J, boundary) for J inside a component is attained at an endpoint
        comp = next(((c, d) for c, d in comps if c <= cell.lo and cell.hi <= d), None)
        if comp is None:
            violations["sandwich"] += 1
            continue
        dist = _dist_to_boundary(cell.lo, cell.hi, comp)
        ln = cell.length
        if not (ln * (1 - 1e-12) <= dist <= 3 * ln * (1 + 1e-12)):
            violations["sandwich"] += 1
    violations["coverage_defect"] = total - covered
    violations["coverage_ok"] = 0.0 <= total - covered <= 2.0**-30 * total + 1e-300
    return violations


# Far-pair constant: with dist(I2, boundary) <= 3|I2| there is a complement
# point z0 with |b - z0| <= 4|I2| for any b in I2, and dist(I1, I2) >= 100|I2|
# forces |a - z0| >= 96|I2|, so |a - b| >= (1 - 4/96) |a - z0| >= (23/24)
# dist(a, boundary).  Endpoint-extremal pairs realize ratios near 0.963, so
# the slightly larger 95/98 is not attainable in general.
FAR_PAIR_CONSTANT = 23.0 / 24.0


def whitney_pair_properties(F: Sequence[DyadicInterval], omega, n_pairs: int = 200, seed: int = 0) -> dict:
    """Random-pair checks: the far-pair lower bound
    |a-b| >= FAR_PAIR_CONSTANT * dist(a, bdry) and the near-pair length
    comparability max/min <= 2000.  "ok" holds when both bounds do."""
    comps = _merge_intervals(omega)
    rng = np.random.default_rng(seed)
    cells = list(F)
    worst_far = math.inf
    worst_near = 1.0
    if len(cells) >= 2:
        for _ in range(n_pairs):
            i, j = rng.integers(0, len(cells), size=2)
            if i == j:
                continue
            I1, I2 = cells[i], cells[j]
            dist = max(0.0, max(I1.lo, I2.lo) - min(I1.hi, I2.hi))
            min_len = min(I1.length, I2.length)
            if dist >= 100.0 * min_len:
                a = float(rng.uniform(I1.lo, I1.hi))
                b = float(rng.uniform(I2.lo, I2.hi))
                comp = next(((c, d) for c, d in comps if c <= a <= d), None)
                dist_a = min(a - comp[0], comp[1] - a)
                ratio = abs(a - b) / dist_a if dist_a > 0 else math.inf
                worst_far = min(worst_far, ratio)
            else:
                worst_near = max(worst_near, max(I1.length, I2.length) / min_len)
    ok = worst_far >= FAR_PAIR_CONSTANT * (1 - 1e-12) and worst_near <= 2000.0
    return {"worst_far_ratio": worst_far, "worst_near_ratio": worst_near, "ok": bool(ok)}


# -- tiles and trees -----------------------------------------------------------


def build_tiles(partition: ScalePartition, l: int, m: int, x_range) -> list:
    """All tiles I_{n,l,j} meeting x_range, one row per j in the positive
    shifted scale set; j_l is rounded to the nearest integer for the grids.

    m does not move the tile geometry (it labels the frequency localization
    used by the sizes) but is recorded by the caller's context.
    """
    if len(x_range) != 2:
        raise ValueError(f"x_range must be [lo, hi], got {list(x_range)!r}")
    lo, hi = map(float, x_range)
    if not hi > lo:
        raise ValueError("empty x_range")
    j_star, _ = shifted_scale_set(partition, l)
    j_pos = [j for j in j_star if j > 0]
    if not j_pos:
        raise ValueError("positive shifted scale set is empty")
    j_l_int = round(partition.j_l_shifts[l])
    if j_l_int + max(j_pos) > 1023:
        raise ValueError("j_range puts tile lengths 2^-k below float range, at k > 1023")
    tiles = []
    for j in j_pos:
        k = j_l_int + j
        n_lo = math.floor(lo * 2.0**k)
        n_hi = math.ceil(hi * 2.0**k) - 1
        for n in range(n_lo, n_hi + 1):
            tiles.append(Tile(j=j, n=n, interval=DyadicInterval(k, n)))
    return tiles


def tree_top(tiles) -> DyadicInterval:
    """Minimal dyadic interval containing every tile interval."""
    ivs = [t.interval for t in tiles]
    if not ivs:
        raise ValueError("empty tree")
    lo = min(iv.lo for iv in ivs)
    hi = max(iv.hi for iv in ivs)
    if lo < 0.0 < hi:
        raise ValueError("tiles straddle zero: no dyadic top exists")
    top = max(ivs, key=lambda iv: iv.length)
    for _ in range(200):
        if top.lo <= lo and hi <= top.hi:
            return top
        top = top.parent()
    raise ValueError("no common dyadic ancestor found")


def _tail_weight(interval: DyadicInterval, kscale: float, xs: np.ndarray) -> np.ndarray:
    """1**: integral over the tile interval of the K-decay tail at scale 2^kscale.

    Closed form through the odd antiderivative of 2^k (1 + 2^k |s|)^-K.
    """
    s = 2.0**kscale

    def H(u):
        u = np.asarray(u, dtype=float)
        return np.sign(u) * (1.0 - (1.0 + s * np.abs(u)) ** (1 - TAIL_K)) / (TAIL_K - 1)

    return H(xs - interval.lo) - H(xs - interval.hi)


class _SizeContext:
    """Per-scale pieces, per-tile squared fields and the size formula.

    The pieces at frequency scale k are Phi_k f and, for which=1 only, the
    derivative-weighted piece (2 pi i xi / 2^k) phi_hat(xi / 2^k).
    """

    def __init__(self, which, data, p, l, m):
        if which not in (1, 2):
            raise ValueError("which must be 1 or 2")
        if p <= 1:
            raise ValueError("size exponent p must exceed 1")
        self.which = which
        self.data = data
        self.p = float(p)
        self.l = l
        self.m = m
        self._piece_cache: dict = {}

    def _freq_scale(self, tile: Tile) -> float:
        j_l_int = tile.interval.k - tile.j
        if self.which == 1:
            return j_l_int + tile.j + self.m
        return j_l_int + self.l * tile.j + self.m

    def _pieces(self, kscale: float) -> list:
        if kscale not in self._piece_cache:
            pieces = [multiplier_piece(self.data, lambda xi: phi_hat(xi / 2.0**kscale)).values]
            if self.which == 1:
                pieces.append(multiplier_piece(
                    self.data,
                    lambda xi: 2j * math.pi * (xi / 2.0**kscale) * phi_hat(xi / 2.0**kscale),
                ).values)
            self._piece_cache[kscale] = pieces
        return self._piece_cache[kscale]

    def tile_squared_fields(self, tile: Tile) -> np.ndarray:
        """|w * piece|^2 for each piece, stacked (n_pieces, grid), where w is
        the tile's tail weight."""
        kscale = self._freq_scale(tile)
        nyquist = 1.0 / (2.0 * self.data.step)
        if kscale + 1 > 1023 or 2.0 ** (kscale + 1) >= nyquist:  # 2^1024 overflows, and tops every float
            raise ValueError("scale too fine for grid")
        w = _tail_weight(tile.interval, kscale, self.data.x)
        return np.stack([np.abs(w * piece) ** 2 for piece in self._pieces(kscale)])

    def size(self, fields, idx, top: DyadicInterval) -> float:
        """|top|^(-1/p) times the summed L^p norms of the square functions of
        the tiles idx; their fields are added in the order of idx."""
        sq = fields[idx[0]]
        for i in idx[1:]:
            sq = sq + fields[i]
        wts = _trapezoid_weights(self.data.n)
        total = 0.0
        for row in sq:
            total += float(np.sum(wts * np.sqrt(row) ** self.p) * self.data.step) ** (1.0 / self.p)
        return total * top.length ** (-1.0 / self.p)


def tree_size(T: Tree, which: int, f_or_g: GridFunction, p: float, l: int, m: int) -> float:
    """k-size of a tree: |I_T|^(-1/p) times the summed L^p norms of the
    localized square functions (two summands for which=1, one for which=2)."""
    ctx = _SizeContext(which, f_or_g, p, l, m)
    if not T.tiles:
        raise ValueError("empty tree")
    fields = [ctx.tile_squared_fields(t) for t in T.tiles]
    return ctx.size(fields, range(len(fields)), T.top)


def _candidate_tops(tiles: Sequence[Tile]) -> list:
    """Every dyadic ancestor hull a tree inside this tile set could have."""
    ivs = {t.interval for t in tiles}
    root = tree_top(tiles)
    seen = set(ivs)
    for iv in list(ivs):
        cur = iv
        while cur != root and cur.k > root.k:
            cur = cur.parent()
            seen.add(cur)
    seen.add(root)
    return sorted(seen, key=lambda c: (c.k, c.n))


def _member_sets(tiles: Sequence[Tile]) -> list:
    """The distinct nonempty index tuples, each in tile order, of the tiles
    under a candidate top, in the order the candidates first produce them."""
    sets: dict = {}
    for cand in _candidate_tops(tiles):
        idx = tuple(i for i, t in enumerate(tiles) if cand.contains(t.interval))
        if idx:
            sets.setdefault(idx, None)
    return list(sets)


def _grown_tree(ctx: _SizeContext, tiles, fields, idx):
    """(size, hull top) of the tree holding the tiles idx."""
    top = tree_top([tiles[i] for i in idx])
    return ctx.size(fields, idx, top), top


def set_size(
    tiles: Sequence[Tile],
    which: int,
    data: GridFunction,
    p: float,
    l: int,
    m: int,
) -> float:
    """k-size of a tile set: the largest tree_size over every candidate top,
    each tree holding all the tiles under it; 0 for an empty set.

    Each tile's squared fields are computed once and summed in tile order, as
    tree_size sums them, so each candidate's size is bit-identical to
    tree_size's.
    """
    ctx = _SizeContext(which, data, p, l, m)
    tiles = list(tiles)
    if not tiles:
        return 0.0
    fields = [ctx.tile_squared_fields(t) for t in tiles]
    return max([0.0, *(_grown_tree(ctx, tiles, fields, idx)[0] for idx in _member_sets(tiles))])


def greedy_tree_selection(
    S: Sequence[Tile],
    which: int,
    data: GridFunction,
    p: float,
    l: int,
    m: int,
):
    """Extract maximal trees of k-size above (1/2)^(1/p) size_k(S) until the
    residual drops below the threshold; returns (forest, residual).

    Candidate tops are all ancestor hulls; each round grows the tree to every
    remaining tile under the top, keeps only inclusion-maximal eligible tops,
    and breaks ties leftmost-then-coarsest.  This makes the extracted tops
    pairwise disjoint and the residual size halving structural.  Sizes are
    the ones set_size computes, bit for bit.
    """
    ctx = _SizeContext(which, data, p, l, m)
    tiles = list(S)
    if not tiles:
        return [], []
    fields = [ctx.tile_squared_fields(t) for t in tiles]
    sets = _member_sets(tiles)
    # (size, hull top) per member tuple, kept across rounds: a set that no
    # extracted tree touched is not summed again
    grown = {idx: _grown_tree(ctx, tiles, fields, idx) for idx in sets}
    size_S = max([0.0, *(s for s, _ in grown.values())])
    threshold = 0.5 ** (1.0 / p) * size_S

    remaining = set(range(len(tiles)))
    forest = []
    while remaining:
        live = [idx for idx in (tuple(i for i in key if i in remaining) for key in sets) if idx]
        for idx in live:
            if idx not in grown:
                grown[idx] = _grown_tree(ctx, tiles, fields, idx)
        eligible = [(*grown[idx], idx) for idx in live if grown[idx][0] > threshold]
        if not eligible:
            break
        # maximality judged on the grown hulls; ties leftmost then coarsest
        maximal = [
            e
            for e in eligible
            if not any(other[1].contains(e[1]) and other[1] != e[1] for other in eligible)
        ]
        maximal.sort(key=lambda e: (e[1].lo, e[1].k))
        _, top, idx = maximal[0]
        forest.append(Tree(tiles=tuple(tiles[i] for i in idx), top=top))
        remaining -= set(idx)
    residual = [tiles[i] for i in sorted(remaining)]
    return forest, residual


def forest_to_json(forest, residual) -> dict:
    return {
        "trees": [
            {
                "top": {"k": t.top.k, "n": t.top.n},
                "tiles": [{"j": tile.j, "n": tile.n} for tile in t.tiles],
            }
            for t in forest
        ],
        "residual": [{"j": tile.j, "n": tile.n} for tile in residual],
    }
