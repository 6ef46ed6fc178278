"""Monte Carlo estimators for the entropy quantities of a free
semigroup action: correlation sums, q-order correlation integrals,
local correlation entropy, separated-set topological entropy,
ball-measure doubling diagnostics and local entropy along a word.

Conventions shared by everything here:

* The outer average over driving words is exhaustive (all m**(k-1)
  prefixes with their exact Bernoulli weights) whenever the enumeration
  is no larger than the configured word budget, capped at
  EXHAUSTIVE_OMEGA_CAP, and Monte Carlo otherwise.
* Estimators only ever look at the first k-1 symbols of the word
  argument, so any two words agreeing there give identical results.
* Every stochastic choice draws from a substream derived from
  (seed, stream kind, task index); results are bit-reproducible and
  independent of evaluation order.
* Bowen-ball counting takes all the (k, word) cells of a series at one
  point set and radius at once; ball counts, pair counts and greedy
  nets are read off integer labels, equal for two points exactly when
  they are Bowen-within eps along a cell's prefix.  A correlation sum
  or a ball-measure call is the one-cell case; local entropy counts the
  ball of its center alone.
* On the binary backend a cell's Bowen balls are cylinders of the
  point set's uint64 windows (WindowOps.cylinder): labels are the
  windows' low L + s bits, so cells are grouped by that width and each
  width is masked and read once (_cylinder_reads); an orbit group keeps
  its counts per width across calls, and reads all the widths a call
  lacks in one pass over its windows (_cylinder_pair_counts).
  Wherever the cylinders cannot vouch for every cell, and on other
  systems with ball keys, one label walk over the prefix trie of the
  cells' first k-1 symbols pays for each distinct prefix once: a trie
  node folds its stage keys into its parent's labels (_label_walk),
  dense ranks made with no sort while the key space is small.
* On the circle family (pair_ops), below eps < 1/(1 + the largest
  slope), a cell's Bowen balls are arcs of radius eps / (the product of
  its word's slopes): cells are grouped by that product and counted from
  one sorted copy of the point set, whose pairs in a thin band around
  the arc's edge alone are tested along each cell's word (_arc_results).
  At larger radii, or for points outside [0, 1], a sort-sweep streams
  the pairs within eps at stage 0, PAIR_CHUNK at most at a time, and
  every trie node filters its parent's surviving pairs through its own
  stage (_pair_walk).  No N x N matrix is built, nor a whole pair list
  but for a greedy net.
* Both orbit estimators count Bowen-close pairs through one counter,
  one group of orbits at a time (ORBIT_GROUP orbits with ball keys, one
  with pair lists), which tallies each orbit's ordered off-diagonal
  pairs outside a lag window by pairs of orbit-time blocks.
  correlation_sum leaves out lags up to THEILER_WINDOW and floors each
  value at 1/n, so it lives in [1/n, 1].  local_corr_entropy_series
  counts the diagonal too, and reads its n/2 value off the (head, head)
  block of the same count.  Ball counting includes the center itself,
  so empirical ball measures live in [1/N, 1].  Logs and negative
  powers stay finite.
"""

from __future__ import annotations

import copy
import itertools
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    AlphabetMismatch,
    CenterNotInSample,
    ConfigInvalid,
    FsgError,
    InvalidEpsilon,
    KZero,
    WordTooShort,
)
from .seeding import MU, OMEGA, UPSILON, substream
from .series import EntropySeries
from .systems import GeneratorSystem
from .words import BernoulliSpec, SymbolWord, sample_symbols, sample_word, uniform_spec

# Above this many word prefixes the outer symbol average switches from
# exhaustive enumeration to Monte Carlo sampling.
EXHAUSTIVE_OMEGA_CAP = 4096

# correlation_sum leaves out pairs of orbit points at most this many
# steps apart (a Theiler window): their closeness comes from the orbit's
# own short-time correlation, not from the measure.
THEILER_WINDOW = 4

# Contiguous orbit-time blocks of the jackknife behind correlation_sum's
# standard error.  Blocks must stay longer than the orbit's dependence:
# 40 blocks of a 4000-point orbit already understate the error.
JACKKNIFE_BLOCKS = 20

# Driving-word orbits one label walk takes at a time (see _upsilon_orbits).
# A k-sweep over 16 orbits of 4,000 points took 27.7, 23.0, 19.9, 17.9 and
# 18.9 ms in walks of 1, 2, 4, 8 and 16 orbits (fastest of 7, one core of
# a 2.1 GHz Xeon); 8 peaked 0.6 MiB above 4 in resident memory, 16 2.6 MiB.
ORBIT_GROUP = 4

# A label fold ranks its packed keys through a table of 2**width flags,
# and sorts them instead once the table would hold more than this many
# flags per point: filling and summing the table then costs more than
# sorting the keys (about 4 flags per point breaks even for 4000 points).
RANK_TABLE_RATIO = 4

# Pairs read at once from the bands, in _pair_chunks and in the pair
# walk's stage filter; bounds every pair-list temporary and every chunk
# that _pair_chunks yields.
PAIR_CHUNK = 1 << 14

# Margin of a band's radii per unit of the largest |point| (a pair
# walk's stage 0) or of a cell's slope product Λ (an arc count): above
# the rounding of the sweep keys v + r (2**-51 of a stage-0 distance, so
# 2**-51 Λ at an arc's last stage) and of the metric's float expression
# (2**-52); an arc adds what the maps round (see _arc_groups).
PAIR_MARGIN = 2.0**-48


# ---------------------------------------------------------------------------
# Word averaging machinery


def _check_eps(eps: float) -> None:
    if not eps > 0.0:
        raise InvalidEpsilon(f"epsilon must be > 0, got {eps!r}")


def _check_k(k: int) -> None:
    if k < 1:
        raise KZero(f"k must be >= 1, got {k}")


def _check_word(sys: GeneratorSystem, omega: SymbolWord, k: int) -> None:
    """k >= 1, and omega's first k-1 symbols exist and name maps of sys."""
    _check_k(k)
    if len(omega) < k - 1:
        raise WordTooShort(f"need {k - 1} symbols, have {len(omega)}")
    if omega.m > sys.m and max(omega.symbols[: k - 1], default=1) > sys.m:
        raise AlphabetMismatch(f"word symbols exceed the {sys.m} maps of {sys.name}")


def _check_weights(weights: BernoulliSpec, m: int) -> None:
    if weights.m != m:
        raise AlphabetMismatch(f"{weights.m} symbol weights for {m} maps")


def exhaustive_omega(m: int, k: int, m_omega: int) -> bool:
    """Whether the outer word average enumerates all prefixes exactly."""
    return m ** (k - 1) <= min(EXHAUSTIVE_OMEGA_CAP, m_omega)


def omega_words(
    m: int, k: int, weights: BernoulliSpec | None, m_omega: int, seed: int
) -> list[tuple[SymbolWord, float]]:
    """Weighted word prefixes for the outer symbol-space average.

    Exhaustive with exact Bernoulli weights when enumerating all
    m**(k-1) prefixes costs no more than the Monte Carlo budget (and at
    most EXHAUSTIVE_OMEGA_CAP); otherwise m_omega draws with weight
    1/m_omega.  Exhaustive averages are exact and consume no
    randomness.
    """
    _check_k(k)
    if weights is None:
        weights = uniform_spec(m)
    _check_weights(weights, m)
    if m_omega < 1:
        raise ValueError("m_omega must be >= 1")
    if exhaustive_omega(m, k, m_omega):
        return [
            (SymbolWord(syms, m), math.prod((weights.weights[s - 1] for s in syms), start=1.0))
            for syms in itertools.product(range(1, m + 1), repeat=k - 1)
        ]
    return [
        (sample_word(weights, k - 1, substream(seed, OMEGA, k, j)), 1.0 / m_omega)
        for j in range(m_omega)
    ]


def _weighted_mean(values, weights) -> float:
    return math.fsum(v * w for v, w in zip(values, weights))


# ---------------------------------------------------------------------------
# Pairwise Bowen-proximity counting
#
# Three paths, chosen by the system's capabilities and agreeing exactly:
# integer Bowen labels (ball keys: binary cylinders of uint64 windows,
# or a trie walk), sparse pair lists (pair_ops and array_ops: arcs, or a
# trie walk), and the generic pairwise loop, one cell at a time, which
# the tests keep as the oracle for the other two.


class _PointSet:
    """The points of one estimator call, plus their window form on
    systems with window_ops: converted once and reused for every word.
    `make` builds the points on first use, so orbits whose windows
    decide every stage never exist as points; a group of `orbits` equal
    orbits lies one orbit after another (see _upsilon_orbits).  `head`
    memoises what WindowOps.cylinder reads of the whole set, and `counts`
    a group's pair counts per cylinder width (see _orbit_pair_counts),
    which one read of all the widths a call lacks fills at once
    (_cylinder_pair_counts).  `arrays` holds the points as a pair
    system's array, with its sort, per to_array (see _sorted_array)."""

    def __init__(self, wins, points=None, make=None, orbits=1):
        self.wins = wins
        self._points = points
        self._make = make
        self.orbits = orbits
        self.head = {}
        self.counts = None
        self.arrays = {}

    @property
    def points(self):
        if self._points is None:
            self._points = self._make()
        return self._points

    def __len__(self) -> int:
        return len(self.points if self.wins is None else self.wins[0])

    def split(self) -> tuple:
        """A group's orbits, each a point set of views and slices."""
        n = len(self) // self.orbits
        return tuple(_PointSet(self.wins and tuple(w[o:o + n] for w in self.wins),
                               make=lambda o=o: self.points[o:o + n])
                     for o in range(0, len(self), n))


def _as_point_set(sys: GeneratorSystem, points) -> _PointSet:
    points = tuple(points)  # no copy of a measure's own tuple
    ops = sys.window_ops
    return _PointSet(None if ops is None else ops.to_windows(points), points)


def _has_pairs(sys: GeneratorSystem) -> bool:
    return sys.pair_ops is not None and sys.array_ops is not None


def _sorted_array(sys: GeneratorSystem, pset: _PointSet, sort=True) -> tuple:
    """(arr, order, v): the point set as sys's point array, its stable
    sort order (int32) and the sorted values (None unless sort), made
    once per point set and to_array, so every radius, word and system
    that shares them (a power system and its base) reads one sort."""
    to_array = sys.array_ops.to_array
    arr, order, v = pset.arrays.get(to_array) or (to_array(pset.points), None, None)
    if sort and order is None:
        order = np.argsort(arr, kind="stable").astype(np.int32)
        v = arr[order]
    pset.arrays[to_array] = arr, order, v
    return arr, order, v


@lru_cache(maxsize=1)
def _trie(cells: tuple):
    """Prefix trie of cells (k, word): a node is [symbol, children by
    symbol, indices of the cells ending there], and a cell ends at the
    node of its word's first k-1 symbols.  Also returns, per cell, the
    first cell ending at its node, which names the node's result.  Equal
    cells (every radius of a series) share one trie, which nothing
    changes."""
    root = [None, {}, []]
    first = []
    for c, (k, omega) in enumerate(cells):
        node = root
        for s in omega.symbols[: k - 1]:
            node = node[1].setdefault(s, [s, {}, []])
        node[2].append(c)
        first.append(node[2][0])
    return root, tuple(first)


def _bowen_keys(sys: GeneratorSystem, points, syms, eps):
    """The points moved along syms, their ball keys there numbered in
    order of first appearance (uint64), and the bit width of those
    numbers; raises where the maps or ball_key raise."""
    maps = sys.maps
    for s in syms:
        f = maps[s - 1]
        points = [f(p) for p in points]
    keyf, index = sys.ball_key, {}
    keys = [index.setdefault(keyf(p, eps), len(index)) for p in points]
    return points, np.array(keys, dtype=np.uint64), (len(index) - 1).bit_length()


def _fold(labels, row, bits: int) -> np.ndarray:
    """labels (None: one class) refined by row, uint64 values that use
    their low `bits` bits: the dense ranks 0, 1, ... of the packed keys
    (labels above, row below), as np.unique(..., return_inverse=True)
    gives them, in the dtype of labels (intp for None).  While the packed
    keys fit in a table of at most RANK_TABLE_RATIO flags per point, the
    ranks are a cumulative count of the keys seen, with no sort; wider
    keys are sorted."""
    dtype = np.intp if labels is None else labels.dtype
    top = 0 if labels is None else int(labels.max(initial=0)).bit_length()
    if top + bits > 64:
        _, part = np.unique(row, return_inverse=True)
        row = labels.astype(np.int64) * (int(part.max()) + 1) + part
    else:
        if top:
            row = (labels.astype(np.uint64) << np.uint64(bits)) | row
        if 1 << (top + bits) <= RANK_TABLE_RATIO * len(row):
            seen = np.zeros(1 << (top + bits), dtype=bool)
            seen[row] = True
            return np.cumsum(seen, dtype=dtype)[row] - 1
    _, labels = np.unique(row, return_inverse=True)
    return labels.astype(dtype, copy=False)


def _first_indices(labels) -> np.ndarray:
    """The index at which each label of a dense-rank labelling first
    appears, in increasing order (np.sort(np.unique(labels,
    return_index=True)[1])), in one pass."""
    at = np.arange(len(labels))
    first = np.full(int(labels.max()) + 1, len(labels))
    np.minimum.at(first, labels, at)
    return np.flatnonzero(first[labels] == at)


def _label_walk(sys: GeneratorSystem, pset: _PointSet, eps, root, read) -> dict:
    """read(labels) at every trie node where cells end, keyed by its
    first cell; labels agree for two points exactly when their ball keys
    agree at every stage of the node's prefix and, in a group of orbits,
    the points lie in one orbit: stage 0's keys fold into the orbit
    index, so ranks keep the orbits apart and in order.
    A node moves its parent's windows one stage on and packs its keys
    into a pending uint64 row, folded into the labels only where cells
    end or the row is full; from a node whose windows cannot decide,
    exact stage keys take over.  A stage that raises leaves its exception
    at every cell below it."""
    out = {}
    start = None  # a group's ranks start from the orbit index, in int32: half the bytes
    if pset.orbits > 1:
        start = np.arange(pset.orbits, dtype=np.int32).repeat(len(pset) // pset.orbits)
    stack = [(root, (), (None, None, start, 0, 0), None)]
    while stack:
        node, path, carried, failed = stack.pop()
        if failed is None:
            try:
                carried = _label_stage(sys, pset, eps, node, path, *carried)
            except FsgError as exc:  # DepthExhausted, CarryOverflow
                failed = exc
        if node[2]:
            if not failed:
                state, points, labels, row, bits = carried
                if bits or labels is None:  # keys pending, or no labels yet
                    labels = _fold(labels, row, bits)
                    carried = state, points, labels, 0, 0
            out[node[2][0]] = failed or read(labels)
        stack.extend((kid, path + (kid[0],), carried, failed) for kid in node[1].values())
    return out


def _label_stage(sys, pset, eps, node, path, state, points, labels, row, bits):
    """One node of the label walk: its window state (or exact points),
    labels and pending row, from its parent's.  Window keys are made only
    where packed: an isometry packs none."""
    windows = points is None and pset.wins is not None
    state = sys.window_ops.stage(pset.wins, eps, state, node[0]) if windows else None
    if state is None:  # exact stage keys from here on
        start, syms = (pset.points, path) if points is None else (points, path[-1:])
        points, key, width = _bowen_keys(sys, start, syms, eps)
    if node[0] not in sys.isometries:
        if state is not None:
            key, width = sys.window_ops.key(state, eps)
        if bits + width > 64:
            labels, row, bits = _fold(labels, row, bits), 0, 0
        row, bits = row | (key << np.uint64(bits)), bits + width
    return state, points, labels, row, bits


def _cylinder_labels(pset: _PointSet, width: int) -> np.ndarray:
    """Labels of the point set's Bowen cylinders of one width: its
    windows' low `width` bits, above the orbit index in a group of
    orbits, as they are while a rank table would hold them (see _fold),
    and ranked past that."""
    keys = pset.wins[0] & np.uint64((1 << width) - 1)
    orbit = None
    if pset.orbits > 1:
        orbit = np.arange(pset.orbits).repeat(len(keys) // pset.orbits)
    if 1 << ((pset.orbits - 1).bit_length() + width) > RANK_TABLE_RATIO * len(keys):
        return _fold(orbit, keys, width)
    keys = keys.view(np.int64)
    return keys if orbit is None else keys | orbit << width


def _cylinder_reads(sys, pset: _PointSet, eps, cells, read, memo=None):
    """(reads, first) as the label walk gives them, from the cells'
    Bowen cylinders (WindowOps.cylinder), or None where it declines a
    cell: read(widths) reads every distinct width that memo {width:
    read} (fresh if None), which may hold widths read by earlier calls,
    lacks, in one call, one read per width in order."""
    cylinder = pset.wins is not None and sys.window_ops.cylinder
    if not cylinder:
        return None
    widths = [cylinder(pset.wins, eps, omega.symbols[: k - 1], pset.head) for k, omega in cells]
    if None in widths:
        return None
    memo = {} if memo is None else memo
    owner = {}
    for c, width in enumerate(widths):
        owner.setdefault(width, c)
    missing = [width for width in owner if width not in memo]
    if missing:
        memo.update(zip(missing, read(missing)))
    return {c: memo[width] for width, c in owner.items()}, [owner[width] for width in widths]


def _pair_walk(sys: GeneratorSystem, arr, chunks, eps, root, tally=None):
    """Yield (first cell, chunk start, got) at every trie node where cells
    end and pairs survive, per chunk (i0, j0) of the stage-0 pairs of the
    point array arr, read from the stream chunks as it yields them (the
    start counts the pairs before): got is tally(i, j) of the chunk's
    pairs Bowen-within eps along the node's prefix, or without a tally
    their positions in the chunk.  Each node makes its stage array once and,
    per chunk, keeps those of its parent's surviving pairs that
    pair_ops.close keeps there; only nodes where cells end tally.
    Gathers reuse two arrays of PAIR_CHUNK per walk and positions are
    views of one array, as fresh ones get faulted in anew, more often for
    some words than for others."""
    apply, close = sys.array_ops.apply, sys.pair_ops.close
    arrays = {}  # stage array per node, freed with the walk
    todo = [(root, arr)]
    while todo:
        node, arr = todo.pop()
        arrays[id(node)] = arr
        todo.extend((kid, apply(kid[0], arr)) for kid in node[1].values())
    ta, tb = np.empty((2, PAIR_CHUNK), dtype=arr.dtype)
    at = np.arange(PAIR_CHUNK, dtype=np.int32) if tally is None else None  # copies half as big
    lo = 0
    for i0, j0 in chunks:
        stack = [(root, (i0, j0) if at is None else (i0, j0, at[:len(i0)]))]
        while stack:
            node, cols = stack.pop()
            sym, kids, ends = node
            if sym is not None:  # the root is stage 0, which every pair passes
                arr, n = arrays[id(node)], len(cols[0])
                a = arr.take(cols[0], out=ta[:n], mode="clip")  # "raise" would buffer out
                b = arr.take(cols[1], out=tb[:n], mode="clip")
                keep = close(a, b, eps, out=a)
                kept = np.count_nonzero(keep)
                if not kept:  # nothing to count here or below
                    continue
                if kept < n:
                    cols = tuple(c[keep] for c in cols)
            if ends:
                yield ends[0], lo, cols[2] if tally is None else tally(*cols)
            stack.extend((kid, cols) for kid in kids.values())
        lo += len(i0)


class _Blocks(NamedTuple):
    """How a pair count tallies the ordered pairs (i, j) with |i - j| > w:
    by (block[i], block[j]) of n_blocks blocks.  lags[d - 1] holds the
    keys block[i] * n_blocks + block[i + d] of the pairs at lag d = 1..w;
    _blocks makes them."""

    block: np.ndarray
    n_blocks: int
    w: int
    lags: tuple


def _blocks(block, n_blocks: int = 1, w: int = 0) -> _Blocks:
    lags = tuple(block[:-d] * n_blocks + block[d:] for d in range(1, w + 1))
    return _Blocks(block, n_blocks, w, lags)


def _tally(kind, size, blocks, i, j) -> np.ndarray:
    """The size counts of close pairs i < j: neighbour counts per point
    for "balls", pairs with j - i > w per (block[i], block[j]) for
    "pairs"."""
    if kind == "balls":
        return np.bincount(i, minlength=size) + np.bincount(j, minlength=size)
    block, far = blocks.block, j - i > blocks.w
    return np.bincount(block[i[far]] * blocks.n_blocks + block[j[far]], minlength=size)


def _tallied(kind, acc, blocks):
    if kind == "balls":
        return (acc + 1).astype(float)  # the center itself
    counts = acc.reshape(1, blocks.n_blocks, blocks.n_blocks)  # one orbit
    return counts + counts.transpose(0, 2, 1)


def _net_from_pairs(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """First-come greedy net of n points given their close pairs i < j:
    a point is kept unless a lower-index neighbour was kept."""
    lower = i[np.argsort(j)]  # each point's lower-index neighbours, in point order
    kept = np.zeros(n, dtype=bool)
    start = 0
    for p, end in enumerate(np.cumsum(np.bincount(j, minlength=n)).tolist()):
        kept[p] = not kept[lower[start:end]].any()
        start = end
    return np.flatnonzero(kept)


def _pair_chunks(order: np.ndarray, ranges) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every pair (order[a], order[b]) of a sorted row a and a row b in
    one of its ranges, a sequence of (start, stop) arrays one row each
    (PairOps.bands), as chunks (i, j), i < j, of at most PAIR_CHUNK pairs
    in fresh int32 arrays.  The ranges of all rows are laid end to end and
    read in PAIR_CHUNK slices, a pair's row repeated from the range
    lengths, in int32, whose temporaries the heap reuses without faulting
    in pages."""
    n = len(order)
    first = np.concatenate([start for start, _ in ranges], dtype=np.int32)
    edges = np.cumsum(np.concatenate([[0], *(stop - start for start, stop in ranges)]))
    size = int(edges[-1])
    for lo in range(0, size, PAIR_CHUNK):
        hi = min(lo + PAIR_CHUNK, size)
        bot, top = np.searchsorted(edges, (lo, hi - 1), side="right") - 1
        begin, end = edges[bot:top + 1], edges[bot + 1:top + 2]
        cut = np.minimum(end, hi) - np.maximum(begin, lo)
        a = np.repeat(np.arange(bot, top + 1, dtype=np.int32) % n, cut)
        shift = (first[bot:top + 1] - (begin - lo)).astype(np.int32)  # partner - (position - lo)
        b = np.arange(hi - lo, dtype=np.int32) + np.repeat(shift, cut)
        a, b = order[a], order[b]
        yield np.minimum(a, b), np.maximum(a, b)


def _stage0(sys, arr, order, v, eps):
    """Every pair i < j of arr that pair_ops.close keeps at eps, as chunks
    (i, j): first those within eps - margin by the sweep keys, untested,
    then those of the bands out to eps + margin that close keeps, margin
    being PAIR_MARGIN per unit of the largest |point|."""
    margin = PAIR_MARGIN * max(1.0, abs(float(v[0])), abs(float(v[-1])))
    bands = sys.pair_ops.bands(v, eps - margin, eps + margin)
    yield from _pair_chunks(order, bands[:2])
    for i, j in _pair_chunks(order, bands[2:]):
        keep = sys.pair_ops.close(arr[i], arr[j], eps)
        if keep.any():
            yield i[keep], j[keep]


def _arc_groups(sys, arr, eps, cells) -> dict:
    """The cells whose Bowen balls are arcs, grouped by the slope product
    Λ of their k - 1 letters, as {Λ: (lo, hi, cell indices)}; none unless
    arr lies in [0, 1].

    A letter maps x to λ x + c mod 1, so two points δ apart lie Λ_j δ
    apart, mod 1, at stage j.  If Λ_j δ <= eps, then Λ_(j+1) δ <= λ eps
    < 1 - eps for eps < 1/(1 + λ), so stage j + 1 is within eps exactly
    when Λ_(j+1) δ <= eps: the Bowen ball is the arc δ <= eps / Λ.  The
    stages round: a letter moves a distance by pair_ops.rounding times
    the slopes after it, so by Λ (k - 1) rounding at most, and the keys
    and the metric by less than Λ PAIR_MARGIN.  With margin = Λ
    (PAIR_MARGIN + (k - 1) rounding), a group's longest k, a pair within
    lo = (eps - margin) / Λ by the sweep keys passes every stage, and one
    past hi = (eps + margin) / Λ fails the first stage past eps + margin,
    while (1 + λ_max) (eps + margin) < 1."""
    ops = sys.pair_ops
    if not (0.0 <= arr.min() and arr.max() <= 1.0):
        return {}
    by_slope = {}
    for c, (k, omega) in enumerate(cells):
        lam = math.prod(ops.slopes[s - 1] for s in omega.symbols[: k - 1])
        by_slope.setdefault(lam, []).append(c)
    out, top = {}, 1 + max(ops.slopes)
    for lam, group in by_slope.items():
        if lam < 2**52:  # a larger Λ makes the margin exceed any radius
            margin = lam * (PAIR_MARGIN + (max(cells[c][0] for c in group) - 1) * ops.rounding)
            if top * (eps + margin) < 1.0:
                out[lam] = (eps - margin) / lam, (eps + margin) / lam, group
    return out


def _joined(chunks) -> tuple:
    """The pairs of a stream of chunks (i, j) as one (i, j)."""
    i, j = zip(*chunks, (np.empty(0, np.int32),) * 2)
    return np.concatenate(i), np.concatenate(j)


def _band_keep(sys, arr, i, j, eps, syms) -> np.ndarray:
    """Which pairs (i, j) of arr pair_ops.close keeps at eps at every stage
    along syms, stage 0 included."""
    a, b = arr[i], arr[j]
    keep = sys.pair_ops.close(a, b, eps)
    for s in syms:
        if not keep.any():
            break
        a, b = sys.array_ops.apply(s, a), sys.array_ops.apply(s, b)
        keep &= sys.pair_ops.close(a, b, eps)
    return keep


def _arc_results(sys, arr, order, v, eps, cells, groups, kind, reduce, blocks, center,
                 first) -> dict:
    """The reduced result of the kind per cell of groups (see _arc_groups),
    keyed by cell, where no earlier cell of its group shares it: first
    gets, per cell, the cell whose result it takes.  A group reads its
    pairs within lo untested: ranges of the sorted array (PairOps.bands),
    whose lengths and cover count the balls; only those out to hi are
    tested along each cell's word, and cells whose tests agree share a
    result.  A center's arc is read off its distances to the points."""
    n, out = len(arr), {}
    size = n if kind == "balls" else blocks and blocks.n_blocks**2
    if center is not None:
        dist = np.empty_like(arr)
        sys.pair_ops.close(arr[center], arr, eps, out=dist)
    for lo, hi, group in groups.values():
        if center is not None:  # the center itself lies within lo or in the band
            j = np.flatnonzero(dist <= hi)
            sure, j = np.count_nonzero(dist[j] <= lo), j[dist[j] > lo]
            i = np.full_like(j, center)
        else:
            bands = sys.pair_ops.bands(v, lo, hi)
            i, j = _joined(_pair_chunks(order, bands[2:]))
            if kind == "balls":  # per point, its ranges' lengths and the ranges holding it
                got = np.zeros(n + 1, dtype=np.int64)
                for start, stop in bands[:2]:
                    got[:n] += stop - start
                    got += np.cumsum(np.bincount(start, minlength=n + 1))
                    got -= np.cumsum(np.bincount(stop, minlength=n + 1))
                sure = np.empty(n, dtype=np.int64)
                sure[order] = got[:n]
            elif kind == "pairs":
                sure = sum((_tally(kind, size, blocks, *c)
                            for c in _pair_chunks(order, bands[:2])), np.zeros(size, int))
            else:
                sure = _joined(_pair_chunks(order, bands[:2]))
        seen = {}
        for c in group:
            k, omega = cells[c]
            keep = _band_keep(sys, arr, i, j, eps, omega.symbols[: k - 1])
            first[c] = seen.setdefault(keep.tobytes(), c)
            if first[c] != c:
                continue
            i1, j1 = i[keep], j[keep]
            if center is not None:
                out[c] = reduce(float(sure + len(i1)))
            elif kind == "net":
                out[c] = reduce(_net_from_pairs(n, np.concatenate((sure[0], i1)),
                                                np.concatenate((sure[1], j1))))
            else:
                out[c] = reduce(_tallied(kind, sure + _tally(kind, size, blocks, i1, j1), blocks))
    return out


def _pair_results(sys, pset, eps, cells, kind, reduce, blocks, center) -> tuple:
    """(results, first) of _arc_results for the cells whose balls are arcs
    (_arc_groups), and of one pair walk over the trie of the others."""
    arr, order, v = _sorted_array(sys, pset, sort=center is None)  # a center reads no sort
    groups = _arc_groups(sys, arr, eps, cells)
    arcs = {c for *_, group in groups.values() for c in group}
    walk = [c for c in range(len(cells)) if c not in arcs]
    first = list(range(len(cells)))
    got = _arc_results(sys, arr, order, v, eps, cells, groups, kind, reduce, blocks, center, first)
    if walk:
        root, sub = _trie(tuple(cells[c] for c in walk))
        for c, f in zip(walk, sub):
            first[c] = walk[f]
        found = _walk_results(sys, arr, order, v, eps, root, set(sub), kind, reduce, blocks, center)
        got.update((walk[c], r) for c, r in found.items())
    return got, first


def _walk_results(sys, arr, order, v, eps, root, nodes, kind, reduce, blocks, center) -> dict:
    """The reduced result of the kind at every trie node where cells
    end, keyed by its first cell (listed in nodes), from one pair walk;
    results are made and reduced one node at a time.  The stage-0 pairs
    are streamed once (twice for a net).  With a center, the walk's array
    is the center and the points that pair_ops.close keeps with it, its
    pairs (0, b), and a count is one plus the center's surviving pairs."""
    if center is not None:
        near = sys.pair_ops.close(arr[center], arr, eps)
        near[center] = False
        arr = np.concatenate((arr[center:center + 1], arr[near]))
        b = np.arange(1, len(arr), dtype=np.int32)
        chunks = ((0 * b[lo:lo + PAIR_CHUNK], b[lo:lo + PAIR_CHUNK])
                  for lo in range(0, len(b), PAIR_CHUNK))
        count = dict.fromkeys(nodes, 1)  # the center itself
        for c, _, got in _pair_walk(sys, arr, chunks, eps, root, lambda i, j: len(i)):
            count[c] += got
        return {c: reduce(float(count[c])) for c in nodes}
    n = len(arr)
    chunks = _stage0(sys, arr, order, v, eps)
    if kind != "net":
        size, dtype = (n, np.int32) if kind == "balls" else (blocks.n_blocks**2, np.int64)
        acc = {c: np.zeros(size, dtype=dtype) for c in nodes}
        tally = partial(_tally, kind, size, blocks)
        for c, _, got in _pair_walk(sys, arr, chunks, eps, root, tally):
            acc[c] += got
        return {c: reduce(_tallied(kind, acc.pop(c), blocks)) for c in nodes}
    # a net needs all of a node's pairs at once: counted, then streamed
    # again into one list of that size (no freed chunks left on the heap)
    # and walked as views, one bit per pair and node; then node by node
    i0, j0 = np.empty((2, sum(len(i) for i, _ in chunks)), dtype=np.int32)
    views, lo = [], 0
    for i, j in _stage0(sys, arr, order, v, eps):
        i0[lo:lo + len(i)], j0[lo:lo + len(i)] = i, j
        views.append((i0[lo:lo + len(i)], j0[lo:lo + len(i)]))
        lo += len(i)
    acc = {c: np.zeros((len(i0) + 7) // 8, dtype=np.uint8) for c in nodes}
    for c, lo, pos in _pair_walk(sys, arr, views, eps, root):
        pos = pos + lo % 8  # bits from byte lo // 8, small enough for int32
        byte = pos >> 3
        starts = np.flatnonzero(np.diff(byte, prepend=-1))
        acc[c][lo // 8:][byte[starts]] |= np.add.reduceat(1 << (pos & 7), starts).astype(np.uint8)
    out = {}
    for c in nodes:
        hit = np.unpackbits(acc.pop(c), count=len(i0), bitorder="little").view(bool)
        out[c] = reduce(_net_from_pairs(n, i0[hit], j0[hit]))
    return out


def _generic_result(sys, points, eps, k, omega, kind, blocks):
    """The kind's result of one cell by the generic pairwise loop."""
    maps = sys.maps
    stages = [list(points)]
    for s in omega.symbols[: k - 1]:
        stages.append([maps[s - 1](p) for p in stages[-1]])
    metric = sys.metric
    n = len(points)
    gap = blocks.w if kind == "pairs" else 0
    close = [
        (i, j) for i in range(n) for j in range(i + gap + 1, n)
        if not any(metric(st[i], st[j]) > eps for st in stages)
    ]
    i, j = np.array(close, dtype=np.intp).reshape(len(close), 2).T
    if kind == "net":
        return _net_from_pairs(n, i, j)
    acc = _tally(kind, n if kind == "balls" else blocks.n_blocks**2, blocks, i, j)
    return _tallied(kind, acc, blocks)


def _count_cells(
    sys: GeneratorSystem, pset: _PointSet, eps, cells, kind, reduce=None, blocks=None,
    center=None, memo=None,
) -> list:
    """One result per cell (k, word) of one point set and radius, passed
    through reduce if given.  kind "balls": per point, the points in its
    Bowen eps-ball, itself included, as floats, or with a center (a point
    index) the count of its ball alone, a float; "pairs": ordered pairs
    (i, j), |i - j| > w, Bowen-within eps, tallied by (block[i],
    block[j]) of blocks, [orbit, block, block] (one orbit but for a group
    of orbits); "net": the first-come greedy net's indices.
    With ball keys, the cells are counted from their Bowen cylinders
    where WindowOps.cylinder vouches for every cell (memo: as for
    _cylinder_reads), and by one label walk over their prefix trie
    otherwise.  Where a stage raises, the first cell that needs it
    raises, as cell by cell."""
    reduce = reduce or (lambda v: v)
    if center is not None and (sys.ball_key is not None or not _has_pairs(sys)):
        whole, reduce = reduce, lambda counts: whole(counts[center])  # read off all balls
    if sys.ball_key is None and not _has_pairs(sys):
        return [
            reduce(_generic_result(sys, pset.points, eps, k, omega, kind, blocks))
            for k, omega in cells
        ]
    if sys.ball_key is not None:
        kind_read = {
            "balls": lambda labels: np.bincount(labels)[labels].astype(float),
            "pairs": lambda labels: _label_pair_counts(labels, blocks),
            "net": _first_indices,
        }[kind]

        def read(labels):
            return reduce(kind_read(labels))

        def read_widths(widths):
            if kind == "pairs":
                return [reduce(c) for c in _cylinder_pair_counts(pset, widths, blocks)]
            return [read(_cylinder_labels(pset, width)) for width in widths]

        found = _cylinder_reads(sys, pset, eps, cells, read_widths, memo)
        if found is None:
            root, first = _trie(tuple(cells))
            found = _label_walk(sys, pset, eps, root, read), first
        got, first = found
    else:
        got, first = _pair_results(sys, pset, eps, cells, kind, reduce, blocks, center)
    out = [got[c] if c == at else copy.copy(got[c]) for at, c in enumerate(first)]
    for v in out:
        if isinstance(v, Exception):
            raise v
    return out


def _label_pair_counts(labels, blocks: _Blocks, near=None) -> np.ndarray:
    """Ordered pairs (i, j) with equal integer labels and |i - j| > w,
    tallied by (block[i], block[j]) of blocks, as [orbit, block, block]:
    labels hold one or more orbits of len(blocks.block) points, one after
    another, and no label lies in two of them.

    Linear in the number of points: per-block label histograms give
    every equal-label pair (_hist_pair_counts), and the diagonal and the
    lags 1..w are subtracted back out, all lags in one count over their
    block-pair keys, unless near gives that count already (see
    _lag_pair_counts).  An orbit's histogram spans only its own labels,
    from its least.
    """
    block, n_blocks, n = blocks.block, blocks.n_blocks, len(blocks.block)
    rows = labels.reshape(-1, n)
    rows = rows - rows.min(axis=1, keepdims=True)
    at, n_labels = np.arange(len(rows))[:, None], int(rows.max()) + 1
    hist = np.bincount(
        ((at * n_blocks + block) * n_labels + rows).ravel(),
        minlength=at.size * n_blocks * n_labels,
    ).reshape(-1, n_blocks, n_labels)
    if near is None and blocks.lags:
        pos = [np.flatnonzero(labels[d:] == labels[:-d]) for d in range(1, blocks.w + 1)]
        near = np.bincount(  # no lag pair joins two orbits: their labels differ
            np.concatenate([p // n * n_blocks**2 + k[p % n] for p, k in zip(pos, blocks.lags)]),
            minlength=len(rows) * n_blocks**2,
        ).reshape(-1, n_blocks, n_blocks)
    return _hist_pair_counts(hist, blocks, near)


def _hist_pair_counts(hist, blocks: _Blocks, near) -> np.ndarray:
    """The pair counts of _label_pair_counts from per-orbit block x label
    histograms hist [orbit, block, label] and the lag pairs near (None:
    no lags), both tallied as [orbit, block, block].  The histogram
    product runs in floats, through BLAS, and is exact: its terms are
    nonnegative integers and every partial sum is at most n**2 for
    orbits of n points, which float32 holds exactly while n**2 < 2**24
    and float64 while n**2 < 2**53; longer orbits multiply in int64
    (_hist_dtype)."""
    hist = hist.astype(_hist_dtype(len(blocks.block)), copy=False)
    counts = (hist @ hist.transpose(0, 2, 1)).astype(np.int64)
    counts -= np.diag(np.bincount(blocks.block, minlength=blocks.n_blocks))
    if near is not None:
        counts -= near + near.transpose(0, 2, 1)
    return counts


def _hist_dtype(n: int):
    """The dtype in which histograms of orbits of n points multiply
    exactly (see _hist_pair_counts), and hold their counts."""
    return np.float32 if n**2 < 2**24 else float if n**2 < 2**53 else np.int64


def _lag_pair_counts(win, widths, blocks: _Blocks) -> list:
    """Per width of widths, the lag pairs (i, i + d), d = 1..w, of the
    windows win of one or more orbits of len(blocks.block) points whose
    low `width` bits agree, tallied by (block[i], block[i + d]) as
    [orbit, block, block] (None without lags).  The pairs that agree on
    the least width are read once, from the lagged windows' xor, and
    each width keeps those whose xor it masks to zero."""
    if not blocks.lags:
        return [None] * len(widths)
    n_blocks, n = blocks.n_blocks, len(blocks.block)
    low = _low_mask(min(widths))
    keys, xors = [], []
    for d, lag in enumerate(blocks.lags, 1):
        xor = win[d:] ^ win[:-d]
        p = np.flatnonzero(xor & low == 0)
        p = p[p % n < n - d]  # no lag pair joins two orbits
        keys.append(p // n * n_blocks**2 + lag[p % n])
        xors.append(xor[p])
    keys, xors = np.concatenate(keys), np.concatenate(xors)
    size = len(win) // n * n_blocks**2
    return [np.bincount(keys[xors & _low_mask(width) == 0], minlength=size)
            .reshape(-1, n_blocks, n_blocks) for width in widths]


def _low_mask(width: int) -> np.uint64:
    return np.uint64((1 << width) - 1)


def _cylinder_pair_counts(pset: _PointSet, widths, blocks: _Blocks) -> list:
    """_label_pair_counts of the point set's cylinder labels at each of
    widths, in order, from one read of its windows: the lag pairs of
    every width at once (_lag_pair_counts), one folded histogram for the
    widths whose block x label histogram holds at most RANK_TABLE_RATIO
    columns a point (_folded_pair_counts), and ranked labels for the
    wider ones (_cylinder_labels)."""
    win, n = pset.wins[0], len(blocks.block)
    near = dict(zip(widths, _lag_pair_counts(win, widths, blocks)))
    rows = len(win) // n * blocks.n_blocks  # block rows of the histogram
    fold = [w for w in widths if rows << w <= RANK_TABLE_RATIO * len(win)]
    out = _folded_pair_counts(win, fold, blocks, near) if fold else {}
    return [out[w] if w in out else _label_pair_counts(_cylinder_labels(pset, w), blocks, near[w])
            for w in widths]


def _folded_pair_counts(win, widths, blocks: _Blocks, near: dict) -> dict:
    """{width: pair counts} of the windows win of one or more orbits of
    len(blocks.block) points, labelled by their low `width` bits, from
    one [orbit, block, label] histogram at the widest of widths, folded
    down to each narrower one: a label's low bits are its label there.
    The counts it folds are at most n, exact in the histogram product's
    dtype (_hist_dtype)."""
    n, n_blocks, top = len(blocks.block), blocks.n_blocks, max(widths)
    orbits = len(win) // n
    keys = (win & _low_mask(top)).astype(np.intp)
    keys |= ((np.arange(orbits)[:, None] * n_blocks + blocks.block) << top).ravel()
    hist = np.bincount(keys, minlength=orbits * n_blocks << top).astype(_hist_dtype(n))
    hist = hist.reshape(orbits, n_blocks, -1)
    return {w: _hist_pair_counts(
        hist if w == top else hist.reshape(orbits, n_blocks, -1, 1 << w).sum(axis=2),
        blocks, near[w]) for w in widths}


# ---------------------------------------------------------------------------
# Empirical measure


@dataclass(frozen=True)
class EmpiricalMeasure:
    """N sample points standing in for the reference measure.

    Ball measures are counting fractions over the sample; a center that
    is itself a sample point always contributes, so values stay in
    [1/N, 1].
    """

    points: tuple

    def __post_init__(self):
        if len(self.points) < 1:
            raise ValueError("need at least one sample point")

    @property
    def n(self) -> int:
        return len(self.points)

    @classmethod
    def draw(cls, sys: GeneratorSystem, n_points: int, seed: int):
        if n_points < 1:
            raise ValueError("n_points must be >= 1")
        rng = substream(seed, MU)
        return cls(tuple(sys.mu_sampler(rng, n_points)))

    def _point_set(self, sys) -> _PointSet:
        """The sample as a point set of sys, converted once per measure
        and to_windows (a power system keeps its base's)."""
        memo = self.__dict__.setdefault("_point_sets", {})
        key = sys.window_ops and sys.window_ops.to_windows
        if key not in memo:
            memo[key] = _as_point_set(sys, self.points)
        return memo[key]

    def ball_measures(self, sys, omega, k, eps) -> np.ndarray:
        """Empirical Bowen-ball measure centered at every sample point."""
        _check_eps(eps)
        _check_word(sys, omega, k)
        return _cell_measures(self, sys, eps, [(k, omega)])[0]


def _center_index(measure, center) -> int:
    """The index of center's first copy in the measure's sample."""
    at = next((i for i, p in enumerate(measure.points) if p == center), None)
    if at is None:
        raise CenterNotInSample("center must be one of the sample points")
    return at


def _cell_measures(measure, sys, eps, cells, reduce=lambda m: m, center=None) -> list:
    """reduce(the Bowen eps-ball measures at the sample points, or at the
    point of index center alone) of every (k, word) cell: an empirical
    measure counts all the cells at once (_count_cells), and a closed form
    measure(eps, word, k) (binary.ball_measure) answers per cell."""
    if isinstance(measure, EmpiricalMeasure):
        pset, n = measure._point_set(sys), measure.n
        return _count_cells(
            sys, pset, eps, cells, "balls", lambda counts: reduce(counts / n), center=center
        )
    at = slice(None) if center is None else center
    return [reduce(np.full(1, measure(eps, w, k))[at]) for k, w in cells]


# ---------------------------------------------------------------------------
# Correlation sum


@dataclass(frozen=True)
class CorrSumEstimate:
    """Correlation sum averaged over sampled driving words.

    `per_upsilon` holds one windowed off-diagonal pair fraction per
    driving word, each in [1/n, 1]; `value` is their mean; `stderr` is
    the delete-a-block jackknife error of `value` over orbit time
    blocks, 0.0 when the orbit is too short to cut into two blocks.
    """

    value: float
    stderr: float
    n: int
    k: int
    epsilon: float
    m_upsilon: int
    per_upsilon: tuple[float, ...] = field(repr=False, default=())


@lru_cache(maxsize=1)
def _upsilon_orbits(sys, x, n, m_upsilon, seed, weights) -> tuple[_PointSet, ...]:
    """Orbits of x along m_upsilon independently sampled driving words,
    in groups of ORBIT_GROUP consecutive orbits on systems with ball keys
    (one count labels a group; see _orbit_pair_counts) and of one orbit
    otherwise, as stage-0 pairs must not join two orbits.

    On systems with window_ops the orbits are windows, built for all the
    words into one pair of arrays whose slices the groups hold, and built
    as points only if a stage needs exact keys; when the windows cannot
    be built the points are built at once, raising where the maps raise.
    Equal arguments share the orbit set of the latest call, so the (eps,
    k) calls of one run build it once; a call that raised is not kept."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if m_upsilon < 1:
        raise ValueError("m_upsilon must be >= 1")
    if weights is None:
        weights = uniform_spec(sys.m)
    _check_weights(weights, sys.m)
    words = [sample_symbols(weights, n - 1, substream(seed, UPSILON, j)) for j in range(m_upsilon)]
    maps = sys.maps

    def orbit_points(group):
        return [
            p for syms in group
            for p in itertools.accumulate(syms.tolist(), lambda p, s: maps[s - 1](p), initial=x)
        ]

    size = ORBIT_GROUP if sys.ball_key is not None else 1
    groups = [(lo * n, words[lo:lo + size]) for lo in range(0, m_upsilon, size)]
    wins = None if sys.window_ops is None else sys.window_ops.orbit_windows(x, words, n)
    return tuple(  # without windows, points at once, raising in orbit order
        _PointSet(wins and tuple(w[at:at + len(group) * n] for w in wins),
                  points=None if wins else orbit_points(group),
                  make=partial(orbit_points, group), orbits=len(group))
        for at, group in groups
    )


@lru_cache(maxsize=1)
def _time_blocks(n: int) -> tuple[_Blocks, np.ndarray]:
    """correlation_sum's layout for orbits of n points: min(JACKKNIFE_BLOCKS,
    n) contiguous time blocks and a THEILER_WINDOW lag window, with the
    count of all its pairs per block pair (the normaliser); made once per
    n and read-only, as every call shares them."""
    n_blocks = min(JACKKNIFE_BLOCKS, n)
    blocks = _blocks(np.arange(n) * n_blocks // n, n_blocks, THEILER_WINDOW)
    pairs = _label_pair_counts(np.zeros(n, dtype=np.intp), blocks)
    for a in (blocks.block, *blocks.lags, pairs):
        a.setflags(write=False)
    return blocks, pairs


class CorrSumSweep(tuple):
    """The CorrSumEstimate of every horizon of one correlation_sum call,
    in the order given; they share the call's radius, orbits and
    m_upsilon."""

    __slots__ = ()

    @property
    def m_upsilon(self) -> int:
        return self[0].m_upsilon


def correlation_sum(
    sys: GeneratorSystem,
    x,
    eps: float,
    omega: SymbolWord,
    k: int | Sequence[int],
    n: int,
    m_upsilon: int,
    seed: int,
    weights: BernoulliSpec | None = None,
) -> CorrSumEstimate | CorrSumSweep:
    """Fraction of Bowen-close pairs among the first n orbit points,
    averaged over m_upsilon sampled driving words.

    Each driving word contributes the fraction of ordered pairs (i, j)
    with |i - j| > THEILER_WINDOW whose Bowen distance along omega is
    <= eps, floored at 1/n so values stay in [1/n, 1]; an orbit with no
    such pairs contributes the floor.  Leaving out the diagonal and
    short lags removes the bias they add above the orbit limit.

    The standard error is the delete-a-block jackknife of the
    word-averaged value: the orbits are cut into min(JACKKNIFE_BLOCKS,
    n) contiguous time blocks, the same in every orbit, and the value is
    recomputed with each block's pairs left out in turn.  All driving
    words start at x, so the spread across them would not measure the
    error in the orbit limit; time blocks do.  With fewer than two
    blocks (n = 1) the standard error is 0.0.  Only the first k-1
    symbols of omega enter.

    k is one horizon, or a sequence of them for a CorrSumSweep equal to
    one call per horizon, raising as the first of those calls that
    raises would: its horizons are counted at once, one pass over each
    orbit group's windows for all of their cylinder widths (see
    _cylinder_pair_counts).  Calls with equal (sys, x, n, m_upsilon,
    seed, weights) share one orbit set, built by the first of them, and
    on the binary backend with it each orbit group's pair counts per
    cylinder width L + s (see _orbit_pair_counts): calls whose radius and
    prefix give one width, at any eps and k, count once.
    """
    _check_eps(eps)
    one = isinstance(k, numbers.Integral)
    ks = [k] if one else list(k)
    if not ks:
        raise ValueError("need at least one horizon")
    checked, failed = [], None
    for h in ks:  # a bad horizon raises after the ones before it count
        try:
            _check_word(sys, omega, h)
        except FsgError as exc:
            failed = exc
            break
        checked.append(h)
    found = checked and _corr_sums(sys, x, eps, omega, checked, n, m_upsilon, seed, weights)
    if failed is not None:
        raise failed
    return found[0] if one else CorrSumSweep(found)


def _corr_sums(sys, x, eps, omega, ks, n, m_upsilon, seed, weights) -> list[CorrSumEstimate]:
    """correlation_sum's estimate of every horizon of ks, from one count
    of all of them; where that count raises, the first horizon whose
    count alone raises does."""
    orbits = _upsilon_orbits(sys, x, n, m_upsilon, seed, weights)
    blocks, pairs = _time_blocks(n)
    n_blocks = blocks.n_blocks
    cells = [(k, omega) for k in ks]
    try:
        totals = _orbit_pair_counts(sys, orbits, eps, cells, blocks, _block_totals)
    except FsgError:  # raised by the first failing orbit (see _orbit_pair_counts)
        for cell in cells[:-1]:  # an earlier horizon that fails alone raises first
            _orbit_pair_counts(sys, orbits, eps, [cell], blocks, _block_totals)
        raise  # else the last one fails, first at that orbit
    out = []
    for k, close in zip(ks, totals):
        values = _floored_fraction(close[:, 0], pairs.sum(), n).tolist()
        value = math.fsum(values) / m_upsilon
        stderr = 0.0
        if n_blocks > 1:
            dropped = _floored_fraction(
                close[:, 1:], _without_each_block(pairs), n
            ).mean(axis=0)
            spread = float(((dropped - dropped.mean()) ** 2).sum())
            stderr = math.sqrt((n_blocks - 1) / n_blocks * spread)
        out.append(CorrSumEstimate(value, stderr, n, k, eps, m_upsilon, tuple(values)))
    return out


def _orbit_pair_counts(sys, groups, eps, cells, blocks, reduce=None) -> np.ndarray:
    """Bowen-close ordered pairs of every orbit and (k, word) cell,
    tallied by blocks, as an int array [cell, orbit, block, block], or
    [cell, orbit, ...] of reduce, which maps a group's counts [cell,
    orbit, block, block] to per-orbit rows as soon as they are made.  One
    count per group of orbits (see _upsilon_orbits), whose reads split
    per orbit, so only one group's labels or stage-0 pairs are ever
    alive.  A group keeps its cylinders' counts per width, with the
    blocks layout they were made for (held by identity), so calls whose
    radius and prefix give one width read once.  A group that raises is
    walked again one orbit at a time, so the first failing orbit, in
    orbit order, raises as it would alone.  Every cell's counts are
    copies."""
    reduce = reduce or (lambda counts: counts)
    out = []
    for group in groups:
        memo = group.counts[1] if group.counts and group.counts[0] is blocks else {}
        group.counts = blocks, memo
        try:
            got = _count_cells(sys, group, eps, cells, "pairs", blocks=blocks, memo=memo)
        except FsgError:  # DepthExhausted, CarryOverflow
            if group.orbits == 1:
                raise
            got = _orbit_pair_counts(sys, group.split(), eps, cells, blocks)
        out.append(reduce(np.stack(got)))
    return np.concatenate(out, axis=1)


def _block_totals(counts: np.ndarray) -> np.ndarray:
    """[..., 1 + block]: the total of block-pair counts [..., block,
    block], then their totals without each block, all that
    correlation_sum reads of an orbit's counts."""
    return np.concatenate((counts.sum(axis=(-2, -1))[..., None], _without_each_block(counts)),
                          axis=-1)


def _without_each_block(counts: np.ndarray) -> np.ndarray:
    """Total of the block-pair counts (last two axes) with block b's row
    and column left out, for every b."""
    return (
        counts.sum(axis=(-2, -1))[..., None]
        - counts.sum(axis=-1)
        - counts.sum(axis=-2)
        + np.diagonal(counts, axis1=-2, axis2=-1)
    )


def _floored_fraction(close, pairs, n: int) -> np.ndarray:
    """close / pairs floored at 1/n; the floor where there are no pairs."""
    frac = np.divide(close, pairs, out=np.zeros(np.shape(close)), where=pairs > 0)
    return np.maximum(frac, 1.0 / n)


# ---------------------------------------------------------------------------
# Correlation integral and entropy series


def _q_log_mean(logs: np.ndarray, q: float) -> float:
    """log of the q-mean of ball measures, given their logs.

    Computed in the log domain (log-sum-exp) around the extreme log,
    the largest for q > 1 and the smallest for q < 1, so every exponent
    (q - 1) * (log - extreme) is <= 0 and no finite q can overflow; a
    constant input short-circuits to that constant, which is the exact
    value for every q.
    """
    first = float(logs[0])
    if np.all(logs == logs[0]):
        return first
    if q == 1.0:
        return math.fsum(logs.tolist()) / len(logs)
    ext = float(logs.max() if q > 1.0 else logs.min())
    with np.errstate(over="ignore"):  # an exponent of -inf adds exactly 0
        a = (q - 1.0) * (logs - ext)
    return ext + math.log(math.fsum(np.exp(a).tolist()) / len(a)) / (q - 1.0)


def _series_cells(m, k_list, weights, m_omega, seed):
    """The weighted words of every horizon of k_list, one omega_words
    call each, and the flat list of their (k, word) cells."""
    word_sets = [omega_words(m, k, weights, m_omega, seed) for k in k_list]
    return word_sets, [(k, w) for k, words in zip(k_list, word_sets) for w, _ in words]


def _by_horizon(values, word_sets) -> list:
    """Values of the flat cell list, split back into one list per horizon."""
    it = iter(values)
    return [[next(it) for _ in words] for words in word_sets]


def _word_mean(values, words, exhaustive) -> tuple[float, float]:
    """Weighted word average of one horizon's values, and its standard
    error: 0.0 for an exhaustive average, else the spread of the draws."""
    mean = _weighted_mean(values, [wt for _, wt in words])
    if exhaustive or len(values) < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1)) / math.sqrt(len(values))


def _word_averaged(sys, eps_list, k_list, m_omega, seed, weights, values, **series):
    """One series per radius with rows (k, a / k): a is the word average
    of values(eps, cells) over the horizon's (k, word) cells, drawn once
    for every radius, and its standard error over k is the row's."""
    word_sets, cells = _series_cells(sys.m, k_list, weights, m_omega, seed)
    out = []
    for eps in eps_list:
        per_k = _by_horizon(values(eps, cells), word_sets)
        found = [
            _word_mean(vals, words, exhaustive_omega(sys.m, k, m_omega))
            for k, words, vals in zip(k_list, word_sets, per_k)
        ]
        rows = [(k, a / k) for k, (a, _) in zip(k_list, found)]
        ses = [se / k for k, (_, se) in zip(k_list, found)]
        out.append(EntropySeries(eps, rows, stderrs=ses, **series))
    return out


def corr_entropy_series(
    measure,
    sys: GeneratorSystem,
    eps_list,
    k_list,
    q: float,
    m_omega: int,
    seed: int,
    weights: BernoulliSpec | None = None,
) -> list[EntropySeries]:
    """One series per epsilon with rows (k, -c/k), c the correlation
    integral; the limit extraction over k and the epsilon trend are left
    to the limits module.  A closed-form measure (binary.ball_measure,
    any measure but an EmpiricalMeasure) makes the rows affine in 1/k
    when every horizon's words are enumerated: such series are marked
    exact, which k_limit slope-fits."""
    _check_grids(eps_list, k_list)
    if not math.isfinite(q):
        raise ConfigInvalid("q", "must be finite")
    return _word_averaged(
        sys, eps_list, k_list, m_omega, seed, weights,
        lambda eps, cells: _cell_measures(
            measure, sys, eps, cells, lambda m: -_q_log_mean(np.log(m), q)
        ),
        q=q, exact=not isinstance(measure, EmpiricalMeasure)
        and all(exhaustive_omega(sys.m, k, m_omega) for k in k_list),
    )


def _check_grids(eps_list, k_list):
    """Radii finite, strictly positive and decreasing, horizons >= 1 and
    strictly increasing; the experiment config checks its grids here
    too, hence ConfigInvalid (a ValueError) named after its fields."""
    if not eps_list:
        raise ConfigInvalid("epsilons", "need at least one value")
    if not all(0 < e < math.inf for e in eps_list):
        raise ConfigInvalid("epsilons", "must be finite and strictly positive")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigInvalid("epsilons", "must be strictly decreasing")
    if not k_list or any(k < 1 for k in k_list):
        raise ConfigInvalid("ks", "must all be >= 1")
    if any(b <= a for a, b in zip(k_list, k_list[1:])):
        raise ConfigInvalid("ks", "must be strictly increasing")


def _log_word_mean(fractions, words) -> tuple[float, float]:
    """Weighted word mean of the log orbit-averaged pair fraction, and
    its variance from the spread of each word's fractions over orbits."""
    wts = [wt for _, wt in words]
    logs, rel = [], []
    for vals in fractions:
        c = math.fsum(vals) / len(vals)
        s = np.std(vals, ddof=1) / math.sqrt(len(vals)) if len(vals) > 1 else 0.0
        logs.append(math.log(c))
        rel.append(float(s) / c)
    return _weighted_mean(logs, wts), math.fsum((w * s) ** 2 for w, s in zip(wts, rel))


def local_corr_entropy_series(
    sys: GeneratorSystem,
    x,
    eps_list,
    k_list,
    n: int,
    m_upsilon: int,
    m_omega: int,
    seed: int,
    weights: BernoulliSpec | None = None,
) -> list[EntropySeries]:
    """Local correlation entropy integrand at a starting point x.

    The inner limit over orbit length is approximated by one large n,
    with a stability check: each row also evaluates the correlation sum
    at n/2 (same driving words), and the row is flagged "unstable" when
    the two word-averaged values differ by more than twice their
    combined standard error.  The n/2 value comes from the same count:
    the close pairs among the first max(1, n // 2) orbit points.
    """
    _check_grids(eps_list, k_list)
    orbits = _upsilon_orbits(sys, x, n, m_upsilon, seed, weights)
    h = max(1, n // 2)
    halves = _blocks((np.arange(n) >= h).astype(np.intp), 2)
    word_sets, cells = _series_cells(sys.m, k_list, weights, m_omega, seed)
    out = []
    for eps in eps_list:
        close = _orbit_pair_counts(sys, orbits, eps, cells, halves)
        full = _by_horizon(((n + close.sum(axis=(2, 3))) / n**2).tolist(), word_sets)
        half = _by_horizon(((h + close[:, :, 0, 0]) / h**2).tolist(), word_sets)
        rows, ses, flags = [], [], []
        for k, words, full_k, half_k in zip(k_list, word_sets, full, half):
            mean_full, var_full = _log_word_mean(full_k, words)
            mean_half, var_half = _log_word_mean(half_k, words)
            tol = 2.0 * math.sqrt(var_full + var_half)
            rows.append((k, 0.0 - mean_full / k))  # no -0.0
            ses.append(math.sqrt(var_full) / k)
            flags.append("" if abs(mean_full - mean_half) <= tol or tol == 0.0 else "unstable")
        out.append(EntropySeries(eps, rows, stderrs=ses, flags=flags))
    return out


# ---------------------------------------------------------------------------
# Separated sets and topological entropy


def top_entropy_series(
    measure: EmpiricalMeasure,
    sys: GeneratorSystem,
    eps_list,
    k_list,
    m_omega: int,
    seed: int,
    weights: BernoulliSpec | None = None,
) -> list[EntropySeries]:
    """Growth rate of separated-set cardinality: rows are the word
    average of log #separated divided by k.

    Each cell's separated set is the first-come greedy net of the
    sample: a point is kept unless it is Bowen-within eps of an already
    kept one.  The kept points are pairwise more than eps apart, a
    maximal separated subset (a lower bound on the maximum packing), and
    by maximality a Bowen eps-cover of the sample, the measure's points.
    With a finite sample and a greedy packing the rows are biased low,
    approaching the true rate as the sample fills the space.  The sample
    is converted once per measure (its _point_set), as for every other
    estimator given the same measure, and before the first word.
    """
    _check_grids(eps_list, k_list)
    pset = measure._point_set(sys)
    return _word_averaged(
        sys, eps_list, k_list, m_omega, seed, weights,
        lambda eps, cells: _count_cells(
            sys, pset, eps, cells, "net", lambda kept: math.log(len(kept))
        ),
    )


# ---------------------------------------------------------------------------
# Doubling diagnostic and local entropy


def doubling_series(
    measure, sys: GeneratorSystem, omega, eps_list, k_list
) -> list[EntropySeries]:
    """Entropy-doubling diagnostic along one word: one series per
    epsilon with rows (k, (1/k) * log of the worst ratio of 2eps- to
    eps-ball measures over the sample centers).  Trending to 0 in k is
    the signature of a doubling-friendly measure.  Every horizon of a
    radius is counted at once at eps and once more at 2 eps."""
    _check_grids(eps_list, k_list)
    _check_word(sys, omega, k_list[-1])
    cells = [(k, omega) for k in k_list]
    out = []
    for eps in eps_list:
        m1, m2 = (_cell_measures(measure, sys, e, cells) for e in (eps, 2.0 * eps))
        rows = [(k, math.log(float((b / a).max())) / k) for k, a, b in zip(k_list, m1, m2)]
        out.append(EntropySeries(eps, rows))
    return out


def local_entropy_series(
    measure, sys: GeneratorSystem, omega, x, eps_list, k_list
) -> list[EntropySeries]:
    """Decay rate of the ball measure at a fixed center x along a fixed
    word: rows (k, -(1/k) log measure(Bowen ball)).  Every horizon of a
    radius is counted at once, reading x's ball alone (a closed form,
    the same at every centre, ignores x)."""
    _check_grids(eps_list, k_list)
    _check_word(sys, omega, k_list[-1])
    cells = [(k, omega) for k in k_list]
    at = _center_index(measure, x) if isinstance(measure, EmpiricalMeasure) else 0
    out = []
    for eps in eps_list:
        found = _cell_measures(measure, sys, eps, cells, center=at)
        rows = [(k, 0.0 - math.log(m) / k) for k, m in zip(k_list, found)]  # no -0.0
        out.append(EntropySeries(eps, rows))
    return out
