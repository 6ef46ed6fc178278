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
  point set and radius and walks the prefix trie of their words' first
  k-1 symbols, so each distinct prefix is paid for once; ball counts,
  pair counts and greedy nets are read off where cells end.  A
  correlation sum or a ball-measure call is the one-cell case; local
  entropy counts the ball of its center alone.
* With ball keys, a trie node folds its stage keys into its parent's
  integer labels, equal for two points exactly when they are
  Bowen-within eps along the prefix.  Labels are the dense ranks of the
  packed stage keys, made with no sort while the key space is small
  (RANK_TABLE_RATIO), and greedy nets and pair counts read them in
  linear time.  Nodes with the same non-isometric letters in order
  (binary: the same shift count) share one fold and one read, held
  until the last of them.  On the binary backend the keys
  come from uint64 windows, made once per point set (the sample, or
  each driving word's orbit); below a node whose windows cannot decide,
  the exact stage keys of the points take over.  A point set keeps the
  window state and labels where its latest walk ended, for one radius,
  and a walk at that radius down a longer prefix of the same word
  resumes there: the nested horizons of a corr-sum run, one call per
  (eps, k), label one more stage each (a series walks all its own at
  once), and reuse the kept result where the read is the same.  Labels
  from exact keys, or from a walk that raised, are never kept.
* On the circle family (pair_ops) a sort-sweep finds the pairs within
  eps at stage 0 once per count, and every node filters its parent's
  surviving pairs through its own stage with the metric's own float
  expression, systems.PAIR_CHUNK stage-0 pairs at a time; no N x N
  matrix is built.  Ball and pair counts are tallied only where cells
  end, by difference down the trie: such a node that keeps most of the
  pairs of its nearest tallied ancestor subtracts the tally of those
  dropped since from the ancestor's, so no node tallies more pairs than
  it keeps.  A rotation node (sys.isometries) keeps untested a
  chunk whose pairs all lay within eps - PAIR_MARGIN where last tested,
  as it moves a distance by ulps only.  A one-center count takes the
  center's pairs from pair_ops.close against every point, with no sweep.
* Both orbit estimators count Bowen-close pairs through one counter,
  one orbit at a time, which tallies ordered off-diagonal pairs outside
  a lag window by pairs of orbit-time blocks.  correlation_sum leaves
  out lags up to THEILER_WINDOW and floors each value at 1/n, so it
  lives in [1/n, 1].  local_corr_entropy_series counts the diagonal
  too, and reads its n/2 value off the (head, head) block of the same
  count.  Ball counting includes the center itself, so empirical ball
  measures live in [1/N, 1].  Logs and negative powers stay finite.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, field
from functools import cache, lru_cache, partial
from operator import is_
from typing import NamedTuple

import numpy as np

from . import systems
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
from .words import BernoulliSpec, SymbolWord, sample_word, uniform_spec

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

# A label fold ranks its packed keys through a table of 2**width flags,
# and sorts them instead once the table would hold more than this many
# flags per point: filling and summing the table then costs more than
# sorting the keys (about 4 flags per point breaks even for 4000 points).
RANK_TABLE_RATIO = 4

# Isometric trie nodes a sure pair set passes untested in a row (see
# _pair_walk).  A rotation rounds fl(x + a), and % 1.0 only 1.0 plus a
# negative remainder, so it moves the computed distance of two points of
# [0, 1] by 2**-51 at most, times the rotations a symbol composes (<= 20,
# by MAX_ALPHABET): 2**14 such nodes stay below 1.5e-10 < PAIR_MARGIN.
SURE_STAGES = 1 << 14


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
# a trie walk over integer Bowen labels (ball keys, from uint64 windows
# where the system has window_ops), a trie walk over sparse pair lists
# (pair_ops and array_ops), and the generic pairwise loop, one cell at a
# time, which the tests keep as the oracle for the other two.


class _PointSet:
    """The points of one estimator call, plus their window form on
    systems with window_ops: converted once and reused for every word.
    `make` builds the points on first use, so orbits whose windows
    decide every stage never exist as points.  On systems with
    window_ops, `labelled` is the end of the latest label walk that kept
    its labels, unless a later walk started at stage 0: (eps, path,
    carried) of the walk's radius and last node where cells end, its
    window state, folded labels and latest read, for the next walk at
    that radius to resume from (see _label_walk), or None; labels made
    from exact points are never kept."""

    def __init__(self, wins, points=None, make=None):
        self.wins = wins
        self._points = points
        self._make = make
        self.labelled = None

    @property
    def points(self):
        if self._points is None:
            self._points = self._make()
        return self._points


def _as_point_set(sys: GeneratorSystem, points) -> _PointSet:
    points = tuple(points)  # no copy of a measure's own tuple
    ops = sys.window_ops
    return _PointSet(None if ops is None else ops.to_windows(points), points)


def _has_pairs(sys: GeneratorSystem) -> bool:
    return sys.pair_ops is not None and sys.array_ops is not None


def _trie(cells):
    """Prefix trie of cells (k, word): a node is [symbol, children by
    symbol, indices of the cells ending there], and a cell ends at the
    node of its word's first k-1 symbols.  Also returns, per cell, the
    first cell ending at its node, which names the node's result."""
    root = [None, {}, []]
    first = []
    for c, (k, omega) in enumerate(cells):
        node = root
        for s in omega.symbols[: k - 1]:
            node = node[1].setdefault(s, [s, {}, []])
        node[2].append(c)
        first.append(node[2][0])
    return root, first


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
    gives them.  While the packed keys fit in a table of at most
    RANK_TABLE_RATIO flags per point, the ranks are a cumulative count of
    the keys seen, with no sort; wider keys are sorted."""
    top = 0 if labels is None else int(labels.max(initial=0)).bit_length()
    if top + bits > 64:
        _, part = np.unique(row, return_inverse=True)
        row = labels * (int(part.max()) + 1) + part
    else:
        if top:
            row = (labels.astype(np.uint64) << np.uint64(bits)) | row
        if 1 << (top + bits) <= RANK_TABLE_RATIO * len(row):
            seen = np.zeros(1 << (top + bits), dtype=bool)
            seen[row] = True
            return np.cumsum(seen)[row] - 1
    _, labels = np.unique(row, return_inverse=True)
    return labels


def _first_indices(labels) -> np.ndarray:
    """The index at which each label of a dense-rank labelling first
    appears, in increasing order (np.sort(np.unique(labels,
    return_index=True)[1])), in one pass."""
    at = np.arange(len(labels))
    first = np.full(int(labels.max()) + 1, len(labels))
    np.minimum.at(first, labels, at)
    return np.flatnonzero(first[labels] == at)


def _label_walk(sys: GeneratorSystem, pset: _PointSet, eps, root, read, key) -> dict:
    """read(labels) at every trie node where cells end, keyed by its
    first cell; labels agree for two points exactly when their ball keys
    agree at every stage of the node's prefix.  A node moves its parent's
    windows one stage on and packs its keys into a pending uint64 row,
    folded into the labels only where cells end or the row is full; from
    a node whose windows cannot decide, exact stage keys take over.  A
    stage that raises leaves its exception at every cell below it.

    A node's signature, its parent's plus its letter unless that is an
    isometry (sys.isometries), fixes its partition (binary: its shift
    count).  The first node of a signature where cells end folds and
    reads; a later one still moves its windows or points, so it raises
    where it would, but takes the first one's labels and a copy of its
    read, held only while a later node of the signature, as counted
    beforehand, is still to come (none on power systems of the binary
    backend, which have no isometries).

    The walk resumes where the point set's kept walk ended
    (pset.labelled) when that walk was at eps and the trie runs down its
    node's prefix from the root without branching and without a cell
    ending above it, as the nested horizons of one word do; otherwise it
    starts at stage 0 and drops the kept labels.  Its own last node where
    cells end is kept, with its read and key, unless that node's labels
    came from exact points or its stage raised; a resumed walk takes the
    kept read for the node's signature if the kept key, the objects read
    depends on, is key by identity.
    Folding stage by stage makes the same partition as one wide fold,
    and the readers see only the partition, so no result depends on
    where a walk started or which node of a signature read first."""
    out, last, shared, iso = {}, None, {}, sys.isometries
    resumed = _resume_node(root, eps, pset.labelled)
    if resumed is None:
        pset.labelled = None  # its end replaces them: free them for its stages
        node, path, carried = root, (), (None, None, None, 0, 0)
    else:
        node, path, carried = resumed
        carried, (kept_key, kept) = carried[:5], carried[5]
    top = tuple(s for s in path if s not in iso)
    uses = _signature_uses(node, top, iso)
    if resumed and uses[top] and all(map(is_, kept_key, key)):
        shared[top] = carried[2], kept
    stack = [(node, path, top, carried, None if resumed is None else False)]  # False: staged
    while stack:
        node, path, sig, carried, failed = stack.pop()
        if failed is None:
            try:
                taken = shared[sig][0] if node[2] and sig in shared else None
                carried = _label_stage(sys, pset, eps, node, path, *carried, taken)
            except FsgError as exc:  # DepthExhausted, CarryOverflow
                failed = exc
        if node[2]:
            uses[sig] -= 1
            got = shared.get(sig) if uses[sig] else shared.pop(sig, None)
            if not failed and got is None:
                state, points, labels, row, bits = carried
                if bits or labels is None:  # keys pending, or no labels yet
                    labels = _fold(labels, row, bits)
                    carried = state, points, labels, 0, 0
                got = labels, read(labels)
                if uses[sig]:
                    shared[sig] = got
            out[node[2][0]] = failed or copy.copy(got[1])
            last = path, carried, failed, got
        stack.extend((kid, path + (kid[0],), sig if kid[0] in iso else sig + (kid[0],), carried,
                      failed or None) for kid in node[1].values())
    if last is not None and not last[2] and last[1][1] is None:  # window labels
        pset.labelled = eps, last[0], last[1] + ((key, last[3][1]),)
    return out


def _signature_uses(top, sig, iso):
    """How many of top (signature sig) and the nodes below it end cells,
    by signature."""
    uses, todo = {}, [(top, sig)]
    while todo:
        node, sig = todo.pop()
        uses[sig] = uses.get(sig, 0) + bool(node[2])
        todo.extend((kid, sig if kid[0] in iso else sig + (kid[0],)) for kid in node[1].values())
    return uses


def _resume_node(root, eps, labelled):
    """(node, path, carried) for labelled = (eps, path, carried): the
    trie node at path, if every node above it has one child and no cell
    ending there; else None, as for labels kept at another radius."""
    if labelled is None or labelled[0] != eps:
        return None
    _, path, carried = labelled
    node = root
    for s in path:
        if node[2] or len(node[1]) != 1 or s not in node[1]:
            return None
        node = node[1][s]
    return node, path, carried


def _label_stage(sys, pset, eps, node, path, state, points, labels, row, bits, taken):
    """One node of the label walk: its window state (or exact points),
    labels and pending row, from its parent's.  An isometry packs no
    key; a node that takes its signature's labels (taken) packs none
    either and drops what is pending."""
    windows = points is None and pset.wins is not None
    got = sys.window_ops.stage(pset.wins, eps, state, node[0]) if windows else None
    if got is None:  # exact stage keys from here on
        start, syms = (pset.points, path) if points is None else (points, path[-1:])
        points, key, width = _bowen_keys(sys, start, syms, eps)
    else:
        state, key, width = got
    if taken is not None:
        return state, points, taken, 0, 0
    if node[0] not in sys.isometries:
        if bits + width > 64:
            labels, row, bits = _fold(labels, row, bits), 0, 0
        row, bits = row | (key << np.uint64(bits)), bits + width
    return state, points, labels, row, bits


def _pair_walk(sys: GeneratorSystem, arr, pairs, eps, root, tally=None):
    """Yield (first cell, chunk start, got) at every trie node where cells
    end and pairs survive, per PAIR_CHUNK chunk of the stage-0 pairs
    (i0, j0) of the point array arr, pairs = (i0, j0, sure): got is
    tally(i, j) of the chunk's pairs Bowen-within eps along the node's
    prefix, or without a tally their positions in the chunk.  Each node
    makes its stage array once and, per chunk, keeps those of its
    parent's surviving pairs that pair_ops.close keeps there, but an
    isometric node keeps a sure pair set whole, with no gather, test or
    tally, at most SURE_STAGES times in a row.  A set is sure while
    every pair's computed distance at the last stage tested is <= eps -
    PAIR_MARGIN: at the root, a chunk of the first `sure` pairs if arr
    lies in [0, 1], below it as a tested node with an isometric kid reads
    off the distances close leaves.  That is exact for points in [0, 1]
    (see SURE_STAGES), where PAIR_MARGIN is stage 0's margin and every
    mapped array lies, as % 1.0 returns nothing above 1.  Only nodes
    where cells end tally.  Each pair set carries the tally of its
    nearest tallied ancestor, the base, while more than half the base's
    pairs survive, with the pieces dropped since: a node where cells end
    then takes the base's tally minus that of the dropped pieces (exact
    for integer counts), any other the tally of what it keeps.  So no
    node tallies more pairs than it keeps, a node that drops nothing (an
    isometry) tallies none, and one ending right below a tallied node at
    most half of that node's.  Gathers reuse two arrays per walk and
    positions are views of one array, as fresh ones get faulted in anew,
    more often for some words than for others."""
    apply, close, iso = sys.array_ops.apply, sys.pair_ops.close, sys.isometries
    i0, j0, sure = pairs
    unit = np.all((0.0 <= arr) & (arr <= 1.0))  # else no stage-0 pair is sure
    arrays = {}  # stage array per node and whether a kid is isometric, freed with the walk
    todo = [(root, arr)]
    while todo:
        node, arr = todo.pop()
        arrays[id(node)] = arr, not iso.isdisjoint(node[1])
        todo.extend((kid, apply(kid[0], arr)) for kid in node[1].values())
    chunk, inside = systems.PAIR_CHUNK, eps - systems.PAIR_MARGIN
    size = min(chunk, len(i0))
    ta, tb = np.empty((2, size), dtype=arrays[id(root)][0].dtype)
    at = np.arange(size, dtype=np.int32) if tally is None else None  # copies half as big
    for lo in range(0, len(i0), chunk):
        cols = (i0[lo:lo + chunk], j0[lo:lo + chunk])
        left = SURE_STAGES if unit and lo + len(cols[0]) <= sure else 0
        if at is not None:
            cols += (at[:len(cols[0])],)
        stack = [(root, cols, None, [], 0, left)]  # base tally, pieces dropped since, their size
        while stack:
            node, cols, got, dropped, gone, left = stack.pop()
            sym, kids, ends = node
            if left and sym in iso:  # the filter would keep every pair
                left -= 1
            elif sym is not None:  # the root is stage 0, which every pair passes
                (arr, check), n = arrays[id(node)], len(cols[0])
                a = arr.take(cols[0], out=ta[:n], mode="clip")  # "raise" would buffer out
                b = arr.take(cols[1], out=tb[:n], mode="clip")
                keep = close(a, b, eps, out=a)  # a: the distances
                kept = np.count_nonzero(keep)
                if not kept:  # nothing to count here or below
                    continue
                left = SURE_STAGES if check and np.count_nonzero(a <= inside) == kept else 0
                if kept < n:
                    gone += n - kept
                    if got is not None and gone < kept:
                        drop = ~keep
                        dropped = dropped + [(cols[0][drop], cols[1][drop])]
                    else:
                        got, dropped = None, []
                    cols = tuple(c[keep] for c in cols)
            if ends:
                if tally is None:
                    got = cols[2]
                elif got is None:
                    got = tally(*cols)
                else:
                    for i, j in dropped:
                        got = got - tally(i, j)
                dropped, gone = [], 0
                yield ends[0], lo, got
            stack.extend((kid, cols, got, dropped, gone, left) for kid in kids.values())


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
    counts = acc.reshape(blocks.n_blocks, blocks.n_blocks)
    return counts + counts.T


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


def _pair_results(sys, pset, eps, root, nodes, kind, reduce, blocks, center) -> dict:
    """The reduced result of the kind at every trie node where cells
    end, keyed by its first cell (listed in nodes), from one pair walk;
    results are made and reduced one node at a time.  The point array
    and its stage-0 pairs are made once per call, before the walk's own
    arrays.  With a center, the walk's array is the center and the points
    that pair_ops.close keeps with it, and a count is one plus the
    center's surviving pairs."""
    arr = sys.array_ops.to_array(pset.points)
    if center is not None:
        near = sys.pair_ops.close(arr[center], arr, eps)
        near[center] = False
        arr = np.concatenate((arr[center:center + 1], arr[near]))
        pairs = np.zeros(len(arr) - 1, np.int32), np.arange(1, len(arr), dtype=np.int32), 0
        count = dict.fromkeys(nodes, 1)  # the center itself
        for c, _, got in _pair_walk(sys, arr, pairs, eps, root, lambda i, j: len(i)):
            count[c] += got
        return {c: reduce(float(count[c])) for c in nodes}
    n = len(arr)
    i0, j0, _ = pairs = sys.pair_ops.stage0(arr, eps)
    if kind != "net":
        size, dtype = (n, np.int32) if kind == "balls" else (blocks.n_blocks**2, np.int64)
        acc = {c: np.zeros(size, dtype=dtype) for c in nodes}
        tally = partial(_tally, kind, size, blocks)
        for c, _, got in _pair_walk(sys, arr, pairs, eps, root, tally):
            acc[c] += got
        return {c: reduce(_tallied(kind, acc.pop(c), blocks)) for c in nodes}
    # a net needs all of a node's pairs at once: one bit per stage-0 pair
    # and node during the walk, then one node's pairs at a time
    acc = {c: np.zeros((len(i0) + 7) // 8, dtype=np.uint8) for c in nodes}
    for c, lo, pos in _pair_walk(sys, arr, pairs, eps, root):
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
    center=None,
) -> list:
    """One result per cell (k, word) of one point set and radius, passed
    through reduce if given.  kind "balls": per point, the points in its
    Bowen eps-ball, itself included, as floats, or with a center (a point
    index) the count of its ball alone, a float; "pairs": ordered pairs
    (i, j), |i - j| > w, Bowen-within eps, tallied by (block[i],
    block[j]) of blocks; "net": the first-come greedy net's indices.
    Where a stage raises, the first cell that needs it raises, as cell
    by cell."""
    key = kind, blocks, reduce, center  # what a label read depends on
    reduce = reduce or (lambda v: v)
    if center is not None and (sys.ball_key is not None or not _has_pairs(sys)):
        whole, reduce = reduce, lambda counts: whole(counts[center])  # read off all balls
    if sys.ball_key is None and not _has_pairs(sys):
        return [
            reduce(_generic_result(sys, pset.points, eps, k, omega, kind, blocks))
            for k, omega in cells
        ]
    root, first = _trie(cells)
    if sys.ball_key is not None:
        read = {
            "balls": lambda labels: np.bincount(labels)[labels].astype(float),
            "pairs": lambda labels: _label_pair_counts(labels, blocks),
            "net": _first_indices,
        }[kind]
        got = _label_walk(sys, pset, eps, root, lambda labels: reduce(read(labels)), key)
    else:
        got = _pair_results(sys, pset, eps, root, set(first), kind, reduce, blocks, center)
    out = [got[c] if c == at else copy.copy(got[c]) for at, c in enumerate(first)]
    for v in out:
        if isinstance(v, Exception):
            raise v
    return out


def _label_pair_counts(labels, blocks: _Blocks) -> np.ndarray:
    """Ordered pairs (i, j) with equal integer labels and |i - j| > w,
    tallied by (block[i], block[j]) of blocks.

    Linear in the number of points: per-block label histograms give
    every equal-label pair, and the diagonal and the lags 1..w are
    subtracted back out, all lags in one count over their block-pair
    keys.  The histogram product runs in float64, through
    BLAS, and is exact: its terms are nonnegative integers and every
    partial sum is at most n**2, which float64 holds exactly while
    n**2 < 2**53; longer rows multiply in int64.
    """
    block, n_blocks = blocks.block, blocks.n_blocks
    n_labels = int(labels.max()) + 1
    hist = np.bincount(
        block * n_labels + labels, minlength=n_blocks * n_labels
    ).reshape(n_blocks, n_labels)
    if len(labels) ** 2 < 2**53:
        hist = hist.astype(float)
    counts = (hist @ hist.T).astype(np.int64)
    counts -= np.diag(np.bincount(block, minlength=n_blocks))
    if blocks.lags:
        near = np.bincount(
            np.concatenate([
                keys[labels[d:] == labels[:-d]] for d, keys in enumerate(blocks.lags, 1)
            ]),
            minlength=n_blocks * n_blocks,
        ).reshape(n_blocks, n_blocks)
        counts -= near + near.T
    return counts


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
        and window_ops."""
        memo = self.__dict__.setdefault("_point_sets", {})
        if sys.window_ops not in memo:
            memo[sys.window_ops] = _as_point_set(sys, self.points)
        return memo[sys.window_ops]

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
    measure counts all the cells in one walk, and any other measure
    (ExactCylinderMeasure) answers per cell."""
    if isinstance(measure, EmpiricalMeasure):
        pset, n = measure._point_set(sys), measure.n
        return _count_cells(
            sys, pset, eps, cells, "balls", lambda counts: reduce(counts / n), center=center
        )
    at = slice(None) if center is None else center
    return [reduce(np.asarray(measure.ball_measures(sys, w, k, eps), float)[at]) for k, w in cells]


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
    """Orbits of x along m_upsilon independently sampled driving words.

    On systems with window_ops the orbits are windows, built as points
    only if a stage needs exact keys; when the windows cannot be built
    the points are built at once, raising where the maps raise.  Equal
    arguments share the orbit set of the latest call, so the (eps, k)
    calls of one run build it once; a call that raised is not kept."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if m_upsilon < 1:
        raise ValueError("m_upsilon must be >= 1")
    if weights is None:
        weights = uniform_spec(sys.m)
    _check_weights(weights, sys.m)
    words = [
        sample_word(weights, n - 1, substream(seed, UPSILON, j)).symbols
        for j in range(m_upsilon)
    ]
    maps = sys.maps

    def orbit_points():
        return [
            list(itertools.accumulate(syms, lambda p, s: maps[s - 1](p), initial=x))
            for syms in words
        ]

    ops = sys.window_ops
    wins = None if ops is None else ops.orbit_windows(x, words, n)
    if wins is None:
        return tuple(_PointSet(None, pts) for pts in orbit_points())
    built = cache(orbit_points)
    return tuple(_PointSet(w, make=lambda j=j: built()[j]) for j, w in enumerate(wins))


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


def correlation_sum(
    sys: GeneratorSystem,
    x,
    eps: float,
    omega: SymbolWord,
    k: int,
    n: int,
    m_upsilon: int,
    seed: int,
    weights: BernoulliSpec | None = None,
) -> CorrSumEstimate:
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
    symbols of omega enter.  Calls with equal (sys, x, n, m_upsilon,
    seed, weights) share one orbit set, built by the first of them, and
    with it the labels where each orbit's latest walk ended: a call at
    the same eps and a longer prefix of the same omega labels only the
    stages past it (see _label_walk), so a run walks one radius at a
    time, eps outer and k inner.
    """
    _check_eps(eps)
    _check_word(sys, omega, k)
    orbits = _upsilon_orbits(sys, x, n, m_upsilon, seed, weights)
    blocks, pairs = _time_blocks(n)
    n_blocks = blocks.n_blocks
    close = _orbit_pair_counts(sys, orbits, eps, [(k, omega)], blocks)[0]
    values = _floored_fraction(close.sum(axis=(1, 2)), pairs.sum(), n).tolist()
    value = math.fsum(values) / m_upsilon
    stderr = 0.0
    if n_blocks > 1:
        dropped = _floored_fraction(
            _without_each_block(close), _without_each_block(pairs), n
        ).mean(axis=0)
        spread = float(((dropped - dropped.mean()) ** 2).sum())
        stderr = math.sqrt((n_blocks - 1) / n_blocks * spread)
    return CorrSumEstimate(value, stderr, n, k, eps, m_upsilon, tuple(values))


def _orbit_pair_counts(sys, orbits, eps, cells, blocks) -> np.ndarray:
    """Bowen-close ordered pairs of every orbit and (k, word) cell,
    tallied by blocks, as an int array [cell, orbit, block, block].  One
    walk per orbit, so only one orbit's stage-0 pairs are ever alive."""
    return np.stack(
        [_count_cells(sys, orbit, eps, cells, "pairs", blocks=blocks) for orbit in orbits],
        axis=1,
    )


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
    of values(eps, cells) over the horizon's (k, word) cells, and its
    standard error over k is the row's."""
    out = []
    for eps in eps_list:
        word_sets, cells = _series_cells(sys.m, k_list, weights, m_omega, seed)
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
    to the limits module.  Exact ball measures (any measure but an
    EmpiricalMeasure) make the rows affine in 1/k, so their series are
    marked exact, which k_limit slope-fits."""
    _check_grids(eps_list, k_list)
    if not math.isfinite(q):
        raise ConfigInvalid("q", "must be finite")
    return _word_averaged(
        sys, eps_list, k_list, m_omega, seed, weights,
        lambda eps, cells: _cell_measures(
            measure, sys, eps, cells, lambda m: -_q_log_mean(np.log(m), q)
        ),
        q=q, exact=not isinstance(measure, EmpiricalMeasure),
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
    combined standard error.  The n/2 value comes from the same walk:
    the close pairs among the first max(1, n // 2) orbit points.
    """
    _check_grids(eps_list, k_list)
    orbits = _upsilon_orbits(sys, x, n, m_upsilon, seed, weights)
    h = max(1, n // 2)
    halves = _blocks((np.arange(n) >= h).astype(np.intp), 2)
    out = []
    for eps in eps_list:
        word_sets, cells = _series_cells(sys.m, k_list, weights, m_omega, seed)
        close = _orbit_pair_counts(sys, orbits, eps, cells, halves)
        full = _by_horizon(((n + close.sum(axis=(2, 3))) / n**2).tolist(), word_sets)
        half = _by_horizon(((h + close[:, :, 0, 0]) / h**2).tolist(), word_sets)
        rows, ses, flags = [], [], []
        for k, words, full_k, half_k in zip(k_list, word_sets, full, half):
            mean_full, var_full = _log_word_mean(full_k, words)
            mean_half, var_half = _log_word_mean(half_k, words)
            tol = 2.0 * math.sqrt(var_full + var_half)
            rows.append((k, -mean_full / k))
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
    radius is counted in one walk at eps and one more at 2 eps."""
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
    radius is counted in one walk that reads x's ball alone."""
    _check_grids(eps_list, k_list)
    _check_word(sys, omega, k_list[-1])
    cells, at = [(k, omega) for k in k_list], _center_index(measure, x)
    out = []
    for eps in eps_list:
        found = _cell_measures(measure, sys, eps, cells, center=at)
        rows = [(k, -math.log(m) / k) for k, m in zip(k_list, found)]
        out.append(EntropySeries(eps, rows))
    return out
