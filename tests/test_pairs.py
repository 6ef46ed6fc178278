"""Sparse Bowen pair lists of the circle family against the generic
pairwise oracle.

Every fast system here has an ArrayOps.within that raises, so a test
fails if a dense N x N path runs, and a stage0 that counts its calls,
so a test fails if the estimators fall through to the generic loop.
"""

import itertools
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from fsgentropy import estimators, systems
from fsgentropy.estimators import (
    EmpiricalMeasure,
    _as_point_set,
    _blocks,
    _count_cells,
    corr_entropy_series,
    correlation_sum,
    doubling_series,
    local_corr_entropy_series,
    local_entropy_series,
    top_entropy_series,
)
from fsgentropy.seeding import substream
from fsgentropy.systems import (
    ArrayOps,
    PairOps,
    build_power_system,
    circle_double_rotate,
    torus_affine,
)
from fsgentropy.words import symbol_digits, word
from oracles import ball_measure, doubling_ratio, net

EPS = (0.5, 0.5 - 1e-11, 0.125, 1e-3, 2.0**-20)

# Points on the edges of the sweep: both ends of [0, 1), duplicates,
# pairs exactly 0.125 apart (directly and across 0), and two pairs whose
# float distance rounds onto 0.125 although the sweep key v + eps (resp.
# v + 1 - eps) rounds past them: only the band margin finds those.
EDGE = (
    0.0, 1.0 - 2.0**-53, 0.25, 0.375, 0.375, 0.0625, 0.9375,
    2.0**-56, 0.125 + 2.0**-55, 1.5 * 2.0**-53, 0.875 + 2.0**-53,
)


def _generic(sys_):
    """The generic pairwise oracle: every optional fast path stripped."""
    return replace(sys_, **{f.name: None for f in fields(sys_) if f.default is None})


def _sparse(sys_, calls):
    """sys_ whose dense within raises and whose stage0 counts its calls."""

    def within(*args):
        raise AssertionError("a dense within-matrix was computed")

    def stage0(arr, eps):
        calls.append(len(arr))
        return systems._circle_stage0(arr, eps)

    ops = sys_.array_ops
    return replace(
        sys_,
        array_ops=ArrayOps(ops.to_array, ops.apply, within),
        pair_ops=replace(sys_.pair_ops, stage0=stage0),
    )


SYSTEMS = {
    "circle": circle_double_rotate(),
    "torus": torus_affine(),
}


@pytest.fixture(params=["circle", "torus", "circle-power2"])
def pair_systems(request):
    """(sparse system, its generic oracle, stage0 call log)."""
    calls = []
    if request.param == "circle-power2":
        base = SYSTEMS["circle"]
        fast = build_power_system(_sparse(base, calls), 2)
        return fast, _generic(build_power_system(base, 2)), calls
    base = SYSTEMS[request.param]
    return _sparse(base, calls), _generic(base), calls


@pytest.fixture(params=[None, 1, 7], ids=["chunk-default", "chunk-1", "chunk-7"])
def chunk(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(systems, "PAIR_CHUNK", request.param)


def _points(n, seed):
    rng = substream(seed)
    return list(EDGE) + [float(rng.random()) for _ in range(n)]


def _words(sys_, k):
    return [word(syms, sys_.m) for syms in itertools.product(range(1, sys_.m + 1), repeat=k - 1)]


def _ball_counts(sys_, omega, k, eps, pset):
    return _count_cells(sys_, pset, eps, [(k, omega)], "balls")[0]


@pytest.mark.parametrize("eps", EPS)
def test_ball_counts_match_oracle(pair_systems, chunk, eps):
    fast, oracle, calls = pair_systems
    pts = _points(30, 1)
    fast_set = _as_point_set(fast, pts)
    for k in (1, 2, 3):
        for w in _words(fast, k)[:4]:
            got = _ball_counts(fast, w, k, eps, fast_set)
            want = _ball_counts(oracle, w, k, eps, _as_point_set(oracle, pts))
            assert np.array_equal(got, want), (k, w)
    assert calls


@pytest.mark.parametrize("eps", EPS)
def test_separated_set_matches_oracle(pair_systems, chunk, eps):
    fast, oracle, calls = pair_systems
    pts = _points(30, 2)
    for k in (1, 2, 3):
        for w in _words(fast, k)[:4]:
            assert net(pts, fast, w, k, eps) == net(pts, oracle, w, k, eps)
    assert calls


@pytest.mark.parametrize("x", [0.0, 1.0 - 2.0**-53, 0.3])
@pytest.mark.parametrize("eps", EPS)
def test_correlation_sum_matches_oracle(pair_systems, chunk, x, eps):
    fast, oracle, calls = pair_systems
    w = word([1] + [fast.m] * 2, fast.m)
    got = correlation_sum(fast, x, eps, w, 3, 40, 3, seed=5)
    want = correlation_sum(oracle, x, eps, w, 3, 40, 3, seed=5)
    assert got == want
    assert calls


@pytest.mark.parametrize("x", [0.0, 1.0 - 2.0**-53])
def test_local_corr_entropy_matches_oracle(pair_systems, chunk, x):
    fast, oracle, calls = pair_systems
    eps_list = [0.5, 0.125, 2.0**-20]
    got = local_corr_entropy_series(fast, x, eps_list, [1, 2, 3], 30, 3, 4, seed=7)
    want = local_corr_entropy_series(oracle, x, eps_list, [1, 2, 3], 30, 3, 4, seed=7)
    assert [(s.rows, s.stderrs, s.flags) for s in got] == [
        (s.rows, s.stderrs, s.flags) for s in want
    ]
    assert calls


@pytest.mark.parametrize(
    "pts", [[0.4], [0.0, 1.0 - 2.0**-53], [0.3, 0.3], [0.25, 0.375]], ids=str
)
@pytest.mark.parametrize("eps", EPS)
def test_one_and_two_points_match_oracle(pair_systems, eps, pts):
    fast, oracle, calls = pair_systems
    for k in (1, 2):
        w = _words(fast, k)[-1]
        got = _ball_counts(fast, w, k, eps, _as_point_set(fast, pts))
        want = _ball_counts(oracle, w, k, eps, _as_point_set(oracle, pts))
        assert np.array_equal(got, want)
        assert net(pts, fast, w, k, eps) == net(pts, oracle, w, k, eps)
    assert calls


def _margin_points(eps):
    """Points at distance eps + t margin and 1 - eps + t margin, t in
    {-1, -1/2, 0, 1/2, 1} (one float step either side too), from bases in
    and outside [0, 1), directly and across 0, where margin is the
    sweep's own for this array: where the sure part of each stage-0 band
    ends, inside its margin part, and where that ends."""
    bases = (0.3, 0.97, 1.7)
    margin = systems.PAIR_MARGIN * 2.49  # 2.49 is the largest |point|
    pts = list(bases) + [2.49]
    for x in bases:
        for d in (e + t * margin for e in (eps, 1.0 - eps) for t in (-1, -0.5, 0, 0.5, 1)):
            for y in (x + d, (x + d) % 1.0, x - d):
                if abs(y) < 2.49:
                    pts += [y, np.nextafter(y, -np.inf), np.nextafter(y, np.inf)]
    return list(dict.fromkeys(pts))


@pytest.mark.parametrize("eps", EPS + (0.75, 2.0))
def test_stage0_is_exactly_the_close_pairs(chunk, eps):
    """Sorted-order bands, wrap-around band, margin and chunking: stage0
    returns each pair i < j with close(arr[i], arr[j]) once, as int32,
    also for points outside [0, 1) and for points on both sides of
    where each band's sure part ends and its margin part begins."""
    rng = substream(3)
    for pts in (
        _points(40, 3) + [-0.3, 1.7, 2.05, -1.95, 5.0, 1e6, 1e6 + 0.1],
        _margin_points(eps),
    ):
        arr = np.array(pts)
        arr = arr[rng.permutation(len(arr))]
        i, j, _ = systems._circle_stage0(arr, eps)
        assert i.dtype == np.int32 and j.dtype == np.int32
        got = sorted(zip(i.tolist(), j.tolist()))
        a, b = np.triu_indices(len(arr), 1)
        hit = systems._circle_close(arr[a], arr[b], eps)
        assert got == sorted(zip(a[hit].tolist(), b[hit].tolist()))


@pytest.mark.parametrize("eps", EPS + (0.75, 2.0))
def test_stage0_counts_its_sure_pairs_first(chunk, eps):
    """The pairs before stage0's sure count pass the exact test at
    eps - margin, margin the sweep's own, also for points outside [0, 1)
    and on the edges of the bands; and every pair within eps - 3 margin
    comes before it."""
    rng = substream(13)
    for pts in (
        _points(40, 3) + [-0.3, 1.7, 2.05, -1.95, 5.0, 1e6, 1e6 + 0.1],
        _points(40, 13),
        _margin_points(eps),
    ):
        arr = np.array(pts)
        arr = arr[rng.permutation(len(arr))]
        i, j, sure = systems._circle_stage0(arr, eps)
        margin = systems.PAIR_MARGIN * max(1.0, float(np.abs(arr).max()))
        assert 0 <= sure <= len(i)
        assert systems._circle_close(arr[i[:sure]], arr[j[:sure]], eps - margin).all()
        deep = systems._circle_close(arr[i], arr[j], eps - 3 * margin)
        assert not deep[sure:].any()


@pytest.mark.parametrize("eps", (0.5, 0.5 - 1e-11, 0.125, 2.0**-20))
def test_one_center_walks_its_own_pairs_like_the_oracle(pair_systems, chunk, eps):
    """A one-centre count starts from the centre's pairs, which close
    picks from the whole array: no stage0 sweep and no dense within.
    Centres sit on the edges of [0, 1), on a duplicate, at both ends of
    the pairs exactly 0.125 apart (directly and across 0) and of the
    rounding pairs."""
    fast, oracle, calls = pair_systems
    pts = tuple(_points(30, 11))
    m = fast.m
    ks = [1, 2, 3, 4]
    for omega in (word((1, m, 1), m), word((m, m, 2), m)):
        for center in pts[:4] + pts[5:11] + pts[20:21]:
            got, want = (
                local_entropy_series(EmpiricalMeasure(pts), s, omega, center, [eps], ks)[0]
                for s in (fast, oracle)
            )
            assert got.rows == want.rows, center
            em = EmpiricalMeasure(pts)
            for k in ks:
                measure = ball_measure(em, fast, omega, k, center, eps)
                assert measure == ball_measure(em, oracle, omega, k, center, eps), (center, k)
    assert calls == []


@pytest.mark.parametrize("n, eps", [(2048, 1 / 8), (4096, 1 / 4)])
def test_stage0_memory_is_bounded(n, eps, monkeypatch):
    """Stage 0 of n points with C candidate pairs (the pairs in its bands,
    margin parts included: at most the pairs it keeps plus those the
    exact test drops) peaks at no more than

        8 C + 128 n + 48 PAIR_CHUNK bytes

    of numpy allocations: the two int32 output arrays (8 C), the sort and
    the per-row band bounds (under 16 int64 words per point, one band
    kind's arrays at a time) and one chunk's temporaries (under 6 int64
    words per candidate).  No temporary of the candidates' size, so the
    pairs kept cost their own 8 bytes each and no more."""
    arr = substream(12).random(n)
    exact, dropped = systems._circle_close, []

    def close(a, b, e):
        hit = exact(a, b, e)
        dropped.append(len(hit) - int(hit.sum()))
        return hit

    monkeypatch.setattr(systems, "_circle_close", close)
    tracemalloc.start()
    try:
        i, _, _ = systems._circle_stage0(arr, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    candidates = len(i) + sum(dropped)
    assert len(i) > 0.9 * eps * n * (n - 1)  # about n^2 eps pairs
    assert peak <= 8 * candidates + 128 * n + 48 * systems.PAIR_CHUNK


def test_each_count_sweeps_stage0_once():
    """A point set keeps no stage-0 pairs: every _count_cells call on a
    pair system makes them anew, once, whatever its cells and radius."""
    calls = []
    fast = _sparse(SYSTEMS["circle"], calls)
    pts = _points(10, 4)
    pset = _as_point_set(fast, pts)
    cells = _cells(fast)
    for n, eps in enumerate((0.25, 0.125, 0.25, 0.125, 0.0625, 0.125), 1):
        _count_cells(fast, pset, eps, cells if n % 2 else cells[:1], "balls")
        assert calls == [len(pts)] * n
    assert estimators._has_pairs(fast)
    assert not estimators._has_pairs(replace(fast, array_ops=None))


# ---------------------------------------------------------------------------
# the prefix-trie walk over all the cells of a series


def _cells(sys_):
    """(k, word) cells with shared prefixes, duplicate words, a node
    reached by two different words and k = 1 cells, in no trie order."""
    m = sys_.m

    def w(*syms):
        return word(syms, m)

    return [
        (3, w(1, m, 1)), (1, w()), (2, w(m)), (3, w(1, m)), (1, w(1, 1)),
        (4, w(1, m, 1)), (3, w(1, m, 2)), (2, w(m, 1)), (4, w(m, m, 1)), (3, w(1, m)),
    ]


def _kind_options(kind, n):
    if kind != "pairs":
        return {}
    return {"blocks": _blocks(np.arange(n) * 3 // n, 3, 2)}


@pytest.mark.parametrize("kind", ["balls", "pairs", "net"])
@pytest.mark.parametrize("eps", EPS)
def test_walk_matches_per_cell_oracle(pair_systems, chunk, kind, eps):
    fast, oracle, calls = pair_systems
    pts = _points(30, 6)
    cells = _cells(fast)
    opts = _kind_options(kind, len(pts))
    got = _count_cells(fast, _as_point_set(fast, pts), eps, cells, kind, **opts)
    want = [
        _count_cells(oracle, _as_point_set(oracle, pts), eps, [cell], kind, **opts)[0]
        for cell in cells
    ]
    assert len(got) == len(cells)
    for g, v, cell in zip(got, want, cells):
        assert np.array_equal(g, v), cell
    assert calls


# Points whose stage-0 pairs at eps 1/8 the doubling map (symbol 1) keeps
# all of (tight clusters), none of (a 0.1 grid), most of (clusters with
# one outlier each) and few of (a 0.07 grid with two tight pairs).
SHARES = {
    "all": [c + 0.004 * t for c in (0.2, 0.7) for t in range(12)],
    "none": [0.03 + 0.1 * t for t in range(10)],
    "most": [c + 0.005 * t for c in (0.05, 0.3, 0.55, 0.8) for t in range(6)]
    + [c + 0.1 for c in (0.05, 0.3, 0.55, 0.8)],
    "few": [0.07 * t for t in range(14)] + [0.5, 0.501, 0.8, 0.8005],
}


@pytest.mark.parametrize("share", list(SHARES))
@pytest.mark.parametrize("kind", ["balls", "pairs"])
def test_tally_by_difference_matches_oracle(chunk, kind, share):
    """A node that keeps all its parent's pairs (every rotation node, and
    here every doubling node for "all") takes its parent's tally, one that
    keeps most takes it minus the tally of the pairs it drops, and any
    other tallies what it keeps; the counts equal the oracle's in every
    case, with one, seven or all pairs per chunk."""
    base = SYSTEMS["circle"]
    fast, oracle = _sparse(base, []), _generic(base)
    pts, eps = SHARES[share], 0.125
    i, j, _ = systems._circle_stage0(np.array(pts), eps)
    doubled = base.array_ops.apply(1, np.array(pts))
    kept = int(systems._circle_close(doubled[i], doubled[j], eps).sum())
    assert {"all": kept == len(i), "none": kept == 0, "most": len(i) > kept > len(i) / 2,
            "few": 0 < kept < len(i) / 2}[share], (kept, len(i))
    cells = [
        (len(syms) + 1, word(syms, 2))
        for syms in [(), (1,), (2,), (1, 1), (2, 1), (1, 2), (2, 2, 1), (1, 1, 1)]
    ]
    opts = _kind_options(kind, len(pts))
    got = _count_cells(fast, _as_point_set(fast, pts), eps, cells, kind, **opts)
    for g, cell in zip(got, cells):
        want = _count_cells(oracle, _as_point_set(oracle, pts), eps, [cell], kind, **opts)[0]
        assert np.array_equal(g, want), cell


def _counting_walk(monkeypatch):
    """Patch the walk so that each yield logs (pairs passed to the tally
    since the last yield, pairs the last close test kept or None if no
    test ran since, the yielded tally)."""
    tally, walk, close = estimators._tally, estimators._pair_walk, systems._circle_close
    log, passed, kept = [], [0], [None]

    def counting_tally(kind, size, blocks, i, j):
        passed[0] += len(i)
        return tally(kind, size, blocks, i, j)

    def counting_close(a, b, eps, out=None):
        keep = close(a, b, eps, out)
        kept[0] = int(keep.sum())
        return keep

    def counting_walk(*args):
        for c, lo, got in walk(*args):
            log.append((passed[0], kept[0], got))
            passed[0], kept[0] = 0, None
            yield c, lo, got

    monkeypatch.setattr(estimators, "_tally", counting_tally)
    monkeypatch.setattr(estimators, "_pair_walk", counting_walk)
    return PairOps(systems._circle_stage0, counting_close), log


def test_tally_takes_at_most_half_its_parents_pairs(monkeypatch):
    """On the shape of the benchmark's circle corr-entropy (N = 2048,
    eps 1/8, ks 1..5, 4 Monte Carlo words), every node where cells end
    passes the tally no more pairs than survive there, and the walk
    tallies well under half the pairs that a tally of every such node's
    survivors would take."""
    pair_ops, log = _counting_walk(monkeypatch)
    fast = replace(SYSTEMS["circle"], pair_ops=pair_ops)
    em = EmpiricalMeasure.draw(fast, 2048, 11)
    corr_entropy_series(em, fast, [0.125], [1, 2, 3, 4, 5], 2.0, 4, seed=11)
    survivors = [int(got.sum()) // 2 for _, _, got in log]  # two ball counts per pair
    assert all(passed <= alive for (passed, _, _), alive in zip(log, survivors))
    tallied = sum(passed for passed, _, _ in log)
    stage0 = len(systems._circle_stage0(np.array(em.points), 0.125)[0])
    assert stage0 < tallied <= 0.5 * sum(survivors)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_single_cell_tallies_only_its_survivors(monkeypatch, k):
    """A torus-affine correlation sum counts one cell, which ends at the
    trie's one leaf: the walk tallies no node above it, and the leaf no
    more pairs than it keeps."""
    pair_ops, log = _counting_walk(monkeypatch)
    fast = replace(SYSTEMS["torus"], pair_ops=pair_ops)
    correlation_sum(fast, 0.3, 0.25, word([1, 2, 2, 1, 2], 2), k, 1200, 2, seed=89)
    assert log
    assert all(kept is not None and passed <= kept for passed, kept, _ in log)


def test_series_over_shared_prefixes_match_oracle(pair_systems, chunk):
    """Exhaustive horizons and Monte Carlo ones whose draws share trie
    nodes and repeat, through the three word-averaged series."""
    fast, oracle, calls = pair_systems
    pts = _points(30, 8)
    em = EmpiricalMeasure(tuple(pts))
    eps_list, ks = [0.25, 0.125], [1, 2, 3, 4, 5]

    def series(s):
        return [
            [(r.rows, r.stderrs, r.flags) for r in found]
            for found in (
                corr_entropy_series(em, s, eps_list, ks, 2.0, 4, seed=3),
                top_entropy_series(em, s, eps_list, [1, 2, 4, 5], 4, seed=3),
                local_corr_entropy_series(s, 0.3, eps_list, ks, 30, 2, 4, seed=3),
            )
        ]

    assert series(fast) == series(oracle)
    assert calls


@pytest.mark.parametrize("chunk_size", [None, 7])
def test_each_trie_node_filters_once_per_chunk(monkeypatch, chunk_size):
    """Every trie node but the root makes its stage array once and runs
    its stage filter once per stage-0 chunk; a walk that re-filtered
    each cell from stage 0 would run it sum(k - 1) times per chunk."""
    if chunk_size is not None:
        monkeypatch.setattr(systems, "PAIR_CHUNK", chunk_size)
    base = SYSTEMS["circle"]
    count = {"apply": 0, "close": 0}

    def apply(j, arr):
        count["apply"] += 1
        return base.array_ops.apply(j, arr)

    def close(a, b, eps, out=None):
        count["close"] += 1
        return systems._circle_close(a, b, eps, out)

    ops = base.array_ops
    fast = replace(
        base,
        array_ops=ArrayOps(ops.to_array, apply, ops.within),
        pair_ops=PairOps(systems._circle_stage0, close),
        isometries=frozenset(),
    )
    pts = _points(20, 9)
    cells = _cells(fast)
    nodes = {w.symbols[:d] for k, w in cells for d in range(k)}
    # at eps = 1/2 every pair is close at every stage, so no subtree is skipped
    pset = _as_point_set(fast, pts)
    n_pairs = len(systems._circle_stage0(np.asarray(pts), 0.5)[0])
    assert n_pairs == len(pts) * (len(pts) - 1) // 2
    chunks = -(-n_pairs // systems.PAIR_CHUNK)
    _count_cells(fast, pset, 0.5, cells, "balls")
    assert count["apply"] == len(nodes) - 1
    assert count["close"] == (len(nodes) - 1) * chunks
    assert sum(k - 1 for k, _ in cells) > len(nodes) - 1


def test_doubling_series_walks_once_per_radius(monkeypatch):
    """Every horizon of a radius is counted in one pair walk at eps and
    one at 2 eps, each mapping the word's K - 1 stages once; per-k calls
    would walk twice per horizon, each from stage 0."""
    base = SYSTEMS["circle"]
    count = {"walks": 0, "apply": 0}

    def apply(j, arr):
        count["apply"] += 1
        return base.array_ops.apply(j, arr)

    walk = estimators._pair_walk

    def counting_walk(*args, **kwargs):
        count["walks"] += 1
        return walk(*args, **kwargs)

    monkeypatch.setattr(estimators, "_pair_walk", counting_walk)
    ops = base.array_ops
    fast = replace(base, array_ops=ArrayOps(ops.to_array, apply, ops.within))
    pts = tuple(_points(40, 10))
    omega = word((1, 2, 2, 1, 2), 2)
    eps_list, ks = [0.125, 0.0625], [1, 2, 3, 4, 5, 6]
    got = doubling_series(EmpiricalMeasure(pts), fast, omega, eps_list, ks)
    assert count == {"walks": 2 * len(eps_list), "apply": 2 * len(eps_list) * (len(ks) - 1)}
    for eps, series in zip(eps_list, got):
        assert series.epsilon == eps
        assert [k for k, _ in series.rows] == ks
        for k, value in series.rows:
            for s in (base, _generic(base)):
                assert value == doubling_ratio(EmpiricalMeasure(pts), s, omega, k, eps), (eps, k)


# ---------------------------------------------------------------------------
# isometric trie nodes: rotation nodes keep sure pairs untested


def test_power_systems_map_isometries():
    """A power symbol is an isometry exactly when all its digits are: on
    circle-double-rotate only the all-rotation symbol, on torus-affine
    none.  A rotation by more than a turn rounds too coarsely to count."""
    circle, torus = SYSTEMS["circle"], SYSTEMS["torus"]
    assert circle.isometries == {2}
    assert torus.isometries == frozenset()
    for t in (2, 3):
        assert build_power_system(circle, t).isometries == {2**t}
        assert symbol_digits(2**t, 2, t) == (2,) * t
        assert build_power_system(torus, t).isometries == frozenset()
        three = torus_affine((0.0, 0.1, 0.2))
        assert build_power_system(three, t).isometries == frozenset()
        hash(build_power_system(circle, t))  # systems stay memo keys
    assert circle_double_rotate(-1.0).isometries == {2}
    assert circle_double_rotate(1.5).isometries == frozenset()


def _tested_nodes(nodes, inside, stages):
    """The nodes (symbol tuples) of a circle-double-rotate walk whose
    pairs all stay sure that run the stage filter: every doubling node,
    and a rotation node whose parent's pair set is not sure (the root's,
    for a sample outside [0, 1]) or has passed `stages` rotations since
    its last test."""
    left, tested = {(): stages if inside else 0}, set()
    for p in sorted(nodes - {()}, key=len):
        if p[-1] == 2 and left[p[:-1]]:
            left[p] = left[p[:-1]] - 1
        else:
            tested.add(p)
            left[p] = stages
    return tested


@pytest.mark.parametrize("stages", [None, 1, 2])
@pytest.mark.parametrize("inside", [True, False], ids=["unit", "outside-unit"])
@pytest.mark.parametrize("chunk_size", [None, 7])
def test_rotation_nodes_keep_sure_pairs_untested(monkeypatch, chunk_size, inside, stages):
    """A circle-double-rotate walk at eps = 1/2 whose pairs all lie
    within eps - margin at stage 0 and at every stage after: close runs
    once per chunk at every doubling node and never at a rotation
    node, unless the sample leaves [0, 1] (the root's rotation kids test)
    or SURE_STAGES rotations in a row have passed untested.  The counts
    equal the oracle's."""
    if chunk_size is not None:
        monkeypatch.setattr(systems, "PAIR_CHUNK", chunk_size)
    if stages is not None:
        monkeypatch.setattr(estimators, "SURE_STAGES", stages)
    base = SYSTEMS["circle"]
    count = {"close": 0}

    def close(a, b, eps, out=None):
        count["close"] += 1
        return systems._circle_close(a, b, eps, out)

    fast = replace(base, pair_ops=replace(base.pair_ops, close=close))
    pts = substream(9).random(20).tolist() + ([] if inside else [1.25])
    cells = _cells(fast) + [(6, word((2, 2, 2, 2, 1), 2)), (5, word((1, 2, 2, 2), 2))]
    nodes = {w.symbols[:d] for k, w in cells for d in range(k)}
    i, _, sure = systems._circle_stage0(np.asarray(pts), 0.5)
    assert sure == len(i) == len(pts) * (len(pts) - 1) // 2
    chunks = -(-len(i) // systems.PAIR_CHUNK)
    got = _count_cells(fast, _as_point_set(fast, pts), 0.5, cells, "balls")
    tested = _tested_nodes(nodes, inside, stages or estimators.SURE_STAGES)
    assert count["close"] == len(tested) * chunks
    assert any(p[-1] == 2 for p in tested) == (not inside or stages is not None)
    oracle = _generic(base)
    for g, cell in zip(got, cells):
        want = _count_cells(oracle, _as_point_set(oracle, pts), 0.5, [cell], "balls")[0]
        assert np.array_equal(g, want), cell


def _boundary_points(eps, outside):
    """Pairs whose computed distance sits at eps - margin (margin =
    PAIR_MARGIN, stage 0's on [0, 1]) and at eps, and up to two float
    steps either side, directly and the long way round across 0; as
    they are, so that the root's rotation kid starts from them, and
    halved, so that they sit at stage 1 after a doubling, before the
    rotation chain of the word 1,2,2,2,1,2.  From the bases 0.07 and
    0.37 some pairs within eps leave it under a rotation.  outside adds
    a point outside [0, 1], which leaves stage 0's sure pairs unused."""
    margin = systems.PAIR_MARGIN
    pts = []
    for x in (0.07, 0.37, 0.97):
        pts.append(x)
        for d in (eps - margin, eps, 1.0 - eps + margin):
            y = (x + d) % 1.0
            below = above = y
            pts.append(y)
            for _ in range(2):
                below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
                pts += [float(below), float(above)]
    pts += [p / 2 for p in pts]
    assert max(pts) < 1.0
    return pts + [1.3] * outside


@pytest.mark.parametrize("outside", [False, True], ids=["unit", "outside-unit"])
@pytest.mark.parametrize("eps", (0.25, 0.125, 2.0**-20))
def test_sure_pairs_at_the_margin_match_oracle(monkeypatch, eps, outside):
    """Ball counts (corr-entropy), pair counts (corr-sum), greedy nets
    (top-entropy) and one-centre counts (local entropy) over words with
    one rotation after stage 0 and rotation chains after a doubling
    equal the oracle's, with one, seven or all pairs per chunk, for pairs
    on both sides of eps - margin and of eps."""
    fast, oracle = _sparse(SYSTEMS["circle"], []), _generic(SYSTEMS["circle"])
    pts = _boundary_points(eps, outside)
    if eps > 1e-3:  # a pair within eps at the stage before a rotation leaves it there
        i, j = np.triu_indices(len(pts), 1)
        stage = np.array(pts)
        rotated = fast.array_ops.apply(2, stage)
        assert (systems._circle_close(stage[i], stage[j], eps)
                & ~systems._circle_close(rotated[i], rotated[j], eps)).any()
    cells = [
        (k, word(syms, 2))
        for syms in [(1, 2, 2, 2, 1, 2), (2, 1, 2, 2), (2, 2, 2, 2)]
        for k in range(1, len(syms) + 2)
    ]
    em, omega = EmpiricalMeasure(tuple(pts)), word((1, 2, 2, 2, 1, 2), 2)
    centers = pts[:4] + pts[-4:]
    want = {
        kind: [
            _count_cells(oracle, _as_point_set(oracle, pts), eps, [c], kind,
                         **_kind_options(kind, len(pts)))[0]
            for c in cells
        ]
        for kind in ("balls", "pairs", "net")
    }
    local = [local_entropy_series(em, oracle, omega, c, [eps], range(1, 8))[0].rows
             for c in centers]
    for chunk_size in (None, 1, 7):
        with monkeypatch.context() as patch:
            if chunk_size is not None:
                patch.setattr(systems, "PAIR_CHUNK", chunk_size)
            for kind, values in want.items():
                got = _count_cells(fast, _as_point_set(fast, pts), eps, cells, kind,
                                   **_kind_options(kind, len(pts)))
                for g, v, cell in zip(got, values, cells):
                    assert np.array_equal(g, v), (chunk_size, kind, cell)
            assert local == [
                local_entropy_series(em, fast, omega, c, [eps], range(1, 8))[0].rows
                for c in centers
            ]
