"""Bowen pairs of the circle family, counted as arcs below the domain
edge eps < 1/(1 + largest slope) and by the pair walk above it, against
the generic pairwise oracle.

Every fast system here has an ArrayOps.within that raises, so a test
fails if a dense N x N path runs, and a PairOps.bands that counts its
calls, so a test fails if the estimators fall through to the generic
loop.  Tests of the walk's own mechanisms force the walk (the `walk`
fixture: no cell is counted as an arc) at radii inside the domain, and
run it past the domain edge (eps >= 1/3 on the circle), where it runs
anyway.
"""

import itertools
import tracemalloc
from dataclasses import replace

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
    build_power_system,
    circle_double_rotate,
    torus_affine,
)
from fsgentropy.words import word
from oracles import ball_measure, doubling_ratio, generic_system, net

EPS = (0.5, 0.5 - 1e-11, 0.125, 1e-3, 2.0**-20)

# Points on the edges of the sweep: both ends of [0, 1), duplicates,
# pairs exactly 0.125 apart (directly and across 0), and two pairs whose
# float distance rounds onto 0.125 although the sweep key v + eps (resp.
# v + 1 - eps) rounds past them: only the band margin finds those.
EDGE = (
    0.0, 1.0 - 2.0**-53, 0.25, 0.375, 0.375, 0.0625, 0.9375,
    2.0**-56, 0.125 + 2.0**-55, 1.5 * 2.0**-53, 0.875 + 2.0**-53,
)


def _sparse(sys_, calls):
    """sys_ whose dense within raises and whose bands count their calls."""

    def within(*args):
        raise AssertionError("a dense within-matrix was computed")

    def bands(v, sure, outer):
        calls.append(len(v))
        return systems._circle_bands(v, sure, outer)

    ops = sys_.array_ops
    return replace(
        sys_,
        array_ops=ArrayOps(ops.to_array, ops.apply, within),
        pair_ops=replace(sys_.pair_ops, bands=bands),
    )


SYSTEMS = {
    "circle": circle_double_rotate(),
    "torus": torus_affine(),
}


@pytest.fixture(params=["circle", "torus", "circle-power2"])
def pair_systems(request):
    """(sparse system, its generic oracle, bands call log)."""
    calls = []
    if request.param == "circle-power2":
        base = SYSTEMS["circle"]
        fast = build_power_system(_sparse(base, calls), 2)
        return fast, generic_system(build_power_system(base, 2)), calls
    base = SYSTEMS[request.param]
    return _sparse(base, calls), generic_system(base), calls


@pytest.fixture(params=[None, 1, 7], ids=["chunk-default", "chunk-1", "chunk-7"])
def chunk(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(estimators, "PAIR_CHUNK", request.param)


def _force_walk(monkeypatch):
    """Count no cell as an arc: the pair walk counts every cell."""
    monkeypatch.setattr(estimators, "_arc_groups", lambda *args: {})


@pytest.fixture
def walk(monkeypatch):
    _force_walk(monkeypatch)


@pytest.fixture(params=["auto", "walk"])
def path(request, monkeypatch):
    """Cells counted as arcs where they are, or all by the pair walk."""
    if request.param == "walk":
        _force_walk(monkeypatch)


def _points(n, seed):
    rng = substream(seed)
    return list(EDGE) + [float(rng.random()) for _ in range(n)]


def _stage0_chunks(arr, eps, close=systems._circle_close):
    """The pair walk's stage-0 stream of arr on circle-double-rotate, whose
    close is close, as a list of chunks (i, j)."""
    sys_ = replace(SYSTEMS["circle"], pair_ops=replace(SYSTEMS["circle"].pair_ops, close=close))
    order = np.argsort(arr, kind="stable").astype(np.int32)
    return list(estimators._stage0(sys_, arr, order, arr[order], eps))


def _stage0(arr, eps, close=systems._circle_close):
    """The walk's stage-0 stream joined into (i, j, sure), sure one flag
    per pair, true for the pairs streamed untested (the first ones: the
    others are those the exact test keeps), after checking that each
    chunk holds 1 to PAIR_CHUNK pairs i < j in fresh int32 arrays."""
    kept = []

    def counting(a, b, e, out=None):
        keep = close(a, b, e, out)
        kept.append(int(np.count_nonzero(keep)))
        return keep

    chunks = _stage0_chunks(arr, eps, counting)
    for i, j in chunks:
        assert i.dtype == j.dtype == np.int32 and i.base is None and j.base is None
        assert 0 < len(i) == len(j) <= estimators.PAIR_CHUNK and (i < j).all()
    i, j = (np.concatenate([np.empty(0, np.int32)] + [c[col] for c in chunks]) for col in (0, 1))
    return i, j, np.arange(len(i)) < len(i) - sum(kept)


def _words(sys_, k):
    return [word(syms, sys_.m) for syms in itertools.product(range(1, sys_.m + 1), repeat=k - 1)]


def _ball_counts(sys_, omega, k, eps, pset):
    return _count_cells(sys_, pset, eps, [(k, omega)], "balls")[0]


@pytest.mark.parametrize("eps", EPS)
def test_ball_counts_match_oracle(pair_systems, chunk, eps, path):
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
def test_separated_set_matches_oracle(pair_systems, chunk, eps, path):
    fast, oracle, calls = pair_systems
    pts = _points(30, 2)
    for k in (1, 2, 3):
        for w in _words(fast, k)[:4]:
            assert net(pts, fast, w, k, eps) == net(pts, oracle, w, k, eps)
    assert calls


@pytest.mark.parametrize("x", [0.0, 1.0 - 2.0**-53, 0.3])
@pytest.mark.parametrize("eps", EPS)
def test_correlation_sum_matches_oracle(pair_systems, chunk, x, eps, path):
    fast, oracle, calls = pair_systems
    w = word([1] + [fast.m] * 2, fast.m)
    got = correlation_sum(fast, x, eps, w, 3, 40, 3, seed=5)
    want = correlation_sum(oracle, x, eps, w, 3, 40, 3, seed=5)
    assert got == want
    assert calls


@pytest.mark.parametrize("x", [0.0, 1.0 - 2.0**-53])
def test_local_corr_entropy_matches_oracle(pair_systems, chunk, x, path):
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
def test_one_and_two_points_match_oracle(pair_systems, eps, pts, path):
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
    margin = estimators.PAIR_MARGIN * 2.49  # 2.49 is the largest |point|
    pts = list(bases) + [2.49]
    for x in bases:
        for d in (e + t * margin for e in (eps, 1.0 - eps) for t in (-1, -0.5, 0, 0.5, 1)):
            for y in (x + d, (x + d) % 1.0, x - d):
                if abs(y) < 2.49:
                    pts += [y, np.nextafter(y, -np.inf), np.nextafter(y, np.inf)]
    return list(dict.fromkeys(pts))


@pytest.mark.parametrize("eps", EPS + (0.75, 2.0))
def test_stage0_is_exactly_the_close_pairs(chunk, eps):
    """Sorted-order bands, wrap-around band, margin and chunking: the
    walk's stage 0 streams each pair i < j with close(arr[i], arr[j])
    once, as int32, also for points outside [0, 1) and for points on both
    sides of where each band's sure part ends and its margin part
    begins."""
    rng = substream(3)
    for pts in (
        _points(40, 3) + [-0.3, 1.7, 2.05, -1.95, 5.0, 1e6, 1e6 + 0.1],
        _margin_points(eps),
    ):
        arr = np.array(pts)
        arr = arr[rng.permutation(len(arr))]
        i, j, _ = _stage0(arr, eps)
        got = sorted(zip(i.tolist(), j.tolist()))
        a, b = np.triu_indices(len(arr), 1)
        hit = systems._circle_close(arr[a], arr[b], eps)
        assert got == sorted(zip(a[hit].tolist(), b[hit].tolist()))


@pytest.mark.parametrize("eps", EPS + (0.75, 2.0))
def test_stage0_counts_its_sure_pairs_first(chunk, eps):
    """The pairs that stage 0 streams untested, which come first, pass
    the exact test at eps - margin / 2, margin the sweep's own, also for
    points outside [0, 1) and on the edges of the bands; and every pair
    within eps - 2 margin is streamed untested."""
    rng = substream(13)
    for pts in (
        _points(40, 3) + [-0.3, 1.7, 2.05, -1.95, 5.0, 1e6, 1e6 + 0.1],
        _points(40, 13),
        _margin_points(eps),
    ):
        arr = np.array(pts)
        arr = arr[rng.permutation(len(arr))]
        i, j, sure = _stage0(arr, eps)
        margin = estimators.PAIR_MARGIN * max(1.0, float(np.abs(arr).max()))
        assert systems._circle_close(arr[i[sure]], arr[j[sure]], eps - margin / 2).all()
        deep = systems._circle_close(arr[i], arr[j], eps - 2 * margin)
        assert not deep[~sure].any()


@pytest.mark.parametrize("eps", (0.5, 0.5 - 1e-11, 0.125, 2.0**-20))
def test_one_center_walks_its_own_pairs_like_the_oracle(pair_systems, chunk, eps, path):
    """A one-centre count reads its one arc off the centre's distances
    below the domain edge, and walks the centre's pairs within eps, which
    close picks from the whole array, above it (and below it on the
    walk path): no bands and no dense within.
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


@pytest.mark.parametrize("n, eps", [(2048, 1 / 8), (4096, 1 / 4), (16384, 1 / 64)])
def test_stage0_memory_is_bounded(n, eps):
    """Stage 0 of n points, read one chunk at a time, peaks at no more
    than

        128 n + 32 PAIR_CHUNK bytes

    of numpy allocations, however many pairs P it streams: the sort, the
    per-row band bounds and the edges of all rows' bands (under 16 int64
    words per point) and one chunk's temporaries, the chunk yielded and
    the one the reader still holds included (under 8 int32 words per
    candidate).  Nothing grows with P: here the pairs alone would take
    8 P bytes, 5 to 30 times the bound."""
    arr = substream(12).random(n)
    tracemalloc.start()
    try:
        pairs = 0
        order = np.argsort(arr, kind="stable").astype(np.int32)
        for i, _ in estimators._stage0(SYSTEMS["circle"], arr, order, arr[order], eps):
            pairs += len(i)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pairs > 0.9 * eps * n * (n - 1)  # about n^2 eps pairs
    bound = 128 * n + 32 * estimators.PAIR_CHUNK
    assert peak <= bound and 5 * bound < 8 * pairs


@pytest.mark.parametrize("kind", ["balls", "pairs"])
def test_walk_memory_does_not_grow_with_the_pairs(walk, kind):
    """A whole circle walk of N = 4096 points, at eps 1/4 and at eps 1/32
    (8 times fewer stage-0 pairs), and at eps 0.4, past the domain edge,
    peaks at no more than

        8 N nodes + 4 N cells + 128 N + 96 PAIR_CHUNK bytes

    of numpy allocations: a float64 stage array per trie node, an int32
    count per cell, stage 0's sort and band bounds and the tally's
    bincounts (under 16 int64 words per point), and the temporaries of
    one chunk (stage 0's slice, the gather buffers, and a filtered pair
    set per trie level on the walk's stack).  There is no term in the
    pair count P: the pairs at eps 1/4 alone would take 8 P bytes, more
    than 10 times the bound."""
    fast, n = SYSTEMS["circle"], 4096
    pts = substream(21).random(n).tolist()
    cells = _cells(fast)
    nodes = {w.symbols[:d] for k, w in cells for d in range(k)}
    bound = 8 * n * len(nodes) + 4 * n * len(cells) + 128 * n + 96 * estimators.PAIR_CHUNK
    pairs = []
    for eps in (0.25, 1 / 32, 0.4):
        pairs.append(len(_stage0(np.array(pts), eps)[0]))
        pset = _as_point_set(fast, pts)
        tracemalloc.start()
        try:
            _count_cells(fast, pset, eps, cells, kind, **_kind_options(kind, n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, eps
    assert pairs[0] >= 4 * pairs[1] and 8 * pairs[0] > 10 * bound


def test_each_count_sweeps_stage0_once(walk):
    """A point set keeps no stage-0 pairs: every _count_cells call on a
    pair system that walks makes them anew, once, whatever its cells and
    radius."""
    calls = []
    fast = _sparse(SYSTEMS["circle"], calls)
    pts = _points(10, 4)
    pset = _as_point_set(fast, pts)
    cells = _cells(fast)
    for n, eps in enumerate((0.25, 0.125, 0.25, 0.125, 0.0625, 0.125, 0.4), 1):
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
def test_walk_matches_per_cell_oracle(pair_systems, chunk, kind, eps, path):
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
def test_nodes_keeping_any_share_of_pairs_match_oracle(walk, chunk, kind, share):
    """Nodes that keep all their parent's pairs (every rotation node, and
    here every doubling node for "all") and nodes that drop some, most or
    all of them count what they keep; the counts equal the oracle's in
    every case, with one, seven or all pairs per chunk."""
    base = SYSTEMS["circle"]
    fast, oracle = _sparse(base, []), generic_system(base)
    pts, eps = SHARES[share], 0.125
    i, j, _ = _stage0(np.array(pts), eps)
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


def _counting_walk(monkeypatch, name="circle"):
    """Patch the walk so that each yield logs (pairs passed to the tally
    since the last yield, pairs the last close test kept or None if no
    test ran since, the yielded tally); returns the pair ops of system
    name with a close that counts, and the log."""
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
    return replace(SYSTEMS[name].pair_ops, close=counting_close), log


def _pair_masks(sys_, arr, eps, i, j, root):
    """Per trie node where cells end, keyed by its first cell: the mask of
    the pairs (i, j) within eps at every stage along its prefix, each
    stage tested with pair_ops.close."""
    out, todo = {}, [(root, arr, np.ones(len(i), dtype=bool))]
    while todo:
        (_, kids, ends), x, mask = todo.pop()
        if ends:
            out[ends[0]] = mask
        for sym, kid in kids.items():
            y = sys_.array_ops.apply(sym, x)
            todo.append((kid, y, mask & sys_.pair_ops.close(y[i], y[j], eps)))
    return out


@pytest.mark.parametrize(
    "name, n, eps, ks, m_omega",
    [
        ("circle", 2048, 0.125, [1, 2, 3, 4, 5], 4),
        ("torus", 1024, 0.0625, [1, 2, 3, 4, 5], 4),
        ("circle", 1024, 0.4, [1, 2, 3, 4, 5], 4),
    ],
)
def test_nodes_tally_exactly_their_survivors(monkeypatch, name, n, eps, ks, m_omega):
    """On the benchmark's circle corr-entropy shape and on a torus series,
    walked, and past the domain edge, every node where cells end passes
    the tally, per chunk, exactly its survivors, counted here by testing
    every stage."""
    _force_walk(monkeypatch)
    pair_ops, log = _counting_walk(monkeypatch, name)
    fast = replace(SYSTEMS[name], pair_ops=pair_ops)
    walk, seen = estimators._pair_walk, []

    def seeing_walk(sys_, arr, chunks, eps, root, tally=None):
        for c, lo, got in walk(sys_, arr, chunks, eps, root, tally):
            seen.append((c, lo, root))
            yield c, lo, got

    monkeypatch.setattr(estimators, "_pair_walk", seeing_walk)
    em = EmpiricalMeasure.draw(fast, n, 11)
    corr_entropy_series(em, fast, [eps], ks, 2.0, m_omega, seed=11)
    arr = np.array(em.points)
    sizes = [len(i) for i, _ in _stage0_chunks(arr, eps)]
    stop = dict(zip(np.cumsum([0] + sizes[:-1]).tolist(), np.cumsum(sizes).tolist()))
    i, j, _ = _stage0(arr, eps)
    masks = _pair_masks(SYSTEMS[name], arr, eps, i, j, seen[0][2])
    assert all(root is seen[0][2] for _, _, root in seen) and len(seen) == len(log)
    for (c, lo, _), (passed, _, got) in zip(seen, log):
        alive = int(np.count_nonzero(masks[c][lo:stop[lo]]))
        assert alive and int(got.sum()) == 2 * alive  # two ball counts per pair
        assert passed == alive, (c, lo)


@pytest.mark.parametrize("eps", [0.25, 0.4])
@pytest.mark.parametrize("k", [2, 4, 6])
def test_single_cell_tallies_only_its_survivors(walk, monkeypatch, k, eps):
    """A torus-affine correlation sum counts one cell, which ends at the
    trie's one leaf: the walk tallies no node above it, and the leaf no
    more pairs than it keeps."""
    pair_ops, log = _counting_walk(monkeypatch, "torus")
    fast = replace(SYSTEMS["torus"], pair_ops=pair_ops)
    correlation_sum(fast, 0.3, eps, word([1, 2, 2, 1, 2], 2), k, 1200, 2, seed=89)
    assert log
    assert all(kept is not None and passed <= kept for passed, kept, _ in log)


def test_series_over_shared_prefixes_match_oracle(pair_systems, chunk, path):
    """Exhaustive horizons and Monte Carlo ones whose draws share trie
    nodes and repeat, through the three word-averaged series, as arcs
    and past the domain edge."""
    fast, oracle, calls = pair_systems
    pts = _points(30, 8)
    em = EmpiricalMeasure(tuple(pts))
    eps_list, ks = [0.4, 0.25, 0.125], [1, 2, 3, 4, 5]

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
    its stage filter once per stage-0 chunk, besides stage 0's own tests
    of its margin bands; a walk that re-filtered each cell from stage 0
    would run it sum(k - 1) times per chunk."""
    if chunk_size is not None:
        monkeypatch.setattr(estimators, "PAIR_CHUNK", chunk_size)
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
        pair_ops=replace(base.pair_ops, close=close),
    )
    pts = _points(20, 9)
    cells = _cells(fast)
    nodes = {w.symbols[:d] for k, w in cells for d in range(k)}
    # at eps = 1/2 every pair is close at every stage, so no subtree is skipped
    pset = _as_point_set(fast, pts)
    chunks = _stage0_chunks(np.asarray(pts), 0.5, close)
    assert sum(len(i) for i, _ in chunks) == len(pts) * (len(pts) - 1) // 2
    chunks, margin_tests = len(chunks), count["close"]
    _count_cells(fast, pset, 0.5, cells, "balls")
    assert count["apply"] == len(nodes) - 1
    assert count["close"] == (len(nodes) - 1) * chunks + 2 * margin_tests
    assert sum(k - 1 for k, _ in cells) > len(nodes) - 1


def test_doubling_series_walks_once_per_radius(walk, monkeypatch):
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
    eps_list, ks = [0.4, 0.125, 0.0625], [1, 2, 3, 4, 5, 6]
    got = doubling_series(EmpiricalMeasure(pts), fast, omega, eps_list, ks)
    assert count == {"walks": 2 * len(eps_list), "apply": 2 * len(eps_list) * (len(ks) - 1)}
    for eps, series in zip(eps_list, got):
        assert series.epsilon == eps
        assert [k for k, _ in series.rows] == ks
        for k, value in series.rows:
            for s in (base, generic_system(base)):
                assert value == doubling_ratio(EmpiricalMeasure(pts), s, omega, k, eps), (eps, k)


# ---------------------------------------------------------------------------
# pairs on the edges of stage 0's bands


def _boundary_points(eps, outside):
    """Pairs whose computed distance sits at eps - margin (margin =
    PAIR_MARGIN, stage 0's on [0, 1]) and at eps, and up to two float
    steps either side, directly and the long way round across 0; as
    they are, so that the root's rotation kid starts from them, and
    halved, so that they sit at stage 1 after a doubling, before the
    rotation chain of the word 1,2,2,2,1,2.  From the bases 0.07 and
    0.37 some pairs within eps leave it under a rotation.  outside adds
    a point outside [0, 1], where no cell is counted as an arc."""
    margin = estimators.PAIR_MARGIN
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
@pytest.mark.parametrize("eps", (0.4, 0.25, 0.125, 2.0**-20))
def test_sure_pairs_at_the_margin_match_oracle(monkeypatch, eps, outside):
    """Ball counts (corr-entropy), pair counts (corr-sum), greedy nets
    (top-entropy) and one-centre counts (local entropy) over words with
    one rotation after stage 0 and rotation chains after a doubling
    equal the oracle's, with one, seven or all pairs per chunk, for pairs
    on both sides of eps - margin and of eps: as arcs where they are, and
    by the walk (past the domain edge, for a sample outside [0, 1], and
    on the walk path)."""
    fast, oracle = _sparse(SYSTEMS["circle"], []), generic_system(SYSTEMS["circle"])
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
    paths = (False, True) if eps < 1 / 3 and not outside else (False,)  # else it walks anyway
    for chunk_size, walked in itertools.product((None, 1, 7), paths):
        with monkeypatch.context() as patch:
            if chunk_size is not None:
                patch.setattr(estimators, "PAIR_CHUNK", chunk_size)
            if walked:
                _force_walk(patch)
            for kind, values in want.items():
                got = _count_cells(fast, _as_point_set(fast, pts), eps, cells, kind,
                                   **_kind_options(kind, len(pts)))
                for g, v, cell in zip(got, values, cells):
                    assert np.array_equal(g, v), (chunk_size, walked, kind, cell)
            assert local == [
                local_entropy_series(em, fast, omega, c, [eps], range(1, 8))[0].rows
                for c in centers
            ]


def _margin_pairs(eps, offsets):
    """Points of [0, 1) paired at eps + t margin for t in offsets, directly
    and (from the base 1 - eps / 4) the long way round across 0, where
    margin = PAIR_MARGIN, stage 0's on [0, 1]: a pair with t < -1 lies
    in a sure band, one with -1 < t <= 1 in a margin band, whose exact
    test keeps it for t <= 0 and drops it for t > 0."""
    pts = []
    for x in (0.07, 0.37, 0.6, 1.0 - eps / 4):
        pts.append(x)
        for t in offsets:
            d = eps + t * estimators.PAIR_MARGIN
            pts += [(x + d) % 1.0, (x - d) % 1.0]
    return pts


@pytest.mark.parametrize("kind", ["balls", "pairs", "net"])
@pytest.mark.parametrize("eps", (0.25, 0.125, 2.0**-20, 0.4))
def test_walk_reads_sure_and_margin_chunks_like_the_oracle(walk, chunk, kind, eps):
    """Ball counts, pair counts and greedy nets along words with rotation
    chains equal the oracle's, with one, seven or all pairs per chunk,
    when a sure chunk crosses from the near band into the wrap-around
    band and the sure chunks end part way through a chunk's worth of
    pairs (so the first margin chunk starts at no multiple of
    PAIR_CHUNK), followed by margin chunks that the exact test keeps in
    part, and when the exact test empties every margin slice it reads."""
    tested = []

    def close(a, b, e, out=None):  # stage 0's exact test only
        hit = systems._circle_close(a, b, e, out)
        tested.append(int(np.count_nonzero(hit)))
        return hit

    fast, oracle = _sparse(SYSTEMS["circle"], []), generic_system(SYSTEMS["circle"])
    cells = [
        (k, word(syms, 2))
        for syms in [(1, 2, 2, 2, 1, 2), (2, 1, 2, 2), (2, 2, 1)]
        for k in range(1, len(syms) + 2)
    ]
    for offsets in ((-3, -0.5, 0.5), (-3, 0.5)):
        pts = _margin_pairs(eps, offsets)
        arr, opts = np.array(pts), _kind_options(kind, len(pts))
        tested.clear()
        i, j, sure = _stage0(arr, eps, close)
        if len(offsets) == 3:  # margin pairs kept, after a partial sure chunk
            size, wrap = estimators.PAIR_CHUNK, abs(arr[i] - arr[j]) > 0.5
            assert 0 < sure.sum() < len(sure) and any(tested)
            assert size == 1 or sure.sum() % size
            wraps = [wrap[lo:min(lo + size, sure.sum())] for lo in range(0, sure.sum(), size)]
            assert size == 1 or any(w.any() and not w.all() for w in wraps)
        else:
            assert sure.all() and tested and not any(tested)
        got = _count_cells(fast, _as_point_set(fast, pts), eps, cells, kind, **opts)
        for g, cell in zip(got, cells):
            want = _count_cells(oracle, _as_point_set(oracle, pts), eps, [cell], kind, **opts)
            assert np.array_equal(g, want[0]), (offsets, cell)
