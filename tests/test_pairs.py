"""Sparse Bowen pair lists of the circle family against the generic
pairwise oracle.

Every fast system here has an ArrayOps.within that raises, so a test
fails if a dense N x N path runs, and a stage0 that counts its calls,
so a test fails if the estimators fall through to the generic loop.
"""

import itertools
from dataclasses import fields, replace

import numpy as np
import pytest

from fsgentropy import estimators, systems
from fsgentropy.estimators import (
    EmpiricalMeasure,
    _as_point_set,
    _ball_counts,
    _blocks,
    _count_cells,
    corr_entropy_series,
    correlation_sum,
    local_corr_entropy_series,
    separated_set,
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
from fsgentropy.words import word

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
        pair_ops=PairOps(stage0, sys_.pair_ops.close),
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
            assert separated_set(pts, fast, w, k, eps) == separated_set(pts, oracle, w, k, eps)
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
        assert separated_set(pts, fast, w, k, eps) == separated_set(pts, oracle, w, k, eps)
    assert calls


@pytest.mark.parametrize("eps", EPS + (0.75, 2.0))
def test_stage0_is_exactly_the_close_pairs(chunk, eps):
    """Sorted-order bands, wrap-around band, margin and chunking: stage0
    returns each pair i < j with close(arr[i], arr[j]) once, as int32,
    also for points outside [0, 1)."""
    rng = substream(3)
    arr = np.array(_points(40, 3) + [-0.3, 1.7, 2.05, -1.95, 5.0, 1e6, 1e6 + 0.1])
    arr = arr[rng.permutation(len(arr))]
    i, j = systems._circle_stage0(arr, eps)
    assert i.dtype == np.int32 and j.dtype == np.int32
    got = sorted(zip(i.tolist(), j.tolist()))
    a, b = np.triu_indices(len(arr), 1)
    hit = systems._circle_close(arr[a], arr[b], eps)
    assert got == sorted(zip(a[hit].tolist(), b[hit].tolist()))


def test_point_set_keeps_two_latest_radii():
    calls = []
    fast = _sparse(SYSTEMS["circle"], calls)
    pset = _as_point_set(fast, _points(10, 4))
    for eps in (0.25, 0.125, 0.25, 0.125, 0.0625, 0.125):
        pset.stage0_pairs(fast, eps)
    assert len(calls) == 3
    assert list(pset._stage0) == [0.125, 0.0625]
    pset.release()
    pset.stage0_pairs(fast, 0.125)
    assert len(calls) == 4
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
                top_entropy_series(s, eps_list, [1, 2, 4, 5], 4, 0, seed=3, sample=pts),
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

    def close(a, b, eps):
        count["close"] += 1
        return systems._circle_close(a, b, eps)

    ops = base.array_ops
    fast = replace(
        base,
        array_ops=ArrayOps(ops.to_array, apply, ops.within),
        pair_ops=PairOps(systems._circle_stage0, close),
    )
    pts = _points(20, 9)
    cells = _cells(fast)
    nodes = {w.symbols[:d] for k, w in cells for d in range(k)}
    # at eps = 1/2 every pair is close at every stage, so no subtree is skipped
    pset = _as_point_set(fast, pts)
    n_pairs = len(pset.stage0_pairs(fast, 0.5)[0])
    assert n_pairs == len(pts) * (len(pts) - 1) // 2
    chunks = -(-n_pairs // systems.PAIR_CHUNK)
    _count_cells(fast, pset, 0.5, cells, "balls")
    assert count["apply"] == len(nodes) - 1
    assert count["close"] == (len(nodes) - 1) * chunks
    assert sum(k - 1 for k, _ in cells) > len(nodes) - 1
