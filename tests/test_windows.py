"""uint64 window path of the binary backend against its exact
BinaryPoint path: equal results, and the same exception wherever the
exact path raises."""

import math
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from fsgentropy import binary, estimators
from fsgentropy.binary import orbit_windows, to_windows, window_stage
from fsgentropy.errors import CarryOverflow, DepthExhausted, WordTooShort
from fsgentropy.estimators import (
    EmpiricalMeasure,
    _as_point_set,
    _blocks,
    _count_cells,
    _label_walk,
    _trie,
    correlation_sum,
    doubling_series,
    local_entropy_series,
)
from fsgentropy.seeding import substream
from fsgentropy.systems import binary_shift_odometer, build_power_system
from fsgentropy.words import word
from oracles import all_points, ball_measure, doubling_ratio, net

M64 = (1 << 64) - 1


def _points(n, depth, seed):
    rng = substream(seed)
    return [binary.random_point(depth, rng) for _ in range(n)]


def _outcome(fn, sys_):
    try:
        result = fn(sys_)
    except Exception as exc:  # compared by type and message
        return ("raised", type(exc), str(exc))
    return ("ok", result)


@pytest.fixture
def exact_calls(monkeypatch):
    """Counts the label calls that took the exact BinaryPoint path."""
    calls = []
    original = estimators._bowen_keys

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(estimators, "_bowen_keys", counting)
    return calls


def _consumers(points, omega, k, eps):
    """Every label consumer on one point set, as functions of the system."""
    em = EmpiricalMeasure(tuple(points))
    return {
        "greedy net": lambda s: net(points, s, omega, k, eps),
        "ball counts": lambda s: em.ball_measures(s, omega, k, eps).tolist(),
        "ball measure": lambda s: ball_measure(em, s, omega, k, points[3], eps),
    }


def _assert_parity(points, omega, k, eps, exact_calls, window_ran=True):
    sys_ = binary_shift_odometer(depth=points[0].depth)
    scalar = replace(sys_, window_ops=None)
    for name, fn in _consumers(points, omega, k, eps).items():
        del exact_calls[:]
        fast = _outcome(fn, sys_)
        assert (not exact_calls) == window_ran, name
        assert fast == _outcome(fn, scalar), name


@pytest.mark.parametrize("depth", [12, 49, 63, 64, 65, 200])
def test_window_path_matches_exact_path_at_every_depth(depth, exact_calls):
    points = _points(300, depth, depth)
    omega = word((2, 1, 2, 2, 1, 2, 1), 2)
    for eps in (1.0, 0.25, 3 * 2.0**-5):
        for k in (1, 3, 8):
            _assert_parity(points, omega, k, eps, exact_calls)


def test_keys_spread_over_several_rows_fold_like_the_exact_path(exact_calls):
    # wide keys fit one (L = 40) or three (L = 20) stages to a uint64 row;
    # points share their low 40 bits in groups and differ just above, so
    # the later stages split the groups
    rng = substream(11)
    low = rng.integers(0, 1 << 40, size=6).tolist()
    high = rng.integers(0, 16, size=120).tolist()
    points = [
        binary.BinaryPoint(low[i % 6] | (h << 40) | (1 << 90), 100)
        for i, h in enumerate(high)
    ]
    omega = word((1, 2, 1, 1, 2, 1, 2), 2)
    for eps in (2.0**-40, 2.0**-20):
        for k in (2, 4, 8):
            _assert_parity(points, omega, k, eps, exact_calls)


def test_deep_key_beyond_the_window_falls_back(exact_calls):
    # L = 60 plus 5 shifts needs 65 bits: the windows decide the first
    # seven stages, and the exact path takes over at the fifth shift
    points = _points(64, 200, 1)
    omega = word((1, 1, 2, 1, 1, 2, 1), 2)
    wins, state = to_windows(points), None
    for sym in (None,) + omega.symbols[:-1]:
        state = window_stage(wins, 2.0**-60, state, sym)[0]
    assert window_stage(wins, 2.0**-60, state, omega.symbols[-1]) is None
    _assert_parity(points, omega, 8, 2.0**-60, exact_calls, window_ran=False)


def test_all_ones_prefix_raises_carry_overflow_on_both_paths(exact_calls):
    points = all_points(4)
    omega = word((2, 1), 2)
    _assert_parity(points, omega, 2, 0.5, exact_calls, window_ran=False)
    sys_ = binary_shift_odometer(depth=4)
    with pytest.raises(CarryOverflow):
        net(points, sys_, omega, 2, 0.5)


def test_short_depth_raises_depth_exhausted_on_both_paths(exact_calls):
    points = _points(16, 6, 2)
    # L = 4 plus 3 shifts needs 7 coordinates, the points have 6
    for omega in (word((1, 1, 1), 2), word((1, 2, 1, 1), 2)):
        k = len(omega) + 1
        _assert_parity(points, omega, k, 2.0**-4, exact_calls, window_ran=False)
        with pytest.raises(DepthExhausted):
            net(points, binary_shift_odometer(depth=6), omega, k, 2.0**-4)


def test_window_carry_into_unknown_bits_falls_back_with_equal_results(exact_calls):
    # low 64 bits all ones on a deep point: the window cannot see where
    # the carry stops, the exact path can and does not raise
    points = _points(40, 100, 3)
    points[5] = binary.BinaryPoint(M64 | (1 << 80), 100)
    _assert_parity(points, word((2, 1), 2), 2, 0.25, exact_calls, window_ran=False)


def test_power_system_counts_through_ball_keys():
    power = build_power_system(binary_shift_odometer(depth=80), 2)
    assert power.window_ops is None
    oracle = replace(power, ball_key=None)
    points = _points(48, 80, 4)
    omega = word((3, 2, 4, 1), 4)
    for name, fn in _consumers(points, omega, 4, 0.25).items():
        assert _outcome(fn, power) == _outcome(fn, oracle), name


# ---------------------------------------------------------------------------
# orbits


def _corr_sum(x, eps, omega, k, n, m):
    return lambda s: correlation_sum(s, x, eps, omega, k, n, m, seed=9)


def test_orbit_windows_match_exact_orbits():
    x = binary.random_point(300, substream(5))
    words = [tuple(substream(6, j).integers(1, 3, size=199).tolist()) for j in range(3)]
    wins = orbit_windows(x, words, 200)
    for (win, depth), syms in zip(wins, words):
        cur = x
        orbit = [x]
        for s in syms:
            cur = binary.drop_head(cur) if s == 1 else binary.add_one(cur)
            orbit.append(cur)
        assert win.tolist() == [p.value & M64 for p in orbit]
        assert depth.tolist() == [p.depth for p in orbit]


def test_deep_orbits_match_exact_path(exact_calls):
    # orbit points deeper than 4000 coordinates
    sys_ = binary_shift_odometer(depth=4300)
    x = sys_.mu_sampler(substream(7), 1)[0]
    omega = word((1, 2, 2, 1, 2), 2)
    for eps, k in ((0.25, 1), (3 * 2.0**-5, 6)):
        fn = _corr_sum(x, eps, omega, k, 250, 4)
        del exact_calls[:]
        fast = _outcome(fn, sys_)
        assert not exact_calls
        assert fast == _outcome(fn, replace(sys_, window_ops=None))


def test_orbit_key_beyond_the_window_falls_back(exact_calls):
    sys_ = binary_shift_odometer(depth=200)
    x = sys_.mu_sampler(substream(8), 1)[0]
    omega = word((1, 1, 2, 1, 1, 2, 1), 2)
    fn = _corr_sum(x, 2.0**-60, omega, 8, 60, 3)
    fast = _outcome(fn, sys_)
    assert exact_calls and fast[0] == "ok"
    assert fast == _outcome(fn, replace(sys_, window_ops=None))


def test_repeated_calls_share_lazily_built_orbit_points(exact_calls):
    # the exact keys below the windows build the orbit points on first
    # use; the second call takes the same orbits, points included
    sys_ = binary_shift_odometer(depth=200)
    x = sys_.mu_sampler(substream(8), 1)[0]
    fn = _corr_sum(x, 2.0**-60, word((1, 1, 2, 1, 1, 2, 1), 2), 8, 60, 3)
    estimators._upsilon_orbits.cache_clear()
    first, second = fn(sys_), fn(sys_)
    assert exact_calls
    assert estimators._upsilon_orbits.cache_info().hits == 1
    orbits = estimators._upsilon_orbits(sys_, x, 60, 3, 9, None)
    assert all(o.wins is not None and o._points is not None for o in orbits)
    assert first == second == fn(_generic(sys_))


def test_orbit_failures_raise_on_every_call():
    x = binary.BinaryPoint((1 << 70) - 1, 70)
    sys_ = binary_shift_odometer(depth=70)
    for s in (sys_, _generic(sys_)):
        for _ in range(3):
            with pytest.raises(CarryOverflow):
                _corr_sum(x, 0.25, word((2, 1), 2), 1, 40, 4)(s)


def test_orbit_failures_match_exact_path():
    omega = word((2, 1), 2)
    cases = [
        # all-ones start: the first odometer step overflows
        (binary.BinaryPoint((1 << 70) - 1, 70), 40, CarryOverflow),
        # 60 orbit steps from a depth-12 point run out of coordinates
        (binary.random_point(12, substream(9)), 60, DepthExhausted),
        # low 64 bits all ones on a deep start: no failure, exact path
        (binary.BinaryPoint(M64 | (1 << 150), 160), 40, None),
    ]
    for x, n, error in cases:
        sys_ = binary_shift_odometer(depth=x.depth)
        # k = 1 applies no stage map, so only the orbit windows can fail
        for k in (1, 2):
            fn = _corr_sum(x, 0.25, omega, k, n, 4)
            fast = _outcome(fn, sys_)
            assert fast == _outcome(fn, replace(sys_, window_ops=None))
            assert fast[0] == ("ok" if error is None else "raised")
            if error is not None:
                assert fast[1] is error


def test_local_corr_entropy_window_path_matches_exact_path(exact_calls):
    sys_ = binary_shift_odometer(depth=300)
    x = sys_.mu_sampler(substream(10), 1)[0]

    def fn(s):
        series = estimators.local_corr_entropy_series(
            s, x, [0.25, 0.125], [1, 2, 3], 120, 4, 4, seed=10
        )
        return [(r.rows, r.stderrs, r.flags) for r in series]

    fast = _outcome(fn, sys_)
    assert not exact_calls
    assert fast == _outcome(fn, replace(sys_, window_ops=None))


# ---------------------------------------------------------------------------
# the prefix-trie walk over all the cells of a series


def _generic(sys_):
    """The generic pairwise oracle: every optional fast path stripped."""
    return replace(sys_, **{f.name: None for f in fields(sys_) if f.default is None})


def _first_come(labels):
    index = {}
    return [index.setdefault(v, len(index)) for v in labels.tolist()]


def _kind_options(kind, n):
    if kind != "pairs":
        return {}
    return {"blocks": _blocks(np.arange(n) * 4 // n, 4, 3)}


def test_trie_falls_back_below_a_deciding_parent(exact_calls):
    # L = 60: the windows decide every node with up to four shifts, and
    # the exact keys take over at the node of the fifth, a leaf
    points = _points(64, 200, 12)
    sys_ = binary_shift_odometer(depth=200)
    decided = []
    ops = sys_.window_ops

    def stage(*args):
        got = ops.stage(*args)
        decided.append(got is not None)
        return got

    fast = replace(sys_, window_ops=replace(ops, stage=stage))
    cells = [
        (k, word(syms, 2))
        for k, syms in [
            (1, ()), (5, (1, 1, 2, 1)), (8, (1, 1, 2, 1, 1, 2, 1)), (7, (1, 1, 2, 1, 1, 2)),
            (8, (1, 1, 2, 1, 1, 2, 2)), (3, (2, 2)), (8, (1, 1, 2, 1, 1, 2, 1, 2)),
        ]
    ]
    eps = 2.0**-60
    root, _ = _trie(cells)
    labels = _label_walk(fast, _as_point_set(fast, points), eps, root, _first_come)
    assert decided.count(False) == 1 and len(exact_calls) == 1
    exact = replace(sys_, window_ops=None)
    assert labels == _label_walk(exact, _as_point_set(exact, points), eps, root, _first_come)
    oracle = _generic(sys_)
    for kind in ("balls", "pairs", "net"):
        opts = _kind_options(kind, len(points))
        got = _count_cells(fast, _as_point_set(fast, points), eps, cells, kind, **opts)
        for g, cell in zip(got, cells):
            want = _count_cells(oracle, _as_point_set(oracle, points), eps, [cell], kind, **opts)
            assert np.array_equal(g, want[0]), (kind, cell)


@pytest.mark.parametrize("kind", ["balls", "pairs", "net"])
def test_trie_raises_at_the_first_failing_cell_like_the_oracle(kind):
    # depth-3 points: the odometer overflows on 0b111 at stage 1, and the
    # third shift finds depth-1 points; duplicates make the generic
    # greedy net reach both stages too
    points = [binary.BinaryPoint(v, 3) for v in (5, 2, 7, 0, 3, 5, 7)]
    sys_ = binary_shift_odometer(depth=3)
    carry, depth = (2, word((2,), 2)), (4, word((1, 1, 1), 2))
    opts = _kind_options(kind, len(points))
    systems_ = (sys_, replace(sys_, window_ops=None), _generic(sys_))
    # in the trie, the carry node is walked first either way
    for failing, error in (([carry, depth], CarryOverflow), ([depth, carry], DepthExhausted)):
        cells = [(1, word((), 2)), (2, word((1,), 2))] + failing
        for s in systems_:
            with pytest.raises(error):
                _count_cells(s, _as_point_set(s, points), 0.5, cells, kind, **opts)
        assert _count_cells(sys_, _as_point_set(sys_, points), 0.5, cells[:2], kind, **opts)


# ---------------------------------------------------------------------------
# label walks resumed across the horizons of one word


def _counting_stages(sys_):
    """sys_ with its window stages counted per radius, and the counter."""
    counts = Counter()
    ops = sys_.window_ops

    def stage(wins, eps, *rest):
        counts[eps] += 1
        return ops.stage(wins, eps, *rest)

    return replace(sys_, window_ops=replace(ops, stage=stage)), counts


def test_corr_sum_horizons_take_one_stage_per_orbit_and_k(exact_calls):
    sys_, stages = _counting_stages(binary_shift_odometer(depth=300))
    x = sys_.mu_sampler(substream(13), 1)[0]
    omega = word((1, 2, 2, 1, 2, 1, 1), 2)
    m = 3
    for eps in (0.25, 3 * 2.0**-5):
        for k in range(1, 9):
            correlation_sum(sys_, x, eps, omega, k, 80, m, seed=9)
    # from stage 0 every horizon k would take k stages: 36 per orbit
    assert stages == {0.25: 8 * m, 3 * 2.0**-5: 8 * m}
    assert not exact_calls


def test_doubling_series_takes_one_walk_per_radius():
    base = binary_shift_odometer(depth=64)
    sys_, stages = _counting_stages(base)
    em = EmpiricalMeasure(tuple(_points(100, 64, 14)))
    omega = word((1, 2, 1), 2)
    eps_list = [0.25, 0.125]
    got = doubling_series(em, sys_, omega, eps_list, [1, 2, 3, 4])
    # one walk at eps and one at 2 eps, 4 stages each; per-k walks from
    # stage 0 would take 10 at each radius
    assert stages == {0.5: 4, 0.25: 8, 0.125: 4}
    for eps, series in zip(eps_list, got):
        assert (series.epsilon, series.kind) == (eps, "doubling")
        assert [k for k, _ in series.rows] == [1, 2, 3, 4]
        for k, value in series.rows:
            fresh = EmpiricalMeasure(em.points)
            assert value == doubling_ratio(fresh, base, omega, k, eps)
            assert value == doubling_ratio(fresh, _generic(base), omega, k, eps)


def test_local_entropy_series_takes_one_walk_per_radius(monkeypatch):
    base = binary_shift_odometer(depth=64)
    sys_, stages = _counting_stages(base)
    walks = Counter()
    walk = estimators._label_walk

    def counting_walk(s, pset, eps, *rest):
        walks[eps] += 1
        return walk(s, pset, eps, *rest)

    monkeypatch.setattr(estimators, "_label_walk", counting_walk)
    points = _points(100, 64, 16)
    em = EmpiricalMeasure(tuple(points))
    omega = word((1, 2, 1), 2)
    eps_list, ks = [0.25, 0.125], [1, 2, 3, 4]
    got = local_entropy_series(em, sys_, omega, points[7], eps_list, ks)
    # one walk of 4 stages per radius; per-k walks from stage 0 would
    # take 10 stages, and resumed ones 4 walks
    assert walks == {0.25: 1, 0.125: 1}
    assert stages == {0.25: 4, 0.125: 4}
    for eps, series in zip(eps_list, got):
        assert (series.epsilon, series.kind) == (eps, "local-entropy")
        assert [k for k, _ in series.rows] == ks
        for k, value in series.rows:
            for s in (base, _generic(base)):
                fresh = EmpiricalMeasure(tuple(points))
                assert value == -math.log(ball_measure(fresh, s, omega, k, points[7], eps)) / k


@pytest.mark.parametrize(
    "points, eps, omega, ks, error",
    [
        (_points(16, 6, 2), 2.0**-4, (1, 1, 1, 1), [1, 2, 3, 4, 5], DepthExhausted),
        (all_points(4), 0.5, (1, 2, 2), [1, 2, 3, 4], CarryOverflow),
        (_points(16, 64, 3), 0.25, (1, 2), [1, 2, 3, 4], WordTooShort),
    ],
    ids=["depth", "carry", "short"],
)
def test_doubling_series_raises_as_the_per_k_loop(points, eps, omega, ks, error):
    sys_ = binary_shift_odometer(depth=points[0].depth)
    omega = word(omega, 2)

    def per_k(s):
        em = EmpiricalMeasure(tuple(points))
        return [doubling_ratio(em, s, omega, k, eps) for k in ks]

    def series(s):
        return doubling_series(EmpiricalMeasure(tuple(points)), s, omega, [eps], ks)

    def local(s):
        em = EmpiricalMeasure(tuple(points))
        return local_entropy_series(em, s, omega, points[1], [eps], ks)

    def local_per_k(s):
        em = EmpiricalMeasure(tuple(points))
        return [local_entropy_series(em, s, omega, points[1], [eps], [k]) for k in ks]

    # the exact stage keys, one horizon at a time, name the failure
    oracle = _outcome(local_per_k, replace(sys_, window_ops=None))
    assert oracle[:2] == ("raised", error)
    for s in (sys_, replace(sys_, window_ops=None)):
        for run in (per_k, series):
            with pytest.raises(error):
                run(s)
        assert _outcome(local, s) == oracle


def test_corr_sum_resumed_in_any_call_order_equals_fresh_walks(exact_calls):
    base = binary_shift_odometer(depth=300)
    sys_, stages = _counting_stages(base)
    x = base.mu_sampler(substream(15), 1)[0]
    omega = word((1, 2, 2, 1, 2, 1, 1), 2)
    a, b, c = 0.25, 0.125, 0.0625
    # (eps, k, stages per orbit): gapped ks, a repeated k, a decreasing k,
    # an eps switch, eps / 2 eps alternation and a third radius; labels
    # are kept for the latest radius only, so every switch walks from
    # stage 0
    calls = [
        (a, 1, 1), (a, 3, 2), (a, 8, 5), (a, 8, 0), (a, 5, 5), (b, 5, 5),
        (a, 6, 6), (b, 6, 6), (a, 7, 7), (b, 7, 7), (c, 7, 7), (a, 8, 8),
    ]
    m = 3

    def corr(s, eps, k):
        return correlation_sum(s, x, eps, omega, k, 60, m, seed=9)

    estimators._upsilon_orbits.cache_clear()
    got = []
    for eps, k, cost in calls:
        before = stages[eps]
        got.append(corr(sys_, eps, k))
        assert stages[eps] - before == cost * m, (eps, k)
    assert not exact_calls
    for (eps, k, _), value in zip(calls, got):
        estimators._upsilon_orbits.cache_clear()
        assert value == corr(base, eps, k), (eps, k)
        assert value == corr(_generic(base), eps, k), (eps, k)


@pytest.mark.parametrize(
    "points, eps, omega, ks, raising, error",
    [
        # L = 4 plus 3 shifts needs 7 coordinates, the points have 6
        (_points(16, 6, 2), 2.0**-4, (1, 1, 1, 1), (1, 2, 3, 4, 3, 4, 2, 5), {4, 5},
         DepthExhausted),
        # the odometer after a shift overflows on 0b111
        (all_points(4), 0.5, (1, 2, 2), (1, 2, 3, 2, 3, 1, 4), {3, 4}, CarryOverflow),
    ],
    ids=["depth", "carry"],
)
def test_resumed_walks_raise_exactly_where_fresh_walks_raise(
    points, eps, omega, ks, raising, error
):
    sys_ = binary_shift_odometer(depth=points[0].depth)
    em = EmpiricalMeasure(tuple(points))
    pset = em._point_set(sys_)
    omega = word(omega, 2)
    for k in ks:
        kept = pset.labelled
        got = _outcome(lambda s: em.ball_measures(s, omega, k, eps).tolist(), sys_)

        def fresh(s):
            return EmpiricalMeasure(em.points).ball_measures(s, omega, k, eps).tolist()

        assert got == _outcome(fresh, sys_) == _outcome(fresh, replace(sys_, window_ops=None))
        assert (got[0] == "raised") == (k in raising), k
        if k in raising:
            assert got[1] is error
            # a failed walk keeps nothing: the next one resumes from the
            # labels an earlier walk kept, or from stage 0
            assert pset.labelled is kept


def test_exact_fallback_mid_series_keeps_only_window_labels(exact_calls):
    # L = 60: the windows decide every stage up to k = 7 (four shifts),
    # and the exact keys take over at k = 8 (the fifth shift)
    sys_ = binary_shift_odometer(depth=200)
    x = sys_.mu_sampler(substream(8), 1)[0]
    omega = word((1, 1, 2, 1, 1, 2, 1), 2)
    exact = replace(sys_, window_ops=None)

    def corr(s, k):
        return correlation_sum(s, x, 2.0**-60, omega, k, 60, 3, seed=9)

    estimators._upsilon_orbits.cache_clear()
    got = [corr(sys_, k) for k in range(1, 9)]
    assert len(exact_calls) == 3  # once per orbit, at k = 8
    for orbit in estimators._upsilon_orbits(sys_, x, 60, 3, 9, None):
        kept_eps, path, carried = orbit.labelled
        assert kept_eps == 2.0**-60 and path == omega.symbols[:6] and carried[1] is None
    assert got == [corr(exact, k) for k in range(1, 9)]
