"""uint64 window path of the binary backend against its exact
BinaryPoint path: equal results, and the same exception wherever the
exact path raises."""

import math
import weakref
from collections import Counter
from dataclasses import replace

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
    corr_entropy_series,
    correlation_sum,
    doubling_series,
    local_entropy_series,
    top_entropy_series,
)
from fsgentropy.seeding import substream
from fsgentropy.systems import binary_shift_odometer, build_power_system
from fsgentropy.words import word
from oracles import (
    all_points,
    ball_measure,
    doubling_ratio,
    generic_system,
    net,
    odometer_undecided,
    orbit_windows_loop,
)

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
def groups_of_two(monkeypatch):
    """Driving-word orbits walked two at a time: three orbits make two
    groups, orbits 0-1 and orbit 2."""
    monkeypatch.setattr(estimators, "ORBIT_GROUP", 2)
    estimators._upsilon_orbits.cache_clear()
    yield 2
    estimators._upsilon_orbits.cache_clear()


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
        state = window_stage(wins, 2.0**-60, state, sym)
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


@pytest.mark.parametrize("t", [2, 3])
def test_power_systems_count_through_windows_like_the_oracle(t, exact_calls):
    # a power stage runs its base digits on the windows: the counts of the
    # exact keys and the pairwise oracle, and where a digit cannot decide,
    # the exact keys' error, whose type the oracle raises too
    power = build_power_system(binary_shift_odometer(depth=80), t)
    assert power.window_ops is not None and power.isometries == frozenset()
    keys, oracle, m = replace(power, window_ops=None), generic_system(power), power.m
    rng = substream(40 + t)
    deep = _points(48, 80, 4)
    x = deep[0]
    cases = [  # points, word, k, eps, whether the windows decide
        (deep, tuple(rng.integers(1, m + 1, size=5).tolist()), 6, 0.25, True),
        (deep, tuple(rng.integers(1, m + 1, size=5).tolist()), 4, 2.0**-5, True),
        (all_points(4), (m, 1), 2, 0.5, False),  # all odometers: 0b1111 overflows
        (_points(16, 6, 2), (1, 1), 3, 2.0**-4, False),  # 4 + 2t coordinates of 6
    ]
    for points, syms, k, eps, decided in cases:
        omega = word(syms, m)
        fns = dict(_consumers(points, omega, k, eps), corr_sum=_corr_sum(x, eps, omega, k, 30, 3))
        for name, fn in fns.items():
            del exact_calls[:]
            got = _outcome(fn, power)
            assert (not exact_calls) == decided or name == "corr_sum", (syms, name)
            assert got == _outcome(fn, keys) and got[:2] == _outcome(fn, oracle)[:2], (syms, name)
            assert got[0] == "ok" or got[1] in (CarryOverflow, DepthExhausted), (syms, name)
    # orbits along odometers only run into the all-ones prefix
    top = binary.BinaryPoint((1 << 80) - 3, 80)
    fn = _corr_sum(top, 0.25, word((m,) * 4, m), 5, 30, 3)
    got = _outcome(fn, power)
    assert got == _outcome(fn, keys) == _outcome(fn, oracle) and got[1] is CarryOverflow


@pytest.mark.parametrize("t", [2, 3])
def test_power_system_after_a_base_walk_counts_like_the_oracle(t):
    # base and power system share one point set (one to_windows), but not
    # their stages: a power walk right after a base walk along the same
    # symbols counts as a fresh one and as the oracle
    base = binary_shift_odometer(depth=64)
    power = build_power_system(base, t)
    points = tuple(_points(60, 64, 15))
    em = EmpiricalMeasure(points)
    for eps in (0.25, 2.0**-3):
        em.ball_measures(base, word((1, 2, 2), 2), 3, eps)
        omega = word((1, 2, power.m, 3), power.m)
        got = em.ball_measures(power, omega, 4, eps).tolist()
        assert got == EmpiricalMeasure(points).ball_measures(power, omega, 4, eps).tolist()
        oracle = EmpiricalMeasure(points).ball_measures(generic_system(power), omega, 4, eps)
        assert got == oracle.tolist()


# ---------------------------------------------------------------------------
# orbits


def _corr_sum(x, eps, omega, k, n, m):
    return lambda s: correlation_sum(s, x, eps, omega, k, n, m, seed=9)


def test_orbit_windows_match_exact_orbits():
    # one pair of arrays, orbit o at [200 * o, 200 * (o + 1)), from word
    # tuples and int8 arrays alike
    x = binary.random_point(300, substream(5))
    words = [tuple(substream(6, j).integers(1, 3, size=199).tolist()) for j in range(3)]
    win, depth = orbit_windows(x, words, 200)
    assert len(win) == len(depth) == 3 * 200
    for o, syms in enumerate(words):
        cur = x
        orbit = [x]
        for s in syms:
            cur = binary.drop_head(cur) if s == 1 else binary.add_one(cur)
            orbit.append(cur)
        assert win[200 * o:200 * (o + 1)].tolist() == [p.value & M64 for p in orbit]
        assert depth[200 * o:200 * (o + 1)].tolist() == [p.depth for p in orbit]
    arrays = orbit_windows(x, [np.array(w, dtype=np.int8) for w in words], 200)
    assert all(np.array_equal(a, b) for a, b in zip(arrays, (win, depth)))


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
    assert first == second == fn(generic_system(sys_))


def test_orbit_failures_raise_on_every_call():
    x = binary.BinaryPoint((1 << 70) - 1, 70)
    sys_ = binary_shift_odometer(depth=70)
    for s in (sys_, generic_system(sys_)):
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
    root, _, uses = _trie(tuple(cells), sys_.isometries)
    labels = _label_walk(fast, _as_point_set(fast, points), eps, root, uses, _first_come)
    assert decided.count(False) == 1 and len(exact_calls) == 1
    exact = replace(sys_, window_ops=None)
    assert labels == _label_walk(exact, _as_point_set(exact, points), eps, root, uses, _first_come)
    oracle = generic_system(sys_)
    for kind in ("balls", "pairs", "net"):
        opts = _kind_options(kind, len(points))
        got = _count_cells(fast, _as_point_set(fast, points), eps, cells, kind, **opts)
        for g, cell in zip(got, cells):
            want = _count_cells(oracle, _as_point_set(oracle, points), eps, [cell], kind, **opts)
            assert np.array_equal(g, want[0]), (kind, cell)


@pytest.mark.parametrize("kind", ["balls", "pairs", "net"])
def test_equal_depth_prefixes_raise_on_every_path(kind):
    # 16 depth-6 points: after three shifts they are depth-3 prefixes, and
    # eps 2**-4 reads four coordinates; the keys raise, and the pairwise
    # oracle raises too, at a pair of equal prefixes, whose distance is
    # known only down to 2**-3
    points = _points(16, 6, 2)
    assert len({p.value >> 3 for p in points}) < 16
    sys_ = binary_shift_odometer(depth=6)
    cells = [(4, word((1, 1, 1), 2))]
    opts = _kind_options(kind, len(points))
    for s in (sys_, replace(sys_, window_ops=None), generic_system(sys_)):
        with pytest.raises(DepthExhausted):
            _count_cells(s, _as_point_set(s, points), 2.0**-4, cells, kind, **opts)
    # one halving coarser, every path counts alike
    oracle = _cells_outcome(generic_system(sys_), points, 2.0**-3, cells, kind)
    assert oracle[0] == "ok"
    for s in (sys_, replace(sys_, window_ops=None)):
        assert _cells_outcome(s, points, 2.0**-3, cells, kind) == oracle


@pytest.mark.parametrize("kind", ["balls", "pairs", "net"])
def test_trie_raises_at_the_first_failing_cell_like_the_oracle(kind):
    # depth-3 points: the odometer overflows on 0b111 at stage 1, and the
    # third shift finds depth-1 points; duplicates make the generic
    # greedy net reach both stages too
    points = [binary.BinaryPoint(v, 3) for v in (5, 2, 7, 0, 3, 5, 7)]
    sys_ = binary_shift_odometer(depth=3)
    carry, depth = (2, word((2,), 2)), (4, word((1, 1, 1), 2))
    opts = _kind_options(kind, len(points))
    systems_ = (sys_, replace(sys_, window_ops=None), generic_system(sys_))
    # in the trie, the carry node is walked first either way
    for failing, error in (([carry, depth], CarryOverflow), ([depth, carry], DepthExhausted)):
        cells = [(1, word((), 2)), (2, word((1,), 2))] + failing
        for s in systems_:
            with pytest.raises(error):
                _count_cells(s, _as_point_set(s, points), 0.5, cells, kind, **opts)
        assert _count_cells(sys_, _as_point_set(sys_, points), 0.5, cells[:2], kind, **opts)


# ---------------------------------------------------------------------------
# the horizons of one word: cylinders for orbits, one walk for a sample


def _counting_stages(sys_):
    """sys_ with its window stages counted per radius, and the counter."""
    counts = Counter()
    ops = sys_.window_ops

    def stage(wins, eps, *rest):
        counts[eps] += 1
        return ops.stage(wins, eps, *rest)

    return replace(sys_, window_ops=replace(ops, stage=stage)), counts


def test_corr_sum_horizons_read_one_count_per_group_and_width(
    monkeypatch, exact_calls, groups_of_two
):
    sys_, stages = _counting_stages(binary_shift_odometer(depth=300))
    x = sys_.mu_sampler(substream(13), 1)[0]
    omega = word((1, 2, 2, 1, 2, 1, 1), 2)
    m, groups = 3, 2
    reads = []
    count = estimators._label_pair_counts
    estimators._time_blocks(80)  # made before reads are counted
    monkeypatch.setattr(estimators, "_label_pair_counts",
                        lambda *args: reads.append(1) or count(*args))
    got = [correlation_sum(sys_, x, eps, omega, k, 80, m, seed=9)
           for eps in (0.25, 3 * 2.0**-5) for k in range(1, 9)]
    # s = 0..4 shifts over the horizons: widths L + s = 2..6 at L = 2 and
    # 4..8 at L = 4, seven in all, each counted once per group of orbits;
    # no window stage and no exact key
    assert len(estimators._upsilon_orbits(sys_, x, 80, m, 9, None)) == groups
    assert len(reads) == 7 * groups
    assert not stages and not exact_calls
    monkeypatch.setattr(estimators, "_label_pair_counts", count)
    estimators._upsilon_orbits.cache_clear()
    exact = replace(sys_, window_ops=None)
    assert got == [correlation_sum(exact, x, eps, omega, k, 80, m, seed=9)
                   for eps in (0.25, 3 * 2.0**-5) for k in range(1, 9)]


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
        assert series.epsilon == eps
        assert [k for k, _ in series.rows] == [1, 2, 3, 4]
        for k, value in series.rows:
            fresh = EmpiricalMeasure(em.points)
            assert value == doubling_ratio(fresh, base, omega, k, eps)
            assert value == doubling_ratio(fresh, generic_system(base), omega, k, eps)


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
    # one walk of 4 stages per radius; per-k walks would take 4 walks
    # and 10 stages
    assert walks == {0.25: 1, 0.125: 1}
    assert stages == {0.25: 4, 0.125: 4}
    for eps, series in zip(eps_list, got):
        assert series.epsilon == eps
        assert [k for k, _ in series.rows] == ks
        for k, value in series.rows:
            for s in (base, generic_system(base)):
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


def test_corr_sum_in_any_call_order_equals_fresh_runs(exact_calls, groups_of_two):
    base = binary_shift_odometer(depth=300)
    sys_, stages = _counting_stages(base)
    x = base.mu_sampler(substream(15), 1)[0]
    omega = word((1, 2, 2, 1, 2, 1, 1), 2)
    a, b, c = 0.25, 0.125, 0.0625
    # gapped ks, a repeated k, a decreasing k, an eps switch, eps / 2 eps
    # alternation and a third radius, all read off the orbits' cylinders
    calls = [(a, 1), (a, 3), (a, 8), (a, 8), (a, 5), (b, 5), (a, 6), (b, 6), (a, 7), (b, 7),
             (c, 7), (a, 8)]
    m = 3

    def corr(s, eps, k):
        return correlation_sum(s, x, eps, omega, k, 60, m, seed=9)

    estimators._upsilon_orbits.cache_clear()
    got = [corr(sys_, eps, k) for eps, k in calls]
    assert not stages and not exact_calls
    for (eps, k), value in zip(calls, got):
        estimators._upsilon_orbits.cache_clear()
        assert value == corr(base, eps, k), (eps, k)
        assert value == corr(generic_system(base), eps, k), (eps, k)


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
def test_repeated_walks_raise_exactly_where_fresh_walks_raise(
    points, eps, omega, ks, raising, error
):
    sys_ = binary_shift_odometer(depth=points[0].depth)
    em = EmpiricalMeasure(tuple(points))
    omega = word(omega, 2)
    for k in ks:
        got = _outcome(lambda s: em.ball_measures(s, omega, k, eps).tolist(), sys_)

        def fresh(s):
            return EmpiricalMeasure(em.points).ball_measures(s, omega, k, eps).tolist()

        assert got == _outcome(fresh, sys_) == _outcome(fresh, replace(sys_, window_ops=None))
        assert (got[0] == "raised") == (k in raising), k
        if k in raising:
            assert got[1] is error


def test_exact_fallback_mid_series_equals_the_exact_path(exact_calls, groups_of_two):
    # L = 60: the cylinders hold up to k = 7 (four shifts, 64 bits), and
    # at k = 8 (the fifth shift) the walk runs, whose exact keys take
    # over at that shift
    sys_ = binary_shift_odometer(depth=200)
    x = sys_.mu_sampler(substream(8), 1)[0]
    omega = word((1, 1, 2, 1, 1, 2, 1), 2)
    exact = replace(sys_, window_ops=None)

    def corr(s, k):
        return correlation_sum(s, x, 2.0**-60, omega, k, 60, 3, seed=9)

    estimators._upsilon_orbits.cache_clear()
    got = [corr(sys_, k) for k in range(1, 9)]
    assert len(exact_calls) == 2  # once per group of orbits, at k = 8
    assert got == [corr(exact, k) for k in range(1, 9)]


def test_orbit_windows_match_the_carry_loop(monkeypatch):
    # random starts, words and lengths, with all-ones and nearly all-ones
    # starts and short depths, so that about half the cases return None;
    # orbits that keep 64 coordinates to the end check carries with one
    # compare, the others per odometer's width, and both checks run
    rng = substream(17)
    nones, deep, widths = 0, 0, []
    scan = binary._carry_may_leave
    monkeypatch.setattr(binary, "_carry_may_leave", lambda *a: widths.append(1) or scan(*a))
    for case in range(400):
        depth = int(rng.choice([3, 8, 20, 63, 64, 65, 100, 300]))
        top = (1 << depth) - 1
        value = [
            int.from_bytes(rng.bytes(depth // 8 + 1), "little") & top,
            top - int(rng.integers(0, 4)),
            top ^ (1 << int(rng.integers(0, depth))),
        ][case % 3]
        x, n = binary.BinaryPoint(value, depth), int(rng.integers(1, 2 * depth + 5))
        p = rng.random()
        words = [
            tuple(np.where(rng.random(n - 1 + int(rng.integers(0, 3))) < p, 2, 1).tolist())
            for _ in range(int(rng.integers(1, 4)))
        ]
        want = orbit_windows_loop(x, words, n)
        scans = len(widths)
        got = orbit_windows(x, words, n)
        if all(depth - w[: n - 1].count(1) >= 64 for w in words):
            assert len(widths) == scans, case
            deep += 1
        if want is None:
            assert got is None, case
            nones += 1
            continue
        win, d = got
        assert len(win) == len(d) == len(words) * n, case
        for o, (want_win, want_d) in enumerate(want):
            at = slice(o * n, (o + 1) * n)
            assert win.dtype == want_win.dtype and d.dtype == want_d.dtype
            assert win[at].tolist() == want_win.tolist(), case
            assert d[at].tolist() == want_d.tolist(), case
    assert 100 < nones < 300
    assert deep > 50 and len(widths) > 50


# ---------------------------------------------------------------------------
# isometric nodes: the odometer packs no key, and a node takes the read of
# the first node of its signature


def test_binary_isometries_are_the_odometer_and_no_power_symbol():
    # the odometer commutes with the shift up to an odometer fixed on each
    # Bowen ball; two odometers do not with two shifts (shift(shift(x +
    # 2)) = shift(shift(x)) + x_2), so a power word's partition depends on
    # where its odometers stand: at radius 1/2, (4, 1) splits what (1,)
    # does not
    sys_ = binary_shift_odometer(depth=64)
    assert sys_.isometries == {2}
    for t in (2, 3):
        assert build_power_system(sys_, t).isometries == frozenset()
    power = generic_system(build_power_system(sys_, 2))
    points = _points(32, 64, 3)
    balls = [
        _count_cells(power, _as_point_set(power, points), 0.5, [cell], "balls")[0]
        for cell in [(2, word((1,), 4)), (3, word((4, 1), 4))]
    ]
    assert not np.array_equal(*balls)


LOW3 = [binary.BinaryPoint(v, 3) for v in (0, 1, 2, 3, 1, 2)]


def _cells_outcome(s, points, eps, cells, kind):
    """_count_cells of every cell on s, as lists, or the error's type."""
    try:
        got = _count_cells(s, _as_point_set(s, points), eps, cells, kind,
                           **_kind_options(kind, len(points)))
    except (CarryOverflow, DepthExhausted) as exc:
        return "raised", type(exc)
    return "ok", [np.asarray(g).tolist() for g in got]


@pytest.mark.parametrize("kind", ["balls", "pairs", "net"])
@pytest.mark.parametrize(
    "points, eps, cells, error",
    [
        # 0b1111 + 1 overflows at an odometer where cells end, and at one
        # where none do, below a shift and right below the root
        (all_points(4), 0.5, [(1, ()), (2, (2,))], CarryOverflow),
        (all_points(4), 0.5, [(1, ()), (4, (2, 1, 1))], CarryOverflow),
        (all_points(4), 0.5, [(2, (1,)), (3, (1, 2)), (4, (1, 2, 1))], CarryOverflow),
        # the same words on a depth with room for every carry
        (all_points(4, 2), 0.5, [(1, ()), (2, (2,)), (3, (2, 2)), (4, (2, 2, 1))], None),
        (all_points(4, 2), 0.5, [(2, (1,)), (3, (1, 2)), (4, (1, 2, 1))], None),
        # the third shift finds depth-1 points: the odometers below it
        # inherit its failure, ending cells or not, and those above it do
        # not fail (top coordinate 0 and at most two odometers after a
        # shift, so no carry overflows)
        (LOW3, 0.5,
         [(3, (1, 2)), (4, (1, 2, 1)), (6, (1, 2, 1, 1, 2)), (7, (1, 2, 1, 1, 2, 2))],
         DepthExhausted),
        (LOW3, 0.5, [(3, (1, 2)), (5, (1, 2, 2, 1)), (8, (1, 1, 1, 2, 2, 2, 1))], DepthExhausted),
        (LOW3, 0.5, [(2, (2,)), (3, (2, 1)), (4, (2, 1, 2)), (5, (2, 1, 2, 1))], None),
        # later nodes of a signature: (1, 2) would take the read of (1,),
        # but carries 0b111 out of depth 3, and (2,) would take the root's,
        # but overflows on 0b1111
        (all_points(4), 0.5, [(2, (1,)), (3, (1, 2))], CarryOverflow),
        (all_points(4), 0.5, [(1, ()), (2, (1,)), (2, (2,)), (3, (2, 1))], CarryOverflow),
        # no 0b1111: (2, 1) reads before (1, 2) of its signature overflows,
        # and after it in the other order, where (2, 1) is the first to read
        (all_points(4)[:15], 0.5, [(3, (2, 1)), (3, (1, 2)), (4, (1, 2, 1))], CarryOverflow),
        (all_points(4)[:15], 0.5, [(3, (1, 2)), (3, (2, 1)), (4, (2, 1, 2))], CarryOverflow),
        # (2, 1) takes the read of (1,), and its third shift below runs out
        # of depth as that of (1,) does: a depth failure follows the shift
        # count, which the signature fixes
        (LOW3, 0.5, [(2, (1,)), (3, (2, 1)), (5, (2, 1, 1, 1)), (4, (1, 1, 1))], DepthExhausted),
    ],
)
def test_isometric_nodes_count_and_fail_like_the_oracle(kind, points, eps, cells, error):
    cells = [(k, word(syms, 2)) for k, syms in cells]
    sys_ = binary_shift_odometer(depth=points[0].depth)
    oracle = _cells_outcome(generic_system(sys_), points, eps, cells, kind)
    assert oracle[0] == ("ok" if error is None else "raised")
    if error is not None:
        assert oracle[1] is error
    for s in (sys_, replace(sys_, window_ops=None)):
        assert _cells_outcome(s, points, eps, cells, kind) == oracle
    # and the cells that do not raise count like the oracle's
    generic = generic_system(sys_)
    fine = [c for c in cells if _cells_outcome(generic, points, eps, [c], kind)[0] == "ok"]
    oracle = _cells_outcome(generic, points, eps, fine, kind)
    for s in (sys_, replace(sys_, window_ops=None)):
        assert _cells_outcome(s, points, eps, fine, kind) == oracle


@pytest.mark.parametrize("kind", ["balls", "pairs", "net"])
@pytest.mark.parametrize("eps", [1.0, 2.0])
def test_radius_past_the_diameter_with_an_odometer_first_letter(kind, eps):
    # keys have width 0, so the root leaves no labels to keep: the first
    # odometer where cells end folds all the same
    points = _points(40, 64, 18)
    sys_ = binary_shift_odometer(depth=64)
    cells = [(k, word(syms, 2)) for k, syms in
             [(2, (2,)), (3, (2, 2)), (3, (2, 1)), (4, (2, 1, 2)), (4, (1, 2, 2))]]
    oracle = _cells_outcome(generic_system(sys_), points, eps, cells, kind)
    assert oracle[0] == "ok"
    for s in (sys_, replace(sys_, window_ops=None)):
        assert _cells_outcome(s, points, eps, cells, kind) == oracle
        rows = top_entropy_series(EmpiricalMeasure(tuple(points)), s, [eps], [2, 3], 4, 1)[0].rows
        assert rows == [(2, 0.0), (3, 0.0)]


def test_top_entropy_folds_only_where_shift_keys_are_pending(monkeypatch):
    # exhaustive words for ks 2..6: cells end at every trie node of depth
    # 1..5, and a node's partition is that of its shift count s; the
    # first node of each s folds and reads (for s = 0 the odometer right
    # below the root, whose key row is still pending), and every other
    # node takes its labels and net
    sys_ = binary_shift_odometer(depth=49)
    eps_list, ks = [0.25, 0.125], [2, 3, 4, 5, 6]
    plain = replace(sys_, isometries=frozenset())
    def top(s):
        em = EmpiricalMeasure.draw(s, 512, 19)
        return [r.rows for r in top_entropy_series(em, s, eps_list, ks, 128, seed=19)]

    want = top(plain)
    counts = Counter()
    for name in ("_fold", "_first_indices"):
        original = getattr(estimators, name)

        def counting(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(estimators, name, counting)
    for s in (sys_, replace(sys_, window_ops=None)):
        counts.clear()
        assert top(s) == want
        folds = 6  # one per radius and shift count 0..5
        assert counts == {"_fold": 2 * folds, "_first_indices": 2 * folds}


def test_top_entropy_series_walks_its_trie_for_uses_once(monkeypatch):
    # the trie and its uses per signature are made once for both radii's
    # walks, and the rows are those of a fresh trie per walk
    sys_ = binary_shift_odometer(depth=49)
    em = EmpiricalMeasure.draw(sys_, 256, 19)

    def top():
        return [r.rows for r in top_entropy_series(em, sys_, [0.25, 0.125], [2, 3, 4, 5], 8, 19)]

    calls, uses = [], estimators._signature_uses
    monkeypatch.setattr(estimators, "_signature_uses", lambda *a: calls.append(1) or uses(*a))
    estimators._trie.cache_clear()
    got = top()
    assert len(calls) == 1
    trie = estimators._trie.__wrapped__
    monkeypatch.setattr(estimators, "_trie", lambda *a: trie(*a))
    assert top() == got and len(calls) == 3


def test_one_measure_is_converted_once_for_corr_and_top_entropy():
    """A measure passed to both series gives both the same point set,
    windowed once, and the rows of fresh measures."""
    base = binary_shift_odometer(depth=64)
    ops, converted = base.window_ops, []

    def to_windows(points):
        converted.append(len(points))
        return ops.to_windows(points)

    sys_ = replace(base, window_ops=replace(ops, to_windows=to_windows))
    em = EmpiricalMeasure(tuple(_points(80, 64, 30)))
    eps_list, ks = [0.25, 0.125], [1, 2, 3, 4, 5]
    pset = em._point_set(sys_)
    corr = corr_entropy_series(em, sys_, eps_list, ks, 2.0, 16, seed=5)
    top = top_entropy_series(em, sys_, eps_list, ks, 16, seed=5)
    assert converted == [80] and em._point_set(sys_) is pset
    for s in (base, replace(base, window_ops=None)):
        fresh = EmpiricalMeasure(em.points)
        assert corr_entropy_series(fresh, s, eps_list, ks, 2.0, 16, seed=5) == corr
        assert top_entropy_series(fresh, s, eps_list, ks, 16, seed=5) == top


def test_reused_reads_give_every_cell_its_own_array():
    points = _points(60, 64, 20)
    sys_ = binary_shift_odometer(depth=64)
    pset = _as_point_set(sys_, points)
    cells = [(1, word((), 2)), (2, word((2,), 2)), (3, word((2, 2), 2)), (3, word((2, 2), 2))]
    got = _count_cells(sys_, pset, 0.125, cells, "balls")
    assert len({id(g) for g in got}) == len(cells)
    assert all(np.array_equal(g, got[0]) for g in got)
    want = got[0].copy()
    for g in got[:3]:
        g[:] = -1.0
    # a later walk reads afresh
    again = _count_cells(sys_, pset, 0.125, [(3, word((2, 2), 2))], "balls")
    assert np.array_equal(got[3], want) and np.array_equal(again[0], want)


def test_corr_sum_reuses_counts_across_calls_in_any_order(
    monkeypatch, exact_calls, groups_of_two
):
    base = binary_shift_odometer(depth=300)
    x = base.mu_sampler(substream(21), 1)[0]
    omega = word((2, 2, 1, 2, 1, 1, 2), 2)
    a, b = 0.25, 0.125
    m, n, groups = 3, 60, 2
    reads = []
    count = estimators._label_pair_counts

    def counting(labels, blocks):
        reads.append(1)
        return count(labels, blocks)

    estimators._upsilon_orbits.cache_clear()
    estimators._time_blocks(n)  # made before reads are counted
    monkeypatch.setattr(estimators, "_label_pair_counts", counting)
    other = _blocks(np.arange(n) * 3 // n, 3, 2)

    def corr(s, eps, k):
        return correlation_sum(s, x, eps, omega, k, n, m, seed=9)

    def other_read(eps, k):
        orbits = estimators._upsilon_orbits(base, x, n, m, 9, None)
        return [_count_cells(base, o, eps, [(k, omega)], "pairs", blocks=other)[0].tolist()
                for o in orbits]

    # (call, reads per group of orbits): a corr-sum reads each cylinder
    # width L + s once (L = 2 at a, 3 at b; s = 0, 0, 0, 1, 1, 1, 2, 3 at
    # k = 1..8), so b, 5 reads afresh and a, 5 later does not; a walk with
    # other blocks always reads, and leaves the corr-sum's counts alone
    calls = [
        ((a, 1), 1), ((a, 2), 0), ((a, 3), 0), ((a, 4), 1), ((a, 5), 0), ((a, 8), 1),
        ((a, 8), 0), ((a, 5), 0), ((b, 5), 1), ((a, 2), 0), (("other", 3), 1), ((a, 3), 0),
        ((a, 3), 0), (("other", 3), 1), (("other", 4), 1), ((a, 4), 0), ((b, 8), 1),
    ]
    got = []
    for call, cost in calls:
        del reads[:]
        if call[0] == "other":
            got.append(other_read(a, call[1]))
        else:
            got.append(corr(base, *call))
        assert len(reads) == cost * groups, call
    assert not exact_calls
    monkeypatch.setattr(estimators, "_label_pair_counts", count)
    for (call, _), value in zip(calls, got):
        estimators._upsilon_orbits.cache_clear()
        if call[0] == "other":
            assert value == other_read(a, call[1]), call
        else:
            assert value == corr(generic_system(base), *call), call


# ---------------------------------------------------------------------------
# signatures: the nodes of one partition share one fold and one read


def _unshared(sys_):
    """sys_ with no isometries: every node where cells end folds and reads."""
    return replace(sys_, isometries=frozenset())


SHARING = {
    "windows": binary_shift_odometer(depth=64),
    "exact keys": replace(binary_shift_odometer(depth=64), window_ops=None),
    "power 2": build_power_system(binary_shift_odometer(depth=64), 2),
}


@pytest.mark.parametrize("kind", ["balls", "pairs", "net"])
@pytest.mark.parametrize("system", list(SHARING))
@pytest.mark.parametrize("m_omega", [64, 5], ids=["exhaustive", "monte-carlo"])
def test_shared_reads_equal_the_unshared_walk_and_the_oracle(kind, system, m_omega):
    sys_ = SHARING[system]
    points = _points(32, 64, 24)
    ks = [1, 2, 3, 4] if sys_.m == 4 else [1, 2, 3, 4, 5, 6, 7]
    _, cells = estimators._series_cells(sys_.m, ks, None, m_omega, 25)
    opts = _kind_options(kind, len(points))
    plain, oracle = _unshared(sys_), generic_system(sys_)
    got = _count_cells(sys_, _as_point_set(sys_, points), 0.5, cells, kind, **opts)
    want = _count_cells(plain, _as_point_set(plain, points), 0.5, cells, kind, **opts)
    for g, w, cell in zip(got, want, cells):
        (o,) = _count_cells(oracle, _as_point_set(oracle, points), 0.5, [cell], kind, **opts)
        assert np.array_equal(g, w) and np.array_equal(g, o), cell


def test_corr_sum_run_with_shared_reads_equals_the_unshared_walk_and_the_oracle():
    base = binary_shift_odometer(depth=300)
    walk = replace(base, window_ops=replace(base.window_ops, cylinder=None))
    x = base.mu_sampler(substream(26), 1)[0]
    omega = word((2, 1, 2, 2, 1, 1, 2), 2)

    def run(s):
        # the cylinders, and walks where an odometer's node takes the read
        # of its signature or, without isometries, reads its own
        estimators._upsilon_orbits.cache_clear()
        return [
            correlation_sum(s, x, eps, omega, k, 60, 3, seed=9)
            for eps in (0.25, 0.125) for k in range(1, 9)
        ]

    got = run(base)
    assert got == run(walk) == run(_unshared(walk)) == run(generic_system(base))


def _tracked_walk(sys_, points, eps, cells):
    """A label walk of cells whose read numbers its results in order:
    the walk's results (the numbers each node took, in walk order), the
    numbers still alive at each read, and weak references to them all."""
    refs, alive = [], []

    def read(labels):
        alive.append([r for r, ref in enumerate(refs) if ref() is not None])
        got = np.array([len(refs)])
        refs.append(weakref.ref(got))
        return got

    root, _, uses = _trie(tuple(cells), sys_.isometries)
    out = _label_walk(sys_, _as_point_set(sys_, points), eps, root, uses, read)
    return [int(v[0]) for v in out.values()], alive, refs


@pytest.mark.parametrize("m_omega", [4096, 24], ids=["exhaustive", "monte-carlo"])
def test_walk_holds_a_shared_partition_until_its_last_use(m_omega):
    sys_ = binary_shift_odometer(depth=64)
    k_max = 8
    _, cells = estimators._series_cells(2, range(1, k_max + 1), None, m_omega, 1)
    for s in (sys_, replace(sys_, window_ops=None)):
        took, alive, refs = _tracked_walk(s, _points(50, 64, 28), 0.25, cells)
        assert len(refs) == k_max  # one read per shift count
        last_use = {r: i for i, r in enumerate(took)}
        for r, held in enumerate(alive):
            at = took.index(r)  # the node that read r
            assert all(last_use[h] > at for h in held), r  # each still needed below
            assert len(held) <= k_max


def test_power_walk_holds_no_read_past_its_node():
    # binary power signatures are whole paths, one node each: every node
    # reads, and no read outlives its node
    sys_ = build_power_system(binary_shift_odometer(depth=64), 2)
    _, cells = estimators._series_cells(4, range(1, 5), None, 4096, 1)
    took, alive, refs = _tracked_walk(sys_, _points(50, 64, 28), 0.25, cells)
    assert took == list(range(len(refs))) and len(refs) == len(cells)
    assert not any(alive)


def test_odometer_carry_check_matches_the_per_point_check():
    # windows of mixed and equal depths, shallow and past 64 bits, with
    # runs of ones at the bottom or a few units short of all ones, walked
    # along words of 12 and 48 letters; where the windows share one width
    # the carried bound holds at every stage, and an odometer is proved
    # by it, decided by a scan or stopped by a scan
    rng = substream(30)
    masks = binary._low_masks()
    seen = Counter()
    for case in range(600):
        n = int(rng.integers(1, 30))
        choices = [[3, 5, 9], [40, 63, 64, 65], [64, 70, 300], [6], [66], [50]][case % 6]
        depth = rng.choice(choices, size=n).astype(np.int64)
        top = masks[np.minimum(depth, 64)]
        if case % 4 == 3:
            win = top - rng.integers(0, 4, size=n).astype(np.uint64)
        else:
            win = rng.integers(0, 2**64 - 1, size=n, dtype=np.uint64, endpoint=True)
            win |= masks[rng.integers(0, 65, size=n)]
        wins = (win & top, depth)
        eps = 2.0 ** -int(rng.integers(0, 4))
        state = window_stage(wins, eps)
        for sym in rng.integers(1, 3, size=12 if case % 2 else 48).tolist():
            if state is None:
                break
            win, shifts, _, reach, bound = state
            how = "per point"
            if isinstance(reach, int):
                edge = (1 << (reach - shifts)) - 1
                assert bound is None or int((win & np.uint64(edge)).max()) <= bound, case
                how = "proved" if bound is not None and bound < edge else "scanned"
            got = window_stage(wins, eps, state, sym)
            if sym == 2:
                assert (got is None) == odometer_undecided(wins, eps, state), case
                seen[how, got is None] += 1
            state = got
    assert not seen["proved", True]
    for how in ("proved", "scanned", "per point"):
        assert seen[how, False] > 50, how
    assert seen["scanned", True] > 50 and seen["per point", True] > 50


def test_walk_scans_for_a_carry_at_most_once_per_shift_count(monkeypatch):
    # the shape of the top-entropy benchmark: 4096 points of depth 49,
    # exhaustive words for ks 2..6; the walk has 31 odometer nodes per
    # radius, and the carried bound leaves a full-array scan only to the
    # first odometer of each shift count (the points share one depth, so
    # no per-point check runs)
    scans = Counter()
    for name in ("_low_max", "_carry_may_leave"):
        original = getattr(binary, name)

        def counting(*args, _name=name, _original=original):
            scans[_name] += 1
            return _original(*args)

        monkeypatch.setattr(binary, name, counting)
    sys_ = binary_shift_odometer(depth=49)
    em = EmpiricalMeasure.draw(sys_, 4096, 31)
    for eps in (0.25, 0.125):
        scans.clear()
        top_entropy_series(em, sys_, [eps], [2, 3, 4, 5, 6], 128, seed=31)
        assert scans["_low_max"] <= 6 and not scans["_carry_may_leave"], eps
