"""Binary orbit sets counted as cylinders of their windows
(binary.cylinder_labels, estimators._cylinder_counts) against the exact
BinaryPoint keys and the generic pairwise oracle: equal results, and
wherever the cylinders cannot vouch for every point, the walk, which
raises the exact keys' failure (type and message) at the same first
failing orbit and cell, and the oracle's wherever both fail but for
what their depth rules tell apart (see _check)."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from fsgentropy import binary, cli, estimators
from fsgentropy.binary import BinaryPoint, prefix_length_for, s_count
from fsgentropy.errors import CarryOverflow, DepthExhausted
from fsgentropy.estimators import correlation_sum, local_corr_entropy_series
from fsgentropy.seeding import OMEGA, POINT, substream
from fsgentropy.systems import binary_shift_odometer, bowen_distance, build_power_system
from fsgentropy.words import BernoulliSpec, sample_word, uniform_spec, word
from oracles import generic_system

# driving words of odometers alone (orbit point i is x + i, one depth)
# and of shifts alone (x >> i, depth x.depth - i)
ODOMETERS = BernoulliSpec((1e-9, 1 - 1e-9))
SHIFTS = BernoulliSpec((1 - 1e-9, 1e-9))


@pytest.fixture
def paths(monkeypatch):
    """Counts, per group of orbits, the counts the cylinders gave, the
    groups they declined, and the label walks."""
    seen = Counter()
    cylinders, walk = estimators._cylinder_counts, estimators._label_walk

    def counting_cylinders(*args):
        got = cylinders(*args)
        seen["declined" if got is None else "cylinders"] += 1
        return got

    def counting_walk(*args):
        seen["walks"] += 1
        return walk(*args)

    monkeypatch.setattr(estimators, "_cylinder_counts", counting_cylinders)
    monkeypatch.setattr(estimators, "_label_walk", counting_walk)
    return seen


@pytest.fixture
def reads(monkeypatch):
    """The pair counts read off labels, after the time blocks' own."""
    calls = []
    count = estimators._label_pair_counts
    monkeypatch.setattr(estimators, "_label_pair_counts",
                        lambda *args: calls.append(1) or count(*args))
    return calls


def _outcome(fn, sys_):
    estimators._upsilon_orbits.cache_clear()
    try:
        return "ok", fn(sys_)
    except Exception as exc:  # compared by type and message
        return "raised", type(exc), str(exc)


def _check(fn, sys_, paths):
    """fn's outcome on sys_, which the exact keys give too (a failure's
    message included), and the paths the run on sys_ took.  The generic
    oracle gives the same values, or a failure of the same type, but for
    two depth rules: a key needs L coordinates at every stage, which the
    pairwise metric, stopping at a pair's first stage apart, may never
    read ("need ..."), and the metric raises for points of two depths
    that agree on the shorter one's prefix, which keys of L bits do not
    read ("... shorter prefix")."""
    paths.clear()
    got = _outcome(fn, sys_)
    took = dict(paths)
    assert got == _outcome(fn, replace(sys_, window_ops=None))
    oracle = _outcome(fn, generic_system(sys_))
    if got[0] == oracle[0] == "ok":
        assert got == oracle
    elif not (got[0] == "raised" and got[2].startswith("need ")
              or oracle[0] == "raised" and oracle[2].endswith("shorter prefix")):
        assert got[:2] == oracle[:2]
    return got, took


def _corr(x, eps, syms, n=24, m=5, weights=None):
    omega = word(syms, 2)
    return lambda s: correlation_sum(s, x, eps, omega, len(syms) + 1, n, m, 3, weights)


def _local(x, eps_list, ks, n=20, m=5, weights=None):
    def fn(s):
        series = local_corr_entropy_series(s, x, eps_list, ks, n, m, 8, 4, weights)
        return [(r.rows, r.stderrs, r.flags) for r in series]

    return fn


def _carry(syms) -> int:
    """D: the odometers of syms, each weighted 2**(shifts before it)."""
    shifts, d = 0, 0
    for s in syms:
        shifts, d = (shifts + 1, d) if s == 1 else (shifts, d + (1 << shifts))
    return d


def _point(value, depth):
    return BinaryPoint(value, depth)


# ---------------------------------------------------------------------------
# the closed form itself


def test_cylinder_keys_are_the_low_bits_of_the_bowen_cylinder():
    # every pair of points is Bowen-close along syms exactly when their
    # keys agree, at radii with L = 0, 1 and 3, for words whose shifts
    # and odometers interleave (top coordinate 0: no carry leaves)
    points = [_point(v, 12) for v in range(0, 1 << 11, 7)]
    sys_ = binary_shift_odometer(depth=12)
    wins = binary.to_windows(points)
    for syms in [(), (2,), (1, 2, 2), (2, 1, 2, 1), (1, 1, 2)]:
        for eps in (1.0, 0.5, 0.125):
            keys, width = binary.cylinder_labels(wins, eps, syms, {})
            level = prefix_length_for(eps)
            assert width == (level and level + syms.count(1))
            assert keys.tolist() == [p.value & ((1 << width) - 1) for p in points]
            omega, k = word(syms, 2), len(syms) + 1
            for a in range(0, len(points), 9):
                for b in range(0, len(points), 5):
                    close = bowen_distance(sys_, omega, k, points[a], points[b]) <= eps
                    assert close == (keys[a] == keys[b]), (syms, eps, a, b)


@pytest.mark.parametrize("depth", [20, 63, 64, 65, 200])
def test_cylinder_room_is_exact_to_depth_64_and_sufficient_past_it(depth):
    # room = 2**min(depth, 64) - 1 - win: a largest window D short of it
    # vouches, one more declines; up to depth 64 that one overflows
    syms = (2, 1, 2, 2, 1, 2)  # D = 1 + 2 * 2 + 4 = 9
    d = _carry(syms)
    assert d == 9
    top = (1 << min(depth, 64)) - 1
    high = (1 << depth) - (1 << 64) - (1 << 70) if depth > 70 else 0
    for extra, vouched in ((0, True), (1, False)):
        points = [_point(high | (top - d - i + extra), depth) for i in range(5)]
        got = binary.cylinder_labels(binary.to_windows(points), 0.25, syms, {})
        assert (got is not None) == vouched
        overflows = any(p.value + d >= 1 << depth for p in points)
        assert overflows == (not vouched and depth <= 64)


# ---------------------------------------------------------------------------
# correlation sums and local correlation entropy against the oracle


@pytest.mark.parametrize("weights, depth", [(ODOMETERS, 11), (SHIFTS, 30)],
                         ids=["odometers", "shifts"])
def test_depth_short_by_one_declines_and_raises_like_the_oracle(weights, depth, paths):
    # orbits of 20 points whose least depth is 11: odometers alone from
    # depth 11 (top coordinate 0, so no cell's carry leaves), or shifts
    # alone from depth 30
    x = _point(int(substream(60, depth).integers(0, 1 << (depth - 1))), depth)
    sys_ = binary_shift_odometer(depth=depth)
    cases = [  # eps, word, whether the cylinders vouch
        (2.0**-4, (1,) * 7, True),  # L + s = 11 = the least depth
        (2.0**-4, (1,) * 8, False),  # one short
        (2.0**-4, (2, 1) * 8, False),
        (1.0, (1,) * 10, True),  # L = 0: s + 1 = 11 coordinates for 10 shifts
        (1.0, (1,) * 11, False),
    ]
    for eps, syms, vouched in cases:
        got, took = _check(_corr(x, eps, syms, n=20, weights=weights), sys_, paths)
        assert got[0] == ("ok" if vouched else "raised"), syms
        assert vouched or got[1] in (DepthExhausted, CarryOverflow)
        assert vouched or syms.count(2) or got[1] is DepthExhausted
        assert ("walks" not in took) == vouched, (syms, took)
    for ks in ([1, 2, 3], [6, 7, 8], [9, 10]):
        _check(_local(x, [2.0**-3, 2.0**-5], ks, weights=weights), sys_, paths)


@pytest.mark.parametrize("depth", [40, 200])
def test_carry_room_at_the_threshold_and_one_past_it(depth, paths):
    # odometer-only orbits x, x + 1, ..., whose largest window is D short
    # of its room (the cylinders vouch) or D - 1 (they decline, and the
    # walk overflows at depth 40 and counts at 200)
    n, syms = 24, (2, 1, 2, 2, 1, 2, 1)
    d = _carry(syms)
    sys_ = binary_shift_odometer(depth=depth)
    high = (5 << 64) if depth > 64 else 0
    top = (1 << min(depth, 64)) - 1
    for extra in (0, 1):
        x = _point(high | (top - d - (n - 1) + extra), depth)
        got, took = _check(_corr(x, 0.25, syms, n=n, weights=ODOMETERS), sys_, paths)
        if extra == 0:
            assert got[0] == "ok" and took == {"cylinders": 2}
        else:
            assert "walks" in took
            assert got[0] == "ok" if depth > 64 else got[1] is CarryOverflow
        _check(_local(x, [0.25], [1, 2, 3, 4], n=n, weights=ODOMETERS), sys_, paths)


@pytest.mark.parametrize("depth", [12, 70])
def test_all_ones_and_nearly_all_ones_starts(depth, paths):
    # the orbit itself or a cell's odometers carry out of the depth, or,
    # past 64 bits, only out of the window
    sys_ = binary_shift_odometer(depth=depth)
    outcomes = set()
    for c in (0, 1, 3, 20):
        x = _point((1 << depth) - 1 - c, depth)
        for syms in [(2,), (2, 2, 1), (1, 2, 2, 2)]:
            got, _ = _check(_corr(x, 0.25, syms, n=8, m=3), sys_, paths)
            outcomes.add(got[0] if got[0] == "ok" else got[1])
        _check(_local(x, [0.5, 0.25], [1, 2, 3], n=8, m=3), sys_, paths)
    assert CarryOverflow in outcomes


def test_cylinders_of_64_bits_and_the_walk_at_65(paths):
    x = binary.random_point(300, substream(61))
    sys_ = binary_shift_odometer(depth=300)
    for syms, width in [((1, 2, 1, 1, 2, 1), 64), ((1, 2, 1, 1, 2, 1, 1), 65)]:
        got, took = _check(_corr(x, 2.0**-60, syms), sys_, paths)
        assert got[0] == "ok"
        assert ("walks" in took) == (width > 64), took
    _check(_local(x, [2.0**-59, 2.0**-61], [3, 4, 5, 6]), sys_, paths)


@pytest.mark.parametrize("depth", [63, 64, 65])
def test_depths_about_the_window_width(depth, paths):
    # odometer-only orbits of one depth: a cylinder as wide as the depth
    # holds where it fits the window, and one bit more runs out
    x = _point(int.from_bytes(substream(62, depth).bytes(8), "little") >> 3, depth)
    sys_ = binary_shift_odometer(depth=depth)
    syms = (1, 2, 1)
    for width in (depth, depth + 1):
        eps = 2.0 ** -(width - 2)
        got, took = _check(_corr(x, eps, syms, weights=ODOMETERS), sys_, paths)
        assert ("walks" not in took) == (width <= min(depth, 64)), took
        assert got[0] == "ok" if width <= depth else got[1] is DepthExhausted
    _check(_local(x, [2.0 ** -(depth - 3)], [1, 2, 3, 4], weights=ODOMETERS), sys_, paths)


@pytest.mark.parametrize("eps", [1.0, 4.0])
def test_radius_past_the_diameter_is_one_class(eps, paths):
    x = binary.random_point(120, substream(63))
    sys_ = binary_shift_odometer(depth=120)
    got, took = _check(_corr(x, eps, (1, 2, 2, 1)), sys_, paths)
    assert got[0] == "ok" and "walks" not in took
    assert got[1].value == 1.0
    got, took = _check(_local(x, [eps], [1, 2, 3]), sys_, paths)
    assert got[0] == "ok" and "walks" not in took


def test_two_radii_of_one_width_share_one_count(paths, reads):
    # L = 2 with two shifts and L = 3 with one: both cylinders are 4 bits
    x = binary.random_point(200, substream(64))
    sys_ = binary_shift_odometer(depth=200)
    estimators._upsilon_orbits.cache_clear()
    estimators._time_blocks(24)
    del reads[:]
    first = _corr(x, 0.25, (1, 2, 1))(sys_)
    groups = len(estimators._upsilon_orbits(sys_, x, 24, 5, 3, None))
    assert len(reads) == groups
    second = _corr(x, 0.125, (2, 2, 1))(sys_)
    assert len(reads) == groups  # read once per group, for both
    for eps, syms, value in ((0.25, (1, 2, 1), first), (0.125, (2, 2, 1), second)):
        assert _outcome(_corr(x, eps, syms), generic_system(sys_)) == ("ok", value)


def test_power_systems_take_the_walk(paths):
    base = binary_shift_odometer(depth=120)
    power = build_power_system(base, 2)
    assert power.window_ops.cylinder is None
    x = binary.random_point(120, substream(65))
    for eps in (0.5, 0.25):
        got, took = _check(lambda s: correlation_sum(s, x, eps, word((3, 1, 4), 4), 4, 16, 3, 3),
                           power, paths)
        assert got[0] == "ok" and "cylinders" not in took and took["walks"] == 1
    _check(_local(x, [0.5], [1, 2, 3], n=16, m=3), power, paths)


# ---------------------------------------------------------------------------
# which path runs, and what the counts memo shares


def _distinct_widths(eps, omega, ks):
    level = prefix_length_for(eps)
    return len({level and level + s_count(omega, k) for k in ks})


def test_bench_and_acceptance_shapes_count_every_group_as_cylinders(monkeypatch, paths, reads):
    stages = []
    stage = binary.window_stage
    monkeypatch.setattr(binary, "window_stage", lambda *a: stages.append(1) or stage(*a))
    estimators._upsilon_orbits.cache_clear()
    estimators._time_blocks(4000)
    del reads[:]
    # the benchmark's corr-sum run
    seed, eps, ks = 5, 0.09375, list(range(1, 9))
    cfg = cli.ExperimentConfig(estimator="corr-sum", epsilons=[eps], ks=ks, n=4000,
                               m_upsilon=16, seed=seed)
    assert len(cli.run_experiment(cfg).rows) == 8
    omega = sample_word(uniform_spec(2), 7, substream(seed, OMEGA))
    assert len(reads) == 4 * _distinct_widths(eps, omega, ks)
    assert paths == {"cylinders": 4 * 8} and not stages
    # the acceptance test's trial: 64 orbits of 4000 points at k = 3
    paths.clear()
    del reads[:]
    sys_ = binary_shift_odometer(depth=4000 + 3 + 4 + 40)
    x = sys_.mu_sampler(substream(seed, POINT), 1)[0]
    correlation_sum(sys_, x, eps, sample_word(uniform_spec(2), 2, substream(seed, OMEGA)), 3,
                    4000, 64, seed=seed)
    assert len(reads) == 16 and paths == {"cylinders": 16} and not stages
    # past 64 bits the walk runs, window stages and all
    paths.clear()
    sys_ = binary_shift_odometer(depth=300)
    x = binary.random_point(300, substream(68))
    correlation_sum(sys_, x, 2.0**-62, word((1, 1, 2, 1), 2), 5, 200, 8, seed=seed)
    assert paths == {"declined": 2, "walks": 2} and stages


def test_time_blocks_and_halves_never_share_counts(reads):
    # correlation_sum's counts (time blocks) and then those of
    # local_corr_entropy_series (halves) on one orbit set: each reads its
    # own, and a corr-sum after them reads afresh, equal to the first
    sys_ = binary_shift_odometer(depth=200)
    x = binary.random_point(200, substream(66))
    omega, n, m = word((1, 2), 2), 30, 5

    def corr():
        return correlation_sum(sys_, x, 0.25, omega, 3, n, m, seed=4)

    def local():
        return [(r.rows, r.stderrs, r.flags)
                for r in local_corr_entropy_series(sys_, x, [0.25], [3], n, m, 2, seed=4)]

    estimators._upsilon_orbits.cache_clear()
    estimators._time_blocks(n)
    fresh_local = local()
    estimators._upsilon_orbits.cache_clear()
    del reads[:]
    first = corr()
    orbits = estimators._upsilon_orbits(sys_, x, n, m, 4, None)
    assert len(reads) == len(orbits)
    assert local() == fresh_local and len(reads) > len(orbits)
    del reads[:]
    assert corr() == first and len(reads) == len(orbits)
    assert first == correlation_sum(generic_system(sys_), x, 0.25, omega, 3, n, m, seed=4)


def test_cells_of_one_width_get_their_own_counts():
    sys_ = binary_shift_odometer(depth=200)
    x = binary.random_point(200, substream(67))
    orbits = estimators._upsilon_orbits(sys_, x, 30, 5, 4, None)
    blocks, _ = estimators._time_blocks(30)
    cells = [(3, word((2, 1), 2)), (3, word((1, 2), 2))]  # one shift each
    got = estimators._orbit_pair_counts(sys_, orbits, 0.25, cells, blocks)
    want = got.copy()
    got[0] = -1
    again = estimators._orbit_pair_counts(sys_, orbits, 0.25, cells, blocks)
    assert np.array_equal(got[1], want[1]) and np.array_equal(again, want)
