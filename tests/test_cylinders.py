"""Binary orbit sets and sample point sets counted as cylinders of
their windows (binary.cylinder_width, estimators._cylinder_reads)
against the exact BinaryPoint keys, the label walk and the generic
pairwise oracle: equal results, and wherever the cylinders cannot vouch
for every point, the walk, which raises the exact keys' failure (type
and message) at the same first failing orbit and cell, and the oracle's
wherever both fail but for what their depth rules tell apart (see
_check)."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from fsgentropy import binary, cli, estimators
from fsgentropy.binary import BinaryPoint, prefix_length_for, s_count
from fsgentropy.errors import CarryOverflow, DepthExhausted
from fsgentropy.estimators import (
    EmpiricalMeasure,
    corr_entropy_series,
    correlation_sum,
    doubling_series,
    local_corr_entropy_series,
    local_entropy_series,
    top_entropy_series,
)
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
    """Counts, per group of orbits or sample count, the counts the
    cylinders gave, the counts they declined, and the label walks."""
    seen = Counter()
    cylinders, walk = estimators._cylinder_reads, estimators._label_walk

    def counting_cylinders(*args):
        got = cylinders(*args)
        seen["declined" if got is None else "cylinders"] += 1
        return got

    def counting_walk(*args):
        seen["walks"] += 1
        return walk(*args)

    monkeypatch.setattr(estimators, "_cylinder_reads", counting_cylinders)
    monkeypatch.setattr(estimators, "_label_walk", counting_walk)
    return seen


@pytest.fixture
def reads(monkeypatch):
    """The widths of every cylinder pair read: one read per group of
    orbits and call that lacks a width, of all the widths it lacks."""
    calls = []
    count = estimators._cylinder_pair_counts
    monkeypatch.setattr(estimators, "_cylinder_pair_counts",
                        lambda pset, widths, blocks: calls.append(tuple(widths))
                        or count(pset, widths, blocks))
    return calls


def _outcome(fn, sys_):
    estimators._upsilon_orbits.cache_clear()
    try:
        return "ok", fn(sys_)
    except Exception as exc:  # compared by type and message
        return "raised", type(exc), str(exc)


def _walking(sys_):
    """sys_ with no cylinders: every point set is walked."""
    return replace(sys_, window_ops=sys_.window_ops and replace(sys_.window_ops, cylinder=None))


def _check(fn, sys_, paths):
    """fn's outcome on sys_, which the exact keys and the walk give too
    (a failure's message included), and the paths the run on sys_ took.
    The generic oracle gives the same values, or a failure of the same
    type, but for two depth rules: a key needs L coordinates at every stage, which the
    pairwise metric, stopping at a pair's first stage apart, may never
    read ("need ..."), and the metric raises for points of two depths
    that agree on the shorter one's prefix, which keys of L bits do not
    read ("... shorter prefix")."""
    paths.clear()
    got = _outcome(fn, sys_)
    took = dict(paths)
    assert got == _outcome(fn, replace(sys_, window_ops=None)) == _outcome(fn, _walking(sys_))
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
            width = binary.cylinder_width(wins, eps, syms, {})
            level = prefix_length_for(eps)
            assert width == (level and level + syms.count(1))
            keys = wins[0] & np.uint64((1 << width) - 1)
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
        got = binary.cylinder_width(binary.to_windows(points), 0.25, syms, {})
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
    # one call for all eight horizons: one read per group, of every width
    assert [len(widths) for widths in reads] == [_distinct_widths(eps, omega, ks)] * 4
    assert paths == {"cylinders": 4} and not stages
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


# ---------------------------------------------------------------------------
# sample point sets: the five estimators of an EmpiricalMeasure

SAMPLE_SEED = 7


def _samples(points, eps_list, omega, ks, m_omega, centre=1):
    """The five sample estimators on fresh measures of points, by name,
    each as (a function of the system, the (eps, cells) of each of its
    counts)."""
    _, words = estimators._series_cells(2, ks, None, m_omega, SAMPLE_SEED)
    along = [(k, omega) for k in ks]

    def em():
        return EmpiricalMeasure(tuple(points))

    def balls(s):
        return [em().ball_measures(s, omega, k, e).tolist() for e in eps_list for k in ks]

    return {
        "ball_measures": (balls, [(e, [cell]) for e in eps_list for cell in along]),
        "corr_entropy": (
            lambda s: corr_entropy_series(em(), s, eps_list, ks, 2.0, m_omega, SAMPLE_SEED),
            [(e, words) for e in eps_list]),
        "top_entropy": (
            lambda s: top_entropy_series(em(), s, eps_list, ks, m_omega, SAMPLE_SEED),
            [(e, words) for e in eps_list]),
        "doubling": (lambda s: doubling_series(em(), s, omega, eps_list, ks),
                     [(f * e, along) for e in eps_list for f in (1, 2)]),
        "local_entropy": (
            lambda s: local_entropy_series(em(), s, omega, points[centre], eps_list, ks),
            [(e, along) for e in eps_list]),
    }


def _needs(counts):
    """The widest cylinder L + s of the counts, the least depth they
    need, max(L + s, s + 1), and the largest odometer sum D."""
    widest = floor = carry = 0
    for eps, cells in counts:
        level = prefix_length_for(eps)
        for k, omega in cells:
            syms = omega.symbols[: k - 1]
            shifts = syms.count(1)
            widest = max(widest, level and level + shifts)
            floor = max(floor, level and level + shifts, shifts + 1)
            carry = max(carry, _carry(syms))
    return widest, floor, carry


SAMPLE_NAMES = ["ball_measures", "corr_entropy", "top_entropy", "doubling", "local_entropy"]


@pytest.mark.parametrize("name", SAMPLE_NAMES)
def test_samples_of_64_bit_cylinders_and_the_walk_at_65(name, paths):
    # four classes of low 64 bits, split by bit 64, so cylinders of 64
    # bits and of 65 differ; the walk's exact keys take the 65th
    rng = substream(70)
    lows = rng.integers(0, 1 << 62, size=4).tolist()
    points = [_point(lows[i % 4] | int(rng.integers(0, 2)) << 64
                     | int(rng.integers(0, 1 << 60)) << 65, 300) for i in range(24)]
    sys_ = binary_shift_odometer(depth=300)
    omega = word((1, 2, 1, 1, 2, 1, 1), 2)
    seen = set()
    for ks, m_omega in (([6, 7], 16), ([7, 8], 16), ([4, 5], 32), ([5, 6], 32)):
        fn, counts = _samples(points, [2.0**-60], omega, ks, m_omega)[name]
        widest = _needs(counts)[0]
        fits = sum(_needs([count])[0] <= 64 for count in counts)
        got, took = _check(fn, sys_, paths)
        assert got[0] == "ok"
        # a count walks all its cells where one is wider than 64 bits
        assert took.get("cylinders", 0) == fits and took.get("walks", 0) == len(counts) - fits
        assert took.get("declined", 0) == len(counts) - fits, (ks, took)
        seen.add(widest)
    assert {64, 65} <= seen


@pytest.mark.parametrize("name", SAMPLE_NAMES)
@pytest.mark.parametrize("eps", [2.0**-4, 1.0])
def test_sample_depth_short_by_one_declines_and_raises_like_the_walk(name, eps, paths):
    # points of one depth, clear of any carry: at the least depth the
    # counts need, max(L + s, s + 1), the cylinders vouch; one coordinate
    # short they decline, and the walk raises DepthExhausted
    omega = word((1, 2, 1, 1, 2, 1, 1, 1), 2)
    ks = [3, 6, 9] if eps < 1 else [3, 6]  # at L = 0 a depth of s + 1 leaves room for D
    _, counts = _samples([], [eps], omega, ks, 8)[name]
    _, floor, d = _needs(counts)
    for depth in (floor, floor - 1):
        rng = substream(71, depth)
        values = rng.integers(0, max(1, (1 << depth) - d), size=20)
        fn, _ = _samples([_point(int(v), depth) for v in values], [eps], omega, ks, 8)[name]
        got, took = _check(fn, binary_shift_odometer(depth=depth), paths)
        if depth == floor:
            assert got[0] == "ok" and "walks" not in took and "declined" not in took, took
        else:
            assert got[:2] == ("raised", DepthExhausted) and "walks" in took, (got, took)


@pytest.mark.parametrize("name", SAMPLE_NAMES)
@pytest.mark.parametrize("depth", [40, 200])
def test_sample_carry_room_at_the_threshold_and_one_past_it(name, depth, paths):
    # consecutive points whose largest window is D short of its room (the
    # cylinders vouch) or D - 1 (they decline, and the walk overflows at
    # depth 40 and counts at 200), D the counts' largest odometer sum
    omega = word((2, 1, 2, 2, 1, 2, 1), 2)
    _, counts = _samples([], [0.25], omega, [2, 5, 8], 16)[name]
    d = _needs(counts)[2]
    high = (5 << 64) if depth > 64 else 0
    top = (1 << min(depth, 64)) - 1
    for extra in (0, 1):
        points = [_point(high | (top - d - i + extra), depth) for i in range(24)]
        fn, _ = _samples(points, [0.25], omega, [2, 5, 8], 16, centre=7)[name]
        got, took = _check(fn, binary_shift_odometer(depth=depth), paths)
        if extra == 0:
            assert got[0] == "ok" and "walks" not in took and "declined" not in took, took
        else:
            assert "walks" in took
            assert got[0] == "ok" if depth > 64 else got[1] is CarryOverflow


def _cells_outcome(sys_, points, eps, cells, kind):
    """_count_cells of the cells on sys_, as lists, or its failure (type
    and message)."""
    pset = estimators._as_point_set(sys_, points)
    blocks = estimators._blocks(np.arange(len(points)) * 3 // len(points), 3, 2)
    try:
        got = estimators._count_cells(sys_, pset, eps, cells, kind, blocks=blocks)
    except (CarryOverflow, DepthExhausted) as exc:
        return "raised", type(exc), str(exc)
    return "ok", [np.asarray(g).tolist() for g in got]


@pytest.mark.parametrize("kind", ["balls", "pairs", "net"])
@pytest.mark.parametrize(
    "case", ["depth", "carry then depth", "depth then carry"])
def test_a_declined_cell_walks_the_call_and_raises_at_the_walks_first_failing_cell(
    kind, case, paths
):
    # cells the cylinders vouch for around ones that raise: the call that
    # holds one walks, and every prefix of the cells counts or raises as
    # the walk and the exact keys do, so the first failing cell is theirs
    rng = substream(72)
    low = [_point(int(v), 12) for v in rng.integers(0, 1 << 11, size=30)]
    top = [_point((1 << 12) - 1 - i, 12) for i in range(30)]
    deep, carry = (11, (1,) * 10), (2, (2,))  # 4 + 10 bits of 12; 0xfff + 1
    points, cells = {
        "depth": (low, [(3, (1, 2)), (2, (2,)), deep, (4, (2, 1, 1))]),
        "carry then depth": (top, [(2, (1,)), (3, (1, 1)), carry, deep]),
        "depth then carry": (top, [(2, (1,)), deep, (3, (1, 1)), carry]),
    }[case]
    cells = [(k, word(syms, 2)) for k, syms in cells]
    sys_ = binary_shift_odometer(depth=12)
    first_failing = []
    for end in range(1, len(cells) + 1):
        paths.clear()
        got = _cells_outcome(sys_, points, 2.0**-4, cells[:end], kind)
        took = dict(paths)
        assert got == _cells_outcome(_walking(sys_), points, 2.0**-4, cells[:end], kind)
        assert got == _cells_outcome(replace(sys_, window_ops=None), points, 2.0**-4,
                                     cells[:end], kind)
        assert ("walks" in took) == (got[0] == "raised"), (end, took)
        if got[0] == "raised":
            first_failing.append((end - 1, got[1]))
    want = {"depth": (2, DepthExhausted), "carry then depth": (2, CarryOverflow),
            "depth then carry": (1, DepthExhausted)}[case]
    assert first_failing[0] == want


def test_bench_shape_samples_take_one_mask_per_width_and_no_walk(monkeypatch, paths):
    # the top-entropy benchmark's run (N = 4096, eps 1/4 and 1/8, ks 2..6,
    # m_omega 128, so every word average is exhaustive) and its
    # corr-entropy twin: no window stage, no walk, and each count masks
    # each of its widths L + s once (s = 0..5: 2..7 at 1/4, 3..8 at 1/8)
    masks, stages = Counter(), []
    labels, stage = estimators._cylinder_labels, binary.window_stage

    def counting(pset, width):
        masks[width] += 1
        return labels(pset, width)

    monkeypatch.setattr(estimators, "_cylinder_labels", counting)
    monkeypatch.setattr(binary, "window_stage", lambda *a: stages.append(1) or stage(*a))
    eps_list, ks = [0.25, 0.125], [2, 3, 4, 5, 6]
    widths = Counter(range(2, 8)) + Counter(range(3, 9))
    for estimator in ("top-entropy", "corr-entropy"):
        cfg = cli.ExperimentConfig(estimator=estimator, epsilons=eps_list, ks=ks,
                                   n_points=4096, m_omega=128, seed=11)
        sys_ = cli._build_system(cfg)
        em = EmpiricalMeasure.draw(sys_, 4096, 11)
        run = {
            "top-entropy": lambda s: top_entropy_series(em, s, eps_list, ks, 128, 11),
            "corr-entropy": lambda s: corr_entropy_series(em, s, eps_list, ks, 2.0, 128, 11),
        }[estimator]
        paths.clear()
        masks.clear()
        del stages[:]
        got = run(sys_)
        assert paths == {"cylinders": 2} and not stages, estimator
        assert masks == widths, estimator
        assert got == run(_walking(sys_)) and stages, estimator
