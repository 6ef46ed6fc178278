"""Driving-word orbits drawn as arrays and counted in groups: the words
are sample_word's draws, the grouped pair counts equal one walk per
orbit (oracles.orbit_pair_counts) bit for bit, a failing group raises
as its first failing orbit, and a corr-sum run holds one copy of the
windows and group-sized temporaries."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fsgentropy import binary, estimators
from fsgentropy.errors import CarryOverflow, DepthExhausted
from fsgentropy.seeding import UPSILON, substream
from fsgentropy.systems import binary_shift_odometer, circle_double_rotate
from fsgentropy.words import (
    BernoulliSpec,
    power_weights,
    sample_symbols,
    sample_word,
    uniform_spec,
    word,
)
from oracles import generic_system, orbit_pair_counts

BIN = binary_shift_odometer(depth=60)
CIRCLE = circle_double_rotate()


@pytest.fixture
def orbit_group(monkeypatch):
    """Sets ORBIT_GROUP (None keeps the default), with no orbit set
    cached across the change."""

    def set_group(size):
        if size is not None:
            monkeypatch.setattr(estimators, "ORBIT_GROUP", size)
        estimators._upsilon_orbits.cache_clear()
        return estimators.ORBIT_GROUP

    yield set_group
    estimators._upsilon_orbits.cache_clear()


def _outcome(fn):
    try:
        return "ok", fn()
    except Exception as exc:  # compared by type and message
        return "raised", type(exc), str(exc)


@pytest.mark.parametrize("n", [1, 2, 4000])
@pytest.mark.parametrize(
    "weights",
    [(1.0,), (0.5, 0.5), (0.2, 0.8), (1 / 3, 1 / 3, 1 / 3), (0.1, 0.3, 0.6),
     (0.1, 0.2, 0.3, 0.4), (0.05, 0.3, 0.01, 0.14, 0.2, 0.1, 0.15, 0.05),
     power_weights(BernoulliSpec((0.3, 0.7)), 2).weights,
     power_weights(BernoulliSpec((0.2, 0.5, 0.3)), 2).weights,
     power_weights(BernoulliSpec((0.5, 0.5)), 7).weights],
    ids=["m1", "m2-uniform", "m2-skewed", "m3-uniform", "m3-skewed", "m4", "m8",
         "m2-power2", "m3-power2", "m2-power7"],
)
def test_driving_words_are_sample_word_draws(weights, n):
    spec = BernoulliSpec(weights)
    for j in range(3):
        got = sample_symbols(spec, n - 1, substream(7, UPSILON, j))
        want = sample_word(spec, n - 1, substream(7, UPSILON, j)).symbols
        assert got.dtype == (np.int8 if spec.m < 128 or n == 1 else np.int32), j
        assert got.tolist() == list(want), j
        # the draw itself: one choice call of n - 1 symbols, none for one
        # symbol or an empty word
        if spec.m > 1 and n > 1:
            drawn = substream(7, UPSILON, j).choice(spec.m, size=n - 1, p=spec.weights) + 1
            assert got.tolist() == drawn.tolist(), j
        else:
            assert got.tolist() == [1] * (n - 1), j


def test_orbit_groups_are_slices_of_the_sample_word_orbit_windows(orbit_group):
    orbit_group(None)
    n, m = 300, 7
    sys_ = binary_shift_odometer(depth=400)
    x = sys_.mu_sampler(substream(73), 1)[0]
    groups = estimators._upsilon_orbits(sys_, x, n, m, 5, None)
    assert [g.orbits for g in groups] == [4, 3]
    spec = uniform_spec(2)
    words = [sample_word(spec, n - 1, substream(5, UPSILON, j)).symbols for j in range(m)]
    want = binary.orbit_windows(x, words, n)
    for parts, w in zip(zip(*(g.wins for g in groups)), want):  # win, then depth
        assert np.array_equal(np.concatenate(parts), w)
        assert all(p.base is not None and p.base is parts[0].base for p in parts)  # no copies


ORBIT_PATHS = {
    "binary-windows": (BIN, 0.25),
    "binary-exact": (replace(BIN, window_ops=None), 0.25),
    "circle-pairs": (CIRCLE, 0.2),
    "circle-generic": (generic_system(CIRCLE), 0.2),
    "binary-generic": (generic_system(BIN), 0.25),
}


@pytest.mark.parametrize("group", [1, 2, None], ids=["1", "2", "default"])
@pytest.mark.parametrize("n", [1, 2, 7, 30])
@pytest.mark.parametrize("path", ORBIT_PATHS)
def test_grouped_counts_equal_one_walk_per_orbit(orbit_group, path, n, group):
    sys_, eps = ORBIT_PATHS[path]
    size = orbit_group(group)
    m = 5
    x = sys_.mu_sampler(substream(70, n), 1)[0]
    _, cells = estimators._series_cells(sys_.m, [1, 2, 3, 4], None, 8, 71)
    halves = estimators._blocks((np.arange(n) >= max(1, n // 2)).astype(np.intp), 2)
    groups = estimators._upsilon_orbits(sys_, x, n, m, 72, None)
    if sys_.ball_key is None:  # the pair and generic paths walk one orbit at a time
        assert [g.orbits for g in groups] == [1] * m
    else:
        assert [g.orbits for g in groups] == [min(size, m - lo) for lo in range(0, m, size)]
    for blocks in (estimators._time_blocks(n)[0], halves):
        for eps_ in (eps, eps / 2):  # a second radius walks every group afresh
            got = estimators._orbit_pair_counts(sys_, groups, eps_, cells, blocks)
            want = orbit_pair_counts(sys_, x, n, m, 72, eps_, cells, blocks)
            assert got.dtype == want.dtype and np.array_equal(got, want), (blocks.n_blocks, eps_)


@pytest.mark.parametrize("group", [2, None], ids=["2", "default"])
@pytest.mark.parametrize(
    "depth, n, seed, error",
    [
        # orbits 0 and 1 count; orbit 2 runs out of depth, while the
        # first failure of the group's walk is orbit 3's carry
        (15, 20, 13, DepthExhausted),
        # orbits 0 and 1 count; orbit 2's carry overflows, while the
        # group's walk first fails where orbit 3 runs out of depth
        (21, 30, 15, CarryOverflow),
    ],
)
def test_failing_group_raises_as_its_first_failing_orbit(
    orbit_group, depth, n, seed, error, group
):
    orbit_group(group)
    sys_ = binary_shift_odometer(depth=depth)
    x = binary.random_point(depth, substream(80, seed))
    _, cells = estimators._series_cells(2, [1, 2, 3, 4, 5], None, 64, 1)
    blocks = estimators._time_blocks(n)[0]
    m, eps = 4, 0.5
    want = _outcome(lambda: orbit_pair_counts(sys_, x, n, m, seed, eps, cells, blocks))
    assert want[:2] == ("raised", error)
    assert _outcome(lambda: orbit_pair_counts(sys_, x, n, 2, seed, eps, cells, blocks))[0] == "ok"
    groups = estimators._upsilon_orbits(sys_, x, n, m, seed, None)

    def walk(group):
        return _outcome(lambda: estimators._count_cells(sys_, group, eps, cells, "pairs",
                                                        blocks=blocks))

    raw = next(got for got in map(walk, groups) if got[0] == "raised")
    assert raw != want  # the failing group's own first failure is another orbit's
    got = _outcome(lambda: estimators._orbit_pair_counts(sys_, groups, eps, cells, blocks))
    assert got == want


def test_corr_sum_holds_one_copy_of_the_windows_and_group_temporaries(orbit_group):
    """The benchmark's corr-sum shape, 16 orbits of 4000 points: building
    the orbits peaks below 1.5 copies of their windows (16 bytes a
    point), and a k-sweep at one radius, one call per horizon, then one
    call of all of them at another, below the windows, each group's kept
    walk end (its window state and int32 labels, 12 bytes a point of
    every orbit) and 64 bytes a point of one group, plus 64 KiB."""
    size = orbit_group(None)
    n, m = 4000, 16
    sys_ = binary_shift_odometer(depth=n + 100)
    x = sys_.mu_sampler(substream(74), 1)[0]
    omega = word((1, 2, 1, 1, 2, 1, 2), 2)
    estimators._time_blocks(n)
    windows = 16 * m * n
    tracemalloc.start()
    try:
        groups = estimators._upsilon_orbits(sys_, x, n, m, 75, None)
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        for k in range(1, 9):
            estimators.correlation_sum(sys_, x, 3 * 2.0**-5, omega, k, n, m, 75)
        # then one call of all the horizons at 2**-6, widths 6..10, which
        # reads width 9 from the widest histogram that folds (20 blocks x
        # 512 labels a group) and ranks width 10
        estimators.correlation_sum(sys_, x, 2.0**-6, omega, range(1, 9), n, m, 75)
        swept = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(groups) == m // size
    assert built < 1.5 * windows
    assert swept < windows + 12 * m * n + 64 * size * n + 64 * 1024
