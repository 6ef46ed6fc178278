"""correlation_sum over a sequence of horizons (a CorrSumSweep) against
one call per horizon: equal estimates bit for bit on every counting path
(binary cylinders whose histograms fold or rank, the forced walk, a
binary power system, circle pairs and the generic oracle), the same
failure (type and message) at the same first failing horizon and orbit,
and local_corr_entropy_series, whose halves layout reads the same
folded histograms, equal to its walk."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from fsgentropy import binary, estimators
from fsgentropy.errors import AlphabetMismatch, KZero, WordTooShort
from fsgentropy.estimators import CorrSumSweep, correlation_sum, local_corr_entropy_series
from fsgentropy.seeding import substream
from fsgentropy.systems import binary_shift_odometer, build_power_system, circle_double_rotate
from fsgentropy.words import word
from oracles import generic_system


def _outcome(fn):
    estimators._upsilon_orbits.cache_clear()  # every call builds and counts afresh
    try:
        return "ok", fn()
    except Exception as exc:  # compared by type and message
        return "raised", type(exc), str(exc)


def _walking(sys_):
    """sys_ with no cylinders: every orbit group is walked."""
    return replace(sys_, window_ops=replace(sys_.window_ops, cylinder=None))


def _sweep(sys_, x, eps, omega, ks, n, m, seed=5):
    return lambda: correlation_sum(sys_, x, eps, omega, ks, n, m, seed)


def _one_by_one(sys_, x, eps, omega, ks, n, m, seed=5):
    return lambda: tuple(correlation_sum(sys_, x, eps, omega, k, n, m, seed) for k in ks)


BIN = binary_shift_odometer(depth=600)
OMEGA = word((1, 2, 1, 1, 2, 2, 1, 1, 1, 2, 1), 2)
KS = list(range(1, 13))


def _histograms(monkeypatch):
    """Counts the pair counts made from histograms, and those of them
    read off ranked labels rather than folded."""
    calls = Counter()
    hist, label = estimators._hist_pair_counts, estimators._label_pair_counts

    def counting_hist(*args):
        calls["histograms"] += 1
        return hist(*args)

    def counting_label(*args):
        calls["ranked"] += 1
        return label(*args)

    monkeypatch.setattr(estimators, "_hist_pair_counts", counting_hist)
    monkeypatch.setattr(estimators, "_label_pair_counts", counting_label)
    return calls


@pytest.mark.parametrize("eps, fold", [(0.25, True), (2.0**-9, False)], ids=["fold", "ranked"])
def test_cylinder_sweep_equals_one_call_per_horizon(monkeypatch, eps, fold):
    # n = 400: histograms fold up to width 6 (20 blocks, 4 columns a
    # point), so widths 2..9 at L = 2 fold and rank, 9..16 at L = 9 rank
    x = BIN.mu_sampler(substream(91), 1)[0]
    estimators._time_blocks(400)  # made before reads are counted
    calls = _histograms(monkeypatch)
    got = _outcome(_sweep(BIN, x, eps, OMEGA, KS, 400, 6))
    assert got[0] == "ok" and isinstance(got[1], CorrSumSweep)
    assert [e.k for e in got[1]] == KS and got[1].m_upsilon == 6
    assert (calls["histograms"] > calls["ranked"]) == fold and calls["ranked"]
    monkeypatch.undo()
    assert got == _outcome(_one_by_one(BIN, x, eps, OMEGA, KS, 400, 6))
    assert got == _outcome(_one_by_one(_walking(BIN), x, eps, OMEGA, KS, 400, 6))


def test_sweep_in_any_order_and_with_repeats_equals_one_call_per_horizon():
    x = BIN.mu_sampler(substream(92), 1)[0]
    ks = [7, 2, 12, 2, 1, 9]
    got = _outcome(_sweep(BIN, x, 2.0**-3, OMEGA, ks, 300, 5))
    assert got == _outcome(_one_by_one(BIN, x, 2.0**-3, OMEGA, ks, 300, 5))
    assert _outcome(lambda: correlation_sum(BIN, x, 0.25, OMEGA, 4, 300, 5, 5)) == \
        ("ok", _outcome(_sweep(BIN, x, 0.25, OMEGA, [4], 300, 5))[1][0])


POWER = build_power_system(binary_shift_odometer(depth=300), 2)
CIRCLE = circle_double_rotate()

PATHS = {
    "walk": (_walking(BIN), OMEGA, 0.25, 200),
    "power2": (POWER, word((3, 1, 4, 2, 4, 1), 4), 0.25, 100),
    "circle": (CIRCLE, word((1, 2, 1, 1, 2), 2), 0.05, 200),
    "binary-generic": (generic_system(binary_shift_odometer(depth=80)), OMEGA, 0.25, 24),
    "circle-generic": (generic_system(CIRCLE), word((1, 2, 1, 1, 2), 2), 0.2, 24),
}


@pytest.mark.parametrize("path", PATHS)
def test_sweep_equals_one_call_per_horizon_on_every_path(path):
    sys_, omega, eps, n = PATHS[path]
    ks = list(range(1, len(omega) + 2))
    x = sys_.mu_sampler(substream(93), 1)[0]
    got = _outcome(_sweep(sys_, x, eps, omega, ks, n, 5))
    assert got[0] == "ok" and got == _outcome(_one_by_one(sys_, x, eps, omega, ks, n, 5))


def test_sweep_of_the_generic_oracle_equals_the_cylinders():
    sys_ = binary_shift_odometer(depth=80)
    x = sys_.mu_sampler(substream(94), 1)[0]
    for eps in (0.5, 0.25, 0.125):
        got = _outcome(_sweep(sys_, x, eps, OMEGA, KS, 24, 5))
        assert got[0] == "ok" and got == _outcome(_sweep(generic_system(sys_), x, eps, OMEGA, KS,
                                                         24, 5))


def _failing(depth, n, seed, syms, eps):
    sys_ = binary_shift_odometer(depth=depth)
    return sys_, binary.random_point(depth, substream(90, seed)), eps, word(syms, 2), n, 4, seed


def test_sweep_fails_as_the_first_failing_call_per_horizon():
    # shallow random points fail by depth or carry at some horizons and
    # orbits; a sweep raises as the first failing call of one horizon
    # would: the first failing horizon, at its first failing orbit
    rng = np.random.default_rng(95)
    failed = 0
    ks = list(range(1, 7))
    for case in range(200):
        sys_, x, eps, omega, n, m, seed = _failing(
            int(rng.integers(8, 30)), int(rng.integers(5, 30)), int(rng.integers(1000)),
            rng.integers(1, 3, 5).tolist(), float(rng.choice([0.5, 0.25, 0.125])))
        want = _outcome(_one_by_one(sys_, x, eps, omega, ks, n, m, seed))
        assert _outcome(_sweep(sys_, x, eps, omega, ks, n, m, seed)) == want, case
        failed += want[0] == "raised"
    assert failed > 40


@pytest.mark.parametrize("case", [
    (9, 11, 193, (2, 1, 2, 2, 1), 0.5),
    (14, 18, 618, (1, 2, 2, 1, 2), 0.25),
    (8, 10, 64, (1, 1, 2, 2, 2), 0.5),
    (9, 14, 104, (2, 1, 2, 2, 2), 0.25),
])
def test_sweep_fails_by_horizon_first_where_orbit_first_differs(case):
    # all six horizons counted at once fail first at an orbit that fails
    # only at a later horizon than the first failing one
    sys_, x, eps, omega, n, m, seed = _failing(*case)
    ks = list(range(1, 7))
    want = _outcome(_one_by_one(sys_, x, eps, omega, ks, n, m, seed))
    assert want[0] == "raised"
    assert _outcome(_sweep(sys_, x, eps, omega, ks, n, m, seed)) == want
    orbits = estimators._upsilon_orbits(sys_, x, n, m, seed, None)
    together = _outcome(lambda: estimators._orbit_pair_counts(
        sys_, orbits, eps, [(k, omega) for k in ks], estimators._time_blocks(n)[0]))
    assert together[0] == "raised" and together != want


def test_a_bad_horizon_raises_after_the_horizons_before_it():
    sys_ = binary_shift_odometer(depth=12)
    omega = word((1, 2, 1), 2)
    for seed in range(40):
        x = binary.random_point(12, substream(96, seed))
        for ks in ([1, 2, 0], [2, 6], [3, 4, 5, 9], [0], [5, 3]):
            want = _outcome(_one_by_one(sys_, x, 0.25, omega, ks, 10, 3, seed))
            assert _outcome(_sweep(sys_, x, 0.25, omega, ks, 10, 3, seed)) == want, (seed, ks)
    x = binary.random_point(40, substream(97))
    deep = binary_shift_odometer(depth=40)
    assert _outcome(_sweep(deep, x, 0.25, omega, [1, 0], 10, 3))[1] is KZero
    assert _outcome(_sweep(deep, x, 0.25, omega, [1, 5], 10, 3))[1] is WordTooShort
    assert _outcome(_sweep(deep, x, 0.25, word((1, 3), 3), [2, 3], 10, 3))[1] is AlphabetMismatch
    assert _outcome(_sweep(deep, x, 0.25, omega, [], 10, 3))[:2] == ("raised", ValueError)


def test_local_corr_entropy_halves_equal_their_walk():
    # the halves layout (2 blocks, no lags) folds widths up to 9 at n =
    # 400, past the widths of 2**-3 and into those of 2**-7
    x = BIN.mu_sampler(substream(98), 1)[0]
    eps_list, ks = [2.0**-3, 2.0**-7], [1, 2, 4, 6, 8]

    def local(s):
        return lambda: [(r.rows, r.stderrs, r.flags)
                        for r in local_corr_entropy_series(s, x, eps_list, ks, 400, 6, 8, 4)]

    got = _outcome(local(BIN))
    assert got[0] == "ok"
    assert got == _outcome(local(_walking(BIN))) == _outcome(local(replace(BIN, window_ops=None)))
