"""Monte Carlo estimators against the closed-form backend and against
their own fallback code paths."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from fsgentropy import binary, estimators
from fsgentropy.binary import ball_measure as closed_form, s_count
from fsgentropy.errors import (
    AlphabetMismatch,
    CenterNotInSample,
    ConfigInvalid,
    InvalidEpsilon,
    KZero,
    WordTooShort,
)
from fsgentropy.estimators import (
    EmpiricalMeasure,
    corr_entropy_series,
    correlation_sum,
    doubling_series,
    local_corr_entropy_series,
    local_entropy_series,
    omega_words,
    top_entropy_series,
)
from fsgentropy.limits import k_limit
from fsgentropy.seeding import substream
from fsgentropy.systems import (
    GeneratorSystem,
    binary_shift_odometer,
    bowen_distance,
    circle_double_rotate,
)
from fsgentropy.words import BernoulliSpec, word
from oracles import (
    ExactCylinderMeasure,
    all_points,
    ball_measure,
    corr_integral,
    cylinder_cell_measures,
    doubling_ratio,
    generic_system,
    net,
)

LOG2 = math.log(2.0)
BIN = binary_shift_odometer(depth=60)
CIRCLE = circle_double_rotate()


@pytest.fixture
def windows_only(monkeypatch):
    """Fails the test if a label call leaves the uint64 window path."""

    def exact_path(*args):
        raise AssertionError("the window path fell back to BinaryPoint keys")

    monkeypatch.setattr(estimators, "_bowen_keys", exact_path)


class _NumpyWithoutUnique:
    """numpy as estimators sees it, with np.unique failing the test."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def unique(*args, **kwargs):
        raise AssertionError("estimators sorted with np.unique")


@pytest.fixture
def no_unique(monkeypatch):
    """Fails the test if estimators calls np.unique (a label sort)."""
    monkeypatch.setattr(estimators, "np", _NumpyWithoutUnique())


def _rand_binary_points(n, depth, seed):
    rng = substream(seed)
    return tuple(binary.random_point(depth, rng) for _ in range(n))


# ---------------------------------------------------------------------------
# correlation_sum


def test_correlation_sum_single_point_orbit():
    x = binary.random_point(60, substream(0))
    est = correlation_sum(BIN, x, 0.25, word((1, 2), 2), 2, 1, 4, seed=1)
    assert est.value == 1.0
    assert est.stderr == 0.0


def test_correlation_sum_epsilon_at_diameter():
    x = binary.random_point(60, substream(0))
    est = correlation_sum(BIN, x, BIN.diameter, word((1,), 2), 2, 40, 3, seed=2)
    assert est.value == 1.0
    y = 0.37
    est = correlation_sum(CIRCLE, y, CIRCLE.diameter, word((1,), 2), 2, 40, 3, seed=2)
    assert est.value == 1.0


def test_correlation_sum_bounds_and_determinism():
    x = binary.random_point(60, substream(4))
    a = correlation_sum(BIN, x, 0.125, word((1, 2, 1), 2), 3, 50, 8, seed=5)
    b = correlation_sum(BIN, x, 0.125, word((1, 2, 1), 2), 3, 50, 8, seed=5)
    c = correlation_sum(BIN, x, 0.125, word((1, 2, 1), 2), 3, 50, 8, seed=6)
    assert a.per_upsilon == b.per_upsilon
    assert a.per_upsilon != c.per_upsilon
    assert 1 / 50 <= a.value <= 1.0
    assert all(1 / 50 <= v <= 1.0 for v in a.per_upsilon)


def test_correlation_sum_errors():
    x = binary.random_point(60, substream(0))
    with pytest.raises(InvalidEpsilon):
        correlation_sum(BIN, x, 0.0, word((1,), 2), 1, 10, 2, seed=0)
    with pytest.raises(WordTooShort):
        correlation_sum(BIN, x, 0.5, word((1,), 2), 3, 10, 2, seed=0)


def test_correlation_sum_key_path_equalsgeneric_system(windows_only):
    generic = generic_system(BIN)
    x = binary.random_point(60, substream(7))
    for eps in (0.5, 3 * 2.0**-5):
        fast = correlation_sum(BIN, x, eps, word((1, 2), 2), 3, 30, 4, seed=8)
        slow = correlation_sum(generic, x, eps, word((1, 2), 2), 3, 30, 4, seed=8)
        assert fast.per_upsilon == slow.per_upsilon
        assert fast.value == slow.value
        assert fast.stderr == slow.stderr


def test_correlation_sum_array_path_equalsgeneric_system():
    generic = generic_system(CIRCLE)
    for eps in (0.21, 0.05):
        fast = correlation_sum(CIRCLE, 0.3, eps, word((1, 2), 2), 3, 30, 4, seed=9)
        slow = correlation_sum(generic, 0.3, eps, word((1, 2), 2), 3, 30, 4, seed=9)
        assert fast.per_upsilon == slow.per_upsilon
        assert fast.value == slow.value
        assert fast.stderr == slow.stderr


@pytest.mark.parametrize("path", ["binary", "circle"])
def test_correlation_sum_orbit_memo_keys_on_every_argument(path):
    # a call that differs from the memo's in one argument gives what a
    # cold call gives, and that differs from the memo's own estimate
    if path == "binary":
        sys_ = binary_shift_odometer(depth=200)
        base = {"sys": sys_, "x": binary.random_point(200, substream(40))}
        other = {
            "sys": replace(sys_, maps=sys_.maps[::-1], window_ops=None),
            "x": binary.random_point(200, substream(41)),
        }
    else:
        base = {"sys": CIRCLE, "x": 0.3}
        other = {"sys": circle_double_rotate(alpha=0.3), "x": 0.7}
    base.update(n=60, m_upsilon=4, seed=42, weights=None)
    other.update(n=61, m_upsilon=5, seed=43, weights=BernoulliSpec((0.3, 0.7)))
    omega = word((1, 2, 1), 2)

    def est(a):
        return correlation_sum(
            a["sys"], a["x"], 0.125, omega, 3, a["n"], a["m_upsilon"], a["seed"], a["weights"]
        )

    reference = est(base)
    for name, value in other.items():
        varied = {**base, name: value}
        assert est(base) == reference
        warm = est(varied)
        estimators._upsilon_orbits.cache_clear()
        cold = est(varied)
        assert warm == cold, name
        assert cold != reference, name


def test_correlation_sum_converges_to_exact_ball_measure():
    # single-seed spot check of the orbit-limit identity; the 100-seed
    # envelope version lives in the acceptance suite
    sys_ = binary_shift_odometer(depth=2000 + 4 + 40)
    omega = word((1, 2), 2)
    target = 2.0 ** -(4 + s_count(omega, 3))
    x = sys_.mu_sampler(substream(30), 1)[0]
    est = correlation_sum(sys_, x, 3 * 2.0**-5, omega, 3, 2000, 32, seed=30)
    assert abs(est.value - target) <= 2.0 / 2000 + 3 * est.stderr


# ---------------------------------------------------------------------------
# ball measures


def test_ball_measure_single_sample_point():
    em = EmpiricalMeasure(_rand_binary_points(1, 60, 1))
    assert ball_measure(em, BIN, word((1,), 2), 2, em.points[0], 0.25) == 1.0


def test_ball_measure_diameter():
    em = EmpiricalMeasure(_rand_binary_points(32, 60, 2))
    assert ball_measure(em, BIN, word((1,), 2), 2, em.points[3], 1.0) == 1.0


def test_ball_measure_center_not_in_sample():
    em = EmpiricalMeasure(_rand_binary_points(8, 60, 3))
    outsider = binary.random_point(59, substream(99))
    with pytest.raises(CenterNotInSample):
        ball_measure(em, BIN, word((1,), 2), 2, outsider, 0.25)


def test_ball_measure_window_path_equalsgeneric_system(windows_only):
    em = EmpiricalMeasure(_rand_binary_points(96, 60, 31))
    generic = generic_system(BIN)
    omega = word((1, 2, 2), 2)
    for eps in (0.5, 0.125):
        for center in em.points[:8]:
            assert ball_measure(em, BIN, omega, 4, center, eps) == ball_measure(
                em, generic, omega, 4, center, eps
            )


def test_ball_measure_binomial_band():
    # dyadic radius: the true ball is a cylinder of measure 2**-(t+s);
    # the empirical count is 1 + Binomial(N-1, p), so allow 3 sigma
    # plus the 1/N self-inclusion shift
    n_pts = 4096
    em = EmpiricalMeasure(_rand_binary_points(n_pts, 60, 4))
    t, k = 2, 3
    for syms in itertools.product((1, 2), repeat=k - 1):
        omega = word(syms, 2)
        p = 2.0 ** -(t + s_count(omega, k))
        got = ball_measure(em, BIN, omega, k, em.points[0], 2.0**-t)
        tol = 3 * math.sqrt(p * (1 - p) / n_pts) + 1.0 / n_pts
        assert abs(got - p) <= tol


def test_ball_measures_paths_agree(windows_only):
    pts = _rand_binary_points(64, 60, 5)
    em = EmpiricalMeasure(pts)
    generic = generic_system(BIN)
    omega = word((2, 1, 2), 2)
    a = em.ball_measures(BIN, omega, 3, 0.25)
    b = em.ball_measures(generic, omega, 3, 0.25)
    assert np.array_equal(a, b)
    rng = substream(6)
    cpts = tuple(float(rng.random()) for _ in range(48))
    cem = EmpiricalMeasure(cpts)
    nogen = generic_system(CIRCLE)
    a = cem.ball_measures(CIRCLE, omega, 3, 0.07)
    b = cem.ball_measures(nogen, omega, 3, 0.07)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# correlation integral


def test_corr_integral_trivial_values():
    em = EmpiricalMeasure(_rand_binary_points(32, 60, 7))
    for q in (0.0, 1.0, 2.0, 5.0):
        assert corr_integral(em, BIN, 1.0, 3, q, 16, seed=1) == 0.0
    single = EmpiricalMeasure(_rand_binary_points(1, 60, 8))
    for q in (0.0, 1.0, 2.0):
        assert corr_integral(single, BIN, 0.25, 2, q, 16, seed=1) == 0.0


def test_corr_integral_against_closed_form():
    # closed form: c = -(2 + 2.5) * log 2 at radius 1/4, horizon 6.
    # The empirical value carries a small upward self-inclusion bias
    # (~1/(N p) per ball, ~0.007 at N=4096) on top of ~0.001 sampling
    # noise; 0.02 covers both with margin (max |dev| over 30 dev-run
    # seeds and q in {0,1,2} was 0.0095).
    sys_ = binary_shift_odometer(depth=2 + 6 + 40)
    em = EmpiricalMeasure.draw(sys_, 4096, seed=11)
    target = -(2 + 2.5) * LOG2
    for q in (0.0, 1.0, 2.0):
        c = corr_integral(em, sys_, 0.25, 6, q, 64, seed=11)
        assert abs(c - target) <= 0.02


def test_corr_integral_exact_measure_matches_series():
    for k in (1, 2, 5, 9):
        c = corr_integral(closed_form, BIN, 0.125, k, 2.0, 4096, seed=0)
        assert c == pytest.approx(-(3 + (k - 1) / 2) * LOG2, rel=1e-12)


def test_closed_form_rows_equal_the_cylinder_oracle_bit_for_bit(monkeypatch):
    """corr-entropy (q = 0..3), doubling and local entropy read through
    binary.ball_measure give the rows, byte for byte, of the same
    estimators handed 64 sample points whose ball measures are all the
    cylinder measure, at cylinder lengths L + s of 30 to 42."""
    eps_list, ks = [2.0**-30, 2.0**-31], [1, 2, 4, 6, 8, 10, 12]
    oracle = ExactCylinderMeasure.draw(80, 64, substream(41))
    omega = word((1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 1), 2)

    def rows(measure, center):
        return repr([
            *(corr_entropy_series(measure, BIN, eps_list, ks, q, 64, 41) for q in (0, 1, 2, 3)),
            doubling_series(measure, BIN, omega, eps_list, ks),
            local_entropy_series(measure, BIN, omega, center, eps_list, ks),
        ])

    got = rows(closed_form, None)
    monkeypatch.setattr(estimators, "_cell_measures", cylinder_cell_measures)
    assert got == rows(oracle, oracle.points[0])


def test_corr_entropy_series_rows_vs_exact():
    series = corr_entropy_series(closed_form, BIN, [0.25, 0.125], [1, 2, 3, 4], 2.0, 4096, seed=0)
    for s in series:
        t = binary.prefix_length_for(s.epsilon)
        for k, v in s.rows:
            assert v == pytest.approx((t + (k - 1) / 2) * LOG2 / k, rel=1e-12)


def test_closed_form_series_with_sampled_words_is_not_exact():
    """A closed-form measure's rows are affine in 1/k only where every
    word is enumerated: one Monte Carlo horizon (k = 5, 16 words > 8)
    leaves the series unmarked, so k_limit does not slope-fit it."""
    enumerated = corr_entropy_series(closed_form, BIN, [0.25], [1, 2, 3, 4], 2.0, 8, seed=0)[0]
    sampled = corr_entropy_series(closed_form, BIN, [0.25], [1, 2, 3, 4, 5], 2.0, 8, seed=0)[0]
    assert enumerated.exact and not sampled.exact


def test_corr_entropy_series_q_ordering_exact_mode():
    # the q-mean is non-decreasing in q, so the entropy rows are
    # non-increasing; on constant measures they coincide
    s0 = corr_entropy_series(closed_form, BIN, [0.25], [2, 3, 4], 0.0, 4096, seed=0)[0]
    s2 = corr_entropy_series(closed_form, BIN, [0.25], [2, 3, 4], 2.0, 4096, seed=0)[0]
    assert all(a >= b - 1e-12 for a, b in zip(s0.values, s2.values))


@pytest.mark.parametrize("q", [math.inf, -math.inf, math.nan])
def test_corr_entropy_series_rejects_a_non_finite_q_before_counting(monkeypatch, q):
    def counting(*args, **kwargs):
        raise AssertionError("counted")

    monkeypatch.setattr(estimators, "_cell_measures", counting)
    em = EmpiricalMeasure.draw(BIN, 64, 1)
    with pytest.raises(ConfigInvalid, match="'q'") as info:
        corr_entropy_series(em, BIN, [0.25], [1, 2], q, 16, 1)
    assert info.value.field == "q"


def test_q_log_mean_extreme_orders_are_finite():
    # (q - 1) * log overflowed to nan at q = 1e308; the q-mean tends to
    # the largest ball measure as q -> inf and to the smallest as q -> -inf
    logs = np.log(np.array([0.5, 0.125, 0.25, 1 / 64]))
    assert estimators._q_log_mean(logs, 1e308) == pytest.approx(logs.max(), abs=1e-12)
    assert estimators._q_log_mean(logs, -1e308) == pytest.approx(logs.min(), abs=1e-12)


def test_series_reject_bad_grids():
    em = EmpiricalMeasure(_rand_binary_points(8, 60, 15))
    for eps_list, k_list in (
        ([], [1]),
        ([0.25, 0.0], [1]),
        ([0.125, 0.25], [1]),
        ([0.25], []),
        ([0.25], [0, 1]),
        ([0.25], [2, 2]),
    ):
        with pytest.raises(ConfigInvalid):
            corr_entropy_series(em, BIN, eps_list, k_list, 2.0, 4, seed=0)


def test_omega_words_exhaustive_weights():
    pairs = omega_words(2, 3, None, 64, seed=0)
    assert len(pairs) == 4
    assert sum(w for _, w in pairs) == pytest.approx(1.0, abs=1e-15)
    pairs = omega_words(2, 12, None, 8, seed=0)
    assert len(pairs) == 8  # Monte Carlo once enumeration exceeds budget


# ---------------------------------------------------------------------------
# local correlation entropy


def test_local_corr_entropy_trivial_at_diameter():
    x = binary.random_point(60, substream(15))
    series = local_corr_entropy_series(BIN, x, [1.0], [1, 2, 3], 20, 4, 8, seed=3)
    assert all(v == 0.0 for v in series[0].values)


def test_local_corr_entropy_matches_exact_series():
    # the orbit-limit identity makes the local series approach the
    # q = 2 closed form; at n = 2000 the finite-orbit bias per word is
    # at most ~2**(t+s)/n, so rows match within 0.01
    n = 2000
    sys_ = binary_shift_odometer(depth=n + 5 + 40)
    x = sys_.mu_sampler(substream(16), 1)[0]
    series = local_corr_entropy_series(
        sys_, x, [0.25], [1, 2, 3], n, 16, 16, seed=16
    )[0]
    for k, v in series.rows:
        expected = (2 + (k - 1) / 2) * LOG2 / k
        assert abs(v - expected) <= 0.01


def test_local_corr_entropy_rows_carry_stability_flags():
    x = binary.random_point(60, substream(29))
    series = local_corr_entropy_series(BIN, x, [0.25], [1, 2], 40, 8, 8, seed=29)[0]
    assert series.flags is not None and len(series.flags) == len(series.rows)
    assert all(f in ("", "unstable") for f in series.flags)
    assert series.stderrs is not None


def test_local_corr_entropy_degenerate_alphabet():
    one = GeneratorSystem(
        "doubling-only",
        (CIRCLE.maps[0],),
        CIRCLE.metric,
        CIRCLE.diameter,
        CIRCLE.mu_sampler,
        array_ops=None,
    )
    a = local_corr_entropy_series(one, 0.3, [0.1], [1, 2], 60, 4, 1, seed=5)
    b = local_corr_entropy_series(one, 0.3, [0.1], [1, 2], 60, 4, 17, seed=5)
    assert a[0].rows == b[0].rows  # the word average has a single word


@pytest.mark.parametrize("n, m_upsilon", [(0, 4), (20, 0)])
def test_local_corr_entropy_rejects_empty_orbit_sets(n, m_upsilon):
    name = "n" if n < 1 else "m_upsilon"
    with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
        local_corr_entropy_series(CIRCLE, 0.3, [0.25], [1, 2], n, m_upsilon, 4, seed=1)


ORBIT_PATHS = {
    "binary-windows": (BIN, 0.25),
    "binary-exact": (replace(BIN, window_ops=None), 0.25),
    "circle-pairs": (CIRCLE, 0.2),
    "generic": (generic_system(CIRCLE), 0.2),
}


@pytest.mark.parametrize("n", [1, 2, 7, 30])
@pytest.mark.parametrize("path", ORBIT_PATHS)
def test_orbit_pair_counts_by_halves_equal_brute_force(request, path, n):
    """local_corr_entropy_series' layout: block (0, 0) holds the ordered
    close pairs among the first max(1, n // 2) orbit points, and the
    blocks together those among all n, on every counting path."""
    sys_, eps = ORBIT_PATHS[path]
    if path == "binary-windows":
        request.getfixturevalue("windows_only")
    x = sys_.mu_sampler(substream(60, n), 1)[0]
    groups = estimators._upsilon_orbits(sys_, x, n, 3, 61, None)
    orbits = [orbit for group in groups for orbit in group.split()]
    _, cells = estimators._series_cells(sys_.m, [1, 2, 3], None, 8, 62)
    h = max(1, n // 2)
    halves = estimators._blocks((np.arange(n) >= h).astype(np.intp), 2)
    got = estimators._orbit_pair_counts(sys_, groups, eps, cells, halves)
    assert got.shape == (len(cells), len(orbits), 2, 2)
    for c, (k, omega) in enumerate(cells):
        for o, orbit in enumerate(orbits):
            pts = orbit.points
            close = [
                (i, j) for i in range(n) for j in range(n)
                if i != j and bowen_distance(sys_, omega, k, pts[i], pts[j]) <= eps
            ]
            assert got[c, o, 0, 0] == sum(i < h and j < h for i, j in close), (k, omega, o)
            assert got[c, o].sum() == len(close), (k, omega, o)


@pytest.mark.parametrize("sys_", [BIN, CIRCLE], ids=["binary", "circle"])
def test_local_corr_entropy_counts_each_orbit_group_once_per_radius(monkeypatch, sys_):
    """The value at n/2 comes from the count of the value at n: one
    count (_count_cells) per group of orbits and radius, over every
    cell, on the whole orbits: one group of the three orbits with ball
    keys, read off their cylinders, one walk per orbit with pair lists."""
    x = sys_.mu_sampler(substream(63), 1)[0]
    eps_list, ks, n, m_upsilon = [0.25, 0.125], [1, 2, 3], 24, 3
    want = local_corr_entropy_series(sys_, x, eps_list, ks, n, m_upsilon, 8, seed=64)
    calls = []
    count = estimators._count_cells

    def counting(sys, pset, eps, cells, kind, *args, **kwargs):
        calls.append((pset, eps, len(cells)))
        return count(sys, pset, eps, cells, kind, *args, **kwargs)

    monkeypatch.setattr(estimators, "_count_cells", counting)
    got = local_corr_entropy_series(sys_, x, eps_list, ks, n, m_upsilon, 8, seed=64)
    assert [(s.rows, s.stderrs, s.flags) for s in got] == [
        (s.rows, s.stderrs, s.flags) for s in want
    ]
    groups = estimators._upsilon_orbits(sys_, x, n, m_upsilon, 64, None)
    assert [g.orbits for g in groups] == ([3] if sys_ is BIN else [1, 1, 1])
    n_cells = sum(2 ** (k - 1) for k in ks)
    assert calls == [(g, eps, n_cells) for eps in eps_list for g in groups]


# ---------------------------------------------------------------------------
# separated sets


def test_separated_singleton_and_diameter():
    pts = _rand_binary_points(16, 60, 17)
    assert net([pts[0]], BIN, word((1,), 2), 2, 0.25) == [pts[0]]
    assert len(net(pts, BIN, word((1,), 2), 2, 1.0)) == 1


def test_separated_cardinality_full_prefix_sample():
    t, k = 2, 3
    depth = t + k + 2
    sample = all_points(depth, pad=8)
    for syms in itertools.product((1, 2), repeat=k - 1):
        omega = word(syms, 2)
        kept = net(sample, BIN, omega, k, 2.0**-t)
        assert len(kept) == 2 ** (t + s_count(omega, k))


def test_greedy_net_paths_agree(windows_only):
    pts = list(_rand_binary_points(48, 60, 18))
    generic = generic_system(BIN)
    omega = word((1, 2), 2)
    assert net(pts, BIN, omega, 3, 0.25) == net(pts, generic, omega, 3, 0.25)
    rng = substream(19)
    cpts = [float(rng.random()) for _ in range(80)]
    nogen = generic_system(CIRCLE)
    assert net(cpts, CIRCLE, omega, 3, 0.04) == net(cpts, nogen, omega, 3, 0.04)


def test_spanning_vs_separated_sandwich():
    # the greedy eps-net is an eps-cover, and points more than 2 eps
    # apart in the Bowen metric cannot share an eps cover center, so the
    # net is at least as large as any 2 eps-separated set
    rng = substream(20)
    for trial in range(25):
        sys_, pts = (
            (CIRCLE, [float(rng.random()) for _ in range(40)])
            if trial % 2
            else (BIN, list(_rand_binary_points(40, 60, 100 + trial)))
        )
        k = int(rng.integers(1, 4))
        omega = word(tuple(rng.integers(1, 3, size=max(0, k - 1))), 2)
        eps = float(rng.uniform(0.02, 0.2))
        cover = net(pts, sys_, omega, k, eps)
        separated2 = net(pts, sys_, omega, k, 2 * eps)
        assert len(cover) >= len(separated2)


def test_separated_kept_points_are_pairwise_far():
    from fsgentropy.systems import bowen_distance

    pts = list(_rand_binary_points(40, 60, 21))
    omega = word((2, 1), 2)
    eps = 0.25
    kept = net(pts, BIN, omega, 3, eps)
    for i, a in enumerate(kept):
        for b in kept[i + 1 :]:
            assert bowen_distance(BIN, omega, 3, a, b) > eps
    # maximality makes it a cover
    for p in pts:
        assert any(bowen_distance(BIN, omega, 3, p, c) <= eps for c in kept)


# ---------------------------------------------------------------------------
# topological entropy series


def test_top_entropy_series_diameter_rows_are_zero():
    series = top_entropy_series(EmpiricalMeasure.draw(BIN, 32, 22), BIN, [1.0], [1, 2, 3], 16, 22)
    assert all(v == 0.0 for v in series[0].values)


@pytest.mark.parametrize("sys_", [BIN, CIRCLE], ids=["binary", "circle"])
def test_top_entropy_series_rejects_an_empty_sample(sys_):
    with pytest.raises(ValueError, match="need at least one sample point"):
        top_entropy_series(EmpiricalMeasure(()), sys_, [0.25], [1, 2], 16, seed=1)


def test_top_entropy_series_exact_sample_matches_closed_form():
    t = 2
    ks = [1, 2, 3, 4]
    depth = t + max(ks) + 2
    sample = all_points(depth, pad=8)
    series = top_entropy_series(
        EmpiricalMeasure(tuple(sample)), BIN, [2.0**-t], ks, m_omega=4096, seed=0
    )[0]
    for k, v in series.rows:
        assert v == pytest.approx((t + (k - 1) / 2) * LOG2 / k, rel=1e-12)


# ---------------------------------------------------------------------------
# doubling diagnostic and local entropy


def test_doubling_ratio_trivials():
    em = EmpiricalMeasure(_rand_binary_points(16, 60, 23))
    assert doubling_ratio(em, BIN, word((1,), 2), 2, 1.0) == 0.0
    single = EmpiricalMeasure(_rand_binary_points(1, 60, 24))
    assert doubling_ratio(single, BIN, word((1,), 2), 2, 0.25) == 0.0


def test_doubling_ratio_exact_backend_bitwise():
    for k in (1, 2, 5, 12):
        got = doubling_ratio(closed_form, BIN, word((1, 2) * 6, 2), k, 2.0**-3)
        assert got == math.log(2.0) / k


def test_doubling_series_on_the_exact_backend_equals_per_cell_ratios():
    omega = word((1, 2) * 6, 2)
    ks = [1, 2, 5, 12]
    for series in doubling_series(closed_form, BIN, omega, [0.25, 2.0**-3], ks):
        assert series.rows == [
            (k, doubling_ratio(closed_form, BIN, omega, k, series.epsilon)) for k in ks
        ]
        assert series.values == [math.log(2.0) / k for k in ks]


def test_local_entropy_series_trivials():
    em = EmpiricalMeasure(_rand_binary_points(16, 60, 26))
    s = local_entropy_series(em, BIN, word((1, 2), 2), em.points[0], [1.0], [1, 2, 3])
    assert all(v == 0.0 for v in s[0].values)
    single = EmpiricalMeasure(_rand_binary_points(1, 60, 27))
    s = local_entropy_series(
        single, BIN, word((1, 2), 2), single.points[0], [0.25], [1, 2]
    )
    assert all(v == 0.0 for v in s[0].values)
    with pytest.raises(CenterNotInSample):
        local_entropy_series(
            em, BIN, word((1, 2), 2), binary.random_point(59, substream(0)), [0.5], [1]
        )


def test_local_entropy_series_tracks_cylinder_measure():
    n_pts = 4096
    em = EmpiricalMeasure(_rand_binary_points(n_pts, 60, 28))
    t = 2
    omega = word((1, 2, 1, 1), 2)
    series = local_entropy_series(em, BIN, omega, em.points[0], [2.0**-t], [1, 2, 3])[0]
    for k, v in series.rows:
        p = 2.0 ** -(t + s_count(omega, k))
        sigma_log = math.sqrt((1 - p) / (n_pts * p))
        tol = (3 * sigma_log + 1.0 / (n_pts * p)) / k
        assert abs(v - (t + s_count(omega, k)) * LOG2 / k) <= tol


# ---------------------------------------------------------------------------
# label kernel: folds, first indices and block-pair counts


def _dense(values) -> np.ndarray:
    """values as the dense ranks 0, 1, ... that a fold hands on."""
    return np.unique(values, return_inverse=True)[1]


def _repeating_row(rng, n, bits) -> np.ndarray:
    """n uint64 values below 2**bits, drawn from about n / 4 distinct
    ones so that equal keys occur."""
    pool = rng.integers(0, 1 << bits, size=max(1, n // 4), dtype=np.uint64)
    return pool[rng.integers(0, len(pool), size=n)]


def _fold_reference(labels, row) -> np.ndarray:
    """Dense ranks of the pairs (label, row value) in lexicographic
    order, by sorting them."""
    if labels is None:
        labels = np.zeros(len(row), dtype=np.uint64)
    pairs = np.column_stack([labels.astype(np.uint64), row])
    return np.unique(pairs, axis=0, return_inverse=True)[1].ravel()


@pytest.mark.parametrize("bits", [0, 1, 5, 12, 40])
@pytest.mark.parametrize("classes", [None, 1, 8, 256], ids=["none", "one", "8", "256"])
@pytest.mark.parametrize("n", [1, 2, 7, 256])
def test_fold_equals_sorted_ranks(n, classes, bits):
    rng = substream(40, n, bits)
    labels = None if classes is None else _dense(rng.integers(0, classes, size=n))
    row = _repeating_row(rng, n, bits)
    got = estimators._fold(labels, row, bits)
    assert got.dtype == np.intp
    assert np.array_equal(got, _fold_reference(labels, row))


@pytest.mark.parametrize("top", [0, 4])
def test_fold_ranks_without_sort_up_to_the_table_cap(top, no_unique, monkeypatch):
    n = 256
    width = (estimators.RANK_TABLE_RATIO * n).bit_length() - 1
    assert 1 << width == estimators.RANK_TABLE_RATIO * n
    rng = substream(41, top)
    labels = rng.permutation(np.arange(n) % (1 << top))  # max label 2**top - 1
    at_cap, over = (_repeating_row(rng, n, b) for b in (width - top, width - top + 1))
    got = estimators._fold(labels, at_cap, width - top)
    assert np.array_equal(got, _fold_reference(labels, at_cap))
    with pytest.raises(AssertionError, match="np.unique"):
        estimators._fold(labels, over, width - top + 1)
    monkeypatch.undo()
    assert np.array_equal(
        estimators._fold(labels, over, width - top + 1), _fold_reference(labels, over)
    )


def test_fold_of_keys_wider_than_64_bits_ranks_their_pairs():
    rng = substream(42)
    n = 300
    labels = _dense(rng.integers(0, 256, size=n))
    assert int(labels.max()).bit_length() + 60 > 64
    row = _repeating_row(rng, n, 60)
    assert np.array_equal(estimators._fold(labels, row, 60), _fold_reference(labels, row))


@pytest.mark.parametrize("n, classes", [(1, 1), (2, 1), (2, 2), (50, 7), (1000, 1000), (4096, 300)])
def test_first_indices_equal_sorted_unique_index(n, classes):
    labels = _dense(substream(43, n).integers(0, classes, size=n))
    want = np.sort(np.unique(labels, return_index=True)[1])
    assert np.array_equal(estimators._first_indices(labels), want)


@pytest.mark.parametrize("classes", [1, 5, 60])
@pytest.mark.parametrize("n_blocks", [1, 3, 20])
@pytest.mark.parametrize("w", range(5))
def test_label_pair_counts_equal_brute_force(w, n_blocks, classes):
    # one orbit of 60 points, then three one after another, their labels
    # dense over them all and never shared between two: counts per orbit
    n = 60
    for orbits in (1, 3):
        labels = _dense(np.concatenate([
            o * classes + substream(44, classes, o).integers(0, classes, size=n)
            for o in range(orbits)
        ]))
        # contiguous time blocks, and blocks scattered over the points
        scattered = substream(48, w).integers(0, n_blocks, size=n)
        for block in (np.arange(n) * n_blocks // n, scattered):
            want = np.zeros((orbits, n_blocks, n_blocks), dtype=np.int64)
            for o in range(orbits):
                lab = labels[o * n:(o + 1) * n].tolist()
                for i in range(n):
                    for j in range(n):
                        if abs(i - j) > w and lab[i] == lab[j]:
                            want[o, block[i], block[j]] += 1
            got = estimators._label_pair_counts(labels, estimators._blocks(block, n_blocks, w))
            assert got.dtype == np.int64
            assert np.array_equal(got, want), orbits


def test_shallow_binary_runs_label_without_sorting(request):
    eps_list, ks = [0.25, 0.125], [1, 2, 3, 4, 5]
    orbit_sys = binary_shift_odometer(depth=600)
    walk_sys = replace(orbit_sys, window_ops=replace(orbit_sys.window_ops, cylinder=None))
    x = binary.random_point(600, substream(45))
    omega = word((1, 2, 2, 1), 2)

    def top():
        em = EmpiricalMeasure.draw(BIN, 256, 46)
        return [s.rows for s in top_entropy_series(em, BIN, eps_list, ks, 16, seed=46)]

    def corr(eps, k, omega=omega, s=orbit_sys):
        estimators._upsilon_orbits.cache_clear()
        return correlation_sum(s, x, eps, omega, k, 256, 4, seed=47)

    cells = [(eps, k) for eps in eps_list for k in ks]
    want_top, want_corr = top(), [corr(*c) for c in cells]
    request.getfixturevalue("no_unique")
    assert top() == want_top
    # a group of 4 orbits of 256 points ranks through a table of up to
    # 2**12 flags: 2 bits of orbit index, and at most 3 + 2 bits of
    # cylinder (eps = 1/8, two shifts) or 9 bits of stage keys from stage
    # 0 (odometers pack none)
    assert [corr(*c) for c in cells] == want_corr
    assert [corr(*c, s=walk_sys) for c in cells] == want_corr
    # along four shifts at eps = 1/8, k = 5: a walk from stage 0 packs 15
    # bits into one row, a cylinder at eps = 2**-7 is 11 bits wide; both
    # are past the table and sort
    for eps, s in ((0.125, walk_sys), (2.0**-7, orbit_sys)):
        with pytest.raises(AssertionError, match="np.unique"):
            corr(eps, 5, word((1, 1, 1, 1), 2), s)


def test_label_pair_counts_stay_exact_past_float32():
    # two blocks of 4097 equal labels: 4097**2 pairs across them, an odd
    # count above 2**24 that float32 cannot hold but float64 does
    n = 2 * 4097
    counts = estimators._label_pair_counts(
        np.zeros(n, dtype=np.intp), estimators._blocks(np.arange(n) * 2 // n, 2)
    )
    assert counts.tolist() == [[[4097 * 4096, 4097**2], [4097**2, 4097 * 4096]]]


# Every counting path: binary uint64 windows, binary exact keys, circle
# pair lists and the generic pairwise loop.
COUNTING_PATHS = {
    "binary-windows": BIN,
    "binary-exact": replace(BIN, window_ops=None),
    "circle-pairs": CIRCLE,
    "generic": generic_system(CIRCLE),
}


@pytest.fixture(params=list(COUNTING_PATHS))
def counting_path(request):
    sys_ = COUNTING_PATHS[request.param]
    return sys_, EmpiricalMeasure.draw(sys_, 16, seed=3)


def test_word_symbols_beyond_the_maps_raise_on_every_path(counting_path):
    sys_, em = counting_path
    x, omega = em.points[0], word((3, 1), 3)
    calls = [
        lambda: em.ball_measures(sys_, omega, 3, 0.25),
        lambda: doubling_series(em, sys_, omega, [0.25], [1, 2, 3]),
        lambda: local_entropy_series(em, sys_, omega, x, [0.25], [1, 2, 3]),
        lambda: correlation_sum(sys_, x, 0.25, omega, 3, 16, 2, seed=1),
    ]
    for call in calls:
        with pytest.raises(AlphabetMismatch):
            call()
    # only the first k-1 symbols are read: a later one may name no map
    late = em.ball_measures(sys_, word((1, 2, 3), 3), 3, 0.25)
    assert np.array_equal(late, em.ball_measures(sys_, word((1, 2), 2), 3, 0.25))


def test_closed_form_ball_measure_rejects_word_symbols_beyond_the_maps():
    with pytest.raises(AlphabetMismatch):
        closed_form(0.25, word((3, 1), 3), 3)
    with pytest.raises(AlphabetMismatch):
        s_count(word((1, 2, 3), 3), 4)
    # only the first k-1 symbols are read: a later one may name no map
    assert s_count(word((1, 2, 3), 3), 3) == 1


@pytest.mark.parametrize("weights", [(0.5, 0.25, 0.25), (1.0,)])
def test_weights_for_another_alphabet_raise_on_every_path(counting_path, weights):
    sys_, em = counting_path
    spec, x = BernoulliSpec(weights), em.points[0]
    calls = [
        lambda: omega_words(sys_.m, 2, spec, 16, 1),
        lambda: corr_entropy_series(em, sys_, [0.25], [1, 2], 2.0, 16, 1, weights=spec),
        lambda: top_entropy_series(em, sys_, [0.25], [1, 2], 16, 1, weights=spec),
        lambda: correlation_sum(sys_, x, 0.25, word((1,), 2), 2, 16, 2, 1, weights=spec),
        lambda: local_corr_entropy_series(sys_, x, [0.25], [1, 2], 16, 2, 4, 1, weights=spec),
    ]
    for call in calls:
        with pytest.raises(AlphabetMismatch):
            call()


def test_k_zero_raises_kzero_on_every_path(counting_path):
    sys_, em = counting_path
    calls = [
        lambda: omega_words(sys_.m, 0, None, 16, 1),
        lambda: em.ball_measures(sys_, word((), 2), 0, 0.25),
        lambda: correlation_sum(sys_, em.points[0], 0.25, word((), 2), 0, 16, 2, 1),
    ]
    for call in calls:
        with pytest.raises(KZero):
            call()


def test_corr_entropy_series_marks_exact_measures_for_a_slope_fit():
    exact = closed_form
    empirical = EmpiricalMeasure.draw(BIN, 64, seed=5)
    ks = list(range(1, 9))
    s_exact, = corr_entropy_series(exact, BIN, [0.25], ks, 2.0, 256, 5)
    s_emp, = corr_entropy_series(empirical, BIN, [0.25], ks, 2.0, 256, 5)
    assert s_exact.exact is True and s_emp.exact is False
    assert k_limit(s_exact).method == "slope-fit"
    assert k_limit(s_exact).value == pytest.approx(LOG2 / 2, abs=1e-9)
    assert k_limit(s_emp).method == "tail-mean"


def test_series_draw_their_words_once_for_every_radius(monkeypatch):
    # two radii, exhaustive words for ks 1..4 and Monte Carlo ones for 5:
    # one omega_words call per horizon, and the rows of one-radius runs
    calls = []
    original = estimators.omega_words

    def counting(m, k, *rest):
        calls.append(k)
        return original(m, k, *rest)

    monkeypatch.setattr(estimators, "omega_words", counting)
    sys_ = binary_shift_odometer(depth=64)
    em = EmpiricalMeasure.draw(sys_, 64, 7)
    eps_list, ks = [0.25, 0.125], [1, 2, 3, 4, 5]
    runs = {
        "top": lambda e: top_entropy_series(em, sys_, e, ks, 8, seed=7),
        "corr": lambda e: corr_entropy_series(em, sys_, e, ks, 2.0, 8, seed=7),
        "local corr": lambda e: local_corr_entropy_series(sys_, em.points[0], e, ks, 40, 3, 8, 7),
    }
    for name, run in runs.items():
        del calls[:]
        both = run(eps_list)
        assert calls == ks, name
        assert both == [run([eps])[0] for eps in eps_list], name
