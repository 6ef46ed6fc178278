"""Circle-family Bowen balls counted as arcs by slope product, against
the generic pairwise oracle.

Below eps < 1/(1 + largest slope) the estimators count a cell's Bowen
balls as arcs of radius eps / (its word's slope product) and test only
the pairs in a thin band around that radius along the word; at or past
that edge, and for samples outside [0, 1], the pair walk runs.  Samples
here hold pairs a few float steps either side of each arc's edge, so
the band decides them.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from fsgentropy import estimators
from fsgentropy.cli import parse_config, run_experiment
from fsgentropy.estimators import (
    EmpiricalMeasure,
    _arc_groups,
    _as_point_set,
    _blocks,
    _count_cells,
    correlation_sum,
    local_entropy_series,
)
from fsgentropy.seeding import substream
from fsgentropy.systems import build_power_system, circle_double_rotate, torus_affine
from fsgentropy.words import word
from oracles import generic_system

CIRCLE, TORUS = circle_double_rotate(), torus_affine()

SYSTEMS = {
    "circle": CIRCLE,
    "torus": TORUS,
    "torus-m3": torus_affine((0.0, 0.3, 0.7)),
    "torus-far": torus_affine((0.0, 7.3, -2.5)),  # offsets past a turn round coarser
    "circle-wide": circle_double_rotate(3.7),
    "circle-power2": build_power_system(CIRCLE, 2),
    "circle-power3": build_power_system(CIRCLE, 3),
    "torus-power2": build_power_system(TORUS, 2),
}


def _edge(sys_) -> float:
    """The domain edge 1/(1 + largest slope)."""
    return 1.0 / (1 + max(sys_.pair_ops.slopes))


def _words(sys_, size, seed):
    """size words of 0 to 3 letters, drawn from substream seed."""
    rng = substream(seed)
    return [
        word(tuple(int(s) for s in rng.integers(1, sys_.m + 1, rng.integers(0, 4))), sys_.m)
        for _ in range(size)
    ]


def _lam(sys_, omega) -> int:
    return math.prod(sys_.pair_ops.slopes[s - 1] for s in omega.symbols)


def _arc_points(radii, seed, n=12, steps=3):
    """n random bases of [0, 1) and, per base and radius r, partners at
    r and 1 - r away either side (across 0 where they leave [0, 1)), each
    with its `steps` float neighbours either side: pairs a few ulps
    inside and outside every arc's edge."""
    rng = substream(seed)
    pts = []
    for x in rng.random(n).tolist():
        pts.append(x)
        for r in radii:
            for y in ((x + r) % 1.0, (x - r) % 1.0, (x + 1.0 - r) % 1.0):
                pts.append(y)
                lo = hi = y
                for _ in range(steps):
                    lo, hi = float(np.nextafter(lo, -np.inf)), float(np.nextafter(hi, np.inf))
                    pts += [p for p in (lo, hi) if 0.0 <= p <= 1.0]
    return list(dict.fromkeys(pts))


def _no_walk(monkeypatch):
    def walk(*args, **kwargs):
        raise AssertionError("the pair walk ran")

    monkeypatch.setattr(estimators, "_pair_walk", walk)


def _walks(monkeypatch):
    """Patch the walk to log its calls; returns the log."""
    log, walk = [], estimators._pair_walk

    def logged(*args, **kwargs):
        log.append(args[3])
        return walk(*args, **kwargs)

    monkeypatch.setattr(estimators, "_pair_walk", logged)
    return log


def _check_cells(fast, pts, eps, cells):
    """Balls, pair tallies and nets of every cell equal the oracle's."""
    oracle = generic_system(fast)
    n = len(pts)
    for kind, opts in (
        ("balls", {}), ("net", {}), ("pairs", {"blocks": _blocks(np.arange(n) * 3 // n, 3, 2)})
    ):
        got = _count_cells(fast, _as_point_set(fast, pts), eps, cells, kind, **opts)
        for g, cell in zip(got, cells):
            want = _count_cells(oracle, _as_point_set(oracle, pts), eps, [cell], kind, **opts)[0]
            assert np.array_equal(g, want), (kind, cell)


@pytest.mark.parametrize("name", list(SYSTEMS))
@pytest.mark.parametrize("eps", [0.1, 1 / 16, 2.0**-10])
def test_arcs_at_their_edges_match_oracle(monkeypatch, name, eps):
    """Pairs a few ulps either side of eps / Λ, for every Λ of the drawn
    words, directly and across 0: ball counts, pair tallies and greedy
    nets equal the oracle's, with no pair walk."""
    fast = SYSTEMS[name]
    if eps >= _edge(fast):
        eps = _edge(fast) / 2
    words = _words(fast, 8, 1)
    cells = [(len(w) + 1, w) for w in words] + [(1, word((), fast.m))]
    pts = _arc_points(sorted({eps / _lam(fast, w) for w in words}), seed=2, n=3, steps=2)
    _no_walk(monkeypatch)
    _check_cells(fast, pts, eps, cells)


@pytest.mark.parametrize("name", ["circle", "torus", "circle-power2", "circle-power3"])
@pytest.mark.parametrize("below", [True, False], ids=["below-edge", "at-edge"])
def test_radii_at_the_domain_edge_match_oracle(monkeypatch, name, below):
    """Just below 1/(1 + λ_max) every cell is an arc; at it every cell
    walks.  Both equal the oracle, also for pairs that a slope carries
    to the far side of eps."""
    fast = SYSTEMS[name]
    edge = _edge(fast)
    eps = edge - 2.0**-30 if below else edge
    words = _words(fast, 8, 3)
    cells = [(len(w) + 1, w) for w in words]
    radii = {eps / _lam(fast, w) for w in words} | {eps, (1 - eps) / 2, edge}
    pts = _arc_points(sorted(radii), seed=4, n=3, steps=2)
    walks = _walks(monkeypatch)
    _check_cells(fast, pts, eps, cells)
    assert bool(walks) != below
    groups = _arc_groups(fast, np.array(pts), eps, cells)
    assert sum(len(g) for *_, g in groups.values()) == (len(cells) if below else 0)


@pytest.mark.parametrize("name", ["circle", "torus", "circle-power2"])
def test_samples_outside_the_unit_interval_walk(monkeypatch, name):
    """A sample with a point outside [0, 1], where the arc is not the
    metric's float expression, walks, and equals the oracle."""
    fast = SYSTEMS[name]
    eps = _edge(fast) / 2
    words = _words(fast, 6, 5)
    cells = [(len(w) + 1, w) for w in words]
    for extra in (1.25, -0.125, 1.0 + 2.0**-52):
        pts = _arc_points([eps], seed=6, n=3, steps=1) + [extra]
        walks = _walks(monkeypatch)
        _check_cells(fast, pts, eps, cells)
        assert walks
        assert _arc_groups(fast, np.array(pts), eps, cells) == {}


@pytest.mark.parametrize("name", ["circle", "torus"])
def test_long_words_widen_the_margin(monkeypatch, name):
    """24 doublings make Λ = 2**24 and the margin Λ (PAIR_MARGIN + (k - 1)
    rounding) over 1e-9; pairs a few ulps either side of eps / Λ, whose
    last stages round most, still count as the oracle counts them."""
    fast = SYSTEMS[name]
    eps = 1 / 16
    omega = word((1,) * 22 + (2, 1, 2, 1, 2) if name == "circle" else (1, 2) * 12, fast.m)
    k = len(omega) + 1
    lam = _lam(fast, omega)
    cells = [(k, omega), (k - 2, omega), (21, omega)]
    groups = _arc_groups(fast, np.zeros(1), eps, cells)
    lo, hi, _ = groups[lam]
    assert lam == 2**24 and (hi - lo) * lam / 2 > 1e-9  # the margin at the last stage
    pts = _arc_points(sorted({eps / _lam(fast, word(omega.symbols[: c - 1], fast.m))
                              for c, _ in cells}), seed=7, n=2, steps=2)
    _no_walk(monkeypatch)
    _check_cells(fast, pts, eps, cells)


def test_offsets_far_past_a_turn_widen_the_margin(monkeypatch):
    """x -> 2x + 1000.3 rounds each point by up to 2**-44, far more than
    PAIR_MARGIN covers: pairs up to 200 float steps of 1 either side of
    eps / Λ count as the oracle counts them only through the declared
    rounding."""
    fast = torus_affine((0.0, 1000.3))
    eps, rng = 0.125, substream(12)
    words = [word(syms, 2) for syms in ((2,), (2, 2), (1, 2, 2, 2), (2, 1, 2, 1, 2, 2))]
    pts = []
    for x in rng.random(2).tolist():
        for r in sorted({eps / _lam(fast, w) for w in words}):
            for t in range(-200, 201, 20):
                pts += [x, (x + r + t * 2.0**-52) % 1.0, (x - r - t * 2.0**-52) % 1.0]
    _no_walk(monkeypatch)
    _check_cells(fast, list(dict.fromkeys(pts)), eps, [(len(w) + 1, w) for w in words])


@pytest.mark.parametrize("name", ["circle", "torus", "circle-power2"])
def test_one_centre_reads_its_arc_like_the_oracle(monkeypatch, name):
    """One centre's count reads its arc, and equals the oracle's count at
    that centre, for centres with partners a few ulps either side of the
    arc's edge; local entropy reads it so too."""
    fast = SYSTEMS[name]
    oracle = generic_system(fast)
    eps = _edge(fast) / 2
    omega = word((1, fast.m, 1, 1, fast.m), fast.m)
    cells = [(k, omega) for k in range(1, 7)]
    radii = {eps / _lam(fast, word(omega.symbols[: k - 1], fast.m)) for k, _ in cells}
    pts = tuple(_arc_points(sorted(radii), seed=8, n=2, steps=2))
    want = _count_cells(oracle, _as_point_set(oracle, pts), eps, cells, "balls")
    _no_walk(monkeypatch)
    pset = _as_point_set(fast, pts)
    for center in range(0, len(pts), 3):
        got = _count_cells(fast, pset, eps, cells, "balls", center=center)
        assert got == [counts[center] for counts in want], center
    em = EmpiricalMeasure(pts)
    for center in pts[:2]:
        got, want = (
            local_entropy_series(em, s, omega, center, [eps], range(1, 7))[0].rows
            for s in (fast, oracle)
        )
        assert got == want, center


@pytest.mark.parametrize("name", ["circle", "torus", "circle-power2", "circle-power3"])
@pytest.mark.parametrize("x", [0.3, 0.0, 1.0 - 2.0**-53])
def test_correlation_sum_orbits_match_oracle(monkeypatch, name, x):
    """Orbit pair tallies (correlation sums) as arcs equal the oracle's."""
    fast = SYSTEMS[name]
    eps = _edge(fast) / 2
    omega = word((1, fast.m, 1), fast.m)
    _no_walk(monkeypatch)
    for k in (1, 2, 4):
        got = correlation_sum(fast, x, eps, omega, k, 60, 3, seed=9)
        assert got == correlation_sum(generic_system(fast), x, eps, omega, k, 60, 3, seed=9)


def test_power_slopes_are_digit_products():
    """A power letter's slope is the product of its digits' slopes and its
    rounding t times the base's."""
    assert CIRCLE.pair_ops.slopes == (2, 1) and TORUS.pair_ops.slopes == (2, 2)
    assert SYSTEMS["circle-power2"].pair_ops.slopes == (4, 2, 2, 1)
    assert SYSTEMS["circle-power3"].pair_ops.slopes == (8, 4, 4, 2, 4, 2, 2, 1)
    assert SYSTEMS["circle-power3"].pair_ops.rounding == 3 * CIRCLE.pair_ops.rounding
    assert SYSTEMS["torus-m3"].pair_ops.slopes == (2, 2, 2)


def _config(system, eps, ks, n_points, m_omega=None):
    lines = [f"system = {system}", "estimator = corr-entropy", f"epsilons = {eps}",
             f"ks = {ks}", f"n_points = {n_points}"]
    return parse_config("\n".join(lines + ([f"m_omega = {m_omega}"] if m_omega else [])))


@pytest.mark.parametrize(
    "system, eps, ks, n_points, m_omega",
    [
        ("circle-double-rotate", "0.125", "1,2,3,4,5", 2048, 4),  # the benchmark's shape
        ("circle-double-rotate", "0.0625,0.03125", "1,2,3,4,5,6,7,8,9,10", 4096, None),
        ("torus-affine", "0.0625,0.03125", "1,2,3,4,5,6,7,8,9,10", 4096, None),
    ],
)
def test_headline_configs_never_walk(monkeypatch, system, eps, ks, n_points, m_omega):
    """The benchmark's circle config and both CLI headlines count arcs
    only."""
    _no_walk(monkeypatch)
    rows = run_experiment(_config(system, eps, ks, n_points, m_omega)).rows
    assert len(rows) == len(eps.split(",")) * len(ks.split(","))


@pytest.mark.parametrize(
    "system, eps", [("circle-double-rotate", "0.4"), ("torus-affine", "0.3333333333333333")]
)
def test_radii_past_the_edge_walk(monkeypatch, system, eps):
    """Radii past 1/(1 + λ_max) = 1/3 walk."""
    walks = _walks(monkeypatch)
    run_experiment(_config(system, eps, "1,2,3", 256, 4))
    assert walks


def test_arc_groups_by_slope_product_inside_the_domain():
    """Cells group by slope product, with margins that grow with Λ and k;
    none for a sample outside [0, 1] or past the domain edge."""
    omega = word((1, 1, 2, 1), 2)
    cells = [(k, omega) for k in range(1, 6)]
    groups = _arc_groups(CIRCLE, np.array([0.0, 0.5, 1.0]), 0.125, cells)
    assert sorted(groups) == [1, 2, 4, 8]
    assert groups[4][2] == [2, 3]
    margins = [(groups[lam][1] - groups[lam][0]) * lam / 2 for lam in sorted(groups)]
    assert margins == sorted(margins) and margins[0] >= estimators.PAIR_MARGIN
    assert all(lo < 0.125 / lam < hi for lam, (lo, hi, _) in groups.items())
    assert _arc_groups(CIRCLE, np.array([0.5, 1.5]), 0.125, cells) == {}
    shifted = replace(CIRCLE, pair_ops=replace(CIRCLE.pair_ops, slopes=(3, 1)))
    assert _arc_groups(shifted, np.array([0.5]), 0.3, cells) == {}  # past 1/4
