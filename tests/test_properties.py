"""Randomised structural properties of the estimators.

Each property runs 100 seeded instances with common random numbers
(same master seed on both sides of every comparison) and tolerates
zero violations.  The acceptance suite invokes the same `check_*`
functions, so the property definitions live in one place.
"""

import math

import numpy as np
import pytest

from fsgentropy import binary
from fsgentropy.estimators import EmpiricalMeasure, correlation_sum, omega_words
from fsgentropy.seeding import substream
from fsgentropy.systems import binary_shift_odometer, circle_double_rotate
from fsgentropy.words import sample_word, uniform_spec, word
from oracles import ball_measure, corr_integral, doubling_ratio

N_INSTANCES = 100

BIN = binary_shift_odometer(depth=80)
CIRCLE = circle_double_rotate()

Q_GRID = (-1.0, 0.0, 1.0, 2.0, 3.5, 5.0)


def _instance(seed):
    """Shared random instance: system, start point, word, horizon."""
    rng = substream(seed, 90)
    if seed % 3 == 2:
        sys_ = CIRCLE
        x = float(rng.random())
    else:
        sys_ = BIN
        x = binary.random_point(80, rng)
    k = int(rng.integers(1, 4))
    omega = sample_word(uniform_spec(2), k + 4, substream(seed, 91))
    n = int(rng.integers(20, 60))
    return sys_, x, omega, k, n


def _eps_pair(rng, sys_):
    a = float(rng.uniform(0.01, sys_.diameter))
    b = float(rng.uniform(0.01, sys_.diameter))
    return min(a, b), max(a, b)


def check_corr_sum_epsilon_monotone():
    bad = []
    for seed in range(N_INSTANCES):
        sys_, x, omega, k, n = _instance(seed)
        e1, e2 = _eps_pair(substream(seed, 92), sys_)
        c1 = correlation_sum(sys_, x, e1, omega, k, n, 3, seed=seed)
        c2 = correlation_sum(sys_, x, e2, omega, k, n, 3, seed=seed)
        if not c1.value <= c2.value:
            bad.append(seed)
    return bad


def check_corr_integral_epsilon_monotone():
    bad = []
    for seed in range(N_INSTANCES):
        sys_, _, _, k, _ = _instance(seed)
        rng = substream(seed, 93)
        n_pts = int(rng.integers(8, 40))
        em = EmpiricalMeasure.draw(sys_, n_pts, seed)
        e1, e2 = _eps_pair(rng, sys_)
        q = float(Q_GRID[seed % len(Q_GRID)])
        c1 = corr_integral(em, sys_, e1, k, q, 8, seed=seed)
        c2 = corr_integral(em, sys_, e2, k, q, 8, seed=seed)
        if not c1 <= c2 + 1e-12:
            bad.append(seed)
    return bad


def check_corr_integral_q_monotone_exact_mode():
    bad = []
    em = binary.ball_measure
    for seed in range(N_INSTANCES):
        rng = substream(seed, 95)
        k = int(rng.integers(1, 6))
        t = int(rng.integers(1, 5))
        qs = sorted(rng.choice(Q_GRID, size=2, replace=False))
        c1 = corr_integral(em, BIN, 2.0**-t, k, float(qs[0]), 64, seed=seed)
        c2 = corr_integral(em, BIN, 2.0**-t, k, float(qs[1]), 64, seed=seed)
        if not c1 <= c2 + 1e-12:
            bad.append(seed)
    return bad


def check_corr_sum_bounds():
    bad = []
    for seed in range(N_INSTANCES):
        sys_, x, omega, k, n = _instance(seed)
        eps = float(substream(seed, 96).uniform(0.005, 2 * sys_.diameter))
        est = correlation_sum(sys_, x, eps, omega, k, n, 3, seed=seed)
        if not (1.0 / n <= est.value <= 1.0):
            bad.append(seed)
        if not all(1.0 / n <= v <= 1.0 for v in est.per_upsilon):
            bad.append(seed)
    return bad


def check_word_prefix_invariance():
    bad = []
    for seed in range(N_INSTANCES):
        sys_, x, omega, k, n = _instance(seed)
        rng = substream(seed, 97)
        other = word(
            omega.symbols[: k - 1] + tuple(rng.integers(1, 3, size=5)), omega.m
        )
        eps = float(rng.uniform(0.01, sys_.diameter))
        a = correlation_sum(sys_, x, eps, omega, k, n, 2, seed=seed)
        b = correlation_sum(sys_, x, eps, other, k, n, 2, seed=seed)
        if a.per_upsilon != b.per_upsilon:
            bad.append(seed)
        em = EmpiricalMeasure.draw(sys_, 16, seed)
        ma = ball_measure(em, sys_, omega, k, em.points[0], eps)
        mb = ball_measure(em, sys_, other, k, em.points[0], eps)
        if ma != mb:
            bad.append(seed)
        if doubling_ratio(em, sys_, omega, k, eps) != doubling_ratio(
            em, sys_, other, k, eps
        ):
            bad.append(seed)
    return bad


def check_averaged_k_monotone():
    """Word-averaged log correlation sums fall as the horizon grows
    (common driving words), and exact-mode correlation integrals fall
    likewise."""
    bad = []
    em = binary.ball_measure
    for seed in range(N_INSTANCES):
        rng = substream(seed, 99)
        k1 = int(rng.integers(1, 4))
        k2 = k1 + int(rng.integers(1, 3))
        x = binary.random_point(80, substream(seed, 100))
        n = int(rng.integers(20, 50))
        eps = 2.0 ** -int(rng.integers(1, 4))

        def avg_log_c(k):
            total = 0.0
            for w, wt in omega_words(2, k2, None, 4096, seed):
                c = correlation_sum(BIN, x, eps, w, k, n, 2, seed=seed)
                total += wt * math.log(c.value)
            return total

        if not avg_log_c(k1) >= avg_log_c(k2) - 1e-12:
            bad.append(seed)
        c1 = corr_integral(em, BIN, eps, k1, 2.0, 64, seed=seed)
        c2 = corr_integral(em, BIN, eps, k2, 2.0, 64, seed=seed)
        if not c1 >= c2 - 1e-12:
            bad.append(seed)
    return bad


ALL_PROPERTY_CHECKS = {
    "corr-sum epsilon-monotone": check_corr_sum_epsilon_monotone,
    "corr-integral epsilon-monotone": check_corr_integral_epsilon_monotone,
    "corr-integral q-monotone (exact mode)": check_corr_integral_q_monotone_exact_mode,
    "corr-sum value bounds": check_corr_sum_bounds,
    "word prefix invariance": check_word_prefix_invariance,
    "averaged k-monotonicity": check_averaged_k_monotone,
}


@pytest.mark.parametrize("name", sorted(ALL_PROPERTY_CHECKS))
def test_property_holds_on_all_instances(name):
    violations = ALL_PROPERTY_CHECKS[name]()
    assert violations == [], f"{name}: violating seeds {violations}"


def test_corr_integral_monotonicity_in_expectation_monte_carlo():
    # on sampled-measure mode the q- and radius-orderings are checked
    # in expectation across >= 30 seeds
    deltas_q = []
    deltas_eps = []
    for seed in range(30):
        em = EmpiricalMeasure.draw(BIN, 32, seed)
        c0 = corr_integral(em, BIN, 0.25, 3, 0.0, 8, seed=seed)
        c2 = corr_integral(em, BIN, 0.25, 3, 2.0, 8, seed=seed)
        deltas_q.append(c2 - c0)
        ca = corr_integral(em, BIN, 0.125, 3, 2.0, 8, seed=seed)
        deltas_eps.append(c2 - ca)
    assert np.mean(deltas_q) >= -1e-12
    assert np.mean(deltas_eps) >= -1e-12


def test_power_rule_exact_series_ratio():
    # slope-fit limits of the 2-fold power series against the base
    from fsgentropy.binary import exact_series
    from fsgentropy.limits import k_limit

    base = k_limit(exact_series("corr", 2, 24, 2.0)).value
    power = k_limit(exact_series("corr", 2, 24, 2.0, power=2)).value
    assert power / base == pytest.approx(2.0, abs=1e-9)
