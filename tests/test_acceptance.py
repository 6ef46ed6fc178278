"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with
the measured quantities (run pytest with -s to see them).  Shared
expensive computations live in session fixtures.
"""

import itertools
import math
import time

import numpy as np
import pytest

import test_properties
from fsgentropy.binary import ball_measure, exact_series, s_count
from fsgentropy.cli import ExperimentConfig, reproduce_paper_example, run_experiment
from fsgentropy.estimators import (
    EmpiricalMeasure,
    corr_entropy_series,
    correlation_sum,
    doubling_series,
)
from fsgentropy.limits import k_limit
from fsgentropy.seeding import OMEGA, POINT, substream
from fsgentropy.systems import (
    binary_shift_odometer,
    bowen_distance,
    circle_double_rotate,
    torus_affine,
)
from fsgentropy.words import sample_word, uniform_spec, word
from oracles import all_points, exact_bowen_ball

LOG2 = math.log(2.0)
HALF_LOG2 = LOG2 / 2.0


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. exact cylinder formula vs brute force over every word prefix


def test_cylinder_ball_formula_matches_brute_force_sweep():
    """Every word prefix of length <= 7, horizon k <= 8 and dyadic
    radius 2**-t with t <= 4: the closed-form cylinder equals the
    brute-force Bowen ball over all prefixes of depth t+k+2, as exact
    set equality, in under 60 s.

    The Bowen distance only reads the first k-1 word symbols, so the
    sweep computes each (k, prefix, t) class once and replays it for
    every longer word; a random 2% of the longer words are re-verified
    from scratch to pin that reduction down.
    """
    sys_ = binary_shift_odometer(depth=32)
    start = time.monotonic()
    rng = np.random.default_rng(20260810)

    def brute_ball(omega, k, t, x, pts):
        eps = 2.0**-t
        return frozenset(
            p.value for p in pts if bowen_distance(sys_, omega, k, x, p) <= eps
        )

    cache = {}
    checked = 0
    replays = 0
    for length in range(0, 8):
        for syms in itertools.product((1, 2), repeat=length):
            omega = word(syms, 2)
            for k in range(1, min(8, length + 1) + 1):
                for t in range(1, 5):
                    key = (k, syms[: k - 1], t)
                    depth = t + k + 2
                    if key not in cache:
                        pts = all_points(depth, pad=8)
                        x = pts[int(rng.integers(len(pts)))]
                        got = brute_ball(omega, k, t, x, pts)
                        cyl = exact_bowen_ball(omega, k, x, t)
                        want = frozenset(p.value for p in cyl.points(depth))
                        assert got == want, f"ball mismatch at {key}"
                        assert len(want) == 2 ** (depth - cyl.length)
                        cache[key] = (x, got)
                        checked += 1
                    elif rng.random() < 0.02:
                        x, expect = cache[key]
                        pts = all_points(depth, pad=8)
                        assert brute_ball(omega, k, t, x, pts) == expect
                        replays += 1
    elapsed = time.monotonic() - start
    _report(
        "exact cylinder ball oracle",
        elapsed < 60.0,
        f"{checked} word classes + {replays} replayed longer words, "
        f"all exact set matches, {elapsed:.1f}s (< 60s)",
    )


# ---------------------------------------------------------------------------
# 2. end-to-end reproduction of the worked shift+odometer value


def test_reproduce_example_command_recovers_half_log2(capsys):
    """The reproduce-paper-example pipeline slope-fits the exact
    series to log(2)/2 within 1e-9 and the sampled re-estimate to
    within 10%, in under 2 minutes."""
    start = time.monotonic()
    ok = reproduce_paper_example(seed=42)
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and "FAIL" not in out
    print(out, end="")
    _report(
        "worked-example reproduction",
        ok and elapsed < 120.0,
        f"all bounds met, {elapsed:.1f}s (< 120s)",
    )


# ---------------------------------------------------------------------------
# 3. order-q invariance on the homogeneous backend


def test_correlation_integral_order_invariance_on_homogeneous_system():
    """Constant Bowen-ball measures make the q-order correlation
    integral independent of q: values for q in {0, 1, 2, 5} must agree
    bit-for-bit per (radius, k) and slope-fit to log(2)/2 within
    1e-9."""
    sys_ = binary_shift_odometer(depth=64)
    em = ball_measure
    ks = list(range(2, 14))
    worst = 0.0
    for eps in (0.25, 0.125):
        per_q = {
            q: corr_entropy_series(em, sys_, [eps], ks, q, 4096, seed=3)[0]
            for q in (0.0, 1.0, 2.0, 5.0)
        }
        series = per_q[2.0]
        for q, s in per_q.items():
            assert s.rows == series.rows, f"q={q} differs from q=2 at eps={eps}"
        est = k_limit(series, method="slope-fit")
        worst = max(worst, abs(est.value - HALF_LOG2))
    _report(
        "q-invariance on homogeneous backend",
        worst <= 1e-9,
        f"bit-identical across q, slope-fit max |err| = {worst:.2e} (<= 1e-9)",
    )


# ---------------------------------------------------------------------------
# 4. orbit-limit convergence of the correlation sum


N_TRIALS = 100
TRIAL_N = 4000
TRIAL_K = 3
TRIAL_EPS = 3 * 2.0**-5  # non-dyadic, resolves cylinders of length 4


@pytest.fixture(scope="module")
def corr_sum_trials():
    sys_ = binary_shift_odometer(depth=TRIAL_N + TRIAL_K + 4 + 40)
    spec = uniform_spec(2)
    trials = []
    for seed in range(N_TRIALS):
        omega = sample_word(spec, TRIAL_K - 1, substream(seed, OMEGA))
        x = sys_.mu_sampler(substream(seed, POINT), 1)[0]
        target = 2.0 ** -(4 + s_count(omega, TRIAL_K))
        est = correlation_sum(
            sys_, x, TRIAL_EPS, omega, TRIAL_K, TRIAL_N, 64, seed=seed
        )
        trials.append((est, target))
    return trials


def test_correlation_sum_convergence_within_reported_errors(corr_sum_trials):
    """Orbit-limit convergence at face value: the estimate must sit
    within 3 reported standard errors of the exact integral
    2**-(4+s) for at least 95 of 100 seeds.

    This checks both halves of the estimate at once: the windowed
    off-diagonal value must carry no bias visible at the 1/n scale, and
    the block-jackknife standard error must cover the real seed-to-seed
    deviation from the orbit limit, not only the spread across driving
    words.
    """
    hits = 0
    zs = []
    for est, target in corr_sum_trials:
        dev = est.value - target
        if est.stderr > 0:
            zs.append(dev / est.stderr)
        hits += abs(dev) <= 3 * est.stderr
    detail = (
        f"{hits}/100 seeds within 3 reported SE (need >= 95); "
        f"z-shift median {np.median(zs):+.1f}, "
        f"deviation median {np.median([e.value - t for e, t in corr_sum_trials]):.2e}"
    )
    _report("correlation-sum convergence (3 SE literal)", hits >= 95, detail)


def test_correlation_sum_convergence_finite_orbit_envelope(corr_sum_trials):
    """The looser finite-orbit envelope at n = 4000: every estimate
    falls within 2/n + 3 SE of the exact integral; the median residual
    value - target is reported."""
    hits = 0
    residuals = []
    for est, target in corr_sum_trials:
        envelope = 2.0 / est.n + 3 * est.stderr
        hits += abs(est.value - target) <= envelope
        residuals.append(est.value - target)
    _report(
        "correlation-sum convergence (finite-orbit envelope)",
        hits == N_TRIALS,
        f"{hits}/100 within 2/n + 3 SE; residual "
        f"median {np.median(residuals):.1e}",
    )


# ---------------------------------------------------------------------------
# 5. randomised property suite


def test_property_suite_zero_violations():
    """Common-random-number monotonicity, bounds, prefix invariance
    and averaged horizon monotonicity: 100 instances per property,
    zero violations allowed."""
    failures = {
        name: check()
        for name, check in test_properties.ALL_PROPERTY_CHECKS.items()
    }
    bad = {name: seeds for name, seeds in failures.items() if seeds}
    _report(
        "randomised property suite",
        not bad,
        f"{len(failures)} properties x 100 instances, violations: {bad or 'none'}",
    )


# ---------------------------------------------------------------------------
# 6. power-system correspondence


def test_power_system_series_correspondence():
    """A 2-fold power horizon k spans base letters up to 2(k-1), so
    its exact series row is the base series row at horizon 2k-1 with
    the same correlation integral c, bit-for-bit; the sampled entropy
    ratio lands in [1.9, 2.1]."""
    t = 2
    power2, base = exact_series("corr", t, 16, power=2), exact_series("corr", t, 31)
    for k in range(1, 17):
        c = (t + (k - 1)) * LOG2  # the mean cylinder length t + s, times log 2
        assert power2.value_at(k) == c / k, f"power row broken at k={k}"
        assert base.value_at(2 * k - 1) == c / (2 * k - 1), f"base row broken at k={k}"
    cfg = ExperimentConfig(
        estimator="power-test",
        exact=False,
        epsilons=[0.25],
        ks=list(range(2, 8)),
        n_points=4096,
        m_omega=256,
        seed=20,
    )
    (row,) = run_experiment(cfg).rows
    _report(
        "power-system correspondence",
        1.9 <= row.value <= 2.1,
        f"exact rows bit-equal at matched horizons; sampled ratio {row.value:.3f}",
    )


# ---------------------------------------------------------------------------
# 7. coincidence of the three exact entropy series


def test_entropy_notions_coincide_on_binary_backend():
    """Topological, correlation (any q) and partition entropy series
    all slope-fit to the same limit within 1e-9."""
    fits = []
    for t in (2, 3):
        fits.append(k_limit(exact_series("top", t, 64)).value)
        for q in (0.0, 1.0, 2.0, 5.0):
            fits.append(k_limit(exact_series("corr", t, 64, q)).value)
    fits.append(k_limit(exact_series("measure", 1, 64)).value)
    spread = max(fits) - min(fits)
    err = max(abs(v - HALF_LOG2) for v in fits)
    _report(
        "entropy coincidence",
        spread <= 1e-9 and err <= 1e-9,
        f"{len(fits)} series limits within {spread:.2e} of each other, "
        f"max |err vs log2/2| = {err:.2e}",
    )


# ---------------------------------------------------------------------------
# 8. doubling diagnostic


def test_local_entropy_spread_report():
    """Non-gating diagnostic for the uniformity hypotheses behind the
    entropy coincidences: the spread of local-entropy limits across
    starting points and words.  Small spread is the signature of a
    homogeneous measure; the values are reported, only finiteness is
    asserted."""
    for make, depth in ((binary_shift_odometer, 64), (torus_affine, None)):
        sys_ = make(depth) if depth else make()
        em = EmpiricalMeasure.draw(sys_, 2048, seed=70)
        limits = []
        for trial in range(8):
            omega = sample_word(uniform_spec(sys_.m), 8, substream(70, trial))
            x = em.points[trial]
            from fsgentropy.estimators import local_entropy_series

            series = local_entropy_series(em, sys_, omega, x, [0.25], range(1, 9))[0]
            est = k_limit(series, method="tail-mean")
            assert math.isfinite(est.value)
            limits.append(est.value)
        spread = max(limits) - min(limits)
        print(
            f"  local-entropy spread (non-gating) {sys_.name}: "
            f"mean {np.mean(limits):.4f}, spread {spread:.4f} over 8 (word, center) pairs"
        )
    _report("local-entropy spread report", True, "reported above, non-gating")


def test_doubling_diagnostic():
    """Exact backend: the doubling log-term equals log(2)/k exactly
    and decays to zero.  Circle systems: values for k <= 12 are
    reported against the (log 4)/k envelope, non-gating."""
    sys_ = binary_shift_odometer(depth=64)
    em = ball_measure
    omega = sample_word(uniform_spec(2), 64, substream(8, 1))
    values = []
    for t in (2, 3, 4):
        vals = doubling_series(em, sys_, omega, [2.0**-t], list(range(1, 65)))[0].values
        assert all(v == LOG2 / k for k, v in zip(range(1, 65), vals))
        assert all(b < a for a, b in zip(vals, vals[1:]))
        values.append(vals[-1])
    ok = max(values) < 0.011

    for make in (circle_double_rotate, torus_affine):
        circle_sys = make()
        cem = EmpiricalMeasure.draw(circle_sys, 1024, 88)
        comega = sample_word(uniform_spec(circle_sys.m), 12, substream(8, 2))
        report = []
        (series,) = doubling_series(cem, circle_sys, comega, [0.05], list(range(1, 13)))
        for k, v in series.rows:
            assert math.isfinite(v)
            report.append(f"k={k}:{v:.3f}{'' if v <= math.log(4)/k else '!'}")
        print(f"  doubling report (non-gating) {circle_sys.name}: {' '.join(report)}")
    _report(
        "doubling diagnostic",
        ok,
        f"exact log-term equals log2/k bitwise, tail value {max(values):.4f} -> 0; "
        "circle reports printed above",
    )
