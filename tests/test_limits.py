"""Limit extraction from entropy series."""

import math

import pytest

from fsgentropy.binary import exact_series
from fsgentropy.errors import WindowTooSmall
from fsgentropy.limits import (
    TrendReport,
    epsilon_trend,
    k_limit,
    series_limit_summary,
)
from fsgentropy.series import EntropySeries

LOG2 = math.log(2.0)


def _series(rows, **kw):
    return EntropySeries(epsilon=0.25, rows=rows, **kw)


def test_constant_series_every_method():
    s = _series([(k, 1.7) for k in range(1, 11)])
    for method in ("tail-mean", "slope-fit"):
        est = k_limit(s, method=method)
        assert est.value == pytest.approx(1.7, abs=1e-12)
        assert est.method == method


def test_slope_fit_recovers_affine_intercept():
    # exact radius-2**-2 series has value = log2/2 + 1.5 * log2 / k
    s = exact_series("top", 2, 64)
    est = k_limit(s, window=(8, 64), method="slope-fit")
    assert abs(est.value - LOG2 / 2) <= 1e-9


def test_tail_mean_averages_out_alternating_noise():
    delta = 0.01
    rows = [(k, 1.0 + (delta if k % 2 else -delta)) for k in range(1, 13)]
    assert k_limit(_series(rows), method="tail-mean").value == pytest.approx(1.0, abs=1e-15)


def test_window_defaults_and_too_small():
    s = _series([(k, 1.0 / k) for k in range(1, 9)])
    est = k_limit(s)
    assert est.window == (5, 8)
    with pytest.raises(WindowTooSmall):
        k_limit(s, window=(7, 8))


def test_k_limit_ignores_rows_outside_window():
    rows = [(k, 0.3 + 1.0 / k) for k in range(4, 17)]
    base = k_limit(_series(rows), window=(8, 16), method="slope-fit")
    extended = k_limit(
        _series(rows + [(40, 123.0)]), window=(8, 16), method="slope-fit"
    )
    assert base == extended


def test_default_method_follows_series_mode():
    exact = exact_series("top", 2, 16)
    assert k_limit(exact).method == "slope-fit"
    noisy = _series([(k, 0.5) for k in range(1, 9)])
    assert k_limit(noisy).method == "tail-mean"


def test_epsilon_trend_converged():
    est = [(0.25, k_limit(_series([(k, 2.0) for k in range(1, 9)])))]
    est.append((0.125, k_limit(_series([(k, 2.0) for k in range(1, 9)]))))
    report = epsilon_trend(est)
    assert isinstance(report, TrendReport)
    assert report.flag == "converged"
    assert report.headline == 2.0


def test_epsilon_trend_orders_and_flags_increase():
    vals = {0.25: 1.0, 0.125: 1.1, 0.0625: 1.25}
    ests = [
        (eps, k_limit(_series([(k, v) for k in range(1, 9)])))
        for eps, v in vals.items()
    ]
    report = epsilon_trend(ests)
    assert report.per_epsilon[0][0] == 0.25
    assert report.flag == "not converged in epsilon (increasing)"
    assert report.headline == pytest.approx(1.25)


def test_epsilon_trend_exact_backend_is_radius_free():
    ests = []
    for t in (2, 3, 4):
        s = exact_series("top", t, 64)
        ests.append((2.0**-t, k_limit(s, window=(8, 64), method="slope-fit")))
    report = epsilon_trend(ests)
    assert report.flag == "converged"
    assert abs(report.headline - LOG2 / 2) <= 1e-9


def test_epsilon_trend_needs_two_radii():
    with pytest.raises(ValueError):
        epsilon_trend([(0.25, k_limit(_series([(k, 1.0) for k in range(1, 9)])))])


def test_series_limit_summary():
    series = [exact_series("top", t, 32) for t in (2, 3)]
    series[0].epsilon, series[1].epsilon = 0.25, 0.125
    per_eps, trend = series_limit_summary(series)
    assert len(per_eps) == 2
    assert trend is not None
