"""Turn entropy series into scalar estimates.

The k-limit of a series is approximated on a finite window by one of
two methods: tail-mean (the mean of the window's rows, for sampled
series) and slope-fit, which regresses k * value against k and reports
the slope.
Series whose rows are exactly affine in 1/k (value = L + c/k, the shape
every closed-form series here has) are recovered by slope-fit up to
rounding, because k * value = L * k + c is an exact line.

The outer shrinking-radius limit is only reported, never extrapolated:
the trend across the provided radii plus the value at the smallest one
is the headline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import WindowTooSmall
from .series import EntropySeries

METHODS = ("tail-mean", "slope-fit")


@dataclass(frozen=True)
class LimitEstimate:
    value: float
    window: tuple[int, int]
    method: str


def default_window(series: EntropySeries) -> tuple[int, int]:
    """Upper half of the available k values."""
    ks = series.ks
    return ks[len(ks) // 2], ks[-1]


def default_method(series: EntropySeries) -> str:
    """Slope-fit for exact closed-form series, tail-mean for sampled
    ones."""
    return "slope-fit" if series.exact else "tail-mean"


def k_limit(
    series: EntropySeries,
    window: tuple[int, int] | None = None,
    method: str | None = None,
) -> LimitEstimate:
    """Finite-window surrogate for the large-k limit of a series."""
    if window is None:
        window = default_window(series)
    if method is None:
        method = default_method(series)
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    lo, hi = window
    pairs = [(k, v) for k, v in series.rows if lo <= k <= hi]
    if len(pairs) < 3:
        raise WindowTooSmall(
            f"window {window} holds {len(pairs)} rows, need at least 3"
        )
    ks = np.array([k for k, _ in pairs], dtype=float)
    vals = np.array([v for _, v in pairs], dtype=float)
    if method == "tail-mean":
        value = float(vals.mean())
    else:
        slope, _ = np.polyfit(ks, ks * vals, 1)
        value = float(slope)
    return LimitEstimate(value, (lo, hi), method)


@dataclass(frozen=True)
class TrendReport:
    """Per-radius limit values plus a qualitative shrinking-eps flag."""

    per_epsilon: tuple[tuple[float, float], ...]  # (eps, value), eps decreasing
    headline: float
    flag: str


def epsilon_trend(estimates: list[tuple[float, LimitEstimate]]) -> TrendReport:
    """Summarise limit values across shrinking radii.

    The headline is the value at the smallest radius; the flag says
    whether the values already agree ("converged": they span at most
    1e-9 times the largest of 1 and their magnitudes) or are still
    moving monotonically as the radius shrinks.  No extrapolation.
    """
    if len(estimates) < 2:
        raise ValueError("need limit estimates at >= 2 radii")
    ordered = sorted(estimates, key=lambda p: -p[0])
    eps_vals = tuple((eps, est.value) for eps, est in ordered)
    values = [v for _, v in eps_vals]
    headline = values[-1]
    scale = max(1.0, max(abs(v) for v in values))
    if max(values) - min(values) <= 1e-9 * scale:
        flag = "converged"
    elif all(b > a for a, b in zip(values, values[1:])):
        flag = "not converged in epsilon (increasing)"
    elif all(b < a for a, b in zip(values, values[1:])):
        flag = "not converged in epsilon (decreasing)"
    else:
        flag = "mixed"
    return TrendReport(eps_vals, headline, flag)


def series_limit_summary(
    series_list: list[EntropySeries],
) -> tuple[list[tuple[float, LimitEstimate]], TrendReport | None]:
    """k-limit per series, on its default window and method, plus the
    trend report when there are >= 2."""
    per_eps = [(s.epsilon, k_limit(s)) for s in series_list]
    trend = epsilon_trend(per_eps) if len(per_eps) >= 2 else None
    return per_eps, trend
