"""Per-(epsilon, k) series of entropy integrand values.

An EntropySeries is the common currency between the estimators, the
closed-form backend and the limit extraction: one threshold epsilon,
one row (k, value) per Bowen horizon, optional standard errors and
per-row flags, and whether the rows are exact (closed-form ball
measures), which picks the limit method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class EntropySeries:
    epsilon: float
    rows: list[tuple[int, float]]
    q: float | None = None
    stderrs: list[float] | None = None
    flags: list[str] | None = None
    exact: bool = False

    def __post_init__(self):
        ks = [k for k, _ in self.rows]
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError(f"k values must be strictly increasing, got {ks}")
        for k, v in self.rows:
            if not math.isfinite(v):
                raise ValueError(f"non-finite value {v!r} at k={k}")
        if self.stderrs is not None and len(self.stderrs) != len(self.rows):
            raise ValueError("stderrs must align with rows")
        if self.flags is not None and len(self.flags) != len(self.rows):
            raise ValueError("flags must align with rows")

    @property
    def ks(self) -> list[int]:
        return [k for k, _ in self.rows]

    @property
    def values(self) -> list[float]:
        return [v for _, v in self.rows]

    def value_at(self, k: int) -> float:
        for kk, v in self.rows:
            if kk == k:
                return v
        raise KeyError(k)
