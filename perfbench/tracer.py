"""Outside-in tracing of the fsgentropy layers.

The tracer swaps public functions of the package for wrappers while one
workload runs and puts the originals back afterwards; nothing under
`src/` is edited.  A function is wrapped wherever the package binds it
(`from .words import sample_word` makes a second binding), so every
caller goes through the wrapper.  Systems capture their maps when they
are built, so wrappers must be installed before the workload builds its
system.

* Leaf calls (binary point operations, array kernels, word sampling,
  seeding) run millions of times.  Each is aggregated into a call count
  and summed time instead of being recorded, so trace memory stays
  bounded.
* Coarse boundaries (CLI steps, estimator entry points, the limit fit)
  are recorded as spans with parent ids.  A span's self time is its
  duration minus its child spans and minus the leaf time spent directly
  under it.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import defaultdict

# Span record layout: a list, so the hot leaf wrappers can add to EXCL.
ID, PARENT, NAME, START, END, EXCL = range(6)

BINARY_LEAVES = ("drop_head", "add_one", "ball_key", "random_point")
LEAVES = tuple(f"binary.{f}" for f in BINARY_LEAVES) + (
    "systems.array_ops.within",
    "systems.array_ops.apply",
    "words.sample_word",
    "seeding.substream",
)
ESTIMATOR_ENTRIES = ("correlation_sum", "top_entropy_series", "ball_measures", "omega_words")

# Every per-layer metric: (name, unit, better, what it should move).
PER_LAYER = (
    [
        (f"binary.{f}.{m}", unit, "lower",
         "wall_s, point_stages_per_s on binary-top-entropy and binary-corr-sum;"
         " zero calls on circle-corr-entropy"
         + ("; setup_s" if f == "random_point" else ""))
        for f in BINARY_LEAVES for m, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("binary.errors_raised", "count", "lower",
         "DepthExhausted/CarryOverflow raised by binary leaves; 0 on every workload"),
        ("estimators.self_s", "s", "lower",
         "wall_s on both binary workloads (key tuples, Counter, greedy net, orbit lists)"),
    ]
    + [
        (f"estimators.{f}.{m}", unit, "lower", "wall_s on the workloads that call it")
        for f in ESTIMATOR_ENTRIES for m, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("estimators.cells", "count", "lower",
         "(eps, k, word) cells evaluated; definitional work, predict no change"),
        ("estimators.cells_exhaustive", "count", "lower",
         "cells of exhaustive word averages; predict no change"),
        ("estimators.cells_mc", "count", "lower",
         "cells of Monte Carlo words, corr-sum driving words included; predict no change"),
        ("estimators.EmpiricalMeasure.draw.s", "s", "lower", "setup_s on circle-corr-entropy"),
    ]
    + [
        (f"systems.array_ops.within.{m}", unit, better,
         "wall_s, peak_rss_mib on circle-corr-entropy only")
        for m, unit, better in (
            ("calls", "count", "lower"),
            ("self_s", "s", "lower"),
            ("pairs", "count", "lower"),
            ("hit_ratio", "ratio", "higher"),
            ("bytes_computed", "bytes", "lower"),
        )
    ]
    + [
        (f"systems.array_ops.apply.{m}", unit, "lower", "wall_s on circle-corr-entropy only")
        for m, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        (f"{f}.{m}", unit, "lower", "wall_s on binary-corr-sum; nearly nothing elsewhere")
        for f in ("words.sample_word", "seeding.substream")
        for m, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        (f"limits.k_limit.{m}", unit, "lower", "control: predict no change")
        for m, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("cli.run_experiment.self_s", "s", "lower", "control: predict no change"),
        ("cli.emit_results.s", "s", "lower", "control: predict no change"),
        ("trace.overhead_frac", "ratio", "lower", "control: predict no change"),
    ]
)


class Patcher:
    """Replaces attributes of package modules and classes, and restores
    the originals."""

    def __init__(self):
        self._patches = []  # (owner, attr, original)

    def patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def rebind(self, fn, wrapper) -> None:
        """Patch every binding of `fn` in the loaded package modules."""
        for name, mod in list(sys.modules.items()):
            if name == "fsgentropy" or name.startswith("fsgentropy."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self.patch(mod, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched(self) -> list:
        return list(self._patches)


class SetupBoundary(Patcher):
    """Records the clock at the first call into a counting entry point
    (the end of set-up), then removes its own wrappers."""

    def __init__(self, fg, clock=time.monotonic):
        super().__init__()
        self.at = None
        em = fg.estimators.EmpiricalMeasure
        for fn in (fg.estimators.omega_words, fg.estimators.correlation_sum):
            self.rebind(fn, self._wrap(fn, clock))
        self.patch(em, "ball_measures", self._wrap(em.ball_measures, clock))

    def _wrap(self, fn, clock):
        def wrapper(*args, **kwargs):
            if self.at is None:
                self.at = clock()
                self.restore()
            return fn(*args, **kwargs)

        return wrapper


class Tracer(Patcher):
    """Spans at the coarse boundaries plus aggregated leaf counters."""

    def __init__(self, fg, clock=time.perf_counter):
        super().__init__()
        self.fg = fg
        self.clock = clock
        root = [0, -1, "workload", clock(), None, 0.0]
        self.spans = [root]
        self._stack = [root]
        self.leaves = {name: [0, 0.0, 0] for name in LEAVES}  # calls, seconds, errors
        self.cells = {"exhaustive": 0, "mc": 0}
        self.within = {"pairs": 0, "hits": 0, "bytes": 0}

    # -- wrappers ---------------------------------------------------------

    def _leaf(self, name, fn, count=None):
        agg = self.leaves[name]
        stack = self._stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            t = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                agg[2] += 1
                raise
            finally:
                dt = clock() - t
                agg[0] += 1
                agg[1] += dt
                stack[-1][EXCL] += dt
            if count is not None:
                t = clock()
                count(args, result)
                stack[-1][EXCL] += clock() - t
            return result

        return wrapper

    def _span(self, name, fn, count=None):
        spans = self.spans
        stack = self._stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1][ID], name, clock(), None, 0.0]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                t = clock()
                count(args, kwargs, result)
                stack[-1][EXCL] += clock() - t
            return result

        return wrapper

    def _count_words(self, args, kwargs, result):
        m, k, _weights, m_omega = args[:4]
        kind = "exhaustive" if self.fg.estimators.exhaustive_omega(m, k, m_omega) else "mc"
        self.cells[kind] += len(result)

    def _count_driving_words(self, args, kwargs, result):
        self.cells["mc"] += result.m_upsilon

    def _count_within(self, args, result):
        a, b = args[0], args[1]
        self.within["pairs"] += len(a) * len(b)
        self.within["hits"] += int(result.sum())
        self.within["bytes"] += a.nbytes + b.nbytes + result.nbytes

    def _wrap_system(self, make_system):
        ArrayOps = self.fg.systems.ArrayOps

        def wrapper(*args, **kwargs):
            sys_ = make_system(*args, **kwargs)
            ops = sys_.array_ops
            if ops is None:
                return sys_
            return dataclasses.replace(sys_, array_ops=ArrayOps(
                ops.to_array,
                self._leaf("systems.array_ops.apply", ops.apply),
                self._leaf("systems.array_ops.within", ops.within, self._count_within),
            ))

        return wrapper

    # -- install / remove -------------------------------------------------

    def install(self) -> None:
        fg = self.fg
        for f in BINARY_LEAVES:
            fn = getattr(fg.binary, f)
            self.rebind(fn, self._leaf(f"binary.{f}", fn))
        self.rebind(fg.words.sample_word, self._leaf("words.sample_word", fg.words.sample_word))
        self.rebind(fg.seeding.substream, self._leaf("seeding.substream", fg.seeding.substream))
        self.rebind(fg.systems.make_system, self._wrap_system(fg.systems.make_system))
        est = fg.estimators
        counters = {"omega_words": self._count_words, "correlation_sum": self._count_driving_words}
        for f in ("correlation_sum", "corr_entropy_series", "top_entropy_series", "omega_words"):
            fn = getattr(est, f)
            self.rebind(fn, self._span(f"estimators.{f}", fn, counters.get(f)))
        em = est.EmpiricalMeasure
        self.patch(em, "ball_measures", self._span("estimators.ball_measures", em.ball_measures))
        draw = vars(em)["draw"].__func__
        self.patch(em, "draw", classmethod(self._span("estimators.EmpiricalMeasure.draw", draw)))
        self.rebind(fg.limits.k_limit, self._span("limits.k_limit", fg.limits.k_limit))
        for f in ("run_experiment", "emit_results"):
            fn = getattr(fg.cli, f)
            self.rebind(fn, self._span(f"cli.{f}", fn))

    def finish(self) -> None:
        """Close the root span and put every original back."""
        self.spans[0][END] = self.clock()
        self.restore()

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, indexed by span id."""
        children = defaultdict(float)
        for s in self.spans[1:]:
            children[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - children[s[ID]] - s[EXCL] for s in self.spans]

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_frac, which needs
        an untraced run to compare with."""
        own = self.self_times()
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for s, own_s in zip(self.spans, own):
            calls[s[NAME]] += 1
            self_s[s[NAME]] += own_s
            total_s[s[NAME]] += s[END] - s[START]
        out = {}
        for name, (n, seconds, _errors) in self.leaves.items():
            out[f"{name}.calls"] = n
            out[f"{name}.self_s"] = seconds
        out["binary.errors_raised"] = sum(
            self.leaves[f"binary.{f}"][2] for f in BINARY_LEAVES
        )
        out["estimators.self_s"] = sum(
            v for name, v in self_s.items() if name.startswith("estimators.")
        )
        for f in ESTIMATOR_ENTRIES:
            out[f"estimators.{f}.calls"] = calls[f"estimators.{f}"]
            out[f"estimators.{f}.self_s"] = self_s[f"estimators.{f}"]
        out["estimators.cells"] = self.cells["exhaustive"] + self.cells["mc"]
        out["estimators.cells_exhaustive"] = self.cells["exhaustive"]
        out["estimators.cells_mc"] = self.cells["mc"]
        out["estimators.EmpiricalMeasure.draw.s"] = total_s["estimators.EmpiricalMeasure.draw"]
        pairs = self.within["pairs"]
        out["systems.array_ops.within.pairs"] = pairs
        out["systems.array_ops.within.hit_ratio"] = self.within["hits"] / pairs if pairs else 0.0
        out["systems.array_ops.within.bytes_computed"] = self.within["bytes"]
        out["limits.k_limit.calls"] = calls["limits.k_limit"]
        out["limits.k_limit.self_s"] = self_s["limits.k_limit"]
        out["cli.run_experiment.self_s"] = self_s["cli.run_experiment"]
        out["cli.emit_results.s"] = total_s["cli.emit_results"]
        return out
