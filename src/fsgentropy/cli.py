"""Experiment runner and `entcli` command-line interface.

Configs are flat text files, one `key = value` per line, lists
comma-separated, `#` comments allowed.  Keys:

    system      binary-shift-odometer | circle-double-rotate | torus-affine
    estimator   corr-sum | corr-entropy | local-corr-entropy | top-entropy |
                local-entropy | doubling | exact-series | power-test
    epsilons    positive, strictly decreasing (e.g. 0.25,0.125)
    ks          strictly increasing Bowen horizons (e.g. 1,2,3,4)
    q           order of the correlation integral (default 2)
    n           orbit length for correlation sums (default 1000)
    m_upsilon   driving words per correlation sum (default 16)
    m_omega     sampled words for the outer average (default 64)
    n_points    empirical-measure sample size (default 1024)
    seed        master seed (default 42, recorded in every row)
    weights     symbol probabilities, e.g. 0.3,0.7 (default uniform)
    exact       true to use the closed-form binary backend measures
    series      exact-series flavour: top | corr | measure (default top)
    power       composition depth for power-test (default 2)
    depth       binary truncation depth override
    alpha       rotation angle for circle-double-rotate
    constants   affine constants for torus-affine
    out         output path (default stdout)
    format      csv | json (default csv)

Exit codes: 0 success, 2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys
from dataclasses import dataclass, field, fields

from . import binary, estimators, limits, systems
from .errors import (
    ConfigInvalid,
    EstimatorUnknown,
    FsgError,
    InvalidEpsilon,
    IoFailure,
    SystemUnknown,
)
from .seeding import OMEGA, POINT, substream
from .series import EntropySeries
from .words import BernoulliSpec, power_weights, sample_word, uniform_spec

ESTIMATORS = (
    "corr-sum",
    "corr-entropy",
    "local-corr-entropy",
    "top-entropy",
    "local-entropy",
    "doubling",
    "exact-series",
    "power-test",
)

CSV_HEADER = "estimator,epsilon,k,q,value,stderr,seed,flags"


@dataclass
class ExperimentConfig:
    system: str = "binary-shift-odometer"
    estimator: str = "corr-entropy"
    q: float = 2.0
    epsilons: list[float] = field(default_factory=lambda: [0.25, 0.125])
    ks: list[int] = field(default_factory=lambda: list(range(1, 9)))
    n: int = 1000
    m_upsilon: int = 16
    m_omega: int = 64
    n_points: int = 1024
    seed: int = 42
    weights: list[float] | None = None
    exact: bool = False
    series: str = "top"
    power: int = 2
    depth: int | None = None
    alpha: float | None = None
    constants: list[float] | None = None
    out: str | None = None
    format: str = "csv"

    def validate(self) -> None:
        if self.estimator not in ESTIMATORS:
            raise EstimatorUnknown(
                f"unknown estimator {self.estimator!r} (known: {', '.join(ESTIMATORS)})"
            )
        if not self.epsilons:
            raise ConfigInvalid("epsilons", "need at least one value")
        if any(e <= 0 for e in self.epsilons):
            raise ConfigInvalid("epsilons", "must be strictly positive")
        if any(b >= a for a, b in zip(self.epsilons, self.epsilons[1:])):
            raise ConfigInvalid("epsilons", "must be strictly decreasing")
        if not self.ks or any(k < 1 for k in self.ks):
            raise ConfigInvalid("ks", "must all be >= 1")
        if any(b <= a for a, b in zip(self.ks, self.ks[1:])):
            raise ConfigInvalid("ks", "must be strictly increasing")
        for name in ("n", "m_upsilon", "m_omega", "n_points", "power"):
            if getattr(self, name) < 1:
                raise ConfigInvalid(name, "must be >= 1")
        if not math.isfinite(self.q):
            raise ConfigInvalid("q", "must be finite")
        if self.format not in ("csv", "json"):
            raise ConfigInvalid("format", "must be csv or json")
        if self.series not in ("top", "corr", "measure"):
            raise ConfigInvalid("series", "must be top, corr or measure")
        if self.depth is not None and self.depth < 1:
            raise ConfigInvalid("depth", "must be >= 1")
        if self.weights is not None:
            try:
                BernoulliSpec(tuple(self.weights))
            except ValueError as exc:
                raise ConfigInvalid("weights", str(exc)) from None


_BOOL_KEYS = {"exact"}
_INT_KEYS = {"n", "m_upsilon", "m_omega", "n_points", "seed", "power", "depth"}
_FLOAT_KEYS = {"q", "alpha"}
_FLOAT_LIST_KEYS = {"epsilons", "constants", "weights"}
_INT_LIST_KEYS = {"ks"}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key=value config format into a validated config."""
    known = {f.name for f in fields(ExperimentConfig)}
    cfg = ExperimentConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalid(f"line {lineno}", f"expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in known:
            raise ConfigInvalid(key, "unknown key")
        try:
            if key in _BOOL_KEYS:
                if value.lower() not in ("true", "false", "0", "1"):
                    raise ValueError("expected true/false")
                parsed = value.lower() in ("true", "1")
            elif key in _INT_KEYS:
                parsed = int(value)
            elif key in _FLOAT_KEYS:
                parsed = float(value)
            elif key in _FLOAT_LIST_KEYS:
                parsed = [float(p) for p in value.split(",") if p.strip()]
            elif key in _INT_LIST_KEYS:
                parsed = [int(p) for p in value.split(",") if p.strip()]
            else:
                parsed = value
        except ValueError as exc:
            raise ConfigInvalid(key, f"cannot parse {value!r}: {exc}") from None
        setattr(cfg, key, parsed)
    cfg.validate()
    return cfg


@dataclass
class ResultRow:
    estimator: str
    epsilon: float
    k: int
    q: float | None
    value: float
    stderr: float
    seed: int
    flags: str = ""


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[ResultRow]
    summary: list[tuple[float, limits.LimitEstimate]]
    trend: limits.TrendReport | None


# ---------------------------------------------------------------------------
# System construction


def _resolution(eps_list) -> int:
    return binary.prefix_length_for(min(eps_list))


# Guard coordinates appended beyond what stage maps deterministically
# consume.  Each odometer application can only overflow on an all-ones
# prefix, so the failure odds per sampled point are ~2**-(spare depth);
# 40 spare bits keep even multi-million-application runs safe while the
# arithmetic cost stays negligible.
DEPTH_HEADROOM = 40


def _build_system(cfg: ExperimentConfig) -> systems.GeneratorSystem:
    params = {}
    if cfg.system == "binary-shift-odometer":
        if cfg.depth is not None:
            depth = cfg.depth
        else:
            horizon = max(cfg.ks) * (cfg.power if cfg.estimator == "power-test" else 1)
            depth = _resolution(cfg.epsilons) + horizon + DEPTH_HEADROOM
            if cfg.estimator in ("corr-sum", "local-corr-entropy"):
                depth += cfg.n
        params["depth"] = depth
    elif cfg.system == "circle-double-rotate":
        if cfg.alpha is not None:
            params["alpha"] = cfg.alpha
    elif cfg.system == "torus-affine":
        if cfg.constants is not None:
            params["constants"] = tuple(cfg.constants)
    return systems.make_system(cfg.system, **params)


def _measure(cfg: ExperimentConfig, sys_: systems.GeneratorSystem):
    if cfg.exact:
        if cfg.system != "binary-shift-odometer":
            raise ConfigInvalid("exact", "closed-form measures exist only for binary-shift-odometer")
        depth = cfg.depth or (_resolution(cfg.epsilons) + max(cfg.ks) + DEPTH_HEADROOM)
        return binary.ExactCylinderMeasure.draw(
            depth, min(cfg.n_points, 64), substream(cfg.seed, 0)
        )
    return estimators.EmpiricalMeasure.draw(sys_, cfg.n_points, cfg.seed)


def _dyadic_exponent(eps: float) -> int:
    t = binary.prefix_length_for(eps)
    if 2.0 ** (-t) != eps:
        raise ConfigInvalid("epsilons", f"{eps!r} is not a dyadic 2**-t radius")
    return t


def _weights(cfg: ExperimentConfig, sys_) -> BernoulliSpec:
    if cfg.weights is None:
        return uniform_spec(sys_.m)
    spec = BernoulliSpec(tuple(cfg.weights))
    if spec.m != sys_.m:
        raise ConfigInvalid(
            "weights", f"{spec.m} weights for a {sys_.m}-generator system"
        )
    return spec


def _sample_omega(cfg: ExperimentConfig, sys_, length: int):
    return sample_word(_weights(cfg, sys_), length, substream(cfg.seed, OMEGA))


# ---------------------------------------------------------------------------
# Estimator dispatch


def _series_to_rows(cfg, series_list, kind):
    rows = []
    for s in series_list:
        for i, (k, v) in enumerate(s.rows):
            se = s.stderrs[i] if s.stderrs is not None else 0.0
            fl = s.flags[i] if s.flags is not None else ""
            rows.append(ResultRow(kind, s.epsilon, k, s.q, v, se, cfg.seed, fl))
    return rows


def _run_corr_sum(cfg, sys_):
    x = sys_.mu_sampler(substream(cfg.seed, POINT))
    omega = _sample_omega(cfg, sys_, max(cfg.ks) - 1)
    series_list = []
    rows = []
    for eps in cfg.epsilons:
        per_k = []
        for k in cfg.ks:
            est = estimators.correlation_sum(
                sys_, x, eps, omega, k, cfg.n, cfg.m_upsilon, cfg.seed,
                weights=_weights(cfg, sys_),
            )
            rows.append(
                ResultRow("corr-sum", eps, k, None, est.value, est.stderr, cfg.seed)
            )
            per_k.append((k, est.value))
        series_list.append(EntropySeries(eps, per_k, kind="corr-sum"))
    summary, trend = _maybe_summary(series_list)
    return rows, summary, trend


def _maybe_summary(series_list, method=None):
    try:
        per_eps = [(s.epsilon, limits.k_limit(s, method=method)) for s in series_list]
    except FsgError:
        return [], None
    trend = None
    if len(per_eps) >= 2:
        trend = limits.epsilon_trend(per_eps)
    return per_eps, trend


def _run_corr_entropy(cfg, sys_):
    measure = _measure(cfg, sys_)
    series_list = estimators.corr_entropy_series(
        measure, sys_, cfg.epsilons, cfg.ks, cfg.q, cfg.m_omega, cfg.seed,
        weights=_weights(cfg, sys_),
    )
    method = "slope-fit" if cfg.exact else None
    summary, trend = _maybe_summary(series_list, method)
    return _series_to_rows(cfg, series_list, "corr-entropy"), summary, trend


def _run_local_corr_entropy(cfg, sys_):
    x = sys_.mu_sampler(substream(cfg.seed, POINT))
    series_list = estimators.local_corr_entropy_series(
        sys_, x, cfg.epsilons, cfg.ks, cfg.n, cfg.m_upsilon, cfg.m_omega, cfg.seed,
        weights=_weights(cfg, sys_),
    )
    summary, trend = _maybe_summary(series_list)
    return _series_to_rows(cfg, series_list, "local-corr-entropy"), summary, trend


def _run_top_entropy(cfg, sys_):
    if cfg.exact:
        series_list = []
        for eps in cfg.epsilons:
            t = _dyadic_exponent(eps)
            full = binary.exact_top_entropy_series(t, max(cfg.ks))
            picked = [(k, v) for k, v in full.rows if k in set(cfg.ks)]
            series_list.append(
                EntropySeries(eps, picked, kind=full.kind, meta=full.meta)
            )
        method = "slope-fit"
    else:
        series_list = estimators.top_entropy_series(
            sys_, cfg.epsilons, cfg.ks, cfg.m_omega, cfg.n_points, cfg.seed,
            weights=_weights(cfg, sys_),
        )
        method = None
    summary, trend = _maybe_summary(series_list, method)
    return _series_to_rows(cfg, series_list, "top-entropy"), summary, trend


def _run_local_entropy(cfg, sys_):
    measure = _measure(cfg, sys_)
    omega = _sample_omega(cfg, sys_, max(cfg.ks) - 1)
    x = measure.points[0]
    series_list = estimators.local_entropy_series(
        measure, sys_, omega, x, cfg.epsilons, cfg.ks
    )
    summary, trend = _maybe_summary(series_list)
    return _series_to_rows(cfg, series_list, "local-entropy"), summary, trend


def _run_doubling(cfg, sys_):
    measure = _measure(cfg, sys_)
    omega = _sample_omega(cfg, sys_, max(cfg.ks) - 1)
    series_list = []
    rows = []
    for eps in cfg.epsilons:
        per_k = []
        for k in cfg.ks:
            v = estimators.doubling_ratio(measure, sys_, omega, k, eps)
            rows.append(ResultRow("doubling", eps, k, None, v, 0.0, cfg.seed))
            per_k.append((k, v))
        series_list.append(EntropySeries(eps, per_k, kind="doubling"))
    summary, trend = _maybe_summary(series_list)
    return rows, summary, trend


def _run_exact_series(cfg, sys_):
    if cfg.system != "binary-shift-odometer":
        raise ConfigInvalid("estimator", "exact-series needs the binary backend")
    kmax = max(cfg.ks)
    wanted = set(cfg.ks)
    series_list = []
    if cfg.series == "measure":
        full = binary.exact_measure_entropy_series(kmax)
        picked = [(k, v) for k, v in full.rows if k in wanted]
        series_list.append(
            EntropySeries(0.0, picked, kind=full.kind, meta=full.meta)
        )
    else:
        for eps in cfg.epsilons:
            t = _dyadic_exponent(eps)
            if cfg.series == "top":
                full = binary.exact_top_entropy_series(t, kmax)
            else:
                full = binary.exact_corr_integral_series(t, kmax, cfg.q)
            picked = [(k, v) for k, v in full.rows if k in wanted]
            series_list.append(
                EntropySeries(eps, picked, kind=full.kind, q=full.q, meta=full.meta)
            )
    summary, trend = _maybe_summary(series_list, "slope-fit")
    return _series_to_rows(cfg, series_list, "exact-series"), summary, trend


def _run_power_test(cfg, sys_):
    """Ratio of the power-system entropy to the base entropy; the
    composition-depth scaling law predicts exactly the power."""
    eps = cfg.epsilons[0]
    if cfg.exact:
        t = _dyadic_exponent(eps)
        kmax = max(cfg.ks)
        base = limits.k_limit(binary.exact_corr_integral_series(t, kmax, cfg.q))
        powr = limits.k_limit(
            binary.exact_corr_integral_series(t, kmax, cfg.q, power=cfg.power)
        )
        ratio = powr.value / base.value
    else:
        # Matched base-letter horizons: a power-system horizon kp spans
        # power*(kp-1)+1 base letters, so the base series is fit out to
        # that horizon.  Horizons stay shallow enough that typical cell
        # measures remain well above the 1/N sample floor; kp runs to at
        # least 4, so the slope fit over 2..kp_max has the 3 rows it needs.
        measure = _measure(cfg, sys_)
        power_sys = systems.build_power_system(sys_, cfg.power)
        ks_base = [k for k in cfg.ks if k >= 2] or [2, 3, 4]
        kp_max = max(4, (max(ks_base) - 1) // cfg.power + 1)
        ks_power = list(range(2, kp_max + 1))
        ks_base = list(range(2, cfg.power * (kp_max - 1) + 2))
        base_weights = _weights(cfg, sys_)
        base_series = estimators.corr_entropy_series(
            measure, sys_, [eps], ks_base, cfg.q, cfg.m_omega, cfg.seed,
            weights=base_weights,
        )[0]
        power_series = estimators.corr_entropy_series(
            measure,
            power_sys,
            [eps],
            ks_power,
            cfg.q,
            cfg.m_omega,
            cfg.seed,
            weights=power_weights(base_weights, cfg.power),
        )[0]
        base = limits.k_limit(
            base_series, window=(ks_base[0], ks_base[-1]), method="slope-fit"
        )
        powr = limits.k_limit(
            power_series, window=(ks_power[0], ks_power[-1]), method="slope-fit"
        )
        ratio = powr.value / base.value
    row = ResultRow("power-test", eps, 0, cfg.q, ratio, 0.0, cfg.seed)
    return [row], [], None


_RUNNERS = {
    "corr-sum": _run_corr_sum,
    "corr-entropy": _run_corr_entropy,
    "local-corr-entropy": _run_local_corr_entropy,
    "top-entropy": _run_top_entropy,
    "local-entropy": _run_local_entropy,
    "doubling": _run_doubling,
    "exact-series": _run_exact_series,
    "power-test": _run_power_test,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Construct the system, dispatch the estimator, collect rows and
    per-radius limit summaries.  Identical (config, seed) give
    identical results."""
    cfg.validate()
    sys_ = _build_system(cfg)
    rows, summary, trend = _RUNNERS[cfg.estimator](cfg, sys_)
    for row in rows:
        if not math.isfinite(row.value) or not math.isfinite(row.stderr):
            raise FsgError(f"non-finite result row: {row}")
    return ExperimentResult(cfg, rows, summary, trend)


# ---------------------------------------------------------------------------
# Emission


def _row_to_csv(row: ResultRow) -> str:
    q = "" if row.q is None else repr(float(row.q))
    return ",".join(
        [
            row.estimator,
            repr(float(row.epsilon)),
            str(row.k),
            q,
            repr(float(row.value)),
            repr(float(row.stderr)),
            str(row.seed),
            row.flags.replace(",", ";"),
        ]
    )


def format_csv(rows: list[ResultRow]) -> str:
    return "\n".join([CSV_HEADER] + [_row_to_csv(r) for r in rows]) + "\n"


def parse_rows(text: str) -> list[ResultRow]:
    """Inverse of format_csv, for round-tripping emitted results."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise IoFailure("missing or unexpected CSV header")
    out = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 8:
            raise IoFailure(f"malformed row: {ln!r}")
        est, eps, k, q, value, stderr, seed, flags = parts
        out.append(
            ResultRow(
                est,
                float(eps),
                int(k),
                None if q == "" else float(q),
                float(value),
                float(stderr),
                int(seed),
                flags,
            )
        )
    return out


def _result_json(result: ExperimentResult) -> str:
    cfg = result.config
    payload = {
        "config": {f.name: getattr(cfg, f.name) for f in fields(cfg)},
        "rows": [
            {
                "estimator": r.estimator,
                "epsilon": r.epsilon,
                "k": r.k,
                "q": r.q,
                "value": r.value,
                "stderr": r.stderr,
                "seed": r.seed,
                "flags": r.flags,
            }
            for r in result.rows
        ],
        "summary": [
            {
                "epsilon": eps,
                "value": est.value,
                "window": list(est.window),
                "method": est.method,
            }
            for eps, est in result.summary
        ],
        "trend": None
        if result.trend is None
        else {
            "per_epsilon": [list(p) for p in result.trend.per_epsilon],
            "headline": result.trend.headline,
            "flag": result.trend.flag,
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def emit_results(result: ExperimentResult, path: str | None, fmt: str) -> str:
    """Serialise rows (+ config and summaries for JSON); write to path
    when given, return the text either way."""
    text = format_csv(result.rows) if fmt == "csv" else _result_json(result)
    if path is not None:
        try:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise IoFailure(f"cannot write {path!r}: {exc}") from exc
    return text


# ---------------------------------------------------------------------------
# Commands

LOG2 = math.log(2.0)


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=_sys.stderr)
        return 2
    cfg = parse_config(text)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out = args.out
    if args.format is not None:
        cfg.format = args.format
    if args.exact:
        cfg.exact = True
    cfg.validate()
    result = run_experiment(cfg)
    text = emit_results(result, cfg.out, cfg.format)
    if cfg.out is None:
        _sys.stdout.write(text)
    for eps, est in result.summary:
        print(
            f"# summary eps={eps!r}: value={est.value!r} "
            f"window={est.window} method={est.method}",
            file=_sys.stderr,
        )
    if result.trend is not None:
        print(
            f"# trend: headline={result.trend.headline!r} [{result.trend.flag}]",
            file=_sys.stderr,
        )
    return 0


def reproduce_paper_example(seed: int = 42, stream=None) -> bool:
    """End-to-end reproduction of the shift+odometer worked example.

    Exact mode evaluates the closed-form topological-entropy series at
    radii 1/4 and 1/8 out to horizon 64 and slope-fits the limit, which
    must hit (log 2)/2 to 1e-9.  Monte Carlo mode re-estimates it from
    4096 sampled points with sampled words and must land within 10%.
    """
    out = stream or _sys.stdout
    target = LOG2 / 2.0
    ok = True
    print(f"target: log(2)/2 = {target:.10f}", file=out)
    for t in (2, 3):
        series = binary.exact_top_entropy_series(t, 64)
        est = limits.k_limit(series, method="slope-fit")
        err = abs(est.value - target)
        good = err <= 1e-9
        ok &= good
        print(
            f"exact  eps=2^-{t}: slope-fit {est.value:.10f} "
            f"(|err|={err:.2e}) {'PASS' if good else 'FAIL'}",
            file=out,
        )
    sys_ = systems.binary_shift_odometer(depth=3 + 12 + DEPTH_HEADROOM)
    series_list = estimators.top_entropy_series(
        sys_,
        eps_list=[0.25, 0.125],
        k_list=list(range(2, 13)),
        m_omega=128,
        n_sample=4096,
        seed=seed,
    )
    for s in series_list:
        est = limits.k_limit(s, method="slope-fit")
        rel = abs(est.value - target) / target
        good = rel <= 0.10
        ok &= good
        print(
            f"sampled eps={s.epsilon}: slope-fit {est.value:.6f} "
            f"(rel err {100 * rel:.2f}%) {'PASS' if good else 'FAIL'}",
            file=out,
        )
    return ok


def _cmd_reproduce(args) -> int:
    return 0 if reproduce_paper_example(seed=args.seed if args.seed is not None else 42) else 3


def _cmd_list_systems(_args) -> int:
    for name in sorted(systems.BUILTIN_SYSTEMS):
        print(name)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="entcli",
        description="Entropy estimators for free semigroup actions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--out", default=None, help="output path (default stdout)")
    p_run.add_argument("--format", choices=("csv", "json"), default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--exact", action="store_true",
                       help="switch to closed-form backend measures")
    p_run.set_defaults(fn=_cmd_run)

    p_rep = sub.add_parser(
        "reproduce-paper-example",
        help="rebuild the shift+odometer log(2)/2 series exactly and by sampling",
    )
    p_rep.add_argument("--seed", type=int, default=None)
    p_rep.set_defaults(fn=_cmd_reproduce)

    p_ls = sub.add_parser("list-systems", help="print registered system names")
    p_ls.set_defaults(fn=_cmd_list_systems)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigInvalid, SystemUnknown, EstimatorUnknown, InvalidEpsilon) as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except FsgError as exc:
        print(f"runtime error: {exc}", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
