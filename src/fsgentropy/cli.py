"""Experiment runner and `entcli` command-line interface.

Configs are flat text files, one `key = value` per line, lists
comma-separated, `#` comments allowed.  Keys:

    system      binary-shift-odometer | circle-double-rotate | torus-affine
    estimator   corr-sum | corr-entropy | local-corr-entropy | top-entropy |
                local-entropy | doubling | exact-series | power-test
    epsilons    finite, positive, strictly decreasing (e.g. 0.25,0.125)
    ks          strictly increasing Bowen horizons (e.g. 1,2,3,4)
    q           order of the correlation integral (default 2)
    n           orbit length for correlation sums (default 1000)
    m_upsilon   driving words per correlation sum (default 16)
    m_omega     sampled words for the outer average (default 64)
    n_points    empirical-measure sample size (default 1024)
    seed        master seed, >= 0 (default 42, recorded in every row)
    weights     symbol probabilities, e.g. 0.3,0.7 (default uniform)
    exact       true to read the binary closed forms, ball_measure or its word
                averages exact_series, at any radius: no point is drawn, n_points
                is unused (not with corr-sum or local-corr-entropy)
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
from dataclasses import asdict, dataclass, field, fields, replace

from . import binary, estimators, limits, systems
from .errors import (
    AlphabetOverflow,
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
        if self.estimator not in _RUNNERS:
            raise EstimatorUnknown(
                f"unknown estimator {self.estimator!r} (known: {', '.join(_RUNNERS)})"
            )
        estimators._check_grids(self.epsilons, self.ks)
        for name in ("n", "m_upsilon", "m_omega", "n_points", "power"):
            if getattr(self, name) < 1:
                raise ConfigInvalid(name, "must be >= 1")
        if self.seed < 0:
            raise ConfigInvalid("seed", "must be >= 0")
        for name, values in (("q", [self.q]), ("alpha", [self.alpha or 0.0]),
                             ("constants", self.constants or [])):
            if not all(map(math.isfinite, values)):
                raise ConfigInvalid(name, "must be finite")
        if self.constants == []:
            raise ConfigInvalid("constants", "need at least one constant")
        if self.format not in ("csv", "json"):
            raise ConfigInvalid("format", "must be csv or json")
        if self.series not in binary.EXACT_FLAVOURS:
            raise ConfigInvalid("series", "must be top, corr or measure")
        need = _min_depth(self) if self.system == "binary-shift-odometer" else 1
        if self.depth is not None and self.depth < need:
            raise ConfigInvalid("depth", f"must be >= {need}, the coordinates this run reads"
                                f" (necessary, not sufficient: below {need + DEPTH_HEADROOM}, the"
                                " default, a carry may still run out of coordinates)")
        if self.weights is not None:
            try:
                BernoulliSpec(tuple(self.weights))
            except ValueError as exc:
                raise ConfigInvalid("weights", str(exc)) from None
        if self.exact and self.estimator in ("corr-sum", "local-corr-entropy"):
            raise ConfigInvalid("exact", f"{self.estimator} has no closed form")
        closed_form = self.exact or self.estimator == "exact-series"
        if closed_form and self.system != "binary-shift-odometer":
            raise ConfigInvalid("system", "closed forms exist only for binary-shift-odometer")


def _parse_bool(value: str) -> bool:
    if value.lower() not in ("true", "false", "0", "1"):
        raise ValueError("expected true/false")
    return value.lower() in ("true", "1")


# A key's parser, named by its ExperimentConfig annotation less " | None".
_PARSERS = {
    "str": str, "bool": _parse_bool, "int": int, "float": float,
    "list[int]": lambda value: [int(p) for p in value.split(",") if p.strip()],
    "list[float]": lambda value: [float(p) for p in value.split(",") if p.strip()],
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key=value config format into a validated config."""
    cfg = ExperimentConfig()
    parsers = {f.name: _PARSERS[f.type.removesuffix(" | None")] for f in fields(cfg)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalid(f"line {lineno}", f"expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in parsers:
            raise ConfigInvalid(key, "unknown key")
        try:
            parsed = parsers[key](value)
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


def _min_depth(cfg: ExperimentConfig) -> int:
    """The binary coordinates a run reads: the finest radius's resolution
    + the longest horizon (+ n for orbits); a power test counts power times
    that or the base letters its matched horizons read, whichever is more."""
    horizon = max(cfg.ks)
    if cfg.estimator == "power-test":
        horizon = max(horizon * cfg.power, _power_horizons(cfg.ks, cfg.power)[0][-1] - 1)
    depth = _resolution(cfg.epsilons) + horizon
    if cfg.estimator in ("corr-sum", "local-corr-entropy"):
        depth += cfg.n
    return depth


def _depth(cfg: ExperimentConfig) -> int:
    """Binary truncation depth: the override, else _min_depth + DEPTH_HEADROOM."""
    return cfg.depth if cfg.depth is not None else _min_depth(cfg) + DEPTH_HEADROOM


def _build_system(cfg: ExperimentConfig) -> systems.GeneratorSystem:
    params = {}
    if cfg.system == "binary-shift-odometer":
        params["depth"] = _depth(cfg)
    elif cfg.system == "circle-double-rotate":
        if cfg.alpha is not None:
            params["alpha"] = cfg.alpha
    elif cfg.system == "torus-affine":
        if cfg.constants is not None:
            params["constants"] = tuple(cfg.constants)
    return systems.make_system(cfg.system, **params)


def _measure(cfg: ExperimentConfig, sys_: systems.GeneratorSystem):
    if cfg.exact:
        return binary.ball_measure
    return estimators.EmpiricalMeasure.draw(sys_, cfg.n_points, cfg.seed)


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
# Estimator dispatch: every runner returns its EntropySeries


def _run_corr_sum(cfg, sys_):
    x = sys_.mu_sampler(substream(cfg.seed, POINT), 1)[0]
    omega = _sample_omega(cfg, sys_, max(cfg.ks) - 1)
    weights = _weights(cfg, sys_)
    out = []
    for eps in cfg.epsilons:
        ests = [
            estimators.correlation_sum(
                sys_, x, eps, omega, k, cfg.n, cfg.m_upsilon, cfg.seed, weights=weights
            )
            for k in cfg.ks
        ]
        rows = [(k, est.value) for k, est in zip(cfg.ks, ests)]
        out.append(EntropySeries(eps, rows, stderrs=[e.stderr for e in ests]))
    return out


def _run_corr_entropy(cfg, sys_):
    if cfg.exact:
        return _closed_form_series(cfg, sys_, "corr")
    return estimators.corr_entropy_series(
        _measure(cfg, sys_), sys_, cfg.epsilons, cfg.ks, cfg.q, cfg.m_omega, cfg.seed,
        weights=_weights(cfg, sys_),
    )


def _run_local_corr_entropy(cfg, sys_):
    x = sys_.mu_sampler(substream(cfg.seed, POINT), 1)[0]
    return estimators.local_corr_entropy_series(
        sys_, x, cfg.epsilons, cfg.ks, cfg.n, cfg.m_upsilon, cfg.m_omega, cfg.seed,
        weights=_weights(cfg, sys_),
    )


def _closed_form_series(cfg, sys_, flavour: str) -> list[EntropySeries]:
    """The closed-form binary series of one flavour (top | corr |
    measure) at the config's shift weight, one per radius (the measure
    flavour: one, epsilon 0.0, for the first-coordinate partition), cut
    to cfg.ks."""
    radii = ([(0.0, 1)] if flavour == "measure"
             else [(eps, binary.prefix_length_for(eps)) for eps in cfg.epsilons])
    shift, wanted = _weights(cfg, sys_).weights[0], set(cfg.ks)
    series = [binary.exact_series(flavour, t, max(cfg.ks), cfg.q, 1, shift) for _, t in radii]
    return [
        replace(s, epsilon=eps, rows=[(k, v) for k, v in s.rows if k in wanted])
        for (eps, _), s in zip(radii, series)
    ]


def _run_top_entropy(cfg, sys_):
    if cfg.exact:
        return _closed_form_series(cfg, sys_, "top")
    return estimators.top_entropy_series(
        _measure(cfg, sys_), sys_, cfg.epsilons, cfg.ks, cfg.m_omega, cfg.seed,
        weights=_weights(cfg, sys_),
    )


def _run_local_entropy(cfg, sys_):
    measure = _measure(cfg, sys_)
    omega = _sample_omega(cfg, sys_, max(cfg.ks) - 1)
    center = None if cfg.exact else measure.points[0]
    return estimators.local_entropy_series(measure, sys_, omega, center, cfg.epsilons, cfg.ks)


def _run_doubling(cfg, sys_):
    omega = _sample_omega(cfg, sys_, max(cfg.ks) - 1)
    return estimators.doubling_series(_measure(cfg, sys_), sys_, omega, cfg.epsilons, cfg.ks)


def _run_exact_series(cfg, sys_):
    return _closed_form_series(cfg, sys_, cfg.series)


def _power_horizons(ks, power: int) -> tuple[list[int], list[int]]:
    """The base and power-system horizons of a sampled power test: a
    power horizon kp spans power*(kp-1)+1 base letters, the base series's
    horizon.  kp stays shallow, so that cell measures stay well above the
    1/N sample floor, and runs to at least 4, so the slope fit over
    2..kp_max has the 3 rows it needs."""
    kp_max = max(4, (max(ks) - 1) // power + 1)
    return list(range(2, power * (kp_max - 1) + 2)), list(range(2, kp_max + 1))


def _run_power_test(cfg, sys_):
    """One row (0, ratio): the power-system entropy over the base
    entropy, which the composition-depth scaling law predicts to be
    exactly the power."""
    eps = cfg.epsilons[0]
    if cfg.exact:
        t = binary.prefix_length_for(eps)
        # horizons run to at least 5, so the default window (the upper
        # half) holds the 3 rows a slope fit needs, as in the branch below
        kmax, shift = max(5, max(cfg.ks)), _weights(cfg, sys_).weights[0]
        base, powr = (
            limits.k_limit(binary.exact_series("corr", t, kmax, cfg.q, p, shift))
            for p in (1, cfg.power)
        )
    else:
        measure = _measure(cfg, sys_)
        power_sys = systems.build_power_system(sys_, cfg.power)
        ks_base, ks_power = _power_horizons(cfg.ks, cfg.power)
        base_weights = _weights(cfg, sys_)
        base, powr = (
            limits.k_limit(
                estimators.corr_entropy_series(
                    measure, s, [eps], ks, cfg.q, cfg.m_omega, cfg.seed, weights=w
                )[0],
                window=(ks[0], ks[-1]),
                method="slope-fit",
            )
            for s, ks, w in (
                (sys_, ks_base, base_weights),
                (power_sys, ks_power, power_weights(base_weights, cfg.power)),
            )
        )
    if base.value == 0.0:
        raise FsgError(f"power-test base limit is 0 at epsilon {eps!r}: no ratio")
    ratio = powr.value / base.value
    if not math.isfinite(ratio):
        raise FsgError(f"non-finite power-test ratio {ratio!r}")
    return [EntropySeries(eps, [(0, ratio)], q=cfg.q)]


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
    """Construct the system, run the estimator, and turn its series
    into rows and per-radius limit summaries.  Identical (config, seed)
    give identical results."""
    cfg.validate()
    sys_ = _build_system(cfg)
    series_list = _RUNNERS[cfg.estimator](cfg, sys_)
    rows = [
        ResultRow(
            cfg.estimator, s.epsilon, k, s.q, v,
            0.0 if s.stderrs is None else s.stderrs[i], cfg.seed,
            "" if s.flags is None else s.flags[i],
        )
        for s in series_list
        for i, (k, v) in enumerate(s.rows)
    ]
    for row in rows:
        if not math.isfinite(row.value) or not math.isfinite(row.stderr):
            raise FsgError(f"non-finite result row: {row}")
    try:  # exact series get a slope-fit
        summary, trend = limits.series_limit_summary(series_list)
    except FsgError:  # too few rows for a limit: no summary
        summary, trend = [], None
    return ExperimentResult(cfg, rows, summary, trend)


# ---------------------------------------------------------------------------
# Emission


def _row_to_csv(row: ResultRow) -> str:
    q = "" if row.q is None else repr(float(row.q))
    return ",".join([
        row.estimator, repr(float(row.epsilon)), str(row.k), q, repr(float(row.value)),
        repr(float(row.stderr)), str(row.seed), row.flags.replace(",", ";"),
    ])


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
        out.append(ResultRow(
            est, float(eps), int(k), None if q == "" else float(q), float(value),
            float(stderr), int(seed), flags,
        ))
    return out


def _result_json(result: ExperimentResult) -> str:
    payload = {
        "config": asdict(result.config),
        "rows": [asdict(r) for r in result.rows],
        "summary": [{"epsilon": eps, **asdict(est)} for eps, est in result.summary],
        "trend": None if result.trend is None else asdict(result.trend),
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


def reproduce_paper_example(seed: int = 42) -> bool:
    """End-to-end reproduction of the shift+odometer worked example,
    reported on stdout.

    Exact mode evaluates the closed-form topological-entropy series at
    radii 1/4 and 1/8 out to horizon 64 and slope-fits the limit, which
    must hit (log 2)/2 to 1e-9.  Monte Carlo mode re-estimates it from
    4096 sampled points with sampled words and must land within 10%.
    """
    cfg = ExperimentConfig(
        estimator="top-entropy", epsilons=[0.25, 0.125], ks=list(range(2, 13)),
        m_omega=128, n_points=4096, seed=seed,
    )
    cfg.validate()
    target = binary.LOG2 / 2.0
    ok = True
    print(f"target: log(2)/2 = {target:.10f}")
    for t in (2, 3):
        series = binary.exact_series("top", t, 64)
        est = limits.k_limit(series, method="slope-fit")
        err = abs(est.value - target)
        good = err <= 1e-9
        ok &= good
        print(
            f"exact  eps=2^-{t}: slope-fit {est.value:.10f} "
            f"(|err|={err:.2e}) {'PASS' if good else 'FAIL'}"
        )
    for s in _run_top_entropy(cfg, _build_system(cfg)):
        est = limits.k_limit(s, method="slope-fit")
        rel = abs(est.value - target) / target
        good = rel <= 0.10
        ok &= good
        print(
            f"sampled eps={s.epsilon}: slope-fit {est.value:.6f} "
            f"(rel err {100 * rel:.2f}%) {'PASS' if good else 'FAIL'}"
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
    # AlphabetOverflow: within a run only the config's power can raise it
    except (ConfigInvalid, SystemUnknown, EstimatorUnknown, InvalidEpsilon,
            AlphabetOverflow) as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except FsgError as exc:
        print(f"runtime error: {exc}", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
