"""Workload table, definitional work and output checks.

Each workload is one `entcli run` config under `configs/`; the seed is
passed on the command line.  Everything here runs outside the timed
region and uses only the package's public functions.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
WORKLOADS = ("binary-top-entropy", "binary-corr-sum", "circle-corr-entropy")
TARGET = math.log(2.0) / 2.0

# Points of the circle sample on which the dense path is compared with
# the generic pairwise oracle.  The oracle is O(M^2 k) pure Python.
ORACLE_POINTS = 96


def config_path(name: str) -> Path:
    return CONFIG_DIR / f"{name}.cfg"


def read_params(path: Path) -> dict[str, str]:
    """The raw `key = value` pairs of a workload config."""
    params = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            params[key.strip()] = value.strip()
    return params


def _floats(text: str) -> list[float]:
    return [float(p) for p in text.split(",")]


def _ints(text: str) -> list[int]:
    return [int(p) for p in text.split(",")]


def definitional_work(params: dict[str, str], m: int, exhaustive_omega) -> int:
    """Sum over every (eps, k, word) cell of points x k.

    For corr-sum the words of a cell are the m_upsilon driving words and
    the points are the n orbit points.  Otherwise the words are the outer
    average's: all m**(k-1) prefixes when `exhaustive_omega(m, k,
    m_omega)` holds, else m_omega samples, each over n_points points.
    The count follows from the parameters alone, so an algorithm that
    skips work still gets credit for it.
    """
    eps_list = _floats(params["epsilons"])
    ks = _ints(params["ks"])
    if params["estimator"] == "corr-sum":
        per_eps = sum(int(params["m_upsilon"]) * int(params["n"]) * k for k in ks)
    else:
        m_omega = int(params["m_omega"])
        n_points = int(params["n_points"])
        per_eps = sum(
            (m ** (k - 1) if exhaustive_omega(m, k, m_omega) else m_omega) * n_points * k
            for k in ks
        )
    return len(eps_list) * per_eps


@dataclasses.dataclass(frozen=True)
class CheckResult:
    ok: bool
    detail: str
    rel_err: float | None  # None when the output could not be checked


def _slope_fit_rel_err(fg, rows, eps: float) -> float:
    picked = [(r.k, r.value) for r in rows if r.epsilon == eps]
    series = fg.series.EntropySeries(eps, picked)
    est = fg.limits.k_limit(series, method="slope-fit")
    return abs(est.value - TARGET) / TARGET


def check_top_entropy(fg, params, rows, seed) -> CheckResult:
    """The pass rule of `entcli reproduce-paper-example`: the slope-fit
    limit at every radius lies within 10% of log(2)/2."""
    eps_list = _floats(params["epsilons"])
    rels = [_slope_fit_rel_err(fg, rows, eps) for eps in eps_list]
    lines = [
        f"sampled eps={eps}: rel err {100 * r:.2f}% {'PASS' if r <= 0.10 else 'FAIL'}"
        for eps, r in zip(eps_list, rels)
    ]
    expected = len(eps_list) * len(_ints(params["ks"]))
    ok = len(rows) == expected and all(r <= 0.10 for r in rels)
    return CheckResult(ok, "; ".join(lines) + f"; {len(rows)}/{expected} rows", rels[-1])


def check_corr_sum(fg, params, rows, seed) -> CheckResult:
    """Every row lies within 2/n + 3 stderr of the exact integral
    2**-(L(eps) + s(omega, k)), omega being the word the CLI samples."""
    ks = _ints(params["ks"])
    n = int(params["n"])
    omega = fg.words.sample_word(
        fg.words.uniform_spec(2), max(ks) - 1,
        fg.seeding.substream(seed, fg.seeding.OMEGA),
    )
    rels = []
    inside = 0
    for r in rows:
        target = 2.0 ** -(fg.binary.prefix_length_for(r.epsilon) + fg.binary.s_count(omega, r.k))
        rels.append(abs(r.value - target) / target)
        inside += abs(r.value - target) <= 2.0 / n + 3.0 * r.stderr
    expected = len(_floats(params["epsilons"])) * len(ks)
    ok = len(rows) == expected and inside == expected
    rel = statistics.median(rels) if rels else None
    return CheckResult(ok, f"{inside}/{expected} rows within 2/n + 3 SE", rel)


def check_circle(fg, params, rows, seed) -> CheckResult:
    """Dense-path ball counts equal the generic pairwise oracle's on the
    first ORACLE_POINTS sample points, for one word per horizon; every
    row lies in [0, log(N)/k] because ball measures lie in [1/N, 1]."""
    eps = _floats(params["epsilons"])[-1]
    ks = _ints(params["ks"])
    n_points = int(params["n_points"])
    m_omega = int(params["m_omega"])
    sys_ = fg.systems.make_system(params["system"])
    oracle = dataclasses.replace(sys_, array_ops=None)
    measure = fg.EmpiricalMeasure.draw(sys_, n_points, seed)
    sub = fg.EmpiricalMeasure(measure.points[:ORACLE_POINTS])
    mismatched = []
    for k in ks:
        w, _ = fg.estimators.omega_words(sys_.m, k, None, m_omega, seed)[0]
        if not (sub.ball_measures(sys_, w, k, eps) == sub.ball_measures(oracle, w, k, eps)).all():
            mismatched.append(k)
    in_range = all(0.0 <= r.value <= math.log(n_points) / r.k + 1e-12 for r in rows)
    expected = len(_floats(params["epsilons"])) * len(ks)
    ok = not mismatched and in_range and len(rows) == expected
    detail = (
        f"oracle mismatch at k={mismatched}" if mismatched
        else f"dense == oracle on {ORACLE_POINTS} points, k={ks[0]}..{ks[-1]}"
    )
    return CheckResult(ok, f"{detail}; rows in range: {in_range}", _slope_fit_rel_err(fg, rows, eps))


CHECKS = {
    "top-entropy": check_top_entropy,
    "corr-sum": check_corr_sum,
    "corr-entropy": check_circle,
}


def check_output(fg, params: dict[str, str], stdout: str, seed: int) -> CheckResult:
    """Parse the CLI's CSV output and apply the workload's check.  Any
    parse error or unexpected shape is a failed check, not a crash."""
    try:
        rows = fg.cli.parse_rows(stdout)
        if any(r.seed != seed for r in rows):
            return CheckResult(False, "row seed differs from --seed", None)
        return CHECKS[params["estimator"]](fg, params, rows, seed)
    except (fg.errors.FsgError, ValueError, KeyError) as exc:
        return CheckResult(False, f"unreadable output: {exc!r}", None)
