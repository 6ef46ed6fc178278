"""Tests of the benchmark itself, at smoke sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import fsgentropy as fg  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SMOKE = {
    "top-entropy": """
        system = binary-shift-odometer
        estimator = top-entropy
        epsilons = 0.25
        ks = 2,3,4,5,6
        n_points = 512
        m_omega = 32
    """,
    "corr-sum": """
        system = binary-shift-odometer
        estimator = corr-sum
        epsilons = 0.09375
        ks = 1,2,3
        n = 300
        m_upsilon = 4
    """,
    "corr-entropy": """
        system = circle-double-rotate
        estimator = corr-entropy
        epsilons = 0.125
        ks = 1,2,3,4,5
        n_points = 128
        m_omega = 2
    """,
}


@pytest.fixture(params=sorted(SMOKE))
def smoke_config(request, tmp_path):
    path = tmp_path / f"{request.param}.cfg"
    path.write_text("\n".join(line.strip() for line in SMOKE[request.param].splitlines()))
    return path


def test_benchmark_json_matches_the_code():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracer.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    for name in workloads.WORKLOADS:
        assert workloads.config_path(name).is_file()


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_a_unit(smoke_config, trace):
    report, result = run.benchmark(smoke_config, seed=3, seconds=0.01, trace=trace)
    assert result is not None, report["failures"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    wanted = (
        [name for name, _, _, _ in tracer.PER_LAYER] if trace
        else [name for name, _ in run.END_TO_END]
    )
    assert list(result["metrics"]) == wanted
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert math.isfinite(metric["value"]), name
        assert metric["unit"]
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in wanted)
    assert report["provenance"]["seed"] == 3


def test_traced_counts_repeat_and_digest_matches_untraced(smoke_config):
    plain = worker.run_once(smoke_config, seed=5, trace=False)
    first = worker.run_once(smoke_config, seed=5, trace=True)
    second = worker.run_once(smoke_config, seed=5, trace=True)
    assert plain["ok"] and first["ok"] and second["ok"]
    assert plain["digest"] == first["digest"] == second["digest"]
    exact = run.exact_layer_metrics(first["layers"])
    assert exact
    assert {n: first["layers"][n] for n in exact} == {n: second["layers"][n] for n in exact}


def _corrupt(estimator: str, text: str) -> str:
    rows = fg.cli.parse_rows(text)
    if estimator == "corr-entropy":
        rows[-1].value = -rows[-1].value - 1.0  # outside [0, log(N)/k]
    else:
        for r in rows:
            r.value *= 1.5
    return fg.cli.format_csv(rows)


def test_corrupted_output_fails_its_check(smoke_config, capsys):
    params = workloads.read_params(smoke_config)
    assert fg.cli.main(["run", str(smoke_config), "--seed", "2"]) == 0
    text = capsys.readouterr().out
    assert workloads.check_output(fg, params, text, 2).ok
    assert not workloads.check_output(fg, params, _corrupt(params["estimator"], text), 2).ok
    assert not workloads.check_output(fg, params, text[: len(text) // 2], 2).ok
    assert not workloads.check_output(fg, params, text, 3).ok


class FakeClock:
    """Stands in for the time module: each fake worker takes 2 s."""

    now = 0.0

    def monotonic(self):
        return self.now


def test_a_worker_with_other_output_bytes_counts_as_failed(monkeypatch, smoke_config):
    base = {"ok": True, "detail": "", "restored": True, "t_setup": 0.1, "t_done": 1.0,
            "wall_s": 1.0, "setup_s": 0.1, "work": 10}
    results = iter([dict(base, digest="a"), dict(base, digest="b"), dict(base, digest="a")])
    clock = FakeClock()

    def fake_worker(*args):
        clock.now += 2.0
        return next(results)

    monkeypatch.setattr(run, "time", clock)
    monkeypatch.setattr(run, "run_worker", fake_worker)
    untraced, _, failures = run.measure(smoke_config, seed=1, seconds=5.0, trace=False)
    assert len(untraced) == 3
    assert failures == [(1, "output differs from the first worker of this seed")]
    assert run.failure(dict(base, digest="a", ok=False, detail="x"), "a").startswith("check failed")
    assert run.failure({"error": "worker exit code 3: boom"}, "a") == "worker exit code 3: boom"


def test_times_are_rescaled_by_the_probe(monkeypatch, smoke_config):
    def slow_probe():
        time.sleep(0.005)
        return 2.0 * run.PROBE_REF_S

    monkeypatch.setattr(run, "probe_s", slow_probe)
    monkeypatch.setattr(run, "PROBE_EVERY_S", 0.02)
    res = run.run_worker(smoke_config, 4, False, run.child_env(), 120.0)
    assert res["scale"] == 0.5
    for name in ("wall_s", "cpu_s", "setup_s"):
        assert res[name] == 0.5 * res["raw"][name] > 0
    # The worker was paused for probes; its wall time leaves them out.
    assert res["probes"] > 2
    assert res["raw"]["wall_s"] < res["t_done"] - res["t0"]
    assert res["point_stages_per_s"] == res["work"] / (res["wall_s"] - res["setup_s"])


def _bindings():
    """Every attribute the tracer may patch, by identity."""
    em = fg.estimators.EmpiricalMeasure
    mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "fsgentropy"]
    snapshot = {(id(m), attr): v for m in mods for attr, v in vars(m).items() if callable(v)}
    snapshot.update({("em", a): vars(em)[a] for a in ("draw", "ball_measures")})
    return snapshot


def test_wrappers_restore_the_original_functions():
    before = _bindings()
    t = tracer.Tracer(fg)
    t.install()
    assert fg.binary.drop_head is not before[(id(fg.binary), "drop_head")]
    assert fg.estimators.sample_word is not before[(id(fg.estimators), "sample_word")]
    assert vars(fg.estimators.EmpiricalMeasure)["draw"] is not before[("em", "draw")]
    t.finish()
    assert _bindings() == before
    assert t.patched() == []


def test_setup_boundary_fires_once_and_removes_itself():
    before = _bindings()
    boundary = tracer.SetupBoundary(fg)
    assert fg.estimators.omega_words is not before[(id(fg.estimators), "omega_words")]
    fg.estimators.omega_words(2, 2, None, 4, 1)
    assert boundary.at is not None
    assert _bindings() == before
