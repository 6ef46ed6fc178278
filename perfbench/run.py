"""fsgentropy benchmark: time to a checked log(2)/2 estimate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run is a closed loop with one
client: it starts a fresh single-threaded worker process (`worker.py`),
waits for it, checks its output, and starts the next one until S
seconds have passed.  Every worker of a run uses the same seed, so they
must all emit the same output bytes.

The speed of this kind of shared virtual machine drifts by up to 1.7x,
in CPU time as much as in wall time, and changes within a second.  So
the parent pins itself and its workers to one CPU and, while a worker
runs, stops it every PROBE_EVERY_S with SIGSTOP, times a small fixed
reference job (`probe_s`) on that CPU and resumes it.  The worker's
times exclude these pauses and are rescaled to the reference speed:
multiplied by the mean over the probes of PROBE_REF_S / probe time.
The raw times are printed in the report as well.

With --trace 0 the last line of standard output holds the end-to-end
metrics (medians over the workers); with --trace 1 it holds the
per-layer metrics of traced workers, each paired with an untraced one
to measure the tracing overhead and compare output digests.  The lines
before it give quartiles, sample counts, the correctness detail and the
provenance of the run.
"""

from __future__ import annotations

import argparse
import array
import compileall
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# A run must end within 180 s; no worker is started or waited for past this.
HARD_LIMIT_S = 170.0

# End-to-end metrics: (name, unit).
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("point_stages_per_s", "1/s"),
)

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# The reference job: a fixed mix of the kinds of work the workloads do
# (small-integer arithmetic, big-integer shifts as on deep binary points,
# tuple-keyed dict updates as in ball keys and Counter) and a walk along
# a random cycle through a 16 MB array, whose cache misses slow down
# with the host's memory traffic as the workloads' large arrays do.
PROBE_BIG = (1 << 4000) - 12345
PROBE_CYCLE_LEN = 1 << 22


def _random_cycle(n: int) -> array.array:
    """next[i] for one cycle through all of range(n), in random order."""
    order = numpy.random.default_rng(0).permutation(n)
    nxt = numpy.empty(n, dtype=numpy.int32)
    nxt[order] = numpy.roll(order, -1)
    cycle = array.array("i")
    cycle.frombytes(nxt.tobytes())
    return cycle


PROBE_CYCLE = _random_cycle(PROBE_CYCLE_LEN)
# Its time on a quiet core of a 2-vCPU 2.1 GHz Xeon virtual machine under
# CPython 3.11, so rescaled times read as seconds on that machine.
PROBE_REF_S = 0.006
# Seconds a worker runs between two probes.
PROBE_EVERY_S = 0.15


def probe_s() -> float:
    """Seconds the reference job takes now; independent of fsgentropy."""
    start = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i
    for i in range(2_000):
        total ^= (PROBE_BIG >> (i & 63)) + i
    counts = {}
    for i in range(6_000):
        key = (i & 127, i >> 7)
        counts[key] = counts.get(key, 0) + 1
    j = 0
    for _ in range(20_000):
        j = PROBE_CYCLE[j]
    return time.perf_counter() - start


def _paused_probe(proc: subprocess.Popen, probes: list[float]) -> tuple[float, float]:
    """Stop the worker, time the reference job, resume the worker;
    return the (start, end) of the pause.  The end is read before
    SIGCONT, since the resumed worker may take the CPU at once."""
    start = time.monotonic()
    proc.send_signal(signal.SIGSTOP)
    try:
        probes.append(probe_s())
        end = time.monotonic()
    finally:
        proc.send_signal(signal.SIGCONT)
    return start, end


def child_env() -> dict[str, str]:
    """The workers' environment: one BLAS/OpenMP thread and a fixed
    hash seed.  Only the children get these settings."""
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_PINS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(config: Path, seed: int, trace: bool, env, timeout: float) -> dict:
    """Start one worker, wait for it, and return its parsed result with
    `wall_s`, `cpu_s` and `setup_s` rescaled to the reference speed (raw
    values under `raw`), or {"error": ...}.

    A traced worker is probed only before and after it runs, so that its
    span times hold no pauses."""
    probes = [probe_s()]
    pauses = []
    t0 = time.monotonic()
    deadline = t0 + max(1.0, timeout)
    cmd = [sys.executable, str(WORKER), "--config", str(config), "--seed", str(seed),
           "--t0", repr(t0), "--trace", str(int(trace))]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env, cwd=ROOT, text=True) as proc:
        try:
            while True:
                try:
                    out, err = proc.communicate(timeout=PROBE_EVERY_S)
                    break
                except subprocess.TimeoutExpired:
                    if time.monotonic() > deadline:
                        proc.kill()
                        proc.communicate()
                        return {"error": f"worker timed out after {timeout:.0f} s"}
                    if not trace:
                        pauses.append(_paused_probe(proc, probes))
        except BaseException:
            proc.kill()  # interrupted: leave no worker behind
            raise
    probes.append(probe_s())
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no stderr"]
        return {"error": f"worker exit code {proc.returncode}: {tail[0]}"}
    try:
        res = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": "worker printed no result"}

    def unpaused(t: float) -> float:
        return t - t0 - sum(max(0.0, min(end, t) - start) for start, end in pauses)

    res["scale"] = statistics.mean(PROBE_REF_S / p for p in probes)
    res["probes"] = len(probes)
    res["raw"] = {"wall_s": unpaused(res["t_done"]), "cpu_s": res["cpu_s"]}
    if res["t_setup"] is not None:
        res["raw"]["setup_s"] = unpaused(res["t_setup"])
    for name, value in res["raw"].items():
        res[name] = value * res["scale"]
    if "setup_s" in res:
        res["point_stages_per_s"] = res["work"] / (res["wall_s"] - res["setup_s"])
    return res


def failure(res: dict, reference: str | None) -> str | None:
    """Why a worker's result counts as failed, or None if it passed."""
    if "error" in res:
        return res["error"]
    if not res["ok"]:
        return f"check failed: {res['detail']}"
    if not res["restored"]:
        return "tracer left a wrapper installed"
    if res["t_setup"] is None and "layers" not in res:
        return "no estimator entry point was called"
    if reference is not None and res["digest"] != reference:
        return "output differs from the first worker of this seed"
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def exact_layer_metrics(layers: dict) -> list[str]:
    """Per-layer metrics that are counts and must repeat exactly."""
    units = {name: unit for name, unit, _, _ in tracer.PER_LAYER}
    return [name for name in layers if units[name] != "s"]


def provenance(params: dict, seed: int) -> dict:
    # The ceiling stops git from searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unavailable (not a git checkout)"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "params": params,
        "child_env": {name: child_env()[name] for name in THREAD_PINS + ("PYTHONHASHSEED",)},
        "probe_ref_s": PROBE_REF_S,
    }


def measure(config: Path, seed: int, seconds: float, trace: bool):
    """Closed loop until `seconds` have passed.  Returns (untraced,
    traced, failures) where failures are (index, reason) pairs.  The
    loop and its workers run on one CPU, the one the probes time."""
    env = child_env()
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        return _loop(config, seed, seconds, trace, env)
    finally:
        os.sched_setaffinity(0, allowed)


def _loop(config: Path, seed: int, seconds: float, trace: bool, env):
    start = time.monotonic()
    untraced, traced, failures = [], [], []
    reference = first_layers = None
    while not untraced or time.monotonic() - start < min(seconds, HARD_LIMIT_S):
        for is_traced in ((False, True) if trace else (False,)):
            left = HARD_LIMIT_S - (time.monotonic() - start)
            res = run_worker(config, seed, is_traced, env, left)
            (traced if is_traced else untraced).append(res)
            if reference is None and "error" not in res and res["ok"]:
                reference = res["digest"]
            why = failure(res, reference)
            if why is None and is_traced:
                if first_layers is None:
                    first_layers = res["layers"]
                for name in exact_layer_metrics(res["layers"]):
                    if first_layers[name] != res["layers"][name]:
                        why = f"traced count {name} differs between workers"
                        break
            if why is not None:
                failures.append((len(untraced) + len(traced) - 1, why))
                res["failed"] = True
    return untraced, traced, failures


def summarise(samples: dict[str, list[float]], units: dict[str, str]) -> dict:
    out = {}
    for name, values in samples.items():
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        out[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values), "unit": units[name]}
    return out


def benchmark(config: Path, seed: int, seconds: float, trace: bool) -> tuple[dict, dict | None]:
    """Measure one workload config.  Returns the full report and the
    result object for the last output line (None if no worker passed)."""
    untraced, traced, failures = measure(config, seed, seconds, trace)
    good = [r for r in untraced if not r.get("failed")]
    good_traced = [r for r in traced if not r.get("failed")]
    attempted = len(untraced) + len(traced)

    e2e = {name: [r[name] for r in good] for name, _ in END_TO_END} if good else {}
    raw = {name: [r["raw"][name] for r in good] for name in ("wall_s", "cpu_s", "setup_s")}
    layer_units = {name: unit for name, unit, _, _ in tracer.PER_LAYER}
    layers = {}
    if good_traced:
        for name in good_traced[0]["layers"]:
            scaled = layer_units[name] == "s"
            layers[name] = [r["layers"][name] * (r["scale"] if scaled else 1.0)
                            for r in good_traced]
        layers["trace.overhead_frac"] = [
            t["wall_s"] / u["wall_s"] - 1.0
            for u, t in zip(untraced, traced)
            if not u.get("failed") and not t.get("failed")
        ]
    report = {
        "loop": "closed, one client, one fresh single-threaded process per run",
        "seconds": seconds,
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:5],
        "rel_err": good[0]["rel_err"] if good else None,
        "check": good[0]["detail"] if good else None,
        "digest": good[0]["digest"] if good else None,
        "work_point_stages": good[0]["work"] if good else None,
        "end_to_end": summarise(e2e, dict(END_TO_END)),
        "raw_times": summarise(raw, dict(END_TO_END)),
        "speed_scale": summarise({"scale": [r["scale"] for r in good]}, {"scale": "ratio"}),
        "per_layer": summarise(layers, layer_units),
        "trace_spans": good_traced[0]["spans"] if good_traced else None,
        "provenance": provenance(workloads.read_params(config), seed),
    }
    section = report["per_layer"] if trace else report["end_to_end"]
    wanted = list(layer_units) if trace else [name for name, _ in END_TO_END]
    if any(name not in section for name in wanted):
        return report, None
    return report, {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": section[name]["median"], "unit": section[name]["unit"]}
                    for name in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that a running worker is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "fsgentropy" / "__init__.py").is_file():
        print(f"error: no fsgentropy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # Byte-compile once so that no worker's set-up pays for compilation.
    compileall.compile_dir(ROOT / "src", quiet=2)

    config = workloads.config_path(args.workload)
    report, result = benchmark(config, args.seed, args.seconds, bool(args.trace))
    section = report["per_layer"] if args.trace else report["end_to_end"]
    for name, s in section.items():
        print(f"{name:40s} median {s['median']:.6g} {s['unit']}"
              f"  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    if not args.trace:
        for name, s in {**report["raw_times"], **report["speed_scale"]}.items():
            print(f"raw {name:36s} median {s['median']:.6g} {s['unit']}"
                  f"  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    for index, why in report["failures"]:
        print(f"worker {index} failed: {why}")
    print(json.dumps({"report": {"workload": args.workload, **report}}))
    if result is None:
        print("error: no passing worker produced every metric", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
