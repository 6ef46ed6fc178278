"""One measured run of one workload, in a fresh process.

Runs `entcli run CONFIG --seed SEED` in-process against the package in
the checkout's `src/`, captures its output, checks it outside the timed
region and prints one JSON line for `run.py`.  The parent passes `--t0`,
its `time.monotonic()` just before it started this process, so set-up
and wall time count interpreter start-up and imports.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _cpu_seconds() -> float:
    """User + system CPU of this process and of any children it reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def _peak_rss_mib() -> float:
    """Peak resident set of this process's own memory since exec.

    `ru_maxrss` would also count the parent's resident set at fork time,
    which Linux carries across exec; VmHWM does not."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_once(config: Path, seed: int, trace: bool) -> dict:
    """Run the workload once; return timings, check and digest."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import fsgentropy as fg

    recorder = tracer.Tracer(fg) if trace else tracer.SetupBoundary(fg)
    if trace:
        recorder.install()
    patched = recorder.patched()
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = fg.cli.main(["run", str(config), "--seed", str(seed)])
        t_done = time.monotonic()
        cpu_s = _cpu_seconds()
        peak_rss_mib = _peak_rss_mib()
    finally:
        if trace:
            recorder.finish()
        else:
            recorder.restore()
    restored = all(vars(owner)[attr] is original for owner, attr, original in patched)

    params = workloads.read_params(config)
    if rc == 0:
        check = workloads.check_output(fg, params, out.getvalue(), seed)
    else:
        check = workloads.CheckResult(False, f"entcli exit code {rc}", None)
    digest = hashlib.sha256()
    digest.update(out.getvalue().encode())
    digest.update(b"\0")
    digest.update(err.getvalue().encode())
    m = fg.systems.make_system(params["system"]).m
    result = {
        "t_setup": None if trace else recorder.at,
        "t_done": t_done,
        "cpu_s": cpu_s,
        "peak_rss_mib": peak_rss_mib,
        "ok": check.ok,
        "detail": check.detail,
        "rel_err": check.rel_err,
        "digest": digest.hexdigest(),
        "work": workloads.definitional_work(params, m, fg.estimators.exhaustive_omega),
        "restored": restored,
    }
    if trace:
        result["layers"] = recorder.metrics()
        result["spans"] = len(recorder.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_once(args.config, args.seed, bool(args.trace))
    result["t0"] = args.t0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
