"""Benchmark for diracssf.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a diracssf checkout; the package is imported from
its ``src``.  Workloads (``perfbench/README.md`` says why each exists):

    cli-configs       each shipped config as a cold ``diracssf run`` process
    deep-basis        large radial compressions built in one process
    edge-queries      single-eps Levinson queries on prebuilt estimators
    dense-identities  criterion-5 counting work and dense H0 checks

Each run times set-up in SETUP_PROBES fresh interpreters plus the one
that does the work, then runs whole passes over the workload's
operation list for S seconds in that interpreter, with one BLAS thread.
Every output is checked.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which
holds the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  Lines before it are a readable summary.
"""

import argparse
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

import report

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("cli-configs", "deep-basis", "edge-queries", "dense-identities")
SETUP_PROBES = 5
RUN_TIMEOUT_S = 170.0


class WorkerError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("DIRACSSF_THREADS", None)   # the CLI's default thread count
    return env


def _start(args, setup_only, deadline):
    """Run a worker; returns (seconds until it printed ready, the rest of its output)."""
    cmd = [sys.executable, str(WORKER), args.workload, str(args.seed), str(args.seconds),
           str(args.trace), "1" if setup_only else "0"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE)
    buf = b""
    fd = proc.stdout.fileno()
    try:
        while b"\n" not in buf:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise WorkerError("worker set-up timed out")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise WorkerError(f"worker exited during set-up (code {proc.wait()})")
            buf += chunk
        ready_s = time.perf_counter() - start
        line, rest = buf.split(b"\n", 1)
        if line != b"ready":
            raise WorkerError(f"unexpected worker output {line[:200]!r}")
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except (WorkerError, subprocess.TimeoutExpired):
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return ready_s, rest + out


def _commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _summary(args, result, setup_samples, metrics, units):
    stamp = dict(result["stamp"], commit=_commit(), seed=args.seed, nproc=os.cpu_count(),
                 cpu=_cpu_model())
    lines = [f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, "
             f"trace {args.trace}",
             "stamp: " + json.dumps(stamp, sort_keys=True)]
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        lines += [f"  {name:44s} {value:14.6g} {units[name]}" for name, value in metrics.items()]
    else:
        per_op = result["latencies"]
        pooled = [x for op in per_op for x in op]
        sweeps = result["sweeps"]
        p90 = report.tail_percentile(pooled, 90)
        runs = min((len(op) for op in per_op), default=0)
        counts = {"setup_s": f"median of {len(setup_samples)} fresh interpreters",
                  "sweep_s": f"each of {len(per_op)} operations at its median of >= {runs}; "
                             f"median complete pass "
                             + (f"{report.median(sweeps):.6g} s" if sweeps else "n/a"),
                  "op_p50_s": f"median over the operations of their median runs; "
                              f"pooled median {report.median(pooled):.6g} s" if pooled else "n/a",
                  "peak_rss_mb": "largest CLI child" if args.workload == "cli-configs"
                  else "working process"}
        lines += [f"  {name:16s} {metrics[name]:12.6g} {units[name]:4s} ({counts[name]})"
                  for name in units]
        lines.append(f"  {'op_p90_s':16s} " + (
            f"{p90:12.6g} s    (pooled; {report.samples_beyond(len(pooled), 90)} samples beyond)"
            if p90 is not None else
            f"{'n/a':>12s}      (needs {report.TAIL_SAMPLES} samples beyond p90; "
            f"{len(pooled)} operations run)"))
    lines.append(f"  {'ops_failed_frac':16s} {report.failure_share(attempted, failed):12.6g} "
                 f"ratio ({failed} of {attempted})")
    lines += [f"  failure: {text}" for text in result["failures"]]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    missing = [p for p in ("src/diracssf/__init__.py", "configs") if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: {ROOT} is not a diracssf checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_TIMEOUT_S
    try:
        # set-up is an end-to-end metric, so traced runs do not time it
        probes = 0 if args.trace else SETUP_PROBES
        setup_samples = [_start(args, True, deadline)[0] for _ in range(probes)]
        ready_s, output = _start(args, False, deadline)
        result = json.loads(output.decode().strip().splitlines()[-1])
    except (WorkerError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {exc!r}", file=sys.stderr)
        return 1
    if not args.trace:
        setup_samples.append(ready_s)

    # every operation needs one correct run for the timings to exist
    complete = all(result["latencies"])
    if args.trace:
        values = result["layers"]
        units = {name: unit for name, unit, _ in report.per_layer_units()}
    else:
        latencies = result["latencies"] if complete else [[0.0]]
        values = report.end_to_end(setup_samples, latencies, result["peak_rss_mb"])
        units = dict(report.END_TO_END)
    for line in _summary(args, result, setup_samples, values, units):
        print(line)
    print(json.dumps({
        "correct": result["failed"] == 0 and complete,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
