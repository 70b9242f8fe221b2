"""One workload in a fresh interpreter; started by run.py, not by hand.

    worker.py WORKLOAD SEED SECONDS TRACE SETUP_ONLY

The worker times ``import diracssf``, builds the workload's inputs and
prints ``ready``; that much is the set-up run.py times.  With SETUP_ONLY
it stops there.  Otherwise it runs whole passes over the operation list
until SECONDS have gone by, checks every output outside the timed
region, and prints one JSON line with every operation's latencies.  With
TRACE, the first half of the time runs traced and the second half
untraced, after the wrappers are removed; the per-layer metrics come
from the first half and the tracing overhead from the difference.
"""

import os
import sys
import time

clock = time.perf_counter


class Tally:
    """Operation counts and latencies of one phase of a run."""

    def __init__(self, n_ops, verified):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.latencies = [[] for _ in range(n_ops)]   # per operation, in run order
        self.sweeps = []                              # complete passes only
        self.passes = 0
        self.verified = verified                      # op index -> key of a checked output

    def fail(self, op, reason):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{op.name}: {reason}")

    def verify(self, index, op, out):
        key = op.key(out) if op.key is not None else None
        if key is not None and self.verified.get(index) == key:
            return None
        reason = op.check(out)
        if reason is None and key is not None:
            self.verified[index] = key
        return reason


def run_phase(ops, seconds, tally, quiet):
    """Whole passes over ``ops`` until ``seconds`` elapse.

    A pass runs each op ``op.repeat`` times in a row; its pass time counts
    each op once, at the mean of its repeats.  A failed operation has no
    latency, and a pass with a failure has no pass time.  ``quiet`` is the
    context the checks run in.
    """
    deadline = clock() + seconds
    while True:
        tally.passes += 1
        total = 0.0
        complete = True
        for index, op in enumerate(ops):
            for _ in range(op.repeat):
                tally.attempted += 1
                start = clock()
                try:
                    out = op.run()
                except Exception as exc:  # the library's error is the failure reported
                    tally.fail(op, repr(exc))
                    complete = False
                    continue
                elapsed = clock() - start
                with quiet():
                    try:
                        reason = tally.verify(index, op, out)
                    except Exception as exc:  # an output the oracle cannot even read
                        reason = f"check raised {exc!r}"
                if reason is not None:
                    tally.fail(op, reason)
                    complete = False
                    continue
                tally.latencies[index].append(elapsed)
                total += elapsed / op.repeat
        if complete:
            tally.sweeps.append(total)
        if clock() >= deadline:
            return


def _stamp():
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                       "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


def main(argv):
    name, seed, seconds, trace, setup_only = argv
    seed, seconds = int(seed), float(seconds)
    trace, setup_only = trace == "1", setup_only == "1"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    before = set(sys.modules)
    start = clock()
    import diracssf
    imported = {
        "import.s": clock() - start,
        "import.modules": float(len(set(sys.modules) - before)),
        "import.scipy_optimize_loaded": float("scipy.optimize" in sys.modules),
    }
    src = os.path.join(root, "src", "diracssf")
    if os.path.dirname(os.path.abspath(diracssf.__file__)) != src:
        print(f"diracssf imported from {diracssf.__file__}, not {src}", file=sys.stderr)
        return 3

    import contextlib
    import json
    import resource
    import shutil
    import tempfile

    import report
    import tracing
    import workloads

    tracer = tracing.Tracer() if trace else None
    cli = None
    if name == "cli-configs":
        import cli_configs

        cli = cli_configs.CliWorkload(root)
        ops = cli.ops
    else:
        if tracer is not None:
            tracer.install()
        ops = workloads.IN_PROCESS[name](seed)
    print("ready", flush=True)
    if setup_only:
        return 0

    work = None
    if cli is not None:
        scratch = os.path.join(root, "perfbench", ".work")
        os.makedirs(scratch, exist_ok=True)
        work = cli.work = tempfile.mkdtemp(dir=scratch)
    result = {}
    verified = {}
    untraced = Tally(len(ops), verified)
    phases = [untraced]
    try:
        if tracer is None:
            run_phase(ops, seconds, untraced, contextlib.nullcontext)
        else:
            traced = Tally(len(ops), verified)
            phases.append(traced)
            setup = tracer.snapshot()
            tracer.reset()
            if cli is not None:
                cli.traced = True
                run_phase(ops, seconds / 2, traced, contextlib.nullcontext)
                cli.traced = False
                setup = {}
                passes = tracing.merge(child["snapshot"] for child in cli.children)
            else:
                run_phase(ops, seconds / 2, traced, tracer.muted)
                passes = tracer.snapshot()
                tracer.uninstall()
            run_phase(ops, seconds / 2, untraced, contextlib.nullcontext)
            values = dict(imported)
            if cli is not None:
                values.update(cli.child_metrics())
                values["cli.csv_identical"] = cli.identical / (traced.passes + untraced.passes)
                for config, walls in zip(report.CLI_CONFIGS, untraced.latencies):
                    values[f"cli.{config}.wall_s"] = report.median(walls) if walls else 0.0
            if all(traced.latencies) and all(untraced.latencies):
                values["trace.overhead_s"] = (report.typical_pass(traced.latencies)
                                              - report.typical_pass(untraced.latencies))
            per_pass = tracing.per_pass(setup, passes, traced.passes)
            result["layers"] = report.per_layer(per_pass, values)
    finally:
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):
                os.rmdir(os.path.dirname(work))

    who = resource.RUSAGE_CHILDREN if cli is not None else resource.RUSAGE_SELF
    result.update({
        "attempted": sum(t.attempted for t in phases),
        "failed": sum(t.failed for t in phases),
        "failures": [text for t in phases for text in t.failures][:10],
        "latencies": untraced.latencies,
        "sweeps": untraced.sweeps,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "stamp": _stamp(),
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
