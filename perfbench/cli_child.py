"""The ``diracssf`` CLI with the layer tracer on; started by cli_configs.py.

    cli_child.py REPORT.json run --config CFG --out CSV

Runs ``diracssf.cli.main`` on the remaining arguments, writes the import
time, the modules the import loaded and the tracer snapshot to
REPORT.json, and exits with the CLI's exit code.
"""

import sys
import time


def main(report_path, argv):
    before = set(sys.modules)
    start = time.perf_counter()
    import diracssf
    import_s = time.perf_counter() - start
    modules = len(set(sys.modules) - before)
    scipy_optimize = "scipy.optimize" in sys.modules

    import json

    import diracssf.cli
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = diracssf.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(report_path, "w") as fh:
        json.dump({"import.s": import_s, "import.modules": float(modules),
                   "import.scipy_optimize_loaded": float(scipy_optimize),
                   "snapshot": tracer.snapshot()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
