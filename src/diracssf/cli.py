"""Command-line entry point.

    diracssf run --config scenario.cfg [--out results.csv] [--threads N]
    diracssf validate --config scenario.cfg
    diracssf list-scenarios

``run`` exits 0 only when every pass/fail row passes; validation errors
exit 1, failed rows exit 2.  Scenarios run serially; --threads is still
accepted so existing command lines keep working, and it is ignored.
"""

import argparse
import sys

from .harness import (SCENARIOS, ConfigError, all_rows_pass, emit_csv,
                      parse_config, run_scenario)


def _load(path: str):
    with open(path, "r") as fh:
        return parse_config(fh.read())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="diracssf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario and emit CSV")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility and ignored")

    val_p = sub.add_parser("validate", help="validate a scenario config")
    val_p.add_argument("--config", required=True)

    sub.add_parser("list-scenarios", help="print the known scenario names")

    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        for name in SCENARIOS:
            print(name)
        return 0

    try:
        cfg = _load(args.config)
    except ConfigError as exc:
        print("invalid config:", file=sys.stderr)
        for violation in exc.violations:
            print(f"  - {violation}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(f"config ok: scenario '{cfg.scenario}'")
        return 0

    rows = run_scenario(cfg)
    out = args.out or f"{cfg.scenario}.csv"
    emit_csv(rows, out)
    print(f"wrote {len(rows)} rows to {out}")
    if not all_rows_pass(rows):
        failed = [r for r in rows if r.passed is False]
        print(f"{len(failed)} check row(s) failed:", file=sys.stderr)
        for row in failed[:20]:
            print(f"  - {row.metric} [{row.params}] = {row.value}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
