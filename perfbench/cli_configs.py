"""cli-configs: every shipped config as a cold ``diracssf run`` process.

Each operation starts a fresh interpreter on one of ``configs/*.cfg``,
unchanged, at the CLI's default thread count, and compares the CSV it
writes with the reference in ``perfbench/reference`` taken from the
same code.  Keys, integer values and statuses must match exactly; other
numbers to FLOAT_RTOL, or to ROUNDOFF_ATOL for round-off residuals such
as a 1e-15 orthogonality defect.  Byte-identical CSVs are counted apart.

The exit code must be the one the reference implies: 2 when the
reference holds failing rows (``toeplitz_compact``, whose three
count-to-law ratios miss their declared bracket by design), 0 otherwise.
"""

import csv
import io
import json
import re
import subprocess
import sys
from pathlib import Path

from report import CLI_CONFIGS
from workloads import Op

FLOAT_RTOL = 1e-9
ROUNDOFF_ATOL = 1e-12
CHILD_TIMEOUT_S = 120
_INTEGER = re.compile(r"-?\d+\Z")


def _same_number(got, want):
    if got == want:
        return True
    if _INTEGER.match(got) or _INTEGER.match(want):
        return False
    a, b = float(got), float(want)
    return abs(a - b) <= max(FLOAT_RTOL * max(abs(a), abs(b)), ROUNDOFF_ATOL)


def compare_csv(got, want):
    """None when ``got`` matches the reference text ``want``, else the first difference."""
    got_rows = list(csv.reader(io.StringIO(got)))
    want_rows = list(csv.reader(io.StringIO(want)))
    if len(got_rows) != len(want_rows):
        return f"{len(got_rows)} rows, reference has {len(want_rows)}"
    for i, (g, w) in enumerate(zip(got_rows, want_rows)):
        if len(g) != len(w) or g[:3] != w[:3] or g[5:] != w[5:]:
            return f"row {i} keys or status {g} differ from reference {w}"
        for col in (3, 4):
            try:
                same = _same_number(g[col], w[col])
            except ValueError:
                same = False
            if not same:
                return f"row {i} ({w[2]}): {g[col]} vs reference {w[col]}"
    return None


def expected_exit(reference):
    """The CLI exits 2 exactly when some pass/fail row fails."""
    statuses = [row[5] for row in csv.reader(io.StringIO(reference)) if len(row) > 5]
    return 2 if "fail" in statuses else 0


class CliWorkload:
    """The ten shipped configs; ``traced`` switches the children to the traced CLI.

    ``work`` is the directory the children write to; set it before running.
    """

    def __init__(self, root):
        from diracssf import harness

        self.root = Path(root)
        self.work = None
        self.traced = False
        self.children = []                 # traced children's JSON reports
        self.identical = 0
        self.references = {}
        self.ops = []
        for name in CLI_CONFIGS:
            config = self.root / "configs" / f"{name}.cfg"
            harness.parse_config(config.read_text())
            reference = Path(__file__).parent / "reference" / f"{name}.csv"
            self.references[name] = reference.read_text()
            self.ops.append(Op(f"diracssf run {name}",
                               lambda name=name, config=config: self._run(name, config),
                               lambda out, name=name: self._check(name, out)))

    def _run(self, name, config):
        out = Path(self.work, f"{name}.csv")
        report_path = Path(self.work, f"{name}.trace.json")
        for path in (out, report_path):
            path.unlink(missing_ok=True)
        cli = ["run", "--config", str(config), "--out", str(out)]
        if self.traced:
            cmd = [sys.executable, str(Path(__file__).parent / "cli_child.py"),
                   str(report_path)] + cli
        else:
            cmd = [sys.executable, "-m", "diracssf.cli"] + cli
        proc = subprocess.run(cmd, cwd=self.work, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if self.traced and report_path.exists():
            self.children.append(json.loads(report_path.read_text()))
        csv_text = out.read_text() if out.exists() else None
        return proc.returncode, csv_text, proc.stderr

    def _check(self, name, out):
        code, csv_text, stderr = out
        want = self.references[name]
        if code != expected_exit(want):
            return f"exit code {code}, expected {expected_exit(want)}: {stderr.strip()[-300:]}"
        if csv_text is None:
            return "no CSV written"
        if csv_text == want:
            self.identical += 1
            return None
        return compare_csv(csv_text, want)

    def child_metrics(self):
        """Import metrics as the median over traced children."""
        from report import median

        out = {}
        for key in ("import.s", "import.modules", "import.scipy_optimize_loaded"):
            values = [child[key] for child in self.children]
            out[key] = median(values) if values else 0.0
        return out
