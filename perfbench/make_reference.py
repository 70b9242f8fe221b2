"""Write the reference CSVs that cli-configs compares against.

    python3 perfbench/make_reference.py

Runs every shipped config through the CLI of this checkout, with the
benchmark's environment (one BLAS thread, default CLI thread count), and
stores each CSV under ``perfbench/reference``.  Only
``toeplitz_compact`` may fail rows, and only its three count-to-law
ratios, whose declared bracket is out of reach by design; anything else
stops the script before a file is written.
"""

import csv
import io
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from report import CLI_CONFIGS

EXPECTED_FAILS = {"toeplitz_compact": ["count_to_law_ratio"] * 3}


def main():
    out_dir = Path(__file__).resolve().parent / "reference"
    texts = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CLI_CONFIGS:
            out = Path(tmp) / f"{name}.csv"
            cmd = [sys.executable, "-m", "diracssf.cli", "run", "--config",
                   str(run.ROOT / "configs" / f"{name}.cfg"), "--out", str(out)]
            proc = subprocess.run(cmd, cwd=tmp, env=run.worker_env(), capture_output=True,
                                  text=True, timeout=300)
            texts[name] = out.read_text()
            failing = [row[2] for row in csv.reader(io.StringIO(texts[name]))
                       if row[5:] == ["fail"]]
            expected = EXPECTED_FAILS.get(name, [])
            if failing != expected or proc.returncode != (2 if expected else 0):
                raise SystemExit(f"{name}: exit {proc.returncode}, failing rows {failing}; "
                                 f"expected {expected}")
    out_dir.mkdir(exist_ok=True)
    for name, text in texts.items():
        (out_dir / f"{name}.csv").write_text(text)
        print(f"wrote {out_dir / name}.csv")


if __name__ == "__main__":
    main()
