"""Run every benchmark workload with tracing off and on; write one JSON file.

Usage, from the root of a source checkout:

    python3 scripts/bench.py --out BENCH_<n>.json

For each workload of BENCHMARK.json and for ``--trace 0`` and ``--trace 1``,
this runs ``perfbench/run.py --workload W --seed 0 --seconds 5 --trace T`` in
its own interpreter and keeps the JSON lines that it prints.  The file holds
the environment line of the first run (machine, numpy/scipy versions, BLAS
thread settings) and, per run, the remaining lines: the run's pass record and
its metrics.  A run that exits non-zero stops the script with its stderr.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 5


def _run(workload: str, trace: int) -> list:
    """The JSON lines that one perfbench/run.py invocation prints."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "0",
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd[1:])} exited {proc.returncode}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, type=Path,
                   help="file to write, for example BENCH_<n>.json")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    environment, runs = None, []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            lines = _run(workload, trace)
            env = [ln["environment"] for ln in lines if "environment" in ln]
            environment = environment or env[0]
            runs.append({"workload": workload, "trace": trace,
                         "lines": [ln for ln in lines if "environment" not in ln]})
            print(f"{workload} --trace {trace}: correct "
                  f"{lines[-1]['correct']}", file=sys.stderr)
    args.out.write_text(json.dumps({"environment": environment, "runs": runs},
                                   indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
