"""Run every benchmark workload with tracing off and on; write one JSON file.

Usage, from the root of a source checkout:

    python3 scripts/bench.py --out BENCH_<n>.json

For each workload of BENCHMARK.json and for ``--trace 0`` and ``--trace 1``,
this runs ``perfbench/run.py --workload W --seed 0 --seconds 5 --trace T`` in
its own interpreter and keeps the JSON lines that it prints.  The file holds
the environment line of the first run (machine, numpy/scipy versions, BLAS
thread settings) and, per run, the remaining lines: the run's pass record and
its metrics.  A run that exits non-zero stops the script with its stderr.

End-to-end CLI rows (``cli``) time a documented command in a fresh
interpreter, from start-up to exit, 5 times: for now only the README's
``pam1d fk --spec spec.json --t 3 --samples 100000 --box 10`` on the
Frechet spec of the CI, with ``--deterministic`` so that the output is plain
JSON.  Each row keeps the wall times and their median, the peak resident
memory that the process reports, its JSON output, and the error against its
oracle: the z-score of the estimate against ``solve_box``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 5
CLI_REPEATS = 5
FRECHET_SPEC = {"gamma": 0.5, "upper": {"frechet_d": 1.0}, "mix_q": 0.2,
                "lower": {"pareto_zeta": 1.0}}
FK_ARGS = ["fk", "--spec", "spec.json", "--t", "3", "--samples", "100000",
           "--box", "10", "--deterministic"]
# the child reports its own peak RSS (ru_maxrss, kB on Linux) on stderr
_CLI_MAIN = ("import resource, sys; from pam1d.cli import main; "
             "code = main(sys.argv[1:]); "
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "
             "file=sys.stderr); sys.exit(code)")


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


def _cli_fk() -> dict:
    """The README's ``pam1d fk`` command, timed in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    walls, rss_kb = [], []
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "spec.json").write_text(json.dumps(FRECHET_SPEC),
                                             encoding="utf-8")
        for _ in range(CLI_REPEATS):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", _CLI_MAIN, *FK_ARGS],
                                  cwd=tmp, env=env, capture_output=True,
                                  text=True)
            walls.append(time.perf_counter() - start)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"pam1d {' '.join(FK_ARGS)} exited "
                                 f"{proc.returncode}")
            rss_kb.append(int(proc.stderr.split()[-1]))
    out = json.loads(proc.stdout)
    sys.path.insert(0, str(ROOT / "src"))
    from pam1d.lattice import solve_box
    from pam1d.potential import sample_field, spec_from_json
    fld = sample_field(spec_from_json(json.dumps(FRECHET_SPEC)), -10, 10, 0)
    exact = float(solve_box(fld, 0, 10, 1.0, 3.0)[10])
    return {"command": ["pam1d", *FK_ARGS],
            "spec": FRECHET_SPEC, "wall_s": walls,
            "wall_s_median": statistics.median(walls),
            "peak_rss_mb": max(rss_kb) / 1024.0, "output": out,
            "exact": exact, "z": (out["mean"] - exact) / out["stderr"]}


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
    cli = [_cli_fk()]
    print(f"pam1d fk: median {cli[0]['wall_s_median']:.3f} s, "
          f"z {cli[0]['z']:.2f}", file=sys.stderr)
    args.out.write_text(json.dumps({"environment": environment, "runs": runs,
                                    "cli": cli}, indent=1) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
