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
interpreter, from start-up to exit, 5 times, with ``--deterministic`` so that
the output is plain JSON: the README's
``pam1d fk --spec spec.json --t 3 --samples 100000 --box 10`` on the
gamma = 1/2 Frechet spec, ``pam1d chi --gamma 0.5 --A 0.693147``, and the
README's ``pam1d solve --spec spec.json --seed 3 --t 1e4`` on the README's
spec.  Each row keeps the wall times and their median, the peak resident
memory that the process reports, its JSON output (without the profile of
``chi``), and the error against its oracle: for ``fk`` the z-score of the
estimate against ``solve_box``, for ``chi`` the relative error against the
closed form, for ``solve`` the gap log_u - log_lb to the certified screening
bound that ``pam1d lbound --t 1e4 --radius 8 --seed 3`` prints.  The table
commands of the README, ``rate --seeds 2`` and the four ``verify-*``, run
with ``--format json`` as well, and their rows keep whether the output meets
the check that the README states for the command (``ok``).

The tier-1 row (``tier1``) runs the tier-1 suite once in a fresh
interpreter, as the README's Tests section runs it, with
``--durations=10``, and keeps its wall time, its exit code, the count of
each outcome and the 10 slowest test phases.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
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
CHI_GAMMA, CHI_A = 0.5, 0.693147
CHI_ARGS = ["chi", "--gamma", str(CHI_GAMMA), "--A", str(CHI_A),
            "--deterministic"]
README_SPEC = {"gamma": 0.0, "upper": {"atom_p": 0.625}, "mix_q": 0.2,
               "lower": {"pareto_zeta": 1.0}}
SOLVE_SEED, SOLVE_T = 3, 1e4
SOLVE_ARGS = ["solve", "--spec", "spec.json", "--seed", str(SOLVE_SEED),
              "--t", "1e4", "--deterministic"]
LBOUND_RADIUS = 8  # pam1d lbound searches 20 radii by default
# the README's microbox spec: xi = 0 on 85 % of sites
MICRO_SPEC = {"gamma": 0.0, "upper": {"atom_p": 0.95}, "mix_q": 0.1,
              "lower": {"pareto_zeta": 1.0}}
TABLE_FLAGS = ["--format", "json", "--deterministic"]
TIER1_ARGS = ["-m", "pytest", "-q", "--continue-on-collection-errors",
              "-p", "no:cacheprovider", "--durations=10"]
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


def _src_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def _time_cli(args: list, files: dict) -> dict:
    """``pam1d args`` timed in fresh interpreters, in a directory of files."""
    walls, rss_kb = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8")
        for _ in range(CLI_REPEATS):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", _CLI_MAIN, *args],
                                  cwd=tmp, env=_src_env(),
                                  capture_output=True, text=True)
            walls.append(time.perf_counter() - start)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"pam1d {' '.join(args)} exited "
                                 f"{proc.returncode}")
            rss_kb.append(int(proc.stderr.split()[-1]))
    return {"command": ["pam1d", *args], "wall_s": walls,
            "wall_s_median": statistics.median(walls),
            "peak_rss_mb": max(rss_kb) / 1024.0,
            "output": json.loads(proc.stdout)}


def _cli_fk() -> dict:
    """The README's ``pam1d fk`` command, against ``solve_box``."""
    row = _time_cli(FK_ARGS, {"spec.json": json.dumps(FRECHET_SPEC)})
    sys.path.insert(0, str(ROOT / "src"))
    from pam1d.lattice import solve_box
    from pam1d.potential import sample_field, spec_from_json
    fld = sample_field(spec_from_json(json.dumps(FRECHET_SPEC)), -10, 10, 0)
    exact = float(solve_box(fld, 0, 10, 1.0, 3.0)[10])
    out = row["output"]
    return {**row, "spec": FRECHET_SPEC, "exact": exact,
            "z": (out["mean"] - exact) / out["stderr"]}


def _cli_chi() -> dict:
    """``pam1d chi`` at gamma = 1/2, against the closed form (kappa = 1).

    chi = [A^(1/(1-g)) B(p + 1/2, 1/2)]^(2(1-g)/(1+g)), p = g/(1-g), with B
    from ``math.lgamma`` as in tier-1.
    """
    row = _time_cli(CHI_ARGS, {})
    row["output"].pop("psi_grid")
    g, a = CHI_GAMMA, CHI_A
    p = g / (1 - g)
    log_b = math.lgamma(p + 0.5) + math.lgamma(0.5) - math.lgamma(p + 1)
    exact = math.exp(2 * (1 - g) / (1 + g) * (math.log(a) / (1 - g) + log_b))
    return {**row, "exact": exact,
            "rel_err": abs(row["output"]["chi_tilde"] / exact - 1.0)}


def _cli_solve() -> dict:
    """The README's ``pam1d solve`` command, against its screening bound.

    The bound is ``pam1d lbound --t 1e4 --radius 8 --seed 3`` computed in
    process: ``best_screening_bound`` on sites +-168, search 160.  It is a
    certified lower bound of u(t, 0), so a negative gap means the solve
    stopped below the truth.
    """
    row = _time_cli(SOLVE_ARGS, {"spec.json": json.dumps(README_SPEC)})
    sys.path.insert(0, str(ROOT / "src"))
    from pam1d.montecarlo import best_screening_bound
    from pam1d.potential import sample_field, spec_from_json
    search = 20 * LBOUND_RADIUS
    half = search + LBOUND_RADIUS
    fld = sample_field(spec_from_json(json.dumps(README_SPEC)), -half, half,
                       SOLVE_SEED)
    log_lb, y_star = best_screening_bound(fld, 1.0, SOLVE_T, search,
                                          LBOUND_RADIUS)
    return {**row, "spec": README_SPEC, "log_lb": log_lb, "y_star": y_star,
            "gap": row["output"]["log_u"] - log_lb}


def _increasing(xs) -> bool:
    return all(a < b for a, b in zip(xs, xs[1:]))


def _rate_columns() -> list:
    sys.path.insert(0, str(ROOT / "src"))
    from pam1d.experiments import RateCurve
    return [f.name for f in dataclasses.fields(RateCurve)]


# The README's table commands: (arguments, spec, the README's check of the
# JSON columns, that check in words)
TABLE_ROWS = [
    (["rate", "--spec", "spec.json", "--seeds", "2"], README_SPEC,
     lambda c: (list(c) == _rate_columns()
                and all(type(v) is bool for v in c["converged"])),
     "columns are the fields of RateCurve, converged holds booleans"),
    (["verify-h", "--spec", "spec.json"], README_SPEC,
     lambda c: max(c["deviation"]) < 1e-12,
     "every deviation is below 1e-12"),
    (["verify-lln", "--spec", "spec.json", "--seeds", "100"], README_SPEC,
     lambda c: _increasing(c["median"]) and c["frac_gt_1"][-1] == 1,
     "medians grow along n, every seed is above 1 at the largest n"),
    (["verify-last", "--spec", "spec.json"], README_SPEC,
     lambda c: (_increasing(c["median"][::-1])
                and _increasing(c["frac_le_1p2"])),
     "medians fall and frac_le_1p2 rises along n"),
    (["verify-microbox", "--spec", "micro.json", "--R", "0.5"], MICRO_SPEC,
     lambda c: all(f == 1 for f in c["frequency"]),
     "every frequency is 1"),
]


def _cli_table(args: list, spec: dict, check, statement: str) -> dict:
    """A README table command, in JSON, against the README's check."""
    row = _time_cli(args + TABLE_FLAGS, {args[2]: json.dumps(spec)})
    return {**row, "spec": spec, "check": statement,
            "ok": bool(check(row["output"]))}


def _tier1() -> dict:
    """One tier-1 run: wall time, outcome counts, the slowest phases."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1_ARGS], cwd=ROOT,
                          env=_src_env(), capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    # the summary, e.g. "387 passed, 1 xfailed in 52.90s", is the last line
    counts = {name: int(n) for n, name in
              re.findall(r"(\d+) (\w+)", lines[-1].split(" in ")[0])}
    slowest = [{"seconds": float(m[1]), "phase": m[2], "test": m[3]}
               for m in (re.match(r"([\d.]+)s (\w+) +(.+)$", ln)
                         for ln in lines) if m]
    return {"command": ["python", *TIER1_ARGS], "wall_s": wall,
            "returncode": proc.returncode, "counts": counts,
            "slowest": slowest}


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
    cli = [_cli_fk(), _cli_chi(), _cli_solve()]
    print(f"pam1d fk: median {cli[0]['wall_s_median']:.3f} s, "
          f"z {cli[0]['z']:.2f}", file=sys.stderr)
    print(f"pam1d chi: median {cli[1]['wall_s_median']:.3f} s, "
          f"rel err {cli[1]['rel_err']:.2e}", file=sys.stderr)
    print(f"pam1d solve: median {cli[2]['wall_s_median']:.3f} s, "
          f"log_u - log_lb {cli[2]['gap']:.2f}", file=sys.stderr)
    for table in TABLE_ROWS:
        cli.append(_cli_table(*table))
        print(f"pam1d {table[0][0]}: median {cli[-1]['wall_s_median']:.3f} s, "
              f"ok {cli[-1]['ok']}", file=sys.stderr)
    tier1 = _tier1()
    print(f"tier-1: {tier1['wall_s']:.1f} s, {tier1['counts']}",
          file=sys.stderr)
    args.out.write_text(json.dumps({"environment": environment, "runs": runs,
                                    "cli": cli, "tier1": tier1}, indent=1)
                        + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
