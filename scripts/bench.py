"""Run every benchmark workload with tracing off and on; write one JSON file.

Usage, from the root of a source checkout:

    python3 scripts/bench.py --out BENCH_<n>.json

For each workload of BENCHMARK.json and for ``--trace 0`` and ``--trace 1``,
this runs ``perfbench/run.py --workload W --seed 0 --seconds 5 --trace T`` in
its own interpreter and keeps the JSON lines that it prints.  The file holds
the environment line of the first run (machine, numpy/scipy versions, BLAS
thread settings) and, per run, the remaining lines: the run's pass record and
its metrics.  A run that exits non-zero stops the script with its stderr.

End-to-end CLI rows (``cli``) come from one list, ``CLI_ROWS``, of the
README's commands: per row, the arguments, the spec that the ``--spec`` file
holds, the check in words and its judge.  A command runs 5 times, each in a
fresh interpreter from start-up to exit, with ``--deterministic`` (and
``--format json`` for a table) so that it prints plain JSON.  Its row keeps
the wall times and their median, the peak resident memory that the process
reports, the spec, the output, the check, and what the judge makes of the
output: the oracle numbers and ``ok``.  ``fk`` is judged by the z-score of
its estimate against ``solve_box`` (|z| <= 4, the rule of ``fk_check``),
``chi`` by its relative error against the closed form (at most 1e-3, as in
``chi_scan``), ``solve`` by the gap log_u - log_lb to the certified bound of
``pam1d lbound --t 1e4 --radius 8 --seed 3`` (not negative), and the table
commands by the checks that the README states for them.

The tier-1 row (``tier1``) runs the tier-1 suite 3 times, each in a fresh
interpreter as the README's Tests section runs it, with ``--durations=10``.
It keeps each run's wall time, exit code, outcome counts and 10 slowest
test phases, and the median and spread (largest minus smallest) of the
wall times.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import fields
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from pam1d.experiments import RateCurve  # noqa: E402
from pam1d.lattice import solve_box  # noqa: E402
from pam1d.montecarlo import best_screening_bound  # noqa: E402
from pam1d.potential import sample_field, spec_from_json  # noqa: E402

SECONDS = 5
CLI_REPEATS = 5
FRECHET_SPEC = {"gamma": 0.5, "upper": {"frechet_d": 1.0}, "mix_q": 0.2,
                "lower": {"pareto_zeta": 1.0}}
FK_Z_MAX = 4  # the fk_check workload's rule
CHI_GAMMA, CHI_A = 0.5, 0.693147
CHI_RTOL = 1e-3  # the chi_scan workload's tolerance
README_SPEC = {"gamma": 0.0, "upper": {"atom_p": 0.625}, "mix_q": 0.2,
               "lower": {"pareto_zeta": 1.0}}
SOLVE_SEED, SOLVE_T = 3, 1e4
LBOUND_RADIUS = 8  # pam1d lbound searches 20 radii by default
# the README's microbox spec: xi = 0 on 85 % of sites
MICRO_SPEC = {"gamma": 0.0, "upper": {"atom_p": 0.95}, "mix_q": 0.1,
              "lower": {"pareto_zeta": 1.0}}
TABLE_FLAGS = ["--format", "json", "--deterministic"]
TIER1_RUNS = 3
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


def _judge_fk(out: dict) -> dict:
    """The estimate against ``solve_box`` on the same field."""
    fld = sample_field(spec_from_json(json.dumps(FRECHET_SPEC)), -10, 10, 0)
    exact = float(solve_box(fld, 0, 10, 1.0, 3.0)[10])
    z = (out["mean"] - exact) / out["stderr"]
    return {"exact": exact, "z": z, "ok": abs(z) <= FK_Z_MAX}


def _judge_chi(out: dict) -> dict:
    """chi against the closed form (kappa = 1), without the profile: chi =
    [A^(1/(1-g)) B(p + 1/2, 1/2)]^(2(1-g)/(1+g)), p = g/(1-g), with B from
    ``math.lgamma`` as in tier-1."""
    g, a = CHI_GAMMA, CHI_A
    p = g / (1 - g)
    log_b = math.lgamma(p + 0.5) + math.lgamma(0.5) - math.lgamma(p + 1)
    exact = math.exp(2 * (1 - g) / (1 + g) * (math.log(a) / (1 - g) + log_b))
    rel_err = abs(out["chi_tilde"] / exact - 1.0)
    return {"output": {k: v for k, v in out.items() if k != "psi_grid"},
            "exact": exact, "rel_err": rel_err, "ok": rel_err <= CHI_RTOL}


def _judge_solve(out: dict) -> dict:
    """log_u against the certified screening bound of ``pam1d lbound --t 1e4
    --radius 8 --seed 3``, computed in process: ``best_screening_bound`` on
    sites +-168, search 160.  A negative gap means the solve stopped below
    the truth."""
    search = 20 * LBOUND_RADIUS
    half = search + LBOUND_RADIUS
    fld = sample_field(spec_from_json(json.dumps(README_SPEC)), -half, half,
                       SOLVE_SEED)
    log_lb, y_star = best_screening_bound(fld, 1.0, SOLVE_T, search,
                                          LBOUND_RADIUS)
    gap = out["log_u"] - log_lb
    return {"log_lb": log_lb, "y_star": y_star, "gap": gap, "ok": gap >= 0}


def _increasing(xs) -> bool:
    return all(a < b for a, b in zip(xs, xs[1:]))


# (arguments, the spec that the --spec file holds or None, the check in
# words, the judge: JSON output -> oracle numbers and ok)
CLI_ROWS = [
    (["fk", "--spec", "spec.json", "--t", "3", "--samples", "100000",
      "--box", "10", "--deterministic"], FRECHET_SPEC,
     f"|z| <= {FK_Z_MAX} against solve_box", _judge_fk),
    (["chi", "--gamma", str(CHI_GAMMA), "--A", str(CHI_A), "--deterministic"],
     None, f"relative error <= {CHI_RTOL:g} against the closed form",
     _judge_chi),
    (["solve", "--spec", "spec.json", "--seed", str(SOLVE_SEED), "--t", "1e4",
      "--deterministic"], README_SPEC,
     "log_u >= the bound of lbound --t 1e4 --radius 8 --seed 3",
     _judge_solve),
    (["rate", "--spec", "spec.json", "--seeds", "2", *TABLE_FLAGS],
     README_SPEC,
     "columns are the fields of RateCurve, converged holds booleans",
     lambda c: {"ok": (list(c) == [f.name for f in fields(RateCurve)]
                       and all(type(v) is bool for v in c["converged"]))}),
    (["verify-h", "--spec", "spec.json", *TABLE_FLAGS], README_SPEC,
     "every deviation is below 1e-12",
     lambda c: {"ok": max(c["deviation"]) < 1e-12}),
    (["verify-lln", "--spec", "spec.json", "--seeds", "100", *TABLE_FLAGS],
     README_SPEC,
     "medians grow along n, every seed is above 1 at the largest n",
     lambda c: {"ok": _increasing(c["median"]) and c["frac_gt_1"][-1] == 1}),
    (["verify-last", "--spec", "spec.json", *TABLE_FLAGS], README_SPEC,
     "medians fall and frac_le_1p2 rises along n",
     lambda c: {"ok": (_increasing(c["median"][::-1])
                       and _increasing(c["frac_le_1p2"]))}),
    (["verify-microbox", "--spec", "micro.json", "--R", "0.5", *TABLE_FLAGS],
     MICRO_SPEC, "every frequency is 1",
     lambda c: {"ok": all(f == 1 for f in c["frequency"])}),
]


def _cli_row(args: list, spec: dict | None, check: str, judge) -> dict:
    """One ``CLI_ROWS`` entry: ``pam1d args`` timed in fresh interpreters, in
    a directory that holds the spec file, and judged."""
    walls, rss_kb = [], []
    with tempfile.TemporaryDirectory() as tmp:
        if spec is not None:
            (Path(tmp) / args[args.index("--spec") + 1]).write_text(
                json.dumps(spec), encoding="utf-8")
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
    out = json.loads(proc.stdout)
    row = {"command": ["pam1d", *args], "wall_s": walls,
           "wall_s_median": statistics.median(walls),
           "peak_rss_mb": max(rss_kb) / 1024.0, "output": out}
    if spec is not None:
        row["spec"] = spec
    return {**row, "check": check, **judge(out)}


def _tier1() -> dict:
    """TIER1_RUNS tier-1 runs: wall times, outcome counts, slowest phases."""
    runs = []
    for _ in range(TIER1_RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *TIER1_ARGS], cwd=ROOT,
                              env=_src_env(), capture_output=True, text=True)
        wall = time.perf_counter() - start
        lines = proc.stdout.splitlines()
        # the summary, e.g. "387 passed, 1 xfailed in 52.90s", is the last
        counts = {name: int(n) for n, name in
                  re.findall(r"(\d+) (\w+)", lines[-1].split(" in ")[0])}
        slowest = [{"seconds": float(m[1]), "phase": m[2], "test": m[3]}
                   for m in (re.match(r"([\d.]+)s (\w+) +(.+)$", ln)
                             for ln in lines) if m]
        runs.append({"wall_s": wall, "returncode": proc.returncode,
                     "counts": counts, "slowest": slowest})
    walls = [run["wall_s"] for run in runs]
    return {"command": ["python", *TIER1_ARGS], "runs": runs,
            "wall_s_median": statistics.median(walls),
            "wall_s_spread": max(walls) - min(walls)}


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
    cli = []
    for row in CLI_ROWS:
        cli.append(_cli_row(*row))
        print(f"pam1d {row[0][0]}: median {cli[-1]['wall_s_median']:.3f} s, "
              f"ok {cli[-1]['ok']} ({row[2]})", file=sys.stderr)
    tier1 = _tier1()
    print(f"tier-1: median {tier1['wall_s_median']:.1f} s, spread "
          f"{tier1['wall_s_spread']:.1f} s, "
          f"{[run['counts'] for run in tier1['runs']]}", file=sys.stderr)
    args.out.write_text(json.dumps({"environment": environment, "runs": runs,
                                    "cli": cli, "tier1": tier1}, indent=1)
                        + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
