"""pam1d benchmark: one workload in one process, checked against oracles.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload rate_sweep --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1``
they are the per-layer ones, from timing wrappers installed on pam1d's
module attributes (see tracing.py).  The lines before it record the
environment and the items that failed their checks.  Workloads, metrics and
the defects known at the baseline are described in NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "PAM1D_THREADS")
SETUP_SAMPLES = 5          # this process plus four fresh interpreters
STAT_MISSES_ALLOWED = 1    # FK 4-sigma misses per pass that chance explains
NOT_MEASURED = 1.0         # accuracy metric of another workload (see NOTES.md)


def _load_spec() -> dict:
    """BENCHMARK.json: the workloads and the metrics a run reports."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _names_units(metrics: list) -> list:
    return [(m["name"], m["unit"]) for m in metrics]


def _setup(workload: str, seed: int):
    """Import pam1d and build the workload; returns (workload, seconds)."""
    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[workload](seed)
    return wl, time.perf_counter() - t0


def _setup_in_fresh_interpreter(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _one_pass(wl, tracer=None) -> tuple:
    """(wall_s, cpu_s, outputs) of one pass, traced when ``tracer`` is given."""
    if tracer is None:
        w0, c0 = time.perf_counter(), time.process_time()
        out = wl.run_pass()
        return time.perf_counter() - w0, time.process_time() - c0, out
    with tracing.installed(tracer):
        return _one_pass(wl)


def _timed_passes(wl, seconds: float, tracer=None) -> list:
    """Repeat the pass while another one is expected to fit in ``seconds``;
    returns [(wall_s, cpu_s, outputs)], at least one pass.  With a tracer,
    each round is an untraced pass followed by a traced one, so that the
    machine's drift cancels between the two."""
    passes = []
    start = time.perf_counter()
    while True:
        rnd = [_one_pass(wl)]
        if tracer is not None:
            rnd.append(_one_pass(wl, tracer))
        passes += rnd
        elapsed = time.perf_counter() - start
        if elapsed + sum(w for w, _, _ in rnd) > seconds:
            return passes


def _environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _judge(wl, passes: list) -> dict:
    """Check every pass; counts, new failures and the verdict."""
    attempted = failed = ok = 0
    new_failures, known_seen = set(), set()
    stat_misses = 0
    for _, _, out in passes:
        items = wl.check(out)
        attempted += len(items)
        failed += sum(it.raised for it in items)
        ok += sum(it.ok for it in items)
        misses = [it for it in items if not it.ok]
        pass_stat = sum(it.statistical and not it.raised for it in misses)
        stat_misses = max(stat_misses, pass_stat)
        for it in misses:
            if it.id in wl.KNOWN_DEFECTS:
                known_seen.add(it.id)
            elif not it.statistical or it.raised:
                new_failures.add(it.id)
    deterministic = all(out == passes[0][2] for _, _, out in passes)
    correct = (failed == 0 and deterministic and not new_failures
               and stat_misses <= STAT_MISSES_ALLOWED)
    return {"attempted": attempted, "failed": failed, "ok": ok,
            "correct": correct, "deterministic": deterministic,
            "new_failures": sorted(new_failures),
            "known_defects_seen": sorted(known_seen),
            "fk_4sigma_misses_max": stat_misses}


def main(argv=None) -> int:
    spec = _load_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "pam1d" / "__init__.py").is_file():
        print(f"error: no pam1d sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    wl, setup_s = _setup(args.workload, args.seed)
    import pam1d
    if Path(pam1d.__file__).resolve().parent != SRC / "pam1d":
        print(f"error: imported pam1d from {pam1d.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        print(setup_s)
        return 0

    setups = [setup_s]
    if not args.trace:
        setups += [_setup_in_fresh_interpreter(args.workload, args.seed)
                   for _ in range(SETUP_SAMPLES - 1)]
    wl.prepare()
    tracer = tracing.Tracer() if args.trace else None
    passes = _timed_passes(wl, args.seconds, tracer)
    verdict = _judge(wl, passes)

    if args.trace:
        untraced, traced = passes[0::2], passes[1::2]
        overhead_s = statistics.median(
            t[0] - u[0] for u, t in zip(untraced, traced))
        metrics = tracer.metrics(_names_units(spec["per_layer"]),
                                 len(traced), overhead_s)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(w for w, _, _ in passes),
            "cpu_s": statistics.median(c for _, c, _ in passes),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": verdict["ok"] / verdict["attempted"],
            "fk_rel_stderr": NOT_MEASURED,
            "chi_rel_err_max": NOT_MEASURED,
            **wl.accuracy(passes[0][2]),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in _names_units(spec["end_to_end"])}

    print(json.dumps({"environment": _environment()}))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "passes": len(passes),
                      "pass_wall_s": [round(w, 4) for w, _, _ in passes],
                      **{k: v for k, v in verdict.items()
                         if k not in ("attempted", "failed", "correct")}}))
    print(json.dumps({"correct": verdict["correct"],
                      "attempted": verdict["attempted"],
                      "failed": verdict["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
