"""Self-tests of the benchmark: oracles, checks, tracing wrappers, contract.

Run from the repository root (takes about ten seconds):

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from pam1d import (experiments, lattice, montecarlo, potential,  # noqa: E402
                   variational)

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# Oracles


@pytest.mark.parametrize("A,kappa", [(math.log(2.0), 1.0), (1.0, 1.0), (1.0, 2.0)])
def test_chi_closed_form_at_gamma_zero(A, kappa):
    assert oracles.chi_exact(A, 0.0, kappa) == pytest.approx(
        kappa * math.pi ** 2 * A ** 2, rel=1e-14)


def test_chi_closed_form_at_gamma_half():
    assert oracles.chi_exact(1.0, 0.5, 1.0) == pytest.approx(
        (math.pi / 2.0) ** (2.0 / 3.0), rel=1e-13)
    assert abs(oracles.chi_exact(1.0, 0.5, 1.0) - 1.3512838) < 1e-7


def test_chi_closed_form_is_finite_at_small_gamma():
    chi = oracles.chi_exact(math.log(2.0), 1e-3, 1.0)
    assert math.isfinite(chi) and chi > 0.0


def test_screening_bound_stays_below_exact():
    spec = workloads.RateSweep.SPEC
    t = 100.0
    bound = oracles.screening_table(spec, [0], [t], 1.0)[(t, 0)]
    fld = potential.sample_field(spec, -200, 200, 0)
    assert math.isfinite(bound)
    assert bound <= lattice.solve_point_log(fld, 0, 200, 1.0, t).log_u


def test_fk_agreement_is_four_sigma():
    assert oracles.fk_agrees(1.0 + 3.9e-3, 1e-3, 1.0)
    assert not oracles.fk_agrees(1.0 + 4.1e-3, 1e-3, 1.0)


# ---------------------------------------------------------------------------
# Checks: planted failures must show


def _rate_sweep_with_bounds(bound: float):
    wl = workloads.RateSweep(0)
    wl.bounds = {(float(t), s): bound for t in wl.T_VALUES for s in wl.SEEDS}
    out = {wl.item_id(t, s): (-5.0, True)
           for t in wl.T_VALUES for s in wl.SEEDS}
    return wl, out


def test_planted_row_below_its_bound_is_a_failure():
    wl, out = _rate_sweep_with_bounds(-10.0)
    key = wl.item_id(wl.T_VALUES[0], 0)
    out[key] = (-20.0, True)
    verdict = run._judge(wl, [(1.0, 1.0, out)])
    assert verdict["ok"] / verdict["attempted"] == pytest.approx(0.99)
    assert verdict["new_failures"] == [key]
    assert not verdict["correct"]


def test_known_defect_row_is_counted_but_expected():
    wl, out = _rate_sweep_with_bounds(-10.0)
    key = sorted(wl.KNOWN_DEFECTS)[0]
    out[key] = (-20.0, True)
    verdict = run._judge(wl, [(1.0, 1.0, out)])
    assert verdict["ok"] == 99
    assert verdict["known_defects_seen"] == [key]
    assert verdict["correct"]


def test_raised_row_counts_as_failed_operation():
    wl, out = _rate_sweep_with_bounds(-10.0)
    key = wl.item_id(wl.T_VALUES[1], 3)
    out[key] = workloads.Raised("ArithmeticError: boom")
    verdict = run._judge(wl, [(1.0, 1.0, out)])
    assert verdict["failed"] == 1 and not verdict["correct"]


def test_planted_chi_error_shows_in_chi_rel_err_max():
    wl = workloads.ChiScan(0)
    wl.prepare()
    out = {k: (v, 10) for k, v in wl.exact.items()}
    out["gamma=0.5"] = (1.05 * wl.exact["gamma=0.5"], 10)
    assert wl.accuracy(out)["chi_rel_err_max"] == pytest.approx(0.05)
    verdict = run._judge(wl, [(1.0, 1.0, out)])
    assert verdict["new_failures"] == ["gamma=0.5"]
    assert not verdict["correct"]


def test_nondeterministic_passes_are_incorrect():
    wl, out = _rate_sweep_with_bounds(-10.0)
    other = dict(out)
    key = wl.item_id(wl.T_VALUES[0], 1)
    other[key] = (-5.5, True)
    verdict = run._judge(wl, [(1.0, 1.0, out), (1.0, 1.0, other)])
    assert not verdict["deterministic"] and not verdict["correct"]


def test_screening_value_error_is_a_failure(monkeypatch):
    wl = workloads.FkCheck(0)
    fld = potential.sample_field(workloads._spec(0.0), -20, 20, 1)
    wl.screen_inputs = [(1, fld, 3.0, 0.0)]

    def infeasible(*args, **kwargs):
        raise ValueError("no feasible screening candidate in the search range")
    monkeypatch.setattr(montecarlo, "best_screening_bound", infeasible)
    verdict = run._judge(wl, [(1.0, 1.0, wl.run_pass())])
    assert verdict["failed"] == 1 and not verdict["correct"]


# ---------------------------------------------------------------------------
# Tracing


def _layer_calls():
    spec = workloads.RateSweep.SPEC
    cfg = experiments.ExperimentConfig(spec=spec, seeds=(0, 1), rtol=1e-4)
    fld = potential.sample_field(spec, -20, 20, 5)
    vcfg = variational.VariationalConfig(A=1.0, gamma=0.5, n_grid=21, max_iter=5)
    curve = experiments.rate_curve(cfg, np.array([50.0]))
    fk = montecarlo.fk_estimate(fld, 1.0, 2.0, 2000, 3, box=6)
    lb = montecarlo.best_screening_bound(fld, 1.0, 4.0, 12, 2)
    chi = variational.chi_tilde(vcfg, r_max=2.0)
    return [curve.log_u.tolist(), curve.R_used.tolist(), curve.converged.tolist(),
            fk, lb, chi.chi, chi.iterations, chi.budget]


def test_wrappers_leave_results_unchanged_and_are_removed():
    originals = [(m, a, getattr(sys.modules[m], a))
                 for m, a, _, _ in tracing.WRAPPED]
    plain = _layer_calls()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert all(getattr(sys.modules[m], a) is not f for m, a, f in originals)
        traced = _layer_calls()
    assert traced == plain
    assert all(getattr(sys.modules[m], a) is f for m, a, f in originals)
    assert set(tracer.stats) == {span for _, _, span, _ in tracing.WRAPPED}


def test_trace_counters_and_self_time():
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        _layer_calls()
    layer = run._names_units(run._load_spec()["per_layer"])
    m = {k: v["value"] for k, v in tracer.metrics(layer, 1, 0.0).items()}
    assert set(m) == {name for name, _ in layer}
    assert m["lattice.solve_adaptive.calls"] == 2
    assert m["lattice.solve_point_log.calls"] == m["potential.sample_field.calls"]
    assert m["lattice.solve_point_log.sites"] == m["potential.sample_field.sites"]
    assert m["montecarlo.fk_estimate.paths"] == 2000
    # max_iter = 5 caps every KKT run: two starts at R = 1 and at R = 2
    assert m["variational.chi_tilde.maxiter_hits"] == 4
    assert m["variational.chi_tilde.iterations"] == 20
    assert 0.0 < m["lattice.solve_point_log.self_s"] \
        < tracer.stats["lattice.solve_point_log"].busy
    assert m["lattice.principal_eigpair.calls"] \
        == m["montecarlo.screening_lower_bound.calls"] \
        - m["montecarlo.screening_lower_bound.infeasible"]


# ---------------------------------------------------------------------------
# Contract


def test_benchmark_json_names_the_workloads():
    names = [w["name"] for w in run._load_spec()["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "chi_scan",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
