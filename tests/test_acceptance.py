"""Acceptance gate: the nine headline criteria, one test (and one pass/fail
line under ``pytest -v``) per criterion.

Each test states its tolerance and instance counts inline; the parameters
are fixed, not tuned per run.
"""

import json
import math

import numpy as np
import pytest

from pam1d.cli import main as cli_main
from pam1d.experiments import (ExperimentConfig, check_last, check_lln,
                               rate_curve)
from pam1d.lattice import solve_box, solve_point_log
from pam1d.montecarlo import (best_screening_bound, fk_estimate,
                              screening_lower_bound)
from pam1d.potential import (Field, LowerTailSpec, PotentialSpec, cumulant_G,
                             sample_field)
from pam1d.scales import ScaleParams, alpha, b_scale, r_box
from pam1d.variational import (ShapeFunction, VariationalConfig,
                               brute_legendre, chi_tilde, legendre_L)

from conftest import make_spec


def test_criterion_1_eigenvalue_sandwich():
    """e_R(z)^2 e^{t lambda} <= u_R(t, z) <= (2R+1) e^{t lambda}:
    zero violations on 200 random instances."""
    rng = np.random.default_rng(20260823)
    violations = 0
    n_instances = 200
    for i in range(n_instances):
        gamma = 0.0 if i % 2 == 0 else 0.5
        zeta = 0.5 if (i // 2) % 2 == 0 else 1.0
        spec = make_spec(gamma, zeta)
        R = int(rng.integers(2, 51))
        t = float(rng.uniform(0.1, 10.0))
        fld = sample_field(spec, -R, R, 1000 + i)
        sol = solve_point_log(fld, 0, R, 1.0, t)
        lower = 2.0 * sol.log_e_center + t * sol.principal
        upper = math.log(2 * R + 1) + t * sol.principal
        if not (lower <= sol.log_u + 1e-9 and sol.log_u <= upper + 1e-9):
            violations += 1
    assert violations == 0


def test_criterion_2_monte_carlo_vs_exact():
    """Box-mode fk_estimate within 4 stderr of solve_box on 50 instances,
    1e5 samples each.

    Instances are drawn from the random-field family at R = 10, t = 3 and
    kept only when the exact box value is at least 1e-5: below that the
    solution mass sits on path events rarer than the sample budget resolves,
    so a 4-stderr comparison carries no information about estimator
    correctness (the stderr itself is then dominated by unobserved mass).
    """
    failures = 0
    accepted = 0
    seed = 2000
    while accepted < 50:
        spec = make_spec(0.0 if seed % 2 else 0.5, 1.0)
        fld = sample_field(spec, -10, 10, seed)
        t = 3.0
        exact = solve_box(fld, 0, 10, 1.0, t)[10]
        seed += 1
        if exact < 1e-5:
            continue
        res = fk_estimate(fld, 1.0, t, 100_000, seed - 1, box=10)
        tol = 4.0 * max(res.stderr, 1e-14)
        if abs(res.estimate - exact) > tol:
            failures += 1
        accepted += 1
    assert failures == 0


def test_criterion_3_legendre_oracle():
    """legendre_L vs brute_legendre within 2% on 50 profiles per gamma in
    {0.25, 0.5, 0.75}; gamma = 0 matches A |supp psi| within 2%."""
    rng = np.random.default_rng(3)
    for gamma in (0.25, 0.5, 0.75):
        for _ in range(50):
            n = int(rng.integers(5, 41))
            vals = -np.exp(rng.uniform(-2.0, 2.0, n))
            psi = ShapeFunction(R=float(rng.uniform(0.3, 4.0)), values=vals)
            a = float(rng.uniform(0.2, 3.0))
            exact = legendre_L(psi, a, gamma)
            brute = brute_legendre(psi, a, gamma)
            assert abs(brute - exact) <= 0.02 * exact
    # gamma = 0: the transform's pointwise limit is A on the support
    for _ in range(20):
        n = int(rng.integers(5, 41))
        vals = -np.exp(rng.uniform(-2.0, 1.0, n))
        psi = ShapeFunction(R=float(rng.uniform(0.3, 4.0)), values=vals)
        a = float(rng.uniform(0.2, 3.0))
        target = a * psi.h * n            # A |supp psi|
        assert abs(legendre_L(psi, a, 0.0) - target) <= 0.02 * target
        assert abs(brute_legendre(psi, a, 0.0) - target) <= 0.02 * target


def test_criterion_4_chi_closed_case():
    """chi_tilde(gamma=0, A, kappa) = kappa pi^2 A^2 within 1% for
    (A, kappa) in {(log 2, 1), (1, 1), (1, 2)}."""
    for a, kappa in ((math.log(2.0), 1.0), (1.0, 1.0), (1.0, 2.0)):
        res = chi_tilde(VariationalConfig(A=a, gamma=0.0, kappa=kappa))
        target = kappa * math.pi ** 2 * a ** 2
        assert abs(res.chi - target) <= 0.01 * target


def test_criterion_5_scale_identities():
    """b_t / alpha(b_t)^2 = -log G(t) to 1e-10 relative on 100 points;
    r(t) growth exponent within 0.1 of zeta for zeta in {0.5, 1}."""
    rng = np.random.default_rng(5)
    spec = make_spec(0.0, 1.0)
    params = ScaleParams.from_spec(spec)
    ts = np.exp(rng.uniform(math.log(10.0), math.log(1e12), 100))
    for t in ts:
        b = b_scale(spec, params, float(t))
        lhs = b / alpha(params, b) ** 2
        rhs = -math.log(cumulant_G(spec, float(t)))
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)
    for zeta in (0.5, 1.0):
        zspec = make_spec(0.0, zeta)
        grid = np.geomspace(1e3, 1e6, 7)
        rs = np.array([r_box(zspec, float(t)) for t in grid])
        slope = np.polyfit(np.log(grid), np.log(rs), 1)[0]
        assert abs(slope - zeta) < 0.1


def test_criterion_6_lln_and_last_statistics():
    """Divergence statistic > 1 at n = 1e4 on >= 90% of 100 seeds with
    increasing median over n in {1e2, 1e3, 1e4}; converse statistic <= 1.2
    on >= 90% of 100 seeds at n = 1e4."""
    spec = make_spec(0.0, 1.0)
    tab = check_lln(spec, 1.0, [100, 1000, 10_000], range(100))
    assert tab["frac_gt_1"][-1] >= 0.9
    med = np.median(tab["stats"], axis=0)
    assert med[0] < med[1] < med[2]
    last_spec = make_spec(0.0, 0.5)
    last, rho = check_last(last_spec, 0.5, [10_000], range(100))
    assert rho > 0
    assert last["frac_le_1p2"][0] >= 0.9


def test_criterion_7_rate_trend():
    """gamma = 0 spec with P(xi = 0) = 1/2 and zeta = 1: over 20 seeds the
    seed-median rho(t) is negative, decreasing over t in [1e2, 1e4], and at
    t = 1e4 within a factor of 3 of -pi^2 (log 2)^2.  Trend check only; the
    t -> infinity limit itself is out of reach."""
    spec = PotentialSpec(gamma=0.0, mix_q=0.2,
                         lower=LowerTailSpec.pareto(1.0), atom_p=0.625)
    assert (1 - spec.mix_q) * spec.atom_p == pytest.approx(0.5)
    cfg = ExperimentConfig(spec=spec, kappa=1.0, seeds=tuple(range(20)),
                           rtol=1e-4)
    curve = rate_curve(cfg, np.array([1e2, 1e3, 1e4]), r_cap=1 << 16)
    assert np.all(curve.converged)
    ts, med = curve.median_rho()
    assert np.all(med < 0.0)
    assert med[0] > med[1] > med[2]
    chi = math.pi ** 2 * math.log(2.0) ** 2
    assert chi / 3.0 <= -med[-1] <= 3.0 * chi


def test_criterion_8_screening_lower_bound():
    """Screening bound <= exact log u(t, 0): zero violations on 100 small
    instances; the planted-window field is located by the scan."""
    violations = 0
    search, Rmicro, half = 40, 5, 60
    for i in range(100):
        spec = make_spec(0.0 if i % 2 else 0.5, 1.0)
        fld = sample_field(spec, -half, half, 3000 + i)
        t = float(2.0 + (i % 8))
        exact = solve_point_log(fld, 0, half, 1.0, t).log_u
        try:
            lb, _ = best_screening_bound(fld, 1.0, t, search, Rmicro)
        except ValueError:
            continue
        if lb > exact + 1e-9:
            violations += 1
    assert violations == 0
    # planted clean window at +50 inside absorbing walls
    lo, hi = -80, 80
    log_neg_xi = np.ones(hi - lo + 1)    # log(-xi) = 1 -> xi = -e
    for x in (0, *range(47, 54)):
        log_neg_xi[x - lo] = -np.inf     # xi = 0
    planted = Field(lo=lo, hi=hi, log_neg_xi=log_neg_xi)
    _, y_star = best_screening_bound(planted, 1.0, 200.0, 70, 1)
    assert 47 <= y_star <= 53


def test_criterion_9_determinism(tmp_path):
    """Two identically-seeded runs of the verification commands produce
    byte-identical outputs under --deterministic."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"gamma":0.0,"upper":{"atom_p":0.95},"mix_q":0.1,'
                         '"lower":{"pareto_zeta":1.0}}')
    commands = [
        ["scales", "--t-grid", "1e3:1e9:geometric:8"],
        ["field", "--lo", "-20", "--hi", "20"],
        ["solve", "--t", "20"],
        ["fk", "--t", "2", "--samples", "2000", "--box", "20"],
        ["lbound", "--t", "5", "--radius", "5"],
        ["verify-h", "--t-grid", "1e4:1e6:geometric:2"],
        ["verify-lln", "--n-grid", "100:1000:geometric:2", "--seeds", "5"],
        ["verify-last", "--n-grid", "1000:1000:geometric:1", "--seeds", "5"],
        ["verify-microbox", "--R", "0.5", "--depth", "0.05", "--seeds", "3"],
    ]
    for j, cmd in enumerate(commands):
        outputs = []
        for run in range(2):
            path = tmp_path / f"out_{j}_{run}"
            code = cli_main([cmd[0], "--spec", str(spec_path), "--seed", "7",
                             "--deterministic", "--out", str(path)] + cmd[1:])
            assert code == 0, f"{cmd[0]} failed"
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1], f"{cmd[0]} output not reproducible"
