import math

import numpy as np
import pytest
from scipy.linalg import expm

from pam1d.lattice import (hamiltonian, principal_eigpair, solve_adaptive,
                           solve_box, solve_point_log, truncation_product)
from pam1d.potential import Field, XI_CLAMP, sample_field

from conftest import constant_field, make_spec, zero_field


def _dense_matrix(field, z, R, kappa):
    """Small dense form of kappa*Laplacian + xi with the solver clamp."""
    xi, _ = field.xi_clamped(z - R, z + R)
    n = 2 * R + 1
    m = np.diag(xi - 2.0 * kappa)
    m += np.diag(np.full(n - 1, kappa), 1) + np.diag(np.full(n - 1, kappa), -1)
    return m


def _random_light_field(rng, lo, hi, depth=5.0):
    """Field of light sites with values uniform in [-depth, 0]."""
    vals = -depth * rng.random(hi - lo + 1)
    return Field(lo=lo, hi=hi, heavy=np.zeros(hi - lo + 1, bool), values=vals)


class TestHamiltonian:
    def test_free_principal_eigenvalue(self):
        # xi = 0: largest eigenvalue of the Dirichlet Laplacian on n sites
        # is -2 kappa (1 - cos(pi/(n+1)))
        R, kappa = 12, 1.5
        op = hamiltonian(zero_field(-R, R), 0, R, kappa)
        pe = principal_eigpair(op)
        n = 2 * R + 1
        target = -2.0 * kappa * (1.0 - math.cos(math.pi / (n + 1)))
        assert pe.principal == pytest.approx(target, rel=1e-12)

    def test_free_eigvec_is_sine(self):
        R = 10
        op = hamiltonian(zero_field(-R, R), 0, R, 1.0)
        pe = principal_eigpair(op)
        n = 2 * R + 1
        sine = np.sin(math.pi * np.arange(1, n + 1) / (n + 1))
        sine /= np.linalg.norm(sine)
        assert np.allclose(np.abs(pe.eigvec), sine, atol=1e-10)

    def test_clamp_representation(self):
        # heavy sites with W > log(XI_CLAMP) enter the diagonal exactly at
        # -XI_CLAMP, the moderately heavy W = 20 (between log 1e8 and
        # log 1e12) as well as the extreme W = 1000
        kappa = 1.5
        fld = Field(lo=-2, hi=2,
                    heavy=np.array([False, True, False, True, False]),
                    values=np.array([0.0, 1000.0, 0.0, 20.0, 0.0]))
        op = hamiltonian(fld, 0, 2, kappa)
        assert op.clamped.tolist() == [False, True, False, True, False]
        for i in (1, 3):
            assert op.diag[i] == -XI_CLAMP - 2.0 * kappa
            e = np.zeros(5)
            e[i] = 1.0
            col = op.matvec(e)
            assert col[i] == -XI_CLAMP - 2.0 * kappa
            assert col[i - 1] == col[i + 1] == kappa

    def test_invalid_args(self):
        fld = zero_field(-5, 5)
        with pytest.raises(ValueError):
            hamiltonian(fld, 0, 5, 0.0)
        with pytest.raises(ValueError):
            hamiltonian(fld, 0, -1, 1.0)

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(0)
        fld = _random_light_field(rng, -8, 8)
        op = hamiltonian(fld, 0, 8, 1.0)
        m = _dense_matrix(fld, 0, 8, 1.0)
        v = rng.standard_normal(17)
        assert np.allclose(op.matvec(v), m @ v, atol=1e-12)


class TestSolveBox:
    def test_against_matrix_exponential(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            fld = _random_light_field(rng, -7, 7)
            t = 2.5
            u = solve_box(fld, 0, 7, 1.0, t)
            ref = expm(t * _dense_matrix(fld, 0, 7, 1.0)) @ np.ones(15)
            assert np.allclose(u, ref, rtol=1e-9, atol=1e-12)

    def test_zero_potential_survival(self):
        # u_R(t, z) is the box-survival probability: in (0, 1], -> 1 as R grows
        t = 1.0
        small = solve_box(zero_field(-3, 3), 0, 3, 1.0, t)[3]
        large = solve_box(zero_field(-30, 30), 0, 30, 1.0, t)[30]
        assert 0.0 < small < large <= 1.0 + 1e-12
        assert large == pytest.approx(1.0, abs=1e-6)

    def test_monotone_in_radius(self):
        spec = make_spec(0.0, 1.0)
        fld = sample_field(spec, -40, 40, 3)
        t = 4.0
        u8 = solve_box(fld, 0, 8, 1.0, t)[8]
        u20 = solve_box(fld, 0, 20, 1.0, t)[20]
        u40 = solve_box(fld, 0, 40, 1.0, t)[40]
        tol = 1e-12 * max(u20, u40)
        assert u8 <= u20 + tol
        assert u20 <= u40 + tol

    def test_non_negative(self):
        spec = make_spec(0.5, 0.5)
        fld = sample_field(spec, -25, 25, 9)
        u = solve_box(fld, 0, 25, 1.0, 6.0)
        assert np.all(u >= 0.0)


class TestSolvePointLog:
    def test_matches_solve_box_moderate(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            fld = _random_light_field(rng, -9, 9)
            t = 3.0
            sol = solve_point_log(fld, 0, 9, 1.0, t)
            ref = solve_box(fld, 0, 9, 1.0, t)[9]
            assert sol.log_u == pytest.approx(math.log(ref), abs=1e-8)

    def test_deep_decay_against_shooting_free(self):
        # all-absorbing corridor: u(t, 0) in a wall field is dominated by
        # tunnelling; the log value must be finite, very negative, and
        # monotone in t
        fld = constant_field(-50, 50, -30.0)
        vals = [solve_point_log(fld, 0, 50, 1.0, t).log_u for t in (5.0, 10.0)]
        assert vals[0] > vals[1]
        assert vals[1] < -200.0

    def test_stability_across_radius(self):
        # the point value must stabilize once the box dwarfs the horizon
        spec = make_spec(0.0, 1.0)
        t = 50.0
        logs = []
        for R in (256, 512, 1024):
            fld = sample_field(spec, -R, R, 12)
            logs.append(solve_point_log(fld, 0, R, 1.0, t).log_u)
        assert logs[1] >= logs[0] - 1e-6
        assert abs(logs[2] - logs[1]) < 1e-5


class TestSolveAdaptive:
    def test_converged_and_consistent(self):
        spec = make_spec(0.0, 1.0)
        res = solve_adaptive(spec, 0, 20.0, 1e-8)
        assert res.converged
        assert res.log_u <= 0.0
        assert res.u == pytest.approx(math.exp(res.log_u))
        # independent recomputation at the final radius
        fld = sample_field(spec, -res.R, res.R, 0)
        direct = solve_point_log(fld, 0, res.R, 1.0, 20.0)
        assert direct.log_u == pytest.approx(res.log_u, abs=1e-9)

    def test_cap_reported(self):
        spec = make_spec(0.0, 1.0)
        res = solve_adaptive(spec, 1, 200.0, 1e-10, r_start=4, r_cap=8)
        assert not res.converged


class TestSandwich:
    def test_eigenvalue_sandwich_small(self):
        # e_R(z)^2 e^{t lambda} <= u_R(t, z) <= (2R+1) e^{t lambda}
        rng = np.random.default_rng(7)
        for trial in range(10):
            spec = make_spec(0.0 if trial % 2 else 0.5, 1.0)
            R = int(rng.integers(3, 20))
            t = float(rng.uniform(0.5, 8.0))
            fld = sample_field(spec, -R, R, 100 + trial)
            sol = solve_point_log(fld, 0, R, 1.0, t)
            lam = sol.principal
            lower = 2.0 * sol.log_e_center + t * lam
            upper = math.log(2 * R + 1) + t * lam
            assert lower <= sol.log_u + 1e-9
            assert sol.log_u <= upper + 1e-9


class TestTruncationProduct:
    def test_zero_field(self):
        left, right = truncation_product(zero_field(-20, 20), 1.0, 20)
        assert left == 0.0 and right == 0.0

    def test_heavy_sites_contribute(self):
        spec = make_spec(0.0, 1.0)
        fld = sample_field(spec, -200, 200, 21)
        left, right = truncation_product(fld, 1.0, 200)
        assert left <= 0.0 and right <= 0.0
        assert left < 0.0 or right < 0.0
