import math

import numpy as np
import pytest

from pam1d.variational import (ChiResult, ShapeFunction, VariationalConfig,
                               _fd_principal, brute_legendre, chi_tilde,
                               eig_continuum, functional_H, legendre_L)


def _const_profile(R, depth, n=51):
    return ShapeFunction(R=R, values=np.full(n, -float(depth)))


class TestShapeFunction:
    def test_grid_and_call(self):
        psi = ShapeFunction(R=1.0, values=np.array([-1.0, -2.0, -3.0]))
        assert psi.h == pytest.approx(0.5)
        assert np.allclose(psi.grid(), [-0.5, 0.0, 0.5])
        assert psi(0.0) == pytest.approx(-2.0)
        assert psi(0.25) == pytest.approx(-2.5)
        assert psi(5.0) == 0.0 and psi(-5.0) == 0.0

    def test_from_callable(self):
        calls = []
        psi = ShapeFunction.from_callable(
            lambda x: calls.append(x) or -x * x, 2.0, 9)
        assert np.allclose(psi.values, -psi.grid() ** 2)
        assert len(calls) == 1  # one vectorized call on the whole grid

    def test_validation(self):
        with pytest.raises(ValueError):
            ShapeFunction(R=0.0, values=np.array([-1.0]))
        with pytest.raises(ValueError):
            ShapeFunction(R=1.0, values=np.array([]))


class TestFunctionalH:
    def test_gamma0_counts_support(self):
        f = ShapeFunction(R=1.0, values=np.array([0.0, 2.0, 3.0, 0.0]))
        # H = -A * measure of {f > 0} = -A * h * 2
        assert functional_H(f, 2.0, 0.0) == pytest.approx(-2.0 * f.h * 2)

    def test_gamma_half(self):
        f = ShapeFunction(R=1.0, values=np.array([1.0, 4.0]))
        target = -3.0 * f.h * (1.0 + 2.0)
        assert functional_H(f, 3.0, 0.5) == pytest.approx(target)

    def test_negative_rejected(self):
        f = ShapeFunction(R=1.0, values=np.array([-1.0]))
        with pytest.raises(ValueError):
            functional_H(f, 1.0, 0.5)


class TestLegendre:
    def test_gamma0_support_measure(self):
        psi = ShapeFunction(R=2.0, values=np.array([-1.0, 0.0, -0.5, -2.0]))
        assert legendre_L(psi, 1.5, 0.0) == pytest.approx(1.5 * psi.h * 3)

    def test_closed_form_vs_brute(self):
        rng = np.random.default_rng(0)
        for gamma in (0.25, 0.5, 0.75):
            for _ in range(5):
                vals = -np.exp(rng.uniform(-1.0, 1.5, 21))
                psi = ShapeFunction(R=float(rng.uniform(0.5, 3.0)), values=vals)
                a = float(rng.uniform(0.3, 2.0))
                exact = legendre_L(psi, a, gamma)
                brute = brute_legendre(psi, a, gamma)
                assert brute == pytest.approx(exact, rel=1e-6)

    def test_positive_profile_infinite(self):
        psi = ShapeFunction(R=1.0, values=np.array([0.5, -1.0]))
        assert legendre_L(psi, 1.0, 0.5) == math.inf
        assert brute_legendre(psi, 1.0, 0.5) == math.inf

    def test_zero_node_infinite_for_positive_gamma(self):
        psi = ShapeFunction(R=1.0, values=np.array([-1.0, 0.0]))
        assert legendre_L(psi, 1.0, 0.5) == math.inf

    def test_scaling_law(self):
        # L(s psi) = s^{-gamma/(1-gamma)} L(psi) for psi < 0
        psi = _const_profile(1.0, 2.0)
        gamma = 0.5
        base = legendre_L(psi, 1.0, gamma)
        scaled = legendre_L(ShapeFunction(R=1.0, values=3.0 * psi.values),
                            1.0, gamma)
        assert scaled == pytest.approx(base * 3.0 ** (-1.0), rel=1e-12)


class TestEigContinuum:
    def test_free_interval(self):
        # principal Dirichlet eigenvalue of kappa d^2/dx^2 on [-R, R] is
        # -kappa (pi / 2R)^2
        for R, kappa in ((0.5, 1.0), (2.0, 1.7)):
            lam = eig_continuum(lambda x: np.zeros_like(x), R, kappa)
            assert lam == pytest.approx(-kappa * (math.pi / (2 * R)) ** 2,
                                        rel=1e-8)

    def test_constant_shift(self):
        lam0 = eig_continuum(lambda x: np.zeros_like(x), 1.0, 1.0)
        lam = eig_continuum(lambda x: np.full_like(x, -2.5), 1.0, 1.0)
        assert lam == pytest.approx(lam0 - 2.5, rel=1e-10)

    def test_harmonic_well(self):
        # -d^2/dx^2 + x^2 on a wide box: ground energy 1, so lambda = -1
        lam = eig_continuum(lambda x: -x * x, 12.0, 1.0, n=4000)
        assert lam == pytest.approx(-1.0, abs=1e-4)


class TestChiTilde:
    def test_gamma0_closed_form(self):
        for a, kappa in ((math.log(2.0), 1.0), (1.0, 2.0)):
            cfg = VariationalConfig(A=a, gamma=0.0, kappa=kappa)
            res = chi_tilde(cfg)
            assert res.chi == pytest.approx(kappa * math.pi ** 2 * a ** 2,
                                            rel=1e-6)
            assert res.budget == pytest.approx(1.0)

    def test_gamma_half_frozen_value(self):
        # frozen from a fine-grid run (n_grid = 801, tol = 1e-8)
        cfg = VariationalConfig(A=1.0, gamma=0.5, kappa=1.0, n_grid=201,
                                tol=1e-6)
        res = chi_tilde(cfg)
        assert res.chi == pytest.approx(1.351216, rel=2e-2)
        assert res.budget == pytest.approx(1.0, abs=1e-6)

    def test_monotone_in_gamma(self):
        chis = []
        for gamma in (0.3, 0.5, 0.7):
            cfg = VariationalConfig(A=1.0, gamma=gamma, kappa=1.0, n_grid=201,
                                    tol=1e-6)
            chis.append(chi_tilde(cfg).chi)
        assert chis[0] > chis[1] > chis[2]

    def test_profile_feasible(self):
        cfg = VariationalConfig(A=1.0, gamma=0.5, kappa=1.0, n_grid=201,
                                tol=1e-6)
        res = chi_tilde(cfg)
        assert np.all(res.psi.values < 0)
        # the reported eigenvalue is attained by the reported profile
        lam = eig_continuum(res.psi, res.R, 1.0, n=2000)
        assert -res.chi == pytest.approx(lam, rel=5e-3)

    def test_capped_profile_gives_chi(self):
        # the KKT iteration stops at its cap: psi is the profile whose
        # eigenvalue chi is, not the next iterate
        cfg = VariationalConfig(A=1.0, gamma=0.5, kappa=1.0, n_grid=201,
                                max_iter=3)
        res = chi_tilde(cfg)
        assert res.iterations == cfg.max_iter
        assert _fd_principal(res.psi.values, res.psi.h, 1.0)[0] == -res.chi

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            VariationalConfig(A=0.0, gamma=0.5)
        with pytest.raises(ValueError):
            VariationalConfig(A=1.0, gamma=1.0)
