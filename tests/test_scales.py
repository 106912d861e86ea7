import math
import warnings

import numpy as np
import pytest

from pam1d.potential import LowerTailSpec, PotentialSpec, cumulant_G
from pam1d.scales import (ScaleParams, alpha, b_scale, b_star, gamma_box,
                          invert_G, r_box)

from conftest import make_spec


class TestAlphaBeta:
    def test_alpha_gamma0(self):
        params = ScaleParams.from_spec(make_spec(0.0, 1.0))
        assert alpha(params, 8.0) == pytest.approx(2.0)

    def test_alpha_gamma_half(self):
        params = ScaleParams.from_spec(make_spec(0.5, 1.0))
        assert alpha(params, 1e5) == pytest.approx(10.0)

    def test_alpha_regular_variation(self):
        params = ScaleParams.from_spec(make_spec(0.25, 1.0))
        for t in (10.0, 1e3, 1e6):
            assert alpha(params, 2 * t) / alpha(params, t) == \
                pytest.approx(2.0 ** params.nu)

    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5])
    def test_beta_algebraic_identity(self, gamma):
        params = ScaleParams.from_spec(make_spec(gamma, 1.0))
        nu = params.nu
        assert params.beta == pytest.approx(2 * nu / (1 - 2 * nu))
        assert params.beta == pytest.approx(2 * (1 - gamma) / (1 + gamma))

    def test_frechet_cumulant_warning_free(self):
        # the Frechet Laplace integrand is evaluated down to y = 1e-300,
        # where y**(-1/a) exceeds the double range; its limit is used there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = ScaleParams.from_spec(make_spec(0.25, 1.0))
            ratios = [alpha(params, 2 * t) / alpha(params, t)
                      for t in (10.0, 1e3, 1e6)]
        assert ratios == pytest.approx([2.0 ** params.nu] * 3)
        assert params.beta == pytest.approx(1.2)

    def test_nu_range(self):
        for gamma in (0.0, 0.3, 0.7, 0.99):
            nu = make_spec(gamma, 1.0).nu
            assert 0.0 < nu <= 1.0 / 3.0


class TestBScale:
    @pytest.mark.parametrize("gamma,zeta", [(0.0, 0.5), (0.0, 1.0),
                                            (0.5, 0.5), (0.5, 1.0)])
    def test_defining_identity(self, gamma, zeta):
        spec = make_spec(gamma, zeta)
        params = ScaleParams.from_spec(spec)
        rng = np.random.default_rng(0)
        ts = np.exp(rng.uniform(math.log(max(params.tmin * 2, 10.0)),
                                math.log(1e10), 25))
        for t in ts:
            b = b_scale(spec, params, float(t))
            lhs = b / alpha(params, b) ** 2
            rhs = -math.log(cumulant_G(spec, float(t)))
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_below_tmin_rejected(self):
        # pure heavy branch: G stays above 1/e for small t
        spec = PotentialSpec(gamma=0.0, mix_q=1.0,
                             lower=LowerTailSpec.pareto(1.0))
        params = ScaleParams.from_spec(spec)
        with pytest.raises(ValueError):
            b_scale(spec, params, params.tmin * 0.25)

    def test_monotone(self):
        spec = make_spec(0.0, 1.0)
        params = ScaleParams.from_spec(spec)
        ts = np.geomspace(max(params.tmin * 2, 10.0), 1e9, 12)
        bs = [b_scale(spec, params, float(t)) for t in ts]
        assert all(a < b for a, b in zip(bs, bs[1:]))


class TestBStar:
    def test_closed_form_gamma0(self):
        params = ScaleParams.from_spec(make_spec(0.0, 1.0))
        assert b_star(params, math.exp(8.0)) == pytest.approx(512.0)

    def test_below_e_rejected(self):
        params = ScaleParams.from_spec(make_spec(0.0, 1.0))
        with pytest.raises(ValueError):
            b_star(params, 2.0)

    def test_ratio_to_b_scale(self):
        # b_t / b*_t -> zeta^{1/(1-2nu)} for exp-Pareto dominated G
        spec = make_spec(0.0, 0.5)
        params = ScaleParams.from_spec(spec)
        t = 1e10
        ratio = b_scale(spec, params, t) / b_star(params, t)
        assert ratio == pytest.approx(0.5 ** 3, rel=0.35)


class TestRBox:
    def test_plugin_value(self):
        # G = e^{-1}  ->  r = ceil(3 e) = 9; a pure heavy branch reaches 1/e
        spec = PotentialSpec(gamma=0.0, mix_q=1.0,
                             lower=LowerTailSpec.pareto(1.0))
        t = invert_G(spec, math.exp(-1.0))
        assert r_box(spec, t) == 9

    def test_monotone(self):
        spec = make_spec(0.0, 1.0)
        ts = np.geomspace(100.0, 1e8, 10)
        rs = [r_box(spec, float(t)) for t in ts]
        assert all(a <= b for a, b in zip(rs, rs[1:]))

    @pytest.mark.parametrize("zeta", [0.5, 1.0])
    def test_pareto_growth_exponent(self, zeta):
        # r(t) = t^{zeta + o(1)}: fitted log-log slope within 0.1 of zeta
        spec = make_spec(0.0, zeta)
        ts = np.geomspace(1e3, 1e6, 7)
        rs = np.array([r_box(spec, float(t)) for t in ts])
        slope = np.polyfit(np.log(ts), np.log(rs), 1)[0]
        assert abs(slope - zeta) < 0.1


class TestInvertG:
    def test_round_trip(self, atom_spec, frechet_spec):
        loglog = PotentialSpec(gamma=0.0, mix_q=0.2,
                               lower=LowerTailSpec.loglog(1.0), atom_p=0.5)
        for spec in (atom_spec, frechet_spec, loglog):
            for ell in (0.5, 100.0, 1e50):
                y = cumulant_G(spec, ell)
                assert invert_G(spec, y) == pytest.approx(ell, rel=1e-9)

    def test_monotone(self, atom_spec):
        a = invert_G(atom_spec, 1e-4)
        b = invert_G(atom_spec, 1e-5)
        assert b > a

    def test_out_of_range(self, atom_spec):
        for y in (0.0, -1.0):
            with pytest.raises(ValueError):
                invert_G(atom_spec, y)
        # G <= -log(1 - q) = 0.22 at q = 0.2
        with pytest.raises(ValueError, match="above the range"):
            invert_G(atom_spec, 1.0)

    def test_beyond_double_range(self):
        # log-log theta = 1: G(ell) ~ 0.2 / log ell, so G^{-1}(1e-4) is
        # about e^2000
        spec = PotentialSpec(gamma=0.0, mix_q=0.2,
                             lower=LowerTailSpec.loglog(1.0), atom_p=0.5)
        with pytest.raises(ArithmeticError, match="1e300"):
            invert_G(spec, 1e-4)


class TestGammaBox:
    def test_positive_and_growing(self, atom_spec):
        params = ScaleParams.from_spec(atom_spec)
        ts = np.geomspace(1e3, 1e8, 6)
        gs = [gamma_box(atom_spec, params, 0.5, 1.0, float(t)) for t in ts]
        assert all(g > 0 for g in gs)
        assert all(a < b for a, b in zip(gs, gs[1:]))

    def test_exponent_sandwich(self, atom_spec):
        # t^{eta zeta + o(1)} <= gamma_t <= t^{zeta + o(1)}
        params = ScaleParams.from_spec(atom_spec)
        eta, zeta = 0.5, 1.0
        ts = np.geomspace(1e4, 1e10, 7)
        gs = np.array([gamma_box(atom_spec, params, eta, 1.0, float(t))
                       for t in ts])
        slope = np.polyfit(np.log(ts), np.log(gs), 1)[0]
        assert eta * zeta - 0.1 <= slope <= zeta + 0.1

    def test_bounded_spec_rejected(self, bounded_spec):
        params = ScaleParams.from_spec(bounded_spec)
        with pytest.raises(ValueError):
            gamma_box(bounded_spec, params, 0.5, 1.0, 1e6)
