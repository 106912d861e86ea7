import json
import math
import warnings

import numpy as np
import pytest

from pam1d.potential import (Field, LowerTailSpec, PotentialSpec, W_CAP,
                             _LOG_POW_MAX, _expm1mx,
                             _log_frechet_laplace, _log_heavy_laplace, _quad,
                             canonical_A, cumulant_G, cumulant_H, g_tilde,
                             g_tilde_inverse, log_moment, sample_field,
                             spec_from_json, spec_to_json)
from pam1d.scales import invert_G

from conftest import make_spec


class TestSpecs:
    def test_json_round_trip(self, atom_spec, frechet_spec, bounded_spec):
        for spec in (atom_spec, frechet_spec, bounded_spec):
            assert spec_from_json(spec_to_json(spec)) == spec

    def test_documented_example_form(self):
        text = ('{"gamma":0.0,"upper":{"atom_p":0.5},"mix_q":0.5,'
                '"lower":{"pareto_zeta":1.0}}')
        spec = spec_from_json(text)
        assert spec.gamma == 0.0 and spec.mix_q == 0.5
        assert spec.lower.variant == "pareto" and spec.lower.zeta == 1.0

    def test_unknown_fields_rejected(self):
        text = ('{"gamma":0.0,"upper":{"atom_p":0.5},"mix_q":0.5,'
                '"lower":{"pareto_zeta":1.0},"bogus":1}')
        with pytest.raises(ValueError, match="unknown"):
            spec_from_json(text)

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            spec_from_json('{"gamma":0.0}')

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LowerTailSpec.pareto(1.5)          # zeta must be in (0, 1]
        with pytest.raises(ValueError):
            PotentialSpec(gamma=1.0, mix_q=0.5, lower=LowerTailSpec.pareto(1.0))
        with pytest.raises(ValueError):
            PotentialSpec(gamma=0.0, mix_q=0.0, lower=LowerTailSpec.pareto(1.0))

    def test_nu_values(self):
        assert make_spec(0.0, 1.0).nu == pytest.approx(1.0 / 3.0)
        assert make_spec(0.5, 1.0).nu == pytest.approx(0.2)


class TestFieldSampling:
    def test_values_non_positive(self, atom_spec, frechet_spec):
        for spec in (atom_spec, frechet_spec):
            fld = sample_field(spec, -500, 500, 0)
            assert np.all(fld.xi(-500, 500) <= 0.0)
            # heavy sites store W = log(-xi) >= 0
            assert np.all(fld.values[fld.heavy] >= 0.0)

    def test_deterministic_given_seed(self, atom_spec):
        a = sample_field(atom_spec, -100, 100, 7)
        b = sample_field(atom_spec, -100, 100, 7)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.heavy, b.heavy)
        c = sample_field(atom_spec, -100, 100, 8)
        assert not np.array_equal(a.values, c.values)

    def test_extension_consistency(self, atom_spec, frechet_spec):
        # growing the sampled window must not change already-seen sites
        for spec in (atom_spec, frechet_spec):
            small = sample_field(spec, -10, 10, 3)
            large = sample_field(spec, -1000, 1000, 3)
            lo = -10 - large.lo
            assert np.array_equal(small.values, large.values[lo:lo + 21])
            assert np.array_equal(small.heavy, large.heavy[lo:lo + 21])

    def test_branch_frequencies(self, atom_spec):
        n = 200_000
        fld = sample_field(atom_spec, 1, n, 11)
        q_hat = fld.heavy.mean()
        sigma = math.sqrt(0.2 * 0.8 / n)
        assert abs(q_hat - 0.2) < 4 * sigma
        light = fld.values[~fld.heavy]
        p_hat = (light == 0.0).mean()
        sigma_p = math.sqrt(0.5 * 0.5 / len(light))
        assert abs(p_hat - 0.5) < 4 * sigma_p
        # light complement is the atom at -1
        assert set(np.unique(light)) <= {0.0, -1.0}

    def test_pareto_heavy_tail(self, atom_spec):
        # P(W > x) = x^{-1} for the zeta = 1 exp-Pareto branch
        fld = sample_field(atom_spec, 1, 500_000, 5)
        w = fld.values[fld.heavy]
        assert np.all(w >= 1.0)
        for x in (2.0, 10.0):
            frac = (w > x).mean()
            sigma = math.sqrt((1 / x) * (1 - 1 / x) / len(w))
            assert abs(frac - 1.0 / x) < 4 * sigma

    def test_loglog_heavy_tail(self):
        # F(x) = 1 - (log x0 / log x)^theta on [x0, inf); draws with log W
        # beyond the double range are capped at log W = _LOG_POW_MAX
        for theta, x0 in ((1.0, math.e), (0.5, 10.0)):
            spec = PotentialSpec(gamma=0.0, mix_q=1.0,
                                 lower=LowerTailSpec.loglog(theta, x0))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                w = sample_field(spec, 1, 200_000, 4).values
            assert np.all(np.isfinite(w)) and np.all(w >= x0)
            for log_x in (2.5, 10.0, 100.0, 700.0, _LOG_POW_MAX):
                p = (math.log(x0) / log_x) ** theta
                frac = (np.log(w) >= log_x).mean()
                sigma = math.sqrt(p * (1 - p) / len(w))
                assert abs(frac - p) < 4 * sigma
        # a power that overflows is capped too
        w = LowerTailSpec.loglog(0.01).sample_w(np.array([0.5, 1 - 2 ** -40]))
        assert w[1] == math.exp(_LOG_POW_MAX) and math.isfinite(w[0])

    def test_xi_decoder(self):
        # light sites keep their value; heavy sites decode to -e^W exactly
        # up to W_CAP, and to -e^W_CAP beyond it
        fld = Field(lo=3, hi=5, heavy=np.array([False, True, True]),
                    values=np.array([-0.25, 20.0, 1000.0]))
        xi = fld.xi(3, 5)
        assert xi[0] == -0.25
        assert xi[1] == -np.exp(20.0)
        assert xi[2] == -np.exp(W_CAP) and W_CAP == 700.0
        assert np.array_equal(fld.xi(4, 4), xi[1:2])

    def test_log_neg_or1(self, atom_spec):
        fld = sample_field(atom_spec, -50, 50, 2)
        wp = fld.log_neg_or1(-50, 50)
        # log(-xi v 1): zero on light sites (|xi| <= 1), W on heavy sites
        assert np.all(wp[~fld.heavy] == 0.0)
        assert np.array_equal(wp[fld.heavy], fld.values[fld.heavy])


class TestCumulants:
    def test_h_at_zero_and_monotone(self, atom_spec, frechet_spec):
        for spec in (atom_spec, frechet_spec):
            assert cumulant_H(spec, 0.0) == 0.0
            grid = np.geomspace(0.1, 1e4, 12)
            vals = [cumulant_H(spec, l) for l in grid]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
            assert all(v <= 0 for v in vals)

    def test_h_limit_atom_spec(self, atom_spec):
        # <e^{l xi}> -> P(xi = 0) = (1-q) p as l -> infinity
        target = math.log(0.8 * 0.5)
        assert cumulant_H(atom_spec, 1e4) == pytest.approx(target, abs=1e-3)

    def test_g_monotone_to_zero(self, atom_spec, frechet_spec):
        for spec in (atom_spec, frechet_spec):
            grid = np.geomspace(1.0, 1e10, 11)
            vals = [cumulant_G(spec, l) for l in grid]
            assert all(a > b for a, b in zip(vals, vals[1:]))
            assert vals[-1] < 1e-6

    def test_g_tail_asymptotic_pareto_half(self):
        # pure exp-Pareto(zeta=1/2): G(l) ~ Gamma(1/2) l^{-1/2}, so the
        # inverse satisfies invert_G(y) ~ (Gamma(1/2)/y)^2
        spec = PotentialSpec(gamma=0.0, mix_q=1.0,
                             lower=LowerTailSpec.pareto(0.5))
        for y in (1e-4, 1e-5):
            ell = invert_G(spec, y)
            assert ell == pytest.approx((math.gamma(0.5) / y) ** 2, rel=0.05)

    def test_mixture_linearity_of_deficit(self, atom_spec):
        # 1 - e^{-G} is the mixture average of the branch deficits
        heavy_only = PotentialSpec(gamma=0.0, mix_q=1.0,
                                   lower=atom_spec.lower)
        for ell in (10.0, 1e3):
            d_mix = -math.expm1(-cumulant_G(atom_spec, ell))
            d_heavy = -math.expm1(-cumulant_G(heavy_only, ell))
            assert d_mix == pytest.approx(0.2 * d_heavy, rel=1e-9)

    def test_canonical_a_atom(self, atom_spec):
        assert canonical_A(atom_spec) == pytest.approx(-math.log(0.4))

    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.5, 0.9])
    def test_h_large_ell_warning_free(self, gamma):
        # the exponent at the peak reaches -4e13 nats here; quadrature sees
        # it only relative to the peak value, so it converges cleanly
        lowers = (LowerTailSpec.pareto(1.0), LowerTailSpec.pareto(0.5),
                  LowerTailSpec.loglog(1.0), LowerTailSpec.bounded(3.0))
        for lower in lowers:
            spec = PotentialSpec(gamma=gamma, mix_q=0.2, lower=lower,
                                 atom_p=0.5, frechet_d=1.0)
            prev = 0.0
            for ell in (1e8, 1e9, 1e10, 1e12, 1e15):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    h = cumulant_H(spec, ell)
                assert math.isfinite(h) and h <= prev
                prev = h

    def test_heavy_laplace_against_mpmath(self):
        # log of int_1^inf e^{-ell e^w} w^{-2} dw, exp-Pareto(zeta = 1), in
        # 30 digits; substituting w = 1 + u / c with c = ell e separates the
        # peak value -c from an O(1) integral, whose integrand is below
        # e^{-5000} beyond u = 5000
        mpmath = pytest.importorskip("mpmath")
        spec = PotentialSpec(gamma=0.0, mix_q=1.0,
                             lower=LowerTailSpec.pareto(1.0))
        ell = 1e10
        with mpmath.workdps(30):
            c = mpmath.mpf(ell) * mpmath.e
            val = mpmath.quad(lambda u: mpmath.exp(-c * mpmath.expm1(u / c))
                              / (1 + u / c) ** 2, [0, 1, 10, 100, 1000, 5000])
            exact = -c + mpmath.log(val / c)
        assert _log_heavy_laplace(spec, ell) == pytest.approx(float(exact), rel=1e-15)
        assert cumulant_H(spec, ell) == pytest.approx(float(exact), rel=1e-15)

    def test_frechet_laplace_against_mpmath(self):
        # log of int_0^inf exp(-y - ell y^{-1/a}) dy at gamma = 0.9 (a = 9),
        # ell = 1e15, in 30 digits: the peak y_p ~ 4.4e12 has width sigma ~
        # 2e6, so y = y_p + sigma u puts the whole mass in |u| < 40
        mpmath = pytest.importorskip("mpmath")
        spec = PotentialSpec(gamma=0.9, mix_q=0.2,
                             lower=LowerTailSpec.pareto(1.0), frechet_d=1.0)
        ell = 1e15
        with mpmath.workdps(30):
            a = mpmath.mpf(9)
            y_p = (ell / a) ** (a / (1 + a))
            sigma = mpmath.sqrt(y_p / (1 + 1 / a))

            def f(u):
                y = y_p + sigma * u
                return mpmath.exp((1 + a) * y_p - y - ell * y ** (-1 / a))

            val = mpmath.quad(f, [-40, -10, -3, 0, 3, 10, 40])
            exact = -(1 + a) * y_p + mpmath.log(sigma * val)
            xs = [-0.49, -1e-3, 1e-9, 0.3, 0.5, -2.0, 5.0]
            em = [mpmath.expm1(x) - x for x in map(mpmath.mpf, xs)]
        assert _log_frechet_laplace(spec, ell) == pytest.approx(float(exact),
                                                                rel=1e-15)
        # e^x - 1 - x, the term that carries the peak, to full precision
        got = _expm1mx(np.array(xs))
        for g, e in zip(got, em):
            assert g == pytest.approx(float(e), rel=4e-16)

    def test_g_loglog_beyond_capped_w(self):
        # log-log W reaches e^709.78, past W_CAP; at ell > e^700 the deficit
        # 1 - e^{-W/ell} must come from W/ell, not from W capped at e^700.
        # Exact value from a 30-digit quadrature in v = log W, where the
        # theta = 1, x0 = e heavy density is v^-2 on [1, inf); beyond
        # v = log ell + 10 the factor 1 - e^{-W/ell} is 1 to e^-22026
        mpmath = pytest.importorskip("mpmath")
        spec = PotentialSpec(gamma=0.0, mix_q=0.2,
                             lower=LowerTailSpec.loglog(1.0), atom_p=0.5)
        for ell in (1e100, 1e300, 1e305):
            with mpmath.workdps(30):
                le = mpmath.log(ell)
                deficit = mpmath.quad(
                    lambda v: -mpmath.expm1(-mpmath.exp(v - le)) / v ** 2,
                    [1, le - 40, le - 10, le, le + 10]) + 1 / (le + 10)
                exact = -mpmath.log1p(-0.2 * deficit)
            assert cumulant_G(spec, ell) == pytest.approx(float(exact),
                                                          rel=1e-10)

    def test_g_pareto_against_closed_form(self, atom_spec):
        # exp-Pareto(zeta = 1), gamma = 0: the light deficit is 0 and the
        # heavy one is int_1^inf (1 - e^{-w/ell}) w^{-2} dw
        # = 1 - e^{-1/ell} + E1(1/ell) / ell, here in 30 digits
        mpmath = pytest.importorskip("mpmath")
        for ell in (1e-2, 1.0, 1e3, 1e100, 1e300):
            with mpmath.workdps(30):
                x = 1 / mpmath.mpf(ell)
                deficit = -mpmath.expm1(-x) + x * mpmath.e1(x)
                exact = -mpmath.log1p(-0.2 * deficit)
            # abs=0: G(1e300) ~ 1e-298 sits far below approx's default abs
            assert cumulant_G(atom_spec, ell) == pytest.approx(
                float(exact), rel=1e-12, abs=0.0)

    def test_g_saturated_deficit_raises(self):
        # mix_q = 1, exp-Pareto(zeta = 1): 1 - <(-xi v 1)^(-1/ell)> is
        # e^-x - x E1(x) with x = 1/ell, about e^-36 at ell = 0.03, which the
        # quadrature of the deficit cannot resolve; ell = 0.05 still can
        mpmath = pytest.importorskip("mpmath")
        spec = PotentialSpec(gamma=0.0, mix_q=1.0,
                             lower=LowerTailSpec.pareto(1.0))
        for ell in (0.01, 0.03):
            with pytest.raises(ArithmeticError, match=f"G\\({ell:g}\\)"):
                cumulant_G(spec, ell)
        with mpmath.workdps(30):
            x = 1 / mpmath.mpf(0.05)
            exact = -mpmath.log(mpmath.exp(-x) - x * mpmath.e1(x))
        assert cumulant_G(spec, 0.05) == pytest.approx(float(exact), rel=1e-7)

    def test_quad_divergent_raises(self):
        # 1/x on (0, 1) exhausts QUADPACK's subdivisions; the failure is an
        # ArithmeticError that carries its message, not an IntegrationWarning
        with pytest.raises(ArithmeticError, match="maximum number of subdivisions"):
            _quad(lambda x: 1.0 / x, 0.0, 1.0)

    @pytest.mark.parametrize("gamma", [0.5, 0.8])
    def test_canonical_a_frechet_closed_form(self, gamma):
        # (alpha^3/t)(-H(t/alpha)) approaches the closed form from below,
        # the gap shrinking with t
        spec = PotentialSpec(gamma=gamma, mix_q=0.2,
                             lower=LowerTailSpec.pareto(1.0), frechet_d=1.0)
        A = canonical_A(spec)
        gaps = []
        for t in (1e6, 1e8, 1e10, 1e12):
            alpha = t ** spec.nu
            scaled = -(alpha ** 3 / t) * cumulant_H(spec, t / alpha)
            gaps.append(abs(scaled / A - 1.0))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-4

    def test_canonical_a_needs_light_branch(self):
        for gamma in (0.0, 0.5):
            spec = PotentialSpec(gamma=gamma, mix_q=1.0,
                                 lower=LowerTailSpec.pareto(1.0))
            with pytest.raises(ValueError, match="light branch"):
                canonical_A(spec)


class TestGTilde:
    def test_pareto_closed_form(self, atom_spec):
        assert g_tilde(atom_spec, 0.5, 1e4) == pytest.approx(1e-2)
        assert g_tilde_inverse(atom_spec, 0.5, 1e-2) == pytest.approx(1e4)

    def test_loglog_round_trip(self):
        spec = PotentialSpec(gamma=0.0, mix_q=0.2,
                             lower=LowerTailSpec.loglog(1.0), atom_p=0.5)
        y = g_tilde(spec, 0.5, 1e5)
        assert g_tilde_inverse(spec, 0.5, y) == pytest.approx(1e5, rel=1e-6)

    def test_round_trips(self, atom_spec, frechet_spec):
        loglog = PotentialSpec(gamma=0.0, mix_q=0.2,
                               lower=LowerTailSpec.loglog(1.0), atom_p=0.5)
        for spec in (atom_spec, frechet_spec, loglog):
            for eta in (0.5, 0.8):
                for ell in (0.5, 100.0, 1e50):
                    y = g_tilde(spec, eta, ell)
                    assert g_tilde_inverse(spec, eta, y) == pytest.approx(
                        ell, rel=1e-9)

    def test_out_of_range(self, atom_spec):
        loglog = PotentialSpec(gamma=0.0, mix_q=0.2,
                               lower=LowerTailSpec.loglog(1.0), atom_p=0.5)
        for spec in (atom_spec, loglog):
            for y in (0.0, -1.0):
                with pytest.raises(ValueError):
                    g_tilde_inverse(spec, 0.5, y)
        # G~ <= -log(1 - q) = 0.22 at q = 0.2
        with pytest.raises(ValueError, match="above the range"):
            g_tilde_inverse(loglog, 0.5, 1.0)
        # G~^{-1}(1e-3) is about e^700 here, beyond the double range
        with pytest.raises(ArithmeticError, match="1e300"):
            g_tilde_inverse(loglog, 0.5, 1e-3)

    def test_bounded_rejected(self, bounded_spec):
        with pytest.raises(ValueError):
            g_tilde(bounded_spec, 0.5, 100.0)


class TestLogMoment:
    def test_pareto_divergence(self, atom_spec):
        assert log_moment(atom_spec, 1.0) == math.inf
        # q * zeta / (zeta - delta); the atom branch contributes log 1 = 0
        assert log_moment(atom_spec, 0.5) == pytest.approx(
            0.2 * 1.0 / (1.0 - 0.5), rel=0.0, abs=1e-15)

    def test_bounded_uniform_oracle(self, bounded_spec):
        # q * E[W^d] with W ~ U[0, 3]: q * wmax^d / (d+1)
        for d in (1.0, 2.0):
            target = 0.2 * 3.0 ** d / (d + 1.0)
            assert log_moment(bounded_spec, d) == pytest.approx(target, rel=1e-6)

    def test_infinite_log_moment_flags(self, atom_spec, bounded_spec):
        assert atom_spec.lower.has_infinite_log_moment()
        assert not bounded_spec.lower.has_infinite_log_moment()
        assert LowerTailSpec.loglog(2.0).has_infinite_log_moment()
