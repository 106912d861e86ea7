import math

import numpy as np
import pytest

from pam1d.lattice import (hamiltonian, principal_eigpair, solve_box,
                           solve_point_log)
from pam1d.montecarlo import (_occupation_batch, best_screening_bound,
                              fk_estimate, jump_budget, screening_lower_bound)
from pam1d.potential import Field, sample_field

from conftest import constant_field, make_spec, zero_field


def _walks(kappa, t, seed, n):
    """n walks from the generator fk_estimate samples, with its jump budget."""
    return _occupation_batch(kappa, t, jump_budget(kappa, t),
                             np.random.default_rng(seed), n)


class TestSimulateWalk:
    def test_zero_time_no_jumps(self):
        steps, holds, counts = _walks(1.0, 0.0, 0, 5)
        assert counts.tolist() == [0] * 5
        assert np.all(holds == 0.0)

    def test_deterministic_given_seed(self):
        a = _walks(1.0, 5.0, 42, 50)
        b = _walks(1.0, 5.0, 42, 50)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_path_structure(self):
        t = 10.0
        steps, holds, counts = _walks(0.7, t, 3, 200)
        assert np.all(np.abs(steps) == 1)
        assert np.all(holds >= 0.0)
        # holding times fill [0, t] and vanish beyond the jump count
        assert np.allclose(holds.sum(axis=1), t, rtol=1e-12)
        beyond = np.arange(holds.shape[1]) > counts[:, None]
        assert np.all(holds[beyond] == 0.0)

    def test_mean_jump_count(self):
        # number of jumps by time t is Poisson(2 kappa t)
        kappa, t, n = 1.0, 3.0, 3000
        _, _, counts = _walks(kappa, t, 0, n)
        mean = 2 * kappa * t
        sigma = math.sqrt(mean / n)
        assert abs(counts.mean() - mean) < 4 * sigma

    def test_variance_of_position(self):
        # Var X(t) = 2 kappa t for the rate-2kappa walk with +-1 steps
        kappa, t, n = 0.5, 4.0, 3000
        steps, _, counts = _walks(kappa, t, 0, n)
        taken = np.arange(steps.shape[1]) < counts[:, None]
        finals = np.sum(np.where(taken, steps, 0), axis=1)
        var = 2 * kappa * t
        # fourth-moment bound for the stderr of a variance estimate
        sigma = math.sqrt((3 * var ** 2 + var) / n)
        assert abs((finals ** 2).mean() - var) < 4 * sigma

    def test_first_holding_time_exponential(self):
        # the first jump comes at rate 2 kappa: P(h_0 > s) = e^{-2 kappa s}
        # for s < t; uniform draws normalised to sum to t fail this
        kappa, t, n = 1.0, 3.0, 20_000
        _, holds, _ = _walks(kappa, t, 1, n)
        for s in (0.1, 0.5, 1.5):
            p = math.exp(-2 * kappa * s)
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs((holds[:, 0] > s).mean() - p) < 4 * sigma

    def test_holding_times_given_count(self):
        # given N = n jumps, each of the n + 1 holding times has mean
        # t / (n + 1) and variance t^2 n / ((n + 1)^2 (n + 2)) (flat
        # Dirichlet); spacings spread over more columns than N + 1 fail this
        kappa, t, n = 1.0, 3.0, 20_000
        _, holds, counts = _walks(kappa, t, 2, n)
        for jumps in (2, 6, 10):
            rows = holds[counts == jumps, :jumps + 1]
            mean = t / (jumps + 1)
            sigma = math.sqrt(t * t * jumps / ((jumps + 1) ** 2 * (jumps + 2))
                              / len(rows))
            assert np.all(np.abs(rows.mean(axis=0) - mean) < 4 * sigma)

    def test_arrays_as_wide_as_the_longest_walk(self):
        # only the jumps the walks make are drawn; the budget caps the count
        kappa, t, n = 1.0, 3.0, 20_000
        steps, holds, counts = _walks(kappa, t, 3, n)
        k = int(counts.max())
        assert holds.shape == (n, k + 1) and steps.shape == (n, k)
        assert k + 1 < (jump_budget(kappa, t) + 1) // 2
        with pytest.raises(ArithmeticError, match="max_jumps exceeded"):
            _occupation_batch(kappa, t, 2, np.random.default_rng(3), n)


class TestFkEstimate:
    def test_zero_potential(self):
        fld = zero_field(-100, 100)
        res = fk_estimate(fld, 1.0, 2.0, 500, 0)
        assert res.estimate == pytest.approx(1.0)
        assert res.stderr == pytest.approx(0.0, abs=1e-12)

    def test_constant_potential(self):
        # xi = -1: the path integral is -t for every path, so the estimator
        # is exact with zero variance
        fld = constant_field(-100, 100, -1.0)
        res = fk_estimate(fld, 1.0, 2.0, 10_000, 1)
        assert res.estimate == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert res.stderr == pytest.approx(0.0, abs=1e-12)

    def test_box_mode_vs_spectral(self):
        spec = make_spec(0.0, 1.0)
        for seed in range(3):
            fld = sample_field(spec, -10, 10, seed)
            exact = solve_box(fld, 0, 10, 1.0, 3.0)[10]
            res = fk_estimate(fld, 1.0, 3.0, 40_000, seed, box=10)
            assert abs(res.estimate - exact) < 4 * max(res.stderr, 1e-12)

    def test_block_consistency(self):
        # disjoint seed blocks agree within combined 4 stderr
        fld = sample_field(make_spec(0.0, 1.0), -10, 10, 5)
        a = fk_estimate(fld, 1.0, 3.0, 20_000, 100, box=10)
        b = fk_estimate(fld, 1.0, 3.0, 20_000, 200, box=10)
        comb = math.hypot(a.stderr, b.stderr)
        assert abs(a.estimate - b.estimate) < 4 * comb

    def test_exit_raises_unbounded(self):
        fld = zero_field(-2, 2)
        with pytest.raises(ValueError, match="outside the sampled"):
            fk_estimate(fld, 1.0, 10.0, 200, 0)

    def test_reach_check(self):
        # boxed: the field must cover the box, even when t is too small for
        # a walk to get that far (the jump budget at t = 0.01 is 42)
        with pytest.raises(ValueError, match="outside the sampled"):
            fk_estimate(zero_field(-5, 5), 1.0, 0.01, 10, 0, box=10)
        # unboxed: the field must cover +-jump_budget, on both sides
        budget = jump_budget(1.0, 3.0)
        res = fk_estimate(zero_field(-budget, budget), 1.0, 3.0, 10, 0)
        assert res.estimate == 1.0
        for lo, hi in ((-(budget - 1), budget - 1), (-budget, budget - 1)):
            with pytest.raises(ValueError, match="outside the sampled"):
                fk_estimate(zero_field(lo, hi), 1.0, 3.0, 10, 0)

    def test_frozen_estimates(self):
        # frozen outputs, exact to the bit: any change to the number or the
        # order of the RNG draws moves them
        fld = sample_field(make_spec(0.5, 1.0), -10, 10, 2000)
        res = fk_estimate(fld, 1.0, 3.0, 100_000, 2000, box=10)
        assert (res.estimate, res.stderr, res.exit_fraction) == (
            0.03879945483088774, 0.00017807406584591625, 2e-05)
        fld = sample_field(make_spec(0.5, 1.0), -200, 200, 40)
        res = fk_estimate(fld, 1.0, 1.0, 20_000, 7)
        assert (res.estimate, res.stderr, res.exit_fraction) == (
            0.4197390274377758, 0.0012998711264255926, 0.0)

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            fk_estimate(zero_field(-5, 5), 1.0, 1.0, 0, 0)


class TestScreeningLowerBound:
    def test_no_travel_is_sandwich_lower_half(self):
        # y = 0: LB = 2 log e_R(0) + t lambda exactly
        spec = make_spec(0.0, 1.0)
        fld = sample_field(spec, -5, 5, 8)
        op = hamiltonian(fld, 0, 5, 1.0)
        pe = principal_eigpair(op)
        t = 4.0
        lb = screening_lower_bound(fld, 1.0, t, 0, 5)
        assert lb == pytest.approx(2 * math.log(pe.eigvec[5]) + t * pe.principal)

    def test_single_step_travel_factor(self):
        # xi = 0 everywhere: r_0 = 1, travel factor log((1 - e^{-2 kappa})/2),
        # wait penalty -2 kappa s with s = 1
        kappa, t, R = 1.0, 6.0, 4
        fld = zero_field(-10, 10)
        lb0 = screening_lower_bound(fld, kappa, t, 0, R)
        lb1 = screening_lower_bound(fld, kappa, t, 1, R)
        op = hamiltonian(fld, 1, R, kappa)
        lam = principal_eigpair(op).principal
        travel = math.log(-math.expm1(-2 * kappa)) - math.log(2.0)
        # lb1 = travel + wait + window(t - 1); lb0 = window(t) at centre 0
        expected = travel - 2 * kappa * 1.0 + (lb0 - t * lam) + (t - 1) * lam
        assert lb1 == pytest.approx(expected, abs=1e-12)

    def test_linear_in_t_beyond_split(self):
        fld = zero_field(-10, 10)
        op = hamiltonian(fld, 2, 4, 1.0)
        lam = principal_eigpair(op).principal
        # the split min(sum r_x, t/2) is sum r_x = 2 at both times
        lb5 = screening_lower_bound(fld, 1.0, 5.0, 2, 4)
        lb9 = screening_lower_bound(fld, 1.0, 9.0, 2, 4)
        assert lb9 - lb5 == pytest.approx(4.0 * lam, abs=1e-10)

    def test_infeasible_split_raises(self):
        fld = zero_field(-10, 10)
        # crossing 6 zero-potential sites needs sum r_x = 6 > t/2 = 2
        with pytest.raises(ValueError, match="infeasible"):
            screening_lower_bound(fld, 1.0, 4.0, 6, 3)

    def test_below_exact_solver(self):
        spec = make_spec(0.0, 1.0)
        for seed in range(10):
            fld = sample_field(spec, -30, 30, seed)
            t = 6.0
            exact = math.log(solve_box(fld, 0, 30, 1.0, t)[30])
            for y in (0, 3, -4):
                try:
                    lb = screening_lower_bound(fld, 1.0, t, y, 5)
                except ValueError:
                    continue
                assert lb <= exact + 1e-9

    def test_walled_window_below_exact(self):
        # W = 50 on 1 <= |x| <= 200 walls the centre off from the free ends
        # of the window, where the principal vector peaks; its centre entry,
        # e^-3688, lies far below the double range, and a floor put there
        # in its place lifts the bound above the exact log u
        x = np.arange(-220, 221)
        heavy = (np.abs(x) >= 1) & (np.abs(x) <= 200)
        fld = Field(lo=-220, hi=220, heavy=heavy,
                    values=np.where(heavy, 50.0, 0.0))
        pe = principal_eigpair(hamiltonian(fld, 0, 220, 1.0))
        assert math.isfinite(pe.log_eigvec[220]) and pe.log_eigvec[220] < -745.0
        assert pe.eigvec[220] == 0.0
        for t in (1e3, 5e3):
            lb = screening_lower_bound(fld, 1.0, t, 0, 220)
            assert type(lb) is float
            assert lb <= solve_point_log(fld, 0, 220, 1.0, t).log_u + 1e-9


class TestBestScreeningBound:
    def test_homogeneous_stays_home(self):
        fld = constant_field(-60, 60, -0.5)
        lb, y_star = best_screening_bound(fld, 1.0, 8.0, 40, 5)
        assert y_star == 0

    def test_planted_window_found(self):
        # walls at xi = -e everywhere except a clean window around +50
        n = 161
        heavy = np.ones(n, bool)
        vals = np.ones(n)                  # W = 1 -> xi = -e
        lo = -80
        heavy[0 - lo] = False; vals[0 - lo] = 0.0
        for x in range(47, 54):
            heavy[x - lo] = False
            vals[x - lo] = 0.0
        fld = Field(lo=lo, hi=80, heavy=heavy, values=vals)
        lb, y_star = best_screening_bound(fld, 1.0, 200.0, 70, 1)
        assert 47 <= y_star <= 53

    def test_no_candidate_raises(self):
        fld = zero_field(-3, 3)
        with pytest.raises(ValueError):
            best_screening_bound(fld, 1.0, 10.0, 2, 10)
