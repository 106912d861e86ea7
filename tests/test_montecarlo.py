import math
import warnings

import numpy as np
import pytest

from pam1d import montecarlo
from pam1d.lattice import (hamiltonian, principal_eigpair, solve_box,
                           solve_point_log)
from pam1d.montecarlo import (_BATCH, _crossing, _log_weights,
                              _occupation_batch, best_screening_bound, fk_estimate, jump_budget,
                              screening_lower_bound)
from pam1d.potential import Field, sample_field

from conftest import constant_field, make_spec, xi_field, zero_field


def _walks(kappa, t, seed, n):
    """n walks from the sampler fk_estimate uses, with its jump budget:
    (steps, holds, starts, counts), with walk b's holding times
    holds[starts[b]:starts[b] + counts[b] + 1] = t e / (sum of its e)."""
    counts, e, steps = _occupation_batch(kappa, t, jump_budget(kappa, t),
                                         np.random.default_rng(seed), n)
    starts = np.concatenate([[0], np.cumsum(counts + 1)[:-1]])
    holds = t * (e / np.repeat(np.add.reduceat(e, starts), counts + 1))
    return steps, holds, starts, counts


class TestSimulateWalk:
    def test_zero_time_no_jumps(self):
        steps, holds, starts, counts = _walks(1.0, 0.0, 0, 5)
        assert counts.tolist() == [0] * 5
        assert starts.tolist() == [0, 1, 2, 3, 4]
        assert steps.size == 0
        assert np.all(holds == 0.0)

    def test_deterministic_given_seed(self):
        a = _walks(1.0, 5.0, 42, 50)
        b = _walks(1.0, 5.0, 42, 50)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_path_structure(self):
        t = 10.0
        steps, holds, starts, counts = _walks(0.7, t, 3, 200)
        assert steps.dtype == np.int8 and np.all(np.abs(steps) == 1)
        assert np.all(holds >= 0.0)
        # each walk's holding times fill [0, t]
        assert np.allclose(np.add.reduceat(holds, starts), t, rtol=1e-12)

    def test_walk_without_jumps_holds_exactly_t(self):
        # P(N = 0) = e^{-2 kappa t}: hundreds of such walks per field; each
        # holds all of [0, t] at 0, so its log-weight is xi(0) t to an ulp.
        # Multiplying by t after the division misses by two ulps on about
        # 50 of these 7000 walks
        kappa, n = 1.0, 2000
        for seed in range(1, 13):
            t = 0.1 * (1 + seed % 9) + 0.037 * seed
            m = jump_budget(kappa, t)
            fld = sample_field(make_spec(0.5, 1.0), -m, m, seed)
            xi0 = fld.xi(0, 0).item()
            counts, e, steps = _occupation_batch(
                kappa, t, m, np.random.default_rng(seed), n)
            log_w, _ = _log_weights(counts, e, steps, t * fld.xi(-m, m), None)
            alone = log_w[counts == 0]
            assert alone.size > 100
            assert np.all(np.abs(alone - xi0 * t)
                          <= np.spacing(abs(xi0 * t)))

    def test_mean_jump_count(self):
        # number of jumps by time t is Poisson(2 kappa t)
        kappa, t, n = 1.0, 3.0, 3000
        *_, counts = _walks(kappa, t, 0, n)
        mean = 2 * kappa * t
        sigma = math.sqrt(mean / n)
        assert abs(counts.mean() - mean) < 4 * sigma

    def test_variance_of_position(self):
        # Var X(t) = 2 kappa t for the rate-2kappa walk with +-1 steps
        kappa, t, n = 0.5, 4.0, 3000
        steps, _, starts, counts = _walks(kappa, t, 0, n)
        # walk b's steps start at starts[b] - b: one site more than steps
        # per walk before it
        first = starts - np.arange(n)
        c = np.concatenate([[0], np.cumsum(steps, dtype=np.int64)])
        finals = c[first + counts] - c[first]
        var = 2 * kappa * t
        # fourth-moment bound for the stderr of a variance estimate
        sigma = math.sqrt((3 * var ** 2 + var) / n)
        assert abs((finals ** 2).mean() - var) < 4 * sigma

    def test_first_holding_time_exponential(self):
        # the first jump comes at rate 2 kappa: P(h_0 > s) = e^{-2 kappa s}
        # for s < t; uniform draws normalised to sum to t fail this
        kappa, t, n = 1.0, 3.0, 20_000
        _, holds, starts, _ = _walks(kappa, t, 1, n)
        for s in (0.1, 0.5, 1.5):
            p = math.exp(-2 * kappa * s)
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs((holds[starts] > s).mean() - p) < 4 * sigma

    def test_holding_times_given_count(self):
        # given N = n jumps, each of the n + 1 holding times has mean
        # t / (n + 1) and variance t^2 n / ((n + 1)^2 (n + 2)) (flat
        # Dirichlet); spacings spread over more sites than N + 1 fail this
        kappa, t, n = 1.0, 3.0, 20_000
        _, holds, starts, counts = _walks(kappa, t, 2, n)
        for jumps in (2, 6, 10):
            rows = holds[starts[counts == jumps, None] + np.arange(jumps + 1)]
            mean = t / (jumps + 1)
            sigma = math.sqrt(t * t * jumps / ((jumps + 1) ** 2 * (jumps + 2))
                              / len(rows))
            assert np.all(np.abs(rows.mean(axis=0) - mean) < 4 * sigma)

    def test_draws_exactly_the_jumps_made(self):
        # sum (N + 1) exponentials and ceil(sum N / 8) bytes of steps, in
        # that order after the counts; the budget caps N
        kappa, t, n = 1.0, 3.0, 20_000
        counts, e, steps = _occupation_batch(kappa, t, jump_budget(kappa, t),
                                             np.random.default_rng(3), n)
        assert counts.shape == (n,) and np.all(counts >= 0)
        assert e.size == int((counts + 1).sum())
        assert steps.size == int(counts.sum())
        rng = np.random.default_rng(3)
        assert np.array_equal(rng.poisson(2 * kappa * t, size=n), counts)
        assert np.array_equal(rng.standard_exponential(e.size), e)
        bits = np.unpackbits(rng.integers(0, 256, size=(steps.size + 7) // 8,
                                          dtype=np.uint8))
        assert np.array_equal(2 * bits[:steps.size].astype(int) - 1, steps)
        with pytest.raises(ArithmeticError, match="max_jumps exceeded"):
            _occupation_batch(kappa, t, 2, np.random.default_rng(3), n)


def _reference_log_weights(counts, e, steps, xi, t, box):
    """Walk-by-walk loop: positions from the steps, holds t e / sum e, the
    log-weight sum xi(x) * hold, and -inf for a walk that leaves the box."""
    m = (xi.size - 1) // 2
    out, site = [], 0
    for b, n in enumerate(counts):
        pos = np.concatenate([[0], np.cumsum(steps[site - b:site - b + n])])
        ee = e[site:site + n + 1]
        site += n + 1
        if box is not None and np.abs(pos).max() > box:
            out.append(-math.inf)
        else:
            out.append(float(np.sum(xi[pos + m] * (t * (ee / ee.sum())))))
    return np.array(out)


class TestLogWeights:
    @pytest.mark.parametrize("box", [None, 4, 0])
    def test_against_walk_by_walk_loop(self, box):
        kappa, t, n = 1.0, 3.0, 500
        m = jump_budget(kappa, t)
        fld = sample_field(make_spec(0.5, 1.0), -m, m, 21)
        xi = fld.xi(-m, m)
        batch = _occupation_batch(kappa, t, m, np.random.default_rng(5), n)
        log_w, killed = _log_weights(*batch, t * xi, box)
        ref = _reference_log_weights(*batch, xi, t, box)
        assert np.array_equal(killed, ref == -math.inf)
        assert (box is None) == (not killed.any())
        assert np.array_equal(log_w[killed], ref[killed])
        assert np.allclose(log_w[~killed], ref[~killed], rtol=1e-13, atol=0)


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
        # order of the RNG draws moves them.  The boxed one is also checked
        # against the exact box value, so the frozen number is a sound one
        fld = sample_field(make_spec(0.5, 1.0), -10, 10, 2000)
        res = fk_estimate(fld, 1.0, 3.0, 100_000, 2000, box=10)
        assert (res.estimate, res.stderr, res.exit_fraction) == (
            0.038343138995938233, 0.00017708375877853618, 6e-05)
        exact = solve_box(fld, 0, 10, 1.0, 3.0)[10]
        assert exact == pytest.approx(0.0384166576, rel=1e-9)
        assert abs(res.estimate - exact) < 4 * res.stderr
        fld = sample_field(make_spec(0.5, 1.0), -200, 200, 40)
        res = fk_estimate(fld, 1.0, 1.0, 20_000, 7)
        assert (res.estimate, res.stderr, res.exit_fraction) == (
            0.41908790852398525, 0.0013067376632426534, 0.0)

    def test_box_zero_keeps_only_walks_without_jumps(self):
        # with box = 0 a walk survives only if it never jumps, which it does
        # with probability p = e^{-2 kappa t}, and then holds exactly t at 0.
        # Several full batches and a partial one: a walk whose position is
        # not reset at its own start would leave 0 and be killed
        kappa, t, xi0 = 0.5, 1.0, -0.5
        x = np.arange(-3, 4)
        fld = xi_field(-3, np.where(x == 0, xi0, -0.1 * np.abs(x)))
        n = 3 * _BATCH + 17
        res = fk_estimate(fld, kappa, t, n, 11, box=0)
        p = math.exp(-2 * kappa * t)
        w = math.exp(xi0 * t)
        assert abs(res.estimate - p * w) < 4 * w * math.sqrt(p * (1 - p) / n)
        assert abs(res.exit_fraction - (1 - p)) < 4 * math.sqrt(p * (1 - p) / n)
        # every survivor carries exactly the weight e^{xi(0) t}
        assert res.estimate == pytest.approx((1 - res.exit_fraction) * w,
                                             rel=1e-12)

    def test_negative_box_rejected(self):
        with pytest.raises(ValueError, match="box must be >= 0"):
            fk_estimate(zero_field(-5, 5), 1.0, 1.0, 10, 0, box=-1)

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            fk_estimate(zero_field(-5, 5), 1.0, 1.0, 0, 0)

    @pytest.mark.parametrize("kappa", [-1.0, -0.1, 0.0, math.nan, math.inf])
    def test_bad_kappa_rejected_before_any_draw(self, monkeypatch, kappa):
        def no_draw(*args):
            raise AssertionError("walks drawn")
        monkeypatch.setattr(montecarlo, "_occupation_batch", no_draw)
        with pytest.raises(ValueError, match="kappa must be > 0"):
            fk_estimate(zero_field(-5, 5), kappa, 1.0, 10, 0, box=5)

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_bad_t_rejected(self, t):
        with pytest.raises(ValueError, match="t must be >= 0"):
            jump_budget(1.0, t)


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
        wall = (np.abs(x) >= 1) & (np.abs(x) <= 200)
        fld = Field(lo=-220, hi=220,
                    log_neg_xi=np.where(wall, 50.0, -np.inf))
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
        lo = -80
        log_neg_xi = np.ones(161)          # log(-xi) = 1 -> xi = -e
        for x in (0, *range(47, 54)):
            log_neg_xi[x - lo] = -np.inf   # xi = 0
        fld = Field(lo=lo, hi=80, log_neg_xi=log_neg_xi)
        lb, y_star = best_screening_bound(fld, 1.0, 200.0, 70, 1)
        assert 47 <= y_star <= 53

    def test_no_candidate_raises(self):
        fld = zero_field(-3, 3)
        with pytest.raises(ValueError):
            best_screening_bound(fld, 1.0, 10.0, 2, 10)

    @pytest.mark.parametrize("kappa, t, R, match", [
        (1.0, 0.0, 2, "t must be > 0"),
        (0.0, 3.0, 2, "kappa must be > 0"),
        (1.0, 3.0, -1, "window radius must be >= 0"),
    ])
    def test_bad_arguments_raise(self, kappa, t, R, match):
        fld = sample_field(make_spec(0.0, 1.0), -30, 30, 1)
        with pytest.raises(ValueError, match=match):
            best_screening_bound(fld, kappa, t, 20, R)

    def test_equals_search_over_every_centre(self):
        # the prefix-sum budgets skip only centres that screening_lower_bound
        # rejects, so the result is that of calling it at every centre
        skipped = 0
        for i in range(300):
            fld = sample_field(make_spec(0.5 if i % 2 else 0.0, 1.0),
                               -30, 30, 4000 + i)
            t, R, search = float(1 + i % 9), i % 4, 24
            best, best_y = -math.inf, None
            for y in range(-search, search + 1):
                if y % max(R, 1):
                    continue
                try:
                    val = screening_lower_bound(fld, 1.0, t, y, R)
                except ValueError:
                    skipped += 1
                    continue
                if val > best:
                    best, best_y = val, y
            assert best_screening_bound(fld, 1.0, t, search, R) == (best, best_y)
        assert skipped > 1000

    def test_search_never_calls_an_infeasible_centre(self, monkeypatch):
        # the search filters on the budget screening_lower_bound checks, to
        # the bit, so none of its calls raises; same fields as above
        inner = montecarlo.screening_lower_bound
        calls, raised = [], []

        def checked(*args):
            calls.append(args[2:4])
            try:
                return inner(*args)
            except ValueError:
                raised.append(args[2:4])
                raise

        monkeypatch.setattr(montecarlo, "screening_lower_bound", checked)
        for i in range(300):
            fld = sample_field(make_spec(0.5 if i % 2 else 0.0, 1.0),
                               -30, 30, 4000 + i)
            best_screening_bound(fld, 1.0, float(1 + i % 9), 24, i % 4)
        assert len(calls) > 1000
        assert raised == []

    def test_budget_of_exactly_half_t_is_evaluated(self):
        # xi = -10 (r_x = 0.1) everywhere but at y = 30; t/2 is the crossing
        # budget to y as the code forms it, summed outward from 0 one site
        # at a time.  With R = 0 and kappa = 20, sitting at y after the
        # crossing beats staying at 0
        k, kappa = 30, 20.0
        x = np.arange(-40, 41)
        fld = xi_field(-40, np.where(x == k, 0.0, -10.0))
        t = 2.0 * float(np.cumsum(np.exp(-fld.log_neg_or1(0, k - 1)))[-1])
        lb, y_star = best_screening_bound(fld, kappa, t, 35, 0)
        assert y_star == k
        assert lb == screening_lower_bound(fld, kappa, t, k, 0)
        # an ulp less and y is skipped, not tried: a pairwise sum of the
        # same r_x rounds below the running one and would let it through
        t = 2.0 * np.nextafter(t / 2.0, 0.0)
        assert best_screening_bound(fld, kappa, t, 35, 0)[1] != k


class TestCrossing:
    def test_search_prefixes_equal_the_per_centre_sums(self):
        # the one pass per side that the search makes holds, at entry |y|,
        # the bits that screening_lower_bound reads for centre y
        for i in range(60):
            fld = sample_field(make_spec(0.5 if i % 2 else 0.0, 1.0),
                               -30, 30, 4000 + i)
            kappa = (0.5, 1.0, 3.0)[i % 3]
            sides = _crossing(fld, kappa, 24), _crossing(fld, kappa, -24)
            for y in range(-24, 25):
                side = sides[y < 0]
                for whole, prefix in zip(_crossing(fld, kappa, y), side):
                    assert whole.size == abs(y) + 1
                    assert np.array_equal(whole, prefix[:abs(y) + 1])

    def test_sums_in_crossing_order(self):
        fld = sample_field(make_spec(0.0, 1.0), -10, 10, 3)
        budget, travel = _crossing(fld, 2.0, -4)
        r = np.exp(-fld.log_neg_or1(-3, 0)[::-1])
        cost = (np.log(-np.expm1(-4.0 * r)) - math.log(2.0)
                + np.maximum(fld.xi(-3, 0)[::-1], -1.0))
        assert budget.tolist() == [0.0, *np.cumsum(r)]
        assert travel.tolist() == [0.0, *np.cumsum(cost)]
        assert [a.tolist() for a in _crossing(fld, 2.0, 0)] == [[0.0], [0.0]]

    def test_underflowing_site_makes_the_crossing_impossible(self):
        # W = 800 at x = 2: r_2 = e^-800 underflows to 0, so no walk moves on
        # within it; every centre beyond is -inf, with no NaN and no warning
        x = np.arange(-20, 21)
        fld = Field(lo=-20, hi=20,
                    log_neg_xi=np.where(x == 2, 800.0, -np.inf))
        t, R = 30.0, 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for y in range(3, 16):
                assert screening_lower_bound(fld, 1.0, t, y, R) == -math.inf
            lb, y_star = best_screening_bound(fld, 1.0, t, 15, R)
        assert math.isfinite(lb)
        assert y_star <= 0
        assert lb == screening_lower_bound(fld, 1.0, t, y_star, R)
