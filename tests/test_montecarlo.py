import math
import warnings

import numpy as np
import pytest

from pam1d import montecarlo
from pam1d.lattice import (hamiltonian, principal_eigpair, solve_box,
                           solve_point_log)
from pam1d.montecarlo import (_CHUNK, _blocks, _crossing,
                              _jump_strata, _log_weights, best_screening_bound,
                              fk_estimate, jump_budget, screening_lower_bound)
from pam1d.potential import Field, sample_field

from conftest import constant_field, make_spec, xi_field, zero_field


def _walks(kappa, t, seed, n):
    """n walks from the sampler fk_estimate uses, with its jump budget:
    (steps, holds, counts), one list entry per block, walk c of a block in
    column c; holds[i, c] = t e[i, c] / (sum of column c of e)."""
    steps, holds, counts = [], [], []
    for e, st in _blocks(2 * kappa * t, jump_budget(kappa, t), n,
                         np.random.default_rng(seed)):
        steps.append(st)
        holds.append(t * (e / e.sum(axis=0)))
        counts.append(st.shape[0])
    return steps, holds, counts


def _pmf(mean, size):
    return np.array([math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))
                     for k in range(size)])


class TestJumpStrata:
    @pytest.mark.parametrize("mean, n", [(6.0, 100_000), (0.3, 7), (40.0, 1),
                                         (160.0, 12_345)])
    def test_allocation(self, mean, n):
        # sum n_k = n, and each n_k is n P(N = k) rounded up or down
        budget = int(mean + 12 * math.sqrt(mean + 1) + 30)
        for u in (0.5, 0.25, 0.999):
            n_k = _jump_strata(mean, budget, n, u)
            assert n_k.shape == (budget + 1,) and np.all(n_k >= 0)
            assert n_k.sum() == n
            assert np.all(np.abs(n_k - n * _pmf(mean, budget + 1)) < 1)

    def test_mean_over_u_is_n_pmf(self):
        # E_u ceil(x - u) = x for x >= 0, so E n_k = n P(N = k): the
        # systematic counts are unbiased.  Midpoints of 4000 u-cells carry
        # an error of at most 1 / 4000 per k
        mean, n, cells = 6.0, 37, 4000
        budget = jump_budget(1.0, 3.0)
        avg = np.mean([_jump_strata(mean, budget, n, (j + 0.5) / cells)
                       for j in range(cells)], axis=0)
        assert np.all(np.abs(avg - n * _pmf(mean, budget + 1)) <= 1 / cells)

    def test_zero_time_and_one_walk(self):
        assert _jump_strata(0.0, jump_budget(1.0, 0.0), 5, 0.7).tolist() == (
            [5] + [0] * jump_budget(1.0, 0.0))
        # one walk: its count is the quantile at u itself
        for u in (0.0, 0.3, 0.9):
            n_k = _jump_strata(6.0, 60, 1, u)
            assert n_k.sum() == 1
            k = int(np.flatnonzero(n_k)[0])
            cdf = np.cumsum(_pmf(6.0, 61))
            assert (cdf[k - 1] if k else 0.0) <= u < cdf[k]
        m = jump_budget(1.0, 2.0)
        fld = constant_field(-m, m, -0.5)
        res = fk_estimate(fld, 1.0, 2.0, 1, 3)
        assert res.n_samples == 1 and res.stderr == 0.0
        assert res.estimate == pytest.approx(math.exp(-1.0), rel=1e-14)
        res = fk_estimate(fld, 1.0, 0.0, 4, 3)
        assert (res.estimate, res.stderr, res.exit_fraction) == (1.0, 0.0, 0.0)

    def test_budget_too_small_raises(self):
        with pytest.raises(ArithmeticError, match="max_jumps exceeded"):
            _jump_strata(6.0, 2, 1000, 0.5)
        with pytest.raises(ArithmeticError, match="max_jumps exceeded"):
            next(_blocks(6.0, 2, 1000, np.random.default_rng(0)))


class TestSimulateWalk:
    def test_zero_time_no_jumps(self):
        steps, holds, counts = _walks(1.0, 0.0, 0, 5)
        assert counts == [0]
        assert steps[0].shape == (0, 5)
        assert holds[0].shape == (1, 5) and np.all(holds[0] == 0.0)

    def test_deterministic_given_seed(self):
        for a, b in zip(_walks(1.0, 5.0, 42, 50), _walks(1.0, 5.0, 42, 50)):
            assert len(a) == len(b)
            for x, y in zip(a, b):
                assert np.array_equal(x, y)

    def test_path_structure(self):
        t = 10.0
        steps, holds, counts = _walks(0.7, t, 3, 200)
        # one block per count, in increasing order
        assert counts == sorted(set(counts))
        for st, h, k in zip(steps, holds, counts):
            assert st.dtype == np.int8 and np.all(np.abs(st) == 1)
            assert st.shape[0] == k and h.shape == (k + 1, st.shape[1])
            assert np.all(h >= 0.0)
            # each walk's holding times fill [0, t]
            assert np.allclose(h.sum(axis=0), t, rtol=1e-12)
        assert sum(st.shape[1] for st in steps) == 200

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
            e, steps = next(_blocks(2 * kappa * t, m, n,
                                    np.random.default_rng(seed)))
            assert steps.shape[0] == 0
            log_w, killed = _log_weights(e, steps, t * fld.xi(-m, m), 0)
            assert log_w.size > 100 and not killed.any()
            assert np.all(np.abs(log_w - xi0 * t)
                          <= np.spacing(abs(xi0 * t)))

    def test_mean_jump_count(self):
        # the counts are Poisson(2 kappa t) quantiles: their mean is the
        # Poisson mean to within the rounding of each n_k to a whole walk
        kappa, t, n = 1.0, 3.0, 3000
        steps, _, counts = _walks(kappa, t, 0, n)
        mean = np.average(counts, weights=[st.shape[1] for st in steps])
        assert abs(mean - 2 * kappa * t) < 30 / n

    def test_variance_of_position(self):
        # Var X(t) = 2 kappa t for the rate-2kappa walk with +-1 steps
        kappa, t, n = 0.5, 4.0, 3000
        steps, _, _ = _walks(kappa, t, 0, n)
        finals = np.concatenate([st.sum(axis=0, dtype=np.int64)
                                 for st in steps])
        var = 2 * kappa * t
        # fourth-moment bound for the stderr of a variance estimate
        sigma = math.sqrt((3 * var ** 2 + var) / n)
        assert abs((finals ** 2).mean() - var) < 4 * sigma

    def test_first_holding_time_exponential(self):
        # the first jump comes at rate 2 kappa: P(h_0 > s) = e^{-2 kappa s}
        # for s < t; uniform draws normalised to sum to t fail this
        kappa, t, n = 1.0, 3.0, 20_000
        _, holds, _ = _walks(kappa, t, 1, n)
        first = np.concatenate([h[0] for h in holds])
        for s in (0.1, 0.5, 1.5):
            p = math.exp(-2 * kappa * s)
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs((first > s).mean() - p) < 4 * sigma

    def test_holding_times_given_count(self):
        # given N = n jumps, each of the n + 1 holding times has mean
        # t / (n + 1) and variance t^2 n / ((n + 1)^2 (n + 2)) (flat
        # Dirichlet); spacings spread over more sites than N + 1 fail this
        kappa, t, n = 1.0, 3.0, 20_000
        _, holds, counts = _walks(kappa, t, 2, n)
        for jumps in (2, 6, 10):
            h = holds[counts.index(jumps)]
            mean = t / (jumps + 1)
            sigma = math.sqrt(t * t * jumps / ((jumps + 1) ** 2 * (jumps + 2))
                              / h.shape[1])
            assert np.all(np.abs(h.mean(axis=1) - mean) < 4 * sigma)

    def test_draws_exactly_the_jumps_made(self):
        # one uniform, then per block (k + 1) rows Exp(1) variates and
        # ceil(k rows / 8) bytes of steps, counts in increasing order; a
        # count with more than 2^16 variates takes several blocks
        kappa, t, n = 1.0, 3.0, 60_000
        m = jump_budget(kappa, t)
        rng = np.random.default_rng(3)
        n_k = _jump_strata(2 * kappa * t, m, n, rng.random())
        shapes = []
        for e, steps in _blocks(2 * kappa * t, m, n, np.random.default_rng(3)):
            k, rows = steps.shape
            shapes.append((k, rows))
            assert np.array_equal(rng.standard_exponential((k + 1, rows)), e)
            bits = np.unpackbits(rng.integers(0, 256, size=(k * rows + 7) // 8,
                                              dtype=np.uint8))
            assert np.array_equal(2 * bits[:k * rows].astype(int) - 1,
                                  steps.ravel())
        per_count = {}
        for k, rows in shapes:
            assert rows * (k + 1) <= _CHUNK
            per_count[k] = per_count.get(k, 0) + rows
        assert per_count == {k: int(c) for k, c in enumerate(n_k) if c}
        assert len(shapes) > len(per_count)


def _reference_log_weights(e, steps, xi, t, box):
    """Walk-by-walk loop: positions from the steps, holds t e / sum e, the
    log-weight sum xi(x) * hold, and -inf for a walk that leaves the box."""
    m = (xi.size - 1) // 2
    out = []
    for c in range(steps.shape[1]):
        pos = np.concatenate([[0], np.cumsum(steps[:, c])])
        ee = e[:, c]
        if box is not None and np.abs(pos).max() > box:
            out.append(-math.inf)
        else:
            out.append(float(np.sum(xi[pos + m] * (t * (ee / ee.sum())))))
    return np.array(out)


class TestLogWeights:
    @pytest.mark.parametrize("box", [None, 4, 0])
    def test_against_walk_by_walk_loop(self, box):
        # no box is the box at the jump budget, as in fk_estimate: the
        # reference loop kills no walk there
        kappa, t, n = 1.0, 3.0, 300
        m = jump_budget(kappa, t)
        fld = sample_field(make_spec(0.5, 1.0), -m, m, 21)
        xi = fld.xi(-m, m)
        for e, steps in _blocks(2 * kappa * t, m, n,
                                np.random.default_rng(5)):
            log_w, killed = _log_weights(e, steps, t * xi,
                                         m if box is None else box)
            ref = _reference_log_weights(e, steps, xi, t, box)
            assert np.array_equal(killed, ref == -math.inf)
            assert np.array_equal(log_w[killed], ref[killed])
            assert np.allclose(log_w[~killed], ref[~killed],
                               rtol=1e-13, atol=0)
            if box is None or steps.shape[0] <= box:
                assert not killed.any()


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

    def test_all_weights_zero_raises(self):
        # xi = -1000: a path integral of about -1000 underflows exp, and one
        # walk of 2000 leaves the box; the sum of weights is exactly 0, and
        # 0 +- 0 would claim u(1, 0) = 0
        fld = Field(lo=-40, hi=40, log_neg_xi=np.full(81, math.log(1000.0)))
        with pytest.raises(ArithmeticError,
                           match="1 of 2000 walks left the box and the other "
                                 "1999 have weights below the double range"):
            fk_estimate(fld, 1.0, 1.0, 2000, 0, box=5)

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
            0.03830344858772356, 0.00017712232960761504, 5e-05)
        exact = solve_box(fld, 0, 10, 1.0, 3.0)[10]
        assert exact == pytest.approx(0.0384166576, rel=1e-9)
        assert abs(res.estimate - exact) < 4 * res.stderr
        fld = sample_field(make_spec(0.5, 1.0), -200, 200, 40)
        res = fk_estimate(fld, 1.0, 1.0, 20_000, 7)
        assert (res.estimate, res.stderr, res.exit_fraction) == (
            0.4201952959528573, 0.001303862955688829, 0.0)

    @pytest.mark.parametrize("gamma, field_seed", [(0.0, 2003), (0.5, 2000)])
    def test_stderr_is_honest(self, gamma, field_seed):
        # the reported stderr is the iid formula; under systematic counts
        # the spread of the estimates over seeds is no larger than it, up
        # to the noise of 200 estimates of a sd (about 5 %)
        fld = sample_field(make_spec(gamma, 1.0), -10, 10, field_seed)
        exact = solve_box(fld, 0, 10, 1.0, 3.0)[10]
        runs = [fk_estimate(fld, 1.0, 3.0, 2000, seed, box=10)
                for seed in range(200)]
        est = np.array([r.estimate for r in runs])
        sd = est.std(ddof=1)
        assert sd <= 1.15 * np.mean([r.stderr for r in runs])
        assert abs(est.mean() - exact) < 4 * sd / math.sqrt(200)

    def test_box_zero_keeps_only_walks_without_jumps(self):
        # with box = 0 a walk survives only if it never jumps, which it does
        # with probability p = e^{-2 kappa t}, and then holds exactly t at 0.
        # The walks without jumps fill several blocks, the last one partial
        kappa, t, xi0 = 0.5, 0.1, -0.5
        x = np.arange(-3, 4)
        fld = xi_field(-3, np.where(x == 0, xi0, -0.1 * np.abs(x)))
        n = 3 * _CHUNK + 17
        p = math.exp(-2 * kappa * t)
        assert 2 * _CHUNK < p * n < 3 * _CHUNK
        res = fk_estimate(fld, kappa, t, n, 11, box=0)
        w = math.exp(xi0 * t)
        # the survivors are the n_0 = n p walks without jumps, to one walk
        assert abs(res.exit_fraction - (1 - p)) < 1 / n
        assert abs(res.estimate - p * w) < w / n
        # every survivor carries exactly the weight e^{xi(0) t}
        assert res.estimate == pytest.approx((1 - res.exit_fraction) * w,
                                             rel=1e-12)

    @pytest.mark.parametrize("t", [0.5, 3.0, 10.0])
    def test_no_box_is_box_at_jump_budget(self, frechet_spec, t):
        # no walk makes more than jump_budget jumps, so none can leave the
        # box of that radius: both calls give the same result, to the bit
        budget = jump_budget(1.0, t)
        fld = sample_field(frechet_spec, -budget, budget, 0)
        assert (fk_estimate(fld, 1.0, t, 100_000, 0)
                == fk_estimate(fld, 1.0, t, 100_000, 0, box=budget))

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
        monkeypatch.setattr(montecarlo, "_blocks", no_draw)
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
        assert lb == pytest.approx(2 * pe.log_eigvec[5] + t * pe.principal)

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
