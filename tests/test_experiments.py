import collections
import math
import warnings

import numpy as np
import pytest

from pam1d import experiments, lattice
from pam1d.experiments import (ExperimentConfig, check_assumption_H,
                               check_last, check_lln, check_microbox,
                               estimate_rho, rate_curve, t_grid)
from pam1d.lattice import solve_adaptive
from pam1d.potential import (LowerTailSpec, PotentialSpec, cumulant_G,
                             sample_field)
from pam1d.scales import invert_G
from pam1d.variational import ShapeFunction

from conftest import make_spec


@pytest.fixture
def micro_spec():
    """Sparse-heavy gamma = 0 spec with a large atom at zero."""
    return PotentialSpec(gamma=0.0, mix_q=0.1,
                         lower=LowerTailSpec.pareto(1.0), atom_p=0.95)


class TestTGrid:
    def test_canonical_grid(self, atom_spec):
        ts = t_grid(atom_spec, 3, 6)
        assert len(ts) == 4
        for n, t in zip(range(3, 7), ts):
            assert cumulant_G(atom_spec, float(t)) == \
                pytest.approx(math.exp(-n), rel=1e-8)

    def test_validation(self, atom_spec):
        with pytest.raises(ValueError):
            t_grid(atom_spec, 0, 3)
        with pytest.raises(ValueError):
            t_grid(atom_spec, 5, 3)


class TestRateCurve:
    def test_row_invariants(self, atom_spec):
        cfg = ExperimentConfig(spec=atom_spec, seeds=(0, 1), rtol=1e-4)
        curve = rate_curve(cfg, np.array([10.0, 30.0]))
        assert len(curve.t) == 4          # 2 times x 2 seeds
        assert np.all(curve.rho <= 0.0)
        assert np.all(curve.log_u <= 0.0)
        assert np.all(curve.alpha_bt_sq > 0)
        assert np.all(curve.b_t > 0)
        assert np.all(curve.converged)
        # rho column is consistent with its definition
        assert np.allclose(curve.rho,
                           curve.alpha_bt_sq / curve.t * curve.log_u)

    def test_median_rho(self, atom_spec):
        cfg = ExperimentConfig(spec=atom_spec, seeds=(0, 1, 2), rtol=1e-4)
        curve = rate_curve(cfg, np.array([10.0]))
        ts, med = curve.median_rho()
        assert ts.tolist() == [10.0]
        assert med[0] == pytest.approx(np.median(curve.rho))

    def test_config_validation(self, atom_spec):
        with pytest.raises(ValueError):
            ExperimentConfig(spec=atom_spec, kappa=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(spec=atom_spec, seeds=())
        with pytest.raises(ValueError):
            ExperimentConfig(spec=atom_spec, rtol=0.0)
        with pytest.raises(ValueError, match="t_values must not be empty"):
            rate_curve(ExperimentConfig(spec=atom_spec, seeds=(0,)),
                       np.array([]))

    # on make_spec(0, 1) seed 2 stops at R = 64, 128 and 256 on these t
    SHARED_T = np.array([3.0, 30.0, 300.0])

    def test_rows_equal_unshared_solves(self):
        spec = make_spec(0.0, 1.0)
        cfg = ExperimentConfig(spec=spec, seeds=(1, 2, 3), rtol=1e-4)
        curve = rate_curve(cfg, self.SHARED_T)
        assert curve.t.tolist() == np.repeat(self.SHARED_T, 3).tolist()
        assert curve.seed.tolist() == [1, 2, 3] * 3
        assert curve.R_used[curve.seed == 2].tolist() == [64, 128, 256]
        for t, seed, R, log_u, conv in zip(curve.t, curve.seed, curve.R_used,
                                           curve.log_u, curve.converged):
            res = solve_adaptive(spec, int(seed), t, 1e-4)
            assert (R, log_u, conv) == (res.R, res.log_u, res.converged)

    def test_each_eigenpair_batch_solved_once(self, monkeypatch):
        # a batch is one (box, mode range) pair: the box by its diagonal,
        # which differs between seeds and radii
        calls = collections.Counter()
        eigh = lattice.eigh_tridiagonal

        def counting(d, e, **kwargs):
            calls[len(d), hash(d.tobytes()), kwargs["select_range"]] += 1
            return eigh(d, e, **kwargs)
        monkeypatch.setattr(lattice, "eigh_tridiagonal", counting)
        cfg = ExperimentConfig(spec=make_spec(0.0, 1.0), seeds=(1, 2, 3),
                               rtol=1e-4)
        rate_curve(cfg, self.SHARED_T)
        assert calls and max(calls.values()) == 1


class TestAssumptionH:
    def test_atom_spec_collapse(self, atom_spec):
        res = check_assumption_H(atom_spec, [1e6, 1e8])
        # gamma = 0: the limit is the constant -A, reached quickly
        assert res["deviation"][-1] < 1e-6
        assert res["deviation"][0] >= res["deviation"][-1] - 1e-12

    def test_frechet_collapse_decreases(self, frechet_spec):
        res = check_assumption_H(frechet_spec, [1e4, 1e6, 1e8, 1e10, 1e12])
        devs = res["deviation"]
        assert all(a > b for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 0.05 * res["A"]

    def test_uniformity_over_y(self, frechet_spec):
        # uniform smallness on a compact y-window (A is calibrated at y = 1,
        # so compare the off-centre errors against the overall scale)
        res = check_assumption_H(frechet_spec, [1e8],
                                 y_grid=np.array([0.5, 1.0, 2.0]))
        errs = np.abs(res["curves"][0] + res["A"] * np.array([0.5, 1.0, 2.0])
                      ** frechet_spec.gamma)
        assert errs.max() < 0.01 * res["A"]


class TestLln:
    def test_statistic_table(self, atom_spec):
        tab = check_lln(atom_spec, 1.0, [100, 1000], range(20))
        assert tab["stats"].shape == (20, 2)
        med = np.median(tab["stats"], axis=0)
        assert med[0] > 1.0 and med[1] > med[0]
        assert tab["frac_gt_1"][1] >= 0.9

    def test_loglog_sums_beyond_double_range(self):
        # theta = 1 log-log heavy sites reach W ~ 1e308, so a seed's site
        # sum can pass the double range while the statistic stays finite;
        # the oracle sums exactly (fsum) after scaling by 2^-100
        spec = PotentialSpec(gamma=0.0, mix_q=0.2,
                             lower=LowerTailSpec.loglog(1.0), atom_p=0.5)
        tab = check_lln(spec, 1.0, [100, 1000], range(5))
        for j, n in enumerate([100, 1000]):
            N = int(2 * n * math.log(n))
            for seed in range(5):
                terms = sample_field(spec, 1, N, seed).log_neg_or1(1, N)
                exact = (math.log(math.fsum(terms * 2.0 ** -100))
                         + 100 * math.log(2.0) - math.log(invert_G(spec, 1 / n)))
                assert math.log(tab["stats"][seed, j]) == pytest.approx(
                    exact, rel=1e-12)
        assert np.isfinite(tab["stats"]).all()

    def test_b_rejected(self, atom_spec):
        with pytest.raises(ValueError):
            check_lln(atom_spec, 0.5, [100], range(3))

    def test_bounded_rejected(self, bounded_spec):
        with pytest.raises(ValueError, match="finite log-moment"):
            check_lln(bounded_spec, 1.0, [100], range(3))

    def test_no_seeds_rejected(self, atom_spec):
        with pytest.raises(ValueError, match="seeds must not be empty"):
            check_lln(atom_spec, 1.0, [100], range(0))


class TestLast:
    def test_statistic_below_threshold(self):
        spec = make_spec(0.0, 0.5)
        tab, rho = check_last(spec, 0.5, [10_000], range(30))
        assert rho > 0
        assert tab["frac_le_1p2"][0] >= 0.8

    def test_eta_ordering(self, atom_spec):
        # the normalizer (rho/n)^{-1/(eta zeta)} shrinks as eta grows (its
        # argument is < 1), so the statistic is larger for eta closer to 1
        lo, _ = check_last(atom_spec, 0.5, [1000], range(10))
        hi, _ = check_last(atom_spec, 0.9, [1000], range(10))
        assert np.median(hi["stats"]) > np.median(lo["stats"])

    def test_bounded_rejected(self, bounded_spec):
        with pytest.raises(ValueError, match="finite log-moment"):
            check_last(bounded_spec, 0.5, [100], range(3))

    def test_no_seeds_rejected(self, atom_spec):
        with pytest.raises(ValueError, match="seeds must not be empty"):
            check_last(atom_spec, 0.5, [100], range(0))

    def test_n_below_one_rejected_before_rho(self, atom_spec, monkeypatch):
        # U_0 would divide by G~^{-1}(rho / 0); the n is named before
        # estimate_rho samples anything, as check_lln names its n < 3
        calls = []
        monkeypatch.setattr(experiments, "estimate_rho",
                            lambda *a: calls.append(a))
        with pytest.raises(ValueError, match=r"n values must be >= 1, got "
                                             r"\[0, 50, 100\]"):
            check_last(atom_spec, 0.5, [0, 50, 100], range(3))
        assert calls == []

    def test_rho_finite_loglog(self):
        # about 0.14 % of theta = 1 log-log sites have log W beyond the
        # double range; they are capped, so rho stays finite
        spec = PotentialSpec(gamma=0.0, mix_q=0.2,
                             lower=LowerTailSpec.loglog(1.0), atom_p=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = estimate_rho(spec, 0.5, n_samples=20_000)
        assert math.isfinite(rho) and rho > 0

    def test_rho_estimate_vs_analytic(self, atom_spec):
        # exp-Pareto(zeta = 1): 1/g_hat is piecewise explicit, giving
        # rho = 2 [ q (1/(1-eta) + eta - 1) + (1-q) eta ]
        eta, q, zeta = 0.8, 0.2, 1.0
        target = 2 * (q * (1 / (1 - eta) + eta * zeta - 1) + (1 - q) * eta * zeta)
        rho = estimate_rho(atom_spec, eta, n_samples=400_000)
        assert rho == pytest.approx(target, rel=0.02)


class TestMicrobox:
    def test_frequency_high_at_canonical_grid(self, micro_spec):
        psi = ShapeFunction(R=0.5, values=np.full(21, -0.05))
        ts = t_grid(micro_spec, 8, 10)
        freqs = check_microbox(micro_spec, psi, 0.05, 0.95, ts, range(10))
        assert len(freqs) == 3
        assert freqs[-1] >= 0.9
        assert all(b >= a - 0.2 for a, b in zip(freqs, freqs[1:]))

    def test_seed_iterator(self, micro_spec):
        # seeds may be a one-pass iterator; every t sees all of them
        psi = ShapeFunction(R=0.5, values=np.full(21, -0.05))
        ts = t_grid(micro_spec, 8, 9)
        freqs = check_microbox(micro_spec, psi, 0.05, 0.95, ts, range(3))
        it = check_microbox(micro_spec, psi, 0.05, 0.95, ts, iter(range(3)))
        np.testing.assert_array_equal(it, freqs)

    def test_budget_precondition(self, micro_spec):
        deep = ShapeFunction(R=40.0, values=np.full(21, -0.05))
        with pytest.raises(ValueError, match="budget"):
            check_microbox(micro_spec, deep, 0.05, 0.95, [1e4], range(2))

    def test_eta_precondition(self, micro_spec):
        psi = ShapeFunction(R=0.5, values=np.full(21, -0.05))
        with pytest.raises(ValueError, match="eta"):
            check_microbox(micro_spec, psi, 0.05, 0.05, [1e4], range(2))

    def test_no_seeds_rejected(self, micro_spec):
        # rejected before anything is sampled; the frequency would be 0 / 0
        psi = ShapeFunction(R=0.5, values=np.full(21, -0.05))
        with pytest.raises(ValueError, match="seeds must not be empty"):
            check_microbox(micro_spec, psi, 0.05, 0.95, [1e4], range(0))
