import math

import numpy as np
import pytest
from scipy.linalg import expm

from pam1d.lattice import (_shoot_log_multi, hamiltonian, principal_eigpair,
                           solve_adaptive, solve_box, solve_point_log,
                           truncation_product)
from pam1d import potential
from pam1d.potential import Field, sample_field

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

    @pytest.mark.parametrize("clamp", [1e6, 1e8, 1e9, 1e12],
                             ids=["1e6", "1e8", "1e9", "1e12"])
    def test_clamp_representation(self, clamp, monkeypatch):
        # heavy sites with W > log(XI_CLAMP) enter the diagonal exactly at
        # -XI_CLAMP and are marked clamped: the extreme W = 1000 at every
        # clamp, the moderately heavy W = 20 (between log 1e9 and log 1e12)
        # at all but 1e12; the clamp is read when the operator is built
        monkeypatch.setattr(potential, "XI_CLAMP", clamp)
        kappa = 1.5
        fld = Field(lo=-2, hi=2,
                    heavy=np.array([False, True, False, True, False]),
                    values=np.array([0.0, 1000.0, 0.0, 20.0, 0.0]))
        op = hamiltonian(fld, 0, 2, kappa)
        w20_clamped = clamp < math.exp(20.0)
        assert op.clamped.tolist() == [False, True, False, w20_clamped, False]
        assert op.diag[1] == -clamp - 2.0 * kappa
        if w20_clamped:
            assert op.diag[3] == -clamp - 2.0 * kappa
        else:
            assert op.diag[3] == pytest.approx(-math.exp(20.0) - 2.0 * kappa,
                                               rel=1e-15)
        for i in (1, 3):
            e = np.zeros(5)
            e[i] = 1.0
            col = op.matvec(e)
            assert col[i] == op.diag[i]
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

    def test_heavy_boxes_against_exact_exponential(self):
        # 40-digit expm of the same clamped matrix; seeds 6, 7 and 9 hold a
        # site at the -1e8 clamp, where a norm-wise eigensolver errs by ~1e-8
        mpmath = pytest.importorskip("mpmath")
        spec = make_spec(0.0, 1.0)
        R, t = 12, 4.0
        clamped = 0
        with mpmath.workdps(40):
            for seed in range(5, 10):
                fld = sample_field(spec, -R, R, seed)
                clamped += bool(hamiltonian(fld, 0, R, 1.0).clamped.any())
                m = mpmath.matrix((t * _dense_matrix(fld, 0, R, 1.0)).tolist())
                ref = mpmath.expm(m) * mpmath.matrix([1] * (2 * R + 1))
                ref = np.array([float(x) for x in ref])
                u = solve_box(fld, 0, R, 1.0, t)
                np.testing.assert_allclose(u, ref, rtol=1e-12, atol=0.0)
        assert clamped >= 2

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


class TestTailRebuildOracle:
    """Shot tails on both sides of the peak against a 40-digit eigsy.

    Each box has 25 sites, none at the clamp, and a principal vector with
    entries below 1e-6 of its peak on both sides of it; at x = -R/2 and
    x = R/2 some modes have dense entries below 1e-6, so both shooting
    directions are used.  The error is the norm-times-epsilon roundoff of
    the stebz/stein eigenpairs.  Over the 63 such boxes among seeds 0-299
    (gamma 0 and 0.5) the largest errors were 7.7 eps*norm in log v,
    1.6 eps*norm in log u and 6.5e-16 relative in lambda; the tolerances
    are four to six times these.
    """

    BOXES = [(0.0, 8), (0.0, 10), (0.5, 167), (0.5, 239)]

    def test_shooting_against_exact_recurrence(self):
        # every row of a sweep that rescales several times, with columns
        # shot from both ends; over seeds 0-39 the largest error was 13 eps
        # relative to max(1, |log v|)
        mpmath = pytest.importorskip("mpmath")
        lams = np.array([-0.5, -1.5, -3.0, -3.0])
        from_left = np.array([True, False, True, False])
        for seed in range(3):
            rng = np.random.default_rng(seed)
            n = 200
            diag = np.where(rng.random(n) < 0.3,
                            -np.exp(rng.uniform(5.0, 15.0, n)),
                            -rng.uniform(0.0, 4.0, n)) - 2.0
            logs, signs = _shoot_log_multi(diag, 1.0, lams, from_left)
            assert logs.max() > 2 * math.log(1e100)
            exact_log = np.empty((n, len(lams)))
            exact_sign = np.empty((n, len(lams)))
            with mpmath.workdps(40):
                for j, lam in enumerate(lams):
                    d = diag if from_left[j] else diag[::-1]
                    prev, cur = mpmath.mpf(0), mpmath.mpf(1)
                    for i in range(n):
                        exact_log[i, j] = float(mpmath.log(abs(cur)))
                        exact_sign[i, j] = 1.0 if cur >= 0 else -1.0
                        prev, cur = cur, (mpmath.mpf(lam) - d[i]) * cur - prev
            np.testing.assert_array_equal(signs, exact_sign)
            np.testing.assert_allclose(logs, exact_log, rtol=1e-14, atol=1e-14)

    def test_against_exact_eigendecomposition(self):
        mpmath = pytest.importorskip("mpmath")
        R, n, eps = 12, 25, np.finfo(float).eps
        for gamma, seed in self.BOXES:
            fld = sample_field(make_spec(gamma, 1.0), -R, R, seed)
            op = hamiltonian(fld, 0, R, 1.0)
            assert not op.clamped.any()
            norm = float(np.max(np.abs(op.diag)))
            dense = _dense_matrix(fld, 0, R, 1.0)
            pe = principal_eigpair(op)
            a = int(np.argmax(pe.eigvec))
            small = pe.eigvec < 1e-6 * pe.eigvec[a]
            assert small[:a].any() and small[a + 1:].any()
            with mpmath.workdps(40):
                E, Q = mpmath.eigsy(mpmath.matrix(dense.tolist()))
                k = max(range(n), key=lambda j: E[j])
                sgn = 1 if mpmath.fsum(Q[:, k]) > 0 else -1
                log_vec = [float(mpmath.log(sgn * Q[i, k])) for i in range(n)]
                ip = [mpmath.fsum(Q[:, j]) for j in range(n)]
                vecs = np.linalg.eigh(dense)[1]
                for x in (-R // 2, R // 2):
                    assert (np.abs(vecs[x + R]) < 1e-6).any()
                    for t in (1.0, 4.0):
                        u = mpmath.fsum(Q[x + R, j] * mpmath.exp(t * E[j]) * ip[j]
                                        for j in range(n))
                        sol = solve_point_log(fld, 0, R, 1.0, t, x)
                        assert sol.log_u == pytest.approx(
                            float(mpmath.log(u)), rel=0.0, abs=8 * eps * norm)
            assert pe.principal == pytest.approx(float(E[k]), rel=4e-15)
            np.testing.assert_allclose(np.log(pe.eigvec), log_vec, rtol=0.0,
                                       atol=32 * eps * norm)


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

    def test_reports_final_point_solve(self):
        spec = make_spec(0.5, 1.0)
        res = solve_adaptive(spec, 2, 30.0, 1e-6)
        fld = sample_field(spec, -res.R, res.R, 2)
        direct = solve_point_log(fld, 0, res.R, 1.0, 30.0)
        assert res.modes_used == direct.modes_used
        assert 1 <= res.modes_used <= 2 * res.R + 1
        assert res.sign_ok is True and direct.sign_ok is True

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
