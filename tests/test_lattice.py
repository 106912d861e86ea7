import functools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from pam1d import lattice
from pam1d.lattice import (_shoot_log_multi, hamiltonian, principal_eigpair,
                           solve_adaptive, solve_box, solve_point_log)
from pam1d.potential import Field, sample_field

from conftest import constant_field, make_spec, xi_field, zero_field


def _dense_matrix(field, z, R, kappa):
    """Small dense form of kappa*Laplacian + xi with the solver clamp."""
    n = 2 * R + 1
    m = np.diag(hamiltonian(field, z, R, kappa).diag)
    m += np.diag(np.full(n - 1, kappa), 1) + np.diag(np.full(n - 1, kappa), -1)
    return m


@functools.lru_cache(maxsize=None)
def _half_time_expm(gamma, zeta, seed, R):
    """40-digit exp(M/2), M the clamped matrix of a walled box [-R, R]."""
    import mpmath
    fld = sample_field(make_spec(gamma, zeta, atom_p=0.625), -R, R, seed)
    with mpmath.workdps(40):
        m = mpmath.matrix((0.5 * _dense_matrix(fld, 0, R, 1.0)).tolist())
        return mpmath.expm(m)


def _random_light_field(rng, lo, hi, depth=5.0):
    """Field of light sites with values uniform in [-depth, 0]."""
    return xi_field(lo, -depth * rng.random(hi - lo + 1))


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
        assert np.allclose(np.exp(pe.log_eigvec), sine, atol=1e-10)

    @pytest.mark.parametrize("clamp", [1e6, 1e8, 1e9, 1e12],
                             ids=["1e6", "1e8", "1e9", "1e12"])
    def test_clamp_representation(self, clamp, monkeypatch):
        # heavy sites with W > log(XI_CLAMP) enter the diagonal exactly at
        # -XI_CLAMP and are marked clamped: the extreme W = 1000 at every
        # clamp, the moderately heavy W = 20 (between log 1e9 and log 1e12)
        # at all but 1e12; the clamp is read when the operator is built
        monkeypatch.setattr(lattice, "XI_CLAMP", clamp)
        kappa = 1.5
        fld = Field(lo=-2, hi=2, log_neg_xi=np.array(
            [-np.inf, 1000.0, -np.inf, 20.0, -np.inf]))
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

    def test_cancelled_mode_sum_raises(self):
        # a sum that is not positive is a numerical failure, never a value:
        # every term negative, or every sign flipped, which leaves terms of
        # both signs that sum to -u
        for mixed in (False, True):
            ms = solve_point_log(zero_field(-3, 3), 0, 3, 1.0, 1.0).mode_sum
            ms.term_sign = (-ms.term_sign if mixed
                            else -np.ones_like(ms.term_sign))
            assert (ms.term_sign > 0).any() == mixed
            with pytest.raises(ArithmeticError, match=r"n = 7 .*t = 2\.0"):
                ms.point(2.0)


class TestModeSum:
    """Eigenvalues and vectors computed lazily, each once, in any order."""

    SPEC = make_spec(0.0, 1.0, atom_p=0.625)  # the rate_sweep benchmark spec

    @pytest.mark.parametrize("R, seed", [(64, 1), (512, 2)])
    def test_vectors_do_not_depend_on_grouping(self, R, seed):
        # a vector shot alone, with every other eigenvalue or with the rest
        # of its batch has the same bits, so a mode sum's terms do not
        # depend on which t computed them
        op = hamiltonian(sample_field(self.SPEC, -R, R, seed), 0, R, 1.0)
        lams = lattice._eigvals(op, 0, 24)
        logv, sgn = lattice._log_vectors(op, lams)
        for groups in ([[j] for j in range(24)],
                       [list(range(0, 24, 2)), list(range(1, 24, 2))],
                       [list(range(5)), list(range(5, 24))]):
            for g in groups:
                logv_g, sgn_g = lattice._log_vectors(op, lams[g])
                np.testing.assert_array_equal(logv_g, logv[g])
                np.testing.assert_array_equal(sgn_g, sgn[g])

    def test_any_order_of_t(self, monkeypatch):
        # t = 1e2 first shoots 8, 56 and 24 vectors, t = 1e3 first 8, 24 and
        # 56; every order reads the same prefix at each t
        R, seed = 256, 5
        fld = sample_field(self.SPEC, -R, R, seed)
        shots = []
        log_vectors = lattice._log_vectors

        def recording(op, lams):
            shots[-1].append(len(lams))
            return log_vectors(op, lams)
        monkeypatch.setattr(lattice, "_log_vectors", recording)
        ts = (1e2, 1e3, 1e4)
        results = []
        for order in ((1e2, 1e4), (1e4, 1e2), (1e3, 1e4, 1e2)):
            shots.append([])
            ms = solve_point_log(fld, 0, R, 1.0, order[0]).mode_sum
            results.append({t: ms.point(t) for t in order})
        assert shots[0] != shots[2]
        for t in ts:
            sols = [res[t] for res in results if t in res]
            assert len({(s.log_u, s.modes_used) for s in sols}) == 1

    def test_large_t_bisects_one_batch(self, monkeypatch):
        # 8 modes reach the 46-nat cut at t = 1e4, so one batch of 8
        # eigenvalues is bisected and no more
        found = []
        eigh = lattice.eigh_tridiagonal

        def counting(d, e, **kwargs):
            w = eigh(d, e, **kwargs)
            found.append(len(w))
            return w
        monkeypatch.setattr(lattice, "eigh_tridiagonal", counting)
        R = 256
        sol = solve_point_log(sample_field(self.SPEC, -R, R, 5), 0, R, 1.0, 1e4)
        assert sol.modes_used <= 8
        assert found == [8]


class TestTailRebuildOracle:
    """Joined eigenvectors on both sides of the peak against a 40-digit eigsy.

    Each box has 25 sites and a principal vector with entries below 1e-6 of
    its peak on both sides of it, and at x = -R/2 and x = R/2 some modes
    have entries below 1e-6.  Eigenvalues are bisected to relative accuracy
    and every vector is summed outward from the twist row over the log-ratios
    of two shots, so both log u and log v carry relative, not norm-wise,
    roundoff: on these boxes the errors were at most 5.0e-16 in log u and
    4.0e-16 in log v, relative to max(1, |log|).  Read as differences of two
    shot logs of size up to 30, the entries near the peak were 3.3e-15 off.
    The tolerance is 4e-15; a norm-wise error (eps times the norm, up to
    2.2e-8 here) would fail it.

    One box holds a site at the clamp.  Dense LAPACK entries below 1e-6 on
    it are not relatively accurate: read in place of the joined ones, they
    put log u off by 1.9e-14 at x = R/2.
    """

    BOXES = [(0.0, 8), (0.0, 10), (0.5, 167), (0.5, 239)]
    CLAMPED_BOX = (0.5, 8105)

    def test_shooting_against_exact_recurrence(self):
        # every row of the ratio recurrence, summed in log space through
        # solutions that grow past 1e200, with columns shot from both ends
        # over all n rows to the far end's value v[n]; over seeds 0-39 the
        # largest error was 36 eps relative to max(1, |log v|)
        mpmath = pytest.importorskip("mpmath")
        lams = np.array([-0.5, -1.5, -3.0, -3.0])
        from_left = np.array([True, False, True, False])
        for seed in range(3):
            rng = np.random.default_rng(seed)
            n = 200
            diag = np.where(rng.random(n) < 0.3,
                            -np.exp(rng.uniform(5.0, 15.0, n)),
                            -rng.uniform(0.0, 4.0, n)) - 2.0
            ratios, signs = _shoot_log_multi(diag, 1.0, lams, from_left)
            assert ratios.shape == (n, len(lams))
            logs = np.zeros((n + 1, len(lams)))
            np.cumsum(ratios, axis=0, out=logs[1:])
            assert logs.max() > 2 * math.log(1e100)
            exact_log = np.empty((n + 1, len(lams)))
            exact_sign = np.empty((n + 1, len(lams)))
            with mpmath.workdps(40):
                for j, lam in enumerate(lams):
                    prev, cur = mpmath.mpf(0), mpmath.mpf(1)
                    v = [cur]
                    for d in (diag if from_left[j] else diag[::-1]):
                        prev, cur = cur, (mpmath.mpf(lam) - d) * cur - prev
                        v.append(cur)
                    exact_log[:, j] = [float(mpmath.log(abs(x))) for x in v]
                    exact_sign[:, j] = [1.0 if x >= 0 else -1.0 for x in v]
            np.testing.assert_array_equal(signs, exact_sign)
            np.testing.assert_allclose(logs, exact_log, rtol=1e-14, atol=1e-14)

    def test_against_exact_eigendecomposition(self):
        mpmath = pytest.importorskip("mpmath")
        R, n, tol = 12, 25, 4e-15
        for gamma, seed in self.BOXES + [self.CLAMPED_BOX]:
            fld = sample_field(make_spec(gamma, 1.0), -R, R, seed)
            op = hamiltonian(fld, 0, R, 1.0)
            assert op.clamped.any() == ((gamma, seed) == self.CLAMPED_BOX)
            dense = _dense_matrix(fld, 0, R, 1.0)
            pe = principal_eigpair(op)
            a = int(np.argmax(pe.log_eigvec))
            small = pe.log_eigvec < math.log(1e-6) + pe.log_eigvec[a]
            assert small[:a].any() and small[a + 1:].any()
            with mpmath.workdps(40):
                E, Q = mpmath.eigsy(mpmath.matrix(dense.tolist()))
                k = max(range(n), key=lambda j: E[j])
                sgn = 1 if mpmath.fsum(Q[:, k]) > 0 else -1
                log_vec = np.array([float(mpmath.log(sgn * Q[i, k]))
                                    for i in range(n)])
                ip = [mpmath.fsum(Q[:, j]) for j in range(n)]
                vecs = np.linalg.eigh(dense)[1]
                for x in (-R // 2, R // 2):
                    assert (np.abs(vecs[x + R]) < 1e-6).any()
                    for t in (1.0, 4.0):
                        u = mpmath.fsum(Q[x + R, j] * mpmath.exp(t * E[j]) * ip[j]
                                        for j in range(n))
                        exact = float(mpmath.log(u))
                        sol = solve_point_log(fld, 0, R, 1.0, t, x)
                        assert abs(sol.log_u - exact) <= tol * max(1.0, abs(exact))
            assert pe.principal == pytest.approx(float(E[k]), rel=4e-15)
            err = np.abs(pe.log_eigvec - log_vec)
            assert np.all(err <= tol * np.maximum(1.0, np.abs(log_vec)))


class TestExactOracle:
    """Point values and eigenvalues to relative precision on clamped boxes.

    The fields follow the ``rate_sweep`` benchmark spec.  A norm-wise
    bisection stop (epsilon times the 1e8 clamp, about 2e-8) moves t*lambda
    by up to 1.7e-6 at t = 300, splits lambda between callers by 1.9e-7
    relative and breaks Dirichlet monotonicity by up to 1.2e-6.
    """

    SPEC = make_spec(0.0, 1.0, atom_p=0.625)

    def test_point_values_against_exact_eigendecomposition(self):
        # seeds 6, 7 and 9 hold a clamped site within R = 24, seed 8 none
        mpmath = pytest.importorskip("mpmath")
        R, n = 24, 49
        clamped = 0
        for seed in (6, 7, 8, 9):
            fld = sample_field(self.SPEC, -R, R, seed)
            clamped += bool(hamiltonian(fld, 0, R, 1.0).clamped.any())
            dense = _dense_matrix(fld, 0, R, 1.0)
            with mpmath.workdps(30):
                E, Q = mpmath.eigsy(mpmath.matrix(dense.tolist()))
                ip = [mpmath.fsum(Q[:, j]) for j in range(n)]
                for t in (3.0, 30.0, 300.0):
                    u = mpmath.fsum(Q[R, j] * mpmath.exp(t * E[j]) * ip[j]
                                    for j in range(n))
                    sol = solve_point_log(fld, 0, R, 1.0, t)
                    assert sol.log_u == pytest.approx(float(mpmath.log(u)),
                                                      rel=0.0, abs=1e-12)
        assert clamped == 3

    def test_one_eigenvalue_per_box(self):
        for seed in range(20):
            for R in (16, 64, 256):
                fld = sample_field(self.SPEC, -R, R, seed)
                lam = principal_eigpair(hamiltonian(fld, 0, R, 1.0)).principal
                sol = solve_point_log(fld, 0, R, 1.0, 100.0)
                assert sol.principal == pytest.approx(lam, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_dirichlet_monotone_in_radius(self, gamma):
        spec = make_spec(gamma, 1.0, atom_p=0.625)
        for seed in range(30):
            for R, t in ((8, 5.0), (16, 20.0), (32, 100.0)):
                fld = sample_field(spec, -4 * R, 4 * R, seed)
                small = solve_point_log(fld, 0, R, 1.0, t).log_u
                large = solve_point_log(fld, 0, 4 * R, 1.0, t).log_u
                assert small <= large + 1e-12

    def test_modes_from_different_batches(self):
        # modes of three or four bisection batches around a site at the clamp
        # (x = -2); eigenvectors computed per batch by inverse iteration were
        # 1.1e-9 off orthogonal here and put log u off by 1.7e-9 (t = 1) and
        # 1.5e-9 (t = 4)
        mpmath = pytest.importorskip("mpmath")
        R, n, x = 12, 25, 6
        fld = sample_field(make_spec(0.0, 1.0), -R, R, 380)
        assert np.nonzero(hamiltonian(fld, 0, R, 1.0).clamped)[0].tolist() == [R - 2]
        with mpmath.workdps(60):
            E, Q = mpmath.eigsy(mpmath.matrix(_dense_matrix(fld, 0, R, 1.0).tolist()))
            ip = [mpmath.fsum(Q[:, j]) for j in range(n)]
            for t in (1.0, 4.0):
                u = mpmath.fsum(Q[x + R, j] * mpmath.exp(t * E[j]) * ip[j]
                                for j in range(n))
                sol = solve_point_log(fld, 0, R, 1.0, t, x)
                assert sol.modes_used > 2 * lattice._BATCH
                assert sol.log_u == pytest.approx(float(mpmath.log(u)),
                                                  rel=1e-13, abs=0.0)

    def test_point_value_does_not_depend_on_the_clamp(self, monkeypatch):
        # Pareto zeta = 0.5 with three sites at a clamp raised to 1e16: the
        # principal entry at x = 0 is 1.1e-6 of the unit vector, and the
        # value is 18 nats below t * lambda
        mpmath = pytest.importorskip("mpmath")
        monkeypatch.setattr(lattice, "XI_CLAMP", 1e16)
        R, n, t = 32, 65, 1e4
        fld = sample_field(make_spec(0.0, 0.5, atom_p=0.625), -R, R, 1)
        assert hamiltonian(fld, 0, R, 1.0).clamped.sum() == 3
        sol = solve_point_log(fld, 0, R, 1.0, t)
        with mpmath.workdps(60):
            E, Q = mpmath.eigsy(mpmath.matrix(_dense_matrix(fld, 0, R, 1.0).tolist()))
            u = mpmath.fsum(Q[R, j] * mpmath.exp(t * E[j]) * mpmath.fsum(Q[:, j])
                            for j in range(n))
            exact = float(mpmath.log(u))
        assert exact == pytest.approx(-2048.76936, abs=1e-5)
        assert sol.sign_ok
        assert sol.log_u == pytest.approx(exact, rel=1e-12, abs=0.0)


class TestWalledBoxes:
    """Point values next to and behind clamped walls against exact expm.

    The reference is a 40-digit ``mpmath.expm`` of the same clamped matrix
    at t = 1/2, raised to the power 2t.
    Each box has a clamped wall at its second-last site, so one mode sits
    on the last site alone and its twist row is n - 1.  With that row
    barred from the twist search, log u was off by 4.3e-3 to 16.9 nats,
    and in the first two cases the signed mode sum cancelled.
    """

    @pytest.mark.parametrize("gamma, zeta, seed, R, x, t", [
        (0.5, 0.25, 29, 16, 16, 0.5), (0.5, 0.25, 29, 16, 16, 10.0),
        (0.5, 0.5, 17, 16, 0, 0.5), (0.0, 0.5, 17, 16, 6, 0.5),
        (0.5, 0.5, 17, 16, -12, 0.5)])
    def test_against_exact_exponential(self, gamma, zeta, seed, R, x, t):
        mpmath = pytest.importorskip("mpmath")
        fld = sample_field(make_spec(gamma, zeta, atom_p=0.625), -R, R, seed)
        assert hamiltonian(fld, 0, R, 1.0).clamped.any()
        with mpmath.workdps(40):
            # exp(tM) = exp(M/2)^(2t), and the entries of exp(M/2) are
            # non-negative, so the power cancels nothing
            assert 2 * t == int(2 * t)
            e = _half_time_expm(gamma, zeta, seed, R) ** int(2 * t)
            u = (e * mpmath.matrix([1] * (2 * R + 1)))[x + R]
            exact = float(mpmath.log(u))
        sol = solve_point_log(fld, 0, R, 1.0, t, x)
        assert sol.sign_ok
        assert sol.log_u == pytest.approx(exact, rel=0.0, abs=1e-12)

    @pytest.mark.xfail(strict=True, reason="bit-equal eigenvalues of twin "
                       "blocks give one vector twice and lose the other mode")
    def test_twin_blocks_with_tied_eigenvalues(self):
        # gamma = 0 light values are exactly 0 or -1, so the runs [14..17]
        # and [39..42], each fenced by clamped walls, have equal eigenvalues
        # to the bit: 16 neighbouring pairs of the 129 are equal, 21 vectors
        # duplicate another, and log u reads -33.34 against -19.358
        R, x, t = 64, 14, 30.0
        fld = sample_field(make_spec(0.0, 0.25, atom_p=0.625), -R, R, 1)
        sol = solve_point_log(fld, 0, R, 1.0, t, x)
        ref = solve_box(fld, 0, R, 1.0, t)[x + R]
        assert sol.log_u == pytest.approx(math.log(ref), rel=0.0, abs=1e-6)


class TestSolveAdaptive:
    def test_converged_and_consistent(self):
        spec = make_spec(0.0, 1.0)
        res = solve_adaptive(spec, 0, 20.0, 1e-8)
        assert res.converged
        assert res.log_u <= 0.0
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
        assert res.clamped_sites == direct.clamped_sites
        assert 1 <= res.modes_used <= 2 * res.R + 1
        assert direct.sign_ok is True

    def test_cap_reported(self):
        spec = make_spec(0.0, 1.0)
        res = solve_adaptive(spec, 1, 200.0, 1e-10, r_cap=8)
        assert not res.converged

    @pytest.mark.parametrize("kwargs", [{"r_cap": 4}, {"rtol": 0.0},
                                        {"rtol": -1.0}, {"rtol": math.nan}])
    def test_invalid_args(self, kwargs):
        # r_cap below R_START would still solve the first box; a rtol that
        # is not positive can never be met
        args = {"rtol": 1e-4, **kwargs}
        with pytest.raises(ValueError):
            solve_adaptive(make_spec(0.0, 1.0), 0, 20.0, **args)

    def test_shared_boxes_in_any_order(self):
        # seed 2 stops at R = 64, 128 and 256 on these t; filling one dict
        # from the largest t down gives the unshared results exactly
        spec = make_spec(0.0, 1.0)
        ts = (3.0, 30.0, 300.0)
        alone = [solve_adaptive(spec, 2, t, 1e-4) for t in ts]
        assert [r.R for r in alone] == [64, 128, 256]
        boxes = {}
        shared = [solve_adaptive(spec, 2, t, 1e-4, boxes=boxes)
                  for t in reversed(ts)]
        assert shared[::-1] == alone
        assert sorted(boxes) == [8, 16, 32, 64, 128, 256]
        assert [solve_adaptive(spec, 2, t, 1e-4, boxes=boxes)
                for t in ts] == alone


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

