import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from pam1d import variational
from pam1d.variational import (ChiResult, ShapeFunction, VariationalConfig,
                               _chi_closed, _fd_principal, _optimal_psi,
                               _warm_principal, brute_legendre, chi_tilde,
                               eig_continuum, functional_H, legendre_L)


# the benchmark's chi_scan configurations at A = ln 2: (gamma, chi, the best
# run's iterations)
CHI_SCAN_FROZEN = [
    (0.1, 2.672247260337549, 18), (0.25, 1.4646361550926112, 10),
    (0.5, 0.8289222626428266, 2)]


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


class TestPrincipalPair:
    def test_capped_profile_against_mpmath(self):
        # walls 1e12 deep among moderate entries: a norm-wise bisection stop
        # (eps times the norm) puts lambda 4.4e-6 relative off here
        mpmath = pytest.importorskip("mpmath")
        R, n = 1.0, 41
        x = -R + 2.0 * R / (n + 1) * np.arange(1, n + 1)
        vals = -(1.0 + 3.0 * x ** 2)
        vals[np.abs(x) > 0.6] = -1e12
        vals[n // 2 + 3] = -1e12
        psi = ShapeFunction(R=R, values=vals)
        lam = _fd_principal(psi.values, psi.h, 1.0)[0]
        with mpmath.workdps(30):
            off = 1 / mpmath.mpf(psi.h) ** 2
            M = mpmath.matrix(n, n)
            for i in range(n):
                M[i, i] = mpmath.mpf(float(vals[i])) - 2 * off
                if i + 1 < n:
                    M[i, i + 1] = M[i + 1, i] = off
            exact = float(max(mpmath.eigsy(M, eigvals_only=True)))
        assert lam == pytest.approx(exact, rel=1e-12)

    def test_warm_matches_bisection_on_kkt_iterates(self, monkeypatch):
        # every warm solve of KKT runs from both starts at R = 1, 2, 4,
        # profiles with walls far past 1e12 included (they settle where the
        # ground state underflows, up to 4.8e149 deep here); the coarse grid
        # keeps the bisection's own error, which scales with kappa/h^2, far
        # below the tolerance.  The closed-form start passes its ground
        # state g0 as chi_tilde does, so its first pair is a warm solve too
        calls, starts = [], []

        def record(psi_vals, h, kappa, g0):
            lam, g = _warm_principal(psi_vals, h, kappa, g0)
            calls.append((psi_vals, h, kappa, lam, g))
            starts.append(g0)
            return lam, g

        monkeypatch.setattr(variational, "_warm_principal", record)
        cfg = VariationalConfig(A=1.0, gamma=0.5, n_grid=41)
        for R in (1.0, 2.0, 4.0):
            n = int(cfg.n_grid * R)
            x = -R + 2.0 * R / (n + 1) * np.arange(1, n + 1)
            u_star = -_optimal_psi(cfg.A, cfg.gamma, cfg.kappa, x)
            for u0, g0 in ((u_star, u_star ** (-0.5 / (1.0 - cfg.gamma))),
                           (1.0 + (x / R) ** 2 * 10.0, None)):
                before = len(starts)
                variational._optimize_profile(cfg, R, u0, g0)
                # a closed-form run's first warm solve starts from its g0
                assert (starts[before] is g0) == (g0 is not None)
        assert len(calls) > 100
        assert max(np.abs(c[0]).max() for c in calls) >= 1e12
        for psi_vals, h, kappa, lam, g in calls:
            lam_b, g_b = _fd_principal(psi_vals, h, kappa)
            assert lam == pytest.approx(lam_b, rel=1e-12)
            assert np.abs(g - g_b).max() <= 1e-6 * g_b.max()

    def test_warm_raises_when_steps_run_out(self, monkeypatch):
        n = 101
        psi = -np.ones(n)
        psi[:10] = -1e12
        start = np.ones(n)
        lam = _warm_principal(psi, 2.0 / (n + 1), 1.0, start)[0]
        assert lam == pytest.approx(_fd_principal(psi, 2.0 / (n + 1), 1.0)[0],
                                    rel=1e-12)
        monkeypatch.setattr(variational, "_WARM_STEPS", 1)
        with pytest.raises(ArithmeticError, match="inverse iteration"):
            _warm_principal(psi, 2.0 / (n + 1), 1.0, start)

    @pytest.mark.parametrize("node", [-math.inf, math.nan])
    def test_warm_raises_on_non_finite_rayleigh_quotient(self, node):
        # a -inf or NaN node makes the first quotient non-finite: the error
        # names it and the shift, not a residual missed after every shift
        n = 21
        psi = -np.ones(n)
        psi[5] = node
        with pytest.raises(ArithmeticError,
                           match=r"quotient (-inf|nan) is not finite at "
                                 r"shift 1 of 30"):
            _warm_principal(psi, 2.0 / (n + 1), 1.0, np.ones(n))

    def test_warm_leaves_its_inputs_alone(self):
        # the iterate is solved in place, in a copy of |g0|
        n = 51
        psi = -np.linspace(1.0, 3.0, n)
        g0 = np.ones(n)
        _warm_principal(psi, 2.0 / (n + 1), 1.0, g0)
        assert np.array_equal(g0, np.ones(n))
        assert np.array_equal(psi, -np.linspace(1.0, 3.0, n))


class TestClosedForm:
    def test_gamma_half_value(self):
        # A = kappa = 1, gamma = 1/2: chi = B(3/2, 1/2)^{2/3} = (pi/2)^{2/3}
        assert _chi_closed(1.0, 0.5, 1.0) == pytest.approx(
            (math.pi / 2.0) ** (2.0 / 3.0), rel=1e-14)

    @pytest.mark.parametrize("gamma", [0.1, 0.25, 0.5, 0.9])
    def test_scaling(self, gamma):
        # chi proportional to kappa^{(1-gamma)/(1+gamma)} A^{2/(1+gamma)}
        base = _chi_closed(0.7, gamma, 1.3)
        for s, r in ((2.0, 1.0), (1.0, 0.3), (0.4, 5.0)):
            scaled = base * s ** (2.0 / (1.0 + gamma)) \
                * r ** ((1.0 - gamma) / (1.0 + gamma))
            assert _chi_closed(0.7 * s, gamma, 1.3 * r) == pytest.approx(
                scaled, rel=1e-13)

    @pytest.mark.parametrize("gamma", [1e-3, 1e-6])
    def test_gamma_to_zero_limit(self, gamma):
        # chi -> kappa pi^2 A^2, the gamma = 0 constant, with an O(gamma) gap
        a, kappa = 1.3, 0.7
        ratio = _chi_closed(a, gamma, kappa) / (kappa * math.pi ** 2 * a ** 2)
        assert abs(ratio - 1.0) <= 10.0 * gamma

    @pytest.mark.parametrize("a, gamma, kappa", [
        (math.log(2.0), 0.25, 1.0), (1.0, 0.5, 1.0), (0.8, 0.75, 2.0)])
    def test_profile_saturates_budget_and_attains_chi(self, a, gamma, kappa):
        chi = _chi_closed(a, gamma, kappa)
        half_width = math.pi / (2.0 * (1.0 - gamma) * math.sqrt(chi / kappa))
        R, n = 1.25 * half_width, 4000

        def psi(x):
            return _optimal_psi(a, gamma, kappa, x)

        grid = ShapeFunction.from_callable(psi, R, n)
        assert legendre_L(grid, a, gamma) == pytest.approx(1.0, abs=1e-4)
        assert eig_continuum(psi, R, kappa, n=n) == pytest.approx(-chi,
                                                                  rel=1e-4)


class TestChiTilde:
    def test_gamma0_closed_form(self, monkeypatch):
        # the free interval of length 1/A, read from its closed form with no
        # eigen solve
        def no_solve(*args, **kwargs):
            raise AssertionError("eigen solve at gamma = 0")
        monkeypatch.setattr(variational, "eigh_tridiagonal", no_solve)
        for a, kappa in ((math.log(2.0), 1.0), (1.0, 2.0)):
            cfg = VariationalConfig(A=a, gamma=0.0, kappa=kappa)
            res = chi_tilde(cfg)
            assert res.chi == pytest.approx(kappa * math.pi ** 2 * a ** 2,
                                            rel=1e-14)
            assert res.R == 0.5 / a
            assert res.budget == pytest.approx(1.0)
            assert res.iterations == 0
            assert np.array_equal(res.psi.values, np.zeros(cfg.n_grid))

    def test_gamma_half_frozen_value(self):
        # frozen from a fine-grid run (n_grid = 801, tol = 1e-8)
        cfg = VariationalConfig(A=1.0, gamma=0.5, kappa=1.0, n_grid=201,
                                tol=1e-6)
        res = chi_tilde(cfg)
        assert res.chi == pytest.approx(1.351216, rel=2e-2)
        assert res.budget == pytest.approx(1.0, abs=1e-6)

    def test_gamma_half_closed_form(self):
        # chi = (pi/2)^{2/3} at A = kappa = 1, gamma = 1/2, from the closed
        # form [(C/gamma)(2J)^{(1-gamma)/gamma}]^{2 gamma/(1+gamma)} with
        # C = 1/4 and J = B(3/2, 1/2) = pi/2
        res = chi_tilde(VariationalConfig(A=1.0, gamma=0.5))
        assert res.chi == pytest.approx((math.pi / 2.0) ** (2.0 / 3.0), rel=1e-6)
        # the closed-form start converges in 2 iterations
        assert res.iterations <= 10

    def test_gamma_quarter_converges(self):
        # 8 iterations from the closed-form start, over 200 from the cold one
        cfg = VariationalConfig(A=math.log(2.0), gamma=0.25)
        assert chi_tilde(cfg).iterations <= 30

    def test_radius_search_stops_at_first_stale_radius(self):
        # A = 2, gamma = 3/4: R = 8 holds the well, and R = 16 does not
        # improve on it.  Every box keeps the spacing of n_grid nodes per
        # unit radius, so a larger one has nothing to gain; at R = 8 chi is
        # 6.5e-8 off.  The closed form here is
        # [A^{1/(1-g)} B(p + 1/2, 1/2) sqrt(kappa)]^{2(1-g)/(1+g)}, p = g/(1-g)
        from scipy.special import betaln
        a, g = 2.0, 0.75
        p = g / (1.0 - g)
        exact = math.exp(2.0 * (1.0 - g) / (1.0 + g)
                         * (math.log(a) / (1.0 - g) + betaln(p + 0.5, 0.5)))
        res = chi_tilde(VariationalConfig(A=a, gamma=g))
        assert res.R <= 16.0
        assert res.chi == pytest.approx(exact, rel=5e-7)

    @staticmethod
    def _radii(monkeypatch, cfg, r_max=256.0):
        radii = []
        optimize = variational._optimize_profile

        def record(cfg, R, *args, **kwargs):
            radii.append(R)
            return optimize(cfg, R, *args, **kwargs)

        monkeypatch.setattr(variational, "_optimize_profile", record)
        return radii, chi_tilde(cfg, r_max=r_max)

    def test_radius_search_runs_one_start_where_warm_converges(
            self, monkeypatch):
        # A = ln 2, gamma = 1/2: the closed-form start converges at every
        # radius, so no cold start runs.  R = 4 is the best box and the first
        # to hold the closed-form well, of half-width 3.45, so the search
        # ends there without running R = 8 only to see it not improve
        radii, res = self._radii(
            monkeypatch, VariationalConfig(A=math.log(2.0), gamma=0.5))
        assert radii == [1.0, 2.0, 4.0]
        assert res.R == 4.0

    def test_radius_search_runs_cold_start_where_warm_hits_cap(
            self, monkeypatch):
        # max_iter = 5 stops every warm run at its cap, so each radius runs
        # the cold start as well
        radii, _ = self._radii(
            monkeypatch,
            VariationalConfig(A=1.0, gamma=0.5, n_grid=21, max_iter=5),
            r_max=2.0)
        assert radii == [1.0, 1.0, 2.0, 2.0]

    @pytest.mark.parametrize("a, gamma, last_R", [
        (1.0, 0.1, 1.0), (2.0, 0.25, 1.0), (math.log(2.0), 0.25, 2.0),
        (math.log(2.0), 0.5, 4.0)])
    def test_radius_search_ends_at_first_box_holding_well(
            self, monkeypatch, a, gamma, last_R):
        # the last box visited is the first power of two >= pi / (2 omega);
        # a larger box gains only through near-free walls, which move chi
        # away from the closed form (at A = 1, gamma = 0.1, R = 8 is
        # 7.334e-4 off and R = 1 is 7.293e-4 off)
        radii, res = self._radii(monkeypatch,
                                 VariationalConfig(A=a, gamma=gamma))
        assert radii[-1] == last_R
        if gamma == 0.1:
            exact = variational._chi_closed(a, gamma, 1.0)
            assert abs(res.chi / exact - 1.0) <= 7.3e-4

    @pytest.mark.parametrize("gamma, chi, iterations", CHI_SCAN_FROZEN)
    def test_chi_scan_answers_frozen(self, gamma, chi, iterations):
        # the benchmark's chi_scan configurations (A = ln 2, kappa = 1): chi
        # to roundoff, and the best run's iteration count exactly
        res = chi_tilde(VariationalConfig(A=math.log(2.0), gamma=gamma))
        assert res.chi == pytest.approx(chi, rel=1e-13, abs=0.0)
        assert res.iterations == iterations

    @pytest.mark.parametrize("gamma, chi, iterations", CHI_SCAN_FROZEN)
    def test_chi_scan_runs_without_bisection(self, monkeypatch, gamma, chi,
                                             iterations):
        # every chi_scan run converges from the closed-form start, whose
        # first pair comes from its ground state by inverse iteration: no
        # eigen solve bisects, and the frozen answers stand
        def no_solve(*args, **kwargs):
            raise AssertionError("bisection on a chi_scan configuration")
        monkeypatch.setattr(variational, "eigh_tridiagonal", no_solve)
        res = chi_tilde(VariationalConfig(A=math.log(2.0), gamma=gamma))
        assert res.chi == pytest.approx(chi, rel=1e-13, abs=0.0)
        assert res.iterations == iterations

    def test_only_cold_runs_bisect(self, monkeypatch):
        # max_iter = 5 caps the closed-form run at R = 1 and R = 2, so the
        # cold start runs at both: one bisection each, for its first pair
        calls = []

        def count(*args, **kwargs):
            calls.append(len(args[0]))
            return eigh_tridiagonal(*args, **kwargs)
        monkeypatch.setattr(variational, "eigh_tridiagonal", count)
        chi_tilde(VariationalConfig(A=1.0, gamma=0.5, n_grid=21, max_iter=5),
                  r_max=2.0)
        assert calls == [21, 42]

    def test_gamma_tenth_near_closed_form(self):
        # the walls charge the budget about pref h 1e-300^gamma per node, so
        # even at gamma = 0.1 the well keeps its budget: 4.7e-4 off the
        # closed form
        a = math.log(2.0)
        res = chi_tilde(VariationalConfig(A=a, gamma=0.1))
        assert res.chi == pytest.approx(_chi_closed(a, 0.1, 1.0), rel=1e-3)

    def test_grid_spacing_fixed_at_every_radius(self):
        # A = 0.5, gamma = 0.9: the search ends at R = 32, on n_grid R nodes
        res = chi_tilde(VariationalConfig(A=0.5, gamma=0.9, n_grid=801))
        assert res.R == 32.0
        assert len(res.psi.values) == 801 * 32

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
        # eigenvalue chi is, not the next iterate.  The closed-form start
        # converges here in 2 iterations, the fewest a run can take, so only
        # a cap of 2 stops the best run at its cap.  chi is the warm Rayleigh
        # quotient, 2e-13 from a bisection of psi; the next iterate's
        # lambda is 4.8e-10 away
        cfg = VariationalConfig(A=1.0, gamma=0.5, kappa=1.0, n_grid=201,
                                max_iter=2)
        res = chi_tilde(cfg)
        assert res.iterations == cfg.max_iter
        assert _fd_principal(res.psi.values, res.psi.h, 1.0)[0] == pytest.approx(
            -res.chi, rel=1e-12)

    def test_lambda_against_sturm_bisection(self):
        # chi is -lambda of kappa d^2/dx^2 + psi on the returned profile's
        # grid, to 1e-13; a bisection in doubles, whose diagonal psi - 2/h^2
        # is rounded, is 4.0e-12 off here (the Rayleigh quotient 5e-17)
        mpmath = pytest.importorskip("mpmath")
        res = chi_tilde(VariationalConfig(A=1.0, gamma=0.5))
        with mpmath.workdps(40):
            off = mpmath.mpf(1.0 / res.psi.h ** 2)
            off2 = off ** 2
            d = [mpmath.mpf(float(v)) - 2 * off for v in res.psi.values]

            def above(s):
                # eigenvalues above s: positive pivots of the LDL^T of H - s
                q = d[0] - s
                count = int(q > 0)
                for di in d[1:]:
                    q = di - s - off2 / q
                    count += q > 0
                return count

            lo = mpmath.mpf(-res.chi) * (1 + mpmath.mpf(1e-9))
            hi = mpmath.mpf(-res.chi) * (1 - mpmath.mpf(1e-9))
            assert above(lo) == 1 and above(hi) == 0
            for _ in range(50):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if above(mid) else (lo, mid)
            exact = float((lo + hi) / 2)
        assert -res.chi == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            VariationalConfig(A=0.0, gamma=0.5)
        with pytest.raises(ValueError):
            VariationalConfig(A=1.0, gamma=1.0)
