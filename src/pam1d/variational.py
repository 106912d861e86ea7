"""Continuum variational problem for the almost-sure decay constant.

The decay constant chi is characterized through shape optimization: over
profiles psi <= 0 on [-R, R], maximize the principal Dirichlet eigenvalue
lambda(psi) of kappa*Laplacian + psi subject to a Legendre-transform budget
L(psi) <= 1, and take the supremum over R.  The budget is the transform of
the concentration functional

    H_R(f) = -A int f(x)^gamma 1{f > 0} dx,   f >= 0,

whose closed form is, for psi < 0 (and +infinity for psi == 0),

    L(psi) = (1/gamma - 1) (A gamma)^{1/(1-gamma)}
             int |psi|^{-gamma/(1-gamma)} dx        for gamma in (0, 1),
    L(psi) = A |supp psi|                           for gamma = 0.

(The transform maps into [0, infinity], which fixes the overall sign; see
``brute_legendre`` for an independent pointwise-maximization oracle.)  For
gamma = 0 the optimum is explicit -- psi -> 0- on an interval of length 1/A
-- giving chi = kappa pi^2 A^2; for gamma in (0, 1) a damped KKT fixed-point
iteration on the discretized profile is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpttrf, dpttrs

# scipy.optimize is imported inside ``brute_legendre``, its one caller:
# loading it adds about 0.2 s and 20 MB to ``import pam1d``.  scipy.linalg
# stays at module level, where the benchmark's tracer wraps
# ``eigh_tridiagonal``.

__all__ = [
    "ShapeFunction",
    "VariationalConfig",
    "functional_H",
    "legendre_L",
    "brute_legendre",
    "eig_continuum",
    "chi_tilde",
    "ChiResult",
]


@dataclass(frozen=True)
class ShapeFunction:
    """Profile on [-R, R] sampled at n interior nodes of a uniform grid.

    Node i sits at -R + (i+1) h with h = 2R/(n+1); the endpoint values are
    taken as 0 (Dirichlet convention for eigenvalue computations).
    """

    R: float
    values: np.ndarray

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError(f"R must be > 0, got {self.R}")
        if self.values.ndim != 1 or len(self.values) < 1:
            raise ValueError("values must be a non-empty 1-d array")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def h(self) -> float:
        return 2.0 * self.R / (self.n + 1)

    def grid(self) -> np.ndarray:
        return -self.R + self.h * np.arange(1, self.n + 1)

    @staticmethod
    def from_callable(fn, R: float, n: int) -> "ShapeFunction":
        """Profile sampled at the n nodes by one call of a vectorized ``fn``."""
        x = -R + 2.0 * R / (n + 1) * np.arange(1, n + 1)
        return ShapeFunction(R=R, values=np.asarray(fn(x), float))

    def __call__(self, x):
        return np.interp(x, self.grid(), self.values, left=0.0, right=0.0)


@dataclass(frozen=True)
class VariationalConfig:
    A: float
    gamma: float
    kappa: float = 1.0
    n_grid: int = 801
    tol: float = 1e-8
    max_iter: int = 400

    def __post_init__(self):
        if self.A <= 0:
            raise ValueError(f"A must be > 0, got {self.A}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0,1), got {self.gamma}")
        if self.kappa <= 0:
            raise ValueError(f"kappa must be > 0, got {self.kappa}")


def functional_H(f: ShapeFunction, A: float, gamma: float) -> float:
    """Concentration functional -A int f^gamma 1{f>0} for f >= 0."""
    v = f.values
    if np.any(v < 0):
        raise ValueError("f must be non-negative")
    if gamma == 0.0:
        return -A * f.h * float(np.count_nonzero(v > 0))
    return -A * f.h * float(np.sum(np.where(v > 0, v, 1.0) ** gamma * (v > 0)))


def legendre_L(psi: ShapeFunction, A: float, gamma: float) -> float:
    """Closed-form Legendre budget of a profile psi <= 0 (see module docs)."""
    v = psi.values
    if np.any(v > 0):
        return math.inf
    if not np.any(v < 0):
        return math.inf  # psi == 0
    if gamma == 0.0:
        return A * psi.h * float(np.count_nonzero(v < 0))
    p = gamma / (1.0 - gamma)
    pref = (1.0 / gamma - 1.0) * (A * gamma) ** (1.0 / (1.0 - gamma))
    if np.any(v == 0.0):
        return math.inf
    return pref * psi.h * float(np.sum(np.abs(v) ** (-p)))


def brute_legendre(psi: ShapeFunction, A: float, gamma: float) -> float:
    """Legendre budget by independent per-node numeric maximization.

    Maximizes f*psi(x) + A f^gamma over f >= 0 at every node and integrates;
    kept deliberately free of the closed form so the two routes cross-check
    each other.  For gamma = 0 the pointwise supremum A is approached along
    f -> 0+, probed at f = 1e-9.
    """
    from scipy.optimize import minimize_scalar

    v = psi.values
    if np.any(v > 0):
        return math.inf
    if not np.any(v < 0):
        return math.inf
    total = 0.0
    for p in v:
        if p == 0.0 and gamma > 0.0:
            return math.inf
        if gamma == 0.0:
            total += max(1e-9 * p + A, 0.0) if p < 0 else 0.0
            continue
        # bracket around the analytic stationary point scale
        f_star = (A * gamma / abs(p)) ** (1.0 / (1.0 - gamma))
        res = minimize_scalar(lambda f: -(f * p + A * f ** gamma),
                              bounds=(0.0, 10.0 * f_star), method="bounded",
                              options={"xatol": 1e-12 * max(f_star, 1.0)})
        total += -res.fun
    return psi.h * total


def _fd_principal(psi_vals: np.ndarray, h: float, kappa: float
                  ) -> tuple[float, np.ndarray]:
    """Principal Dirichlet eigenpair (lam, g) of kappa d^2/dx^2 + psi.

    Bisection runs to tolerance 2 * tiny, so the error of lam is set by the
    grid's coupling kappa/h^2 and not by the depth of psi; the default,
    norm-wise stop errs by up to eps times the largest |psi|, 2.2e-4 at the
    1e12 cap of ``_optimize_profile``.
    """
    n = len(psi_vals)
    diag = psi_vals - 2.0 * kappa / h ** 2
    off = np.full(n - 1, kappa / h ** 2)
    w, v = eigh_tridiagonal(diag, off, select="i", select_range=(n - 1, n - 1),
                            lapack_driver="stebz", tol=2 * np.finfo(float).tiny)
    lam = float(w[0])
    g = v[:, 0]
    if g[np.argmax(np.abs(g))] < 0:
        g = -g
    g = g / math.sqrt(h * float(g @ g))  # continuum normalization ||g||_2 = 1
    return lam, g


# Warm inverse iteration (``_warm_principal``): it stops once the residual
# ||H x - rho x|| of the unit iterate is at most _WARM_RTOL * (1 + |rho|), and
# raises after _WARM_STEPS shifts, each followed by _WARM_SOLVES solves.
_WARM_RTOL = 1e-7
_WARM_STEPS = 30
_WARM_SOLVES = 2
_WARM_MARGIN = 1e-12  # least shift above rho, relative to 1 + |rho|


def _warm_principal(psi_vals: np.ndarray, h: float, kappa: float,
                    g0: np.ndarray) -> tuple[float, np.ndarray]:
    """Principal pair of kappa d^2/dx^2 + psi by inverse iteration from g0.

    The Rayleigh quotient rho of any vector is at most the top eigenvalue
    lambda_1, and a Cholesky factorisation of sigma - H (``dpttrf``) succeeds
    only if sigma > lambda_1.  Each step therefore shifts to rho + margin,
    with the residual as the first margin, quadruples the margin until the
    factorisation succeeds, and makes _WARM_SOLVES solves (``dpttrs``).  The
    start |g0| is positive, so it overlaps the positive principal vector, and
    the iteration converges to the principal pair.  Returns (rho, g), with g
    normalised as in ``_fd_principal``; raises ``ArithmeticError`` if the
    residual misses its tolerance after _WARM_STEPS steps.
    """
    off = kappa / h ** 2
    diag = psi_vals - 2.0 * off
    neg_off = np.full(len(diag) - 1, -off)
    # sums by np.sum, not by a BLAS dot, which OpenBLAS spreads over threads
    # above 10^4 entries: with one of two cores busy, dots made a chi_tilde
    # run take 2.7-12 s instead of 0.3 s
    x = np.abs(g0)
    x = x / math.sqrt(np.sum(x * x))
    for _ in range(_WARM_STEPS):
        hx = diag * x
        hx[:-1] += off * x[1:]
        hx[1:] += off * x[:-1]
        # x'Hx as sum(psi x^2) - off * sum of squared Dirichlet differences:
        # both terms are <= 0, whereas the terms of x @ hx are of size 2 off
        # and cancel down to rho
        dx = np.diff(x, prepend=0.0, append=0.0)
        rho = float(np.sum(psi_vals * x * x)) - off * float(np.sum(dx * dx))
        if not math.isfinite(rho):
            break
        r = hx - rho * x
        res = math.sqrt(np.sum(r * r))
        if res <= _WARM_RTOL * (1.0 + abs(rho)):
            return rho, x / math.sqrt(h)
        margin = max(res, _WARM_MARGIN * (1.0 + abs(rho)))
        while True:
            d, e, info = dpttrf(rho + margin - diag, neg_off)
            if info == 0:
                break
            margin *= 4.0
        for _ in range(_WARM_SOLVES):
            x = dpttrs(d, e, x)[0]
            x = x / math.sqrt(np.sum(x * x))
    raise ArithmeticError(
        f"inverse iteration for the principal pair missed residual "
        f"{_WARM_RTOL:g} (1 + |lambda|) after {_WARM_STEPS} shifts")


def eig_continuum(psi, R: float, kappa: float, n: int = 2000) -> float:
    """Principal Dirichlet eigenvalue of kappa*Laplacian + psi on [-R, R].

    ``psi`` is a vectorized callable (a ShapeFunction works).  Second-order
    finite differences at two resolutions with Richardson extrapolation
    remove the leading O(h^2) error.
    """
    lams = []
    for m in (n, 2 * n + 1):
        grid = ShapeFunction.from_callable(psi, R, m)
        lams.append(_fd_principal(grid.values, grid.h, kappa)[0])
    return (4.0 * lams[1] - lams[0]) / 3.0


@dataclass(frozen=True)
class ChiResult:
    chi: float
    R: float
    psi: ShapeFunction | None
    budget: float
    iterations: int


def _optimize_profile(cfg: VariationalConfig, R: float, u0: np.ndarray,
                      ) -> tuple[float, np.ndarray, int]:
    """Damped KKT fixed point for gamma > 0 at fixed R; returns (lam, u, its).

    Stationarity of lambda(-u) under the budget ties the profile to the
    ground state through u_i proportional to (g_i^2)^{-(1-gamma)/ ... }; the
    exponent 1/(p+1) with p = gamma/(1-gamma) follows from matching
    gradients, and each iterate is rescaled onto the budget surface.  The
    first pair is bisected and every later one is found by inverse iteration
    warm-started from the previous ground state; the returned lambda is
    bisected on the returned profile.
    """
    A, gamma, kappa = cfg.A, cfg.gamma, cfg.kappa
    p = gamma / (1.0 - gamma)
    pref = (1.0 / gamma - 1.0) * (A * gamma) ** (1.0 / (1.0 - gamma))
    n = len(u0)
    h = 2.0 * R / (n + 1)

    def rescale(u):
        # L(s u) = s^{-p} L(u); put the budget exactly at 1
        L = pref * h * float(np.sum(u ** (-p)))
        return u * L ** (1.0 / p)

    u = rescale(np.maximum(u0, 1e-12))
    theta = 0.5
    lam, g = _fd_principal(-u, h, kappa)
    lam_prev, it = -math.inf, 1
    while (it < cfg.max_iter
           and not abs(lam - lam_prev) < cfg.tol * (1.0 + abs(lam))):
        prop = (g * g + 1e-300) ** (-1.0 / (p + 1.0))
        u_new = rescale(np.exp((1 - theta) * np.log(u) + theta * np.log(prop)))
        u = rescale(np.minimum(u_new, 1e12))
        lam_prev = lam
        lam, g = _warm_principal(-u, h, kappa, g)
        it += 1
    return _fd_principal(-u, h, kappa)[0], u, it


def chi_tilde(cfg: VariationalConfig, r_max: float = 256.0) -> ChiResult:
    """Decay constant chi = -sup_R sup{lambda(psi) : L(psi) <= 1}.

    gamma = 0: the optimal profile is an arbitrarily shallow well on an
    interval of length 1/A, so chi equals -lambda of the free Dirichlet
    interval; computed numerically (and equal to kappa pi^2 A^2 up to
    discretization).

    gamma > 0: damped KKT iteration at each R with two starting profiles,
    doubling R from 1 until enlarging the box stops improving the eigenvalue.
    """
    if cfg.gamma == 0.0:
        L = 1.0 / cfg.A
        lam = eig_continuum(lambda x: np.zeros_like(x), L / 2.0, cfg.kappa,
                            n=cfg.n_grid)
        psi = ShapeFunction(R=L / 2.0, values=np.zeros(cfg.n_grid))
        return ChiResult(chi=-lam, R=L / 2.0, psi=psi,
                         budget=cfg.A * L, iterations=0)

    best = (-math.inf, None, None, 0)
    R = 1.0
    stale = 0
    while R <= r_max:
        # keep the grid spacing fixed as R grows, else coarser boxes fake
        # eigenvalue improvements
        n = min(int(cfg.n_grid * R), 20000)
        x = -R + 2.0 * R / (n + 1) * np.arange(1, n + 1)
        starts = [np.ones(n), 1.0 + (x / R) ** 2 * 10.0]
        lam_R = -math.inf
        for u0 in starts:
            lam, u, its = _optimize_profile(cfg, R, u0)
            if lam > lam_R:
                lam_R = lam
                cand = (lam, R, u, its)
        if lam_R > best[0] + cfg.tol * (1.0 + abs(lam_R)):
            best = cand
            stale = 0
        else:
            stale += 1
            if stale >= 2:
                break
        R *= 2.0
    lam, R_best, u, its = best
    psi = ShapeFunction(R=R_best, values=-u)
    return ChiResult(chi=-lam, R=R_best, psi=psi,
                     budget=legendre_L(psi, cfg.A, cfg.gamma), iterations=its)
