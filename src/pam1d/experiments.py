"""Statistical experiments connecting the lattice model to its asymptotics.

Each routine checks one ingredient of the almost-sure decay picture on
finite-t data: the rescaled cumulant collapse, the divergence of the
screening-product sums, their converse upper bound under the regularized
tail scale, the appearance of favourable microboxes in the macrobox, and the
decay-rate curve rho(t) = alpha(b_t)^2 / t * log u(t, 0) itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# scipy.special is imported inside ``_sum_over``, its one caller: loading it
# at module level adds start-up time and memory to every ``pam1d`` command.

from .lattice import solve_adaptive
from .potential import (PotentialSpec, canonical_A, cumulant_H, g_tilde,
                        g_tilde_inverse, sample_field)
from .scales import ScaleParams, alpha, b_scale, gamma_box, invert_G
from .variational import legendre_L

__all__ = [
    "ExperimentConfig",
    "RateCurve",
    "t_grid",
    "rate_curve",
    "check_assumption_H",
    "check_lln",
    "check_last",
    "check_microbox",
    "estimate_rho",
]


@dataclass(frozen=True)
class ExperimentConfig:
    spec: PotentialSpec
    kappa: float = 1.0
    seeds: tuple = tuple(range(20))
    rtol: float = 1e-4

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError(f"kappa must be > 0, got {self.kappa}")
        if len(self.seeds) == 0:
            raise ValueError("seeds must not be empty")
        if not self.rtol > 0:
            raise ValueError(f"rtol must be > 0, got {self.rtol}")


def t_grid(spec: PotentialSpec, n_lo: int, n_hi: int) -> np.ndarray:
    """Times t with 1/G(t) = e^n for integer n in [n_lo, n_hi]."""
    if n_lo < 1 or n_hi < n_lo:
        raise ValueError(f"need 1 <= n_lo <= n_hi, got {n_lo}, {n_hi}")
    return np.array([invert_G(spec, math.exp(-n)) for n in range(n_lo, n_hi + 1)])


@dataclass(frozen=True)
class RateCurve:
    """One row per (t, seed): the rate rho = alpha(b_t)^2 / t * log u(t, 0)."""

    t: np.ndarray
    seed: np.ndarray
    R_used: np.ndarray
    log_u: np.ndarray
    b_t: np.ndarray
    alpha_bt_sq: np.ndarray
    rho: np.ndarray
    converged: np.ndarray

    def median_rho(self) -> tuple[np.ndarray, np.ndarray]:
        """(unique times, seed-median of rho at each time)."""
        ts = np.unique(self.t)
        med = np.array([np.median(self.rho[self.t == t]) for t in ts])
        return ts, med


def rate_curve(cfg: ExperimentConfig, t_values: np.ndarray,
               r_cap: int = 1 << 14) -> RateCurve:
    """Decay-rate curve rho(t) = alpha(b_t)^2 / t * log u(t, 0) per seed.

    Seeds are solved one at a time, with one dict of box mode sums shared by
    all t of the seed, so each (seed, R) box is sampled and diagonalised
    once.  Rows come in t-major order.  Rows where the solver hit its box
    cap are flagged via ``converged`` but kept in the table.
    """
    t_values = np.asarray(t_values, float)
    if t_values.size == 0:
        raise ValueError("t_values must not be empty")
    spec = cfg.spec
    params = ScaleParams.from_spec(spec)
    scale = []
    for t in t_values:
        b = b_scale(spec, params, t)
        scale.append((b, alpha(params, b) ** 2))
    per_seed = []  # per_seed[j][i]: seed j at t_values[i]
    for seed in cfg.seeds:
        boxes: dict = {}
        per_seed.append([solve_adaptive(spec, seed, t, cfg.rtol,
                                        kappa=cfg.kappa, r_cap=r_cap,
                                        boxes=boxes)
                         for t in t_values])
    rows = [(t, seed, r.R, r.log_u, b, a2, a2 / t * r.log_u, r.converged)
            for t, (b, a2), at_t in zip(t_values, scale, zip(*per_seed))
            for seed, r in zip(cfg.seeds, at_t)]
    cols = list(zip(*rows))
    return RateCurve(t=np.array(cols[0]), seed=np.array(cols[1]),
                     R_used=np.array(cols[2]), log_u=np.array(cols[3]),
                     b_t=np.array(cols[4]), alpha_bt_sq=np.array(cols[5]),
                     rho=np.array(cols[6]), converged=np.array(cols[7], bool))


def check_assumption_H(spec: PotentialSpec, t_values, y_grid=None) -> dict:
    """Collapse of the rescaled cumulant onto the limit power law.

    Computes d(t) = max_y |alpha_t^3 / t * H(t y / alpha_t) + A y^gamma| on
    a y-grid, with A = canonical_A(spec); the deviations should decrease
    along increasing t.
    """
    if y_grid is None:
        y_grid = np.linspace(0.2, 3.0, 15)
    y_grid = np.asarray(y_grid, float)
    A = canonical_A(spec)
    devs = []
    curves = []
    for t in t_values:
        a = t ** spec.nu
        vals = np.array([a ** 3 / t * cumulant_H(spec, t * y / a) for y in y_grid])
        target = -A * y_grid ** spec.gamma
        curves.append(vals)
        devs.append(float(np.max(np.abs(vals - target))))
    return {"t": np.asarray(t_values, float), "y": y_grid,
            "curves": np.array(curves), "deviation": np.array(devs), "A": A}


def _sum_over(terms: np.ndarray, norm: float) -> float:
    """sum(terms) / norm for terms >= 0, formed in log space.

    Log-log heavy sites reach W ~ 1e308, so a plain sum can overflow; only
    a ratio beyond the double range is inf.  Zero terms have log -inf.
    """
    from scipy.special import logsumexp

    with np.errstate(divide="ignore", over="ignore"):
        return float(np.exp(logsumexp(np.log(terms)) - math.log(norm)))


def check_lln(spec: PotentialSpec, b: float, n_values, seeds) -> dict:
    """Normalized screening-product sums, per seed and per n.

    T_n = sum_{x=1}^{floor(2 n log n)} log((-xi(x) v b)/b) / G^{-1}(1/n);
    the sums outgrow the normalizer, so for n large the statistic is well
    above 1.  Returns {"n", "stats" (seeds x n), "frac_gt_1", "frac_gt_10"}.
    Requires an infinite log-moment lower tail (the divergence hypothesis).
    """
    if b < 1.0:
        raise ValueError(f"b must be >= 1, got {b}")
    if not spec.lower.has_infinite_log_moment():
        raise ValueError(
            "lower tail has a finite log-moment; the divergence statement "
            "does not apply to this spec")
    n_values = [int(n) for n in np.atleast_1d(n_values)]
    if min(n_values) < 3:
        raise ValueError(f"n values must be >= 3, got {n_values}")
    seeds = list(seeds)
    log_b = math.log(b)
    stats = np.empty((len(seeds), len(n_values)))
    for j, n in enumerate(n_values):
        N = int(2 * n * math.log(n))
        norm = invert_G(spec, 1.0 / n)
        for i, seed in enumerate(seeds):
            fld = sample_field(spec, 1, N, seed)
            wp = fld.log_neg_or1(1, N)       # log(-xi v 1)
            stats[i, j] = _sum_over(np.maximum(wp, log_b) - log_b, norm)
    return {"n": np.array(n_values), "stats": stats,
            "frac_gt_1": (stats > 1.0).mean(axis=0),
            "frac_gt_10": (stats > 10.0).mean(axis=0)}


_X0 = 1.0  # concavification point of 1/G^_eta, and log of the threshold a


def _inv_g_hat_eta(spec: PotentialSpec, eta: float,
                   x: np.ndarray) -> np.ndarray:
    """Concavified 1/G^ at x > 0: linear below _X0, shifted 1/G~ above.

    The linear piece has the right derivative of 1/G~ at _X0, making 1/G^
    positive, increasing and concave on all of (0, infinity).
    """
    x = np.asarray(x, float)
    dx = 1e-6 * _X0
    inv0 = 1.0 / g_tilde(spec, eta, _X0)
    d0 = (1.0 / g_tilde(spec, eta, _X0 + dx) - inv0) / dx
    inv = d0 * x
    big = x > _X0
    inv[big] = np.array([1.0 / g_tilde(spec, eta, xi)
                         for xi in x[big]]) + d0 * _X0 - inv0
    return inv


def estimate_rho(spec: PotentialSpec, eta: float,
                 n_samples: int = 200_000) -> float:
    """Monte Carlo estimate of rho = 2 <1/G^_eta(Y_a)>, Y_a = log(-xi v a).

    Samples the field of seed 0.  The threshold a = e^{_X0} matches the
    concavification point, so 1/G^_eta(Y_a) vanishes only where the site is
    light enough.
    """
    fld = sample_field(spec, 1, n_samples, 0)
    y = np.maximum(fld.log_neg_or1(1, n_samples), _X0)
    return 2.0 * float(_inv_g_hat_eta(spec, eta, y).mean())


def check_last(spec: PotentialSpec, eta: float, n_values,
               seeds) -> tuple[dict, float]:
    """Converse normalized sums, per seed and per n, with the rho used.

    U_n = sum_{x=1}^n log(-xi(x) v 1) / G~_eta^{-1}(rho/n), with rho from
    estimate_rho; the limsup is at most 1, so for n large the statistic
    concentrates below 1.  Returns ({"n", "stats", "frac_le_1p2"}, rho).
    Requires an infinite log-moment lower tail, matching check_lln.
    """
    if not spec.lower.has_infinite_log_moment():
        raise ValueError(
            "lower tail has a finite log-moment; the upper-bound statement "
            "does not apply to this spec")
    rho = estimate_rho(spec, eta)
    n_values = [int(n) for n in np.atleast_1d(n_values)]
    seeds = list(seeds)
    stats = np.empty((len(seeds), len(n_values)))
    for j, n in enumerate(n_values):
        norm = g_tilde_inverse(spec, eta, rho / n)
        for i, seed in enumerate(seeds):
            fld = sample_field(spec, 1, n, seed)
            stats[i, j] = _sum_over(fld.log_neg_or1(1, n), norm)
    table = {"n": np.array(n_values), "stats": stats,
             "frac_le_1p2": (stats <= 1.2).mean(axis=0)}
    return table, rho


def check_microbox(spec: PotentialSpec, psi, eps: float, eta: float,
                   t_values, seeds) -> np.ndarray:
    """Frequency of a favourable microbox in the macrobox, per time.

    For each t and seed, scans all centres y in the macrobox Q_{gamma_t} for
    a window on which the potential dominates the rescaled profile,
    xi(y+z) >= psi(z/alpha)/alpha^2 - eps/(2 alpha^2) for all |z| <= R*alpha
    (restricted to supp psi when gamma = 0), with alpha = alpha(b_t) and
    the rho of gamma_t from estimate_rho.  Returns the success fraction over
    seeds for each t.

    Requires the profile budget L(psi) < 1 and eta in (L(psi), 1): a budget
    at or above 1 makes the sought windows too rare for the macrobox scale,
    and eta below the budget breaks the normalizer ordering.
    """
    budget = legendre_L(psi, canonical_A(spec), spec.gamma)
    if not budget < 1.0:
        raise ValueError(f"profile budget L(psi) = {budget:.6g} must be < 1")
    if not budget < eta < 1.0:
        raise ValueError(
            f"eta must be in (L(psi), 1) = ({budget:.6g}, 1), got {eta}")
    params = ScaleParams.from_spec(spec)
    rho = estimate_rho(spec, eta)
    seeds = list(seeds)
    freqs = []
    for t in t_values:
        b = b_scale(spec, params, t)
        a = alpha(params, b)
        g = gamma_box(spec, params, eta, rho, t)
        half = int(math.ceil(psi.R * a))
        z = np.arange(-half, half + 1)
        thr = psi(z / a) / a ** 2 - eps / (2.0 * a ** 2)
        if spec.gamma == 0.0:
            active = np.abs(psi(z / a)) > 0.0
        else:
            active = np.ones(len(z), bool)
        centre_lo, centre_hi = -int(math.ceil(g)), int(math.ceil(g))
        hits = 0
        for seed in seeds:
            fld = sample_field(spec, centre_lo - half, centre_hi + half, seed)
            xi = fld.xi(centre_lo - half, centre_hi + half)
            ok = np.ones(centre_hi - centre_lo + 1, bool)
            for k in np.nonzero(active)[0]:
                seg = xi[k: k + centre_hi - centre_lo + 1]
                ok &= seg >= thr[k]
                if not ok.any():
                    break
            hits += bool(ok.any())
        freqs.append(hits / len(seeds))
    return np.asarray(freqs)
