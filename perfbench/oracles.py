"""Oracles that the benchmark checks pam1d's outputs against.

None of these runs inside a timed pass.
"""

from __future__ import annotations

import math

from scipy.special import betaln

from pam1d.montecarlo import best_screening_bound
from pam1d.potential import PotentialSpec, sample_field

# Screening-bound search used for every rate_sweep row: window centres with
# |y| <= SCREEN_SEARCH, window radii SCREEN_RADII.
SCREEN_SEARCH = 512
SCREEN_RADII = (4, 8, 16)

FK_SIGMAS = 4.0


def log_chi_exact(A: float, gamma: float, kappa: float) -> float:
    """log of the closed-form decay constant chi(A, gamma, kappa).

    chi = [(C/gamma) (2J)^{(1-gamma)/gamma} kappa^{(1-gamma)/(2 gamma)}]
          ^{2 gamma/(1+gamma)},
    C = ((1-gamma)/gamma)^{(1-gamma)/gamma} (A gamma)^{1/gamma},
    J = B((1+gamma)/(2-2 gamma), 1/2) / (2-2 gamma),

    and chi = kappa pi^2 A^2 at gamma = 0.  Evaluated in log space, since the
    bracket overflows for small gamma.
    """
    if gamma == 0.0:
        return math.log(kappa * math.pi ** 2 * A ** 2)
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    p = (1.0 - gamma) / gamma
    log_c = p * math.log(p) + math.log(A * gamma) / gamma
    log_j = betaln((1.0 + gamma) / (2.0 - 2.0 * gamma), 0.5) - math.log(2.0 - 2.0 * gamma)
    inner = (log_c - math.log(gamma) + p * (math.log(2.0) + log_j)
             + 0.5 * p * math.log(kappa))
    return 2.0 * gamma / (1.0 + gamma) * inner


def chi_exact(A: float, gamma: float, kappa: float) -> float:
    return math.exp(log_chi_exact(A, gamma, kappa))


def screening_table(spec: PotentialSpec, seeds, t_values, kappa: float) -> dict:
    """{(t, seed): certified lower bound of log u(t, 0)} for every row.

    The bound is ``pam1d.montecarlo.best_screening_bound``, the best window
    centre with |y| <= SCREEN_SEARCH, maximised over the radii SCREEN_RADII.
    Centre 0 needs no crossing and is always feasible, so a ValueError here
    is a defect of the screening code and stops the run.
    """
    half = SCREEN_SEARCH + max(SCREEN_RADII)
    table = {}
    for seed in seeds:
        fld = sample_field(spec, -half, half, seed)
        for t in t_values:
            table[(float(t), int(seed))] = max(
                best_screening_bound(fld, kappa, float(t), SCREEN_SEARCH, R)[0]
                for R in SCREEN_RADII)
    return table


def fk_agrees(estimate: float, stderr: float, exact: float) -> bool:
    """Monte Carlo estimate within FK_SIGMAS standard errors of the exact value."""
    return bool(abs(estimate - exact) <= FK_SIGMAS * max(stderr, 1e-14))
