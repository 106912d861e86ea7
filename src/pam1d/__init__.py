"""Numerical laboratory for the one-dimensional parabolic Anderson model

    du/dt = kappa * Delta u + xi u,   u(0, .) = 1,

with i.i.d. non-positive potentials xi whose lower tail is heavy enough that
very negative sites screen the diffusion.  The package samples potential
fields reproducibly, computes the deterministic scale functions of the
theory, solves the lattice equation exactly in log space, estimates it by
Feynman-Kac Monte Carlo, evaluates the continuum variational constant, and
runs the statistical experiments connecting finite-t data to the predicted
almost-sure decay rate.
"""

from .potential import (Field, LowerTailSpec, PotentialSpec, canonical_A,
                        cumulant_G, cumulant_H, g_tilde, g_tilde_inverse,
                        log_moment, sample_field, spec_from_json,
                        spec_to_json)
from .scales import (ScaleParams, alpha, b_scale, b_star, gamma_box,
                     invert_G, r_box)
from .lattice import (XI_CLAMP, PointSolution, SolveResult, SpectralData,
                      TridiagonalOperator, hamiltonian,
                      principal_eigpair, solve_adaptive, solve_box,
                      solve_point_log)
from .montecarlo import (FkResult, best_screening_bound, fk_estimate,
                         jump_budget, screening_lower_bound)
from .variational import (ChiResult, ShapeFunction, VariationalConfig,
                          brute_legendre, chi_tilde, eig_continuum,
                          functional_H, legendre_L)
from .experiments import (ExperimentConfig, RateCurve, check_assumption_H,
                          check_last, check_lln, check_microbox, estimate_rho,
                          rate_curve, t_grid)

__version__ = "0.1.0"
