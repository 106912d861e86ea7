"""Feynman-Kac Monte Carlo and the explicit screening lower bound.

The Feynman-Kac representation writes u(t, z) as an expectation over a
continuous-time simple random walk with jump rate 2 kappa started at z:

    u(t, z) = E_z[ exp( integral_0^t xi(X_s) ds ) ].

With non-positive potentials, restricting to paths that stay inside a box up
to time t (killing on exit) can only discard non-negative mass, so the boxed
estimator is a certified lower bound in expectation.

The screening bound follows a deterministic strategy: walk quickly to a
favourable window, spending time r_x = (-xi(x) v 1)^{-1} at each crossed
site, then sit in the window for the remaining time.  Every factor is a
probability or an exact exponential functional, so the product is a rigorous
pathwise lower bound for u(t, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import hamiltonian, principal_eigpair
from .potential import Field

__all__ = [
    "fk_estimate",
    "FkResult",
    "jump_budget",
    "screening_lower_bound",
    "best_screening_bound",
]

_BATCH = 4096  # paths per vectorized batch; it fixes the order of RNG draws


@dataclass(frozen=True)
class FkResult:
    estimate: float
    stderr: float
    n_samples: int
    exit_fraction: float


def jump_budget(kappa: float, t: float) -> int:
    """Largest jump count a walk may make: a Poisson(2 kappa t) tail bound.

    Each walk draws its own Poisson(2 kappa t) jump count; a count above this
    budget raises ArithmeticError.  The budget is also the walk's reach: an
    unboxed walk stays within [-budget, budget], which the field must cover.
    """
    rate = 2.0 * kappa
    return int(rate * t + 12.0 * math.sqrt(rate * t + 1.0) + 30)


def _occupation_batch(kappa: float, t: float, max_jumps: int,
                      rng: np.random.Generator, batch: int
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ragged batch of walks: steps, holding times and each walk's offset.

    Returns (steps, holds, starts), flat over the batch.  Walk b makes
    N_b jumps and visits N_b + 1 sites: its holding times are
    holds[starts[b]:starts[b] + N_b + 1], never empty, and its steps in
    {-1, +1} are steps[starts[b] - b:starts[b] - b + N_b].  So holds has
    sum (N_b + 1) entries and steps sum N_b.  A count above max_jumps raises
    ArithmeticError.

    Given N jumps on [0, t], the holding times are t times a flat Dirichlet
    vector: t E_i / sum_{j<=N} E_j with E_i ~ Exp(1), i = 0..N.  Draw order
    within a batch: the ``batch`` Poisson(2 kappa t) jump counts, then the
    sum (N_b + 1) Exp(1) variates walk by walk, then the sum N_b steps walk
    by walk.  Nothing is drawn that a walk does not use.
    """
    counts = rng.poisson(2.0 * kappa * t, size=batch)
    if int(counts.max()) > max_jumps:
        raise ArithmeticError("max_jumps exceeded; raise the jump budget")
    sizes = counts + 1
    starts = np.zeros(batch, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    holds = rng.standard_exponential(size=int(starts[-1] + sizes[-1]))
    # (e / sum) * t keeps a walk without jumps at exactly t
    holds /= np.repeat(np.add.reduceat(holds, starts), sizes)
    holds *= t
    steps = 2 * rng.integers(0, 2, size=int(counts.sum()), dtype=np.int8) - 1
    return steps, holds, starts


def fk_estimate(field: Field, kappa: float, t: float, n_samples: int,
                seed: int, box: int | None = None) -> FkResult:
    """Feynman-Kac estimate of u(t, 0) by direct path simulation.

    With ``box`` set, paths leaving [-box, box] are killed (contribute 0),
    making the estimate an unbiased lower bound of the full-space value.
    Walks reach at most r = jump_budget(kappa, t) sites, or the box radius if
    smaller; a field not covering [-r, r] raises ValueError before any draw.

    Walks are drawn in batches of 4096 (``_occupation_batch``).  Draw order
    per batch: the Poisson(2 kappa t) jump counts N, then sum (N + 1) Exp(1)
    variates for the holding times, then sum N steps; nothing is drawn that
    a walk does not use.  The estimate for a seed is fixed by that order.
    """
    if n_samples <= 0:
        raise ValueError(f"n_samples must be > 0, got {n_samples}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    max_jumps = jump_budget(kappa, t)
    reach = max_jumps if box is None else min(box, max_jumps)
    if field.lo > -reach or field.hi < reach:
        raise ValueError(f"walks reach [{-reach}, {reach}], outside the "
                         f"sampled field [{field.lo}, {field.hi}]")
    rng = np.random.default_rng(seed)
    xi_field = field.xi(field.lo, field.hi)
    total = 0.0
    total_sq = 0.0
    exited = 0
    for start in range(0, n_samples, _BATCH):
        b = min(_BATCH, n_samples - start)
        steps, holds, starts = _occupation_batch(kappa, t, max_jumps, rng, b)
        # every site after a walk's first moves by one step; its first site
        # is 0, so a cumsum over the batch, less its value at the walk's
        # start, is the walk's position
        moves = np.ones(holds.size, dtype=bool)
        moves[starts] = False
        pos = np.zeros(holds.size, dtype=np.int64)
        pos[moves] = steps
        np.cumsum(pos, out=pos)
        pos -= np.repeat(pos[starts], np.diff(starts, append=holds.size))
        # only sites beyond the box, where paths die, can be outside the field
        xi = xi_field[np.clip(pos - field.lo, 0, field.hi - field.lo)]
        log_w = np.add.reduceat(xi * holds, starts)
        if box is not None:
            killed = np.maximum.reduceat(np.abs(pos), starts) > box
            exited += int(killed.sum())
            log_w[killed] = -np.inf
        with np.errstate(under="ignore"):
            w = np.exp(log_w)
        total += float(w.sum())
        total_sq += float((w * w).sum())
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    return FkResult(estimate=mean,
                    stderr=math.sqrt(var / n_samples),
                    n_samples=n_samples,
                    exit_fraction=exited / n_samples)


def screening_lower_bound(field: Field, kappa: float, t: float, y: int,
                          R: int) -> float:
    """Log of an explicit lower bound for u(t, 0) via the travel strategy.

    The walk crosses from 0 to the centre y of the window y + [-R, R],
    spending r_x = (-xi(x) v 1)^{-1} at each site x strictly between 0 and y
    (probability of moving on within time r_x is at least
    (1 - e^{-2 kappa r_x})/2, and the potential costs at most e^{xi(x) r_x});
    it then stays inside the window for the remaining time, bounded below by
    the diagonal heat-kernel estimate e(y)^2 e^{(t-s) lambda} through the
    principal Dirichlet eigenpair of the window.

    After arriving (in total time at most sum r_x), the walk waits at the
    window centre until the split time s, paying the penalty (xi(y) - 2 kappa)
    per unit of waiting time, and then stays in the window over [s, t].  The
    split is fixed at s = min(sum r_x, t/2), which is sum r_x whenever the
    strategy is feasible; raises ValueError when the crossing budget sum r_x
    exceeds t/2 (strategy infeasible).
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    if t <= 0:
        raise ValueError(f"t must be > 0, got {t}")
    if y == 0:
        budget = 0.0
        log_travel = 0.0
    else:
        # the walk must reach the window centre itself (the kernel bound
        # below is taken at the centre), so every site from 0 up to y is
        # crossed and paid for
        if y > 0:
            lo_x, hi_x = 0, y - 1
        else:
            lo_x, hi_x = y + 1, 0
        wp = field.log_neg_or1(lo_x, hi_x)       # log(-xi v 1) per crossed site
        with np.errstate(under="ignore"):
            r = np.exp(-wp)                       # r_x = (-xi v 1)^{-1} <= 1
        budget = float(r.sum())
        # per-site: log[ (1 - e^{-2 kappa r}) / 2 ] + xi * r; the potential
        # cost xi * r is exactly -1 wherever -xi >= 1 and xi otherwise
        # r underflows to 0 on astronomically deep sites; the factor is then
        # -inf, correctly marking the crossing as impossible
        with np.errstate(divide="ignore"):
            jump = np.log(-np.expm1(-2.0 * kappa * r)) - math.log(2.0)
        pot = np.maximum(field.xi(lo_x, hi_x), -1.0)
        log_travel = float(jump.sum() + pot.sum())
    if budget > t / 2.0:
        raise ValueError(
            f"crossing budget sum r_x = {budget:.6g} exceeds half the time "
            f"t/2 = {t / 2.0:.6g}; strategy infeasible")
    s = budget  # the split time min(sum r_x, t/2)
    # waiting penalty at the centre until time s, with the exact potential
    xi_c = field.xi(y, y).item()
    log_wait = (xi_c - 2.0 * kappa) * s
    op = hamiltonian(field, y, R, kappa)
    pe = principal_eigpair(op)
    # entry R is the window centre; in log space, so no floor lifts the bound
    log_window = 2.0 * pe.log_eigvec[R] + (t - s) * pe.principal
    return float(log_travel + log_wait + log_window)


def best_screening_bound(field: Field, kappa: float, t: float, search: int,
                         R: int) -> tuple[float, int]:
    """Best screening bound over candidate window centres; (log bound, y*).

    Scans candidate centres y of both signs with |y| <= search on a stride of
    R (every site when R <= 1), skipping centres whose crossing is infeasible
    within the split time; raises ValueError when no candidate is feasible.
    """
    if search < 0:
        raise ValueError(f"search radius must be >= 0, got {search}")
    step = max(R, 1)
    pos = np.arange(0, search + 1, step)
    centres = np.unique(np.concatenate([pos, -pos]))
    centres = centres[(centres - R >= field.lo) & (centres + R <= field.hi)]
    if centres.size == 0:
        raise ValueError("field too small for the window radius")
    best = -math.inf
    best_y = None
    for y in centres:
        try:
            val = screening_lower_bound(field, kappa, t, int(y), R)
        except ValueError:
            continue
        if val > best:
            best, best_y = val, int(y)
    if best_y is None:
        raise ValueError("no feasible screening candidate in the search range")
    return best, best_y
