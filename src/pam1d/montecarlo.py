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
    A kappa that is not > 0 or a t that is not >= 0, NaN included, raises
    ValueError.
    """
    if not kappa > 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got {t}")
    rate = 2.0 * kappa
    return int(rate * t + 12.0 * math.sqrt(rate * t + 1.0) + 30)


def _occupation_batch(kappa: float, t: float, max_jumps: int,
                      rng: np.random.Generator, batch: int
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ragged batch of walks: jump counts, holding variates and steps.

    Returns (counts, e, steps), flat over the batch.  Walk w makes
    N_w = counts[w] jumps and visits N_w + 1 sites.  With
    S_w = sum_{v<w} (N_v + 1), its Exp(1) variates are e[S_w:S_w + N_w + 1],
    never empty, and its steps in {-1, +1} are steps[S_w - w:S_w - w + N_w].
    So e has sum (N_w + 1) entries and steps sum N_w.  A count above
    max_jumps raises ArithmeticError.

    Given N jumps on [0, t], the holding times are t times a flat Dirichlet
    vector: t E_i / sum_{j<=N} E_j with E_i ~ Exp(1), i = 0..N; the caller
    normalises.  Draw order within a batch: the ``batch`` Poisson(2 kappa t)
    jump counts, then the sum (N_w + 1) Exp(1) variates walk by walk, then
    ceil(sum N_w / 8) random bytes, whose bits in ``np.unpackbits`` order
    are the steps walk by walk (1 is +1, 0 is -1).
    """
    counts = rng.poisson(2.0 * kappa * t, size=batch)
    if int(counts.max()) > max_jumps:
        raise ArithmeticError("max_jumps exceeded; raise the jump budget")
    n_jumps = int(counts.sum())
    e = rng.standard_exponential(size=n_jumps + batch)
    packed = rng.integers(0, 256, size=(n_jumps + 7) // 8, dtype=np.uint8)
    steps = np.unpackbits(packed, count=n_jumps).view(np.int8)
    steps *= 2
    steps -= 1
    return counts, e, steps


def _log_weights(counts: np.ndarray, e: np.ndarray, steps: np.ndarray,
                 t_xi: np.ndarray, box: int | None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Log-weights of one batch of walks, and which walks leave the box.

    ``counts``, ``e`` and ``steps`` are a batch from ``_occupation_batch``;
    ``t_xi[x + m]`` is t xi(x) for every site |x| <= m = (t_xi.size - 1) / 2
    that a walk can reach.  Returns (log_w, killed): log_w[w] is the
    integral of xi along walk w over [0, t], and -inf where killed[w], that
    is, where the walk leaves [-box, box] (never when box is None).
    """
    b = counts.size
    m = t_xi.size // 2
    walk = np.repeat(np.arange(b), counts + 1)
    # site i of walk w has made the jumps steps[first[w]:i - w] since its
    # start at 0, so its position is a difference of one cumsum
    cs = np.zeros(steps.size + 1, dtype=np.int64)
    np.cumsum(steps, out=cs[1:])
    first = np.cumsum(counts) - counts
    idx = cs[np.arange(e.size) - walk]
    idx -= (cs[first] - m)[walk]                  # position + m
    # a site holds t e / (sum of its walk's e): one division per walk, and
    # a walk without jumps gets t xi(0) to within an ulp
    log_w = np.bincount(walk, t_xi[idx] * e, b) / np.bincount(walk, e, b)
    killed = np.zeros(b, dtype=bool)
    if box is not None and int(counts.max()) > box:
        # only a walk with more than box jumps can leave the box
        killed[walk[np.abs(idx - m) > box]] = True
        log_w[killed] = -np.inf
    return log_w, killed


def fk_estimate(field: Field, kappa: float, t: float, n_samples: int,
                seed: int, box: int | None = None) -> FkResult:
    """Feynman-Kac estimate of u(t, 0) by direct path simulation.

    With ``box`` set, paths leaving [-box, box] are killed (contribute 0),
    making the estimate an unbiased lower bound of the full-space value.
    Walks reach at most r = jump_budget(kappa, t) sites, or the box radius if
    smaller; a field not covering [-r, r] raises ValueError before any draw,
    and so do a negative box and the kappa or t that ``jump_budget`` rejects.

    Walks are drawn in batches of 4096 (``_occupation_batch``).  Draw order
    per batch: the Poisson(2 kappa t) jump counts N, then sum (N + 1) Exp(1)
    variates for the holding times, then ceil(sum N / 8) random bytes whose
    bits are the steps.  The estimate for a seed is fixed by that order.
    """
    if n_samples <= 0:
        raise ValueError(f"n_samples must be > 0, got {n_samples}")
    max_jumps = jump_budget(kappa, t)
    if box is not None and box < 0:
        raise ValueError(f"box must be >= 0, got {box}")
    reach = max_jumps if box is None else min(box, max_jumps)
    if field.lo > -reach or field.hi < reach:
        raise ValueError(f"walks reach [{-reach}, {reach}], outside the "
                         f"sampled field [{field.lo}, {field.hi}]")
    rng = np.random.default_rng(seed)
    # sites beyond the box read 0; a walk that gets there is killed
    t_xi = np.zeros(2 * max_jumps + 1)
    t_xi[max_jumps - reach:max_jumps + reach + 1] = t * field.xi(-reach, reach)
    total = 0.0
    total_sq = 0.0
    exited = 0
    for start in range(0, n_samples, _BATCH):
        batch = _occupation_batch(kappa, t, max_jumps, rng,
                                  min(_BATCH, n_samples - start))
        log_w, killed = _log_weights(*batch, t_xi, box)
        exited += int(np.count_nonzero(killed))
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
    within the split time; raises ValueError when an argument is out of
    range or when no candidate is feasible.
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    if t <= 0:
        raise ValueError(f"t must be > 0, got {t}")
    if R < 0:
        raise ValueError(f"window radius must be >= 0, got {R}")
    if search < 0:
        raise ValueError(f"search radius must be >= 0, got {search}")
    step = max(R, 1)
    pos = np.arange(0, search + 1, step)
    centres = np.unique(np.concatenate([pos, -pos]))
    centres = centres[(centres - R >= field.lo) & (centres + R <= field.hi)]
    if centres.size == 0:
        raise ValueError("field too small for the window radius")
    # crossing budget sum r_x of every centre, from prefix sums of r that
    # run outward from 0: y > 0 crosses 0..y-1 and y < 0 crosses y+1..0
    lo_x = min(int(centres[0]) + 1, 0)
    with np.errstate(under="ignore"):
        r = np.exp(-field.log_neg_or1(lo_x, max(int(centres[-1]) - 1, 0)))
    right = np.concatenate([[0.0], np.cumsum(r[-lo_x:])])
    left = np.concatenate([[0.0], np.cumsum(r[-lo_x::-1])])
    budget = np.where(centres > 0, right[np.maximum(centres, 0)],
                      left[np.maximum(-centres, 0)])
    # over n crossed sites these sums and screening_lower_bound's own differ
    # by a relative n eps at most, so for n below 1e6 the slack lets through
    # every centre that it accepts
    feasible = centres[budget <= t / 2.0 * (1.0 + 1e-9)]
    best = -math.inf
    best_y = None
    for y in feasible:
        try:
            val = screening_lower_bound(field, kappa, t, int(y), R)
        except ValueError:   # infeasible within the slack
            continue
        if val > best:
            best, best_y = val, int(y)
    if best_y is None:
        raise ValueError("no feasible screening candidate in the search range")
    return best, best_y
