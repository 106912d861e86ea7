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
from collections.abc import Iterator
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

_CHUNK = 1 << 16  # holding variates per block of walks with one jump count


@dataclass(frozen=True)
class FkResult:
    estimate: float
    stderr: float
    n_samples: int
    exit_fraction: float


def jump_budget(kappa: float, t: float) -> int:
    """Largest jump count a walk may make: a Poisson(2 kappa t) tail bound.

    Jump counts are Poisson(2 kappa t) quantiles; one above this budget
    raises ArithmeticError.  The budget is also the walk's reach: an unboxed
    walk stays within [-budget, budget], which the field must cover.  A kappa
    that is not > 0 or a t that is not >= 0, NaN and inf included, raises
    ValueError.
    """
    if not 0 < kappa < math.inf:
        raise ValueError(f"kappa must be > 0 and finite, got {kappa}")
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be >= 0 and finite, got {t}")
    rate = 2.0 * kappa
    return int(rate * t + 12.0 * math.sqrt(rate * t + 1.0) + 30)


def _jump_strata(mean: float, max_jumps: int, n: int, u: float) -> np.ndarray:
    """Walks per jump count k = 0..max_jumps under systematic sampling.

    Walk i = 0..n-1 makes F^{-1}((i + u) / n) jumps, with F the
    Poisson(mean) CDF and u in [0, 1), so n_k = ceil(n F(k) - u) -
    ceil(n F(k - 1) - u) walks make k jumps and |n_k - n P(N = k)| < 1.
    For u uniform, the quantile of a walk picked uniformly at random is
    uniform, so its count is Poisson(mean), and E n_k = n P(N = k) exactly.
    A quantile above F(max_jumps) raises ArithmeticError.
    """
    k = np.arange(max_jumps + 1)
    if mean > 0.0:
        log_fact = np.array([math.lgamma(j + 1.0) for j in k.tolist()])
        pmf = np.exp(k * math.log(mean) - mean - log_fact)
    else:
        pmf = (k == 0).astype(float)
    below = np.minimum(np.ceil(n * np.cumsum(pmf) - u), n).astype(np.int64)
    if below[-1] < n:
        raise ArithmeticError("max_jumps exceeded; raise the jump budget")
    return np.diff(below, prepend=0)


def _blocks(mean: float, max_jumps: int, n: int, rng: np.random.Generator
            ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """n walks with Poisson(mean) jump counts, as blocks (e, steps).

    Draw order: one uniform u, which fixes the counts (``_jump_strata``);
    then, for each count k in increasing order, blocks of ``rows`` walks,
    with rows * (k + 1) about 2^16.  A block draws its (k + 1, rows) Exp(1)
    variates e, then ceil(k rows / 8) random bytes, whose bits in
    ``np.unpackbits`` order fill the (k, rows) int8 steps row by row (1 is
    +1, 0 is -1).  Column c is one walk: given k jumps on [0, t], its
    holding times are t times a flat Dirichlet vector, t e[i, c] / sum_j
    e[j, c] for its k + 1 sites; the caller normalises.
    """
    strata = _jump_strata(mean, max_jumps, n, rng.random())
    for k in np.flatnonzero(strata).tolist():
        walks = int(strata[k])
        per_block = max(_CHUNK // (k + 1), 1)
        for start in range(0, walks, per_block):
            rows = min(per_block, walks - start)
            e = rng.standard_exponential((k + 1, rows))
            packed = rng.integers(0, 256, size=(k * rows + 7) // 8,
                                  dtype=np.uint8)
            steps = np.unpackbits(packed, count=k * rows).view(np.int8)
            steps *= 2
            steps -= 1
            yield e, steps.reshape(k, rows)


def _log_weights(e: np.ndarray, steps: np.ndarray, t_xi: np.ndarray,
                 box: int) -> tuple[np.ndarray, np.ndarray]:
    """Log-weights of a block from ``_blocks``, and which walks leave the box.

    ``t_xi[x + m]`` is t xi(x) for every site |x| <= m = (t_xi.size - 1) / 2
    that a walk can reach.  Returns (log_w, killed): log_w[c] is the integral
    of xi along walk c over [0, t], and -inf where killed[c], that is, where
    the walk leaves [-box, box].
    """
    k, rows = steps.shape
    m = t_xi.size // 2
    # idx = position + m, from 0 to 2m
    idx = np.empty((k + 1, rows), dtype=np.int32)
    idx[0] = m
    idx[1:] = steps
    # numpy's accumulate along axis 0 does not vectorise; a row loop does
    for j in range(1, k + 1):
        idx[j] += idx[j - 1]
    # a site holds t e / (sum of its walk's e): one division per walk, and
    # a walk without jumps gets t xi(0) to within an ulp
    terms = t_xi[idx]
    terms *= e
    log_w = terms.sum(axis=0)
    log_w /= e.sum(axis=0)
    if k <= box:
        # a walk with at most box jumps cannot leave the box
        return log_w, np.zeros(rows, dtype=bool)
    killed = (idx.max(axis=0) > m + box) | (idx.min(axis=0) < m - box)
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
    If every weight is 0 -- every walk left the box, or every path integral
    is below the double range -- it raises ArithmeticError, not 0 +- 0.

    Jump counts are sampled systematically (``_blocks``): one uniform u,
    then walk i makes the Poisson(2 kappa t) quantile at (i + u) / n jumps,
    and the walks of each count are simulated as dense blocks.  The average
    over walks of a function of the count has its Poisson expectation, so
    the estimate is unbiased for every n >= 1.  The estimate for a seed is
    fixed by the draw order of ``_blocks``.  With h(k) the mean weight of a
    walk with k jumps, iid counts add Var h(N) / n to the variance, and
    systematic ones at most (sum_k |h(k + 1) - h(k)|)^2 / n^2, since no n_k
    is off by a whole walk.  The stderr is the iid formula, so it overstates
    that term; once a few walks carry nearly all the weight, the sample
    variance it is built on is itself unreliable.
    """
    if n_samples <= 0:
        raise ValueError(f"n_samples must be > 0, got {n_samples}")
    max_jumps = jump_budget(kappa, t)
    if box is None:
        box = max_jumps  # no walk makes more jumps, so none leaves this box
    elif box < 0:
        raise ValueError(f"box must be >= 0, got {box}")
    reach = min(box, max_jumps)
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
    for block in _blocks(2.0 * kappa * t, max_jumps, n_samples, rng):
        # a path integral below the double range is -inf: weight 0
        with np.errstate(over="ignore", under="ignore"):
            log_w, killed = _log_weights(*block, t_xi, box)
            w = np.exp(log_w)
        exited += int(np.count_nonzero(killed))
        total += float(w.sum())
        total_sq += float((w * w).sum())
    if total == 0.0:
        # u(t, 0) > 0 on every field: 0 +- 0 would claim an exact zero
        raise ArithmeticError(
            f"every Feynman-Kac weight is 0: {exited} of {n_samples} walks "
            f"left the box and the other {n_samples - exited} have weights "
            "below the double range")
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    return FkResult(estimate=mean,
                    stderr=math.sqrt(var / n_samples),
                    n_samples=n_samples,
                    exit_fraction=exited / n_samples)


def _crossing(field: Field, kappa: float, y: int
              ) -> tuple[np.ndarray, np.ndarray]:
    """Crossing budgets and travel log-costs from 0 to y, as prefix sums.

    The crossed sites are 0..y-1 for y > 0 and 0, -1, ..., y+1 for y < 0, in
    crossing order (none for y = 0).  Site x is held for time
    r_x = (-xi(x) v 1)^{-1} <= 1 and costs log[(1 - e^{-2 kappa r_x}) / 2]
    (moving on within r_x) plus xi(x) r_x = max(xi(x), -1) (the potential).
    budget[k] and travel[k] sum r_x and that cost over the first k sites, so
    entry -1 covers the crossing to y.  Each is one np.cumsum outward from 0,
    so a prefix has the same bits however far the array reaches.  r_x
    underflows to 0 on astronomically deep sites; the cost is then -inf,
    correctly marking the crossing as impossible.
    """
    if y == 0:
        log_neg_xi = np.zeros(0)
    else:
        lo, hi, order = (0, y - 1, 1) if y > 0 else (y + 1, 0, -1)
        log_neg_xi = field.slice(lo, hi)[::order]
    with np.errstate(under="ignore", divide="ignore"):
        r = np.exp(-np.maximum(log_neg_xi, 0.0))
        cost = np.log(-np.expm1(-2.0 * kappa * r)) - math.log(2.0)
    # xi r_x = max(xi, -1) = -e^min(log(-xi), 0)
    cost -= np.exp(np.minimum(log_neg_xi, 0.0))
    budget = np.cumsum(np.concatenate(([0.0], r)))
    travel = np.cumsum(np.concatenate(([0.0], cost)))
    return budget, travel


def screening_lower_bound(field: Field, kappa: float, t: float, y: int,
                          R: int) -> float:
    """Log of an explicit lower bound for u(t, 0) via the travel strategy.

    The walk crosses from 0 to the centre y of the window y + [-R, R],
    spending r_x = (-xi(x) v 1)^{-1} at each site from 0 up to y, y excluded
    (probability of moving on within time r_x is at least
    (1 - e^{-2 kappa r_x})/2, and the potential costs at most e^{xi(x) r_x});
    it then stays inside the window for the remaining time, bounded below by
    the diagonal heat-kernel estimate e(y)^2 e^{(t-s) lambda} through the
    principal Dirichlet eigenpair of the window.

    After arriving (in total time at most sum r_x), the walk waits at the
    window centre until the split time s, paying the penalty (xi(y) - 2 kappa)
    per unit of waiting time, and then stays in the window over [s, t].  The
    split s is the crossing budget sum r_x itself; a budget above t/2 makes
    the strategy infeasible and raises ValueError.
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    if t <= 0:
        raise ValueError(f"t must be > 0, got {t}")
    # the walk must reach the window centre itself (the kernel bound below
    # is taken at the centre), so every site from 0 up to y is crossed and
    # paid for
    budget, travel = _crossing(field, kappa, y)
    s = float(budget[-1])
    if s > t / 2.0:
        raise ValueError(
            f"crossing budget sum r_x = {s:.6g} exceeds half the time "
            f"t/2 = {t / 2.0:.6g}; strategy infeasible")
    # waiting penalty at the centre until time s, with the exact potential
    xi_c = field.xi(y, y).item()
    log_wait = (xi_c - 2.0 * kappa) * s
    op = hamiltonian(field, y, R, kappa)
    pe = principal_eigpair(op)
    # entry R is the window centre; in log space, so no floor lifts the bound
    log_window = 2.0 * pe.log_eigvec[R] + (t - s) * pe.principal
    return float(travel[-1] + log_wait + log_window)


def best_screening_bound(field: Field, kappa: float, t: float, search: int,
                         R: int) -> tuple[float, int]:
    """Best screening bound over candidate window centres; (log bound, y*).

    Scans candidate centres y of both signs with |y| <= search on a stride of
    R (every site when R <= 1), skipping the centres whose crossing budget
    exceeds t/2; raises ValueError when an argument is out of range or when
    no candidate is feasible.
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
    # the budget of every centre, read off one outward pass per side
    right = _crossing(field, kappa, max(int(centres[-1]), 0))[0]
    left = _crossing(field, kappa, min(int(centres[0]), 0))[0]
    budget = np.where(centres > 0, right[np.maximum(centres, 0)],
                      left[np.maximum(-centres, 0)])
    best = -math.inf
    best_y = None
    for y in centres[budget <= t / 2.0]:
        val = screening_lower_bound(field, kappa, t, int(y), R)
        if val > best:
            best, best_y = val, int(y)
    if best_y is None:
        raise ValueError("no feasible screening candidate in the search range")
    return best, best_y
