"""Finite-box lattice solver: Dirichlet eigenpairs and the exact box solution.

The operator is kappa*Laplacian + xi on Q_R = [z-R, z+R] with zero boundary,
a symmetric tridiagonal matrix with diagonal xi - 2 kappa and off-diagonal
kappa.  Heavy potential sites screen parts of the box so strongly that
eigenvector tails and point values of the solution drop far below the double
floating-point range; every quantity that can underflow is therefore carried
in log space.  LAPACK bisects eigenvalues only; each eigenvector joins two
shots of the three-term recurrence, one from each Dirichlet end, at the row
where they agree best (the twist index of a twisted factorisation).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .potential import Field, PotentialSpec, sample_field

__all__ = [
    "TridiagonalOperator",
    "SpectralData",
    "PointSolution",
    "SolveResult",
    "hamiltonian",
    "principal_eigpair",
    "solve_box",
    "solve_point_log",
    "solve_adaptive",
    "XI_CLAMP",
]

# Magnitude at which heavy sites enter linear algebra.  Eigenvalues are
# bisected to relative accuracy, so the clamp does not set their roundoff; it
# sets the amplitude of a wall crossing, about kappa / XI_CLAMP, on which
# point values of u depend, and it bounds the number of bisection steps.
XI_CLAMP = 1e8
_LOG_TINY = math.log(np.finfo(float).smallest_subnormal)  # log of a zero entry

DENSE_LIMIT = 20000
R_START = 8  # first box radius of solve_adaptive
_BATCH = 8  # eigenvalues per bisection call of a point solve, from the top
_GROWTH = 8  # most a point solve's round multiplies the modes it has
_CUT = 46.0  # nats below the largest term at which a point solve drops the rest
# entries of one (m, n) array of a point solve's _log_vectors call: 4 MB,
# 63 vectors at n = 8193
_SHOT_ENTRIES = 1 << 19


@dataclass(frozen=True)
class TridiagonalOperator:
    """kappa*Laplacian + xi on z + Q_R with Dirichlet boundary.

    Heavy sites enter ``diag`` at the clamp -XI_CLAMP, which keeps the
    matrix norm bounded.
    """

    kappa: float
    diag: np.ndarray     # xi(z+x) - 2 kappa, heavy sites at -XI_CLAMP
    clamped: np.ndarray  # mask of sites entered as -XI_CLAMP

    @property
    def n(self) -> int:
        return len(self.diag)

    def offdiag(self) -> np.ndarray:
        return np.full(self.n - 1, self.kappa)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[:-1] += self.kappa * v[1:]
        out[1:] += self.kappa * v[:-1]
        return out


@dataclass(frozen=True)
class SpectralData:
    """Principal eigenpair of a box operator, with its residual."""

    principal: float
    log_eigvec: np.ndarray  # log of the unit eigenvector, exact below underflow
    residual: float


def hamiltonian(field: Field, z: int, R: int, kappa: float) -> TridiagonalOperator:
    if kappa <= 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    if R < 0:
        raise ValueError(f"R must be >= 0, got {R}")
    xi = field.xi(z - R, z + R)
    return TridiagonalOperator(kappa=kappa,
                               diag=np.maximum(xi, -XI_CLAMP) - 2.0 * kappa,
                               clamped=xi < -XI_CLAMP)


# ---------------------------------------------------------------------------
# Eigenvectors in log space


def _shoot_log_multi(diag: np.ndarray, kappa: float, lams: np.ndarray,
                     from_left: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-ratios and signs of the recurrence solution with one Dirichlet end.

    Solves kappa v[i+1] = (lam + 2 kappa - xi[i]) v[i] - kappa v[i-1] for all
    shifts ``lams`` at once, starting from v = (0, 1) at the boundary.
    Column j is shot from the left end where ``from_left[j]``, else from the
    right end over the reversed diagonal; both kinds run in one sweep over
    all n rows, so the last value v[n] lies on the far Dirichlet end, where
    an eigenvector is zero.  Shooting from the boundary toward the interior
    follows the growing solution, so the decaying eigenvector tail is
    obtained with relative accuracy.  Returns log|v[i+1] / v[i]|, shape
    (n, m), and the sign of v, shape (n + 1, m), in sweep order: row i of
    column j is i sites in from that column's own end, and log|v[i]| is the
    sum of the first i log-ratios.
    """
    r = np.where(from_left, diag[:, None], diag[::-1, None])
    np.subtract(lams, r, out=r)
    r /= kappa  # the recurrence coefficient c of each row
    # the ratio r[i] = v[i+1] / v[i] obeys r[0] = c[0], r[i] = c[i] - 1/r[i-1];
    # a zero v[i+1] gives r[i] = +-0, then r[i+1] = -+inf and r[i+2] = c[i+2]
    rows = list(r)
    # one buffer for 1/r[i-1], and out given by position: on rows of a few
    # columns the per-row temporary and the keyword parsing cost more than
    # the arithmetic
    inv = np.empty(len(lams))
    with np.errstate(divide="ignore"):
        for prev, row in zip(rows, rows[1:]):
            np.subtract(row, np.reciprocal(prev, inv), row)
        flips = np.logical_xor.accumulate(np.signbit(r), axis=0)
        np.log(np.abs(r, out=r), out=r)
    # that pair of log-ratios becomes _LOG_TINY and -_LOG_TINY: v[i+1] reads
    # v[i] e^_LOG_TINY, and v[i+2] the size of v[i] with the sign that the
    # pair's signbits give it
    np.clip(r, _LOG_TINY, -_LOG_TINY, out=r)
    signs = np.ones((len(diag) + 1, len(lams)))
    signs[1:][flips] = -1.0
    return r, signs


def _log_vectors(op: TridiagonalOperator, lams: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """log|v| and sign of the unit eigenvectors of ``op`` for eigenvalues ``lams``.

    Returns arrays of shape (m, n), row j for lams[j].  Each eigenvalue is
    shot from both Dirichlet ends in one sweep, and the shots are joined at
    the twist row k that minimises |v^L[k+1]/v^L[k] - v^R[k+1]/v^R[k]|, the
    joined vector's residual over kappa (gamma_k of a twisted factorisation,
    Dhillon & Parlett 2004).  Every row may be the twist row: at k = n - 1
    the right shot's v^R[n] is its Dirichlet zero, as v^L[-1] is the left
    shot's at k = 0.  From v[k] = 1 the left shot's log-ratios are summed
    outward to the rows below k and the right shot's to the rows above it,
    so each shot is read only where it grows from its end and every entry,
    next to the twist row too, is relatively accurate.  Each vector is built
    in its own contiguous row and every reduction runs along that row, so
    its bits do not depend on the other eigenvalues of the call.
    """
    n, m = op.n, len(lams)
    q, s = _shoot_log_multi(op.diag, op.kappa, np.concatenate([lams, lams]),
                            np.arange(2 * m) < m)
    # one row per vector, the right shots turned into row order:
    # lq[:, i] = log|v^L[i+1] / v^L[i]| and rq[:, i] = log|v^R[i-1] / v^R[i]|,
    # sl[:, i] the sign of v^L[i] and sr[:, i] that of v^R[i - 1]
    lq, rq = np.ascontiguousarray(q[:, :m].T), np.ascontiguousarray(q[::-1, m:].T)
    sl, sr = s[:, :m].T, s[::-1, m:].T
    del q
    with np.errstate(over="ignore", invalid="ignore"):
        # the gap of row i is v^L[i+1]/v^L[i] - v^R[i+1]/v^R[i], and at
        # i = n - 1 the right shot's v^R[n] is zero
        gap, b = np.exp(lq), np.exp(np.negative(rq[:, 1:]))
        np.negative(gap, out=gap, where=sl[:, 1:] != sl[:, :-1])
        np.negative(b, out=b, where=sr[:, 2:] != sr[:, 1:-1])
        gap[:, :-1] -= b
    del b
    np.fmin(np.abs(gap, out=gap), np.inf, out=gap)  # a NaN (inf - inf) reads inf
    k = np.argmin(gap, axis=1)[:, None]
    # -log|v[i]| is the sum of the steps from row k to row i, taken outward
    # from k: a masked step adds an exact zero, so each cumulative sum starts
    # at the twist row
    rank = np.arange(n)
    ll = gap
    np.cumsum(np.where(rank < k, lq, 0.0)[:, ::-1], axis=1, out=ll[:, ::-1])
    ll += np.cumsum(np.where(rank > k, rq, 0.0), axis=1)
    np.negative(ll, out=ll)
    rows = np.arange(m)[:, None]
    sgn = np.where(rank > k, sr[:, 1:] * sr[rows, k + 1],
                   sl[:, :-1] * sl[rows, k])
    ll -= ll.max(axis=1, keepdims=True)
    ll -= 0.5 * np.log(np.sum(np.exp(2.0 * ll), axis=1, keepdims=True))
    return ll, sgn


# ---------------------------------------------------------------------------
# Eigenpairs


def _eigvals(op: TridiagonalOperator, first: int, stop: int) -> np.ndarray:
    """Eigenvalues first..stop-1 counted from the top, largest first.

    Sturm-sequence bisection on the requested index range, ascending.  The
    bisection tolerance 2 * tiny makes every eigenvalue accurate to relative
    precision.  The last bits depend on the index range requested, so
    callers that request different ranges agree to about an ulp, not to the
    bit; a mode sum's eigenvalues are reproducible because its batches of
    _BATCH from the top are fixed.
    """
    n = op.n
    w = eigh_tridiagonal(op.diag, op.offdiag(), eigvals_only=True, select="i",
                         select_range=(n - stop, n - 1 - first),
                         lapack_driver="stebz", tol=2 * np.finfo(float).tiny)
    return w[::-1]


def principal_eigpair(op: TridiagonalOperator) -> SpectralData:
    """Principal Dirichlet eigenpair; eigenvector strictly positive, in log space."""
    w = _eigvals(op, 0, 1)
    logv = _log_vectors(op, w)[0][0]
    lam, vec = float(w[0]), np.exp(logv)
    res = float(np.linalg.norm(op.matvec(vec) - lam * vec))
    return SpectralData(principal=lam, log_eigvec=logv, residual=res)


# ---------------------------------------------------------------------------
# Box solutions


def solve_box(field: Field, z: int, R: int, kappa: float, t: float) -> np.ndarray:
    """u_R(t, .) on z + Q_R by dense spectral expansion; entries clipped at 0.

    The full eigendecomposition makes this the reference for the pruned
    log-space solver on boxes where u stays in double range.  It uses the
    MRRR driver (``stemr``), which computes tridiagonal eigenpairs to high
    relative accuracy: the error does not grow with the heavy diagonal
    entries, whereas divide and conquer (``stevd``, scipy's default for the
    full spectrum) errs by machine epsilon times the norm, about 2e-8 with a
    site at the -1e8 clamp.  MRRR sets eigenvector entries below its
    support threshold to zero, so an entry cut off from the rest of the box
    by a clamped wall can still be off by ~1e-10 relative.  A LAPACK failure
    raises ``LinAlgError``.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    op = hamiltonian(field, z, R, kappa)
    if op.n > DENSE_LIMIT:
        raise ValueError(f"box dimension {op.n} exceeds dense limit {DENSE_LIMIT}")
    w, v = eigh_tridiagonal(op.diag, op.offdiag(), lapack_driver="stemr")
    with np.errstate(under="ignore"):
        coef = np.exp(t * w) * (v.T @ np.ones(op.n))
    u = v @ coef
    return np.maximum(u, 0.0)


@dataclass(frozen=True)
class PointSolution:
    """log u_R(t, x) at a single site, with the principal-mode data needed to
    state the eigenvalue sandwich at the same point."""

    log_u: float
    principal: float
    log_e_center: float
    n: int
    modes_used: int
    sign_ok: bool       # always True: a sum that cancels raises; kept
                        # because the benchmark's tracer counts False ones
    clamped_sites: int  # sites of the box held at -XI_CLAMP
    # the mode sum this value was read from; its point(t) gives the same box
    # and site at any other t and computes only the modes no t reached yet
    mode_sum: _ModeSum = dataclasses.field(repr=False, compare=False)


class _ModeSum:
    """The pruned spectral mode sum of u_R(t, x) at one site, for any t.

    Mode j contributes exp(t lam_j) v_j(x) <v_j, 1>.  Eigenvalues are
    bisected from the top of the spectrum in batches of _BATCH, and vectors
    are built in one call for the eigenvalues that have none yet; a mode is
    computed the first time some t reaches it.  Per mode only what the sum
    reads is kept: lam_j, log|v_j(x)|, log|<v_j, 1>| and the term's sign;
    the eigenvectors are dropped.  A t sums the batches up to the first one
    after which the a-priori bound t*lam + 0.5 log n of the rest falls _CUT
    nats below the largest positive term of those batches.  That prefix is
    set by t alone, and every eigenvalue and vector is the same whatever
    was computed with it, so ``point(t)`` does not depend on earlier t.
    """

    def __init__(self, op: TridiagonalOperator, x_idx: int):
        self.op = op
        self.x_idx = x_idx
        self.lam = np.empty(0)  # bisected eigenvalues, largest first
        # for the first len(term_sign) modes, those with a vector:
        self.log_vx = np.empty(0)     # log|v(x)|
        self.log_ip = np.empty(0)     # log|<v, 1>|
        self.term_sign = np.empty(0)  # sign of v(x) <v, 1>
        self._bisect_batch()
        self._shoot_new()

    def _bisect_batch(self) -> None:
        first = len(self.lam)
        w = _eigvals(self.op, first, min(self.op.n, first + _BATCH))
        self.lam = np.concatenate([self.lam, w])

    def _shoot_new(self) -> None:
        """Vectors of every eigenvalue that has none, in as few calls as
        _SHOT_ENTRIES allows."""
        op, x = self.op, self.x_idx
        step = max(1, _SHOT_ENTRIES // op.n)
        for first in range(len(self.term_sign), len(self.lam), step):
            logv, sgn = _log_vectors(op, self.lam[first:first + step])
            ip = np.sum(sgn * np.exp(logv), axis=1)
            with np.errstate(divide="ignore"):
                logip = np.log(np.abs(ip))
            self.log_vx = np.concatenate([self.log_vx, logv[:, x]])
            self.log_ip = np.concatenate([self.log_ip, logip])
            self.term_sign = np.concatenate([self.term_sign,
                                             sgn[:, x] * np.where(ip >= 0, 1.0, -1.0)])

    def _log_terms(self, t: float) -> np.ndarray:
        return t * self.lam[:len(self.term_sign)] + self.log_vx + self.log_ip

    def _negligible(self, t: float, lam, best):
        """Whether the modes from lam down are negligible against the term
        best: their a-priori bound t*lam + 0.5 log n falls _CUT below it."""
        return t * lam + 0.5 * math.log(self.op.n) < best - _CUT

    def point(self, t: float) -> PointSolution:
        """log u_R(t, x): batches are summed until the rest is negligible."""
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        n = self.op.n
        # bisect until the rest is negligible against the largest positive
        # term with a vector: that term is at most the best of the prefix, so
        # the prefix ends within the modes bisected.  It can lie far below
        # the best, so a round at most multiplies the modes by _GROWTH before
        # their vectors are built and the bound is read again
        while True:
            lt = self._log_terms(t)
            best = float(np.max(lt, where=self.term_sign > 0, initial=-math.inf))
            stop = min(n, _GROWTH * len(self.lam))
            while (len(self.lam) < stop
                   and not self._negligible(t, self.lam[-1], best)):
                self._bisect_batch()
            if len(self.lam) == len(self.term_sign):
                break
            self._shoot_new()
        # the first batch end at which the next eigenvalues, no larger than
        # the last one taken, are negligible against the best term so far
        ends = np.append(np.arange(_BATCH, len(lt), _BATCH), len(lt))
        best_so_far = np.maximum.accumulate(
            np.where(self.term_sign > 0, lt, -math.inf))
        done = (ends == n) | self._negligible(t, self.lam[ends - 1],
                                              best_so_far[ends - 1])
        k_done = int(ends[np.argmax(done)])
        arr, sg = lt[:k_done], self.term_sign[:k_done]
        kept = arr > -math.inf  # a mode orthogonal to 1 contributes nothing
        arr, sg = arr[kept], sg[kept]
        m = arr.max()
        total = float(np.sum(sg * np.exp(arr - m)))
        if not total > 0.0:
            raise ArithmeticError(f"mode sum of u on a box of n = {n} sites "
                                  f"at t = {t} is not positive: {total:g} "
                                  f"times its largest term")
        return PointSolution(log_u=m + math.log(total), principal=float(self.lam[0]),
                             log_e_center=float(self.log_vx[0]), n=n,
                             modes_used=k_done, sign_ok=True,
                             clamped_sites=int(self.op.clamped.sum()),
                             mode_sum=self)


def solve_point_log(field: Field, z: int, R: int, kappa: float, t: float,
                    x: int | None = None) -> PointSolution:
    """log u_R(t, x) via a pruned spectral mode sum, stable far below underflow.

    Contributions are summed in log space, from eigenvectors built in log
    space by ``_log_vectors``, over the modes that ``_ModeSum`` keeps at t.
    The result's ``mode_sum`` evaluates the same box and site at further t,
    computing only the modes that no earlier t reached.
    """
    if x is None:
        x = z
    op = hamiltonian(field, z, R, kappa)
    x_idx = x - (z - R)
    if not 0 <= x_idx < op.n:
        raise ValueError(f"evaluation point {x} outside box [{z - R}, {z + R}]")
    return _ModeSum(op, x_idx).point(t)


@dataclass(frozen=True)
class SolveResult:
    log_u: float
    R: int
    principal: float
    clamped_sites: int  # sites of the final box held at -XI_CLAMP
    modes_used: int     # spectral modes summed by the final point solve
    converged: bool


def solve_adaptive(spec: PotentialSpec, seed: int, t: float, rtol: float,
                   kappa: float = 1.0, r_cap: int = 1 << 14,
                   boxes: dict[int, _ModeSum] | None = None) -> SolveResult:
    """Monotone exhaustion in R; the returned value is a lower bound of u(t,0).

    Doubles R from R_START until the relative change of u_R(t,0) stays below
    rtol twice in a row, or the next R would exceed r_cap.

    ``boxes`` maps R to the mode sum of the box of radius R for this
    (spec, seed, kappa), as held by ``PointSolution.mode_sum``.  A box
    missing from it is sampled, solved by ``solve_point_log`` and added; a
    box present is evaluated at t, and only modes that no earlier t reached
    are computed.  A caller that solves one field at several t passes the
    same dict to each call; the result does not depend on what the dict
    already holds.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if not rtol > 0:
        raise ValueError(f"rtol must be > 0, got {rtol}")
    if r_cap < R_START:
        raise ValueError(f"r_cap must be >= {R_START}, got {r_cap}")
    if boxes is None:
        boxes = {}
    prev = None
    stable = 0
    R = R_START
    while True:
        if R in boxes:
            sol = boxes[R].point(t)
        else:
            fld = sample_field(spec, -R, R, seed)
            sol = solve_point_log(fld, 0, R, kappa, t)
            boxes[R] = sol.mode_sum
        if prev is not None:
            rel = abs(math.expm1(min(prev - sol.log_u, 0.0)))
            stable = stable + 1 if rel < rtol else 0
        if stable >= 2 or 2 * R > r_cap:
            break
        prev = sol.log_u
        R *= 2
    return SolveResult(log_u=sol.log_u, R=R, principal=sol.principal,
                       clamped_sites=sol.clamped_sites,
                       modes_used=sol.modes_used, converged=stable >= 2)
