"""Finite-box lattice solver: Dirichlet eigenpairs and the exact box solution.

The operator is kappa*Laplacian + xi on Q_R = [z-R, z+R] with zero boundary,
a symmetric tridiagonal matrix with diagonal xi - 2 kappa and off-diagonal
kappa.  Heavy potential sites screen parts of the box so strongly that
eigenvector tails and point values of the solution drop far below the double
floating-point range; every quantity that can underflow is therefore carried
in log space, with tails reconstructed by the three-term recurrence shot from
the Dirichlet boundary toward the localization peak (the numerically stable
direction).
"""

from __future__ import annotations

import dataclasses
import itertools
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
_RELIABLE = 1e-6  # dense eigenvector entries below this are treated as noise


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

    @property
    def eigvec(self) -> np.ndarray:
        """The eigenvector itself; entries below the double range read 0."""
        return np.exp(self.log_eigvec)


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
# Stable tail reconstruction


def _shoot_log_multi(diag: np.ndarray, kappa: float, lams: np.ndarray,
                     from_left: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-magnitude and sign of the recurrence solution with one Dirichlet end.

    Solves kappa v[i+1] = (lam + 2 kappa - xi[i]) v[i] - kappa v[i-1] for all
    shifts ``lams`` at once, starting from v = (0, 1) at the boundary.
    Column j is shot from the left end where ``from_left[j]``, else from the
    right end over the reversed diagonal; both kinds run in one sweep over
    the rows.  Shooting from the boundary toward the interior follows the
    growing solution, so the decaying eigenvector tail is obtained with
    relative accuracy.  Returns arrays of shape (n, m) in sweep order: row k
    of column j is k sites in from that column's own end.
    """
    n, m = len(diag), len(lams)
    r = np.where(from_left, diag[:n - 1, None], diag[:0:-1, None])
    np.subtract(lams, r, out=r)
    r /= kappa  # the recurrence coefficient c of each row
    # the ratio r[i] = v[i+1] / v[i] obeys r[0] = c[0], r[i] = c[i] - 1/r[i-1];
    # a zero v[i+1] gives r[i] = +-0, then r[i+1] = -+inf and r[i+2] = c[i+2]
    rows = list(r)
    with np.errstate(divide="ignore"):
        for prev, row in zip(rows, rows[1:]):
            row -= 1.0 / prev
        logr = np.log(np.abs(r))
    # that pair becomes log|v[i+1]| = log|v[i]| + _LOG_TINY, and
    # log|v[i+2]| = log|v[i]| with the sign flipped by the pair's signbits
    np.clip(logr, _LOG_TINY, -_LOG_TINY, out=logr)
    logabs = np.zeros((n, m))
    np.cumsum(logr, axis=0, out=logabs[1:])
    flips = np.logical_xor.accumulate(np.signbit(r), axis=0)
    signs = np.ones((n, m))
    signs[1:][flips] = -1.0
    return logabs, signs


def _log_entries(op: TridiagonalOperator, lams: np.ndarray, vecs: np.ndarray,
                 rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log|v_j(i)| and sign of the entries (i, j) = (rows[k], cols[k]).

    The columns of ``vecs`` are unit eigenvectors of ``op`` with eigenvalues
    ``lams``.  An entry of magnitude >= _RELIABLE is read from the dense
    vector; every other entry is rebuilt from the recurrence solution shot
    from the Dirichlet end on its side of the column's peak, scaled to match
    the peak entry, which recovers entries that are noise in the dense
    vector.  Only the (column, side) pairs with a shot entry are shot.
    """
    vals = vecs[rows, cols]
    direct = np.abs(vals) >= _RELIABLE
    logv = np.empty(len(vals))
    sgn = np.empty(len(vals))
    logv[direct] = np.log(np.abs(vals[direct]))
    sgn[direct] = np.sign(vals[direct])
    shot = np.nonzero(~direct)[0]
    if not shot.size:
        return logv, sgn
    rows, cols = rows[shot], cols[shot]
    used, c = np.unique(cols, return_inverse=True)
    peaks = np.argmax(np.abs(vecs[:, used]), axis=0)
    peak_vals = vecs[peaks, used]
    peak_log = np.log(np.abs(peak_vals))
    peak_sign = np.where(peak_vals >= 0, 1.0, -1.0)
    a = peaks[c]
    left = rows <= a
    # pair code 2 * column + 1 for the right side; one shot column per pair
    pairs, q = np.unique(2 * c + ~left, return_inverse=True)
    logs, signs = _shoot_log_multi(op.diag, op.kappa, lams[used][pairs // 2],
                                   pairs % 2 == 0)
    i = np.where(left, rows, op.n - 1 - rows)
    p = np.where(left, a, op.n - 1 - a)
    logv[shot] = logs[i, q] - logs[p, q] + peak_log[c]
    sgn[shot] = signs[i, q] * signs[p, q] * peak_sign[c]
    return logv, sgn


# ---------------------------------------------------------------------------
# Eigenpairs


def _eigpairs(op: TridiagonalOperator, first: int, stop: int
              ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs first..stop-1 counted from the top, largest first.

    Sturm-sequence bisection + inverse iteration on the requested index range.
    The bisection tolerance 2 * tiny makes every eigenvalue accurate to
    relative precision, so every caller sees the same lambda for a box.
    """
    n = op.n
    w, v = eigh_tridiagonal(op.diag, op.offdiag(), select="i",
                            select_range=(n - stop, n - 1 - first),
                            lapack_driver="stebz", tol=2 * np.finfo(float).tiny)
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def principal_eigpair(op: TridiagonalOperator) -> SpectralData:
    """Principal Dirichlet eigenpair; eigenvector strictly positive, in log space."""
    w, v = _eigpairs(op, 0, 1)
    logv, _ = _log_entries(op, w, v, np.arange(op.n), np.zeros(op.n, dtype=int))
    logv -= logv.max()
    logv -= 0.5 * math.log(float(np.sum(np.exp(2.0 * logv))))
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
    sign_ok: bool
    clamped_sites: int  # sites of the box held at -XI_CLAMP
    # the mode sum this value was read from; its point(t) gives the same box
    # and site at any other t without a new eigensolve
    mode_sum: _ModeSum = dataclasses.field(repr=False, compare=False)


class _ModeSum:
    """The pruned spectral mode sum of u_R(t, x) at one site, for any t.

    Mode j contributes exp(t lam_j) v_j(x) <v_j, 1>.  Eigenpairs are taken
    from the top of the spectrum in batches of 16, 32, ..., 512 modes, each
    batch computed the first time a t reaches it.  A batch keeps only what
    the sum reads: lam_j, log|v_j(x)| (rebuilt by boundary shooting when the
    dense entry is at noise level), log|<v_j, 1>| and the sign of the term;
    the eigenvectors are dropped.  Every t reads an exact prefix of the same
    batches, so ``point(t)`` does not depend on the t evaluated before it.
    """

    def __init__(self, op: TridiagonalOperator, x_idx: int):
        self.op = op
        self.x_idx = x_idx
        self.batches: list[tuple[np.ndarray, ...]] = []
        self.modes_done = 0

    def _batch(self, i: int) -> tuple[np.ndarray, ...]:
        """(lam, log|v(x)|, log|<v, 1>|, term sign) of batch i."""
        if i == len(self.batches):
            op, first = self.op, self.modes_done
            w, v = _eigpairs(op, first, min(op.n, first + min(16 << i, 512)))
            logv, sgn = _log_entries(op, w, v, np.full(len(w), self.x_idx),
                                     np.arange(len(w)))
            ip = v.T @ np.ones(op.n)
            with np.errstate(divide="ignore"):
                logip = np.log(np.abs(ip))
            self.batches.append((w, logv, logip,
                                 sgn * np.where(ip >= 0, 1.0, -1.0)))
            self.modes_done += len(w)
        return self.batches[i]

    def point(self, t: float) -> PointSolution:
        """log u_R(t, x): modes are summed until the a-priori bound
        t*lam + 0.5 log n of the rest falls 46 nats below the running total."""
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        n = self.op.n
        log_terms: list[np.ndarray] = []
        signs: list[np.ndarray] = []
        k_done = 0
        best = -math.inf
        for i in itertools.count():
            w, logv, logip, term_sign = self._batch(i)
            lt = t * w + logv + logip
            kept = lt > -math.inf  # a mode orthogonal to 1 contributes nothing
            log_terms.append(lt[kept])
            signs.append(term_sign[kept])
            best = float(np.max(lt, where=term_sign > 0, initial=best))
            k_done += len(w)
            # the next eigenvalues are no larger than the last one taken
            if k_done == n or t * w[-1] + 0.5 * math.log(n) < best - 46.0:
                break
        arr = np.concatenate(log_terms)
        sg = np.concatenate(signs)
        m = arr.max()
        total = float(np.sum(sg * np.exp(arr - m)))
        sign_ok = total > 0.0
        if not sign_ok:
            # cancellation at noise level; fall back to the positive part,
            # which still dominates the true value up to roundoff
            total = float(np.sum(np.exp(arr[sg > 0] - m)))
        w0, logv0 = self.batches[0][:2]
        return PointSolution(log_u=m + math.log(total), principal=float(w0[0]),
                             log_e_center=float(logv0[0]), n=n,
                             modes_used=k_done, sign_ok=sign_ok,
                             clamped_sites=int(self.op.clamped.sum()),
                             mode_sum=self)


def solve_point_log(field: Field, z: int, R: int, kappa: float, t: float,
                    x: int | None = None) -> PointSolution:
    """log u_R(t, x) via a pruned spectral mode sum, stable far below underflow.

    Contributions are summed in log space, with |v_j(x)| reconstructed by
    boundary shooting when the dense eigenvector entry is at noise level.
    Modes are taken from the top of the spectrum until the a-priori bound
    t*lam + 0.5 log n falls 46 nats below the running total.  The result's
    ``mode_sum`` evaluates the same box and site at further t.
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
    u: float
    R: int
    principal: float
    clamped_sites: int  # sites of the final box held at -XI_CLAMP
    modes_used: int     # spectral modes summed by the final point solve
    sign_ok: bool       # False if that sum cancelled and log_u is its positive part
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
    box present is evaluated at t without a new eigensolve.  A caller that
    solves one field at several t passes the same dict to each call; the
    result does not depend on what the dict already holds.
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
    return SolveResult(log_u=sol.log_u,
                       u=math.exp(sol.log_u),
                       R=R, principal=sol.principal,
                       clamped_sites=sol.clamped_sites,
                       modes_used=sol.modes_used, sign_ok=sol.sign_ok,
                       converged=stable >= 2)
