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
    "truncation_product",
]

DENSE_LIMIT = 20000
_RELIABLE = 1e-6  # dense eigenvector entries below this are treated as noise


@dataclass(frozen=True)
class TridiagonalOperator:
    """kappa*Laplacian + xi on z + Q_R with Dirichlet boundary.

    Heavy sites enter ``diag`` at the field-level clamp -XI_CLAMP, which
    keeps the matrix norm, and with it the eigenvalue roundoff, bounded.
    """

    z: int
    R: int
    kappa: float
    diag: np.ndarray     # xi(z+x) - 2 kappa, heavy sites at -XI_CLAMP
    clamped: np.ndarray  # mask of sites entered as -XI_CLAMP

    @property
    def n(self) -> int:
        return 2 * self.R + 1

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
    eigvec: np.ndarray
    residual: float


def hamiltonian(field: Field, z: int, R: int, kappa: float) -> TridiagonalOperator:
    if kappa <= 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    if R < 0:
        raise ValueError(f"R must be >= 0, got {R}")
    xi, clamped = field.xi_clamped(z - R, z + R)
    return TridiagonalOperator(z=z, R=R, kappa=kappa, diag=xi - 2.0 * kappa,
                               clamped=clamped)


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
    buf = np.where(from_left, diag[:, None], diag[::-1, None])
    np.subtract(lams, buf, out=buf)
    buf /= kappa  # the recurrence coefficient of each row
    prev = np.zeros(m)
    cur = np.ones(m)
    scale = np.zeros(m)
    starts, scales = [0], [scale]
    for i in range(n):
        nxt = buf[i] * cur - prev
        buf[i] = cur  # the coefficient is used; the row now holds v
        prev, cur = cur, nxt
        # prev was tested as cur one row earlier, so testing cur alone finds
        # every column with mag > 1e100; NaN enters too, but leaves big False
        if not np.abs(cur).max() <= 1e100:
            mag = np.maximum(np.abs(cur), np.abs(prev))
            big = mag > 1e100
            f = np.where(big, mag, 1.0)
            cur = cur / f
            prev = prev / f
            scale = scale + np.where(big, np.log(f), 0.0)
            starts.append(i + 1)
            scales.append(scale)
    signs = np.where(buf >= 0.0, 1.0, -1.0)
    np.abs(buf, out=buf)
    np.maximum(buf, 1e-320, out=buf)
    logabs = np.log(buf, out=buf)
    for a, b, s in zip(starts, starts[1:] + [n], scales):
        logabs[a:b] += s  # rows a..b-1 were reached at scale s
    return logabs, signs


def _shot_log_entries(op: TridiagonalOperator, lams: np.ndarray, vecs: np.ndarray,
                      rows: np.ndarray, cols: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """log|v_j(i)| and sign of the entries (i, j) = (rows[k], cols[k]).

    The columns of ``vecs`` are eigenvectors of ``op`` with eigenvalues
    ``lams``.  Each entry is rebuilt from the recurrence solution shot from
    the Dirichlet end on its side of the column's peak, scaled to match the
    peak entry; this recovers entries that are noise in the dense vector.
    Only the (column, side) pairs with a requested entry are shot.
    """
    used, c = np.unique(cols, return_inverse=True)
    peaks = np.argmax(np.abs(vecs[:, used]), axis=0)
    peak_vals = vecs[peaks, used]
    peak_log = np.array([math.log(abs(p)) for p in peak_vals])
    peak_sign = np.where(peak_vals >= 0, 1.0, -1.0)
    a = peaks[c]
    left = rows <= a
    # pair code 2 * column + 1 for the right side; one shot column per pair
    pairs, q = np.unique(2 * c + ~left, return_inverse=True)
    logs, signs = _shoot_log_multi(op.diag, op.kappa, lams[used][pairs // 2],
                                   pairs % 2 == 0)
    i = np.where(left, rows, op.n - 1 - rows)
    p = np.where(left, a, op.n - 1 - a)
    logv = logs[i, q] - logs[p, q] + peak_log[c]
    sgn = signs[i, q] * signs[p, q] * peak_sign[c]
    return logv, sgn


# ---------------------------------------------------------------------------
# Eigenpairs


def _eigpairs(op: TridiagonalOperator, first: int, stop: int
              ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs first..stop-1 counted from the top, largest first.

    Sturm-sequence bisection + inverse iteration on the requested index range.
    """
    n = op.n
    w, v = eigh_tridiagonal(op.diag, op.offdiag(), select="i",
                            select_range=(n - stop, n - 1 - first),
                            lapack_driver="stebz")
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def principal_eigpair(op: TridiagonalOperator) -> SpectralData:
    """Principal Dirichlet eigenpair; eigenvector strictly positive.

    Entries below _RELIABLE times the peak are rebuilt by shooting.
    """
    w, v = _eigpairs(op, 0, 1)
    vec = v[:, 0]
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    small = np.nonzero(vec < _RELIABLE * vec.max())[0]
    if small.size:
        logv, _ = _shot_log_entries(op, w, vec[:, None], small,
                                    np.zeros(small.size, dtype=int))
        vec[small] = [math.exp(max(lv, -744.0)) for lv in logv]
    vec = np.maximum(vec, 1e-320)
    vec = vec / math.sqrt(float(vec @ vec))
    hv = op.matvec(vec)
    lam = float(vec @ hv)  # Rayleigh refinement: the clamped rows carry
    # negligible weight, so the quotient is accurate to relative precision
    res = float(np.linalg.norm(hv - lam * vec))
    return SpectralData(principal=lam, eigvec=vec, residual=res)


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


def solve_point_log(field: Field, z: int, R: int, kappa: float, t: float,
                    x: int | None = None) -> PointSolution:
    """log u_R(t, x) via a pruned spectral mode sum, stable far below underflow.

    Mode j contributes exp(t lam_j) v_j(x) <v_j, 1>; contributions are summed
    in log space, with |v_j(x)| reconstructed by boundary shooting when the
    dense eigenvector entry is at noise level.  Modes are taken from the top
    of the spectrum until the a-priori bound t*lam + 0.5 log n falls 46 nats
    below the running total.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if x is None:
        x = z
    op = hamiltonian(field, z, R, kappa)
    n = op.n
    x_idx = x - (z - R)
    if not 0 <= x_idx < n:
        raise ValueError(f"evaluation point {x} outside box [{z - R}, {z + R}]")
    ones = np.ones(n)
    log_terms: list[float] = []
    signs: list[float] = []
    log_e_center = None
    principal = None
    k_done = 0
    batch = 16
    best = -math.inf
    while k_done < n:
        k_new = min(n, k_done + batch)
        w, v = _eigpairs(op, k_done, k_new)
        at_x = v[x_idx]
        direct = np.abs(at_x) >= _RELIABLE
        logv = np.empty(len(w))
        sgn = np.empty(len(w))
        logv[direct] = np.log(np.abs(at_x[direct]))
        sgn[direct] = np.sign(at_x[direct])
        shot = np.nonzero(~direct)[0]
        if shot.size:
            logv[shot], sgn[shot] = _shot_log_entries(
                op, w, v, np.full(shot.size, x_idx), shot)
        ip = v.T @ ones
        for j in range(len(w)):
            lam = float(w[j])
            if principal is None:
                principal = lam
                log_e_center = float(logv[j])
            term_sign = sgn[j] * (1.0 if ip[j] >= 0 else -1.0)
            mag = abs(ip[j])
            lt = t * lam + logv[j] + (math.log(mag) if mag > 0 else -math.inf)
            if lt > -math.inf:
                log_terms.append(lt)
                signs.append(term_sign)
                if term_sign > 0:
                    best = max(best, lt)
        k_done = k_new
        batch = min(2 * batch, 512)
        if k_done < n:
            lam_next_bound = float(w[-1])  # next eigenvalues are no larger
            if t * lam_next_bound + 0.5 * math.log(n) < best - 46.0:
                break
    arr = np.array(log_terms)
    sg = np.array(signs)
    m = arr.max()
    total = float(np.sum(sg * np.exp(arr - m)))
    sign_ok = total > 0.0
    if not sign_ok:
        # cancellation at noise level; fall back to the positive part, which
        # still dominates the true value up to roundoff
        total = float(np.sum(np.exp(arr[sg > 0] - m)))
    log_u = m + math.log(total)
    return PointSolution(log_u=log_u, principal=principal,
                         log_e_center=log_e_center, n=n,
                         modes_used=k_done, sign_ok=sign_ok)


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
                   kappa: float = 1.0, r_start: int = 8,
                   r_cap: int = 1 << 14) -> SolveResult:
    """Monotone exhaustion in R; the returned value is a lower bound of u(t,0).

    Doubles R until the relative change of u_R(t,0) stays below rtol twice in
    a row.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    prev = None
    stable = 0
    R = r_start
    while True:
        fld = sample_field(spec, -R, R, seed)
        sol = solve_point_log(fld, 0, R, kappa, t)
        if prev is not None:
            rel = abs(math.expm1(min(prev - sol.log_u, 0.0)))
            stable = stable + 1 if rel < rtol else 0
        if stable >= 2 or 2 * R > r_cap:
            break
        prev = sol.log_u
        R *= 2
    return SolveResult(log_u=sol.log_u,
                       u=math.exp(sol.log_u) if sol.log_u > -744 else 0.0,
                       R=R, principal=sol.principal,
                       clamped_sites=int(fld.xi_clamped(-R, R)[1].sum()),
                       modes_used=sol.modes_used, sign_ok=sol.sign_ok,
                       converged=stable >= 2)


def truncation_product(field: Field, b: float, R: int) -> tuple[float, float]:
    """Log of the two screening products prod b/(-xi(x) v b) over [0,R], [-R,0].

    Computed exactly in the W-representation (no clamping, no overflow);
    both values are <= 0.
    """
    if b <= 0:
        raise ValueError(f"b must be > 0, got {b}")
    log_b = math.log(b)
    wp = field.log_neg_or1(0, R)
    right = float(np.sum(log_b - np.maximum(wp, log_b)))
    wm = field.log_neg_or1(-R, 0)
    left = float(np.sum(log_b - np.maximum(wm, log_b)))
    return left, right
