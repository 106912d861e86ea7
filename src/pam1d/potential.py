"""Potential distribution families, field sampling, and cumulant functions.

The potential at every lattice site is i.i.d., non-positive, with essential
supremum 0 and no atom at -infinity.  A sample is drawn from a two-branch
mixture:

  * with probability ``1 - q`` a "light" value close to 0 (either an atom at 0
    complemented by an atom at -1, or minus a Frechet variable), which controls
    the upper tail near 0;
  * with probability ``q`` a "heavy" value ``-e^W`` with ``W >= 0`` drawn from
    a heavy-tailed law (exp-Pareto, log-log density, or bounded control case),
    which controls the lower tail at -infinity.

Heavy values overflow binary floating point (``W`` can exceed 10^6), so fields
keep the dual representation: light sites store the value itself, heavy sites
store ``W = log(-xi)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# scipy.optimize, scipy.integrate and scipy.special are imported inside the
# functions that call them: loading them adds about 0.25 s and 20 MB to
# ``import pam1d``, and only the cumulant and scale-inversion paths need them.

__all__ = [
    "LowerTailSpec",
    "PotentialSpec",
    "Field",
    "W_CAP",
    "sample_field",
    "cumulant_H",
    "cumulant_G",
    "g_tilde",
    "g_tilde_inverse",
    "invert_G",
    "log_moment",
    "canonical_A",
    "spec_from_json",
    "spec_to_json",
]

# Largest W decoded to xi = -e^W; heavier sites decode to -e^W_CAP, which
# stays in double range and already kills anything it multiplies.  W itself
# must stay finite too, or means over sites (estimate_rho) turn to NaN: log-log
# sampling caps log W at _LOG_POW_MAX (0.14 % of heavy sites at theta = 1).
W_CAP = 700.0
# Log-log regularization exponent theta' of the minorant G~_eta.
THETA_PRIME = 0.5

_QUAD_RTOL = 1e-12
_ELL_MAX = 1e300  # largest ell a tail-scale inverse searches
_LOG_CUTOFF = 1400.0  # exp(-1400) is far below double underflow
_LOG_POW_MAX = 709.78  # just below log of the largest double


# ---------------------------------------------------------------------------
# Specs


@dataclass(frozen=True)
class LowerTailSpec:
    """Law of W = log(-xi) on the heavy branch.

    Exactly one variant is active:

    * ``pareto_zeta``: P(W > x) = x^{-zeta} for x >= 1, zeta in (0, 1].
    * ``loglog_theta`` (+ ``loglog_x0``): density proportional to
      1/[x log^{1+theta} x] on [x0, inf), x0 >= e.
    * ``bounded_wmax``: W uniform on [0, wmax]; all log-moments finite.
    """

    variant: str  # "pareto" | "loglog" | "bounded"
    zeta: float = 0.0
    theta: float = 0.0
    x0: float = math.e
    wmax: float = 0.0

    def __post_init__(self):
        if self.variant == "pareto":
            if not 0.0 < self.zeta <= 1.0:
                raise ValueError(f"pareto zeta must be in (0,1], got {self.zeta}")
        elif self.variant == "loglog":
            if self.theta <= 0.0:
                raise ValueError(f"loglog theta must be > 0, got {self.theta}")
            if self.x0 < math.e:
                raise ValueError(f"loglog x0 must be >= e, got {self.x0}")
        elif self.variant == "bounded":
            if self.wmax < 0.0:
                raise ValueError(f"bounded wmax must be >= 0, got {self.wmax}")
        else:
            raise ValueError(f"unknown lower-tail variant {self.variant!r}")

    @staticmethod
    def pareto(zeta: float) -> "LowerTailSpec":
        return LowerTailSpec("pareto", zeta=zeta)

    @staticmethod
    def loglog(theta: float, x0: float = math.e) -> "LowerTailSpec":
        return LowerTailSpec("loglog", theta=theta, x0=x0)

    @staticmethod
    def bounded(wmax: float) -> "LowerTailSpec":
        return LowerTailSpec("bounded", wmax=wmax)

    def has_infinite_log_moment(self) -> bool:
        """Whether <log(-xi v 1)> = infinity (pareto has zeta <= 1)."""
        return self.variant != "bounded"

    def sample_w(self, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF map from uniforms in (0,1) to W values."""
        if self.variant == "pareto":
            return u ** (-1.0 / self.zeta)
        if self.variant == "loglog":
            # F(x) = 1 - (log x0 / log x)^theta on [x0, inf); the exponent
            # is capped so that W stays finite (see W_CAP)
            with np.errstate(over="ignore"):
                log_w = math.log(self.x0) * (1.0 - u) ** (-1.0 / self.theta)
            return np.exp(np.minimum(log_w, _LOG_POW_MAX))
        return self.wmax * u

    def log_density_w(self, w: np.ndarray) -> np.ndarray:
        """log of the density of W (bounded variant with wmax=0 is an atom)."""
        w = np.asarray(w, dtype=float)
        if self.variant == "pareto":
            out = np.where(
                w >= 1.0, math.log(self.zeta) - (self.zeta + 1.0) * np.log(np.maximum(w, 1.0)), -np.inf
            )
            return out
        if self.variant == "loglog":
            c = self.theta * math.log(self.x0) ** self.theta
            lw = np.log(np.maximum(w, self.x0))
            out = np.where(
                w >= self.x0,
                math.log(c) - np.log(np.maximum(w, self.x0)) - (1.0 + self.theta) * np.log(lw),
                -np.inf,
            )
            return out
        if self.wmax == 0.0:
            raise ValueError("bounded variant with wmax=0 is an atom, not a density")
        return np.where((w >= 0.0) & (w <= self.wmax), -math.log(self.wmax), -np.inf)

    def w_support(self) -> tuple[float, float]:
        if self.variant == "pareto":
            return 1.0, math.inf
        if self.variant == "loglog":
            return self.x0, math.inf
        return 0.0, self.wmax


@dataclass(frozen=True)
class PotentialSpec:
    """Mixture family for a single potential value xi(0).

    ``gamma`` selects the upper-tail class.  ``gamma == 0`` uses an atom at 0
    of light-branch weight ``atom_p`` (the light complement is an atom at -1);
    ``gamma in (0,1)`` uses -V with V Frechet, P(V <= x) = exp(-D x^{-a}),
    a = gamma/(1-gamma).  ``mix_q`` is the heavy-branch weight.
    """

    gamma: float
    mix_q: float
    lower: LowerTailSpec
    atom_p: float = 0.0
    frechet_d: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0,1), got {self.gamma}")
        if not 0.0 < self.mix_q <= 1.0:
            raise ValueError(f"mix_q must be in (0,1], got {self.mix_q}")
        if self.mix_q < 1.0:
            if self.gamma == 0.0:
                if not 0.0 < self.atom_p < 1.0:
                    raise ValueError(f"atom_p must be in (0,1), got {self.atom_p}")
            else:
                if self.frechet_d <= 0.0:
                    raise ValueError(f"frechet_d must be > 0, got {self.frechet_d}")

    @property
    def frechet_a(self) -> float:
        if self.gamma == 0.0:
            raise ValueError("frechet_a undefined for gamma = 0")
        return self.gamma / (1.0 - self.gamma)

    @property
    def nu(self) -> float:
        return (1.0 - self.gamma) / (3.0 - self.gamma)

    def sample_light(self, u: np.ndarray) -> np.ndarray:
        """Light-branch values xi from uniforms in (0,1)."""
        if self.gamma == 0.0:
            return np.where(u < self.atom_p, 0.0, -1.0)
        # inverse Frechet CDF
        a, d = self.frechet_a, self.frechet_d
        return -((d / (-np.log(u))) ** (1.0 / a))


def spec_to_json(spec: PotentialSpec) -> str:
    if spec.gamma == 0.0:
        upper = {"atom_p": spec.atom_p}
    else:
        upper = {"frechet_d": spec.frechet_d}
    lt = spec.lower
    if lt.variant == "pareto":
        lower = {"pareto_zeta": lt.zeta}
    elif lt.variant == "loglog":
        lower = {"loglog_theta": lt.theta, "loglog_x0": lt.x0}
    else:
        lower = {"bounded_wmax": lt.wmax}
    return json.dumps(
        {"gamma": spec.gamma, "upper": upper, "mix_q": spec.mix_q, "lower": lower},
        sort_keys=True,
    )


def spec_from_json(text: str) -> PotentialSpec:
    """Parse the JSON spec object; unknown fields are rejected."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("spec JSON must be an object")
    extra = set(obj) - {"gamma", "upper", "mix_q", "lower"}
    if extra:
        raise ValueError(f"unknown spec fields: {sorted(extra)}")
    for key in ("gamma", "upper", "mix_q", "lower"):
        if key not in obj:
            raise ValueError(f"spec JSON missing field {key!r}")
    upper = obj["upper"]
    atom_p, frechet_d = 0.0, 0.0
    if set(upper) == {"atom_p"}:
        atom_p = float(upper["atom_p"])
    elif set(upper) == {"frechet_d"}:
        frechet_d = float(upper["frechet_d"])
    else:
        raise ValueError(f"upper must be {{'atom_p'}} or {{'frechet_d'}}, got {sorted(upper)}")
    lower = obj["lower"]
    if set(lower) == {"pareto_zeta"}:
        lt = LowerTailSpec.pareto(float(lower["pareto_zeta"]))
    elif set(lower) <= {"loglog_theta", "loglog_x0"} and "loglog_theta" in lower:
        lt = LowerTailSpec.loglog(float(lower["loglog_theta"]), float(lower.get("loglog_x0", math.e)))
    elif set(lower) == {"bounded_wmax"}:
        lt = LowerTailSpec.bounded(float(lower["bounded_wmax"]))
    else:
        raise ValueError(f"unrecognized lower-tail fields {sorted(lower)}")
    return PotentialSpec(
        gamma=float(obj["gamma"]), mix_q=float(obj["mix_q"]), lower=lt,
        atom_p=atom_p, frechet_d=frechet_d,
    )


# ---------------------------------------------------------------------------
# Field sampling (counter-based RNG keyed by (seed, site))


@dataclass(frozen=True)
class Field:
    """One realization of the potential on the integer interval [lo, hi].

    ``heavy[i]`` marks sites storing W = log(-xi); light sites store xi
    itself (a finite non-positive double).
    """

    lo: int
    hi: int
    heavy: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def index(self, x: int) -> int:
        if not self.lo <= x <= self.hi:
            raise IndexError(f"site {x} outside field interval [{self.lo}, {self.hi}]")
        return x - self.lo

    def slice(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        i, j = self.index(lo), self.index(hi)
        return self.heavy[i : j + 1], self.values[i : j + 1]

    def xi(self, lo: int, hi: int) -> np.ndarray:
        """xi values on [lo, hi]: exact, with heavy sites capped at -e^W_CAP."""
        heavy, vals = self.slice(lo, hi)
        return np.where(heavy, -np.exp(np.minimum(vals, W_CAP)), vals)

    def log_neg_or1(self, lo: int, hi: int) -> np.ndarray:
        """W' = log(-xi v 1), exact in the dual representation."""
        heavy, vals = self.slice(lo, hi)
        light = np.log(np.maximum(-vals, 1.0))
        return np.where(heavy, vals, light)


_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLD = np.uint64(0x9E3779B97F4A7C15)


def _mix64(x: np.ndarray) -> np.ndarray:
    # uint64 arithmetic is modular by design
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * _M1
        x = (x ^ (x >> np.uint64(27))) * _M2
        return x ^ (x >> np.uint64(31))


def site_uniforms(seed: int, sites: np.ndarray, stream: int) -> np.ndarray:
    """Deterministic uniform in (0,1) per (seed, site, stream).

    splitmix64-style finalizer; vectorized, so a field extends consistently
    when the same seed samples a larger interval.
    """
    s = np.asarray(sites, dtype=np.int64).view(np.uint64)
    with np.errstate(over="ignore"):
        h = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GOLD * np.uint64(stream + 1))
        u = _mix64(_mix64(s ^ h) + _GOLD)
    out = (u >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
    return np.maximum(out, 2.0 ** -54)


def sample_field(spec: PotentialSpec, lo: int, hi: int, seed: int) -> Field:
    """Sample the i.i.d. field on [lo, hi]; pure in (spec, seed)."""
    if lo > hi:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    sites = np.arange(lo, hi + 1, dtype=np.int64)
    u_branch = site_uniforms(seed, sites, 0)
    u_value = site_uniforms(seed, sites, 1)
    heavy = u_branch < spec.mix_q
    values = np.empty(len(sites), dtype=float)
    values[heavy] = spec.lower.sample_w(u_value[heavy])
    if not heavy.all():
        values[~heavy] = spec.sample_light(u_value[~heavy])
    return Field(lo=lo, hi=hi, heavy=heavy, values=values)


# ---------------------------------------------------------------------------
# Log-space quadrature helpers


def _log_integral(log_f, lo: float, hi: float, peak: float) -> float:
    """log of the integral of exp(log_f) over [lo, hi], peak-normalized.

    ``peak`` is a point near the maximum of log_f; the domain is trimmed to
    where log_f stays within _LOG_CUTOFF of the peak value before handing the
    normalized integrand to adaptive quadrature.
    """
    from scipy.optimize import brentq

    peak = min(max(peak, lo), hi if math.isfinite(hi) else peak)
    m = float(log_f(np.array([peak]))[0])

    def drop(x):
        return float(log_f(np.array([x]))[0]) - m

    # trim left edge
    a = lo
    if lo < peak and math.isfinite(lo):
        if drop(lo) < -_LOG_CUTOFF:
            a = brentq(lambda x: drop(x) + _LOG_CUTOFF, lo, peak, xtol=1e-12, rtol=1e-12)
    # trim right edge; a peak at 0 can be narrower than any absolute xtol
    b = hi
    if not math.isfinite(hi):
        step = max(abs(peak), 1.0)
        b = peak + step
        while drop(b) > -_LOG_CUTOFF:
            step *= 2.0
            b = peak + step
        b = brentq(lambda x: drop(x) + _LOG_CUTOFF, peak, b, xtol=1e-300, rtol=1e-12)
    elif hi > peak and drop(hi) < -_LOG_CUTOFF:
        b = brentq(lambda x: drop(x) + _LOG_CUTOFF, peak, hi, xtol=1e-300, rtol=1e-12)

    def f(x):
        return float(np.exp(log_f(np.atleast_1d(x)) - m)[0])

    return m + math.log(_quad(f, a, b, points=[peak] if a < peak < b else None))


def _quad(f, a: float, b: float, points=None) -> float:
    """Integral of f over [a, b] to relative accuracy _QUAD_RTOL.

    Raises ArithmeticError, with QUADPACK's message, when the value is not
    finite and positive or its error estimate exceeds 1e-8 of the value.
    """
    from scipy.integrate import quad

    val, err, _, *msg = quad(f, a, b, points=points, limit=400, epsabs=0.0,
                             epsrel=_QUAD_RTOL, full_output=1)
    if not 0.0 < val < math.inf or err > 1e-8 * val:
        cause = ": " + " ".join(msg[0].split()) if msg else ""
        raise ArithmeticError(
            f"quadrature on [{a}, {b}] failed: value {val}, error {err}{cause}")
    return val


# ---------------------------------------------------------------------------
# Cumulant functions


def _log_heavy_laplace(spec: PotentialSpec, ell: float) -> float:
    """log E[exp(-ell * e^W)] over the heavy branch, in d = W - w_lo.

    The peak value -c = -ell e^{w_lo} is taken out, so quadrature sees
    -c expm1(d), small near the peak, not differences of values near -c.
    """
    lt = spec.lower
    if lt.variant == "bounded" and lt.wmax == 0.0:
        return -ell  # W = 0, xi = -1
    w_lo, w_hi = lt.w_support()
    c = ell * math.exp(w_lo)

    def log_f(d):
        # cap the exponent; anything below the cutoff never matters
        return -c * np.expm1(np.minimum(d, _LOG_POW_MAX)) + lt.log_density_w(w_lo + d)

    return -c + _log_integral(log_f, 0.0, w_hi - w_lo, 0.0)


# 1/k! for k = 16..2: the Taylor series of e^x - 1 - x, Horner order
_EXPM1MX_SERIES = tuple(1.0 / math.factorial(k) for k in range(16, 1, -1))


def _expm1mx(x: np.ndarray) -> np.ndarray:
    """e^x - 1 - x, by its Taylor series where expm1(x) - x would cancel."""
    out = np.expm1(x) - x
    small = np.abs(x) < 0.5
    xs = x[small]
    p = np.zeros_like(xs)
    for coef in _EXPM1MX_SERIES:
        p = p * xs + coef
    out[small] = xs * xs * p
    return out


def _log_frechet_laplace(spec: PotentialSpec, ell: float) -> float:
    """log E[exp(-ell V)] for V Frechet(a, D), via the y = D x^{-a} substitution.

    The exponent -y - c y^{-1/a} peaks at y_p with value -(1+a) y_p, which is
    taken out; quadrature sees -y_p phi(s) with s = log(y/y_p), not
    differences of values near -(1+a) y_p.  phi(s) = expm1(s) + a expm1(-s/a)
    cancels to first order at the peak, so it is summed as
    (e^s - 1 - s) + a (e^z - 1 - z), z = -s/a, two non-negative terms.
    """
    a, d = spec.frechet_a, spec.frechet_d
    c = ell * d ** (1.0 / a)
    y_p = (c / a) ** (a / (1.0 + a))
    # a y_p e^{-s/a} exceeds the double range beyond this s; there log_f is
    # at its limit -inf, so the exponential is not formed
    s_max = _LOG_POW_MAX - max(math.log(a * y_p), 0.0)

    def log_f(y):
        s = np.log(np.maximum(y, 1e-300) / y_p)
        z = -s / a
        phi = np.full_like(s, np.inf)
        ok = z < s_max
        phi[ok] = _expm1mx(s[ok]) + a * _expm1mx(z[ok])
        return -y_p * phi

    return -(1.0 + a) * y_p + _log_integral(log_f, 0.0, math.inf, y_p)


def cumulant_H(spec: PotentialSpec, ell: float) -> float:
    """H(ell) = log < e^{ell xi(0)} >, computed branch by branch in log space."""
    from scipy.special import logsumexp

    if ell < 0:
        raise ValueError(f"ell must be >= 0, got {ell}")
    if ell == 0.0:
        return 0.0
    q = spec.mix_q
    terms = [math.log(q) + _log_heavy_laplace(spec, ell)]
    if q < 1.0:
        if spec.gamma == 0.0:
            terms.append(math.log((1.0 - q) * spec.atom_p))
            terms.append(math.log((1.0 - q) * (1.0 - spec.atom_p)) - ell)
        else:
            terms.append(math.log(1.0 - q) + _log_frechet_laplace(spec, ell))
    return min(float(logsumexp(terms)), 0.0)


def _heavy_g_deficit(spec: PotentialSpec, ell: float) -> float:
    """E[1 - e^{-W/ell}] over the heavy branch.

    Integrated in v = log W coordinates, where the exp-Pareto density is
    exponential and the log-log density a pure power, so the slowly decaying
    tails pose no trouble for adaptive quadrature.
    """
    lt = spec.lower
    if lt.variant == "bounded":
        if lt.wmax == 0.0:
            return 0.0
        # closed form for uniform W on [0, wmax]
        return 1.0 + ell * math.expm1(-lt.wmax / ell) / lt.wmax
    if lt.variant == "pareto":
        z = lt.zeta
        v_lo = 0.0
        dens = lambda v: z * math.exp(-z * v)
    else:
        th = lt.theta
        c = th * math.log(lt.x0) ** th
        v_lo = math.log(lt.x0)
        dens = lambda v: c * v ** (-1.0 - th)

    log_ell = math.log(ell)

    def f(v):
        # W/ell = e^(v - log ell), capped where 1 - e^{-W/ell} is already 1
        return -math.expm1(-math.exp(min(v - log_ell, 700.0))) * dens(v)

    split = max(math.log(max(ell, 1.0)) + 1.0, v_lo + 1.0)
    return _quad(f, v_lo, split) + _quad(f, split, math.inf)


def _light_g_deficit(spec: PotentialSpec, ell: float) -> float:
    """E[1 - (-xi v 1)^{-1/ell}] over the light branch."""
    if spec.gamma == 0.0:
        return 0.0  # light values in {0, -1} have -xi v 1 = 1
    a, d = spec.frechet_a, spec.frechet_d

    # V > 1 corresponds to y = D x^{-a} < D
    def f(y):
        logv = math.log(d / y) / a
        return -math.expm1(-logv / ell) * math.exp(-y)

    return _quad(f, 0.0, d)


def cumulant_G(spec: PotentialSpec, ell: float) -> float:
    """G(ell) = -log < (-xi(0) v 1)^{-1/ell} >; positive and decreasing."""
    if ell <= 0:
        raise ValueError(f"ell must be > 0, got {ell}")
    j = spec.mix_q * _heavy_g_deficit(spec, ell) + (1.0 - spec.mix_q) * _light_g_deficit(spec, ell)
    if 1.0 - j < _QUAD_RTOL:
        raise ArithmeticError(f"G({ell:g}): 1 - <(-xi v 1)^(-1/ell)> is below "
                              f"the quadrature tolerance {_QUAD_RTOL:g}")
    return -math.log1p(-j)


def g_tilde(spec: PotentialSpec, eta: float, ell: float) -> float:
    """Regularized minorant G~_eta of G^eta used by the macrobox scale.

    Family-specific: exp-Pareto uses ell^{-eta zeta} exactly; the log-log
    family uses G(ell) [log log (ell v e^e)]^{1+theta'} with theta' =
    THETA_PRIME.  The bounded control case has all log-moments finite and is
    rejected.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must be in (0,1), got {eta}")
    if ell <= 0:
        raise ValueError(f"ell must be > 0, got {ell}")
    lt = spec.lower
    if lt.variant == "bounded":
        raise ValueError("g_tilde undefined: bounded lower tail has finite log-moments")
    if lt.variant == "pareto":
        return ell ** (-eta * lt.zeta)
    # log-log family; the argument clamp keeps the factor >= 1 and monotone
    factor = math.log(math.log(max(ell, math.exp(math.e)))) ** (1.0 + THETA_PRIME)
    return cumulant_G(spec, ell) * factor


def _invert_scale(scale, name: str, y: float) -> float:
    """ell with scale(ell) = y for a positive, decreasing tail scale.

    Brent's method on a x4 bracket grown from [1, 2].  A y above the scale's
    range is a ValueError; a root beyond ell = _ELL_MAX is an ArithmeticError.
    """
    from scipy.optimize import brentq

    if y <= 0:
        raise ValueError(f"y must be > 0, got {y}")
    lo, hi = 1.0, 2.0
    while scale(hi) > y:
        lo, hi = hi, hi * 4.0
        if hi > _ELL_MAX:
            raise ArithmeticError(
                f"{name}^-1({y}) needs ell > 1e300, beyond the double range")
    while scale(lo) < y:
        hi, lo = lo, lo / 4.0
        if lo < 1.0 / _ELL_MAX:
            raise ValueError(f"y = {y} above the range of {name}")
    ell = brentq(lambda l: scale(l) - y, lo, hi, rtol=1e-15)
    if abs(scale(ell) - y) > 1e-9 * y:
        raise ArithmeticError(f"{name}^-1 tolerance not met at y = {y}")
    return ell


def invert_G(spec: PotentialSpec, y: float) -> float:
    """ell with G(ell) = y."""
    return _invert_scale(lambda l: cumulant_G(spec, l), "G", y)


def g_tilde_inverse(spec: PotentialSpec, eta: float, y: float) -> float:
    """ell with G~_eta(ell) = y, in closed form for exp-Pareto."""
    if y <= 0:
        raise ValueError(f"y must be > 0, got {y}")
    lt = spec.lower
    if lt.variant == "pareto":
        return y ** (-1.0 / (eta * lt.zeta))
    return _invert_scale(lambda l: g_tilde(spec, eta, l), "G~", y)


def log_moment(spec: PotentialSpec, delta: float) -> float:
    """< (log(-xi(0) v 1))^delta >; +inf when the integral diverges."""
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    lt = spec.lower
    if lt.variant == "pareto" and delta >= lt.zeta:
        return math.inf
    if lt.variant == "loglog":
        return math.inf  # w^{delta-1}/log^{1+theta} w is non-integrable for delta > 0
    # heavy branch in closed form: W uniform on [0, wmax], or
    # zeta w^{-zeta-1} on [1, inf) with delta < zeta
    if lt.variant == "bounded":
        heavy = lt.wmax ** delta / (delta + 1.0)
    else:
        heavy = lt.zeta / (lt.zeta - delta)
    light = 0.0
    if spec.mix_q < 1.0 and spec.gamma > 0.0:
        a, d = spec.frechet_a, spec.frechet_d
        light = _quad(lambda y: (math.log(d / y) / a) ** delta * math.exp(-y), 0.0, d)
    return spec.mix_q * heavy + (1.0 - spec.mix_q) * light


def canonical_A(spec: PotentialSpec) -> float:
    """Coefficient A in the scaled cumulant limit, canonical alpha_t = t^nu.

    A = lim (alpha_t^3 / t)(-H(t / alpha_t)) is set by the light branch: the
    heavy branch and log(1-q) vanish under the alpha_t^3 / t scaling.  For
    the atom-at-zero family A = -log((1-q) p); for V Frechet(a, D), Laplace's
    method on E e^{-ell V} gives H(ell) ~ -(1/gamma)(a D)^{1-gamma} ell^gamma.
    Without a light branch (mix_q = 1) A is infinite, a ValueError.
    """
    if spec.mix_q == 1.0:
        raise ValueError("canonical A is infinite without a light branch (mix_q = 1)")
    if spec.gamma == 0.0:
        return -math.log((1.0 - spec.mix_q) * spec.atom_p)
    gamma = spec.gamma
    return (spec.frechet_a * spec.frechet_d) ** (1.0 - gamma) / gamma
