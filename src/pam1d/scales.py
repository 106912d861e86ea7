"""Deterministic scale functions of the almost-sure asymptotics.

Under the canonical gauge ``alpha_t = t^nu`` with ``nu = (1-gamma)/(3-gamma)``
the implicit time scale ``b_t`` defined by ``b_t / alpha(b_t)^2 = -log G(t)``
collapses to the closed form ``(-log G(t))^{1/(1-2 nu)}``.

Note on the exponent ``beta = 2 nu / (1 - 2 nu)``: direct algebra from the
canonical ``nu`` gives ``beta = 2(1-gamma)/(1+gamma)``.  A second printed form
``2(1-gamma)/(1-3gamma)`` circulates in the literature; the two agree at
``gamma = 0`` only, and we use ``2 nu/(1-2 nu)`` throughout (the other form
appears to carry a sign typo in the denominator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .potential import PotentialSpec, cumulant_G, g_tilde, invert_G

__all__ = [
    "ScaleParams",
    "alpha",
    "b_scale",
    "b_star",
    "r_box",
    "gamma_box",
    "invert_G",
]

_INV_E = math.exp(-1.0)  # b_t needs G(t) < 1/e, i.e. -log G(t) > 1


@dataclass(frozen=True)
class ScaleParams:
    nu: float
    beta: float

    @staticmethod
    def from_spec(spec: PotentialSpec) -> "ScaleParams":
        nu = spec.nu
        return ScaleParams(nu=nu, beta=2.0 * nu / (1.0 - 2.0 * nu))


def alpha(params: ScaleParams, t: float) -> float:
    """Canonical spatial scale t^nu."""
    if t <= 0:
        raise ValueError(f"t must be > 0, got {t}")
    return t ** params.nu


def b_scale(spec: PotentialSpec, params: ScaleParams, t: float) -> float:
    """Time scale b_t solving b / alpha(b)^2 = -log G(t)."""
    g = cumulant_G(spec, t)
    if g >= _INV_E:
        raise ValueError(f"t = {t} too small: G(t) = {g} >= 1/e")
    target = -math.log(g)
    b = target ** (1.0 / (1.0 - 2.0 * params.nu))
    ident = b / alpha(params, b) ** 2
    if abs(ident - target) > 1e-10 * abs(target):
        raise ArithmeticError(f"scale identity violated: {ident} vs {target}")
    return b


def b_star(params: ScaleParams, t: float) -> float:
    """Reference scale b*_t with b* / alpha(b*)^2 = log t (light-tail gauge)."""
    if t <= math.e:
        raise ValueError(f"t must be > e, got {t}")
    return math.log(t) ** (1.0 / (1.0 - 2.0 * params.nu))


def r_box(spec: PotentialSpec, t: float) -> int:
    """Macrobox radius ceil(-3 log G(t) / G(t))."""
    g = cumulant_G(spec, t)
    if g >= 1.0:
        raise ValueError(f"t = {t} too small: G(t) = {g} >= 1")
    return math.ceil(-3.0 * math.log(g) / g)


def gamma_box(
    spec: PotentialSpec,
    params: ScaleParams,
    eta: float,
    rho: float,
    t: float,
) -> float:
    """Macrobox radius rho / G~_eta(t alpha(b_t)^{-3}) for the lower bound.

    Monotonization in t (running max) is applied at the table level by
    callers that evaluate a grid.
    """
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    b = b_scale(spec, params, t)
    ell = t / alpha(params, b) ** 3
    return rho / g_tilde(spec, eta, ell)
