"""Tour: the continuum variational problem behind the decay constant.

For gamma = 0 the optimal profile is an arbitrarily shallow well on an
interval of length 1/A and chi = kappa pi^2 A^2 exactly; for gamma > 0 the
optimizer balances well depth against the Legendre budget, and its optimum
psi*(x) = -gamma chi sec^2(omega x) is explicit too.  This demo prints chi
across gamma next to that closed form and sketches the optimal profile
shapes.

Run:  python3 demos/variational_landscape.py
"""

import math

import numpy as np

from pam1d import VariationalConfig, chi_tilde, legendre_L
from pam1d.variational import _chi_closed


# Shown log10-depth ceiling: deeper nodes are all drawn as wall.
WALL_LOG10 = 12.0


def sketch(psi, width=51):
    """A one-line ASCII log-depth profile of the optimizer.

    The optimizer pairs a shallow central well with essentially infinite
    walls at the box edge (deep values are nearly free under the budget), so
    depth is shown on a log scale to keep the well visible.  The walls
    deepen until the ground state underflows (3e24 at gamma = 0.8, 7e226 at
    gamma = 0.2), so the shown log-depth stops at WALL_LOG10: a wall reads
    '@' and the well keeps its glyphs.
    """
    x = np.linspace(-psi.R, psi.R, width)
    v = psi(x)
    if v.min() == 0.0:
        return "flat (depth -> 0 limit)"
    d = np.minimum(np.log10(np.abs(v) + 1e-12), WALL_LOG10)
    d = (d - d.min()) / max(d.max() - d.min(), 1e-12)
    # rounded, so that mirror nodes a roundoff apart get the same glyph
    d = np.round(d, 9)
    levels = " .:-=+*#%@"
    idx = np.clip((d * (len(levels) - 1)).astype(int), 0, len(levels) - 1)
    return "".join(levels[i] for i in idx)


def main():
    print("gamma = 0 closed case (A = log 2, kappa = 1):")
    res = chi_tilde(VariationalConfig(A=math.log(2.0), gamma=0.0))
    target = math.pi ** 2 * math.log(2.0) ** 2
    print(f"  chi = {res.chi:.6f}   analytic pi^2 (log 2)^2 = {target:.6f}")
    print(f"  optimal interval length 1/A = {1 / math.log(2.0):.4f}\n")

    print("gamma > 0 (A = 1, kappa = 1): damped fixed-point optimization")
    print(f"  {'gamma':>6}  {'chi':>10}  {'closed':>10}  {'rel err':>8}"
          f"  {'R*':>6}  {'budget':>8}  profile")
    for gamma in (0.2, 0.4, 0.6, 0.8):
        cfg = VariationalConfig(A=1.0, gamma=gamma, kappa=1.0, n_grid=201,
                                tol=1e-6)
        res = chi_tilde(cfg)
        exact = _chi_closed(1.0, gamma, 1.0)
        budget = legendre_L(res.psi, 1.0, gamma)
        print(f"  {gamma:>6.1f}  {res.chi:>10.5f}  {exact:>10.5f}"
              f"  {abs(res.chi / exact - 1.0):>8.1e}  {res.R:>6.1f}"
              f"  {budget:>8.4f}  |{sketch(res.psi)}|")

    print("\nchi decreases in gamma: a heavier upper tail supplies deeper")
    print("wells at the same budget, slowing the decay; every optimizer")
    print("saturates the budget constraint at 1.")


if __name__ == "__main__":
    main()
