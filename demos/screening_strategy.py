"""Tour: the screening strategy and its certified lower bound.

Builds a field of absorbing walls with one clean window planted 50 sites
away, then shows how the explicit travel-and-sit strategy prices the trip:
jump probabilities, potential cost along the way, and the spectral window
factor.  The scan finds the planted window once t is large enough to
amortize the travel cost, and the bound is checked against the exact solver.

Run:  python3 demos/screening_strategy.py
"""

import math

import numpy as np

from pam1d import Field, best_screening_bound, screening_lower_bound, \
    solve_point_log


def planted_field(lo=-80, hi=80, window=range(47, 54)):
    log_neg_xi = np.ones(hi - lo + 1)     # walls: log(-xi) = 1, i.e. xi = -e
    for x in (0, *window):
        log_neg_xi[x - lo] = -np.inf      # free origin and a clean window
    return Field(lo=lo, hi=hi, log_neg_xi=log_neg_xi)


def main():
    fld = planted_field()
    kappa = 1.0
    print("Field: xi = -e walls, xi = 0 at the origin and on [47, 53].\n")

    print("Strategy price at t = 200, window centre y = 50, radius 3:")
    lb_stay = screening_lower_bound(fld, kappa, 200.0, 0, 3)
    lb_go = screening_lower_bound(fld, kappa, 200.0, 50, 3)
    print(f"  sit at the origin:   log LB = {lb_stay:9.2f}")
    print(f"  travel to the window: log LB = {lb_go:9.2f}")
    print("  (crossing ~50 wall sites costs ~1 nat each in potential plus")
    print("   the jump probabilities, but the window's eigenvalue repays it")
    print("   over the remaining time)\n")

    for t in (50.0, 200.0):
        lb, y_star = best_screening_bound(fld, kappa, t, 70, 1)
        exact = solve_point_log(fld, 0, 80, kappa, t).log_u
        verdict = "window" if 47 <= y_star <= 53 else "origin"
        print(f"t = {t:5.0f}: scan picks y* = {y_star:3d} ({verdict}),"
              f"  log LB = {lb:9.2f}  <=  exact log u = {exact:9.2f}")

    print("\nAt t = 50 sitting still wins; at t = 200 the planted window is")
    print("located, and in both cases the bound stays below the exact value")
    print("-- it is a rigorous restriction of the path expectation.")


if __name__ == "__main__":
    main()
