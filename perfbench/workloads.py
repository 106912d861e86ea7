"""The benchmark's three workloads.

Each workload class is built in set-up (spec and config construction,
``ScaleParams.from_spec``, first-call warm-up), computes its inputs and
oracle values in ``prepare`` (untimed), runs one timed pass in ``run_pass``
and judges a pass's outputs in ``check``.  A pass returns
{item id: output tuple or Raised}; every item is checked on its own.
"""

from __future__ import annotations

import math
import sys
import traceback
from dataclasses import dataclass

import numpy as np

from pam1d import experiments, lattice, montecarlo, scales, variational
from pam1d.potential import LowerTailSpec, PotentialSpec, sample_field

import oracles

KAPPA = 1.0


@dataclass(frozen=True)
class Raised:
    """An item whose call raised; counted as a failed operation."""
    error: str


@dataclass(frozen=True)
class Item:
    id: str
    ok: bool
    raised: bool = False
    # statistical checks (the FK 4-sigma test) may miss by chance
    statistical: bool = False


def _raised() -> Raised:
    text = traceback.format_exc()
    print(text, file=sys.stderr)
    return Raised(text.strip().splitlines()[-1])


def _spec(gamma: float, atom_p: float = 0.5) -> PotentialSpec:
    lower = LowerTailSpec.pareto(1.0)
    if gamma == 0.0:
        return PotentialSpec(gamma=0.0, mix_q=0.2, lower=lower, atom_p=atom_p)
    return PotentialSpec(gamma=gamma, mix_q=0.2, lower=lower, frechet_d=1.0)


class RateSweep:
    """``experiments.rate_curve`` at the ``pam1d rate`` defaults: 100 rows.

    The fields are always seeds 0..19, as in the headline experiment, and the
    workload seed is not used: the pass's cost depends strongly on the
    fields (6.4 s to 21.7 s of CPU across five sets of 20 field seeds), so
    seed-dependent fields would make its time vary more than any bound.
    """

    name = "rate_sweep"
    T_VALUES = np.geomspace(1e2, 1e4, 5)
    SEEDS = tuple(range(20))
    RTOL = 1e-4
    SPEC = _spec(0.0, atom_p=0.625)
    # rows reported as converged below their certified lower bound
    KNOWN_DEFECTS = frozenset(
        [f"t=3162.28,seed={s}" for s in (6, 10, 19)]
        + [f"t=10000,seed={s}" for s in (1, 3, 6, 10, 11, 19)])

    def __init__(self, seed: int):
        self.cfg = experiments.ExperimentConfig(
            spec=self.SPEC, kappa=KAPPA, seeds=self.SEEDS, rtol=self.RTOL)
        params = scales.ScaleParams.from_spec(self.SPEC)
        scales.b_scale(self.SPEC, params, float(self.T_VALUES[0]))
        lattice.solve_adaptive(self.SPEC, 0, 1.0, self.RTOL, kappa=KAPPA, r_cap=16)
        self.bounds: dict = {}

    @staticmethod
    def item_id(t: float, seed: int) -> str:
        return f"t={t:.6g},seed={seed}"

    def prepare(self) -> None:
        self.bounds = oracles.screening_table(self.SPEC, self.SEEDS,
                                              self.T_VALUES, KAPPA)

    def run_pass(self) -> dict:
        keys = [self.item_id(t, s) for t in self.T_VALUES for s in self.SEEDS]
        try:
            c = experiments.rate_curve(self.cfg, self.T_VALUES)
        except Exception:
            err = _raised()
            return dict.fromkeys(keys, err)
        return {self.item_id(c.t[i], int(c.seed[i])):
                (float(c.log_u[i]), bool(c.converged[i]))
                for i in range(len(c.t))}

    def check(self, out: dict) -> list:
        items = []
        for t in self.T_VALUES:
            for s in self.SEEDS:
                key = self.item_id(t, s)
                res = out.get(key, Raised("row missing"))
                if isinstance(res, Raised):
                    items.append(Item(key, False, raised=True))
                    continue
                log_u, converged = res
                bound = self.bounds[(float(t), s)]
                ok = converged and math.isfinite(log_u) and bound <= log_u <= 0.0
                items.append(Item(key, ok))
        return items

    def accuracy(self, out: dict) -> dict:
        return {}


class FkCheck:
    """Feynman-Kac estimates and screening bounds on small boxes.

    Instances are those of acceptance criteria 2 and 8: fixed fields, so the
    time and the relative standard error do not depend on which fields a
    seed draws.  The workload seed offsets every Monte Carlo path seed.
    """

    name = "fk_check"
    KNOWN_DEFECTS = frozenset()
    FK_INSTANCES, FK_FIRST_SEED, FK_BOX, FK_T, FK_PATHS = 20, 2000, 10, 3.0, 100_000
    FK_MIN_EXACT = 1e-5  # below this, 1e5 paths cannot resolve the value
    SCREEN_N, SCREEN_FIRST_SEED, SCREEN_HALF = 100, 3000, 60
    SCREEN_SEARCH, SCREEN_R = 40, 5

    def __init__(self, seed: int):
        self.path_offset = 1000 * seed
        fld = sample_field(_spec(0.0), -8, 8, 0)
        montecarlo.fk_estimate(fld, KAPPA, 1.0, 1000, 0, box=5)
        montecarlo.best_screening_bound(fld, KAPPA, 2.0, 4, 2)
        self.fk_inputs: list = []
        self.screen_inputs: list = []

    def prepare(self) -> None:
        seed = self.FK_FIRST_SEED
        while len(self.fk_inputs) < self.FK_INSTANCES:
            fld = sample_field(_spec(0.0 if seed % 2 else 0.5),
                               -self.FK_BOX, self.FK_BOX, seed)
            exact = float(lattice.solve_box(fld, 0, self.FK_BOX, KAPPA,
                                            self.FK_T)[self.FK_BOX])
            if exact >= self.FK_MIN_EXACT:
                self.fk_inputs.append((seed, fld, exact))
            seed += 1
        for i in range(self.SCREEN_N):
            seed = self.SCREEN_FIRST_SEED + i
            fld = sample_field(_spec(0.0 if i % 2 else 0.5),
                               -self.SCREEN_HALF, self.SCREEN_HALF, seed)
            t = float(2 + i % 8)
            exact = lattice.solve_point_log(fld, 0, self.SCREEN_HALF, KAPPA, t).log_u
            self.screen_inputs.append((seed, fld, t, exact))

    def run_pass(self) -> dict:
        out = {}
        for seed, fld, _ in self.fk_inputs:
            try:
                r = montecarlo.fk_estimate(fld, KAPPA, self.FK_T, self.FK_PATHS,
                                           seed + self.path_offset, box=self.FK_BOX)
                out[f"fk,seed={seed}"] = (r.estimate, r.stderr)
            except Exception:
                out[f"fk,seed={seed}"] = _raised()
        for seed, fld, t, _ in self.screen_inputs:
            try:
                lb, _ = montecarlo.best_screening_bound(
                    fld, KAPPA, t, self.SCREEN_SEARCH, self.SCREEN_R)
                out[f"screen,seed={seed}"] = (lb,)
            except Exception:  # ValueError too: centre 0 is always feasible
                out[f"screen,seed={seed}"] = _raised()
        return out

    def check(self, out: dict) -> list:
        items = []
        for seed, _, exact in self.fk_inputs:
            key = f"fk,seed={seed}"
            res = out[key]
            if isinstance(res, Raised):
                items.append(Item(key, False, raised=True, statistical=True))
            else:
                items.append(Item(key, oracles.fk_agrees(res[0], res[1], exact),
                                  statistical=True))
        for seed, _, _, exact in self.screen_inputs:
            key = f"screen,seed={seed}"
            res = out[key]
            if isinstance(res, Raised):
                items.append(Item(key, False, raised=True))
            else:
                items.append(Item(key, bool(res[0] <= exact + 1e-9)))
        return items

    def accuracy(self, out: dict) -> dict:
        rel = []
        for seed, _, _ in self.fk_inputs:
            res = out[f"fk,seed={seed}"]
            if not isinstance(res, Raised) and res[0] > 0:
                rel.append(res[1] / res[0])
        return {"fk_rel_stderr": float(np.median(rel))} if rel else {}


class ChiScan:
    """``variational.chi_tilde`` at A = ln 2, kappa = 1 against the closed form.

    The problem has no random input, so the workload seed is not used.
    """

    name = "chi_scan"
    A = math.log(2.0)
    GAMMAS = (0.0, 0.1, 0.25, 0.5)
    CHI_RTOL = 1e-3
    # errors below this are reported as this, so that roundoff-level changes
    # of an exact chi_tilde do not read as relative regressions
    CHI_ERR_FLOOR = 1e-9
    # gamma = 0.1: chi_tilde is 3.0 % high; gamma = 0.25: iteration cap hit
    KNOWN_DEFECTS = frozenset({"gamma=0.1", "gamma=0.25"})

    def __init__(self, seed: int):
        self.cfgs = [variational.VariationalConfig(A=self.A, gamma=g, kappa=KAPPA)
                     for g in self.GAMMAS]
        variational.chi_tilde(self.cfgs[0])
        self.exact: dict = {}

    def prepare(self) -> None:
        self.exact = {f"gamma={g}": oracles.chi_exact(self.A, g, KAPPA)
                      for g in self.GAMMAS}

    def run_pass(self) -> dict:
        out = {}
        for cfg in self.cfgs:
            try:
                r = variational.chi_tilde(cfg)
                out[f"gamma={cfg.gamma}"] = (r.chi, r.iterations)
            except Exception:
                out[f"gamma={cfg.gamma}"] = _raised()
        return out

    def rel_err(self, key: str, chi: float) -> float:
        return abs(chi / self.exact[key] - 1.0)

    def check(self, out: dict) -> list:
        items = []
        for cfg in self.cfgs:
            key = f"gamma={cfg.gamma}"
            res = out[key]
            if isinstance(res, Raised):
                items.append(Item(key, False, raised=True))
                continue
            chi, iterations = res
            ok = (iterations < cfg.max_iter and math.isfinite(chi)
                  and self.rel_err(key, chi) <= self.CHI_RTOL)
            items.append(Item(key, ok))
        return items

    def accuracy(self, out: dict) -> dict:
        errs = [self.rel_err(k, res[0]) for k, res in out.items()
                if not isinstance(res, Raised)]
        if not errs:
            return {}
        return {"chi_rel_err_max": max(max(errs), self.CHI_ERR_FLOOR)}


WORKLOADS = {w.name: w for w in (RateSweep, FkCheck, ChiScan)}
