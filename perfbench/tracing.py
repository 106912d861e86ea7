"""Per-layer timing wrappers for the traced benchmark run.

A wrapper replaces a module attribute through which one pam1d layer calls
another (for example ``pam1d.lattice.eigh_tridiagonal``, which the lattice
solver looks up at call time).  It times the call, adds the time to the
parent span's child time, reads counters from the returned object, and hands
the original result back unchanged.  Nothing in the package is edited:
``installed`` puts every original attribute back when it exits.
"""

from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def _add(counters: dict, key: str, value) -> None:
    counters[key] = counters.get(key, 0) + value


# Counter hooks: each adds to the per-layer metrics it names, from the
# wrapped call's arguments, result or exception.

def _count_solve_adaptive(c, args, kwargs, res, exc):
    if res is not None:
        _add(c, "lattice.solve_adaptive.unconverged", int(not res.converged))


def _count_solve_point_log(c, args, kwargs, res, exc):
    if res is not None:
        _add(c, "lattice.solve_point_log.sites", res.n)
        _add(c, "lattice.solve_point_log.modes", res.modes_used)
        _add(c, "lattice.solve_point_log.sign_fallbacks", int(not res.sign_ok))


def _count_sample_field(c, args, kwargs, res, exc):
    if res is not None:
        _add(c, "potential.sample_field.sites", len(res))


def _count_fk_estimate(c, args, kwargs, res, exc):
    if res is not None:
        _add(c, "montecarlo.fk_estimate.paths", res.n_samples)


def _count_screening(c, args, kwargs, res, exc):
    # an infeasible window centre is reported by ValueError (see
    # pam1d.montecarlo.screening_lower_bound); best_screening_bound skips it
    _add(c, "montecarlo.screening_lower_bound.infeasible",
         int(isinstance(exc, ValueError)))


def _count_optimize_profile(c, args, kwargs, res, exc):
    # chi_tilde runs the KKT iteration for two starts at every radius it
    # tries, and its result reports only the best candidate's iterations
    if res is not None:
        cfg = args[0] if args else kwargs["cfg"]
        its = res[2]
        _add(c, "variational.chi_tilde.iterations", its)
        _add(c, "variational.chi_tilde.maxiter_hits", int(its >= cfg.max_iter))


# (module, attribute, span name, counter hook).  Each attribute is the name
# through which the caller in the same row's module reaches the callee.
WRAPPED = (
    ("pam1d.experiments", "rate_curve", "experiments.rate_curve", None),
    ("pam1d.experiments", "solve_adaptive", "lattice.solve_adaptive",
     _count_solve_adaptive),
    ("pam1d.experiments", "b_scale", "scales.b_scale", None),
    ("pam1d.scales", "cumulant_G", "potential.cumulant_G", None),
    ("pam1d.lattice", "sample_field", "potential.sample_field",
     _count_sample_field),
    ("pam1d.lattice", "solve_point_log", "lattice.solve_point_log",
     _count_solve_point_log),
    ("pam1d.lattice", "eigh_tridiagonal", "lattice.eigh_tridiagonal", None),
    ("pam1d.montecarlo", "fk_estimate", "montecarlo.fk_estimate",
     _count_fk_estimate),
    ("pam1d.montecarlo", "screening_lower_bound",
     "montecarlo.screening_lower_bound", _count_screening),
    ("pam1d.montecarlo", "principal_eigpair", "lattice.principal_eigpair", None),
    ("pam1d.variational", "chi_tilde", "variational.chi_tilde", None),
    ("pam1d.variational", "_optimize_profile", "variational.optimize_profile",
     _count_optimize_profile),
    ("pam1d.variational", "eigh_tridiagonal", "variational.eigh_tridiagonal",
     None),
)


@dataclass
class SpanStats:
    calls: int = 0
    busy: float = 0.0
    child: float = 0.0
    durations: list = field(default_factory=list)


class Tracer:
    """Accumulates calls, busy time and child time per span name, and the
    counters that the hooks add to."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}  # per-layer metric -> total
        self._open: list[float] = []  # child time of each open span

    def call(self, name, fn, hook, args, kwargs):
        st = self.stats.setdefault(name, SpanStats())
        self._open.append(0.0)
        res = exc = None
        t0 = time.perf_counter()
        try:
            res = fn(*args, **kwargs)
            return res
        except Exception as e:
            exc = e
            raise
        finally:
            dt = time.perf_counter() - t0
            child = self._open.pop()
            if self._open:
                self._open[-1] += dt
            st.calls += 1
            st.busy += dt
            st.child += child
            st.durations.append(dt)
            if hook is not None:
                hook(self.counters, args, kwargs, res, exc)

    def metrics(self, layer_metrics, passes: int, overhead_s: float) -> dict:
        """Per-pass values of the (name, unit) pairs in ``layer_metrics``.

        The suffix of a name says how its span's value is derived; any other
        suffix names a counter that a hook adds to.
        """
        out = {}
        for name, unit in layer_metrics:
            span, _, kind = name.rpartition(".")
            st = self.stats.get(span, SpanStats())
            if name == "trace.overhead_s":
                v = overhead_s
            elif kind == "calls":
                v = st.calls / passes
            elif kind == "busy_s":
                v = st.busy / passes
            elif kind == "self_s":
                v = (st.busy - st.child) / passes
            elif kind in ("ms_p50", "ms_p90"):
                v = _percentile(st.durations, 50 if kind == "ms_p50" else 90) * 1e3
            elif kind == "paths_per_s":
                paths = self.counters.get(f"{span}.paths", 0)
                v = paths / st.busy if st.busy > 0 else 0.0
            else:
                v = self.counters.get(name, 0) / passes
            out[name] = {"value": v, "unit": unit}
        return out


def _percentile(xs: list, q: int) -> float:
    if not xs:
        return 0.0
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def _wrapper(tracer: Tracer, name: str, fn, hook):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, hook, args, kwargs)
    traced.__wrapped__ = fn
    return traced


@contextmanager
def installed(tracer: Tracer):
    """Install every WRAPPED wrapper for the duration of the block."""
    saved = []
    try:
        for mod_name, attr, span, hook in WRAPPED:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, _wrapper(tracer, span, original, hook))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
