"""Command-line interface: ``pam1d <subcommand> [flags]``.

Subcommands cover field inspection (``field``), cumulants (``h``, ``g``),
deterministic scales (``scales``), spectral and point solves (``eigen``,
``solve``), Monte Carlo and the screening bound (``fk``, ``lbound``), the
variational layer (``legendre``, ``chi``), and the experiment battery
(``rate``, ``verify-h``, ``verify-lln``, ``verify-last``,
``verify-microbox``).

Exit codes: 0 on success, 2 on configuration errors (bad flags, unknown
subcommand, malformed spec), 3 on numerical failures.  Outputs are CSV
(RFC 4180, '.'-decimal, 17 significant digits) or JSON (UTF-8, stable key
order); a leading timestamp line is emitted unless --deterministic is set.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import io
import json
import math
import sys

import numpy as np

from .montecarlo import best_screening_bound, fk_estimate, jump_budget
from .lattice import hamiltonian, principal_eigpair, solve_adaptive
from .potential import (PotentialSpec, cumulant_G, cumulant_H,
                        sample_field, spec_from_json)
from .scales import ScaleParams, alpha, b_scale, b_star, gamma_box, r_box
from .variational import (ShapeFunction, VariationalConfig, brute_legendre,
                          chi_tilde, legendre_L)
from . import experiments

__all__ = ["main"]

CONFIG_ERROR = 2
NUMERICAL_ERROR = 3


class ConfigError(ValueError):
    """A bad argument or input file; exits CONFIG_ERROR like any ValueError."""


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _parse_grid(text: str) -> np.ndarray:
    """Parse 'lo:hi:geometric:n' (or ':linear:') into a grid of n points."""
    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigError(
            f"grid must be lo:hi:{{geometric|linear}}:n, got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    kind = parts[2]
    n = int(parts[3])
    if not (math.isfinite(lo) and math.isfinite(hi)) or n < 1 or hi < lo:
        raise ConfigError(f"bad grid bounds/count in {text!r}")
    if kind == "geometric":
        if lo <= 0:
            raise ConfigError("geometric grid needs lo > 0")
        return np.geomspace(lo, hi, n)
    if kind == "linear":
        return np.linspace(lo, hi, n)
    raise ConfigError(f"grid kind must be geometric or linear, got {kind!r}")


def _load_spec(args) -> PotentialSpec:
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            return spec_from_json(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read --spec file: {exc}") from exc
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad spec JSON: {exc}") from exc


def _load_psi(args) -> ShapeFunction:
    """Profile from --psi JSON ({"R":..,"values":[..]}) or --R/--depth."""
    if getattr(args, "psi", None):
        try:
            with open(args.psi, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
            return ShapeFunction(R=float(obj["R"]),
                                 values=np.asarray(obj["values"], float))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"bad --psi file: {exc}") from exc
    if args.R is None:
        raise ConfigError("either --psi or --R (with --depth) is required")
    return ShapeFunction(R=float(args.R),
                         values=np.full(args.n_nodes, -abs(args.depth)))


def _emit(args, text: str) -> None:
    header = ""
    if not args.deterministic:
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        header = f"# generated {stamp}\n"
    payload = header + text
    if not payload.endswith("\n"):
        payload += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _emit_csv(args, header: list[str], rows) -> None:
    buf = io.StringIO()
    buf.write(",".join(header) + "\r\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\r\n")
    _emit(args, buf.getvalue())


def _emit_json(args, obj: dict) -> None:
    _emit(args, json.dumps(obj, indent=2))


def _rows_to_json(header: list[str], rows) -> dict:
    cols = list(zip(*rows)) if rows else [[] for _ in header]
    out = {}
    for name, col in zip(header, cols):
        out[name] = [v if v is None or isinstance(v, str) else
                     bool(v) if isinstance(v, (bool, np.bool_)) else
                     int(v) if isinstance(v, (int, np.integer)) else float(v)
                     for v in col]
    return out


def _emit_table(args, header: list[str], rows) -> None:
    if args.format == "json":
        _emit_json(args, _rows_to_json(header, rows))
    else:
        _emit_csv(args, header, rows)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_field(args) -> None:
    spec = _load_spec(args)
    fld = sample_field(spec, args.lo, args.hi, args.seed)
    lo, hi = fld.lo, fld.hi
    rows = zip(range(lo, hi + 1), fld.xi(lo, hi), fld.log_neg_or1(lo, hi))
    _emit_table(args, ["x", "xi", "log_neg_or1"], list(rows))


def _cmd_cumulant(args) -> None:
    spec = _load_spec(args)
    grid = _parse_grid(args.l_grid)
    rows = [(l, args.cumulant(spec, float(l))) for l in grid]
    _emit_table(args, ["l", args.column], rows)


def _cmd_scales(args) -> None:
    spec = _load_spec(args)
    params = ScaleParams.from_spec(spec)
    grid = _parse_grid(args.t_grid)
    rows = []
    # gamma_t needs G~, which a lower tail with finite log-moments lacks
    gamma_t = -math.inf if spec.lower.has_infinite_log_moment() else None
    for t in grid:
        t = float(t)
        g = cumulant_G(spec, t)
        b = b_scale(spec, params, t)
        if gamma_t is not None:
            gamma_t = max(gamma_t,
                          gamma_box(spec, params, args.eta, args.rho, t))
        rows.append((t, g, alpha(params, b) ** 2, b, b_star(params, t),
                     r_box(spec, t), gamma_t))
    _emit_table(args, ["t", "G", "alpha_bt_sq", "b_t", "b_star", "r_t",
                       "gamma_t"], rows)


def _cmd_eigen(args) -> None:
    spec = _load_spec(args)
    fld = sample_field(spec, args.z - args.radius, args.z + args.radius,
                       args.seed)
    op = hamiltonian(fld, args.z, args.radius, args.kappa)
    pe = principal_eigpair(op)
    _emit_json(args, {
        "lambda": float(pe.principal),
        "log_e_center": float(pe.log_eigvec[args.radius]),
        "residual": float(pe.residual),
        "R": args.radius,
        "z": args.z,
    })


def _cmd_solve(args) -> None:
    spec = _load_spec(args)
    res = solve_adaptive(spec, args.seed, args.t, args.rtol, kappa=args.kappa,
                         r_cap=args.r_cap)
    if not res.converged:
        raise ArithmeticError(
            f"adaptive solve failed to converge (R cap reached at R={res.R})")
    _emit_json(args, {
        "log_u": float(res.log_u),
        "R": int(res.R),
        "lambda": float(res.principal),
        "clamped_sites": int(res.clamped_sites),
        "modes_used": int(res.modes_used),
    })


def _cmd_fk(args) -> None:
    spec = _load_spec(args)
    # fk_estimate itself rejects a negative box
    half = (jump_budget(args.kappa, args.t) if args.box is None
            else max(args.box, 0))
    fld = sample_field(spec, -half, half, args.seed)
    res = fk_estimate(fld, args.kappa, args.t, args.samples, args.seed,
                      box=args.box)
    _emit_json(args, {
        "mean": float(res.estimate),
        "stderr": float(res.stderr),
        "exit_fraction": float(res.exit_fraction),
    })


def _cmd_lbound(args) -> None:
    spec = _load_spec(args)
    search = args.search if args.search is not None else 20 * args.radius
    fld = sample_field(spec, -(search + args.radius), search + args.radius,
                       args.seed)
    log_lb, y_star = best_screening_bound(fld, args.kappa, args.t, search,
                                          args.radius)
    _emit_json(args, {"log_lb": float(log_lb), "y_star": int(y_star)})


def _cmd_legendre(args) -> None:
    psi = _load_psi(args)
    val = legendre_L(psi, args.A, args.gamma)
    out = {"legendre_l": float(val)}
    if args.brute:
        out["brute_legendre"] = float(brute_legendre(psi, args.A, args.gamma))
    _emit_json(args, out)


def _cmd_chi(args) -> None:
    cfg = VariationalConfig(A=args.A, gamma=args.gamma, kappa=args.kappa)
    res = chi_tilde(cfg)
    flags = ["analytic-interval"] if args.gamma == 0.0 else ["kkt-fixed-point"]
    _emit_json(args, {
        "chi_tilde": float(res.chi),
        "R_star": float(res.R),
        "psi_grid": [float(v) for v in res.psi.values],
        "constraint_value": float(res.budget),
        "flags": flags,
    })


def _cmd_rate(args) -> None:
    spec = _load_spec(args)
    cfg = experiments.ExperimentConfig(
        spec=spec, kappa=args.kappa, seeds=tuple(range(args.seeds)),
        rtol=args.rtol)
    curve = experiments.rate_curve(cfg, _parse_grid(args.t_grid))
    header = [f.name for f in dataclasses.fields(curve)]
    _emit_table(args, header, list(zip(*(getattr(curve, h) for h in header))))


def _cmd_verify_h(args) -> None:
    spec = _load_spec(args)
    res = experiments.check_assumption_H(spec, _parse_grid(args.t_grid))
    rows = list(zip(res["t"], res["deviation"]))
    _emit_table(args, ["t", "deviation"], rows)


def _cmd_verify_lln(args) -> None:
    spec = _load_spec(args)
    n_values = [int(n) for n in _parse_grid(args.n_grid)]
    tab = experiments.check_lln(spec, args.b, n_values, range(args.seeds))
    med = np.median(tab["stats"], axis=0)
    rows = [(int(tab["n"][j]), med[j], tab["frac_gt_1"][j],
             tab["frac_gt_10"][j]) for j in range(len(n_values))]
    _emit_table(args, ["n", "median", "frac_gt_1", "frac_gt_10"], rows)


def _cmd_verify_last(args) -> None:
    spec = _load_spec(args)
    n_values = [int(n) for n in _parse_grid(args.n_grid)]
    tab, rho = experiments.check_last(spec, args.eta, n_values,
                                      range(args.seeds))
    med = np.median(tab["stats"], axis=0)
    rows = [(int(tab["n"][j]), med[j], tab["frac_le_1p2"][j], rho)
            for j in range(len(n_values))]
    _emit_table(args, ["n", "median", "frac_le_1p2", "rho"], rows)


def _cmd_verify_microbox(args) -> None:
    spec = _load_spec(args)
    psi = _load_psi(args)
    if args.t_grid is None:
        t_values = experiments.t_grid(spec, 8, 10)
    else:
        t_values = _parse_grid(args.t_grid)
    freqs = experiments.check_microbox(spec, psi, args.eps, args.eta,
                                       t_values, range(args.seeds))
    rows = list(zip(t_values, freqs))
    _emit_table(args, ["t", "frequency"], rows)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(CONFIG_ERROR, f"{self.prog}: error: {message}\n")


def _finite_float(text: str) -> float:
    """argparse type of every float flag: NaN and +-inf exit 2 at parsing."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return x


def _add_common(p: argparse.ArgumentParser, table: bool,
                field: bool = True) -> None:
    """Shared flags: --spec (required) and --seed where the subcommand reads
    a spec, and --format (csv by default) where it prints a table, not JSON."""
    if field:
        p.add_argument("--spec", required=True,
                       help="path to the potential spec JSON")
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (default: stdout)")
    if table:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--deterministic", action="store_true",
                   help="suppress the timestamp header line")


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser, and the subcommand parsers by name."""
    parser = _Parser(prog="pam1d", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("field", help="print one field realization")
    _add_common(p, table=True)
    p.add_argument("--lo", type=int, default=-50)
    p.add_argument("--hi", type=int, default=50)
    p.set_defaults(func=_cmd_field)

    for col, fn, hlp in (("H", cumulant_H, "upper-tail cumulant H"),
                         ("G", cumulant_G, "lower-tail scale G")):
        p = sub.add_parser(col.lower(), help=hlp)
        _add_common(p, table=True)
        p.add_argument("--l-grid", default="1:1e6:geometric:13")
        p.set_defaults(func=_cmd_cumulant, cumulant=fn, column=col)

    p = sub.add_parser("scales", help="deterministic scale table")
    _add_common(p, table=True)
    p.add_argument("--t-grid", default="1e3:1e12:geometric:16")
    p.add_argument("--eta", type=_finite_float, default=0.8)
    p.add_argument("--rho", type=_finite_float, default=1.0)
    p.set_defaults(func=_cmd_scales)

    p = sub.add_parser("eigen", help="principal Dirichlet eigenpair of a box")
    _add_common(p, table=False)
    p.add_argument("--z", type=int, default=0)
    p.add_argument("--radius", type=int, default=50)
    p.add_argument("--kappa", type=_finite_float, default=1.0)
    p.set_defaults(func=_cmd_eigen)

    p = sub.add_parser("solve", help="adaptive point solve of u(t, 0)")
    _add_common(p, table=False)
    p.add_argument("--t", type=_finite_float, required=True)
    p.add_argument("--rtol", type=_finite_float, default=1e-8)
    p.add_argument("--kappa", type=_finite_float, default=1.0)
    p.add_argument("--r-cap", type=int, default=1 << 14,
                   help="largest box radius the adaptive solver may use")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("fk", help="Feynman-Kac Monte Carlo estimate")
    _add_common(p, table=False)
    p.add_argument("--t", type=_finite_float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--box", type=int, default=None)
    p.add_argument("--kappa", type=_finite_float, default=1.0)
    p.set_defaults(func=_cmd_fk)

    p = sub.add_parser("lbound", help="best screening lower bound")
    _add_common(p, table=False)
    p.add_argument("--t", type=_finite_float, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--search", type=int, default=None)
    p.add_argument("--kappa", type=_finite_float, default=1.0)
    p.set_defaults(func=_cmd_lbound)

    p = sub.add_parser("legendre", help="Legendre budget of a profile")
    _add_common(p, table=False, field=False)
    p.add_argument("--gamma", type=_finite_float, required=True)
    p.add_argument("--A", type=_finite_float, required=True)
    p.add_argument("--psi", help="profile JSON {R, values}")
    p.add_argument("--R", type=_finite_float, default=None)
    p.add_argument("--depth", type=_finite_float, default=1.0)
    p.add_argument("--n-nodes", type=int, default=101)
    p.add_argument("--brute", action="store_true",
                   help="also report the per-node numeric transform")
    p.set_defaults(func=_cmd_legendre)

    p = sub.add_parser("chi", help="variational decay constant chi")
    _add_common(p, table=False, field=False)
    p.add_argument("--gamma", type=_finite_float, required=True)
    p.add_argument("--A", type=_finite_float, required=True)
    p.add_argument("--kappa", type=_finite_float, default=1.0)
    p.set_defaults(func=_cmd_chi)

    p = sub.add_parser("rate", help="decay-rate curve rho(t) per seed")
    _add_common(p, table=True)
    p.add_argument("--t-grid", default="1e2:1e4:geometric:5")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--rtol", type=_finite_float, default=1e-4)
    p.add_argument("--kappa", type=_finite_float, default=1.0)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("verify-h", help="rescaled cumulant collapse check")
    _add_common(p, table=True)
    p.add_argument("--t-grid", default="1e4:1e8:geometric:5")
    p.set_defaults(func=_cmd_verify_h)

    p = sub.add_parser("verify-lln", help="screening-sum divergence check")
    _add_common(p, table=True)
    p.add_argument("--b", type=_finite_float, default=1.0)
    p.add_argument("--n-grid", default="1e2:1e4:geometric:3")
    p.add_argument("--seeds", type=int, default=100)
    p.set_defaults(func=_cmd_verify_lln)

    p = sub.add_parser("verify-last", help="screening-sum upper-bound check")
    _add_common(p, table=True)
    p.add_argument("--eta", type=_finite_float, default=0.8)
    p.add_argument("--n-grid", default="1e2:1e4:geometric:3")
    p.add_argument("--seeds", type=int, default=100)
    p.set_defaults(func=_cmd_verify_last)

    p = sub.add_parser("verify-microbox", help="favourable-microbox frequency")
    _add_common(p, table=True)
    p.add_argument("--psi", help="profile JSON {R, values}")
    p.add_argument("--R", type=_finite_float, default=None)
    p.add_argument("--depth", type=_finite_float, default=0.05)
    p.add_argument("--n-nodes", type=int, default=101)
    p.add_argument("--eps", type=_finite_float, default=0.05)
    p.add_argument("--eta", type=_finite_float, default=0.95)
    p.add_argument("--t-grid", default=None,
                   help="default: the canonical 1/G in {e^n} grid, n in 8..10")
    p.add_argument("--seeds", type=int, default=20)
    p.set_defaults(func=_cmd_verify_microbox)

    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            # reported with the usage line of the command that was given
            commands[args.command].error(
                f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except ValueError as exc:
        print(f"pam1d: error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"pam1d: numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
