import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pam1d.cli
from pam1d.cli import main
from pam1d.experiments import (ExperimentConfig, RateCurve, rate_curve,
                               t_grid)
from pam1d.lattice import (hamiltonian, principal_eigpair, solve_box,
                           solve_point_log)
from pam1d.montecarlo import fk_estimate, jump_budget
from pam1d.potential import cumulant_G, sample_field, spec_from_json

from conftest import BAD_SPEC_JSON


ATOM_SPEC = ('{"gamma":0.0,"upper":{"atom_p":0.5},"mix_q":0.2,'
             '"lower":{"pareto_zeta":1.0}}')
LOGLOG_SPEC = ('{"gamma":0.0,"upper":{"atom_p":0.5},"mix_q":0.2,'
               '"lower":{"loglog_theta":1.0}}')
BOUNDED_SPEC = ('{"gamma":0.0,"upper":{"atom_p":0.625},"mix_q":0.2,'
                '"lower":{"bounded_wmax":3.0}}')
# heavy sites at W = 40: walls that screen the centre of a window
WALLED_SPEC = ('{"gamma":0.0,"upper":{"atom_p":0.625},"mix_q":0.9,'
               '"lower":{"bounded_wmax":40.0}}')
# gamma = 1/2: a Frechet light branch and exp-Pareto heavy sites
FRECHET_SPEC = ('{"gamma":0.5,"upper":{"frechet_d":1.0},"mix_q":0.2,'
                '"lower":{"pareto_zeta":1.0}}')


@pytest.fixture
def spec_file(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text(ATOM_SPEC)
    return str(p)


@pytest.fixture
def frechet_file(tmp_path):
    p = tmp_path / "frechet.json"
    p.write_text(FRECHET_SPEC)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "bogus")
        assert code == 2

    def test_missing_spec_names_flag(self, capsys):
        code, _, err = run(capsys, "solve", "--t", "5")
        assert code == 2
        assert "--spec" in err

    def test_bad_spec_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"gamma": 0.0}')
        code, _, err = run(capsys, "solve", "--spec", str(p), "--t", "5")
        assert code == 2

    @pytest.mark.parametrize("text", [text for text, _ in BAD_SPEC_JSON.values()],
                             ids=BAD_SPEC_JSON.keys())
    @pytest.mark.parametrize("command", ["g", "field"])
    def test_malformed_spec_value(self, capsys, tmp_path, command, text):
        # a parameter that is not a finite number is a configuration error,
        # not a traceback, a numerical failure or a table of NaN
        p = tmp_path / "bad.json"
        p.write_text(text)
        code, out, err = run(capsys, command, "--spec", str(p),
                             "--deterministic")
        assert code == 2
        assert "bad spec JSON" in err
        assert out == ""

    def test_bad_grid(self, capsys, spec_file):
        code, _, err = run(capsys, "scales", "--spec", spec_file,
                           "--t-grid", "nope")
        assert code == 2

    @pytest.mark.parametrize("grid", ["nan:10:linear:2", "1:inf:geometric:2"])
    def test_non_finite_grid_bound(self, capsys, spec_file, grid):
        code, _, err = run(capsys, "h", "--spec", spec_file, "--l-grid", grid)
        assert code == 2
        assert "bad grid bounds" in err

    def test_numerical_failure(self, capsys, spec_file):
        # force the adaptive solver cap with an out-of-reach horizon
        code, _, err = run(capsys, "solve", "--spec", spec_file,
                           "--t", "500", "--r-cap", "8")
        assert code == 3
        assert "numerical" in err

    @pytest.mark.parametrize("argv", [
        ("solve", "--t", "5", "--r-cap", "4"),
        ("solve", "--t", "5", "--rtol", "-1"),
        ("rate", "--rtol", "0"),
        ("rate", "--seeds", "0"),
        ("verify-lln", "--seeds", "0"),
        ("verify-last", "--seeds", "0"),
        ("verify-microbox", "--seeds", "0", "--R", "0.5"),
    ], ids=["r-cap-below-start", "negative-rtol", "zero-rtol", "no-seeds",
            "lln-no-seeds", "last-no-seeds", "microbox-no-seeds"])
    def test_bad_solver_settings(self, capsys, spec_file, argv):
        # rejected before any solve: a cap below the first box radius, a
        # tolerance that can never be met, no seeds
        code, _, err = run(capsys, *argv, "--spec", spec_file)
        assert code == 2
        assert "pam1d: error:" in err

    @pytest.mark.parametrize("argv, flag", [
        (("solve", "--spec", "x.json", "--t", "nan"), "--t"),
        (("lbound", "--spec", "x.json", "--t", "nan", "--radius", "2"),
         "--t"),
        (("chi", "--gamma", "0.5", "--A", "1", "--kappa", "nan"), "--kappa"),
        (("eigen", "--spec", "x.json", "--kappa", "nan"), "--kappa"),
    ], ids=["solve-t", "lbound-t", "chi-kappa", "eigen-kappa"])
    def test_non_finite_number_rejected_at_parsing(self, capsys, argv, flag):
        # --spec only where the command takes it; parsing stops at the
        # number, before the spec file is opened
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert f"argument {flag}: expected a finite number, got 'nan'" in err

    @pytest.mark.parametrize("kappa", ["-1", "-0.1", "nan", "0"])
    def test_fk_rejects_bad_kappa(self, capsys, spec_file, kappa):
        code, _, err = run(capsys, "fk", "--spec", spec_file, "--t", "3",
                           "--samples", "10", "--box", "5", "--kappa", kappa)
        assert code == 2
        assert "kappa" in err

    @pytest.mark.parametrize("argv, name", [
        (("fk", "--t", "3", "--samples", "10", "--box", "5", "--kappa", "-1"),
         "kappa"),
        (("verify-lln", "--seeds", "0"), "seeds"),
        (("verify-last", "--seeds", "0"), "seeds"),
        (("verify-microbox", "--seeds", "0", "--R", "0.5"), "seeds"),
        (("verify-last", "--n-grid", "0:100:linear:3"),
         "n values must be >= 1, got [0, 50, 100]"),
    ], ids=["fk-kappa", "lln-no-seeds", "last-no-seeds", "microbox-no-seeds",
            "last-n-below-1"])
    def test_config_error_names_its_setting(self, capsys, frechet_file, argv,
                                            name):
        code, out, err = run(capsys, *argv, "--spec", frechet_file)
        assert code == 2
        assert out == ""
        assert "pam1d: error:" in err and name in err

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        # a write failure is a configuration error that names --out, not a
        # traceback
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "chi", "--gamma", "0", "--A", "1",
                             "--out", str(path))
        assert code == 2
        assert out == ""
        assert "pam1d: error: cannot write --out file" in err
        assert not path.exists()

    @pytest.mark.parametrize("path", ["missing/x.csv", "."],
                             ids=["missing-directory", "a-directory"])
    def test_out_checked_before_the_work(self, capsys, spec_file,
                                         monkeypatch, tmp_path, path):
        # found before rate_curve runs, and the check creates nothing
        calls = []
        monkeypatch.setattr(pam1d.cli.experiments, "rate_curve",
                            lambda *a, **k: calls.append(a))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        code, out, err = run(capsys, "rate", "--spec", spec_file,
                             "--out", path)
        assert code == 2
        assert out == ""
        assert "pam1d: error: cannot write --out file" in err
        assert calls == []
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("command", ["verify-lln", "verify-last"])
    def test_normalizer_beyond_double_range(self, capsys, tmp_path, command):
        # on the log-log spec the normalizers G^{-1}(1/n) and G~^{-1}(rho/n)
        # of the default n grid exceed ell = 1e300; the failure names it
        path = tmp_path / "spec.json"
        path.write_text(LOGLOG_SPEC)
        code, _, err = run(capsys, command, "--spec", str(path),
                           "--seeds", "5", "--deterministic")
        assert code == 3
        assert "1e300" in err

    def test_small_zeta_normalizer_beyond_double_range(self, capsys, tmp_path):
        # at zeta = 0.01 every sampled W is finite, so rho is; the closed form
        # G~^{-1}(rho/n) = (rho/n)^(-1/(eta zeta)) then overflows, and the
        # failure names the limit as the search-based inverse does
        path = tmp_path / "spec.json"
        path.write_text(ATOM_SPEC.replace('"pareto_zeta":1.0',
                                          '"pareto_zeta":0.01'))
        code, _, err = run(capsys, "verify-last", "--spec", str(path),
                           "--seeds", "1", "--deterministic")
        assert code == 3
        assert "G~^-1" in err and "1e300" in err

    def test_fk_estimate_below_double_range_exit_3(self, capsys, spec_file):
        # field and path seed 2001 at t = 30: the largest weight is e^-1830
        # (the exact u is e^-51.7), and so the estimate, below the double
        # range
        code, out, err = run(capsys, "fk", "--spec", spec_file, "--seed",
                             "2001", "--t", "30", "--samples", "100000",
                             "--box", "10", "--deterministic")
        assert code == 3
        assert out == ""
        assert ("pam1d: numerical failure: the Feynman-Kac estimate, "
                "e^-1830.47, is below the smallest normal double") in err

    @pytest.mark.parametrize("argv, flag", [
        (("solve", "--spec", "x.json", "--t", "5", "--format", "csv"),
         "--format csv"),
        (("chi", "--gamma", "0.5", "--A", "1", "--spec", "x.json"),
         "--spec x.json"),
    ], ids=["solve-format", "chi-spec"])
    def test_flag_the_command_does_not_read(self, capsys, argv, flag):
        # JSON-only commands take no --format, chi and legendre no --spec;
        # the command's own parser reports it, with the command's usage
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"usage: pam1d {argv[0]} ")
        assert f"pam1d {argv[0]}: error: unrecognized arguments: {flag}" in err

    def test_success(self, capsys, spec_file):
        code, _, _ = run(capsys, "h", "--spec", spec_file,
                         "--l-grid", "1:10:geometric:2", "--deterministic")
        assert code == 0


class TestScales:
    def test_header_and_row_count(self, capsys, spec_file):
        code, out, _ = run(capsys, "scales", "--spec", spec_file,
                           "--t-grid", "1e3:1e9:geometric:8",
                           "--deterministic")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].strip() == "t,G,alpha_bt_sq,b_t,b_star,r_t,gamma_t"
        assert len(lines) == 9

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bounded_tail_leaves_gamma_t_empty(self, capsys, tmp_path, fmt):
        # G, b_t, b*_t and r_t are defined on a bounded lower tail; only
        # gamma_t needs G~, which a tail with finite log-moments lacks
        p = tmp_path / "bounded.json"
        p.write_text(BOUNDED_SPEC)
        code, out, err = run(capsys, "scales", "--spec", str(p),
                             "--t-grid", "1e3:1e6:geometric:3",
                             "--format", fmt, "--deterministic")
        assert code == 0, err
        if fmt == "json":
            cols = json.loads(out)
            assert cols["gamma_t"] == [None] * 3
        else:
            rows = list(csv.DictReader(io.StringIO(out)))
            cols = {k: [float(r[k]) for r in rows] for k in ("t", "G")}
            assert [r["gamma_t"] for r in rows] == [""] * 3
        spec = spec_from_json(BOUNDED_SPEC)
        assert cols["G"] == [cumulant_G(spec, t) for t in cols["t"]]

    def test_bounded_tail_default_grid(self, capsys, tmp_path):
        # the default t grid, 1e3:1e12:geometric:16, exits 0 as well
        p = tmp_path / "bounded.json"
        p.write_text(BOUNDED_SPEC)
        code, out, err = run(capsys, "scales", "--spec", str(p),
                             "--deterministic")
        assert code == 0, err
        assert len(out.strip().splitlines()) == 1 + 16

    def test_timestamp_header_suppression(self, capsys, spec_file):
        _, with_ts, _ = run(capsys, "scales", "--spec", spec_file,
                            "--t-grid", "1e3:1e6:geometric:2")
        assert with_ts.startswith("# generated ")
        _, without, _ = run(capsys, "scales", "--spec", spec_file,
                            "--t-grid", "1e3:1e6:geometric:2",
                            "--deterministic")
        assert without.startswith("t,")


class TestSolve:
    def test_json_schema(self, capsys, spec_file):
        code, out, _ = run(capsys, "solve", "--spec", spec_file, "--seed", "1",
                           "--t", "5", "--deterministic")
        assert code == 0
        obj = json.loads(out)
        assert list(obj) == ["log_u", "R", "lambda", "clamped_sites",
                             "modes_used"]
        assert 1 <= obj["modes_used"] <= 2 * obj["R"] + 1
        assert obj["log_u"] <= 0.0

    def test_above_screening_bound(self, capsys, frechet_file):
        # the certified screening bound stays below the point solve:
        # log_lb -7592.75 against log_u -7270.48
        code, out, _ = run(capsys, "solve", "--spec", frechet_file,
                           "--seed", "3", "--t", "1e4", "--deterministic")
        assert code == 0
        sol = json.loads(out)
        assert list(sol) == ["log_u", "R", "lambda", "clamped_sites",
                             "modes_used"]
        assert math.isfinite(sol["log_u"]) and sol["log_u"] <= 0.0
        code, out, _ = run(capsys, "lbound", "--spec", frechet_file,
                           "--t", "1e4", "--radius", "8", "--seed", "3",
                           "--deterministic")
        assert code == 0
        assert json.loads(out)["log_lb"] <= sol["log_u"] + 1e-9


class TestRateAndEigen:
    RATE_ARGS = ("--seeds", "2", "--t-grid", "1e2:1e3:geometric:2",
                 "--deterministic")

    def _curve(self):
        return rate_curve(ExperimentConfig(spec=spec_from_json(ATOM_SPEC),
                                           seeds=(0, 1)), np.array([1e2, 1e3]))

    def test_rate_rows_match_rate_curve(self, capsys, spec_file):
        code, out, _ = run(capsys, "rate", "--spec", spec_file, *self.RATE_ARGS)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].strip() == ("t,seed,R_used,log_u,b_t,alpha_bt_sq,rho,"
                                    "converged")
        header = [f.name for f in dataclasses.fields(RateCurve)]
        assert lines[0].split(",") == header
        curve = self._curve()
        assert len(lines) - 1 == len(curve.t) == 4
        # every CSV cell is a JSON literal: a number, true or false
        rows = [[json.loads(v) for v in line.split(",")] for line in lines[1:]]
        assert rows == [list(row) for row in
                        zip(*(getattr(curve, h).tolist() for h in header))]

    def test_rate_json_columns_match_rate_curve(self, capsys, spec_file):
        code, out, _ = run(capsys, "rate", "--spec", spec_file, *self.RATE_ARGS,
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        curve = self._curve()
        assert list(obj) == [f.name for f in dataclasses.fields(RateCurve)]
        assert obj == {h: getattr(curve, h).tolist() for h in obj}
        assert obj["converged"] and all(type(v) is bool
                                        for v in obj["converged"])
        assert all(type(v) is int for v in obj["seed"] + obj["R_used"])

    def test_rate_csv_and_json_columns_on_frechet_spec(self, capsys,
                                                       frechet_file):
        code, out, _ = run(capsys, "rate", "--spec", frechet_file,
                           *self.RATE_ARGS)
        assert code == 0
        reader = csv.DictReader(io.StringIO(out))
        rows = list(reader)
        assert len(rows) == 4
        for row in rows:
            log_u = float(row["log_u"])
            assert math.isfinite(log_u) and log_u <= 0.0, row
        code, out, _ = run(capsys, "rate", "--spec", frechet_file,
                           *self.RATE_ARGS, "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert list(obj) == reader.fieldnames
        assert all(type(v) is bool for v in obj["converged"])

    def test_eigen_schema(self, capsys, spec_file):
        code, out, _ = run(capsys, "eigen", "--spec", spec_file, "--seed", "1",
                           "--radius", "20", "--deterministic")
        assert code == 0
        obj = json.loads(out)
        assert list(obj) == ["lambda", "log_e_center", "residual", "R", "z"]
        fld = sample_field(spec_from_json(ATOM_SPEC), -20, 20, 1)
        pe = principal_eigpair(hamiltonian(fld, 0, 20, 1.0))
        assert obj["lambda"] == pe.principal
        assert obj["log_e_center"] == pe.log_eigvec[20]
        assert (obj["R"], obj["z"]) == (20, 0)

    def test_eigen_walled_centre_below_double_range(self, capsys, tmp_path):
        # a walled window whose centre entry is far below the double range:
        # e^log_e_center reads 0, the log is exact
        path = tmp_path / "walled.json"
        path.write_text(WALLED_SPEC)
        code, out, _ = run(capsys, "eigen", "--spec", str(path),
                           "--seed", "5", "--radius", "100", "--deterministic")
        assert code == 0
        obj = json.loads(out)
        fld = sample_field(spec_from_json(WALLED_SPEC), -100, 100, 5)
        pe = principal_eigpair(hamiltonian(fld, 0, 100, 1.0))
        assert obj["log_e_center"] == pe.log_eigvec[100]
        assert obj["log_e_center"] < -745.0


class TestFkAndLbound:
    def test_fk_schema(self, capsys, spec_file):
        code, out, _ = run(capsys, "fk", "--spec", spec_file, "--seed", "1",
                           "--t", "2", "--samples", "2000", "--box", "25",
                           "--deterministic")
        assert code == 0
        obj = json.loads(out)
        assert list(obj) == ["mean", "stderr", "exit_fraction", "ess"]
        assert 0.0 < obj["mean"] <= 1.0

    def test_fk_unboxed(self, capsys, spec_file):
        # without --box the field spans +-jump_budget, all a walk can reach
        code, out, _ = run(capsys, "fk", "--spec", spec_file, "--seed", "1",
                           "--t", "2", "--samples", "2000", "--deterministic")
        assert code == 0
        obj = json.loads(out)
        half = jump_budget(1.0, 2.0)
        fld = sample_field(spec_from_json(ATOM_SPEC), -half, half, 1)
        res = fk_estimate(fld, 1.0, 2.0, 2000, 1)
        assert obj == {"mean": res.estimate, "stderr": res.stderr,
                       "exit_fraction": 0.0, "ess": res.ess}
        assert 0.0 < obj["mean"] <= 1.0

    def test_fk_samples_only_the_reach(self, capsys, spec_file, monkeypatch):
        # walks reach no farther than jump_budget(1, 3) = 67, so a larger
        # box samples the same window and prints the same estimate
        windows = []

        def record(spec, lo, hi, seed):
            windows.append((lo, hi))
            return sample_field(spec, lo, hi, seed)

        monkeypatch.setattr(pam1d.cli, "sample_field", record)
        outs = [run(capsys, "fk", "--spec", spec_file, "--t", "3",
                    "--samples", "20000", "--box", box, "--deterministic")
                for box in ("100000", "67")]
        assert outs[0] == outs[1] and outs[0][0] == 0
        assert windows == [(-67, 67), (-67, 67)]

    def test_fk_against_box_solution(self, capsys, frechet_file):
        code, out, _ = run(capsys, "fk", "--spec", frechet_file, "--t", "3",
                           "--samples", "100000", "--box", "10",
                           "--seed", "2000", "--deterministic")
        assert code == 0
        obj = json.loads(out)
        fld = sample_field(spec_from_json(FRECHET_SPEC), -10, 10, 2000)
        exact = solve_box(fld, 0, 10, 1.0, 3.0)[10]
        assert abs(obj["mean"] - exact) <= 4 * obj["stderr"]

    def test_fk_negative_box_exits_2(self, capsys, spec_file):
        code, _, err = run(capsys, "fk", "--spec", spec_file, "--t", "2",
                           "--samples", "100", "--box", "-1")
        assert code == 2
        assert "box must be >= 0" in err

    def test_lbound_schema(self, capsys, spec_file):
        code, out, _ = run(capsys, "lbound", "--spec", spec_file,
                           "--t", "5", "--radius", "5", "--deterministic")
        assert code == 0
        obj = json.loads(out)
        assert list(obj) == ["log_lb", "y_star"]
        assert obj["log_lb"] <= 0.0

    def test_lbound_below_exact_point_value(self, capsys, frechet_file):
        code, out, _ = run(capsys, "lbound", "--spec", frechet_file,
                           "--t", "5", "--radius", "5", "--search", "40",
                           "--seed", "3001", "--deterministic")
        assert code == 0
        fld = sample_field(spec_from_json(FRECHET_SPEC), -45, 45, 3001)
        exact = solve_point_log(fld, 0, 45, 1.0, 5.0).log_u
        assert json.loads(out)["log_lb"] <= exact + 1e-9


class TestChiAndLegendre:
    def test_chi_gamma0_closed_form(self, capsys):
        code, out, _ = run(capsys, "chi", "--gamma", "0",
                           "--A", "0.693147", "--kappa", "1",
                           "--deterministic")
        assert code == 0
        obj = json.loads(out)
        target = math.pi ** 2 * math.log(2.0) ** 2
        assert abs(obj["chi_tilde"] - target) < 0.01 * target
        assert list(obj) == ["chi_tilde", "R_star", "psi_grid",
                             "constraint_value", "flags"]

    @pytest.mark.parametrize("gamma, a, abs_tol, rel_tol, r_star", [
        (0.5, "1", 1e-6, 0.0, 4.0), (0.25, "0.693147", 1e-4, 0.0, None),
        (0.1, "0.693147", 0.0, 1e-3, None)],
        ids=["gamma-0.5", "gamma-0.25", "gamma-0.1"])
    def test_chi_meets_closed_form(self, capsys, gamma, a, abs_tol, rel_tol,
                                   r_star):
        # chi = [A^(1/(1-g)) B(p + 1/2, 1/2)]^(2(1-g)/(1+g)), p = g/(1-g),
        # kappa = 1; at gamma = 1/2, A = 1 that is (pi/2)^(2/3), and R* = 4
        # is the first power of two >= pi/(2 omega) = 2.70
        code, out, _ = run(capsys, "chi", "--gamma", str(gamma), "--A", a,
                           "--deterministic")
        assert code == 0
        obj = json.loads(out)
        p = gamma / (1 - gamma)
        log_b = math.lgamma(p + 0.5) + math.lgamma(0.5) - math.lgamma(p + 1)
        exact = math.exp(2 * (1 - gamma) / (1 + gamma)
                         * (math.log(float(a)) / (1 - gamma) + log_b))
        assert abs(obj["chi_tilde"] - exact) <= max(abs_tol, rel_tol * exact)
        if r_star is not None:
            assert obj["R_star"] == r_star

    def test_legendre_constant_profile(self, capsys):
        code, out, _ = run(capsys, "legendre", "--gamma", "0", "--A", "2.0",
                           "--R", "1.0", "--depth", "0.5", "--deterministic")
        assert code == 0
        obj = json.loads(out)
        # gamma = 0 budget: A * measure of the support (interior nodes)
        assert obj["legendre_l"] == pytest.approx(2.0 * 2.0 * 101 / 102)


    def test_legendre_psi_file(self, capsys, tmp_path):
        # a --psi file holding the profile of --R 1 --depth 0.5
        path = tmp_path / "psi.json"
        path.write_text(json.dumps({"R": 1.0, "values": [-0.5] * 101}))
        args = ("legendre", "--gamma", "0.5", "--A", "2.0", "--deterministic")
        assert (run(capsys, *args, "--psi", str(path))
                == run(capsys, *args, "--R", "1", "--depth", "0.5"))

    @pytest.mark.parametrize("text", ['{"R": 1.0}', '[1.0, [-0.5]]',
                                      '{"R": [1], "values": [-0.5]}', "{"],
                             ids=["no-values", "array", "R-array", "not-json"])
    def test_legendre_bad_psi_file(self, capsys, tmp_path, text):
        path = tmp_path / "psi.json"
        path.write_text(text)
        code, out, err = run(capsys, "legendre", "--gamma", "0.5", "--A", "1",
                             "--psi", str(path))
        assert code == 2
        assert out == ""
        assert "pam1d: error: bad --psi file" in err

    def test_legendre_zero_nodes_rejected(self, capsys):
        code, _, err = run(capsys, "legendre", "--gamma", "0.5", "--A", "1",
                           "--R", "1", "--n-nodes", "0")
        assert code == 2
        assert "non-empty" in err


class TestDeterminism:
    def test_byte_identical_outputs(self, capsys, spec_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code = main(["scales", "--spec", spec_file,
                         "--t-grid", "1e3:1e6:geometric:4",
                         "--deterministic", "--out", str(path)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fk_deterministic(self, capsys, spec_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code = main(["fk", "--spec", spec_file, "--seed", "3", "--t", "2",
                         "--samples", "1000", "--box", "20",
                         "--deterministic", "--out", str(path)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestTables:
    def test_json_format_table(self, capsys, spec_file):
        code, out, _ = run(capsys, "g", "--spec", spec_file,
                           "--l-grid", "1:100:geometric:3",
                           "--format", "json", "--deterministic")
        assert code == 0
        obj = json.loads(out)
        assert list(obj) == ["l", "G"]
        assert len(obj["l"]) == 3

    @pytest.mark.parametrize("argv", [
        ("field", "--lo", "-3", "--hi", "3"),
        ("scales", "--t-grid", "1e3:1e6:geometric:3"),
        ("rate", "--seeds", "2", "--t-grid", "1e2:1e3:geometric:2"),
    ], ids=["field", "scales", "rate"])
    @pytest.mark.parametrize("spec", [ATOM_SPEC, BOUNDED_SPEC],
                             ids=["atom", "bounded"])
    def test_csv_and_json_carry_the_same_cells(self, capsys, tmp_path, argv,
                                               spec):
        # an empty CSV cell is null, true/false are booleans, and a .17g
        # float reads back to the bits that JSON prints
        path = tmp_path / "spec.json"
        path.write_text(spec)
        outs = {}
        for fmt in ("csv", "json"):
            code, outs[fmt], err = run(capsys, *argv, "--spec", str(path),
                                       "--format", fmt, "--deterministic")
            assert code == 0, err
        lines = outs["csv"].split("\r\n")
        assert lines[-1] == ""
        header, rows = lines[0].split(","), [ln.split(",")
                                              for ln in lines[1:-1]]
        cols = json.loads(outs["json"])
        assert list(cols) == header
        assert all(len(col) == len(rows) > 0 for col in cols.values())
        for j, name in enumerate(header):
            for row, value in zip(rows, cols[name]):
                cell = None if row[j] == "" else json.loads(row[j])
                if None in (cell, value) or bool in (type(cell), type(value)):
                    assert cell is value, name
                else:
                    assert float(cell).hex() == float(value).hex(), name

    def test_g_without_light_branch_against_mpmath(self, capsys, tmp_path):
        # mix_q = 1, exp-Pareto(1): G = -log E2(1/ell), e^-1000 inside the
        # log at ell = 1e-3, where 1 - deficit is 0 in doubles
        mpmath = pytest.importorskip("mpmath")
        path = tmp_path / "spec.json"
        path.write_text(ATOM_SPEC.replace('"mix_q":0.2', '"mix_q":1.0'))
        code, out, _ = run(capsys, "g", "--spec", str(path),
                           "--l-grid", "1e-3:1:geometric:4",
                           "--format", "json", "--deterministic")
        assert code == 0
        cols = json.loads(out)
        assert len(cols["l"]) == 4
        for ell, g in zip(cols["l"], cols["G"]):
            with mpmath.workdps(40):
                exact = -mpmath.log(mpmath.expint(2, 1 / mpmath.mpf(ell)))
            assert g == pytest.approx(float(exact), rel=1e-12)

    def test_field_csv(self, capsys, spec_file):
        code, out, _ = run(capsys, "field", "--spec", spec_file,
                           "--lo", "-2", "--hi", "2", "--deterministic")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].strip() == "x,xi,log_neg_or1"
        assert len(lines) == 6

    def test_field_small_gamma_strict_json(self, capsys, tmp_path):
        # at gamma = 0.01 light values overflow a double as -xi; the decoded
        # columns are still strict JSON: no Infinity or NaN
        path = tmp_path / "small_gamma.json"
        path.write_text(FRECHET_SPEC.replace('"gamma":0.5', '"gamma":0.01'))
        code, out, _ = run(capsys, "field", "--spec", str(path),
                           "--lo", "-100000", "--hi", "100000",
                           "--format", "json", "--deterministic")
        assert code == 0

        def reject(name):
            raise ValueError("non-finite JSON constant " + name)

        cols = json.loads(out, parse_constant=reject)
        assert list(cols) == ["x", "xi", "log_neg_or1"]
        assert all(len(col) == 200001 for col in cols.values())

    def test_verify_lln_csv(self, capsys, spec_file):
        code, out, _ = run(capsys, "verify-lln", "--spec", spec_file,
                           "--n-grid", "100:1000:geometric:2",
                           "--seeds", "5", "--deterministic")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].strip() == "n,median,frac_gt_1,frac_gt_10"
        assert len(lines) == 3

    def test_verify_microbox_default_grid(self, capsys, tmp_path):
        # without --t-grid the times are t_grid(spec, 8, 10) themselves
        spec_json = ('{"gamma":0.0,"upper":{"atom_p":0.95},"mix_q":0.1,'
                     '"lower":{"pareto_zeta":1.0}}')
        path = tmp_path / "spec.json"
        path.write_text(spec_json)
        code, out, _ = run(capsys, "verify-microbox", "--spec", str(path),
                           "--R", "0.5", "--seeds", "2", "--deterministic")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        ts = [float(row.split(",")[0]) for row in rows]
        assert ts == t_grid(spec_from_json(spec_json), 8, 10).tolist()


class TestStartup:
    def test_import_leaves_out_optimize_integrate_special(self):
        # they load on first use only: about 0.25 s and 20 MB that the
        # solver, Monte Carlo and chi paths of every command do not need
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        code = ("import sys, pam1d.cli; "
                "print(*sorted(m for m in ('scipy.optimize', "
                "'scipy.integrate', 'scipy.special') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    def test_rate_leaves_out_optimize_integrate(self, tmp_path):
        # on a gamma = 0 exp-Pareto spec (the README's) G is in closed
        # form, so b_t takes no quadrature and no root search
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        spec = tmp_path / "spec.json"
        spec.write_text('{"gamma": 0.0, "upper": {"atom_p": 0.625}, '
                        '"mix_q": 0.2, "lower": {"pareto_zeta": 1.0}}')
        code = ("import sys; from pam1d.cli import main; "
                f"code = main(['rate', '--spec', {str(spec)!r}, "
                "'--seeds', '2', '--deterministic', "
                f"'--out', {str(tmp_path / 'rate.csv')!r}]); "
                "print(code, *sorted(m for m in ('scipy.optimize', "
                "'scipy.integrate') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0"]
        assert len((tmp_path / "rate.csv").read_text().splitlines()) == 11

    def test_fk_leaves_out_optimize_integrate_special(self, tmp_path):
        # the README's fk command, run to the end without --deterministic
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        spec, out = tmp_path / "frechet.json", tmp_path / "fk.json"
        spec.write_text(FRECHET_SPEC)
        code = ("import sys; from pam1d.cli import main; "
                f"code = main(['fk', '--spec', {str(spec)!r}, '--t', '3', "
                "'--samples', '100000', '--box', '10', "
                f"'--out', {str(out)!r}]); "
                "print(code, *sorted(m for m in ('scipy.optimize', "
                "'scipy.integrate', 'scipy.special') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0"]
        header, body = out.read_text().split("\n", 1)
        assert header.startswith("# generated ")
        res = json.loads(body)
        assert 0.0 < res["mean"] <= 1.0 and res["stderr"] > 0.0
