import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pam1d.cli import main
from pam1d.experiments import t_grid
from pam1d.montecarlo import fk_estimate, jump_budget
from pam1d.potential import sample_field, spec_from_json


ATOM_SPEC = ('{"gamma":0.0,"upper":{"atom_p":0.5},"mix_q":0.2,'
             '"lower":{"pareto_zeta":1.0}}')
LOGLOG_SPEC = ('{"gamma":0.0,"upper":{"atom_p":0.5},"mix_q":0.2,'
               '"lower":{"loglog_theta":1.0}}')


@pytest.fixture
def spec_file(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text(ATOM_SPEC)
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
    ], ids=["r-cap-below-start", "negative-rtol", "zero-rtol", "no-seeds"])
    def test_bad_solver_settings(self, capsys, spec_file, argv):
        # rejected before any solve: a cap below the first box radius, a
        # tolerance that can never be met, no seeds
        code, _, err = run(capsys, *argv, "--spec", spec_file)
        assert code == 2
        assert "pam1d: error:" in err

    @pytest.mark.parametrize("argv, flag", [
        (("solve", "--t", "nan"), "--t"),
        (("lbound", "--t", "nan", "--radius", "2"), "--t"),
        (("chi", "--gamma", "0.5", "--A", "1", "--kappa", "nan"), "--kappa"),
        (("eigen", "--kappa", "nan"), "--kappa"),
    ], ids=["solve-t", "lbound-t", "chi-kappa", "eigen-kappa"])
    def test_non_finite_number_rejected_at_parsing(self, capsys, spec_file,
                                                   argv, flag):
        code, _, err = run(capsys, *argv, "--spec", spec_file)
        assert code == 2
        assert f"argument {flag}: expected a finite number, got 'nan'" in err

    @pytest.mark.parametrize("kappa", ["-1", "-0.1", "nan", "0"])
    def test_fk_rejects_bad_kappa(self, capsys, spec_file, kappa):
        code, _, err = run(capsys, "fk", "--spec", spec_file, "--t", "3",
                           "--samples", "10", "--box", "5", "--kappa", kappa)
        assert code == 2
        assert "kappa" in err

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
        assert list(obj) == ["u", "log_u", "R", "lambda", "clamped_sites",
                             "modes_used", "sign_ok"]
        assert 1 <= obj["modes_used"] <= 2 * obj["R"] + 1
        assert obj["sign_ok"] is True
        assert obj["u"] == pytest.approx(math.exp(obj["log_u"]))
        assert obj["log_u"] <= 0.0


class TestFkAndLbound:
    def test_fk_schema(self, capsys, spec_file):
        code, out, _ = run(capsys, "fk", "--spec", spec_file, "--seed", "1",
                           "--t", "2", "--samples", "2000", "--box", "25",
                           "--deterministic")
        assert code == 0
        obj = json.loads(out)
        assert list(obj) == ["mean", "stderr", "exit_fraction"]
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
                       "exit_fraction": 0.0}
        assert 0.0 < obj["mean"] <= 1.0

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

    def test_legendre_constant_profile(self, capsys):
        code, out, _ = run(capsys, "legendre", "--gamma", "0", "--A", "2.0",
                           "--R", "1.0", "--depth", "0.5", "--deterministic")
        assert code == 0
        obj = json.loads(out)
        # gamma = 0 budget: A * measure of the support (interior nodes)
        assert obj["legendre_l"] == pytest.approx(2.0 * 2.0 * 101 / 102)


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

    def test_g_saturated_deficit_exits_3(self, capsys, tmp_path):
        # with no light branch G(1e-3) is beyond the quadrature's resolution
        path = tmp_path / "spec.json"
        path.write_text(ATOM_SPEC.replace('"mix_q":0.2', '"mix_q":1.0'))
        code, _, err = run(capsys, "g", "--spec", str(path),
                           "--l-grid", "1e-3:1:geometric:4")
        assert code == 3
        assert "G(0.001)" in err

    def test_field_csv(self, capsys, spec_file):
        code, out, _ = run(capsys, "field", "--spec", spec_file,
                           "--lo", "-2", "--hi", "2", "--deterministic")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].strip() == "x,heavy,value"
        assert len(lines) == 6

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
