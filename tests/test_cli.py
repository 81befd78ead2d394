"""End-to-end checks for the command-line interface.

Most cases run cli.main() in process with a tmp_path working area and
inspect exit codes plus the files written.  The reproducibility cases
additionally spawn real subprocesses with different BLAS thread-count
environments and compare output bytes.
"""

import json
import os
import subprocess
import sys

import pytest

from conftest import cli_env
from lowlying import cli, summary
from lowlying.quadrature import QuadratureError


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _no_bare_constant(token):
    raise ValueError("bare %s is not JSON" % token)


def read_strict_json(path):
    """Parse as a strict JSON reader would: no Infinity, -Infinity, NaN."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_no_bare_constant)


def read_lines(path):
    with open(path, newline="") as fh:
        return fh.read().split("\n")


# ---------------------------------------------------------------------------
# config file plumbing


class TestConfig:
    def test_read_config(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\n\np = 3\ngrid=7\n  tol = 1e-8  \n")
        assert cli.read_config(str(path)) == {
            "p": "3", "grid": "7", "tol": "1e-8"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("p=3\nnot a pair\n")
        with pytest.raises(cli.UsageError, match="line 2"):
            cli.read_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(cli.UsageError):
            cli.read_config(str(tmp_path / "absent.cfg"))

    def test_value_comes_from_config(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        out = tmp_path / "d.csv"
        cfg.write_text("p=3\ngrid=5\n")
        code = cli.main(["density", "--config", str(cfg),
                         "--out", str(out)])
        assert code == 0
        meta = read_json(str(out) + ".json")
        assert meta["config"]["p"] == "3"
        assert meta["config"]["grid"] == "5"

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        out = tmp_path / "d.csv"
        cfg.write_text("p=3\ngrid=5\n")
        code = cli.main(["density", "--config", str(cfg),
                         "--p", "5", "--out", str(out)])
        assert code == 0
        meta = read_json(str(out) + ".json")
        assert meta["config"]["p"] == "5"
        assert meta["p"] == 5

    def test_malformed_config_exits_2(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("broken line\n")
        code = cli.main(["density", "--config", str(cfg),
                         "--out", str(tmp_path / "d.csv")])
        assert code == 2

    @pytest.mark.parametrize("line", ["sampels=7", "forms=10"])
    def test_unknown_config_key_exits_2_before_sampling(
            self, line, tmp_path, monkeypatch, capsys):
        # a misspelled key, and a key of another command, match no flag
        TestRmt._forbid_sampling(monkeypatch)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("group=U\n%s\n" % line)
        code = cli.main(["rmt", "--config", str(cfg),
                         "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("line", ["p=3", "n=1"])
    def test_abbreviated_config_key_exits_2_before_quadrature(
            self, line, tmp_path, monkeypatch, capsys):
        # unique prefixes of moments' --primes and --nmax, which argparse
        # would take as those flags on the command line
        def integrated(*args, **kwargs):
            raise AssertionError("quadrature ran before validation")
        monkeypatch.setattr("lowlying.measures.integrate", integrated)
        cfg = tmp_path / "m.cfg"
        cfg.write_text(line + "\n")
        code = cli.main(["moments", "--config", str(cfg),
                         "--out", str(tmp_path / "m.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "m.json").exists()

    def test_abbreviated_flag_on_command_line_takes_effect(self, tmp_path):
        out = tmp_path / "m.json"
        assert cli.main(["moments", "--prim", "3", "--nm", "1",
                         "--out", str(out)]) == 0
        meta = read_json(out)
        assert (meta["config"]["primes"], meta["config"]["nmax"]) \
            == ("3", "1")

    @pytest.mark.parametrize("spelling", ["--config=%s", "--conf %s"])
    def test_dashed_key_takes_effect(self, spelling, tmp_path):
        from lowlying import kernels, rmt

        cfg = tmp_path / "c.cfg"
        out = tmp_path / "r.json"
        cfg.write_text("include-zero=0\nsize=5\nsamples=20\nzmax=50\n")
        code = cli.main(["rmt"] + (spelling % cfg).split()
                        + ["--group", "SOodd", "--out", str(out)])
        assert code == 0
        meta = read_json(out)
        assert meta["config"]["include_zero"] == "False"
        phis = [kernels.fejer_test_function(0.9)]
        assert meta["report"]["prediction"] \
            == rmt.prediction_for("SOodd", phis, False) \
            != rmt.prediction_for("SOodd", phis, True)

    def test_config_echo_strings(self, tmp_path):
        out = str(tmp_path / "r.json")
        assert cli.main(["rmt", "--group", "U", "--size", "5",
                         "--samples", "20", "--seed", "3",
                         "--beta", "0.3,0.2", "--zmax", "50",
                         "--out", out]) == 0
        assert read_json(out)["config"] == {
            "group": "U", "size": "5", "samples": "20", "seed": "3",
            "beta": "0.3,0.2", "include_zero": "True", "zmax": "50.0",
            "out": out}
        out = str(tmp_path / "t.csv")
        assert cli.main(["dims", "--weights", "5,4; 4,4", "--levels", "2,1",
                         "--out", out]) == 0
        assert read_json(out + ".json")["config"] == {
            "weights": "5,4;4,4", "levels": "2,1", "out": out}
        out = str(tmp_path / "m.json")
        assert cli.main(["moments", "--primes", "3,2", "--nmax", "1",
                         "--out", out]) == 0
        assert read_json(out)["config"] == {
            "primes": "2,3", "nmax": "1", "tol": "1e-06", "out": out}


class TestParseErrors:
    @pytest.mark.parametrize("argv", [
        ["density", "--bogus", "1", "--out", "d.csv"],
        ["density", "--p", "2"],
        ["density", "--grid", "--out", "d.csv"],
        ["nonsense", "--out", "d.csv"]],
        ids=["unknown-flag", "missing-out", "no-value", "unknown-command"])
    def test_exit_2_with_one_line(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "d.csv").exists()

    def test_parsing_loads_no_numpy(self, tmp_path):
        script = ("import sys\n"
                  "from lowlying import cli\n"
                  "assert cli.main(['rmt', '--sampels', '7', '--out', 'r']) "
                  "== 2\n"
                  "try:\n"
                  "    cli.main(['rmt', '--help'])\n"
                  "except SystemExit:\n"
                  "    pass\n"
                  "assert 'numpy' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              env=cli_env("1"), capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr


class TestImportPath:
    """No command loads scipy, `rmt` loads no family-side module, `dims`
    no numpy, `moments` neither `family` nor `rmt`, and `density` only
    `measures` and what it needs.

    Each case runs in a subprocess, because this one has scipy and every
    lowlying module loaded.
    """

    @staticmethod
    def loaded(body, cwd):
        """The names in sys.modules after a fresh process runs `body`."""
        script = body + "\nimport sys\nprint(*sys.modules)\n"
        proc = subprocess.run([sys.executable, "-c", script], cwd=cwd,
                              env=cli_env("1"), capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    @classmethod
    def loaded_by_command(cls, argv, cwd):
        return cls.loaded("from lowlying import cli\n"
                          "assert cli.main(%r) == 0" % (argv,), cwd)

    def test_rmt_loads_no_family_modules(self, tmp_path):
        loaded = self.loaded("import lowlying.rmt", tmp_path)
        assert "lowlying.rmt" in loaded
        assert not loaded & {"lowlying.family", "lowlying.measures",
                             "lowlying.hecke"}

    def test_dims_loads_no_numpy(self, tmp_path):
        # the dimension tables are exact rationals throughout
        loaded = self.loaded_by_command(
            ["dims", "--weights", "4,4;6,5", "--levels", "1,6",
             "--out", "t.csv"], tmp_path)
        assert "lowlying.paramodular" in loaded
        assert "numpy" not in loaded

    def test_moments_loads_no_family(self, tmp_path):
        loaded = self.loaded_by_command(
            ["moments", "--primes", "2", "--nmax", "2", "--out", "m.json"],
            tmp_path)
        assert "lowlying.hecke" in loaded
        assert not loaded & {"lowlying.family", "lowlying.rmt"}

    def test_density_loads_no_coefficient_or_ensemble_modules(self,
                                                              tmp_path):
        loaded = self.loaded_by_command(
            ["density", "--grid", "5", "--out", "d.csv"], tmp_path)
        assert "lowlying.measures" in loaded
        assert not loaded & {"lowlying.hecke", "lowlying.family",
                             "lowlying.kernels", "lowlying.rmt"}

    def test_importing_every_module(self, tmp_path):
        assert "scipy" not in self.loaded(
            "import importlib, pkgutil, lowlying\n"
            "for m in pkgutil.iter_modules(lowlying.__path__):\n"
            "    importlib.import_module('lowlying.' + m.name)", tmp_path)

    def test_u_ensemble_and_prediction(self, tmp_path):
        assert "scipy" not in self.loaded(
            "from lowlying import cli, kernels as K\n"
            "assert cli.main(['rmt', '--group', 'U', '--size', '4',\n"
            "                 '--samples', '8', '--zmax', '50',\n"
            "                 '--out', 'r.json']) == 0\n"
            "phi = K.fejer_test_function(0.3)\n"
            "K.prediction_with_error(K.SP, [phi, phi])", tmp_path)

    def test_prediction_loads_no_numpy_polynomial(self, tmp_path):
        # numpy loads numpy.polynomial on first use; the kernel basis's
        # Gauss-Legendre nodes do without it, so a cold process never
        # pays for it
        loaded = self.loaded(
            "from lowlying import kernels as K\n"
            "phi = K.fejer_test_function(0.45)\n"
            "K.prediction_with_error(K.SOEVEN, [phi, phi])", tmp_path)
        assert "numpy" in loaded
        assert "numpy.polynomial" not in loaded

    def test_orthogonal_and_symplectic_ensembles(self, tmp_path):
        assert "scipy" not in self.loaded(
            "from lowlying import cli\n"
            "for group in ('SOeven', 'SOodd', 'USp', 'O'):\n"
            "    assert cli.main(['rmt', '--group', group, '--size', '4',\n"
            "                     '--samples', '8', '--zmax', '50',\n"
            "                     '--out', 'r.json']) == 0", tmp_path)


# ---------------------------------------------------------------------------
# density


class TestDensity:
    def test_grid_and_normalization(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = cli.main(["density", "--p", "2", "--grid", "9",
                         "--out", str(out)])
        assert code == 0
        lines = read_lines(out)
        assert lines[0] == "x,y,density"
        # header plus 9 x 9 grid rows plus trailing newline
        assert len(lines) == 1 + 81 + 1
        assert lines[-1] == ""
        meta = read_json(str(out) + ".json")
        assert meta["command"] == "density"
        assert meta["pass"] is True
        assert abs(meta["normalization"] - 1.0) < 1e-8
        # every density value parses as a nonnegative float
        for line in lines[1:-1]:
            x, y, d = line.split(",")
            assert float(d) >= 0.0
            assert -2.0 <= float(x) <= 2.0
            assert -2.0 <= float(y) <= 2.0

    def test_normalization_check_sees_a_wrong_density(self, tmp_path,
                                                      monkeypatch):
        # the mass is exact, not the quadrature's own, so a density off by
        # 1e-6 shows in the check
        from lowlying import measures

        raw = measures._raw_density
        monkeypatch.setattr(measures, "_raw_density",
                            lambda p, x, y: raw(p, x, y) * (1.0 + 1e-6))
        out = tmp_path / "grid.csv"
        code = cli.main(["density", "--p", "2", "--grid", "5",
                         "--out", str(out)])
        assert code == 1
        meta = read_json(str(out) + ".json")
        assert meta["pass"] is False
        assert meta["normalization_error"] == pytest.approx(1e-6, rel=1e-6)

    def test_grid_goes_in_bounded_blocks(self, tmp_path, monkeypatch):
        import numpy as np

        from lowlying import measures

        density = measures.density_mu_p
        sizes = []

        def counted(spec, x, y):
            sizes.append(np.broadcast(x, y).size)
            return density(spec, x, y)

        monkeypatch.setattr(measures, "density_mu_p", counted)
        whole, blocks = tmp_path / "whole.csv", tmp_path / "blocks.csv"
        argv = ["density", "--p", "3", "--grid", "41"]
        assert cli.main(argv + ["--out", str(whole)]) == 0
        assert sizes == [41 * 41]
        # 100 points per call: two rows of 41 at a time
        monkeypatch.setattr(cli, "_DENSITY_BLOCK", 100)
        sizes.clear()
        assert cli.main(argv + ["--out", str(blocks)]) == 0
        assert sizes == [82] * 20 + [41]
        assert blocks.read_bytes() == whole.read_bytes()
        monkeypatch.undo()
        monkeypatch.setattr(measures, "density_mu_p", counted)
        sizes.clear()
        assert cli.main(["density", "--p", "3", "--grid", "300",
                         "--out", str(whole)]) == 0
        assert sum(sizes) == 300 * 300
        assert max(sizes) <= cli._DENSITY_BLOCK

    def test_non_prime_exits_2(self, tmp_path):
        code = cli.main(["density", "--p", "6",
                         "--out", str(tmp_path / "d.csv")])
        assert code == 2

    def test_tiny_grid_exits_2(self, tmp_path):
        code = cli.main(["density", "--grid", "1",
                         "--out", str(tmp_path / "d.csv")])
        assert code == 2

    def test_missing_out_exits_2(self):
        assert cli.main(["density", "--p", "2"]) == 2

    def test_bad_int_exits_2(self, tmp_path):
        code = cli.main(["density", "--grid", "many",
                         "--out", str(tmp_path / "d.csv")])
        assert code == 2

    def test_unwritable_out_exits_2(self, tmp_path):
        code = cli.main(["density", "--p", "2", "--grid", "5",
                         "--out", str(tmp_path / "no" / "dir" / "d.csv")])
        assert code == 2

    def test_quadrature_error_exits_3(self, tmp_path, monkeypatch):
        def blow_up(*args, **kwargs):
            raise QuadratureError("synthetic budget failure", 0.0, 1.0)

        monkeypatch.setattr("lowlying.measures.integrate", blow_up)
        code = cli.main(["density", "--p", "2", "--grid", "5",
                         "--out", str(tmp_path / "d.csv")])
        assert code == 3
        # the normalization runs before the grid, so nothing is left half
        # written
        assert not (tmp_path / "d.csv").exists()
        assert not (tmp_path / "d.csv.json").exists()

    # 2e-16 and 1e-300: below what the normalization quadrature can reach
    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "2e-16", "1e-300"])
    def test_bad_tol_exits_2_before_quadrature(self, tol, tmp_path,
                                               monkeypatch, capsys):
        def integrated(*args, **kwargs):
            raise AssertionError("quadrature ran before validation")
        # the normalization check is a quadrature
        monkeypatch.setattr("lowlying.measures.adaptive_tensor", integrated)
        code = cli.main(["density", "--tol", tol,
                         "--out", str(tmp_path / "d.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "d.csv").exists()

    def test_tol_at_the_rounding_floor_passes(self, tmp_path):
        assert cli.main(["density", "--p", "2", "--grid", "3",
                         "--tol", "1e-15",
                         "--out", str(tmp_path / "d.csv")]) == 0


# ---------------------------------------------------------------------------
# output paths


class TestOutputDirectories:
    @pytest.mark.parametrize("argv", [
        ["family", "--forms", "10", "--csv", "{missing}/f.csv",
         "--out", "{tmp}/f.json"],
        ["family", "--forms", "10", "--out", "{missing}/f.json"],
        ["rmt", "--group", "U", "--samples", "50",
         "--out", "{missing}/r.json"],
        ["density", "--out", "{missing}/d.csv"],
        ["moments", "--out", "{missing}/m.json"],
        ["dims", "--out", "{missing}/t.csv"]],
        ids=["family-csv", "family-out", "rmt", "density", "moments",
             "dims"])
    def test_missing_directory_exits_2_before_compute(self, argv, tmp_path,
                                                      monkeypatch, capsys):
        def computed(*args, **kwargs):
            raise AssertionError("computed before the output check")
        for name in ("family.generate_family", "rmt.ensemble_average",
                     "measures.vertical_measure", "measures.integrate",
                     "paramodular.dimension_report"):
            monkeypatch.setattr("lowlying." + name, computed)
        missing = tmp_path / "no" / "dir"
        code = cli.main([a.format(missing=missing, tmp=tmp_path)
                         for a in argv])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(missing) in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_directory_as_output_exits_2_before_sampling(self, flag, tmp_path,
                                                          monkeypatch, capsys):
        def sampled(spec):
            raise AssertionError("family sampled before the output check")
        monkeypatch.setattr("lowlying.family.generate_family", sampled)
        argv = ["family", "--forms", "10", "--out", str(tmp_path / "f.json"),
                flag, str(tmp_path)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_bare_file_name_writes_to_working_directory(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["dims", "--out", "t.csv"]) == 0
        assert (tmp_path / "t.csv").exists()


# ---------------------------------------------------------------------------
# moments


class TestMoments:
    def test_small_run_passes(self, tmp_path):
        out = tmp_path / "m.json"
        code = cli.main(["moments", "--primes", "2,3", "--nmax", "2",
                         "--out", str(out)])
        assert code == 0
        meta = read_json(out)
        assert meta["command"] == "moments"
        assert meta["pass"] is True
        assert len(meta["rows"]) == 4
        # rows are sorted by prime then exponent
        keys = [(r["p"], r["n"]) for r in meta["rows"]]
        assert keys == [(2, 1), (2, 2), (3, 1), (3, 2)]
        for row in meta["rows"]:
            assert row["pass"] is True
            assert row["abs_err"] < 1e-6
        # the even-exponent prediction at p=2, n=2 is 1/2 + 1/8 exactly
        by_key = {(r["p"], r["n"]): r for r in meta["rows"]}
        assert by_key[(2, 2)]["prediction"] == 0.625

    def test_bad_nmax_exits_2(self, tmp_path):
        code = cli.main(["moments", "--nmax", "0",
                         "--out", str(tmp_path / "m.json")])
        assert code == 2

    def test_non_prime_exits_2_before_quadrature(self, tmp_path,
                                                 monkeypatch, capsys):
        def integrated(*args, **kwargs):
            raise AssertionError("quadrature ran before validation")
        monkeypatch.setattr("lowlying.measures.integrate", integrated)
        code = cli.main(["moments", "--primes", "2,3,5,4",
                         "--out", str(tmp_path / "m.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "m.json").exists()

    def test_repeated_prime_exits_2_before_quadrature(self, tmp_path,
                                                      monkeypatch, capsys):
        def integrated(*args, **kwargs):
            raise AssertionError("quadrature ran before validation")
        monkeypatch.setattr("lowlying.measures.integrate", integrated)
        code = cli.main(["moments", "--primes", "2,2",
                         "--out", str(tmp_path / "m.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "m.json").exists()

    # 1e-15: its quadrature target tol/10 is below the rounding floor
    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "1e-15"])
    def test_bad_tol_exits_2_before_quadrature(self, tol, tmp_path,
                                               monkeypatch, capsys):
        def integrated(*args, **kwargs):
            raise AssertionError("quadrature ran before validation")
        monkeypatch.setattr("lowlying.measures.adaptive_tensor", integrated)
        code = cli.main(["moments", "--primes", "2", "--nmax", "1",
                         "--tol", tol, "--out", str(tmp_path / "m.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "m.json").exists()

    def test_an_eighteen_digit_prime_runs_at_once(self, tmp_path):
        # primality is a Miller-Rabin test, not trial division to 1e9
        proc = run_subprocess(["moments", "--primes", str(10 ** 18 + 3),
                               "--nmax", "1", "--out", "m.json"], "1",
                              str(tmp_path), timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert read_json(tmp_path / "m.json")["rows"][0]["p"] == 10 ** 18 + 3

    def test_a_prime_above_the_miller_rabin_bound_exits_2_at_once(
            self, tmp_path):
        # 10^25 + 13 passes every base, but the bases decide primality
        # only below 3.317e24, and trial division would run to 3e12
        proc = run_subprocess(["moments", "--primes", str(10 ** 25 + 13),
                               "--nmax", "1", "--out", "m.json"], "1",
                              str(tmp_path), timeout=10)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot certify")
        assert "3317044064679887385961981" in proc.stderr
        assert not (tmp_path / "m.json").exists()

    def test_tol_at_the_rounding_floor_passes(self, tmp_path):
        # quadrature target tol/10 = 1e-15
        assert cli.main(["moments", "--primes", "2", "--nmax", "1",
                         "--tol", "1e-14",
                         "--out", str(tmp_path / "m.json")]) == 0


# ---------------------------------------------------------------------------
# rmt


class TestRmt:
    def test_small_run_report(self, tmp_path):
        out = tmp_path / "r.json"
        code = cli.main(["rmt", "--group", "U", "--size", "5",
                         "--samples", "60", "--seed", "3",
                         "--beta", "0.6", "--zmax", "50",
                         "--out", str(out)])
        assert code == 0
        meta = read_json(out)
        assert meta["command"] == "rmt"
        assert meta["pass"] is True
        report = meta["report"]
        assert report["group"] == "U"
        assert report["samples"] == 60
        assert abs(report["z_score"]) < 50
        assert report["mc_stderr"] > 0

    def test_bad_group_exits_2(self, tmp_path):
        code = cli.main(["rmt", "--group", "SU", "--out",
                         str(tmp_path / "r.json")])
        assert code == 2

    def test_missing_group_exits_2(self, tmp_path):
        code = cli.main(["rmt", "--out", str(tmp_path / "r.json")])
        assert code == 2

    def test_support_violation_exits_2(self, tmp_path):
        # two test functions mean a two-point statistic, where per-slot
        # support must stay below 0.45; asking for 0.9 is a caller error
        code = cli.main(["rmt", "--group", "U", "--size", "5",
                         "--samples", "20", "--seed", "3",
                         "--beta", "0.9,0.9",
                         "--out", str(tmp_path / "r.json")])
        assert code == 2

    @staticmethod
    def _forbid_sampling(monkeypatch):
        from lowlying import rmt

        def sampled(spec):
            raise AssertionError("matrices sampled before validation")
        monkeypatch.setattr(rmt, "_spectra", sampled)

    def test_support_violation_exits_2_before_sampling(self, tmp_path,
                                                       monkeypatch, capsys):
        self._forbid_sampling(monkeypatch)
        code = cli.main(["rmt", "--group", "USp", "--beta", "0.9,0.9",
                         "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    def test_four_level_exits_2_before_sampling(self, tmp_path,
                                                monkeypatch, capsys):
        self._forbid_sampling(monkeypatch)
        code = cli.main(["rmt", "--group", "SOeven",
                         "--beta", "0.2,0.2,0.2,0.2",
                         "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("zmax", ["0", "-3", "nan"])
    def test_bad_zmax_exits_2_before_sampling(self, zmax, tmp_path,
                                              monkeypatch, capsys):
        self._forbid_sampling(monkeypatch)
        code = cli.main(["rmt", "--group", "U", "--zmax", zmax,
                         "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("group", ["SOeven", "SOodd", "USp", "U", "O"])
    def test_one_sample_exits_2_before_sampling(self, group, tmp_path,
                                                monkeypatch, capsys):
        # one sample has no standard error, so its z-score could not pass
        self._forbid_sampling(monkeypatch)
        code = cli.main(["rmt", "--group", group, "--samples", "1",
                         "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("group, include_zero", [
        ("SOeven", "true"), ("SOodd", "false"), ("USp", "true"),
        ("U", "true"), ("O", "false")])
    def test_more_test_functions_than_points_exits_2_before_sampling(
            self, group, include_zero, tmp_path, monkeypatch, capsys):
        # no index tuple has 3 distinct points among 2, so the statistic
        # would be 0 in every sample, with no error bar
        self._forbid_sampling(monkeypatch)
        code = cli.main(["rmt", "--group", group, "--size", "2",
                         "--samples", "10", "--beta", "0.3,0.3,0.3",
                         "--include-zero", include_zero,
                         "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "3 distinct points" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("group", ["SOodd", "O"])
    def test_the_zero_slot_is_one_more_point(self, group, tmp_path):
        # SO(5)'s two angles and its structural zero are 3 points; O's
        # SO(4) rows give 0 and its SO(5) rows do not
        out = tmp_path / "r.json"
        code = cli.main(["rmt", "--group", group, "--size", "2",
                         "--samples", "10", "--beta", "0.3,0.3,0.3",
                         "--zmax", "50", "--out", str(out)])
        assert code == 0
        assert read_json(out)["report"]["mc_stderr"] > 0

    @pytest.mark.parametrize("group", ["O", "USp"])
    def test_size_600_runs(self, group, tmp_path):
        # the largest size a test runs; the Beta tables' top-degree
        # terms underflow from N = 541 on
        proc = run_subprocess(["rmt", "--group", group, "--size", "600",
                               "--samples", "2", "--zmax", "1e6",
                               "--out", "r.json"], "1", str(tmp_path),
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert read_json(tmp_path / "r.json")["report"]["N"] == 600

    def test_tiny_beta_meets_its_prediction_and_exits_0(self, tmp_path):
        # only the mean harmonic is left, so every sample gives the same
        # statistic, 1; the prediction 1 + 0 * beta / 2 is exact, and z 0
        out = tmp_path / "r.json"
        code = cli.main(["rmt", "--group", "U", "--size", "5",
                         "--samples", "4", "--beta", "1e-14",
                         "--out", str(out)])
        assert code == 0
        meta = read_strict_json(out)
        assert meta["report"]["mc_stderr"] == 0.0
        assert meta["report"]["prediction"] == 1.0
        assert meta["report"]["z_score"] == 0.0
        assert meta["pass"] is True

    def test_largest_seed_runs(self, tmp_path):
        out = tmp_path / "r.json"
        code = cli.main(["rmt", "--group", "U", "--size", "4",
                         "--samples", "8", "--seed", str(2 ** 64 - 1),
                         "--zmax", "50", "--out", str(out)])
        assert code == 0
        assert read_json(out)["config"]["seed"] == str(2 ** 64 - 1)

    def test_tiny_zmax_exits_1(self, tmp_path):
        out = tmp_path / "r.json"
        code = cli.main(["rmt", "--group", "U", "--size", "5",
                         "--samples", "60", "--seed", "3",
                         "--beta", "0.6", "--zmax", "1e-12",
                         "--out", str(out)])
        assert code == 1
        assert read_json(out)["pass"] is False


# ---------------------------------------------------------------------------
# family


class TestFamily:
    def test_small_run_with_csv(self, tmp_path):
        out = tmp_path / "f.json"
        csv_path = tmp_path / "f.csv"
        code = cli.main(["family", "--primes", "2,3", "--forms", "400",
                         "--seed", "7", "--m", "1,4", "--zmax", "50",
                         "--csv", str(csv_path), "--out", str(out)])
        assert code == 0
        meta = read_json(out)
        assert meta["command"] == "family"
        assert meta["pass"] is True
        assert [r["m"] for r in meta["averages"]] == [1, 4]
        assert meta["split"] is not None
        assert meta["joint"]["max_abs_z"] < 50
        lines = read_lines(csv_path)
        assert lines[0] == "form_id,prime,a,b,epsilon"
        # one row per form per prime, plus header and trailing newline
        assert len(lines) == 1 + 400 * 2 + 1

    def test_parity_rule_skips_split(self, tmp_path):
        out = tmp_path / "f.json"
        code = cli.main(["family", "--primes", "2", "--forms", "200",
                         "--seed", "7", "--rule", "level_one_parity",
                         "--m", "1", "--zmax", "50", "--out", str(out)])
        assert code == 0
        assert read_json(out)["split"] is None

    def test_bad_rule_exits_2(self, tmp_path):
        code = cli.main(["family", "--forms", "10", "--rule", "random",
                         "--out", str(tmp_path / "f.json")])
        assert code == 2

    def test_duplicate_primes_exit_2(self, tmp_path):
        code = cli.main(["family", "--primes", "2,2", "--forms", "10",
                         "--out", str(tmp_path / "f.json")])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--m", "7"], ["--m", "1,0"], ["--joint-primes", "7"],
        ["--joint-primes", "2,2"], ["--joint-degree", "9"],
        ["--split-m", "0"], ["--split-m", "14"], ["--zmax", "0"],
        ["--zmax", "-3"], ["--zmax", "nan"], ["--forms", "1"],
        ["--forms", "2"], ["--forms", "3"],
        ["--rule", "level_one_parity", "--forms", "1"]],
        ids=lambda flags: "=".join(flags).lstrip("-"))
    def test_bad_report_input_exits_2_before_sampling(self, flags, tmp_path,
                                                      monkeypatch, capsys):
        def sampled(spec):
            raise AssertionError("family sampled before validation")
        monkeypatch.setattr("lowlying.family.generate_family", sampled)
        code = cli.main(["family", "--out", str(tmp_path / "f.json")]
                        + flags)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "'" not in err
        assert not (tmp_path / "f.json").exists()

    def test_infinite_z_is_strict_json(self, tmp_path, monkeypatch):
        # the coefficient at m = 1 is 1 for every form, with no spread,
        # so any other prediction is infinitely many standard errors off
        monkeypatch.setattr("lowlying.family.main_term_spin", lambda m: 0.0)
        out = tmp_path / "f.json"
        code = cli.main(["family", "--primes", "2", "--forms", "10",
                         "--m", "1", "--out", str(out)])
        assert code == 1
        assert read_strict_json(out)["averages"][0]["z"] == "inf"

    def test_m_with_a_large_prime_factor_exits_2_at_once(self, tmp_path):
        # only the window's primes are tried as divisors, so a Mersenne
        # prime is rejected without trial division up to its square root
        proc = subprocess.run(
            [sys.executable, "-m", "lowlying", "family", "--primes", "2,3",
             "--forms", "10", "--m", str(2 ** 61 - 1), "--out", "f.json"],
            cwd=tmp_path, env=cli_env("1"), capture_output=True, text=True,
            timeout=30)
        assert proc.returncode == 2
        assert proc.stderr.startswith(
            "error: m must be a product of the family primes (2, 3)")
        assert not (tmp_path / "f.json").exists()

    def test_split_m_is_not_checked_without_the_split(self, tmp_path):
        out = tmp_path / "f.json"
        code = cli.main(["family", "--primes", "2", "--forms", "200",
                         "--seed", "7", "--rule", "level_one_parity",
                         "--m", "1", "--split-m", "0", "--zmax", "50",
                         "--out", str(out)])
        assert code == 0
        assert read_json(out)["split"] is None


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
@pytest.mark.parametrize("command", [
    ["rmt", "--group", "U", "--size", "4", "--samples", "8"],
    ["family", "--primes", "2", "--forms", "10"]],
    ids=["rmt", "family"])
@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_seed_outside_64_bits_exits_2(seed, command, via_config, tmp_path,
                                      capsys):
    # the random streams see the seed modulo 2^64, so these would repeat
    # the streams of 2^64 - 1 and 0
    out = tmp_path / "o.json"
    if via_config:
        cfg = tmp_path / "s.cfg"
        cfg.write_text("seed=%s\n" % seed)
        flags = ["--config", str(cfg)]
    else:
        flags = ["--seed", seed]
    assert cli.main(command + flags + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# dims


class TestDims:
    def test_table_values(self, tmp_path):
        out = tmp_path / "t.csv"
        code = cli.main(["dims", "--weights", "4,4;5,4",
                         "--levels", "1,2", "--out", str(out)])
        assert code == 0
        lines = read_lines(out)
        assert lines[0] == "k1,k2,N,dim_main,dim_new_main,c_N"
        assert len(lines) == 1 + 4 + 1
        first = lines[1].split(",")
        assert first[:3] == ["4", "4", "1"]
        assert float(first[3]) == 1.0 / 576.0
        assert float(first[5]) == 1.0
        meta = read_json(str(out) + ".json")
        assert meta["pass"] is True
        assert meta["rows"] == 4

    def test_each_level_is_factored_once(self, tmp_path, monkeypatch):
        from lowlying import paramodular

        factorize, calls = paramodular._factorize, []

        def counted(m):
            calls.append(m)
            return factorize(m)
        monkeypatch.setattr(paramodular, "_factorize", counted)
        code = cli.main(["dims", "--weights", "4,4;5,4;6,4",
                         "--levels", "1,6,30",
                         "--out", str(tmp_path / "t.csv")])
        assert code == 0
        assert calls == [1, 6, 30]

    def test_bad_weights_exit_2(self, tmp_path):
        code = cli.main(["dims", "--weights", "4",
                         "--out", str(tmp_path / "t.csv")])
        assert code == 2

    def test_non_squarefree_level_exits_2(self, tmp_path):
        code = cli.main(["dims", "--weights", "4,4", "--levels", "4",
                         "--out", str(tmp_path / "t.csv")])
        assert code == 2

    def test_an_eighteen_digit_prime_level_runs_at_once(self, tmp_path):
        # factoring stops once the cofactor is a certified prime
        proc = run_subprocess(["dims", "--levels", str(10 ** 18 + 3),
                               "--out", "t.csv"], "1", str(tmp_path),
                              timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert read_lines(tmp_path / "t.csv")[1].startswith(
            "4,4,%d," % (10 ** 18 + 3))

    def test_a_semiprime_level_runs_at_once(self, tmp_path):
        # (10^9 + 7)(10^9 + 9): rho splits it, where trial division
        # would run to 1e9
        level = (10 ** 9 + 7) * (10 ** 9 + 9)
        proc = run_subprocess(["dims", "--levels", str(level),
                               "--out", "t.csv"], "1", str(tmp_path),
                              timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert read_lines(tmp_path / "t.csv")[1].startswith(
            "4,4,%d," % (level,))

    def test_a_level_rho_cannot_split_exits_2_at_once(self, tmp_path):
        # (2^61 - 1)(10^18 + 3): rho would need about 1e9 steps; its
        # budget runs out in about a second
        level = (2 ** 61 - 1) * (10 ** 18 + 3)
        proc = run_subprocess(["dims", "--weights", "4,4", "--levels",
                               str(level), "--out", "t.csv"], "1",
                              str(tmp_path), timeout=20)
        assert proc.returncode == 2, proc.stderr
        assert "cannot factor %d" % level in proc.stderr
        assert str(summary._RHO_STEPS) in proc.stderr
        assert not (tmp_path / "t.csv").exists()


# ---------------------------------------------------------------------------
# reproducibility


def run_subprocess(args, threads, cwd, timeout=None):
    return subprocess.run([sys.executable, "-m", "lowlying"] + args,
                          cwd=cwd, env=cli_env(threads),
                          capture_output=True, text=True, timeout=timeout)


class TestReproducibility:
    def test_main_pins_blas_threads(self, tmp_path, monkeypatch):
        for var in cli._THREAD_VARS:
            monkeypatch.setenv(var, "8")
        assert cli.main(["dims", "--out", str(tmp_path / "t.csv")]) == 0
        assert [os.environ[var] for var in cli._THREAD_VARS] == ["1"] * 4

    def test_rerun_in_process_is_byte_identical(self, tmp_path):
        out = tmp_path / "r.json"
        args = ["rmt", "--group", "SOeven", "--size", "6",
                "--samples", "80", "--seed", "11", "--zmax", "50",
                "--out", str(out)]
        assert cli.main(args) == 0
        first = out.read_bytes()
        assert cli.main(args) == 0
        assert out.read_bytes() == first

    def test_density_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "d.csv"
        args = ["density", "--p", "3", "--grid", "7", "--out", str(out)]
        assert cli.main(args) == 0
        first_csv = out.read_bytes()
        first_meta = (tmp_path / "d.csv.json").read_bytes()
        assert cli.main(args) == 0
        assert out.read_bytes() == first_csv
        assert (tmp_path / "d.csv.json").read_bytes() == first_meta

    @staticmethod
    def _rerun_rmt_with_threads(tmp_path, beta):
        # same command, same out path, different BLAS thread environments;
        # the in-process pin must make the outputs byte-identical
        out = tmp_path / "r.json"
        args = ["rmt", "--group", "USp", "--size", "6", "--samples", "60",
                "--seed", "5", "--beta", beta, "--zmax", "50",
                "--out", str(out)]
        proc = run_subprocess(args, "1", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        first = out.read_bytes()
        proc = run_subprocess(args, "8", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == first

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        # one level: the prediction needs no BLAS
        self._rerun_rmt_with_threads(tmp_path, "0.9")

    def test_two_level_thread_count_does_not_change_bytes(self, tmp_path):
        # the determinant route's basis, products and eigenvalues
        self._rerun_rmt_with_threads(tmp_path, "0.45,0.45")

    def test_family_thread_independence(self, tmp_path):
        out = tmp_path / "f.json"
        args = ["family", "--primes", "2,3", "--forms", "500",
                "--seed", "9", "--m", "1,4", "--zmax", "50",
                "--out", str(out)]
        proc = run_subprocess(args, "1", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        first = out.read_bytes()
        proc = run_subprocess(args, "6", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == first
