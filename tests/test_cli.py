import glob
import os
import shlex
import subprocess
import sys

import pytest

from cavitydd import propagate, sequences
from cavitydd.cli import ExperimentConfig, load_config, main, resolve_shape

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestResolveShape:
    def test_named(self):
        assert resolve_shape("G10").kind == "gaussian"
        assert resolve_shape("delta").is_delta
        assert resolve_shape("q1").kind == "fourier"

    def test_colon_specs(self):
        sh = resolve_shape("gaussian:0.10")
        assert sh.width_ratio == pytest.approx(0.10)
        sh = resolve_shape("hermitian:0.05:0.9")
        assert sh.gamma == pytest.approx(0.9)
        sh = resolve_shape("fourier:0.5,1.0,0.5")
        assert len(sh.coeffs) == 3

    def test_serialization_passthrough(self):
        sh = resolve_shape("kind=gaussian width=0.07")
        assert sh.width_ratio == pytest.approx(0.07)

    def test_unknown(self):
        with pytest.raises(ValueError):
            resolve_shape("blackman:0.1")
        with pytest.raises(ValueError):
            resolve_shape("Q9")


class TestConfig:
    def test_load_and_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment\nsequence = 4p\nshape = G10\nomega_r = 0.03\n"
            "periods = 7  # inline comment\n")
        cfg = load_config(str(cfg_file))
        assert cfg.sequence == "4p"
        assert cfg.periods == 7
        assert cfg.omega_r == pytest.approx(0.03)
        # unset keys keep their defaults
        assert cfg.n_max == ExperimentConfig().n_max

    def test_unknown_key(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("volume = 11\n")
        with pytest.raises(ValueError):
            load_config(str(bad))

    def test_malformed_line(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("sequence 4p\n")
        with pytest.raises(ValueError):
            load_config(str(bad))

    def test_duplicate_key(self, tmp_path, capsys):
        bad = tmp_path / "dup.cfg"
        bad.write_text("periods = 3\nsequence = 4p\nperiods = 5\n")
        with pytest.raises(ValueError, match=r"3: duplicate key 'periods' "
                                             r"\(first set on line 1\)"):
            load_config(str(bad))
        assert main(["simulate", "--config", str(bad)]) == 2
        assert "duplicate key" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["periods = 1e3", "g = fast"])
    def test_bad_value_names_file_line_and_key(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"sequence = 4p\n{line}\n")
        key = line.split()[0]
        with pytest.raises(ValueError, match=rf"bad\.cfg:2: {key}: "):
            load_config(str(bad))
        assert main(["simulate", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:2: {key}: ")

    def test_shipped_figure_configs(self):
        paths = sorted(glob.glob(os.path.join(REPO_ROOT, "figs", "fig*.cfg")))
        if not paths:
            pytest.skip("figure configs only ship with the repository tree")
        assert len(paths) == 6
        for p in paths:
            cfg = load_config(p)
            resolve_shape(cfg.shape, cfg.taup)
            sequences.parse_sequence(cfg.sequence)
            assert cfg.omega_r == pytest.approx(0.117)
            assert cfg.periods == 100


class TestCommands:
    def test_params_single_row(self, capsys):
        assert main(["params", "--shape", "gaussian:0.10"]) == 0
        out = capsys.readouterr().out
        assert "0.1489790" in out
        assert "0.0653938" in out
        assert "0.247905" in out

    def test_params_rejects_bad_shape(self, capsys):
        assert main(["params", "--shape", "warp:1"]) == 2

    @pytest.mark.parametrize("spec", ["hermitian:0.05:nan", "fourier:1,nan",
                                      "fourier:1,inf"])
    def test_params_rejects_non_finite_shape(self, spec, capsys):
        assert main(["params", "--shape", spec]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_design_rejects_non_finite_tol(self, tol, capsys):
        assert main(["design", "--family", "Q", "-L", "1", "--tol", tol]) == 2
        assert "tol must be finite" in capsys.readouterr().err

    def test_design_rejects_loose_tol(self, capsys):
        assert main(["design", "--family", "Q", "-L", "1", "--tol", "1"]) == 2
        assert "tol must be <= 1e-6" in capsys.readouterr().err
        assert main(["design", "--family", "Q", "-L", "1",
                     "--tol", "1e-6"]) == 0
        assert "reference zeta" in capsys.readouterr().out

    def test_params_rejects_singular_hermitian_gamma(self, capsys):
        assert main(["params", "--shape", "hermitian:0.05:2"]) == 2
        assert "gamma" in capsys.readouterr().err
        # neighbouring gammas are valid input: 2.5 converges, 1.99 (area
        # nearly cancelled) fails the quadrature doubling check as before
        assert main(["params", "--shape", "hermitian:0.05:2.5"]) == 0
        assert "zeta" in capsys.readouterr().out
        assert main(["params", "--shape", "hermitian:0.05:1.99"]) == 3
        assert "not converged" in capsys.readouterr().err

    def test_design_q1(self, capsys):
        assert main(["design", "--family", "Q", "--order", "1"]) == 0
        out = capsys.readouterr().out
        assert "kind=fourier" in out
        assert "reference zeta" in out
        assert "FLAG" not in out

    def test_simulate_zero_periods(self, tmp_path, capsys):
        out_csv = tmp_path / "zero.csv"
        rc = main(["simulate", "--sequence", "4p", "--shape", "G10",
                   "--periods", "0", "--n-max", "2", "--grid", "4",
                   "--output", str(out_csv)])
        assert rc == 0
        lines = out_csv.read_text().strip().splitlines()
        assert len(lines) == 2
        row = lines[1].split(",")
        assert row[0] == "0" and float(row[2]) == 1.0 and float(row[3]) == 0.0

    def test_simulate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--sequence", "xbarx", "--shape", "G10",
                "--periods", "5", "--n-max", "4", "--grid", "6",
                "--g", "0.002", "--omega-r", "0.05"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_config_plus_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out_csv = tmp_path / "out.csv"
        cfg.write_text("sequence = xbarx\nshape = G10\nperiods = 9\n"
                       "n_max = 4\ngrid = 4\ng = 0.002\n"
                       f"output = {out_csv}\n")
        assert main(["simulate", "--config", str(cfg), "--periods", "3"]) == 0
        lines = out_csv.read_text().strip().splitlines()
        assert len(lines) == 1 + 3 + 1

    def test_simulate_validation_exit_code(self, capsys):
        assert main(["simulate", "--sequence", "nope"]) == 2
        assert "error" in capsys.readouterr().err

    # each is refused by the library before U(T) is built
    @pytest.mark.parametrize("flag,value", [
        ("--periods", "-1"), ("--n-max", "0"), ("--grid", "-1"),
        ("--steps-per-pulse", "8"), ("--taup", "0"), ("--shape", "nope"),
        ("--sequence", "nope")])
    def test_simulate_rejects_invalid_value(self, tmp_path, monkeypatch,
                                            capsys, flag, value):
        monkeypatch.chdir(tmp_path)
        rc = main(["simulate", "--n-max", "2", "--grid", "4", flag, value])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_simulate_rejects_non_finite_taup(self, tmp_path, capsys):
        rc = main(["simulate", "--sequence", "4p", "--shape", "G10",
                   "--taup", "nan", "--periods", "1", "--n-max", "2",
                   "--grid", "4", "--output", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "taup must be finite" in capsys.readouterr().err

    def test_simulate_convergence_exit_code(self, tmp_path, capsys):
        # hot parameters at the minimum step count trip the halving check
        rc = main(["simulate", "--sequence", "8a", "--shape", "Q1",
                   "--g", "0.1", "--omega-r", "0.117", "--periods", "1",
                   "--n-max", "3", "--grid", "4", "--steps-per-pulse", "256",
                   "--output", str(tmp_path / "x.csv")])
        assert rc == 3
        assert "convergence" in capsys.readouterr().err

    def test_simulate_too_few_steps_for_self_check(self, tmp_path, capsys):
        # 16 steps pass the config check but leave 8 for the halving check
        rc = main(["simulate", "--sequence", "4p", "--shape", "G10",
                   "--periods", "1", "--n-max", "2", "--grid", "4",
                   "--steps-per-pulse", "16",
                   "--output", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "steps_per_pulse" in capsys.readouterr().err

    def test_simulate_out_of_memory_exit_code(self, tmp_path, monkeypatch,
                                              capsys):
        # a --periods too large for memory: one error line, no traceback
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 72.8 TiB for an array")

        monkeypatch.setattr(propagate, "run_trace", no_memory)
        rc = main(["simulate", "--sequence", "4p", "--shape", "G10",
                   "--periods", "10000000000000", "--n-max", "2",
                   "--grid", "4", "--output", str(tmp_path / "x.csv")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: out of memory: Unable to allocate "
                                "72.8 TiB for an array\n")

    def test_effham_report(self, capsys):
        rc = main(["effham", "--sequence", "8a", "--shape", "G10",
                   "--omega-r", "0.02", "--omega-0", "0.03", "--g", "0.02",
                   "--n-max", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "generic, matched convention" in out
        assert "generic, printed convention" in out
        assert "cavity equation, printed" in out
        assert "verdict" in out

    def test_effham_custom_sequence(self, capsys):
        rc = main(["effham", "--sequence", "Y d(0.5) X -Y d(0.5) X",
                   "--shape", "G10", "--omega-r", "0.02", "--g", "0.02",
                   "--n-max", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "remainder O(taup^2):" in out
        assert "verdict: best match is 'generic, matched convention'" in out

    def test_effham_rejects_non_refocusing_sequence(self, capsys):
        assert main(["effham", "--sequence", "X Y", "--shape", "G10",
                     "--n-max", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "does not refocus" in captured.err

    def test_effham_rejects_delta_shape(self, capsys):
        assert main(["effham", "--sequence", "X d(1) -X d(1)", "--shape",
                     "delta", "--n-max", "2"]) == 2
        assert "delta shape" in capsys.readouterr().err

    def test_effham_verdict_tie(self, capsys):
        # Q1 has s = alpha = 0, so both conventions and the cavity equation
        # give the same defect up to roundoff: no single winner is named
        assert main(["effham", "--sequence", "8s", "--shape", "Q1"]) == 0
        out = capsys.readouterr().out
        verdict = [ln for ln in out.splitlines() if ln.startswith("verdict")]
        assert verdict == [
            "verdict: tie within 1e-12 between 'generic, matched convention', "
            "'generic, printed convention', 'cavity equation, printed' "
            "(defect 9.308e-03)"]

    def test_ordercheck_report(self, capsys):
        rc = main(["ordercheck", "--sequence", "xbarx", "--shape", "G10",
                   "--omega-r", "0", "--omega-0", "0", "--g", "0.1",
                   "--n-max", "2", "--scales", "0.4,0.2,0.1,0.04"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fitted exponent" in out

    # each of these once ended in a traceback, an SVD failure or the
    # "span at least one decade" message
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scales", ("0,0.4", "0.4,inf", "0.4,nan,0.1",
                                        "0.04,-0.4"))
    def test_ordercheck_rejects_bad_scales(self, capsys, scales):
        rc = main(["ordercheck", "--sequence", "xbarx", "--shape", "G10",
                   "--n-max", "2", "--scales", scales])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: scale factors must be finite and "
                                "positive\n")

    def test_ordercheck_all_defects_at_floor(self, capsys):
        # no coupling: xbarx refocuses exactly, so no defect is fitted
        rc = main(["ordercheck", "--sequence", "xbarx", "--shape", "G10",
                   "--g", "0", "--omega-r", "0", "--n-max", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "nan" not in out
        assert out.splitlines()[-1] == (
            "fitted exponent p: not fitted (fewer than two defects above "
            "the 1e-12 floor)")


def test_python_m_cavitydd():
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "cavitydd", "params",
                           "--shape", "G10"], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "s       =" in proc.stdout


def readme_commands():
    """The ``cavitydd ...`` lines of the README's Command line block, with
    continuations joined and comments dropped."""
    path = os.path.join(REPO_ROOT, "README.md")
    if not os.path.exists(path):
        return []
    text = open(path).read()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line.split("#", 1)[0])
            for line in block.splitlines() if line.startswith("cavitydd ")]


def test_readme_lists_commands():
    if not os.path.exists(os.path.join(REPO_ROOT, "README.md")):
        pytest.skip("the README only ships with the repository tree")
    assert len(readme_commands()) >= 8


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_runs(argv, tmp_path, monkeypatch, capsys):
    figs = os.path.join(REPO_ROOT, "figs")
    if not os.path.isdir(figs):
        pytest.skip("figure configs only ship with the repository tree")
    os.symlink(figs, tmp_path / "figs")
    monkeypatch.chdir(tmp_path)
    assert argv[0] == "cavitydd"
    assert main(argv[1:]) == 0, capsys.readouterr().err
