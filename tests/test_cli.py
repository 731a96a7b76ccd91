import glob
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavitydd import designer, propagate, sequences
from cavitydd.cli import (ExperimentConfig, build_parser, load_config, main,
                          resolve_shape)
from cavitydd.shapes import delta, fourier, gaussian, hermitian, shape_to_text

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
        # the printed shape line is a colon spec that resolves back
        for sh in (delta(), gaussian(0.07), hermitian(0.05), fourier([1, 2])):
            assert resolve_shape(shape_to_text(sh)) == sh

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
            resolve_shape(cfg.shape)
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

    @pytest.mark.parametrize("args", [[], ["--shape", "Q1"],
                                      ["--shape", "delta"]])
    def test_params_rejects_odd_n_quad(self, args, capsys):
        assert main(["params", "--n-quad", "65", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n_quad must be even\n"

    # a surplus field was once ignored, and the retired kind=... form with
    # a field missing ended in a KeyError traceback
    @pytest.mark.parametrize("spec", ["hermitian:0.05:0.9609317217:junk",
                                      "kind=gaussian", "kind=fourier"])
    def test_params_refuses_spec_outside_the_grammar(self, spec, capsys):
        assert main(["params", "--shape", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

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

    @pytest.mark.parametrize("args", [
        ["S", "-L", "254"], ["S", "-L", "255"], ["Q", "-L", "250"],
        ["Q", "-L", "251"]])
    def test_design_refuses_orders_beyond_the_double_range(self, args,
                                                           monkeypatch,
                                                           capsys):
        # the coefficients of the basis (2 + 2 cos theta)^L grow as
        # C(2L, L) ~ 4^L: the last order whose seed-grid coefficients square
        # to a double reaches Newton, the next is refused before it
        def refuse(*args, **kwargs):
            raise AssertionError("Newton ran")

        monkeypatch.setattr(designer, "_newton", refuse)
        if int(args[2]) <= {"S": 254, "Q": 250}[args[0]]:
            with pytest.raises(AssertionError, match="Newton ran"):
                main(["design", "--family", *args])
            return
        assert main(["design", "--family", *args]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "double range" in err

    def test_design_at_an_unreachable_order_is_a_numerical_failure(self,
                                                                   capsys):
        # L = 81 fits the double range and its basis is exact, but the
        # polished shape misses tol at the quadrature's precision
        for family in ("S", "Q"):
            assert main(["design", "--family", family, "-L", "81"]) == 3
            err = capsys.readouterr().err
            assert "exceed tolerance" in err and "Singular" not in err
            # names only the residuals compared with tol
            assert "endpoint" not in err and len(err) < 300

    def test_design_at_order_8(self, capsys):
        # the endpoint conditions hold by construction, so no
        # ill-conditioned solve stands between Newton and the polish
        assert main(["design", "--family", "S", "-L", "8"]) == 0
        assert "max|V| = 32.0091 / taup" in capsys.readouterr().out

    def test_design_with_many_surplus_terms_fails_without_overflow(self,
                                                                    capsys):
        # the RMS cut squares raw coefficients; under error::RuntimeWarning
        # an overflow there would raise instead of the exit 3
        assert main(["design", "--family", "S", "-L", "70",
                     "--extra-terms", "20"]) == 3
        assert "exceed tolerance" in capsys.readouterr().err

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
        assert out.startswith("fourier:0.5,")
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
        ("--steps-per-pulse", "8"), ("--shape", "nope"),
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

    @pytest.mark.parametrize("flag, name", [("--g", "g"),
                                            ("--omega-r", "omega_r")])
    def test_simulate_refuses_an_overflowing_frequency(self, tmp_path,
                                                       monkeypatch, capsys,
                                                       flag, name):
        # finite, but its coupling operator overflows: one error line that
        # names the parameter, no RuntimeWarning and no file
        monkeypatch.chdir(tmp_path)
        rc = main(["simulate", "--sequence", "4p", "--shape", "G10",
                   "--periods", "1", flag, "1e308"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {name} = 1e+308 overflows the "
                                "coupling operators at n_max = 8\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("g, norm", [("1e16", "1.777e+17"),
                                         ("1e20", "1.777e+21"),
                                         ("1e307", "1.777e+308")])
    def test_simulate_refuses_couplings_beyond_the_halving_check(
            self, tmp_path, monkeypatch, capsys, g, norm):
        # finite couplings whose pulse roundoff eps |Hs| t, t = tau_p,
        # exceeds the step-halving tolerance: one named convergence error,
        # before any pulse is integrated, so no product overflows and
        # nothing warns
        monkeypatch.chdir(tmp_path)
        rc = main(["simulate", "--sequence", "4p", "--shape", "G10",
                   "--periods", "1", "--g", g])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"numerical convergence failure: |Hs| = {norm} is too large for "
            "the step-halving check: the roundoff eps |Hs| t = ")
        assert captured.err.endswith(" of Y exceeds 1e-08\n")
        assert list(tmp_path.iterdir()) == []

    def test_simulate_refuses_a_delay_beyond_the_halving_check(
            self, tmp_path, monkeypatch, capsys):
        # an exact delta schedule takes the same delay exponential at both
        # step counts, so its halving difference is 0.0 whatever the delay's
        # roundoff eps |Hs| d; past the tolerance the delay is refused
        monkeypatch.chdir(tmp_path)
        rc = main(["simulate", "--sequence", "X d(1.0) -X d(1.0)",
                   "--shape", "delta", "--g", "1e20", "--periods", "1"])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numerical convergence failure: |Hs| = 1.777e+21 is too large "
            "for the step-halving check: the roundoff eps |Hs| t = 3.946e+05 "
            "of d(1) exceeds 1e-08\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [
        ["simulate", "--sequence", "4p", "--shape", "gaussian:1e-300",
         "--periods", "1"],
        ["simulate", "--sequence", "4p", "--shape", "gaussian:1e-5",
         "--periods", "1"],
        ["simulate", "--sequence", "4p", "--shape", "hermitian:1e-9",
         "--periods", "1"],
        ["ordercheck", "--sequence", "8a", "--shape", "gaussian:1e-5"]],
        ids=lambda c: " ".join(c[:5]))
    def test_refuses_a_pulse_narrower_than_the_step_grid(
            self, tmp_path, monkeypatch, capsys, command):
        # the envelope falls between the Gauss-Legendre nodes at both step
        # counts, so both products integrate no pulse and agree; these ran
        # to exit 0 with the numbers of no pulse (fidelity 0.999988430,
        # halving diff 3.85e-15, and an order-check exponent of 0.22); the
        # test runs with RuntimeWarning as an error, so no envelope overflows
        monkeypatch.chdir(tmp_path)
        assert main(command) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        spec = shape_to_text(resolve_shape(command[4]))
        assert captured.err == (
            f"numerical convergence failure: the {spec} pulse has area 0 at "
            "256 steps and 0 at 128, not pi, which the step-halving check "
            "cannot see: it is too narrow for the step grid; increase "
            "steps_per_pulse\n")
        assert list(tmp_path.iterdir()) == []

    def test_refuses_a_width_whose_envelope_peak_overflows(self, capsys):
        assert main(["params", "--shape", "gaussian:1e-308"]) == 2
        assert capsys.readouterr().err == (
            "error: width_ratio must be in [1e-300, 1)\n")

    def test_simulate_refuses_an_overflowing_pulse_with_warnings_as_errors(
            self, tmp_path):
        env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
        src = os.path.join(REPO_ROOT, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run(
            [sys.executable, "-m", "cavitydd", "simulate", "--sequence", "4p",
             "--shape", "G10", "--g", "1e20", "--periods", "1", "--output",
             str(tmp_path / "big.csv")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 3
        assert proc.stderr.startswith("numerical convergence failure: |Hs| = "
                                      "1.777e+21 is too large")
        assert "Warning" not in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_simulate_names_the_output_path_of_a_missing_directory(
            self, tmp_path, capsys):
        out_csv = tmp_path / "missing" / "x.csv"
        rc = main(["simulate", "--sequence", "4p", "--shape", "delta",
                   "--periods", "1", "--n-max", "2", "--grid", "4",
                   "--output", str(out_csv)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{out_csv}'\n")
        assert list(tmp_path.iterdir()) == []

    def test_simulate_takes_no_taup(self, tmp_path, monkeypatch, capsys):
        # every run is at taup = 1; an old flag or config line fails loudly
        # rather than being ignored
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--taup", "2"])
        assert exc.value.code == 2
        cfg = tmp_path / "old.cfg"
        cfg.write_text("taup = 1\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "unknown key 'taup'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_simulate_convergence_exit_code(self, tmp_path, capsys):
        # hot parameters at the minimum step count trip the halving check
        rc = main(["simulate", "--sequence", "8a", "--shape", "Q1",
                   "--g", "0.1", "--omega-r", "0.117", "--periods", "1",
                   "--n-max", "3", "--grid", "4", "--steps-per-pulse", "256",
                   "--output", str(tmp_path / "x.csv")])
        assert rc == 3
        assert "convergence" in capsys.readouterr().err

    def test_simulate_too_few_steps_for_self_check(self, tmp_path, capsys):
        # 16 steps fail the one step rule, steps_per_pulse >= 32, which
        # leaves the halving check at least 16
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

    def test_figure_protocols_share_one_pulse_per_step_count(
            self, tmp_path, monkeypatch):
        # figs 1, 3 and 5 run 4p, 8a and 8s of G10 pulses on one model, so
        # one process integrates the +x pulse once at 256 and once at 128
        # steps, not three times; each trace is bitwise the one integrated
        # afresh
        products, traces = [], []
        cf4_product, run_trace = propagate._cf4_product, propagate.run_trace
        monkeypatch.setattr(propagate, "_cf4_product",
                            lambda exact, weights: products.append(
                                len(weights)) or cf4_product(exact, weights))

        def recorded(*args, **kwargs):
            traces.append((args, kwargs, run_trace(*args, **kwargs)))
            return traces[-1][2]

        monkeypatch.setattr(propagate, "run_trace", recorded)
        for k in (1, 3, 5):
            assert main(["simulate", "--config",
                         os.path.join(REPO_ROOT, "figs", f"fig{k}.cfg"),
                         "--output", str(tmp_path / f"fig{k}.csv")]) == 0
        assert products == [256, 128]
        assert len(traces) == 3
        for args, kwargs, cached in traces:
            propagate._integrated_pulse.cache_clear()
            fresh = run_trace(*args, **kwargs)
            for field in fields(cached):
                assert np.array_equal(getattr(cached, field.name),
                                      getattr(fresh, field.name))

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

    def test_effham_delta_shape(self, capsys):
        # hard pulses have zero duration: an echo with delays has a period,
        # 8a alone has none
        assert main(["effham", "--sequence", "X d(1) -X d(1)", "--shape",
                     "delta", "--n-max", "2"]) == 0
        assert "verdict: " in capsys.readouterr().out
        assert main(["effham", "--sequence", "8a", "--shape", "delta",
                     "--n-max", "2"]) == 2
        assert "zero duration" in capsys.readouterr().err

    # the pulse's quadrature does not converge (exit 3), but the model or
    # the sequence is invalid input, refused first; both once exited 3
    @pytest.mark.parametrize("argv, err", [
        (["--sequence", "4p", "--n-max", "0"], "n_max must be >= 1"),
        (["--sequence", "X Y", "--g", "1e20"],
         "sequence 'X Y' does not refocus: prod X0 is not a multiple of 1")],
        ids=("model", "sequence"))
    def test_effham_validates_before_any_numerics(self, capsys, argv, err):
        assert main(["effham", "--shape", "gaussian:1e-5", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"

    def test_effham_prints_roundoff_as_zero(self, capsys):
        assert main(["effham", "--sequence", "8a", "--shape", "G10"]) == 0
        out = capsys.readouterr().out
        assert ("  1 (x) |1><1| : +7.351327e-01+0.000000e+00j"
                in out.splitlines())
        parts = re.findall(r" : ([-+][0-9.e+-]{12})([-+][0-9.e+-]{12})j$",
                           out, re.M)
        assert parts
        assert all(float(x) == 0 or abs(float(x)) > 1e-10
                   for part in parts for x in part)

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

    def test_linalg_failure_is_a_numerical_failure(self, tmp_path,
                                                   monkeypatch, capsys):
        # LinAlgError subclasses ValueError, and once read as invalid input
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "--sequence", "4p", "--shape", "G10",
                "--periods", "1", "--n-max", "2", "--grid", "4"]
        assert main(argv + ["--n-max", "0"]) == 2
        assert capsys.readouterr().err == "error: n_max must be >= 1\n"

        def failing_eigh(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("numerical convergence failure: Eigenvalues "
                                "did not converge\n")
        assert list(tmp_path.iterdir()) == []

    # argparse before 3.13 read "-1e-05" as a flag: "expected one argument"
    @pytest.mark.parametrize("argv, flag, value", [
        (["simulate", "--sequence", "4p", "--shape", "G10", "--periods", "3",
          "--n-max", "2", "--grid", "4"], "--g", "-1e-05"),
        (["effham", "--sequence", "4p", "--shape", "G10", "--n-max", "2"],
         "--omega-0", "-3E-2"),
        (["ordercheck", "--sequence", "8a", "--shape", "Q1", "--g", "0.1",
          "--n-max", "2", "--scales", "0.4,0.2,0.1,0.04"],
         "--omega-r", "-1e-03")], ids=("simulate", "effham", "ordercheck"))
    def test_exponent_form_negative_is_a_value(self, tmp_path, monkeypatch,
                                               capsys, argv, flag, value):
        monkeypatch.chdir(tmp_path)
        runs = []
        for form in ([flag, value], [f"{flag}={value}"]):
            assert main(argv + form) == 0
            csv = tmp_path / "trace.csv"
            runs.append((capsys.readouterr(),
                         csv.read_bytes() if csv.exists() else None))
        assert runs[0] == runs[1]
        assert runs[0][0].err == ""


def test_parser_built_once():
    # every main call in a process parses with the same parser
    assert build_parser() is build_parser()


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


def test_readme_library_example_runs():
    path = os.path.join(REPO_ROOT, "README.md")
    if not os.path.exists(path):
        pytest.skip("the README only ships with the repository tree")
    text = open(path).read()
    block = text.split("## Library example", 1)[1].split("```python\n", 1)[1]
    exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})


# generated `simulate` inputs: shape specs, sequences with delays and
# frequencies over the whole double range, each run kept small
def _magnitudes(low):
    """m 10^e with e over [low, 307], or over [-4, 0], where runs pass."""
    return st.builds(lambda m, e: m * 10.0 ** e, st.floats(1, 9.99),
                     st.integers(low, 307) | st.integers(-4, 0))


def _signed(magnitudes):
    return st.one_of(st.just(0.0), st.builds(lambda s, v: s * v,
                                             st.sampled_from((1, -1)),
                                             magnitudes))


_WIDTHS = st.builds(lambda e: 10.0 ** e, st.floats(-300, 0))
_SHAPE_SPECS = st.one_of(
    st.sampled_from(("delta", "G05", "G10", "H05", "S1", "Q1")),
    st.builds("gaussian:{!r}".format, _WIDTHS),
    st.builds("hermitian:{!r}".format, _WIDTHS),
    st.builds(lambda w, gamma: f"hermitian:{w!r}:{gamma!r}", _WIDTHS,
              st.floats(-4, 4)),
    st.builds(lambda cs: "fourier:" + ",".join(map(repr, cs)),
              st.lists(_signed(_magnitudes(-300)), min_size=1, max_size=4)))
_TOKENS = st.one_of(st.sampled_from(("X", "-X", "Y", "-Y", "Z", "-Z")),
                    st.builds("d({!r})".format, _signed(_magnitudes(-300))))
_SEQUENCES = st.one_of(
    st.sampled_from(sorted(sequences.BUILTIN_SEQUENCES)),
    st.builds(" ".join, st.lists(_TOKENS, min_size=1, max_size=6)))


@pytest.fixture(scope="module")
def generated_output(tmp_path_factory):
    return str(tmp_path_factory.mktemp("generated") / "trace.csv")


class TestGeneratedInputs:
    # RuntimeWarnings stay errors (the suite's setting) but for the
    # package's own truncation-leakage warning, which a run may give
    @pytest.mark.filterwarnings(
        "ignore:oscillator truncation leakage:RuntimeWarning")
    @settings(derandomize=True, max_examples=250, deadline=None)
    @given(shape=_SHAPE_SPECS, sequence=_SEQUENCES,
           omega_r=_signed(_magnitudes(-300)),
           omega_0=_signed(_magnitudes(-300)), g=_signed(_magnitudes(-300)),
           n_max=st.integers(0, 4), periods=st.integers(0, 3),
           grid=st.integers(0, 4),
           steps=st.integers(1, 256) | st.integers(32, 256))
    def test_simulate_exits_by_the_contract(self, generated_output, shape,
                                            sequence, omega_r, omega_0, g,
                                            n_max, periods, grid, steps):
        # numbers space-separated, so that an exponent-form negative must
        # parse as a value; a sequence may start with "-", so it takes "="
        argv = ["simulate", f"--shape={shape}", f"--sequence={sequence}",
                "--omega-r", repr(omega_r), "--omega-0", repr(omega_0),
                "--g", repr(g), "--n-max", str(n_max), "--periods",
                str(periods), "--grid", str(grid), "--steps-per-pulse",
                str(steps), f"--output={generated_output}"]
        assert main(argv) in (0, 2, 3)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(command=st.sampled_from(("effham", "ordercheck")),
           shape=_SHAPE_SPECS, sequence=_SEQUENCES,
           omega_r=_signed(_magnitudes(-300)),
           omega_0=_signed(_magnitudes(-300)), g=_signed(_magnitudes(-300)),
           n_max=st.integers(0, 3),
           steps=st.integers(1, 128) | st.integers(32, 128),
           scales=st.lists(_signed(_magnitudes(-300)), min_size=1,
                           max_size=4).map(lambda v: ",".join(map(repr, v))),
           reference=st.sampled_from(("zero", "effective")))
    def test_model_commands_exit_by_the_contract(self, command, shape,
                                                 sequence, omega_r, omega_0,
                                                 g, n_max, steps, scales,
                                                 reference):
        argv = [command, f"--shape={shape}", f"--sequence={sequence}",
                "--omega-r", repr(omega_r), "--omega-0", repr(omega_0),
                "--g", repr(g), "--n-max", str(n_max), "--steps-per-pulse",
                str(steps)]
        if command == "ordercheck":
            argv += [f"--scales={scales}", "--reference", reference]
        assert main(argv) in (0, 2, 3)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(shape=_SHAPE_SPECS, n_quad=st.integers(0, 8192))
    def test_params_exits_by_the_contract(self, shape, n_quad):
        assert main(["params", f"--shape={shape}", "--n-quad",
                     str(n_quad)]) in (0, 2, 3)

    # inputs the generated test found, each a traceback under
    # error::RuntimeWarning before: the interpolation bound 2 a^n / n! of a
    # pulse whose envelope spans 1e12, the roundoff eps |Hs| d of a delay d,
    # and the Lagrange ratios of clustered nodes (a node per factor)
    # overflowed; the last exited 2 with "SVD did not converge" otherwise
    @pytest.mark.parametrize("argv", [
        ["--shape=fourier:1.0,1000000000000.0", "--sequence=4p", "--g=0.0",
         "--n-max=1", "--steps-per-pulse=35"],
        ["--shape=delta", "--sequence=d(1e+162)", "--g=1e161", "--n-max=2",
         "--steps-per-pulse=32"],
        ["--shape=hermitian:0.01:3.0", "--sequence=4p", "--g=0.0",
         "--n-max=1", "--steps-per-pulse=32"]],
        ids=("wide-envelope", "long-delay", "clustered-nodes"))
    def test_found_inputs_exit_3(self, generated_output, argv):
        argv = ["simulate", "--periods=0", "--grid=0", *argv,
                f"--output={generated_output}"]
        assert main(argv) == 3

    # inputs the generated model-command test found, or found beside it: the
    # expansion's products of effham overflowed (a traceback under
    # error::RuntimeWarning) before the propagator's roundoff rule refused
    # the coupling, a long delay's d ** 2 raised OverflowError even with no
    # coupling, and a scale factor overflowed order_check's couplings
    @pytest.mark.parametrize("argv, code", [
        (["effham", "--shape=G05", "--sequence=4p", "--omega-0",
          "9.608541549352234e+184", "--n-max", "1"], 3),
        (["effham", "--shape=G10", "--sequence=X d(1e200) -X d(1e200)",
          "--omega-r", "0", "--g", "0", "--n-max", "1"], 0),
        (["ordercheck", "--shape=H05", "--sequence=8s", "--omega-0",
          "7.452590875672823e+215", "--n-max", "3",
          "--scales=7.452590875672823e+215,2.9262737912592e-132"], 2)],
        ids=("strong-coupling", "long-delay", "overflowing-scale"))
    def test_found_model_command_inputs(self, argv, code, capsys):
        assert main(argv) == code
        assert len(capsys.readouterr().err.splitlines()) == (code != 0)

    # found by the generated test: rescaling the coefficients to A0 = 1/2
    # overflowed (a traceback under error::RuntimeWarning); so did the
    # envelope of a finite rescaled 5e307, and inf * 0 of a rescaled inf
    @pytest.mark.parametrize("spec", ["fourier:0.0001,1e+305",
                                      "fourier:1,1e308", "fourier:1,nan",
                                      "fourier:inf,1"])
    def test_overflowing_fourier_spec_exits_2(self, generated_output, spec,
                                               capsys):
        argv = ["simulate", f"--shape={spec}", "--periods=0",
                f"--output={generated_output}"]
        assert main(argv) == 2
        assert "fourier coefficients must" in capsys.readouterr().err
