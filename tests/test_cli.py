import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import viscokern
from viscokern import cli, config
from viscokern.config import parse_config
from viscokern.grids import Grid
from viscokern.solver import ProblemSpec, SolutionField, _l2_space_time, solve_integral


def run_cli(args):
    return cli.main([str(a) for a in args])


def read_csv(path):
    meta, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


SMALL_WAVE = "\n".join(
    [
        "kernel.type = wedge",
        "kernel.g0 = 2.0",
        "kernel.ginf = 1.0",
        "discretization.n_interior = 48",
        "discretization.n_steps = 256",
        "scenario.a_list = 0.2,0.1,0.05",
    ]
)

SMALL_MOLLIFY = "\n".join(
    [
        "kernel.type = wedge",
        "discretization.n_interior = 32",
        "discretization.n_steps = 128",
        "scenario.epsilon_list = 0.1,0.05",
    ]
)

SMALL_CONV = "\n".join(
    [
        "problem.scheme = differential",
        "kernel.type = prony",
        "kernel.ginf = 1.0",
        "kernel.terms = 1:0.5",
        "discretization.n_interior = 8",
        "discretization.n_steps = 32",
        "scenario.levels = 3",
        "scenario.study = manufactured",
    ]
)

SMALL_ENERGY = "\n".join(
    [
        "problem.scheme = differential",
        "kernel.type = prony",
        "kernel.ginf = 1.0",
        "kernel.terms = 1:0.5",
        "discretization.n_interior = 48",
        "discretization.n_steps = 384",
    ]
)


class TestScenarios:
    def test_solve_snapshots(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "discretization.n_interior = 16\ndiscretization.n_steps = 32\n"
            "discretization.stride = 4\n"
        )
        assert run_cli(["solve", "--config", cfgfile, "--out", tmp_path / "o"]) == 0
        meta, header, rows = read_csv(tmp_path / "o" / "snapshots.csv")
        assert header[0] == "time"
        assert len(header) == 1 + 16 + 2  # time + full grid incl. boundaries
        assert len(rows) == 9  # 33 saved steps, every 4th
        assert float(rows[0][0]) == 0.0
        # boundary columns are exactly zero
        assert all(float(r[1]) == 0.0 and float(r[-1]) == 0.0 for r in rows)
        assert (tmp_path / "o" / "meta.txt").exists()

    def test_solve_snapshots_are_the_nodal_rows(self, tmp_path):
        # the rows reach the file a chunk at a time: 601 rows, three chunks
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("discretization.n_interior = 16\ndiscretization.n_steps = 600\n"
                           "problem.u0 = sin(pi*x)\nproblem.u1 = x*(1-x)\n")
        assert run_cli(["solve", "--config", cfgfile, "--out", tmp_path / "o"]) == 0
        sol = solve_integral(parse_config(cfgfile.read_text()).problem_spec())
        want = [",".join(cli.fmt(v) for v in [t, 0.0, *row, 0.0])
                for t, row in zip(sol.times, sol.u)]
        lines = (tmp_path / "o" / "snapshots.csv").read_text().splitlines()
        assert lines[3:] == want

    def test_wave_limit(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(SMALL_WAVE)
        assert run_cli(["wave-limit", "--config", cfgfile, "--out", tmp_path / "o"]) == 0
        _, header, rows = read_csv(tmp_path / "o" / "wave_limit.csv")
        assert header == ["a", "rel_l2_error"]
        errs = [float(r[1]) for r in rows]
        assert errs[0] > errs[1] > errs[2]

    def test_wave_limit_rejects_non_wedge(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("kernel.type = prony")
        assert run_cli(["wave-limit", "--config", cfgfile, "--out", tmp_path / "o"]) == 2

    def test_mollify_study(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(SMALL_MOLLIFY)
        assert run_cli(["mollify-study", "--config", cfgfile, "--out", tmp_path / "o"]) == 0
        _, header, rows = read_csv(tmp_path / "o" / "mollify_study.csv")
        assert header == [
            "epsilon",
            "sup_K_distance",
            "min_Geps_over_grid",
            "admissible_flag",
            "solution_l2_distance",
        ]
        sups = [float(r[1]) for r in rows]
        dists = [float(r[4]) for r in rows]
        assert sups[0] > sups[1]
        assert dists[0] > dists[1]
        assert all(r[3] == "1" for r in rows)

    def test_mollify_study_says_the_sweep_replaces_kernel_epsilon(self, tmp_path):
        # the sweep mollifies the base kernel at each width of epsilon_list;
        # a configured width is named in the CSV as replaced, and changes
        # nothing else
        for name, extra in (("plain", ""), ("eps", "\nkernel.epsilon = 0.3")):
            cfgfile = tmp_path / f"{name}.cfg"
            cfgfile.write_text(SMALL_MOLLIFY + extra)
            assert run_cli(["mollify-study", "--config", cfgfile, "--out", tmp_path / name]) == 0
        plain = read_csv(tmp_path / "plain" / "mollify_study.csv")
        meta, header, rows = read_csv(tmp_path / "eps" / "mollify_study.csv")
        assert meta == plain[0] + [
            "# kernel.epsilon = 2.9999999999999999e-01 is replaced by the sweep over "
            "scenario.epsilon_list"]
        assert (header, rows) == plain[1:]

    def test_mollify_study_without_kernel_epsilon_has_no_note(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(SMALL_MOLLIFY)
        assert run_cli(["mollify-study", "--config", cfgfile, "--out", tmp_path / "o"]) == 0
        meta, _, _ = read_csv(tmp_path / "o" / "mollify_study.csv")
        assert [line.split(" = ")[0] for line in meta] == ["# kernel", "# horizon", "# grid"]
        assert not any("epsilon" in line for line in meta)

    def test_mollify_study_constant_kernel_passes_at_noise_floor(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "kernel.type = prony\nkernel.ginf = 1.0\nkernel.terms = \n"
        )
        # empty terms is a parse error for prony; use an expression constant
        cfgfile.write_text(
            "kernel.type = expression\nkernel.expression = 1\n"
            "discretization.n_interior = 16\ndiscretization.n_steps = 64\n"
            "scenario.epsilon_list = 0.1,0.05\n"
        )
        assert run_cli(["mollify-study", "--config", cfgfile, "--out", tmp_path / "o"]) == 0
        _, _, rows = read_csv(tmp_path / "o" / "mollify_study.csv")
        assert all(float(r[1]) <= 1e-9 for r in rows)
        # identical kernels: the solves differ by quadrature noise only
        assert all(float(r[4]) <= 1e-9 for r in rows)

    def test_convergence_manufactured(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(SMALL_CONV)
        assert run_cli(["convergence", "--config", cfgfile, "--out", tmp_path / "o"]) == 0
        _, header, rows = read_csv(tmp_path / "o" / "convergence.csv")
        assert header == ["level", "n_interior", "n_steps", "error", "order"]
        assert rows[0][4] == "n/a"
        assert float(rows[2][4]) >= 1.8

    def test_convergence_zero_data_orders_na(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "problem.u0 = 0\nkernel.type = prony\nkernel.ginf = 1.0\n"
            "kernel.terms = 1:0.5\n"
            "discretization.n_interior = 8\ndiscretization.n_steps = 32\n"
            "scenario.levels = 3\nscenario.study = self\n"
        )
        assert run_cli(["convergence", "--config", cfgfile, "--out", tmp_path / "o"]) == 0
        _, _, rows = read_csv(tmp_path / "o" / "convergence.csv")
        assert all(r[4] == "n/a" for r in rows)
        assert all(float(r[3]) == 0.0 for r in rows)

    def test_convergence_self_wedge(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "kernel.type = wedge\nkernel.a = 0.4\n"
            "discretization.n_interior = 16\ndiscretization.n_steps = 64\n"
            "scenario.levels = 3\nscenario.study = self\n"
        )
        assert run_cli(["convergence", "--config", cfgfile, "--out", tmp_path / "o"]) == 0
        _, _, rows = read_csv(tmp_path / "o" / "convergence.csv")
        orders = [float(r[4]) for r in rows if r[4] != "n/a"]
        assert min(orders) >= 1.5

    def test_energy_audit(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(SMALL_ENERGY)
        assert run_cli(["energy-audit", "--config", cfgfile, "--out", tmp_path / "o"]) == 0
        meta, header, rows = read_csv(tmp_path / "o" / "energy_audit.csv")
        assert header == ["t", "elastic", "kinetic", "history", "total", "bound"]
        assert any("identity_residual_max" in line for line in meta)
        assert any("monotone = yes" in line for line in meta)
        totals = [float(r[4]) for r in rows]
        assert totals[-1] < totals[0]

    def test_energy_audit_computes_series_once(self, tmp_path, monkeypatch):
        # the identity residual comes from the report instead of a second
        # pass: the series, the velocities, the sampled f and the lag sums of
        # Gdot and Gddot are each built once per solution, and the audit
        # works on the sine coefficients without making nodal rows
        calls = {}
        for owner, name in ((cli.energy_mod, "energy_series"),
                            (cli.energy_mod, "reconstruct_velocities"),
                            (cli.energy_mod, "_f_block"), (cli.energy_mod, "_lag_sums"),
                            (SolutionField, "nodal_chunks")):
            def counting(*args, _name=name, _fn=getattr(owner, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args)

            monkeypatch.setattr(owner, name, counting)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "problem.scheme = differential\nproblem.f = sin(pi*x)*t\n"
            "kernel.type = prony\nkernel.ginf = 1.0\nkernel.terms = 1:0.5\n"
            "discretization.n_interior = 16\ndiscretization.n_steps = 64\n"
        )
        run_cli(["energy-audit", "--config", cfgfile, "--out", tmp_path / "o"])
        meta, _, _ = read_csv(tmp_path / "o" / "energy_audit.csv")
        assert any("identity_residual_max" in line for line in meta)
        assert calls == {"energy_series": 1, "reconstruct_velocities": 1, "_f_block": 1,
                         "_lag_sums": 1}

    def test_default_energy_audit_residual(self, tmp_path):
        # in the march's own three-point energy the rate identity keeps only
        # its time discretisation: 8.9e-5 against max E = 4.93, where the
        # central-difference u_x with one-sided wall stencils gave 2.45e-3
        assert run_cli(["energy-audit", "--default", "--out", tmp_path]) == 0
        meta, _, _ = read_csv(tmp_path / "energy_audit.csv")
        (line,) = [m for m in meta if m.startswith("# identity_residual_max = ")]
        assert float(line.split("=")[1]) < 5e-4

    def test_energy_audit_zero_data(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "problem.u0 = 0\nproblem.scheme = differential\n"
            "kernel.type = prony\nkernel.ginf = 1.0\nkernel.terms = 1:0.5\n"
            "discretization.n_interior = 16\ndiscretization.n_steps = 64\n"
        )
        assert run_cli(["energy-audit", "--config", cfgfile, "--out", tmp_path / "o"]) == 0
        _, _, rows = read_csv(tmp_path / "o" / "energy_audit.csv")
        assert all(float(r[4]) == 0.0 for r in rows)

    def test_energy_audit_wedge_skips_identity(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "kernel.type = wedge\nkernel.a = 0.4\n"
            "discretization.n_interior = 32\ndiscretization.n_steps = 256\n"
        )
        assert run_cli(["energy-audit", "--config", cfgfile, "--out", tmp_path / "o"]) == 0
        meta, _, _ = read_csv(tmp_path / "o" / "energy_audit.csv")
        assert any("identity_residual = skipped" in line for line in meta)
        assert any("bounded = yes" in line for line in meta)


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(SMALL_MOLLIFY)
        assert run_cli(["mollify-study", "--config", cfgfile, "--out", tmp_path / "a"]) == 0
        assert run_cli(["mollify-study", "--config", cfgfile, "--out", tmp_path / "b"]) == 0
        for name in ("mollify_study.csv", "meta.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_float_format_roundtrips(self):
        for x in (1.5, np.pi, 1e-17, -2.0 / 3.0):
            assert float(cli.fmt(x)) == x

    def test_table_format_is_per_value_format(self):
        # one format string per chunk of rows gives the bytes of fmt per value
        rng = np.random.default_rng(3)
        values = rng.standard_normal((513, 5)) * 10.0 ** rng.integers(-300, 300, (513, 5))
        values[:8, 0] = [0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1.7976931348623157e308,
                         np.inf, np.nan]
        want = "\n".join(",".join(cli.fmt(v) for v in row) for row in values)
        assert "\n".join(cli.fmt_table(values)) == want


class TestExitCodes:
    def test_config_error_exit_2(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("problem.T = -1\n")
        assert run_cli(["solve", "--config", cfgfile, "--out", tmp_path / "o"]) == 2

    @pytest.mark.parametrize("text, message", [
        ("problem.T = 1.0\nproblem.u0 = " + "(" * 200 + "x" + ")" * 200,
         "line 2: problem.u0: expression nested deeper than"),
        ("problem.T = 1.0\nproblem.u0 = " + "-" * 980 + "x",
         "line 2: problem.u0: expression nested deeper than"),
        ("problem.T = 1.0\nscenario.levels = 2", "line 2: need scenario.levels >= 3"),
    ], ids=["deep-parentheses", "deep-unary-minus", "scenario-levels"])
    def test_rejected_config_line_exit_2(self, tmp_path, capsys, text, message):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(text)
        assert run_cli(["solve", "--config", cfgfile, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, message", [
        ("problem.T = 1.0\nproblem.u0 = 1e400",
         "line 2: problem.u0: number 1e400 is beyond the double range (at offset 0)"),
        ("kernel.type = expression\nkernel.expression = 1/t",
         "line 2: kernel.expression: G(0) is not defined: division by zero (at offset 1)"),
        ("kernel.type = expression\nkernel.expression = -1",
         "line 2: kernel.expression: G(0) must be finite and positive, got -1.0"),
    ], ids=["overflowing-literal", "kernel-pole", "kernel-negative"])
    def test_refused_data_exit_2_before_solving(self, tmp_path, capsys, text, message):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(text)
        assert run_cli(["solve", "--config", cfgfile, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert not (tmp_path / "o" / "snapshots.csv").exists()

    @pytest.mark.parametrize("data, message", [
        ("problem.u0 = 1e308*sin(pi*x)", "non-finite values at step 0 (t = 0); u0 or u1"),
        ("problem.f = 1e308*exp(t)", "non-finite values at step 10 (t = 0.625); the forcing"),
    ], ids=["u0", "f"])
    def test_bad_data_exit_2_without_numpy_warnings(self, tmp_path, data, message):
        # a fresh interpreter, so that numpy warnings reach stderr as they
        # would for a user instead of being raised by the test settings
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"{data}\ndiscretization.n_interior = 8\n"
                           "discretization.n_steps = 16\n")
        src = str(Path(viscokern.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys; from viscokern.cli import main; sys.exit(main())"
        out = subprocess.run([sys.executable, "-c", code, "solve", "--config", str(cfgfile),
                              "--out", str(tmp_path / "o")], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 2
        assert message in out.stderr
        assert "Warning" not in out.stderr

    def test_oversize_grid_exit_2_at_its_line(self, tmp_path, capsys):
        cfgfile = tmp_path / "big.cfg"
        cfgfile.write_text("problem.T = 1.0\ndiscretization.n_steps = 1000000000\n")
        assert run_cli(["solve", "--config", cfgfile, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert "line 2: discretization: a solve with 127 interior nodes and 1000000000 " in err
        assert not (tmp_path / "o").exists()

    def test_missing_config_exit_2(self, tmp_path):
        assert run_cli(["solve", "--config", tmp_path / "nope.cfg"]) == 2

    def test_config_xor_default(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(["solve"])

    def test_failing_verdict_exit_1(self, tmp_path, monkeypatch, capsys):
        def stub(cfg, out_dir):
            return cli.ScenarioResult("solve", False, "planted failure")

        monkeypatch.setitem(cli.RUNNERS, "solve", stub)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("")
        assert run_cli(["solve", "--config", cfgfile, "--out", tmp_path / "o"]) == 1
        assert "planted failure" in capsys.readouterr().err

    def test_output_under_regular_file_exit_2(self, tmp_path, capsys):
        (tmp_path / "f").write_text("")
        assert run_cli(["solve", "--default", "--out", tmp_path / "f" / "sub"]) == 2
        err = capsys.readouterr().err
        assert "solve failed" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("scenario, text, message", [
        ("solve", "kernel.epsilon = 1e-20",
         "line 1: kernel.epsilon: smoothing width 1e-20 is not above 1e-12"),
        ("mollify-study", "scenario.epsilon_list = 1e-13",
         "line 1: scenario.epsilon_list: smoothing width 1e-13 is not above 1e-12"),
    ], ids=["kernel-epsilon", "epsilon-list"])
    def test_width_below_floor_exit_2_at_its_line(self, tmp_path, capsys, scenario, text,
                                                  message):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(text)
        assert run_cli([scenario, "--config", cfgfile, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"viscokern: {scenario} failed: invalid configuration:")
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sink", ["full-device", "closed-pipe"])
    def test_unwritable_stdout_exit_2(self, tmp_path, sink):
        # the report is part of the run: a stdout that cannot take it is an
        # I/O error, not a traceback after a passed verdict
        src = str(Path(viscokern.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        entry = "import sys; from viscokern.cli import main; sys.exit(main())"
        args = [sys.executable, "-c", entry, "convergence", "--default", "--out", str(tmp_path)]
        if sink == "full-device":
            with open("/dev/full", "w") as full:
                run = subprocess.run(args, env=env, stdout=full, stderr=subprocess.PIPE, text=True,
                                     timeout=120)
            code, err = run.returncode, run.stderr
        else:
            with subprocess.Popen(args, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True) as proc:
                proc.stdout.close()  # before the child can have written anything
                err = proc.stderr.read()
                code = proc.wait(timeout=120)
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("viscokern: convergence failed: [Errno ")

    @pytest.mark.parametrize("scenario", ["energy-audit", "mollify-study", "convergence"])
    def test_overflowing_norm_exit_2(self, tmp_path, capsys, scenario):
        # the solution of u0 = 1e300 is finite, its energy and L2 norms are not
        cfgfile = tmp_path / "big.cfg"
        cfgfile.write_text("problem.u0 = 1e300\nscenario.study = self\n"
                           "discretization.n_interior = 8\ndiscretization.n_steps = 64\n")
        assert run_cli([scenario, "--config", cfgfile, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"viscokern: {scenario} failed: ")
        assert "encountered in" in err

    def test_infinite_energy_bound_is_no_error(self, tmp_path):
        # past T = 709 e^T overflows: the a-priori bound is infinite, and
        # the audit still gives its verdicts
        cfgfile = tmp_path / "long.cfg"
        cfgfile.write_text("problem.T = 720\nkernel.type = prony\nkernel.ginf = 0.25\n"
                           "kernel.terms = 0.25:0.5\ndiscretization.n_interior = 1\n"
                           "discretization.n_steps = 1024\n")
        assert run_cli(["energy-audit", "--config", cfgfile, "--out", tmp_path / "o"]) != 2
        meta, _, _ = read_csv(tmp_path / "o" / "energy_audit.csv")
        assert "# bound = inf" in meta and "# bounded = yes" in meta

    def test_underflowing_modulus_gives_an_infinite_alpha(self, tmp_path):
        # G(T + 1) = 0.5 exp(-1602) underflows to 0, so alpha = 1/G(T + 1)
        # and the bound are infinite, not a division by zero; the data are
        # not zero, so the bound is no 0 * inf
        cfgfile = tmp_path / "relaxed.cfg"
        cfgfile.write_text("problem.T = 800\nkernel.type = prony\nkernel.ginf = 0\n"
                           "kernel.terms = 0.5:0.5\ndiscretization.n_interior = 1\n"
                           "discretization.n_steps = 2000\n")
        assert run_cli(["energy-audit", "--config", cfgfile, "--out", tmp_path / "o"]) in (0, 1)
        meta, _, _ = read_csv(tmp_path / "o" / "energy_audit.csv")
        assert "# alpha = inf" in meta and "# bound = inf" in meta

    def test_memory_error_exit_2(self, tmp_path, monkeypatch, capsys):
        # a stand-in for an oversize grid; nothing is really allocated
        def stub(cfg, out_dir):
            raise MemoryError("Unable to allocate 48.0 GiB for an array")

        monkeypatch.setitem(cli.RUNNERS, "solve", stub)
        assert run_cli(["solve", "--default", "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err == ("viscokern: solve failed: out of memory: "
                       "Unable to allocate 48.0 GiB for an array\n")


#: values a user would give each key
TYPICAL = {
    "problem.a": ("0.0", "-0.5"),
    "problem.b": ("1.0", "2.0"),
    "problem.T": ("1.0", "0.5", "2.0"),
    "problem.u0": ("sin(pi*x)", "x*(1-x)", "0"),
    "problem.u1": ("0", "x*(1-x)"),
    "problem.f": ("0", "sin(pi*x)*cos(3*t)"),
    "problem.scheme": ("integral", "differential"),
    "kernel.type": ("wedge", "prony", "tabulated", "expression"),
    "kernel.g0": ("2.0", "3.0"),
    "kernel.ginf": ("1.0", "0.5"),
    "kernel.a": ("1.0", "0.3", "0.05"),
    "kernel.terms": ("1:0.5", "0.6:0.2,0.4:1.5"),
    "kernel.csv": ("table.csv",),
    "kernel.expression": ("1 + exp(-2*t)", "2 - t/4"),
    "kernel.epsilon": ("0.1", "0.05"),
    "discretization.n_interior": ("4", "8", "16", "31"),
    "discretization.n_steps": ("64", "128"),
    "discretization.stride": ("1", "2", "4"),
    "scenario.epsilon_list": ("0.1,0.05", "0.1,0.05,0.025"),
    "scenario.a_list": ("0.1,0.05,0.025", "0.2,0.1"),
    "scenario.levels": ("3", "4"),
    "scenario.study": ("manufactured", "self"),
    "output.directory": ("out",),
}
#: what a careless or hostile config gives any key: non-finite and extreme
#: numbers, widths below the floor, broken expressions, lists and CSV paths
HOSTILE = ("nan", "inf", "-inf", "0", "-1", "1e300", "1e-300", "1e-20", "1 + * 2", "sin(",
           "exp(1e300*x)", "0.1,nan", "1:0.5,2", "missing.csv", "bad.csv", "abc")
#: keys set unless drawn hostile: the default grid exceeds 31 x 128, and a
#: tabulated kernel has no default table
ALWAYS_SET = ("discretization.n_interior", "discretization.n_steps", "kernel.csv")


@st.composite
def hostile_configs(draw):
    """Config text: at most two keys hostile, the others unset or typical;
    of the kernel keys, only those of the drawn kernel.type are typical."""
    assert set(TYPICAL) == set(config._KEYS)
    ktype = draw(st.sampled_from(TYPICAL["kernel.type"]))
    foreign = config._VARIANT_KEYS - set(config._KERNEL_KEYS[ktype])
    hostile = draw(st.sets(st.sampled_from(sorted(config._KEYS)), max_size=2))
    lines = [] if "kernel.type" in hostile else [f"kernel.type = {ktype}"]
    for key in config._KEYS:
        if key in hostile:
            lines.append(f"{key} = {draw(st.sampled_from(HOSTILE))}")
        elif key == "kernel.type" or key in foreign:
            continue
        elif key in ALWAYS_SET or draw(st.booleans()):
            lines.append(f"{key} = {draw(st.sampled_from(TYPICAL[key]))}")
    return "\n".join(lines)


class TestHostileConfigs:
    # the exit-code contract: 0 passed, 1 failed verdict, 2 refused or failed
    # run, and nothing escapes cli.main, whatever the config holds
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=hostile_configs(), scenario=st.sampled_from(sorted(cli.RUNNERS)))
    @example(text="kernel.epsilon = 1e-20", scenario="solve")
    @example(text="problem.u0 = 1e300\ndiscretization.n_interior = 8\n"
                  "discretization.n_steps = 64", scenario="energy-audit")
    def test_every_config_exits_0_1_or_2(self, tmp_path_factory, text, scenario):
        work = tmp_path_factory.mktemp("hostile")
        (work / "table.csv").write_text("0,3.0\n0.2,2.2\n0.7,1.2\n5.0,1.0\n")
        (work / "bad.csv").write_text("0,3.0,1\nnot,a,number\n")
        (work / "run.cfg").write_text(text)
        code = run_cli([scenario, "--config", work / "run.cfg", "--out", work / "o"])
        assert code in (0, 1, 2)


class TestWaveReference:
    def test_quadrupled_stiffness_halves_the_period(self):
        # limit speed c = sqrt(g_inf): with g_inf = 4 the standing mode
        # oscillates at frequency 2*pi, so the c=2 reference matches and a
        # c=1 reference does not
        from viscokern.kernels import WedgeKernel

        spec = ProblemSpec(Grid(0.0, 1.0, 64), 1.0, 512,
                           WedgeKernel(5.0, 4.0, 0.02), u0="sin(pi*x)",
                           scheme="integral")
        sol = solve_integral(spec)
        x = sol.grid.x

        def rel_err(c):
            ref = np.asarray([np.cos(c * np.pi * t) * np.sin(np.pi * x) for t in sol.times])
            return (_l2_space_time(sol.grid, sol.times, sol.u - ref)
                    / _l2_space_time(sol.grid, sol.times, ref))

        assert rel_err(2.0) < 0.08
        assert rel_err(1.0) > 0.5

    def test_reference_is_exact_for_pure_wave(self):
        # sanity of the modal reference itself: degenerate wedge (g0 = ginf)
        # is a constant kernel, the solve reproduces the wave solution; on
        # (0, 2) the frequencies scale with 1/(b - a)
        for domain in ("", "problem.b = 2.0\nproblem.u0 = sin(pi*x/2) + 0.3*sin(3*pi*x/2)\n"):
            cfg = parse_config(
                "kernel.g0 = 1.0\nkernel.ginf = 1.0\n" + domain +
                "discretization.n_interior = 48\ndiscretization.n_steps = 256\n"
            )
            spec = cfg.problem_spec(scheme="integral")
            sol = solve_integral(spec)
            reference = cli._wave_reference(spec.grid, sol.modes[0], 1.0)
            gap = _l2_space_time(spec.grid, sol.times, sol.modes, reference)
            assert gap < 2e-3  # scheme self-error only

    def test_modal_errors_match_nodal_reference(self, tmp_path):
        # the errors the scenario takes in the sine basis against the nodal
        # reference it used to build: u0's coefficients from its nodal row,
        # the cosine rows turned back onto the nodes, the norms on the nodes
        from viscokern.kernels import WedgeKernel
        from viscokern.solver import _product, _sine_basis, _to_modes

        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(SMALL_WAVE)
        assert run_cli(["wave-limit", "--config", cfgfile, "--out", tmp_path / "o"]) == 0
        _, _, rows = read_csv(tmp_path / "o" / "wave_limit.csv")
        cfg = parse_config(SMALL_WAVE)
        for (a, got), ramp in zip(rows, cfg.a_list):
            sol = solve_integral(cfg.problem_spec(kernel=WedgeKernel(2.0, 1.0, ramp),
                                                  scheme="integral"))
            sines, _ = _sine_basis(sol.grid)
            coefs = _to_modes(sol.u[0][None, :], sines)[0]
            freqs = np.pi / sol.grid.length * np.arange(1, len(sines) + 1)
            ref = _product(np.cos(np.outer(sol.times, freqs)) * coefs, sines)[:, :48]
            want = (_l2_space_time(sol.grid, sol.times, sol.u, ref)
                    / _l2_space_time(sol.grid, sol.times, ref))
            assert float(a) == ramp
            assert abs(float(got) - want) <= 1e-12 * want

    def test_one_pass_gives_the_norm_and_the_first_error(self, tmp_path, monkeypatch):
        # three ramps make the reference rows three times, not four: the
        # reference's norm and the first error share one pass, and give the
        # bytes of two separate passes
        made, original = [], cli._wave_reference

        def counted(*args):
            reference = original(*args)

            def rows(times):
                made.append(len(times))
                return reference(times)
            return rows

        monkeypatch.setattr(cli, "_wave_reference", counted)
        cfg = parse_config(SMALL_WAVE)
        cli.run_wave_limit(cfg, tmp_path)
        assert sum(made) == 3 * 257
        sol = solve_integral(cfg.problem_spec(scheme="integral"))
        reference = original(sol.grid, sol.modes[0], 1.0)
        assert _l2_space_time(sol.grid, sol.times, reference, None, sol.modes) == [
            _l2_space_time(sol.grid, sol.times, reference),
            _l2_space_time(sol.grid, sol.times, sol.modes, reference)]

    def test_no_reference_of_solution_size(self, tmp_path):
        # the reference is made a chunk of rows at a time: the scenario's
        # peak stays within half a row array of one solve's.  A whole
        # reference, alive through the later solves, added a row array
        import tracemalloc

        from viscokern.kernels import WedgeKernel

        text = SMALL_WAVE.replace("n_interior = 48", "n_interior = 32").replace(
            "n_steps = 256", "n_steps = 4096")
        cfg = parse_config(text)
        row_array = 8 * 4097 * 32

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        solve_peak = peak(lambda: solve_integral(cfg.problem_spec(
            kernel=WedgeKernel(2.0, 1.0, 0.05), scheme="integral")))
        study_peak = peak(lambda: cli.run_wave_limit(cfg, tmp_path))
        assert study_peak < solve_peak + row_array / 2


def test_default_configs_parse():
    for scenario, text in cli.DEFAULT_CONFIGS.items():
        cfg = parse_config(text)
        assert cfg is not None


def test_import_does_not_load_scipy():
    # scipy is a test-only oracle: a fresh interpreter importing the
    # package must not pull it in
    src = str(Path(viscokern.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, viscokern; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_does_not_load_numpy_ma(tmp_path):
    # nothing on the mollify study's path needs numpy's masked arrays, whose
    # import takes a noticeable share of a short run
    src = str(Path(viscokern.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys; from viscokern.cli import main; "
            f"code = main(['mollify-study', '--default', '--out', {str(tmp_path)!r}]); "
            "print(code, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.splitlines()[-1] == "0 False"
