import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import cfpk.cli
import cfpk.fpsolver
import cfpk.longtime
from cfpk.cli import (
    _read_sections,
    _resolve,
    build_config,
    main,
    parse_config,
    parse_path,
    parse_potential,
    run_experiment,
)
from cfpk.core import MAX_CELLS, Grid, ModelParams, exp_decay_path, quadratic_potential
from cfpk.equilibrium import solve_lambda
from cfpk.errors import ConfigError, StepError
from cfpk.records import CSV_BLOCK, write_csv

MINIMAL = """
[model]
potential = quadratic:1
nu = 1.0

[path]
kind = constant:0.5
"""


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestParsing:
    def test_minimal_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL), out_dir=str(tmp_path / "out"))
        assert cfg.grid.n == 1024
        assert cfg.run.dt == pytest.approx(1e-3)
        assert cfg.params.nu == 1.0
        assert cfg.raw["run"]["dt"] == "1e-3"  # defaults materialized

    def test_duplicate_key(self, tmp_path):
        bad = "[model]\npotential = quadratic:1\npotential = doublewell\n"
        with pytest.raises(ConfigError, match="line 3: duplicate key"):
            parse_config(write(tmp_path, bad))

    def test_unknown_key_listed(self, tmp_path):
        bad = MINIMAL + "\n[run]\nwhatever = 3\n"
        with pytest.raises(ConfigError, match="whatever"):
            parse_config(write(tmp_path, bad))

    def test_key_outside_section(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(write(tmp_path, "dt = 1e-3\n"))

    def test_tail_check_rejects_small_grid(self, tmp_path):
        bad = MINIMAL + "\n[grid]\nx_min = -2\nx_max = 2\nn = 64\n"
        with pytest.raises(ConfigError, match="boundary density"):
            parse_config(write(tmp_path, bad))

    def test_tail_report_recorded(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        assert cfg.tail_report["boundary_density_ell0"] < 1e-14

    def test_sweep_tail_report_has_one_entry_per_nu(self, tmp_path):
        # a sweep solves at ell* and each nu_list entry, never at [model] nu
        text = "[model]\npotential = doublewell\nnu = 0.5\n\n[run]\nkind = kramers_sweep\nnu_list = 1.2,1,0.9\n"
        cfg = parse_config(write(tmp_path, text))
        assert set(cfg.tail_report) == {"boundary_density_nu1.2", "boundary_density_nu1", "boundary_density_nu0.9"}
        assert max(cfg.tail_report.values()) < 1e-14

    def test_readme_example_config_parses(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = readme.split("```")[1::2]
        example = next(b for b in blocks if b.lstrip().startswith("[model]"))
        cfg = parse_config(write(tmp_path, example))
        assert cfg.path.name == "exp_decay:0.5,0.3,1" and cfg.run.kind == "verify" and cfg.pot.name == "quadratic:1"

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent/nope.cfg")

    def test_potential_specs(self):
        assert parse_potential("quadratic:2").name == "quadratic:2"
        assert parse_potential("doublewell").name == "doublewell"
        assert parse_potential("polynomial:0,0,0.5").name.startswith("polynomial")
        with pytest.raises(ConfigError):
            parse_potential("mystery")

    def test_path_specs(self):
        assert parse_path("constant:0.3").ell_star == 0.3
        p = parse_path("exp_decay:0.5,0.3,1.0")
        assert p.ell(0.0) == pytest.approx(0.8)
        assert parse_path("tanh_ramp:0,1,2,0.5").ell_star == 1.0
        with pytest.raises(ConfigError):
            parse_path("spline:1,2")


SMALL_VERIFY = """
[model]
potential = quadratic:1
nu = 1.0

[path]
kind = exp_decay:0.5,0.3,1.0

[grid]
x_min = -11.2
x_max = 12.8
n = 512

[run]
kind = verify
T = 0.5
dt = 1e-3
"""


class TestRunExperiment:
    def test_equilibrium_subcommand(self, tmp_path, capsys):
        out = str(tmp_path / "eq")
        code = main(["equilibrium", "--ell", "0.7", "--nu", "1",
                     "--potential", "quadratic:1", "--out", out])
        assert code == 0
        printed = capsys.readouterr().out
        assert "lambda(0.7) = 0.7" in printed
        summary = json.loads((tmp_path / "eq" / "summary.json").read_text())
        assert summary["equilibrium"]["lambda"] == pytest.approx(0.7, abs=1e-9)

    def test_landscape_subcommand(self, tmp_path):
        out = str(tmp_path / "ls")
        code = main(["landscape", "--potential", "doublewell", "--nu", "0.5", "--out", out])
        assert code == 0
        summary = json.loads((tmp_path / "ls" / "summary.json").read_text())
        assert summary["landscape"]["delta_h_star"] == pytest.approx(1.0, abs=1e-2)

    def test_landscape_past_float_range(self, tmp_path):
        # the LSI estimate at sigma = 0 is past float range at nu = 0.05; a
        # strict parser reads the summary, where it is the string "inf"
        out = tmp_path / "ls_small_nu"
        assert main(["landscape", "--potential", "doublewell", "--nu", "0.05", "--out", str(out)]) == 0

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
        samples = summary["landscape"]["lsi_samples"]
        assert [s["sigma"] for s in samples if s["C_lsi"] == "inf"] == [0.0]

    def test_decay_past_float_range(self, tmp_path):
        text = MINIMAL.replace("quadratic:1", "doublewell").replace("nu = 1.0", "nu = 0.05")
        cfgfile = write(tmp_path, text + "\n[run]\nkind = decay\nT = 0.3\nrecord_every = 10\n")
        out = tmp_path / "decay_small_nu"
        assert main(["decay", "--config", cfgfile, "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["decay"]["predicted_tau"] == 0.0

    def test_simulate_writes_csv(self, tmp_path):
        cfgfile = write(tmp_path, MINIMAL + "\n[run]\nkind = simulate\nT = 0.05\nsolver = fv\n")
        out = str(tmp_path / "sim")
        code = main(["simulate", "--config", cfgfile, "--out", out])
        assert code == 0
        fv = (tmp_path / "sim" / "trajectory_fv.csv").read_text().splitlines()
        header = "t,sigma,ell,M1,M2,F,S,E,D,eb_residual,Hrel_quasistatic,Hrel_star,limited_mass,mass_drift"
        assert fv[0] == header
        # the first record has taken no step, so no mass was limited or drifted
        assert fv[1].split(",")[-2:] == ["0", "0"]
        assert os.path.exists(tmp_path / "sim" / "config_resolved.cfg")

    def test_simulate_jko_writes_csv(self, tmp_path):
        cfgfile = write(tmp_path, MINIMAL + "\n[run]\nkind = simulate\nT = 0.05\nsolver = jko\nh = 0.01\n")
        out = str(tmp_path / "sim")
        code = main(["simulate", "--config", cfgfile, "--out", out])
        assert code == 0
        jko = (tmp_path / "sim" / "trajectory_jko.csv").read_text().splitlines()
        # the FV columns the two schemes share, then the JKO step's own two
        header = "t,sigma,ell,M1,M2,F,S,E,D,eb_residual,Hrel_quasistatic,Hrel_star,W2sq_step,kkt_residual"
        assert jko[0] == header
        assert os.path.exists(tmp_path / "sim" / "config_resolved.cfg")

    @pytest.mark.parametrize("command", ["verify", "decay", "kramers-sweep"])
    def test_fv_only_kind_refuses_jko(self, tmp_path, capsys, command):
        # these kinds run the FV solver only; a jko request used to run FV and
        # echo solver = jko with exit code 0
        text = "[model]\npotential = doublewell\n\n[grid]\nn = 256\n\n[run]\nT = 0.01\n"
        out = tmp_path / "out"
        for argv, body in ((["--solver", "jko"], text), ([], text + "solver = jko\n")):
            cfgfile = write(tmp_path, body)
            assert main([command, "--config", cfgfile, "--out", str(out), *argv]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "fv solver only" in err and "Traceback" not in err
            assert not out.exists()

    def test_verify_library_call(self, tmp_path):
        # longtime.verify on the SMALL_VERIFY model, without the CLI: every
        # contract passes, and its block is the CLI's after the JSON round trip
        grid, pot, path = Grid(-11.2, 12.8, 512), quadratic_potential(1.0), exp_decay_path(0.5, 0.3, 1.0)
        rho0 = solve_lambda(path.ell(0.0), 1.0, pot, grid).state.density
        block, traj = cfpk.longtime.verify(rho0, path, pot, ModelParams(tau=1.0, nu=1.0), 1e-3, 0.5, 0)
        assert all(entry["pass"] for entry in block.values()), block
        assert traj["t"][-1] == 0.5
        out = tmp_path / "v"
        assert main(["verify", "--config", write(tmp_path, SMALL_VERIFY), "--out", str(out), "--seed", "0"]) == 0
        assert json.loads(json.dumps(block)) == json.loads((out / "summary.json").read_text())["verify"]

    def test_verify_passes_and_is_deterministic(self, tmp_path):
        cfgfile = write(tmp_path, SMALL_VERIFY)
        outs = []
        for name in ("v1", "v2"):
            out = str(tmp_path / name)
            code = main(["verify", "--config", cfgfile, "--out", out, "--seed", "0"])
            assert code == 0
            outs.append((tmp_path / name / "summary.json").read_bytes())
        assert outs[0] == outs[1]

    def test_verify_convex_config_at_tau(self, tmp_path):
        # the energy-balance audit divides D by tau: at tau = 4 it reads
        # about 2e-5, where |dF/dt + D - tau sigma l'| reads 0.72
        text = (Path(__file__).parent.parent / "configs" / "convex.cfg").read_text()
        cfgfile = write(tmp_path, text.replace("tau = 1.0", "tau = 4"))
        out = tmp_path / "tau4"
        assert main(["verify", "--config", cfgfile, "--out", str(out), "--seed", "0"]) == 0
        audit = json.loads((out / "summary.json").read_text())["verify"]["energy_dissipation_audit"]
        assert audit["max_eb_residual"] <= 1e-3

    def test_verify_reports_contracts(self, tmp_path):
        cfgfile = write(tmp_path, SMALL_VERIFY)
        out = str(tmp_path / "v3")
        assert main(["verify", "--config", cfgfile, "--out", out]) == 0
        summary = json.loads((tmp_path / "v3" / "summary.json").read_text())
        checks = summary["verify"]
        for name in ("free_energy_identity", "relative_entropy_sandwich",
                     "energy_dissipation_audit", "quantitative_decay_bound",
                     "ckp_chain", "weighted_ckp"):
            assert checks[name]["pass"], (name, checks[name])

    def test_failed_contract_exit_code(self, tmp_path, capsys, monkeypatch):
        # at EB_TOL = 0 the energy audit fails: the run returns 1, names the
        # contract on stderr and still writes summary.json
        monkeypatch.setattr(cfpk.longtime, "EB_TOL", 0.0)
        out = tmp_path / "v"
        assert run_experiment(parse_config(write(tmp_path, SMALL_VERIFY), out_dir=str(out))) == 1
        assert capsys.readouterr().err == "verification failed: energy_dissipation_audit\n"
        checks = json.loads((out / "summary.json").read_text())["verify"]
        assert [name for name, entry in checks.items() if not entry["pass"]] == ["energy_dissipation_audit"]

    def test_verify_passes_from_an_off_manifold_gaussian(self, tmp_path):
        # the run translates rho0 onto M^ell(0) and must keep its tails: with
        # the tails cut off the translated state's dissipation is about 7,220
        # and the energy audit reads 3,610
        text = MINIMAL.replace("constant:0.5", "constant:0.2") + "\n[run]\ninitial = gaussian:1.0,0.5\nT = 0.5\n"
        out = tmp_path / "v"
        assert main(["verify", "--config", write(tmp_path, text), "--out", str(out)]) == 0
        assert "initial = gaussian:1.0,0.5" in (out / "config_resolved.cfg").read_text()
        audit = json.loads((out / "summary.json").read_text())["verify"]["energy_dissipation_audit"]
        assert audit["max_eb_residual"] <= 1e-3

    @pytest.mark.parametrize(
        "potential,ell", [("quadratic:1", "0.2"), ("doublewell", "0.3")], ids=["quadratic", "doublewell"]
    )
    def test_verify_passes_at_small_nu(self, tmp_path, potential, ell):
        # at nu = 0.3 the Gibbs references underflow to 0 where the identity
        # suite's random densities are still positive
        out = tmp_path / "v"
        argv = ["verify", "--nu", "0.3", "--potential", potential, "--ell", ell, "--out", str(out)]
        assert main(argv) == 0
        checks = json.loads((out / "summary.json").read_text())["verify"]
        assert all(entry["pass"] for entry in checks.values()), checks

    def test_decay_writes_report_and_trajectory(self, tmp_path):
        cfgfile = write(tmp_path, MINIMAL + "\n[run]\nkind = decay\nT = 0.3\nrecord_every = 10\n")
        out = tmp_path / "decay"
        assert main(["decay", "--config", cfgfile, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["decay"]["regime"] == "convex"
        assert (out / "trajectory_fv.csv").exists()

    def test_simulate_reports_steps_not_records(self, tmp_path, monkeypatch):
        # 100 slots of dt with a record every 10: 11 records, and "steps"
        # counts the steps taken.  The Gibbs start is a fixed point, so the
        # steps grow past dt and no attempt is rejected: one step per call
        calls = []
        advance = cfpk.fpsolver._advance
        monkeypatch.setattr(cfpk.fpsolver, "_advance", lambda *args: calls.append(0) or advance(*args))
        run = "[run]\nsolver = fv\nT = 0.1\ndt = 1e-3\nrecord_every = 10\n"
        text = MINIMAL + "\n[grid]\nn = 256\n\n" + run
        out = tmp_path / "steps"
        assert main(["simulate", "--config", write(tmp_path, text), "--out", str(out)]) == 0
        assert len((out / "trajectory_fv.csv").read_text().splitlines()) == 1 + 11
        steps = json.loads((out / "summary.json").read_text())["fv"]["steps"]
        assert steps == len(calls) and 10 < steps < 100

    def test_kramers_sweep_honours_tau(self, tmp_path):
        # time scales with tau, so every fitted rate halves at tau = 2
        rates = {}
        for tau in ("1.0", "2.0"):
            text = (
                f"[model]\npotential = doublewell\ntau = {tau}\n\n[grid]\nn = 256\n\n"
                "[run]\ndt = 2e-3\nnu_list = 1.2,1.0,0.9\n"
            )
            out = tmp_path / f"tau{tau}"
            assert main(["kramers-sweep", "--config", write(tmp_path, text), "--out", str(out)]) == 0
            entries = json.loads((out / "summary.json").read_text())["kramers_sweep"]["entries"]
            rates[tau] = [e["fitted_rate"] for e in entries]
        for slow, fast in zip(rates["2.0"], rates["1.0"]):
            assert slow == pytest.approx(0.5 * fast, rel=1e-3)

    def test_kramers_sweep_dt_is_a_floor(self, tmp_path):
        # a configured dt below horizon / 3e5 and 0.012 is each member's step
        text = (
            "[model]\npotential = doublewell\n\n[grid]\nn = 256\n\n"
            "[run]\ndt = 1e-3\nnu_list = 1.2,1.0,0.9\n"
        )
        out = tmp_path / "sweep"
        assert main(["kramers-sweep", "--config", write(tmp_path, text), "--out", str(out)]) == 0
        entries = json.loads((out / "summary.json").read_text())["kramers_sweep"]["entries"]
        assert [e["dt"] for e in entries] == [1e-3] * 3

    def test_kramers_sweep_rate_below_zero(self, tmp_path):
        # at n = 8 the nu = 1.2 trace rises: its rate and the slope are "nan", not a traceback
        text = (
            "[model]\npotential = doublewell\n\n[path]\nkind = constant:0.2\n\n[grid]\nn = 8\n\n"
            "[run]\ndt = 1e-2\nnu_list = 1.2,1.0,0.9\n"
        )
        out = tmp_path / "sweep8"
        assert main(["kramers-sweep", "--config", write(tmp_path, text), "--out", str(out)]) == 0
        block = json.loads((out / "summary.json").read_text())["kramers_sweep"]
        assert block["regression_slope"] == "nan"
        assert block["entries"][0]["fitted_rate"] == "nan"

    def test_decay_rising_trace_has_no_rate(self, tmp_path):
        # the shipped convex config starts at the Gibbs state, so H(rho|gamma)
        # only rises from 0 on the constraint drift's noise (to about 3e-10):
        # a trace that rises is not a decay rate
        config = str(Path(__file__).parent.parent / "configs" / "convex.cfg")
        out = tmp_path / "decay"
        assert main(["decay", "--config", config, "--out", str(out)]) == 0
        block = json.loads((out / "summary.json").read_text())["decay"]
        assert block["fitted_rate"] == "nan" and block["short_window"] is True
        header, *rows = (out / "trajectory_fv.csv").read_text().splitlines()
        column = header.split(",").index("Hrel_quasistatic")
        assert max(float(row.split(",")[column]) for row in rows[:: max(1, len(rows) // 400)]) < 1e-8

    def test_one_ell_per_run(self, tmp_path, capsys):
        # the equilibrium target is the path's ell*, so the tail check sees it;
        # on the default double well a [run] ell = 11.5 key used to skip that
        # check and report lambda = 20.4 at boundary density 1.38, exit code 0
        run = "[run]\nkind = equilibrium\n"
        for text, message in (
            (run + "ell = 11.5\n", "unknown config keys: [run] ell"),
            ("[path]\nkind = constant:11.5\n\n" + run, "boundary density"),
        ):
            cfgfile = write(tmp_path, text)
            assert main(["equilibrium", "--config", cfgfile, "--out", str(tmp_path / "eq")]) == 2
            assert message in capsys.readouterr().err
        assert main(["equilibrium", "--ell", "11.5", "--out", str(tmp_path / "eq")]) == 2
        assert "boundary density" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,model,path,extra",
        [
            # the reference Gibbs state underflows to 0 on cells where rho > 0
            ("simulate", "quadratic:1\nnu = 0.3", "exp_decay:0.2,0.1,1.0", "[run]\nT = 0.01\n"),
            ("decay", "doublewell\nnu = 0.3", "exp_decay:0.3,0.4,1.0", "[run]\nT = 0.2\n"),
            ("simulate", "polynomial:0,0,0.5,0,0.1\nnu = 1", "tanh_ramp:0,0.5,0.5,0.2",
             "[grid]\nn = 256\n\n[run]\nT = 0.05\n"),
        ],
        ids=["quadratic", "doublewell", "polynomial"],
    )
    def test_reference_underflow_completes(self, tmp_path, command, model, path, extra):
        text = f"[model]\npotential = {model}\n\n[path]\nkind = {path}\n\n{extra}"
        out = tmp_path / "out"
        assert main([command, "--config", write(tmp_path, text), "--out", str(out)]) == 0
        rows = (out / "trajectory_fv.csv").read_text().splitlines()
        header = rows[0].split(",")
        cols = [header.index("Hrel_quasistatic"), header.index("Hrel_star")]
        values = np.array([[float(row.split(",")[c]) for c in cols] for row in rows[1:]])
        assert len(values) > 1 and np.all(np.isfinite(values))

    def test_echoed_config_reparses_identically(self, tmp_path):
        cfgfile = write(tmp_path, SMALL_VERIFY)
        out = tmp_path / "echo"
        assert main(["simulate", "--config", cfgfile, "--out", str(out)]) == 0
        echoed = out / "config_resolved.cfg"
        sections = _resolve(_read_sections(str(echoed)))
        again = build_config(sections, out_dir=str(out))
        assert again.grid.n == 512 and again.run.dt == pytest.approx(1e-3)

    def test_bad_config_exit_code(self, tmp_path, capsys):
        bad = write(tmp_path, "[model]\npotential = mystery\n")
        assert main(["simulate", "--config", bad]) == 2
        assert "error:" in capsys.readouterr().err

    def test_overflowing_nu_squared_exit_code(self, tmp_path, capsys):
        # nu = 1e200 is finite, but nu^2 is inf
        argv = ["equilibrium", "--nu", "1e200", "--ell", "0.1", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nu_squared" in err and "Traceback" not in err

    @pytest.mark.parametrize("command,solver", [("verify", "fv"), ("simulate", "fv"), ("simulate", "jko")])
    def test_horizon_below_one_step_takes_one_step(self, tmp_path, monkeypatch, command, solver):
        # T = 1e-16 is far below dt = 1e-3 and h = 0.01: one whole step, not zero
        lengths = []

        def counted(run):
            def wrapper(*args, **kwargs):
                traj = run(*args, **kwargs)
                lengths.append(len(traj["t"]))
                return traj
            return wrapper

        monkeypatch.setattr(cfpk.cli, "fv_run", counted(cfpk.cli.fv_run))
        monkeypatch.setattr(cfpk.longtime, "fv_run", counted(cfpk.longtime.fv_run))
        monkeypatch.setattr(cfpk.cli, "jko_run", counted(cfpk.cli.jko_run))
        text = f"[model]\npotential = quadratic:1\n\n[grid]\nn = 256\n\n[run]\nsolver = {solver}\nT = 1e-16\n"
        out = tmp_path / "out"
        assert main([command, "--config", write(tmp_path, text), "--out", str(out)]) == 0
        # FV records t = 0 and the step; JKO records the step only
        assert lengths == [2 if solver == "fv" else 1]
        summary = json.loads((out / "summary.json").read_text())
        if command == "verify":
            assert np.isfinite(summary["verify"]["energy_dissipation_audit"]["max_eb_residual"])
        elif solver == "fv":
            assert summary["fv"]["steps"] == 1 and np.isfinite(summary["fv"]["max_eb_residual"])
        else:
            # one row, so no energy-balance interval
            assert len((out / "trajectory_jko.csv").read_text().splitlines()) == 2
            assert summary["jko"]["max_eb_residual"] == "nan"

    @pytest.mark.parametrize("nu_list", ["0.17,0.5,0.8", "0.5,0.8,0.17"])
    def test_unresolved_gap_exit_code(self, tmp_path, capsys, monkeypatch, nu_list):
        # mu_1 at nu = 0.17 is below gap_rate's precision floor on the
        # default grid (n = 1024): refused before any member takes a step
        def no_step(*args):
            raise AssertionError("a member ran")

        monkeypatch.setattr(cfpk.fpsolver, "_advance", no_step)
        text = f"[model]\npotential = doublewell\n\n[run]\nnu_list = {nu_list}\n"
        out = tmp_path / "out"
        assert main(["kramers-sweep", "--config", write(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "precision floor" in err and "Traceback" not in err
        assert not (out / "summary.json").exists()
        error = json.loads((out / "error.json").read_text())
        assert error["error"] == "SolverError" and "precision floor" in error["message"]
        assert set(error["diagnostics"]) == {"mu1", "floor", "nu", "n"}
        assert error["diagnostics"]["nu"] == 0.17 and error["diagnostics"]["n"] == 1024

    def test_step_error_writes_diagnostics(self, tmp_path, capsys, monkeypatch):
        # a StepError in the run exits 2 with the same stderr line and leaves
        # its diagnostics, with the failed step's number, in error.json
        advance = cfpk.fpsolver._advance
        calls = []

        def fail_at_3(*args):
            calls.append(None)
            if len(calls) == 3:
                raise StepError("injected step failure", diagnostics={"stage": "trapezoid"})
            return advance(*args)

        monkeypatch.setattr(cfpk.fpsolver, "_advance", fail_at_3)
        text = MINIMAL + "\n[grid]\nn = 256\n\n[run]\nsolver = fv\nT = 0.01\n"
        out = tmp_path / "out"
        assert main(["simulate", "--config", write(tmp_path, text), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: injected step failure\n"
        error = json.loads((out / "error.json").read_text())
        assert error == {
            "error": "StepError",
            "message": "injected step failure",
            "diagnostics": {"stage": "trapezoid", "step": 3},
        }
        assert not (out / "summary.json").exists()
        assert (out / "config_resolved.cfg").exists()

    @pytest.mark.parametrize(
        "nu_list",
        ["0.8,0,0.5", "0.8,-0.6,0.5", "0.8,nan,0.5", "0.8,inf,0.5", "0.8,0.8000001,0.5", "1.2,1.0"],
        ids=["zero", "negative", "nan", "inf", "name-collision", "two-levels"],
    )
    def test_bad_nu_list_exit_code(self, tmp_path, capsys, nu_list):
        text = f"[model]\npotential = doublewell\n\n[grid]\nn = 256\n\n[run]\nnu_list = {nu_list}\n"
        out = tmp_path / "out"
        assert main(["kramers-sweep", "--config", write(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "[run] nu_list" in err and "Traceback" not in err
        assert not out.exists()  # refused at parse time, before any member runs

    @pytest.mark.parametrize(
        "command,solver,section,key,value",
        [
            # a sweep member picks its own horizon, record spacing and start
            ("kramers-sweep", "fv", "run", "T", "5"),
            ("kramers-sweep", "fv", "run", "record_every", "5"),
            ("kramers-sweep", "fv", "run", "h", "0.1"),
            ("kramers-sweep", "fv", "run", "initial", "gaussian:0.5,1"),
            ("kramers-sweep", "fv", "run", "sigma_min", "-9"),
            # a sweep runs at the path's ell* only
            ("kramers-sweep", "fv", "path", "kind", "exp_decay:0,0.4,1"),
            ("kramers-sweep", "fv", "path", "kind", "tanh_ramp:0,1,1,0.5"),
            # the jko chain steps by h and records every step
            ("simulate", "jko", "run", "record_every", "5"),
            ("simulate", "jko", "run", "dt", "7"),
            ("simulate", "jko", "run", "nu_list", "1,2,3"),
            ("simulate", "jko", "run", "sigma_max", "9"),
            # the FV kinds step by dt
            ("simulate", "fv", "run", "h", "7"),
            ("simulate", "fv", "run", "sigma_min", "-9"),
            ("decay", "fv", "run", "h", "5"),
            ("decay", "fv", "run", "nu_list", "1,2,3"),
            ("decay", "fv", "run", "sigma_min", "-9"),
            ("verify", "fv", "run", "h", "0.1"),
            ("verify", "fv", "run", "sigma_max", "9"),
            ("verify", "fv", "run", "nu_list", "1,2,3"),
            # neither kind takes a step or builds a start
            ("equilibrium", "jko", "run", "solver", "jko"),
            ("equilibrium", "fv", "run", "sigma_min", "-9"),
            ("equilibrium", "fv", "run", "nu_list", "1,2,3"),
            ("equilibrium", "fv", "run", "initial", "gaussian:0.5,1"),
            ("landscape", "jko", "run", "solver", "jko"),
            ("landscape", "fv", "run", "nu_list", "1,2,3"),
            ("landscape", "fv", "run", "initial", "gaussian:0.5,1"),
        ],
    )
    def test_refuses_keys_it_does_not_read(self, tmp_path, capsys, command, solver, section, key, value):
        # a key the run would ignore is refused at parse time, naming it
        sections = {"model": {"potential": "doublewell"}, "path": {}, "grid": {"n": "256"}, "run": {"solver": solver}}
        sections[section][key] = value
        text = "".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items()) for sec, kv in sections.items())
        out = tmp_path / "out"
        assert main([command, "--config", write(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: [{section}] {key} = {value}: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind,solver,key,value",
        [
            ("simulate", "fv", "dt", "2e-3"),
            ("simulate", "fv", "T", "0.5"),
            ("simulate", "fv", "initial", "gaussian:0.5,1"),
            ("simulate", "fv", "record_every", "5"),
            ("decay", "fv", "dt", "2e-3"),
            ("decay", "fv", "T", "0.5"),
            ("decay", "fv", "initial", "gaussian:0.5,1"),
            ("decay", "fv", "record_every", "5"),
            ("verify", "fv", "dt", "2e-3"),
            ("verify", "fv", "T", "0.5"),
            ("verify", "fv", "initial", "gaussian:0.5,1"),
            ("verify", "fv", "record_every", "5"),
            ("simulate", "jko", "h", "0.02"),
            ("simulate", "jko", "T", "0.5"),
            ("simulate", "jko", "initial", "gaussian:0.5,1"),
            ("kramers_sweep", "fv", "dt", "2e-3"),
            ("kramers_sweep", "fv", "nu_list", "1.2,1.0,0.9"),
            ("landscape", "fv", "sigma_min", "-2"),
            ("landscape", "fv", "sigma_max", "2"),
        ],
    )
    def test_parses_each_key_it_reads(self, tmp_path, kind, solver, key, value):
        # every [run] key written out at its default, the tested one off it, and a seed
        run = {k: default for k, (default, _) in cfpk.cli._SCHEMA["run"].items()}
        run.update(kind=kind, solver=solver, seed="3", **{key: value})
        text = MINIMAL + "\n[grid]\nn = 256\n\n[run]\n" + "".join(f"{k} = {v}\n" for k, v in run.items())
        cfg = parse_config(write(tmp_path, text))
        assert (cfg.run.kind, cfg.run.solver, cfg.run.seed, cfg.raw["run"][key]) == (kind, solver, 3, value)

    def test_every_run_key_is_read(self):
        reads = cfpk.cli._RUN_READS
        read = {key for keys in reads.values() for key in keys}
        assert read == set(cfpk.cli._SCHEMA["run"]) - {"kind", "solver", "seed"}
        assert all((kind, "fv") in reads for kind in cfpk.cli.KINDS)

    @pytest.mark.parametrize("command", ["equilibrium", "landscape"])
    @pytest.mark.parametrize("key,value", [("T", "5"), ("dt", "0.01"), ("h", "0.1"), ("record_every", "5")])
    def test_stepless_kinds_refuse_stepping_keys(self, tmp_path, capsys, command, key, value):
        # neither kind takes a time step, so it would ignore these: refused at
        # parse time, naming the key; the defaults written out and a seed parse
        text = "[model]\npotential = quadratic:1\n\n[grid]\nn = 256\n\n[run]\n"
        out = tmp_path / "out"
        cfgfile = write(tmp_path, text + f"{key} = {value}\n")
        assert main([command, "--config", cfgfile, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: [run] {key} = {value}: {command} with solver = fv does not read it")
        assert "Traceback" not in err and not out.exists()
        defaults = text + f"kind = {command}\nT = 1\ndt = 1e-3\nh = 0.01\nrecord_every = 1\nseed = 3\n"
        assert parse_config(write(tmp_path, defaults)).run.seed == 3

    def test_sweep_tail_check_uses_each_nu(self, tmp_path, capsys):
        # [model] nu = 0.5 has thin tails on [-5, 5], the members' noise levels do not
        text = (
            "[model]\npotential = doublewell\nnu = 0.5\n\n[grid]\nx_min = -5\nx_max = 5\nn = 256\n\n"
            "[run]\nnu_list = 2.0,1.6,1.3\n"
        )
        out = tmp_path / "out"
        assert main(["kramers-sweep", "--config", write(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid too small: gamma at ell=0.0, nu=2 ") and not out.exists()

    @pytest.mark.parametrize(
        "command,initial",
        [("landscape", "bogus"), ("simulate", "gaussian:0,-1"), ("simulate", "gaussian:100,0.5")],
        ids=["landscape", "simulate", "off-grid"],
    )
    def test_bad_initial_refused_at_parse_time(self, tmp_path, capsys, command, initial):
        # every kind checks the spec, also one that builds no initial
        # density, before the output directory exists; a Gaussian with its
        # mass off the grid has no mass to normalize
        text = f"[model]\npotential = quadratic:1\n\n[grid]\nn = 256\n\n[run]\ninitial = {initial}\n"
        out = tmp_path / "out"
        assert main([command, "--config", write(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "[run] initial" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section,key,value,solver",
        [
            ("grid", "n", "7.5", "fv"),
            ("grid", "x_min", "abc", "fv"),
            ("run", "seed", "1.5", "fv"),
            ("run", "seed", "-1", "fv"),
            ("run", "sigma_min", "4", "fv"),
            ("run", "sigma_max", "nan", "fv"),
            ("run", "sigma_min", "-inf", "fv"),
            ("run", "nu_list", "0.5,abc", "fv"),
            ("run", "initial", "gaussian:0,abc", "fv"),
            ("model", "tau", "nan", "fv"),
            ("model", "nu", "nan", "fv"),
            ("model", "potential", "doublewell:3", "fv"),
            ("run", "dt", "nan", "fv"),
            ("run", "T", "nan", "fv"),
            ("run", "record_every", "0", "fv"),
            ("run", "T", "nan", "jko"),
            ("run", "T", "-1", "jko"),
            ("run", "h", "0", "jko"),
            ("run", "h", "nan", "jko"),
            ("run", "h", "-0.01", "jko"),
            ("path", "kind", "tanh_ramp:0,1,1000,0.5", "fv"),
            ("path", "kind", "exp_decay:0,1,nan", "fv"),
            ("model", "potential", "quadratic:nan", "fv"),
            ("model", "potential", "polynomial:-1,0,1", "fv"),
            ("model", "potential", "polynomial", "fv"),
            ("path", "kind", "constant:0.5,1", "fv"),
            ("path", "kind", "exp_decay:0,1", "fv"),
            ("path", "kind", "tanh_ramp:0,1,2", "fv"),
            ("run", "dt", "1e-300", "fv"),
            ("run", "h", "1e-300", "jko"),
            ("run", "T", "1e9", "fv"),
            ("run", "solver", "both", "fv"),
            # the subcommand sets the kind, yet the config's own value is checked
            ("run", "kind", "bogus", "fv"),
        ],
    )
    def test_bad_value_exit_code(self, tmp_path, capsys, section, key, value, solver):
        sections = {
            "model": {"potential": "quadratic:1"},
            "path": {},
            "grid": {},
            "run": {"solver": solver, "T": "0.01"},
        }
        sections[section][key] = value
        text = "".join(
            f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items()) for sec, kv in sections.items()
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", write(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        # refused while the config is parsed, naming the key, before any output;
        # T/dt past MAX_STEPS names the step
        lead = "[run] dt" if key == "T" and value == "1e9" else f"[{section}] {key}"
        assert err.startswith(f"error: {lead}") and not out.exists()

    @pytest.mark.parametrize(
        "command,text,lead",
        [
            ("simulate", "[bogus]\nx = 1\n", "unknown config keys: [bogus]"),
            ("simulate", "[model]\npotential quadratic:1\n", "line 2: expected 'key = value'"),
            # only landscape reads sigma_min and sigma_max; the lead echoes the config text
            ("landscape", "[run]\nsigma_min = 5\n", "[run] sigma_min = 5: need sigma_min < sigma_max = 3.0"),
            ("simulate", "[path]\nkind = constant:50\n", "tail check failed to build gamma at ell=50.0"),
            ("simulate", "[grid]\nn = 100000000000\n", f"[grid]: need 8 <= n <= {MAX_CELLS}"),
            # steps below MIN_STEP: ERR_TOL dt^2 underflows to 0, and (tau/h)^2 overflows at h = 1e-160 too
            ("simulate", "[model]\npotential = quadratic:1\n\n[run]\nT = 1e-300\ndt = 1e-305\n",
             "[run] dt = 1e-305: a step of 1e-305 is below the floor of 1e-100"),
            ("simulate", "[model]\npotential = quadratic:1\n\n[run]\nsolver = jko\nT = 1e-300\nh = 1e-305\n",
             "[run] h = 1e-305: a step of 1e-305 is below the floor of 1e-100"),
            ("simulate", "[model]\npotential = quadratic:1\n\n[run]\nsolver = jko\nT = 1e-160\nh = 1e-160\n",
             "[run] h = 1e-160: a step of 1e-160 is below the floor of 1e-100"),
            # the jko dissipation's (tau/h)^2 overflows at the default h = 0.01 too
            ("simulate", "[model]\ntau = 1e300\n\n[run]\nsolver = jko\n",
             "[model] tau = 1e300 and [run] h = 0.01: (tau/h)^2 = (1e+300/0.01)^2 is not finite"),
        ],
        ids=["unknown-section", "no-equals", "sigma-range", "tail-solve", "oversized-grid", "dt-floor", "h-floor",
             "h-floor-overflow", "tau-overflow"],
    )
    def test_refused_config_exit_code(self, tmp_path, capsys, command, text, lead):
        out = tmp_path / "out"
        assert main([command, "--config", write(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {lead}") and "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize(
        "case", ["config-directory", "config-not-utf8", "config-missing", "out-is-a-file"]
    )
    def test_unreadable_input_exit_code(self, tmp_path, capsys, case):
        cfgfile = write(tmp_path, "[model]\npotential = quadratic:1\n\n[grid]\nn = 256\n\n[run]\nT = 0.01\n")
        out = tmp_path / "out"
        if case == "config-directory":
            cfgfile = str(tmp_path)
        elif case == "config-not-utf8":
            (tmp_path / "run.cfg").write_bytes("[model]\n# r\u00e9gime\nnu = 1.0\n".encode("latin-1"))
        elif case == "config-missing":
            cfgfile = str(tmp_path / "nope.cfg")
        else:
            out.write_text("")
        assert main(["simulate", "--config", cfgfile, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert out.is_file() if case == "out-is-a-file" else not out.exists()


class TestPolynomialDomain:
    def test_landscape_certifies_on_the_configured_grid(self, tmp_path):
        # H'' = 224 - 30x + x^2 is -1 at x = 15: convex on [-10, 10] but not
        # on the [-20, 20] grid, so no convexity certificate may be declared
        text = (
            "[model]\npotential = polynomial:0,0,112,-5,0.08333333333333333\n\n"
            "[grid]\nx_min = -20.0\nx_max = 20.0\nn = 1024\n"
        )
        out = tmp_path / "poly"
        assert main(["landscape", "--config", write(tmp_path, text), "--out", str(out)]) == 0
        samples = json.loads((out / "summary.json").read_text())["landscape"]["lsi_samples"]
        assert {s["method"] for s in samples} == {"holley_stroock"}


class TestWriteCsv:
    def test_special_values_match_format_spec(self, tmp_path):
        values = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.5e-310, 1.0 / 3.0, -1e300]
        columns = {"t": np.array(values), "sigma": -np.array(values), "ell": np.zeros(len(values)),
                   "M1": np.array(values)}
        path = tmp_path / "rows.csv"
        write_csv(columns, str(path), ["t", "sigma", "M1"])
        expected = "t,sigma,M1\n" + "".join(f"{v:.17g},{-v:.17g},{v:.17g}\n" for v in values)
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK, CSV_BLOCK + 1])
    def test_blocks_write_the_single_join_bytes(self, tmp_path, rows):
        # rows go out CSV_BLOCK at a time, as the bytes of one join of every row
        rng = np.random.default_rng(rows)
        special = np.array([math.nan, math.inf, -math.inf, -0.0])
        columns = {c: np.resize(np.concatenate([special, rng.normal(size=rows)]), rows) for c in ("t", "F", "D")}
        columns["steps"] = np.arange(rows)
        names = ["t", "steps", "F", "D"]
        path = tmp_path / "rows.csv"
        write_csv(columns, str(path), names)
        lines = [",".join(names)]
        lines.extend(",".join(["%.17g"] * 4) % v for v in zip(*(columns[c].tolist() for c in names)))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


SMALL_MODEL = "[model]\npotential = {pot}\nnu = 1.0\n\n[path]\nkind = {path}\n\n[grid]\nn = {n}\n\n"

# each kind's summary.json block keys
SUMMARY_BLOCKS = [
    ("simulate", "fv", SMALL_MODEL.format(pot="quadratic:1", path="constant:0.5", n=256)
     + "[run]\nsolver = fv\nT = 0.05\n",
     {"final_F", "final_Hrel_quasistatic", "final_Hrel_star", "final_sigma", "final_t",
      "limited_mass", "max_constraint_gap", "max_eb_residual", "steps"}, {}),
    ("simulate", "jko", SMALL_MODEL.format(pot="quadratic:1", path="constant:0.5", n=256)
     + "[run]\nsolver = jko\nT = 0.05\n",
     {"final_F", "final_Hrel_quasistatic", "final_Hrel_star", "final_sigma", "final_t",
      "max_constraint_gap", "max_eb_residual", "max_kkt_residual", "sum_W2sq"}, {}),
    ("decay", "decay", SMALL_MODEL.format(pot="doublewell", path="exp_decay:0.3,0.4,1.0", n=256)
     + "[run]\nT = 0.3\nrecord_every = 10\n",
     {"C_ell_sigma", "bound_max_violation", "fitted_rate", "limited_mass", "predicted_tau",
      "regime", "short_window"}, {}),
    ("landscape", "landscape", SMALL_MODEL.format(pot="doublewell", path="constant:0", n=256),
     {"C_var", "c_var", "delta_h_star", "lsi_samples", "sigma_intervals", "spinodal_measure"},
     {"lsi_samples": {"C_lsi", "method", "sigma"}}),
    ("kramers-sweep", "kramers_sweep", SMALL_MODEL.format(pot="doublewell", path="constant:0.2", n=16)
     + "[run]\ndt = 1e-2\nnu_list = 1.2,1.0,0.9\n",
     {"delta_h_star", "entries", "partial", "regression_slope"},
     {"entries": {"dt", "fit_over_gap", "fitted_rate", "gap_rate", "horizon", "limited_mass", "nu",
                  "predicted_scale", "ratio", "regime", "short_window", "steps"}}),
    ("equilibrium", "equilibrium", SMALL_MODEL.format(pot="quadratic:1", path="constant:0.7", n=256),
     {"ell", "iterations", "lambda", "log_Z", "residual", "variance"}, {}),
    ("verify", "verify", SMALL_MODEL.format(pot="quadratic:1", path="constant:0.5", n=256)
     + "[run]\nT = 0.05\n",
     {"ckp_chain", "energy_dissipation_audit", "free_energy_identity", "monotone_free_energy",
      "quantitative_decay_bound", "relative_entropy_sandwich", "weighted_ckp"}, {}),
]


class TestSummaryBlocks:
    @pytest.mark.parametrize(
        "command,block,text,keys,nested", SUMMARY_BLOCKS, ids=[b[1] for b in SUMMARY_BLOCKS]
    )
    def test_block_keys_and_byte_identical_trees(self, tmp_path, command, block, text, keys, nested):
        cfgfile = write(tmp_path, text)
        trees = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main([command, "--config", cfgfile, "--out", str(out)]) == 0
            trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert trees[0] == trees[1]
        summary = json.loads(trees[0]["summary.json"])
        assert set(summary) == {"kind", "tail_report", block}
        assert set(summary[block]) == keys
        for key, item_keys in nested.items():
            assert summary[block][key] and all(set(item) == item_keys for item in summary[block][key])
