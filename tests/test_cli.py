import json
import os
from pathlib import Path

import numpy as np
import pytest

import cfpk.cli
from cfpk.cli import (
    _read_sections,
    _resolve,
    build_config,
    main,
    parse_config,
    parse_path,
    parse_potential,
)
from cfpk.errors import ConfigError

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
        assert cfg.dt == pytest.approx(1e-3)
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
        cfgfile = write(tmp_path, MINIMAL + "\n[run]\nkind = simulate\nT = 0.05\nsolver = both\nh = 0.01\n")
        out = str(tmp_path / "sim")
        code = main(["simulate", "--config", cfgfile, "--out", out])
        assert code == 0
        fv = (tmp_path / "sim" / "trajectory_fv.csv").read_text().splitlines()
        assert fv[0] == "t,sigma,ell,M1,M2,F,S,E,D,eb_residual,Hrel_quasistatic,Hrel_star"
        jko = (tmp_path / "sim" / "trajectory_jko.csv").read_text().splitlines()
        assert jko[0] == "t,sigma,ell,M1,M2,F,S,E,W2sq_step,kkt_residual"
        assert os.path.exists(tmp_path / "sim" / "config_resolved.cfg")

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

    def test_decay_writes_report_and_trajectory(self, tmp_path):
        cfgfile = write(tmp_path, MINIMAL + "\n[run]\nkind = decay\nT = 0.3\nrecord_every = 10\n")
        out = tmp_path / "decay"
        assert main(["decay", "--config", cfgfile, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["decay"]["regime"] == "convex"
        assert (out / "trajectory_fv.csv").exists()

    def test_simulate_reports_steps_not_records(self, tmp_path):
        # 100 steps with a record every 10: 11 records, and "steps" counts steps
        run = "[run]\nsolver = fv\nT = 0.1\ndt = 1e-3\nrecord_every = 10\n"
        text = MINIMAL + "\n[grid]\nn = 256\n\n" + run
        out = tmp_path / "steps"
        assert main(["simulate", "--config", write(tmp_path, text), "--out", str(out)]) == 0
        assert len((out / "trajectory_fv.csv").read_text().splitlines()) == 1 + 11
        assert json.loads((out / "summary.json").read_text())["fv"]["steps"] == 100

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
        # n = 8 fits a negative rate at nu = 1.2; the slope is "nan", not a traceback
        text = (
            "[model]\npotential = doublewell\n\n[path]\nkind = constant:0.2\n\n[grid]\nn = 8\n\n"
            "[run]\ndt = 1e-2\nnu_list = 1.2,1.0,0.9\n"
        )
        out = tmp_path / "sweep8"
        assert main(["kramers-sweep", "--config", write(tmp_path, text), "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["kramers_sweep"]["regression_slope"] == "nan"

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
        assert again.grid.n == 512 and again.dt == pytest.approx(1e-3)

    def test_bad_config_exit_code(self, tmp_path, capsys):
        bad = write(tmp_path, "[model]\npotential = mystery\n")
        assert main(["simulate", "--config", bad]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command,solver", [("verify", "fv"), ("simulate", "fv"), ("simulate", "jko")])
    def test_horizon_below_one_step_takes_one_step(self, tmp_path, monkeypatch, command, solver):
        # T = 1e-16 is far below dt = 1e-3 and h = 0.01: one whole step, not zero
        lengths = []

        def counted(run):
            def wrapper(*args, **kwargs):
                records = run(*args, **kwargs)
                lengths.append(len(records))
                return records
            return wrapper

        monkeypatch.setattr(cfpk.cli, "fv_run", counted(cfpk.cli.fv_run))
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
            assert len((out / "trajectory_jko.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize(
        "nu_list",
        ["0.8,0,0.5", "0.8,-0.6,0.5", "0.8,nan,0.5", "0.8,inf,0.5", "0.8,0.8000001,0.5"],
        ids=["zero", "negative", "nan", "inf", "name-collision"],
    )
    def test_bad_nu_list_exit_code(self, tmp_path, capsys, nu_list):
        text = f"[model]\npotential = doublewell\n\n[grid]\nn = 256\n\n[run]\nnu_list = {nu_list}\n"
        out = tmp_path / "out"
        assert main(["kramers-sweep", "--config", write(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "[run] nu_list" in err and "Traceback" not in err
        assert not out.exists()  # refused at parse time, before any member runs

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
            ("run", "dt", "nan", "fv"),
            ("run", "T", "nan", "fv"),
            ("run", "record_every", "0", "fv"),
            ("run", "T", "nan", "jko"),
            ("run", "T", "-1", "jko"),
            ("run", "h", "0", "jko"),
            ("run", "h", "nan", "jko"),
            ("run", "h", "-0.01", "jko"),
            ("path", "kind", "tanh_ramp:0,1,1000,0.5", "fv"),
            ("run", "verify_eb_tol", "nan", "fv"),
            ("run", "verify_eb_tol", "-1e-3", "fv"),
            ("run", "dt", "1e-300", "fv"),
            ("run", "h", "1e-300", "jko"),
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
        assert main(["simulate", "--config", write(tmp_path, text), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

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
