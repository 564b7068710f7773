import json
import os

import numpy as np
import pytest

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

    @pytest.mark.parametrize(
        "section,key,value,solver",
        [
            ("grid", "n", "7.5", "fv"),
            ("grid", "x_min", "abc", "fv"),
            ("run", "seed", "1.5", "fv"),
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
