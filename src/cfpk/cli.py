"""Configuration parsing and the batch experiment driver.

Configs are plain `key = value` sections; every default is materialized into
the echoed config so a run is reproducible from its output directory alone.
All emitted files are deterministic: fixed CSV column order, 17-significant-
digit floats, JSON with sorted keys.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import Density, Grid, ModelParams
from .equilibrium import landscape, solve_lambda
from .errors import CfpkError, ConfigError
from .fpsolver import run as fv_run
from .functionals import ckp_l1_bound, weighted_ckp
from .longtime import (
    ckp_chain_audit,
    decay_experiment,
    kramers_sweep,
    decay_bound_curve,
    predicted_relaxation_time,
    verify_comparison,
    verify_free_energy_identity,
)
from .records import FPSOLVER_COLUMNS, TRANSPORT_COLUMNS, write_csv
from .sampling import random_density
from .transport import jko_run, sum_w2sq

TAIL_LIMIT = 1e-14

_SCHEMA: dict[str, dict[str, str]] = {
    "model": {"potential": "doublewell", "nu": "1.0", "tau": "1.0"},
    "path": {"kind": "constant:0"},
    "grid": {"x_min": "-12.0", "x_max": "12.0", "n": "1024"},
    "run": {
        "kind": "simulate",
        "solver": "fv",
        "dt": "1e-3",
        "h": "0.01",
        "T": "1.0",
        "seed": "0",
        "initial": "gibbs",
        "nu_list": "0.8,0.6,0.5",
        "ell": "",
        "sigma_min": "-3.0",
        "sigma_max": "3.0",
        "record_every": "1",
        "verify_eb_tol": "1e-3",
    },
}

KINDS = ("simulate", "equilibrium", "landscape", "decay", "kramers_sweep", "verify")


@dataclass
class RunConfig:
    raw: dict[str, dict[str, str]]
    pot: core.Potential
    path: core.ConstraintPath
    grid: Grid
    params: ModelParams
    kind: str
    solver: str
    dt: float
    h: float
    T: float
    seed: int
    initial: str
    nu_list: list[float]
    ell: float | None
    sigma_range: tuple[float, float]
    record_every: int
    verify_eb_tol: float
    out_dir: str = "out"
    tail_report: dict[str, float] = field(default_factory=dict)


def parse_potential(spec: str) -> core.Potential:
    name, _, args = spec.partition(":")
    name = name.strip()
    if name == "quadratic":
        return core.quadratic_potential(float(args or "1"))
    if name == "doublewell":
        return core.doublewell_potential()
    if name == "polynomial":
        if not args:
            raise ConfigError("polynomial potential needs coefficients, e.g. polynomial:0,0,0.5")
        return core.polynomial_potential([float(v) for v in args.split(",")])
    raise ConfigError(f"unknown potential '{spec}'")


def parse_path(spec: str) -> core.ConstraintPath:
    name, _, args = spec.partition(":")
    name = name.strip()
    vals = [float(v) for v in args.split(",")] if args else []
    if name == "constant":
        if len(vals) != 1:
            raise ConfigError("constant path needs one value, e.g. constant:0.5")
        return core.constant_path(vals[0])
    if name == "exp_decay":
        if len(vals) != 3:
            raise ConfigError("exp_decay path needs l_star,A,kappa")
        return core.exp_decay_path(*vals)
    if name == "tanh_ramp":
        if len(vals) != 4:
            raise ConfigError("tanh_ramp path needs l0,l1,t0,w")
        return core.tanh_ramp_path(*vals)
    raise ConfigError(f"unknown constraint path '{spec}'")


def _read_sections(path: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith(("#", ";")):
                continue
            if stripped.startswith("[") and stripped.endswith("]"):
                current = stripped[1:-1].strip()
                sections.setdefault(current, {})
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {lineno}: expected 'key = value', got '{stripped}'")
            if current is None:
                raise ConfigError(f"line {lineno}: key outside any [section]")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key in sections[current]:
                raise ConfigError(f"line {lineno}: duplicate key '{key}' in [{current}]")
            sections[current][key] = value.strip()
    return sections


def _resolve(sections: dict[str, dict[str, str]]) -> dict[str, dict[str, str]]:
    unknown = []
    for sec, kv in sections.items():
        if sec not in _SCHEMA:
            unknown.append(f"[{sec}]")
            continue
        for key in kv:
            if key not in _SCHEMA[sec]:
                unknown.append(f"[{sec}] {key}")
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))
    resolved = {sec: dict(defaults) for sec, defaults in _SCHEMA.items()}
    for sec, kv in sections.items():
        resolved[sec].update(kv)
    return resolved


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _tolerance(text: str) -> float:
    tol = float(text)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError("need a finite tolerance >= 0")
    return tol


def build_config(resolved: dict[str, dict[str, str]], out_dir: str = "out") -> RunConfig:
    def value(section: str, key: str, parse=float):
        """parse([section] key); a value that does not parse is a ConfigError."""
        raw = resolved[section][key]
        try:
            return parse(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw}: {exc}") from exc

    pot = value("model", "potential", parse_potential)
    path = value("path", "kind", parse_path)
    grid = Grid(x_min=value("grid", "x_min"), x_max=value("grid", "x_max"), n=value("grid", "n", int))
    params = ModelParams(tau=value("model", "tau"), nu=value("model", "nu"))
    kind = resolved["run"]["kind"]
    if kind not in KINDS:
        raise ConfigError(f"unknown run kind '{kind}' (expected one of {KINDS})")
    solver = resolved["run"]["solver"]
    if solver not in ("jko", "fv", "both"):
        raise ConfigError(f"unknown solver '{solver}'")
    pot.validate_on(grid)
    cfg = RunConfig(
        raw=resolved,
        pot=pot,
        path=path,
        grid=grid,
        params=params,
        kind=kind,
        solver=solver,
        dt=value("run", "dt"),
        h=value("run", "h"),
        T=value("run", "T"),
        seed=value("run", "seed", int),
        initial=resolved["run"]["initial"],
        nu_list=value("run", "nu_list", _float_list),
        ell=value("run", "ell", lambda v: float(v) if v else None),
        sigma_range=(value("run", "sigma_min"), value("run", "sigma_max")),
        record_every=value("run", "record_every", int),
        verify_eb_tol=value("run", "verify_eb_tol", _tolerance),
        out_dir=out_dir,
    )
    _tail_check(cfg)
    return cfg


def _tail_check(cfg: RunConfig) -> None:
    """Reject grids whose equilibrium boundary tails are not below roundoff;
    record the observed boundary densities for the run summary."""
    nu = cfg.params.nu
    for label, ell in (("ell0", cfg.path.ell(0.0)), ("ell_star", cfg.path.ell_star)):
        try:
            state = solve_lambda(ell, nu, cfg.pot, cfg.grid).state
        except CfpkError as exc:
            raise ConfigError(f"tail check failed to build gamma at {label}={ell}: {exc}") from exc
        boundary = max(float(state.density.values[0]), float(state.density.values[-1]))
        cfg.tail_report[f"boundary_density_{label}"] = boundary
        if boundary > TAIL_LIMIT:
            raise ConfigError(
                f"grid too small: gamma at {label}={ell} has boundary density "
                f"{boundary:.3e} > {TAIL_LIMIT:.0e}; widen [x_min, x_max]"
            )


def parse_config(path: str, out_dir: str = "out") -> RunConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    return build_config(_resolve(_read_sections(path)), out_dir)


def echo_config(cfg: RunConfig) -> str:
    lines = []
    for sec in sorted(cfg.raw):
        lines.append(f"[{sec}]")
        for key in sorted(cfg.raw[sec]):
            lines.append(f"{key} = {cfg.raw[sec][key]}")
        lines.append("")
    return "\n".join(lines)


def _json_dump(obj, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _initial_density(cfg: RunConfig) -> Density:
    spec = cfg.initial
    if spec == "gibbs":
        return solve_lambda(cfg.path.ell(0.0), cfg.params.nu, cfg.pot, cfg.grid).state.density
    name, _, args = spec.partition(":")
    if name == "gaussian":
        try:
            mean, var = _float_list(args)
        except ValueError as exc:
            raise ConfigError(f"[run] initial = {spec}: {exc}") from exc
        return core.gaussian_density(cfg.grid, mean, var)
    raise ConfigError(f"unknown initial condition '{spec}'")


def _summarize_run(records, cfg: RunConfig) -> dict:
    eb = [r.eb_residual for r in records[1:]] or [float("nan")]
    return {
        "final_t": records[-1].t,
        "final_sigma": records[-1].sigma,
        "final_F": records[-1].F,
        "final_Hrel_quasistatic": records[-1].Hrel_quasistatic,
        "final_Hrel_star": records[-1].Hrel_star,
        "max_eb_residual": float(np.nanmax(eb)),
        "max_constraint_gap": float(np.max([abs(r.M1 - r.ell) for r in records])),
        "steps": len(records) - 1,
        "limited_mass": float(sum(r.limited_mass for r in records)),
    }


def run_experiment(cfg: RunConfig) -> int:
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "config_resolved.cfg"), "w") as fh:
        fh.write(echo_config(cfg))
    summary: dict = {"kind": cfg.kind, "tail_report": cfg.tail_report}
    status = 0

    if cfg.kind == "simulate":
        rho0 = _initial_density(cfg)
        if cfg.solver in ("fv", "both"):
            recs = fv_run(
                rho0, cfg.path, cfg.dt, cfg.pot, cfg.params, cfg.T,
                record_every=cfg.record_every,
            )
            write_csv(recs, os.path.join(cfg.out_dir, "trajectory_fv.csv"), FPSOLVER_COLUMNS)
            summary["fv"] = _summarize_run(recs, cfg)
        if cfg.solver in ("jko", "both"):
            recs = jko_run(rho0, cfg.path, cfg.h, cfg.T, cfg.pot, cfg.params)
            write_csv(recs, os.path.join(cfg.out_dir, "trajectory_jko.csv"), TRANSPORT_COLUMNS)
            summary["jko"] = {
                "final_sigma": recs[-1].sigma,
                "final_F": recs[-1].F,
                "sum_W2sq": sum_w2sq(recs),
                "max_kkt_residual": float(np.max([r.kkt_residual for r in recs])),
                "max_constraint_gap": float(np.max([abs(r.M1 - r.ell) for r in recs])),
            }

    elif cfg.kind == "equilibrium":
        ell = cfg.ell if cfg.ell is not None else cfg.path.ell_star
        sol = solve_lambda(ell, cfg.params.nu, cfg.pot, cfg.grid)
        summary["equilibrium"] = {
            "ell": ell,
            "lambda": sol.lam,
            "iterations": sol.iterations,
            "residual": sol.residual,
            "variance": sol.state.variance,
            "log_Z": sol.state.log_z,
        }
        print(f"lambda({ell:g}) = {sol.lam:.12g}")

    elif cfg.kind == "landscape":
        report = landscape(cfg.params.nu, cfg.pot, cfg.grid, sigma_range=cfg.sigma_range)
        summary["landscape"] = report.to_dict()

    elif cfg.kind == "decay":
        rho0 = _initial_density(cfg)
        report = decay_experiment(
            rho0, cfg.path, cfg.params.nu, cfg.pot, cfg.dt, cfg.T,
            tau=cfg.params.tau, record_every=cfg.record_every,
        )
        summary["decay"] = report.to_dict()
        summary["decay"]["limited_mass"] = float(sum(r.limited_mass for r in report.records))
        write_csv(report.records, os.path.join(cfg.out_dir, "trajectory_fv.csv"), FPSOLVER_COLUMNS)

    elif cfg.kind == "kramers_sweep":
        sweep = kramers_sweep(cfg.pot, cfg.path.ell_star, cfg.nu_list, cfg.dt, cfg.grid)
        for nu_val, recs in sweep.pop("trajectories").items():
            write_csv(
                recs, os.path.join(cfg.out_dir, f"trajectory_nu{nu_val:g}.csv"), FPSOLVER_COLUMNS
            )
        summary["kramers_sweep"] = sweep

    elif cfg.kind == "verify":
        contracts = _verify_battery(cfg)
        summary["verify"] = contracts
        failed = [name for name, entry in contracts.items() if not entry["pass"]]
        if failed:
            status = 1
            print(f"verification failed: {failed[0]}", file=sys.stderr)

    _json_dump(summary, os.path.join(cfg.out_dir, "summary.json"))
    return status


def _verify_battery(cfg: RunConfig) -> dict:
    """Named verification contracts; each entry reports the measured value and
    a pass flag.  Exit status of `verify` is 0 iff all pass."""
    rng = np.random.default_rng(cfg.seed)
    nu = cfg.params.nu
    grid, pot = cfg.grid, cfg.pot
    contracts: dict[str, dict] = {}

    # identity suite on random densities
    worst_identity = 0.0
    for _ in range(20):
        rho = random_density(grid, rng)
        eta = float(rng.uniform(-0.8, 0.8))
        worst_identity = max(worst_identity, verify_free_energy_identity(rho, eta, nu, pot, grid))
    contracts["free_energy_identity"] = {"max_residual": worst_identity, "pass": worst_identity <= 1e-8}

    worst_slack = -math.inf
    for _ in range(10):
        ell = float(rng.uniform(-0.6, 0.6))
        rho = random_density(grid, rng, mean=ell)
        eta = float(rng.uniform(-0.8, 0.8))
        rep = verify_comparison(rho, eta, ell, nu, pot, grid)
        worst_slack = max(worst_slack, rep["slack"])
    contracts["relative_entropy_sandwich"] = {"max_slack": worst_slack, "pass": worst_slack <= 1e-8}

    # trajectory audits on the configured model
    rho0 = _initial_density(cfg)
    records = fv_run(
        rho0, cfg.path, cfg.dt, pot, cfg.params, cfg.T,
        record_every=cfg.record_every, keep_densities=True,
    )
    eb_max = float(np.nanmax([r.eb_residual for r in records[1:]]))
    contracts["energy_dissipation_audit"] = {
        "max_eb_residual": eb_max,
        "tolerance": cfg.verify_eb_tol,
        "limited_mass": float(sum(r.limited_mass for r in records)),
        "pass": eb_max <= cfg.verify_eb_tol,
    }

    tau_pred = predicted_relaxation_time(records, nu, pot, grid)
    lam_max = float(np.max(np.abs([r.lam_ell for r in records])))
    sig_max = float(np.max(np.abs([r.sigma for r in records])))
    bound = decay_bound_curve(records, tau_pred, lam_max + sig_max, cfg.path)
    h_vals = np.array([r.Hrel_quasistatic for r in records])
    bound_violation = float(np.max(h_vals - bound))
    contracts["quantitative_decay_bound"] = {
        "predicted_tau": tau_pred,
        "max_violation": bound_violation,
        "pass": bound_violation <= 1e-8 + 1e-3 * cfg.dt * max(1.0, h_vals[0]),
    }

    ckp_worst = ckp_chain_audit(records)
    contracts["ckp_chain"] = {"max_violation": ckp_worst, "pass": ckp_worst <= 1e-8}

    wckp_worst = -math.inf
    cmin = min(pot.growth_constants)
    weight = lambda x: 0.5 * cmin * (1.0 + np.abs(x))  # noqa: E731
    gamma_star = solve_lambda(cfg.path.ell_star, nu, pot, grid).state.density
    stride = max(1, len(records) // 10)
    for r in records[::stride]:
        dens = r.density
        if dens is None:
            continue
        wl1, _, wbound = weighted_ckp(dens, gamma_star, weight)
        wckp_worst = max(wckp_worst, wl1 - wbound)
    for _ in range(5):
        rho = random_density(grid, rng)
        wl1, _, wbound = weighted_ckp(rho, gamma_star, weight)
        l1, cbound = ckp_l1_bound(rho, gamma_star)
        wckp_worst = max(wckp_worst, wl1 - wbound, l1 - cbound)
    contracts["weighted_ckp"] = {"max_violation": wckp_worst, "pass": wckp_worst <= 1e-8}

    if cfg.path.L0 == 0.0:
        f_vals = np.array([r.F for r in records])
        rise = float(np.max(np.diff(f_vals)))
        contracts["monotone_free_energy"] = {
            "max_rise": rise,
            "pass": rise <= 1e-10 + 10.0 * cfg.dt * cfg.dt,
        }
    return contracts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="cfpk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "equilibrium", "landscape", "decay", "kramers-sweep", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="config file (key = value sections)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--solver", choices=("jko", "fv", "both"), default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--ell", type=float, default=None)
        p.add_argument("--nu", type=float, default=None)
        p.add_argument("--potential", default=None)
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            sections = _resolve(_read_sections(args.config))
        else:
            sections = _resolve({})
        sections["run"]["kind"] = args.command.replace("-", "_")
        if args.solver:
            sections["run"]["solver"] = args.solver
        if args.seed is not None:
            sections["run"]["seed"] = str(args.seed)
        if args.ell is not None:
            sections["run"]["ell"] = repr(args.ell)
            sections["path"]["kind"] = f"constant:{args.ell!r}"
        if args.nu is not None:
            sections["model"]["nu"] = repr(args.nu)
        if args.potential is not None:
            sections["model"]["potential"] = args.potential
        cfg = build_config(sections, out_dir=args.out)
        return run_experiment(cfg)
    except CfpkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
