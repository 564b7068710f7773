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
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from . import core
from .core import Density, Grid, ModelParams
from .equilibrium import landscape, solve_lambda
from .errors import CfpkError, ConfigError
from .fpsolver import run as fv_run
from .longtime import decay_experiment, kramers_sweep, verify
from .records import FPSOLVER_COLUMNS, TRANSPORT_COLUMNS, total_limited_mass, write_csv
from .transport import jko_run

TAIL_LIMIT = 1e-14

KINDS = ("simulate", "equilibrium", "landscape", "decay", "kramers_sweep", "verify")


@dataclass
class RunConfig:
    raw: dict[str, dict[str, str]]
    pot: core.Potential
    path: core.ConstraintPath
    grid: Grid
    params: ModelParams
    run: SimpleNamespace  # the [run] keys, each parsed by its _SCHEMA entry; `initial` is built on the grid
    out_dir: str = "out"
    tail_report: dict[str, float] = field(default_factory=dict)


def parse_potential(spec: str, grid: Grid | None = None) -> core.Potential:
    name, _, args = spec.partition(":")
    name = name.strip()
    if name == "quadratic":
        return core.quadratic_potential(float(args or "1"))
    if name == "doublewell":
        if args:
            raise ConfigError(f"doublewell potential takes no arguments, got '{spec}'")
        return core.doublewell_potential()
    if name == "polynomial":
        if not args:
            raise ConfigError("polynomial potential needs coefficients, e.g. polynomial:0,0,0.5")
        return core.polynomial_potential([float(v) for v in args.split(",")], grid)
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
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    sections: dict[str, dict[str, str]] = {}
    current = None
    for lineno, line in enumerate(text.split("\n"), start=1):
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
    resolved = {sec: {key: default for key, (default, _) in keys.items()} for sec, keys in _SCHEMA.items()}
    for sec, kv in sections.items():
        resolved[sec].update(kv)
    return resolved


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _above(kind: Callable[[str], Any], low: float) -> Callable[[str], Any]:
    """A parser of `kind` values that are finite and > low."""

    def parse(text: str):
        value = kind(text)
        if not low < value < math.inf:
            raise ValueError(f"need a finite value > {low:g}")
        return value

    return parse


_FINITE, _POSITIVE = _above(float, -math.inf), _above(float, 0.0)


def _one_of(*choices: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return text

    return parse


def _nu_list(text: str) -> list[float]:
    """Noise levels of a sweep: finite, > 0, and distinct under the
    `trajectory_nu{nu:g}.csv` names they are written to."""
    nus = _float_list(text)
    for nu in nus:
        if not (math.isfinite(nu) and nu > 0.0):
            raise ValueError(f"need finite noise levels > 0, got {nu}")
    names = [f"{nu:g}" for nu in nus]
    if len(set(names)) != len(names):
        raise ValueError(f"noise levels collide in their file names nu{{nu:g}}: {names}")
    return nus


def _initial(text: str) -> tuple[float, float] | None:
    """`gibbs` (None), or `gaussian:m,v` with finite m and finite v > 0 as
    (m, v)."""
    if text == "gibbs":
        return None
    name, _, args = text.partition(":")
    if name != "gaussian":
        raise ValueError("expected gibbs or gaussian:mean,var")
    mean, var = _float_list(args)
    if not (math.isfinite(mean) and math.isfinite(var) and var > 0.0):
        raise ValueError("need a finite mean and a finite variance > 0")
    return mean, var


# Every config key, by section: its default and the parser that turns its
# text into its value, raising ValueError or a CfpkError on a bad one.  The
# potential stays a spec here, because build_config builds it on its grid.
_SCHEMA: dict[str, dict[str, tuple[str, Callable[[str], Any]]]] = {
    "model": {"potential": ("doublewell", str), "nu": ("1.0", _POSITIVE), "tau": ("1.0", _POSITIVE)},
    "path": {"kind": ("constant:0", parse_path)},
    "grid": {"x_min": ("-12.0", _FINITE), "x_max": ("12.0", _FINITE), "n": ("1024", int)},
    "run": {
        "kind": ("simulate", _one_of(*KINDS)),
        "solver": ("fv", _one_of("fv", "jko")),
        "dt": ("1e-3", _POSITIVE),
        "h": ("0.01", _POSITIVE),
        "T": ("1.0", _POSITIVE),
        "seed": ("0", _above(int, -1)),
        "initial": ("gibbs", _initial),
        "nu_list": ("0.8,0.6,0.5", _nu_list),
        "sigma_min": ("-3.0", _FINITE),
        "sigma_max": ("3.0", _FINITE),
        "record_every": ("1", _above(int, 0)),
    },
}


def _checked(label: str, build: Callable[..., Any], *args: Any) -> Any:
    """build(*args); a ValueError or CfpkError it raises becomes a
    ConfigError led by `label`."""
    try:
        return build(*args)
    except (ValueError, CfpkError) as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def build_config(resolved: dict[str, dict[str, str]], out_dir: str = "out") -> RunConfig:
    values = {
        sec: {key: _checked(f"[{sec}] {key} = {raw}", _SCHEMA[sec][key][1], raw) for key, raw in kv.items()}
        for sec, kv in resolved.items()
    }
    model, run = values["model"], SimpleNamespace(**values["run"])
    # the checks that involve more than one key
    grid = _checked("[grid]", lambda: Grid(**values["grid"]))
    label = f"[model] potential = {model['potential']}"
    pot = _checked(label, parse_potential, model["potential"], grid)
    _checked(label, pot.validate_on, grid)
    params = _checked(f"[model] nu = {model['nu']}", ModelParams, model["tau"], model["nu"])
    if run.solver == "jko" and run.kind in ("decay", "kramers_sweep", "verify"):
        raise ConfigError(f"run kind '{run.kind}' runs the fv solver only, got solver = jko")
    if run.solver == "jko" and run.record_every != 1:
        raise ConfigError(f"[run] record_every = {resolved['run']['record_every']}: the jko solver records every step")
    if not run.sigma_min < run.sigma_max:
        raise ConfigError(f"[run] sigma_min = {run.sigma_min}: need sigma_min < sigma_max = {run.sigma_max}")
    if run.kind == "kramers_sweep" and len(run.nu_list) < 3:
        raise ConfigError(f"[run] nu_list = {resolved['run']['nu_list']}: a sweep needs 3 noise levels or more")
    if run.kind in ("simulate", "decay", "verify"):  # the kinds that run to T
        step = "h" if run.solver == "jko" else "dt"
        _checked(f"[run] {step} = {resolved['run'][step]}", core.step_count, run.T, getattr(run, step))
    if run.initial is not None:  # a Gaussian with its mass off the grid has none to normalize
        label = f"[run] initial = {resolved['run']['initial']}"
        run.initial = _checked(label, core.gaussian_density, grid, *run.initial)
    path = values["path"]["kind"]
    cfg = RunConfig(raw=resolved, pot=pot, path=path, grid=grid, params=params, run=run, out_dir=out_dir)
    _tail_check(cfg)
    return cfg


def _tail_check(cfg: RunConfig) -> None:
    """Reject grids whose equilibrium boundary tails are not below roundoff
    at an (ell, nu) the run solves at; record the observed boundary
    densities for the run summary."""
    path, nu = cfg.path, cfg.params.nu
    checks = [("ell0", path.ell(0.0), nu), ("ell_star", path.ell_star, nu)]
    if cfg.run.kind == "kramers_sweep":  # the members run at ell* and their own nu
        checks = [(f"nu{v:g}", path.ell_star, v) for v in cfg.run.nu_list]
    for label, ell, nu in checks:
        try:
            state = solve_lambda(ell, nu, cfg.pot, cfg.grid).state
        except CfpkError as exc:
            raise ConfigError(f"tail check failed to build gamma at ell={ell}, nu={nu:g}: {exc}") from exc
        boundary = max(float(state.values[0]), float(state.values[-1]))
        cfg.tail_report[f"boundary_density_{label}"] = boundary
        if boundary > TAIL_LIMIT:
            raise ConfigError(
                f"grid too small: gamma at ell={ell}, nu={nu:g} has boundary density "
                f"{boundary:.3e} > {TAIL_LIMIT:.0e}; widen [x_min, x_max]"
            )


def parse_config(path: str, out_dir: str = "out") -> RunConfig:
    return build_config(_resolve(_read_sections(path)), out_dir)


def echo_config(cfg: RunConfig) -> str:
    lines = []
    for sec in sorted(cfg.raw):
        lines.append(f"[{sec}]")
        for key in sorted(cfg.raw[sec]):
            lines.append(f"{key} = {cfg.raw[sec][key]}")
        lines.append("")
    return "\n".join(lines)


def _finite_json(obj):
    """`obj` with each non-finite float replaced by the string "inf", "-inf"
    or "nan", so the dump is strict JSON."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _finite_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(v) for v in obj]
    return obj


def _json_dump(obj, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(_finite_json(obj), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _initial_density(cfg: RunConfig) -> Density:
    """rho0 of the `[run] initial` spec: the Gibbs state at ell(0), or the
    Gaussian that `build_config` built."""
    if cfg.run.initial is None:
        return solve_lambda(cfg.path.ell(0.0), cfg.params.nu, cfg.pot, cfg.grid).state.density
    return cfg.run.initial


def _summarize_run(traj: dict[str, np.ndarray]) -> dict:
    """The summary keys of the columns both schemes record; a run with one
    record has no energy-balance interval, and its `max_eb_residual` is NaN."""
    eb = traj["eb_residual"][1:]
    return {
        "final_t": float(traj["t"][-1]),
        "final_sigma": float(traj["sigma"][-1]),
        "final_F": float(traj["F"][-1]),
        "final_Hrel_quasistatic": float(traj["Hrel_quasistatic"][-1]),
        "final_Hrel_star": float(traj["Hrel_star"][-1]),
        "max_eb_residual": float(np.nanmax(eb)) if len(eb) else math.nan,
        "max_constraint_gap": float(np.max(np.abs(traj["M1"] - traj["ell"]))),
    }


def run_experiment(cfg: RunConfig) -> int:
    """Echo the config, run the experiment and write its summary.json; a
    CfpkError raised by the run writes error.json instead, and propagates."""
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.out_dir}: {exc}") from None
    with open(os.path.join(cfg.out_dir, "config_resolved.cfg"), "w") as fh:
        fh.write(echo_config(cfg))
    try:
        name, block = _experiment(cfg)
    except CfpkError as exc:
        error = {"error": type(exc).__name__, "message": str(exc), "diagnostics": exc.diagnostics}
        _json_dump(error, os.path.join(cfg.out_dir, "error.json"))
        raise
    summary = {"kind": cfg.run.kind, "tail_report": cfg.tail_report, name: block}
    _json_dump(summary, os.path.join(cfg.out_dir, "summary.json"))
    failed = [c for c, entry in block.items() if not entry["pass"]] if cfg.run.kind == "verify" else []
    if failed:
        print(f"verification failed: {failed[0]}", file=sys.stderr)
    return 1 if failed else 0


def _experiment(cfg: RunConfig) -> tuple[str, dict]:
    """One library call for the run kind; writes its CSVs and returns its
    summary.json block with the block's key."""
    run = cfg.run
    if run.kind == "equilibrium":
        ell = cfg.path.ell_star
        sol = solve_lambda(ell, cfg.params.nu, cfg.pot, cfg.grid)
        print(f"lambda({ell:g}) = {sol.lam:.12g}")
        return "equilibrium", {
            "ell": ell,
            "lambda": sol.lam,
            "iterations": sol.iterations,
            "residual": sol.residual,
            "variance": sol.state.variance,
            "log_Z": sol.state.log_z,
        }
    if run.kind == "landscape":
        sigma_range = (run.sigma_min, run.sigma_max)
        return "landscape", landscape(cfg.params.nu, cfg.pot, cfg.grid, sigma_range=sigma_range)
    if run.kind == "kramers_sweep":
        block, trajectories = kramers_sweep(
            cfg.pot, cfg.path.ell_star, run.nu_list, run.dt, cfg.grid, tau=cfg.params.tau
        )
        for nu_val, traj in trajectories.items():
            write_csv(traj, os.path.join(cfg.out_dir, f"trajectory_nu{nu_val:g}.csv"), FPSOLVER_COLUMNS)
        return "kramers_sweep", block
    rho0 = _initial_density(cfg)
    if run.kind == "verify":
        block, _ = verify(
            rho0, cfg.path, cfg.pot, cfg.params, run.dt, run.T, run.seed, record_every=run.record_every
        )
        return "verify", block
    if run.kind == "decay":
        block, traj = decay_experiment(
            rho0, cfg.path, cfg.params.nu, cfg.pot, run.dt, run.T,
            tau=cfg.params.tau, record_every=run.record_every,
        )
        write_csv(traj, os.path.join(cfg.out_dir, "trajectory_fv.csv"), FPSOLVER_COLUMNS)
        return "decay", block
    if run.solver == "fv":
        traj = fv_run(rho0, cfg.path, run.dt, cfg.pot, cfg.params, run.T, record_every=run.record_every)
        names, own = FPSOLVER_COLUMNS, {"steps": int(traj["steps"].sum()), "limited_mass": total_limited_mass(traj)}
    else:
        traj = jko_run(rho0, cfg.path, run.h, run.T, cfg.pot, cfg.params)
        names = TRANSPORT_COLUMNS
        own = {"sum_W2sq": float(np.sum(traj["W2sq_step"])), "max_kkt_residual": float(np.max(traj["kkt_residual"]))}
    write_csv(traj, os.path.join(cfg.out_dir, f"trajectory_{run.solver}.csv"), names)
    return run.solver, _summarize_run(traj) | own


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="cfpk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind.replace("_", "-"))
        p.add_argument("--config", default=None, help="config file (key = value sections)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--solver", choices=("jko", "fv"), default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--ell", type=float, default=None)
        p.add_argument("--nu", type=float, default=None)
        p.add_argument("--potential", default=None)
    args = parser.parse_args(argv)

    try:
        sections = _resolve({} if args.config is None else _read_sections(args.config))
        kind = sections["run"]["kind"]  # the subcommand sets the kind, but the config's must be valid
        _checked(f"[run] kind = {kind}", _SCHEMA["run"]["kind"][1], kind)
        sections["run"]["kind"] = args.command.replace("-", "_")
        ell = None if args.ell is None else f"constant:{args.ell!r}"
        flags = {("run", "solver"): args.solver, ("run", "seed"): args.seed, ("path", "kind"): ell,
                 ("model", "nu"): args.nu, ("model", "potential"): args.potential}
        for (sec, key), value in flags.items():
            if value is not None:
                sections[sec][key] = value if isinstance(value, str) else repr(value)
        return run_experiment(build_config(sections, out_dir=args.out))
    except CfpkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
