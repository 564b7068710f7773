"""The benchmark's workloads: one ``cfpk`` CLI command each, with its output check.

Every workload is a config shipped in ``configs/`` plus the CLI subcommand
that runs it.  ``shortened`` lists the config keys that make a small version
of the same command, used to warm up before timing and by the smoke test.
``reference`` lists the keys of a finer run whose output the check compares
against (only the JKO chain has one).  Checks read only the files the CLI
wrote and return the problems they found plus the workload's ``result_err``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

CheckResult = tuple[list[str], float]


def _read_csv(path: Path) -> list[dict[str, float]]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _summary(out_dir: Path) -> dict:
    with open(out_dir / "summary.json") as fh:
        return json.load(fh)


def check_kramers(out_dir: Path, cfg: dict, ref_dir: Optional[Path]) -> CheckResult:
    """Every member decays in the Kramers regime with a usable fit window, and
    the fitted rate falls with the noise level.  result_err is the largest
    constraint drift |M1 - ell| over the member trajectories."""
    sweep = _summary(out_dir)["kramers_sweep"]
    entries = sweep["entries"]
    nus = [float(v) for v in cfg["run"]["nu_list"].split(",")]
    problems = []
    if sweep["partial"] or len(entries) != len(nus):
        problems.append(f"sweep returned {len(entries)} of {len(nus)} members")
    for e in entries:
        if e["regime"] != "kramers":
            problems.append(f"nu={e['nu']}: regime {e['regime']}")
        if e["short_window"]:
            problems.append(f"nu={e['nu']}: short fit window")
    by_nu = sorted(entries, key=lambda e: e["nu"])
    rates = [e["fitted_rate"] for e in by_nu]
    if not all(math.isfinite(r) for r in rates) or any(a >= b for a, b in zip(rates, rates[1:])):
        problems.append(f"fitted rates {rates} do not rise strictly with nu")
    err = 0.0
    for e in entries:
        rows = _read_csv(out_dir / f"trajectory_nu{e['nu']:g}.csv")
        err = max(err, max(abs(r["M1"] - r["ell"]) for r in rows))
    return problems, err


def check_verify(out_dir: Path, cfg: dict, ref_dir: Optional[Path]) -> CheckResult:
    """Every verification contract passes.  result_err is the energy-balance
    audit's max_eb_residual."""
    contracts = _summary(out_dir)["verify"]
    problems = [f"contract {name} failed" for name, c in sorted(contracts.items()) if not c["pass"]]
    return problems, float(contracts["energy_dissipation_audit"]["max_eb_residual"])


def check_jko(out_dir: Path, cfg: dict, ref_dir: Optional[Path]) -> CheckResult:
    """KKT residual and constraint gap within their bounds, one CSV row per
    step.  result_err is the largest multiplier gap to the run at half the
    step, max_t |sigma_h(t) - sigma_{h/2}(t)|, a first-order estimate of the
    chain's time-discretization error."""
    jko = _summary(out_dir)["jko"]
    problems = []
    if not jko["max_kkt_residual"] <= 1e-8:
        problems.append(f"max_kkt_residual {jko['max_kkt_residual']:.3e} > 1e-8")
    if not jko["max_constraint_gap"] <= 1e-12:
        problems.append(f"max_constraint_gap {jko['max_constraint_gap']:.3e} > 1e-12")
    rows = _read_csv(out_dir / "trajectory_jko.csv")
    steps = math.ceil(float(cfg["run"]["T"]) / float(cfg["run"]["h"]) - 1e-12)
    if len(rows) != steps:
        problems.append(f"{len(rows)} CSV rows for {steps} steps")
    err = math.nan
    if ref_dir is not None:
        ref = {round(r["t"], 9): r["sigma"] for r in _read_csv(ref_dir / "trajectory_jko.csv")}
        gaps = [abs(r["sigma"] - ref[round(r["t"], 9)]) for r in rows if round(r["t"], 9) in ref]
        if len(gaps) != len(rows):
            problems.append("reference run does not cover every step time")
        err = max(gaps, default=math.nan)
    return problems, err


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    check: Callable[[Path, dict, Optional[Path]], CheckResult]
    shortened: dict[str, dict[str, str]]
    reference: dict[str, dict[str, str]] = field(default_factory=dict)

    @property
    def config_path(self) -> Path:
        return CONFIG_DIR / f"{self.name}.cfg"

    def sections(self, overrides: Optional[dict[str, dict[str, str]]] = None) -> dict:
        """The shipped config as {section: {key: value}}, with overrides applied."""
        sections: dict[str, dict[str, str]] = {}
        current = None
        for line in self.config_path.read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("["):
                current = sections.setdefault(line.strip("[]"), {})
            else:
                key, _, value = line.partition("=")
                current[key.strip()] = value.strip()
        for sec, kv in (overrides or {}).items():
            sections.setdefault(sec, {}).update(kv)
        return sections

    def write_config(self, path: Path, overrides: dict[str, dict[str, str]]) -> Path:
        lines = []
        for sec, kv in self.sections(overrides).items():
            lines.append(f"[{sec}]")
            lines.extend(f"{k} = {v}" for k, v in kv.items())
            lines.append("")
        path.write_text("\n".join(lines))
        return path

    def argv(self, config: Path, out_dir: Path, seed: int) -> list[str]:
        return [self.command, "--config", str(config), "--out", str(out_dir), "--seed", str(seed)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fv_kramers_sweep",
            command="kramers-sweep",
            check=check_kramers,
            shortened={"grid": {"n": "256"}, "run": {"dt": "0.012"}},
        ),
        Workload(
            name="verify_forced",
            command="verify",
            check=check_verify,
            shortened={"grid": {"n": "256"}, "run": {"T": "0.3"}},
        ),
        Workload(
            name="jko_chain",
            command="simulate",
            check=check_jko,
            shortened={"grid": {"n": "256"}, "run": {"T": "0.5"}},
            reference={"run": {"h": "0.005"}},
        ),
    )
}
