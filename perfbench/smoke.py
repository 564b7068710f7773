"""Smoke test of the benchmark itself; run from the checkout root:

    python3 perfbench/smoke.py

Runs every workload on its shortened inputs, plain and traced, once each, and
asserts that every metric named in BENCHMARK.json is emitted with its unit,
that every output check passes, and that no tracing wrapper is left in any
cfpk module namespace.  Finally it checks that the benchmark refuses to run,
without printing a result, in a directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
TIMEOUT_S = 300


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_run(workload: str, trace: int, spec: dict) -> None:
    proc = subprocess.run(
        [*RUN, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    result = last_json(proc.stdout)
    assert result is not None, f"{where}: last line is not JSON"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {sorted(result)}"
    assert result["correct"] and result["failed"] == 0, f"{where}: output check failed\n{proc.stderr}"
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    missing = sorted(set(expected) - set(metrics))
    assert not missing, f"{where}: metrics not emitted: {missing}"
    for name, unit in expected.items():
        value = metrics[name]
        assert value["unit"] == unit, f"{where}: {name} in {value['unit']}, expected {unit}"
        assert isinstance(value["value"], (int, float)), f"{where}: {name} = {value['value']!r}"
    print(f"ok  {where}: {len(expected)} metrics, {result['attempted']} calls")


def check_no_wrappers_left() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import cfpk.cli  # noqa: F401 - loads every cfpk module the CLI uses
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.leftover_wrappers(), "install put no wrapper in place"
        assert not tracer.absent, f"traced names missing from the program: {tracer.absent}"
    finally:
        tracer.uninstall()
    left = tracing.leftover_wrappers()
    assert not left, f"wrappers left installed: {left}"
    print("ok  tracer install/uninstall leaves no wrapper")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "jko_chain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0, "benchmark ran without the cfpk sources"
    result = last_json(proc.stdout)
    assert not (isinstance(result, dict) and "metrics" in result), "printed a result without sources"
    print(f"ok  refuses to run without sources (exit {proc.returncode})")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_no_wrappers_left()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_run(workload, trace, spec)
    check_refuses_without_sources()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
