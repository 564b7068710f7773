"""Run every workload once and print its end-to-end metrics with units;
run from the checkout root:

    python3 perfbench/report.py [--seed N]

Each workload runs in its own ``run.py`` process for ``run_seconds`` of
BENCHMARK.json.  ``failed_frac`` is the
share of timed CLI calls that exited nonzero, raised, or failed the
workload's output check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", str(args.seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w['name']}: run failed with exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"== {w['name']}  ({w['why']})")
        for line in lines[:-1]:
            if not line.startswith('{"provenance"'):
                print(f"   {line}")
        for name, m in result["metrics"].items():
            print(f"   {name:<40} {m['value']:>14.6g} {m['unit']}")
        frac = result["failed"] / result["attempted"]
        print(f"   {'failed_frac':<40} {frac:>14.6g} fraction ({result['failed']}/{result['attempted']} calls)")
        status |= 0 if result["correct"] else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
