"""Benchmark of the cfpk command line: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``src/cfpk`` is imported from there
and outputs go to ``.bench_out/``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` times repeated in-process calls of ``cfpk.cli.main`` for the
workload until ``--seconds`` have passed (the last call may run past them)
and reports the end-to-end metrics: ``wall_ref`` (median call, in units of
the machine speed gauged during it), ``setup_s`` (median over fresh processes
of ``import cfpk`` + ``build_config``, scaled to the nominal machine speed),
``peak_rss_mb`` and ``result_err``.
``--trace 1`` alternates plain and traced calls and reports the per-layer
metrics averaged per traced call, plus the tracing overhead.

The workload seed goes to the CLI's ``--seed``.  Everything runs in one
thread: ``CFPK_THREADS`` and the BLAS/OpenMP thread counts are pinned to 1
before numpy loads.
"""

from __future__ import annotations

import os

THREAD_ENV = (
    "CFPK_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import ModuleType  # noqa: E402

from workloads import WORKLOADS, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 120
# The reference chunk takes about 5 ms here; sampled every 0.25 s it costs 2%.
REF_ITERATIONS = 200
REF_PERIOD_S = 0.25
REF_SAMPLES_BEFORE = 3
REF_SAMPLES_SETUP = 5
# Nominal time of the reference chunk; setup_s is reported at this speed.
REF_NOMINAL_S = 0.005


def _import_cfpk():
    sys.path.insert(0, str(SRC))
    import cfpk
    import cfpk.cli

    if Path(cfpk.__file__).resolve().parent != SRC / "cfpk":
        raise ImportError(f"imported cfpk from {cfpk.__file__}, not from {SRC}")
    return cfpk


def probe_setup(w: Workload, config: Path) -> tuple[float, float]:
    """Seconds for `import cfpk` plus building the run config (grid tail check
    included), in this fresh process, and the median time of the reference
    chunk around it in the same process.  numpy and scipy.linalg load first,
    untimed: their import is fixed by the dependencies, and its drift here
    (about 0.25 s, varying by a quarter) would hide cfpk's own 50 ms."""
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    before = [reference_chunk() for _ in range(REF_SAMPLES_SETUP)]
    t0 = time.perf_counter()
    cfpk = _import_cfpk()
    cfpk.cli.parse_config(str(config), out_dir=str(OUT / w.name / "setup"))
    setup = time.perf_counter() - t0
    after = [reference_chunk() for _ in range(REF_SAMPLES_SETUP)]
    return setup, statistics.median(before + after)


def _child(args: list[str]) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout.splitlines()


def measure_setup(w: Workload, config: Path) -> float:
    """Median over fresh processes of the set-up time, each scaled to the
    nominal machine speed by the reference chunk timed in that process: the
    seconds set-up takes where the chunk takes REF_NOMINAL_S."""
    scaled = []
    for _ in range(SETUP_SAMPLES):
        setup, ref = map(float, _child(["--probe-setup", "--workload", w.name, "--config", str(config)])[-1].split())
        scaled.append(setup * REF_NOMINAL_S / ref)
    return statistics.median(scaled)


def run_reference(w: Workload, config: Path, seed: int) -> Path:
    """The finer run the JKO check compares against, in a child process so that
    its memory does not count in this run's peak."""
    out_dir = OUT / w.name / "reference"
    shutil.rmtree(out_dir, ignore_errors=True)
    _child(["--reference", "--workload", w.name, "--config", str(config), "--seed", str(seed)])
    return out_dir


def reference_chunk() -> float:
    """Seconds for a fixed numpy kernel that does not use cfpk, with the same
    grain as an FV or JKO step: small-array numpy calls from a Python loop."""
    import numpy as np

    x = np.linspace(-12.0, 12.0, 1024)
    v = np.exp(-0.5 * x * x)
    t0 = time.perf_counter()
    for i in range(REF_ITERATIONS):
        w = np.diff(v - 1e-3 * i * x)
        b = w / np.expm1(w + 1e-12)
        v = np.maximum(v + 1e-6 * np.concatenate(([0.0], b)), 0.0)
        v /= float(np.sum(v))
    return time.perf_counter() - t0


class SpeedGauge:
    """Samples the machine's speed while a call runs: a timer signal runs the
    reference chunk every REF_PERIOD_S seconds and records its time.

    On a shared machine the CPU speed drifts by a quarter within minutes and
    slows the reference chunk and the CLI alike, so a call's wall time in
    units of the chunk times sampled during it does not drift with the
    machine.  The handler's own time is reported in ``spent`` so the caller
    can take it out of the call's wall time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        dt = reference_chunk()
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "SpeedGauge":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


class Calls:
    """Repeated CLI calls of one workload: wall times, failures, result_err."""

    def __init__(self, w: Workload, sections: dict, config: Path, seed: int, ref_dir):
        import cfpk.cli

        self.cli = cfpk.cli
        self.w, self.sections, self.ref_dir = w, sections, ref_dir
        self.out_dir = OUT / w.name / "run"
        self.argv = w.argv(config, self.out_dir, seed)
        self.walls: list[float] = []
        self.ratios: list[float] = []
        self.errs: list[float] = []
        self.failed = 0

    def once(self, main=None, gauge: SpeedGauge | None = None) -> float:
        """One timed call; with a gauge running, the gauge's time is taken out."""
        main = main or self.cli.main
        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()
        t0 = time.perf_counter()
        try:
            status = main(self.argv)
        except Exception:
            traceback.print_exc()
            status = None
        wall = time.perf_counter() - t0 - (gauge.spent if gauge else 0.0)
        self.walls.append(wall)
        problems = [f"exit status {status}"] if status != 0 else []
        if not problems:
            try:
                problems, err = self.w.check(self.out_dir, self.sections, self.ref_dir)
                self.errs.append(err)
            except (OSError, KeyError, ValueError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.failed += 1
            print(f"{self.w.name}: call {len(self.walls)} failed: {'; '.join(problems)}", file=sys.stderr)
        return wall

    def repeat(self, seconds: float) -> None:
        """Call until `seconds` have passed, gauging the machine's speed around
        and during each call."""
        start = time.perf_counter()
        while True:
            before = [reference_chunk() for _ in range(REF_SAMPLES_BEFORE)]
            with SpeedGauge() as gauge:
                wall = self.once(gauge=gauge)
            self.ratios.append(wall / statistics.fmean(before + gauge.samples))
            if time.perf_counter() - start >= seconds:
                break


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    p = int(100 * (n - 10) / n)
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def code_size(cfpk) -> dict[str, int]:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "cfpk").rglob("*.py")))
    public = [n for n, v in vars(cfpk).items() if not n.startswith("_") and not isinstance(v, ModuleType)]
    return {"code.src_lines": src_lines, "code.public_api_names": len(public)}


def provenance(cfpk, args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "threads_env": {v: os.environ[v] for v in THREAD_ENV},
        **code_size(cfpk),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tracer, plain_wall: float, traced_walls: list[float], cfpk) -> dict:
    """Per-layer metrics, averaged per traced CLI call."""
    spans = tracer.summary()
    n_calls = len(traced_walls)
    out: dict[str, dict] = {}

    def total(label: str, field: str) -> float:
        return spans.get(label, {"calls": 0, "s": 0.0, "self_s": 0.0})[field]

    def per(label: str, num: float, den: float, unit: str) -> None:
        out[label] = metric(num / den if den else 0.0, unit)

    for label, fields in (
        ("cli.build_config", ("s",)),
        ("cli.run_experiment", ("self_s",)),
        ("fpsolver.run", ("calls", "s", "self_s")),
        ("fpsolver.tridiag_solve", ("calls", "s")),
        ("fpsolver.sigma_of_state", ("calls", "s")),
        ("equilibrium.solve_lambda", ("calls", "s")),
        ("equilibrium.gibbs", ("calls", "s")),
        ("equilibrium.landscape", ("s",)),
        ("functionals.dissipation", ("calls", "s")),
        ("functionals.relative_entropy", ("calls", "s")),
        ("functionals.log_partition", ("calls", "s")),
        ("functionals.weighted_ckp", ("calls", "s")),
        ("core.moments", ("calls", "s")),
        ("core.entropy", ("calls", "s")),
        ("core.integrate", ("calls", "s")),
        ("transport.jko_run", ("s", "self_s")),
        ("transport.inner_solve", ("calls", "s")),
        ("transport.quantile_to_density", ("calls", "s")),
        ("transport.to_quantile", ("calls", "s")),
        ("longtime.kramers_sweep", ("self_s",)),
        ("longtime.decay_experiment", ("self_s",)),
        ("longtime.classify_regime", ("s",)),
        ("longtime.fit_decay_rate", ("s",)),
        ("longtime.bimodal_side_data", ("s",)),
        ("records.write_csv", ("calls", "s")),
        ("sampling.random_density", ("calls", "s")),
    ):
        if label not in tracer.absent:
            for field in fields:
                unit = "count" if field == "calls" else "s"
                out[f"{label}.{field}"] = metric(total(label, field) / n_calls, unit)

    for label in ("core.Density.new", "core.Grid.x.calls", "fpsolver.steps"):
        if label not in tracer.absent:
            out[label] = metric(tracer.counts[label] / n_calls, "count")
    if "fpsolver.steps" not in tracer.absent:
        per("fpsolver.step_us", 1e6 * total("fpsolver.run", "self_s"), tracer.counts["fpsolver.steps"], "us")
    if "equilibrium.solve_lambda" not in tracer.absent:
        per(
            "equilibrium.solve_lambda.iters_per_call",
            tracer.extra["equilibrium.solve_lambda.iters"],
            total("equilibrium.solve_lambda", "calls"),
            "iters/call",
        )
    if "transport.inner_solve" not in tracer.absent:
        out["transport.inner_solve.iters"] = metric(
            tracer.extra["transport.inner_solve.iters"] / n_calls, "count"
        )
        per("transport.step_us", 1e6 * total("transport.jko_run", "s"), total("transport.inner_solve", "calls"), "us")
    if "records.write_csv" not in tracer.absent:
        out["records.write_csv.bytes"] = metric(tracer.extra["records.write_csv.bytes"] / n_calls, "bytes")

    traced = total("cli.main", "s")
    step_loop = sum(total(lbl, f) for lbl, f in (
        ("fpsolver.run", "self_s"), ("fpsolver.tridiag_solve", "s"), ("fpsolver.sigma_of_state", "s")
    ))
    per("share.fpsolver_step_loop", step_loop, traced, "fraction")
    per("share.equilibrium_solve_lambda", total("equilibrium.solve_lambda", "s"), traced, "fraction")
    per("share.transport", total("transport.jko_run", "s"), traced, "fraction")

    traced_wall = statistics.median(traced_walls)
    out["trace.plain_wall_s"] = metric(plain_wall, "s")
    out["trace.wall_s"] = metric(traced_wall, "s")
    out["trace.overhead_s"] = metric(traced_wall - plain_wall, "s")
    for name, value in code_size(cfpk).items():
        out[name] = metric(value, "lines" if name == "code.src_lines" else "count")
    return out


def run_plain(w: Workload, args, sections: dict, config: Path, cfpk) -> tuple[Calls, dict]:
    setup_s = measure_setup(w, config)
    ref_dir = run_reference(w, OUT / w.name / "reference.cfg", args.seed) if w.reference else None
    calls = Calls(w, sections, config, args.seed, ref_dir)
    calls.repeat(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail = tail_percentile(calls.walls)
    print(
        f"{w.name}: wall_s median {statistics.median(calls.walls):.4f} s"
        + (f", p{tail[0]} {tail[1]:.4f} s" if tail else ", no tail percentile (<11 samples)")
        + f", n={len(calls.walls)}; failed {calls.failed}/{len(calls.walls)}"
    )
    print(f"{w.name}: per-call wall_s " + " ".join(f"{t:.4f}" for t in calls.walls))
    print(f"{w.name}: per-call wall_ref " + " ".join(f"{r:.4f}" for r in calls.ratios))
    return calls, {
        "wall_ref": metric(statistics.median(calls.ratios), "ref"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "result_err": metric(statistics.median(calls.errs) if calls.errs else float("nan"), "abs"),
    }


def run_traced(w: Workload, args, sections: dict, config: Path, cfpk) -> tuple[Calls, dict]:
    """Alternate plain and traced calls, so that machine drift falls on both
    sides of the tracing overhead; the wrappers are in place only during the
    traced calls."""
    import tracing

    calls = Calls(w, sections, config, args.seed, None)
    tracer = tracing.Tracer()
    root = tracer.span("cli.main", calls.cli.main)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(calls.once())
        tracer.install()
        try:
            traced.append(calls.once(main=root))
        finally:
            tracer.uninstall()
        leftovers = tracing.leftover_wrappers()
        if leftovers:
            raise RuntimeError(f"tracing wrappers left installed: {leftovers}")
        if time.perf_counter() - start >= args.seconds:
            break
    tracer.save(str(OUT / f"spans_{w.name}.npz"))
    if tracer.absent:
        print(f"{w.name}: absent from the program: {', '.join(tracer.absent)}")
    return calls, layer_metrics(tracer, statistics.median(plain), traced, cfpk)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="how long to keep calling the CLI")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="use the workload's shortened inputs")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--config", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None and not (args.probe_setup or args.reference):
        parser.error("--seconds is required")

    if not (SRC / "cfpk" / "__init__.py").is_file():
        print(f"error: no cfpk sources under {SRC}; run from the root of a cfpk checkout", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    if args.probe_setup:
        print(*map(repr, probe_setup(w, args.config)))
        return 0
    cfpk = _import_cfpk()
    if args.reference:
        return cfpk.cli.main(w.argv(args.config, OUT / w.name / "reference", args.seed))

    (OUT / w.name).mkdir(parents=True, exist_ok=True)
    overrides = w.shortened if args.smoke else {}
    sections = w.sections(overrides)
    config = w.write_config(OUT / w.name / "workload.cfg", overrides)
    if w.reference:
        merged = {s: {**overrides.get(s, {}), **w.reference.get(s, {})} for s in {*overrides, *w.reference}}
        w.write_config(OUT / w.name / "reference.cfg", merged)

    # warm up lazy imports and caches on the shortened inputs, untimed
    warm = w.write_config(OUT / w.name / "warmup.cfg", w.shortened)
    cfpk.cli.main(w.argv(warm, OUT / w.name / "warmup", args.seed))

    print(json.dumps({"provenance": provenance(cfpk, args)}, sort_keys=True))
    runner = run_traced if args.trace else run_plain
    calls, metrics = runner(w, args, sections, config, cfpk)
    print(json.dumps({
        "correct": calls.failed == 0,
        "attempted": len(calls.walls),
        "failed": calls.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
