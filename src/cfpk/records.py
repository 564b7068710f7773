"""Trajectories: the record schedule, the one record loop and its kernel, and CSV emission.

A run returns its trajectory as a dict of numpy arrays, one entry per
record.  `record_times` fixes a run's record times before the first step,
and `trajectory` records both schemes, which only step: it fills the path
columns, maps RECORD_BLOCK record states at a time to their diagnostics
with `_record_block`, and audits the energy balance on the finished
columns.  A scheme's generator of record states writes the columns it
defines itself, among them sigma and D.  FV (`fpsolver.run`) takes both
from the record state, in a hook on each block: sigma = int H' rho dx +
tau l'(t) and the grid dissipation at it.  JKO (`transport.jko_run`) takes
sigma as the step's KKT multiplier, and D = tau^2 W2sq_step / h^2, the
step's squared metric slope (Ambrosio, Gigli & Savare, Gradient Flows in
Metric Spaces and in the Space of Probability Measures, ch. 3): the grid
formula reads 1e3 to 1e4 on its rows, all of it from the cells at the
edge of the truncated support that `quantile_to_density` projects.  A JKO
run steps on the FV schedule with dt = h but has no t = 0 row, so it ends
at T, its first `eb_residual` is NaN, and its H_q and H* carry the
projection's floor: the smallest H_q over the 1,000 rows of the
`jko_chain` benchmark reads 7.8e-4.

The record side, lambda(ell(t)) of each block (one
`solve_lambdas` batch, solved as the block arrives) and its diagnostics,
depends on the path and the record states only, never the other way round.
So where a run has more than one block and may use more than one CPU
(`os.sched_getaffinity`; `taskset` narrows it), the record side runs in a
forked process beside the stepping, which sends it each block's states
over a pipe; otherwise it runs in the stepping process.  There is no option
for it: the columns are the same bits in either place, and a run raises
the error, message and diagnostics of a run that solves every lambda batch
before its first step and records in one process.  So a lambda failure
anywhere in the run wins over any step or record failure, and a record
failure over a failure of a later step; a record process that exits
without sending raises a CfpkError naming its exit code.

Columns that are never written ride in the same dict: `lam_ell`, `l1_star`
and `ell_dot` of both schemes, the FV `steps` and `density`, the JKO
`quantile`.  `density` and `quantile` hold the states of every stride-th
record only (none by default), so a run holds RECORD_BLOCK states at a
time and its memory does not grow with its step count; `write_csv` writes
CSV_BLOCK rows at a time for the same reason.
"""

from __future__ import annotations

import os
from typing import Callable, Iterator

import numpy as np

from .core import ConstraintPath, Grid, ModelParams, Potential, _entropy_integrand, _log_density, step_count
from .equilibrium import LambdaSolve, TiltedFamily, solve_lambda, solve_lambdas, tilted_family
from .forks import Forked
from .functionals import _breakdown, _kl_integrand, log_partition

COLUMNS = [
    "t", "sigma", "ell", "M1", "M2", "F", "S", "E", "D", "eb_residual", "Hrel_quasistatic", "Hrel_star",
]
FPSOLVER_COLUMNS = COLUMNS + ["limited_mass", "mass_drift"]
TRANSPORT_COLUMNS = COLUMNS + ["W2sq_step", "kkt_residual"]
# The columns the record side writes: lambda(ell(t)) and `_record_block`'s
RECORD_SIDE = ["lam_ell", "M1", "M2", "E", "S", "F", "Hrel_quasistatic", "Hrel_star", "l1_star"]
# Rows of the record block: a run computes record diagnostics this many
# states at a time.  32 costs the same per record and keeps 0.4 MB more in
# buffers; 128 costs more.
RECORD_BLOCK = 16
# Rows of a CSV write: the text of one block, about 0.8 MB, is built at a time.
CSV_BLOCK = 1024


def record_times(T: float, dt: float, record_every: int) -> tuple[list[int], list[float], bool]:
    """A run's record slots k = 0, record_every, 2 record_every, ... below
    the number of whole dt slots, then that number; their times k dt, and
    max(T, dt) for the last; and whether the last slot runs on to T."""
    n_steps = step_count(T, dt)
    t_end = max(T, dt)
    stretched = t_end / dt < n_steps - 1e-12
    n_steps -= stretched
    slots = list(range(0, n_steps, record_every)) + [n_steps]
    return slots, [k * dt for k in slots[:-1]] + [t_end], stretched


def _record_block(rows: np.ndarray, cols: dict, log_z: np.ndarray | None, star: LambdaSolve, logz0: float,
                  family: TiltedFamily, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """The state diagnostics of the record states `rows` into `cols`, column
    slices of one entry per row with lam_ell set: M1, M2, E, S, F, both
    relative entropies and l1_star.  `log_z` is the log Z of
    gamma_{lambda(ell(t))} on those rows, or None where that state is
    `star`.  One log rho serves S and both relative entropies, each a
    row-wise sum, with log gamma the Gibbs exponent minus log Z, as in
    `relative_entropy`, so a record does not depend on the rows beside it.
    Returns int H' rho dx and log rho of the rows, from which a scheme whose
    sigma and D are functions of the state computes them."""
    dx = family.dx
    log_r, work = _log_density(rows), np.empty_like(rows)
    # one stacked product, basis @ rho for each row: a matrix-vector
    # product per row, as one state's record takes it (a matrix-matrix
    # product orders its sums by the block's shape)
    e, m1, m2, h1_rho = (family.basis @ rows[:, :, None])[:, :, 0].T * dx
    cols["E"][:], cols["M1"][:], cols["M2"][:] = e, m1, m2
    s = cols["S"]
    s[:] = _entropy_integrand(rows, log_r, out=work).sum(axis=1) * dx
    cols["F"][:] = _breakdown(s, e, logz0, nu).F
    h_star = _kl_integrand(rows, log_r, star.state.log_values, out=work).sum(axis=1) * dx
    cols["Hrel_star"][:] = cols["Hrel_quasistatic"][:] = h_star
    if log_z is not None:
        log_g = family.exponent(cols["lam_ell"], nu, out=work)
        log_g -= log_z[:, None]
        cols["Hrel_quasistatic"][:] = _kl_integrand(rows, log_r, log_g, out=work).sum(axis=1) * dx
    np.subtract(rows, star.state.values, out=work)
    cols["l1_star"][:] = np.abs(work, out=work).sum(axis=1) * dx
    return h1_rho, log_r


def _audit_energy_balance(cols: dict, tau: float) -> None:
    """eb_residual = |dF/dt + D/tau - sigma l'| on record spacing: a
    difference quotient of F and the trapezoid rule in the rate terms, from
    the `ell_dot` column; the first record keeps its NaN."""
    t, f, d = cols["t"], cols["F"], cols["D"]
    pump = cols["sigma"] * cols["ell_dot"]
    rate = np.diff(f) / np.diff(t)
    cols["eb_residual"][1:] = np.abs(rate + 0.5 * (d[1:] + d[:-1]) / tau - 0.5 * (pump[1:] + pump[:-1]))


def trajectory(names: list[str], times: list[float], states: Callable[[dict], Iterator[np.ndarray]], pot: Potential,
               grid: Grid, path: ConstraintPath, params: ModelParams, record: Callable | None = None) -> dict:
    """The trajectory of a run with record `times`: the one record loop.

    Before the first step it fills t, ell, ell_dot and lam_ell, and the
    other `names` columns and l1_star with NaN, and solves lambda(ell*) and,
    on a moving path, lambda(ell(times[0])) cold.
    `states(cols)` yields the values of each record state in order and
    writes that record's own columns; it adds its 2-D columns after the last
    record, so the block views slice 1-D columns only.  Each block of
    RECORD_BLOCK states goes to the record side (`_Recorder`): on a moving
    path lambda(ell(t)) of the block, one `solve_lambdas` batch, then
    `_record_block`, then, if given, `record(rows, cols, h1_rho, log_r,
    family, params)`, which fills the block's sigma and D.  With more than
    one block and more than one CPU this process may use, the record side
    runs in a forked process beside the stepping (`_record_beside`), and
    otherwise here; it writes the same bits in either place, and a failing
    run raises what it raises here.  The audit runs last."""
    nu, n = params.nu, len(times)
    star = solve_lambda(path.ell_star, nu, pot, grid)
    cols = {name: np.full(n, np.nan) for name in names + ["lam_ell", "l1_star"]}
    ells, lam = cols["ell"], cols["lam_ell"]
    cols["t"][:], ells[:] = times, [path.ell(t) for t in times]
    cols["ell_dot"] = np.array([path.ell_dot(t) for t in times])
    lam[:], log_z, batches = star.lam, None, iter(())
    if path.L0 != 0.0:
        log_z = np.empty(n)
        first = solve_lambda(ells[0], nu, pot, grid)
        batches = _lambda_batches(first, ells, lam, log_z, nu, pot, grid)
    recorder = _Recorder(cols, batches, log_z, star, tilted_family(pot, grid), log_partition(pot, grid, nu), params,
                         record)
    blocks = _blocks(states(cols), n, grid.n)
    if n > RECORD_BLOCK and len(os.sched_getaffinity(0)) > 1:
        _record_beside(recorder, blocks, grid.n)
    else:
        recorder.record(blocks)
    _audit_energy_balance(cols, params.tau)
    return cols


def _lambda_batches(first: LambdaSolve, ells: np.ndarray, lam: np.ndarray, log_z: np.ndarray, nu: float,
                    pot: Potential, grid: Grid) -> Iterator[None]:
    """Solves lambda(ell(t)) and its log Z into `lam` and `log_z`, one
    `solve_lambdas` batch of RECORD_BLOCK lanes at a time in record order,
    and yields after each.  A batch starts from the tangent predictor
    lambda_a + (ell - ell_a) nu^2 / Var_a (d lambda / d ell = nu^2 / Var) at
    the last lane of the batch before, the first batch from `first`, the
    cold solve at ells[0]."""
    size, nu2 = RECORD_BLOCK, nu * nu
    lam_a, ell_a, var_a = first.lam, ells[0], first.state.variance
    for i in range(0, len(ells), size):
        batch = slice(i, i + size)
        ell = ells[batch]
        start = lam_a + (ell - ell_a) * nu2 / var_a
        lam[batch], _, var, log_z[batch], *_ = solve_lambdas(ell, nu, pot, grid, start)
        lam_a, ell_a, var_a = lam[batch][-1], ell[-1], var[-1]
        yield


def _blocks(states: Iterator[np.ndarray], n: int, width: int) -> Iterator[tuple[int, np.ndarray]]:
    """(first record, rows) of each block of RECORD_BLOCK of the n record
    states of `states`, the last one possibly shorter; the rows are a view
    of one buffer, which the next block overwrites."""
    size = RECORD_BLOCK
    rows = np.empty((size, width))
    for i, vals in enumerate(states):
        j = i % size
        rows[j] = vals
        if j == size - 1 or i == n - 1:
            yield i - j, rows[: j + 1]


class _Recorder:
    """The record side of a run: the lambda(ell(t)) batches, `_record_block`
    and the scheme's hook, one block at a time into `cols`.  `names` are
    the columns it writes."""

    def __init__(self, cols: dict, batches: Iterator[None], log_z: np.ndarray | None, star: LambdaSolve,
                 family: TiltedFamily, logz0: float, params: ModelParams, hook: Callable | None):
        self.cols, self.batches, self.log_z, self.star = cols, batches, log_z, star
        self.family, self.logz0, self.params, self.hook = family, logz0, params, hook
        self.names = RECORD_SIDE + (["sigma", "D"] if hook is not None else [])

    def record(self, blocks: Iterator[tuple[int, np.ndarray]]) -> None:
        """Records each (first record, rows) block of `blocks`, after its
        lambda batch.  Where `blocks` or a block's record fails, the batches
        not yet solved are solved first, and a lambda failure among them is
        raised instead, as where every batch is solved before the first step."""
        try:
            for start, rows in blocks:
                next(self.batches, None)
                block = slice(start, start + len(rows))
                view = {name: col[block] for name, col in self.cols.items()}
                log_z = None if self.log_z is None else self.log_z[block]
                h1_rho, log_r = _record_block(rows, view, log_z, self.star, self.logz0, self.family, self.params.nu)
                if self.hook is not None:
                    self.hook(rows, view, h1_rho, log_r, self.family, self.params)
        except Exception:
            self.finish()
            raise

    def finish(self) -> None:
        """Solves the lambda batches not yet solved; after a failed batch there are none."""
        for _ in self.batches:
            pass


def _record_beside(recorder: _Recorder, blocks: Iterator[tuple[int, np.ndarray]], width: int) -> None:
    """`recorder.record(blocks)` with the record side in a forked process.
    This process steps and sends each block's rows as raw float64 bytes over
    a one-way pipe; the record process records each block as it comes and
    sends back the columns it wrote.  A block of 1,024-cell states (128 KiB)
    is larger than the pipe's 64 KiB buffer, so its send waits until the
    record process reads it, and that process keeps ahead of the stepping.

    Failures are raised as `recorder.record` raises them.  Where a step
    fails, this process closes the pipe, and the record process solves the
    lambda batches it has not reached and sends a lambda failure or an
    earlier block's, which is raised, or else its columns, and the step's
    failure is raised.  Where the record process fails, it sends its
    failure and stops reading, so a send here breaks and its failure is
    raised.  A record process that exits without sending raises a
    CfpkError naming its exit code."""
    with Forked(_record_process, (recorder, width), "the record process", {}, feed=True) as child:
        failure = None
        try:
            for _, rows in blocks:
                child.feed.send_bytes(rows)
        except BrokenPipeError:
            pass  # the record process failed and stopped reading: it sent its failure
        except Exception as exc:
            failure = exc  # a step's: raised unless the record process sends its own
        child.feed.close()
        out = child.receive()
    if isinstance(out, Exception):
        raise out
    if failure is not None:
        raise failure
    for name in recorder.names:
        recorder.cols[name][:] = out[name]


def _record_process(recorder: _Recorder, width: int, feed, send) -> None:
    """The record process of `_record_beside`: records the blocks read from
    `feed`, rows of `width` values, until all have come or the stepping
    process closes `feed`, then solves the lambda batches not reached.
    Sends the columns it wrote, or the exception that stopped it."""
    n = len(recorder.cols["t"])

    def blocks():
        for start in range(0, n, RECORD_BLOCK):
            try:
                data = feed.recv_bytes()
            except EOFError:
                return
            yield start, np.frombuffer(data).reshape(-1, width)

    try:
        recorder.record(blocks())
        recorder.finish()
        out = {name: recorder.cols[name] for name in recorder.names}
    except Exception as exc:
        out = exc
    # no more reads: a stepping process blocked on a send sees the pipe break
    feed.close()
    send.send(out)


def total_limited_mass(columns: dict[str, np.ndarray]) -> float:
    """The run's limited negative mass, summed in record order: np.sum pairs
    terms, which moves the last bits."""
    return float(sum(columns["limited_mass"].tolist()))


def write_csv(columns: dict[str, np.ndarray], path: str, names: list[str]) -> None:
    """The `names` columns in that order, 17 significant digits: byte-identical
    across runs.  Rows are formatted and written CSV_BLOCK at a time."""
    row = ",".join(["%.17g"] * len(names)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(0, len(columns[names[0]]), CSV_BLOCK):
            block = (columns[c][i : i + CSV_BLOCK].tolist() for c in names)
            fh.write("".join(row % values for values in zip(*block)))
