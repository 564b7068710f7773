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

Columns that are never written ride in the same dict: `lam_ell`, `l1_star`
and `ell_dot` of both schemes, the FV `steps` and `density`, the JKO
`quantile`.  `density` and `quantile` hold the states of every stride-th
record only (none by default), so a run holds RECORD_BLOCK states at a
time and its memory does not grow with its step count; `write_csv` writes
CSV_BLOCK rows at a time for the same reason.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .core import ConstraintPath, Grid, ModelParams, Potential, _entropy_integrand, _log_density, step_count
from .equilibrium import LambdaSolve, TiltedFamily, solve_lambda, solve_lambdas, tilted_family
from .functionals import _breakdown, _kl_integrand, log_partition

COLUMNS = [
    "t", "sigma", "ell", "M1", "M2", "F", "S", "E", "D", "eb_residual", "Hrel_quasistatic", "Hrel_star",
]
FPSOLVER_COLUMNS = COLUMNS + ["limited_mass", "mass_drift"]
TRANSPORT_COLUMNS = COLUMNS + ["W2sq_step", "kkt_residual"]
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
    other `names` columns and l1_star with NaN.  lambda(ell(t)) is
    lambda(ell*) on a constant path; on a moving path it is solved in
    `solve_lambdas` batches of RECORD_BLOCK lanes, each started from the
    tangent predictor lambda_a + (ell - ell_a) nu^2 / Var_a (d lambda /
    d ell = nu^2 / Var) at the last lane of the batch before, the first
    batch from a cold solve at times[0].
    `states(cols)` yields the values of each record state in order and
    writes that record's own columns; it adds its 2-D columns after the last
    record, so the block views slice 1-D columns only.  Each block of
    RECORD_BLOCK states goes through `_record_block`, then, if given,
    through `record(rows, cols, h1_rho, log_r, family, params)`, which
    fills the scheme's own columns of the block.  The audit runs last."""
    nu, n, size = params.nu, len(times), RECORD_BLOCK
    star = solve_lambda(path.ell_star, nu, pot, grid)
    cols = {name: np.full(n, np.nan) for name in names + ["lam_ell", "l1_star"]}
    ells, lam = cols["ell"], cols["lam_ell"]
    cols["t"][:], ells[:] = times, [path.ell(t) for t in times]
    cols["ell_dot"] = np.array([path.ell_dot(t) for t in times])
    lam[:], log_z = star.lam, None
    if path.L0 != 0.0:
        log_z, nu2 = np.empty(n), nu * nu
        first = solve_lambda(ells[0], nu, pot, grid)
        lam_a, ell_a, var_a = first.lam, ells[0], first.state.variance
        for i in range(0, n, size):
            batch = slice(i, i + size)
            ell = ells[batch]
            start = lam_a + (ell - ell_a) * nu2 / var_a
            lam[batch], _, var, log_z[batch], *_ = solve_lambdas(ell, nu, pot, grid, start)
            lam_a, ell_a, var_a = lam[batch][-1], ell[-1], var[-1]
    family, logz0, rows = tilted_family(pot, grid), log_partition(pot, grid, nu), np.empty((size, grid.n))
    for i, vals in enumerate(states(cols)):
        j = i % size
        rows[j] = vals
        if j == size - 1 or i == n - 1:
            block = slice(i - j, i + 1)
            view = {name: col[block] for name, col in cols.items()}
            z = None if log_z is None else log_z[block]
            h1_rho, log_r = _record_block(rows[: j + 1], view, z, star, logz0, family, nu)
            if record is not None:
                record(rows[: j + 1], view, h1_rho, log_r, family, params)
    _audit_energy_balance(cols, params.tau)
    return cols


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
