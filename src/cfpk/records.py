"""Trajectories: the record columns, the one record kernel, and CSV emission.

A run returns its trajectory as a dict of numpy arrays, one entry per
record.  Both schemes fill the shared COLUMNS the same way: `_schedule`
fills the path columns before the first step, `_record_block` maps
RECORD_BLOCK state rows at a time to their diagnostics, and
`_audit_energy_balance` runs on the finished columns.  The scheme supplies
the two columns it defines itself, sigma and D.  FV (`fpsolver.run`) takes
both from the record state: sigma = int H' rho dx + tau l'(t) and the grid
dissipation at it.  JKO (`transport.jko_run`) takes sigma as the step's KKT
multiplier, and D = tau^2 W2sq_step / h^2, the step's squared metric slope
(Ambrosio, Gigli & Savare, Gradient Flows in Metric Spaces and in the Space
of Probability Measures, ch. 3): the grid formula reads 1e3 to 1e4 on its
rows, all of it from the cells at the edge of the truncated support that
`quantile_to_density` projects.  A JKO run has no t = 0 row, so its first
`eb_residual` is NaN, and its H_q and H* carry the projection's floor: the
smallest H_q over the 1,000 rows of the `jko_chain` benchmark reads 7.8e-4.

Columns that are never written ride in the same dict: `lam_ell`, `l1_star`
and `ell_dot` of both schemes, the FV `steps` and `density`, the JKO
`quantile`.
"""

from __future__ import annotations

import numpy as np

from .core import ConstraintPath, Grid, Potential, _entropy_integrand, _log_density
from .equilibrium import LambdaSolve, TiltedFamily, solve_lambda, solve_lambdas
from .functionals import _breakdown, _kl_integrand

COLUMNS = [
    "t", "sigma", "ell", "M1", "M2", "F", "S", "E", "D", "eb_residual", "Hrel_quasistatic", "Hrel_star",
]
FPSOLVER_COLUMNS = COLUMNS + ["limited_mass", "mass_drift"]
TRANSPORT_COLUMNS = COLUMNS + ["W2sq_step", "kkt_residual"]
# Rows of the record block: a run computes record diagnostics this many
# states at a time.  32 costs the same per record and keeps 0.4 MB more in
# buffers; 128 costs more.
RECORD_BLOCK = 16


def _schedule(
    names: list, times: list, size: int, star: LambdaSolve, pot: Potential, grid: Grid, path: ConstraintPath,
    nu: float,
) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """The `names` columns of a run with record `times`, and `lam_ell`,
    `l1_star`, `ell_dot`: NaN but for t, ell, ell_dot and lam_ell.  Also
    the log Z of gamma_{lambda(ell(t))}: None on a constant path, where that
    state is `star`.  On a moving path lambda(ell(t)) is solved in
    `solve_lambdas` batches of `size` lanes from record 0, each lane started
    from the tangent predictor lambda_a + (ell - ell_a) nu^2 / Var_a
    (d lambda / d ell = nu^2 / Var) at the last lane of the batch before, or
    at a cold solve of lambda(ell(times[0])) for the first batch."""
    n = len(times)
    cols = {name: np.full(n, np.nan) for name in names + ["lam_ell", "l1_star"]}
    ells, lam = cols["ell"], cols["lam_ell"]
    cols["t"][:], ells[:] = times, [path.ell(t) for t in times]
    cols["ell_dot"] = np.array([path.ell_dot(t) for t in times])
    if path.L0 == 0.0:
        lam[:] = star.lam
        return cols, None
    log_z, nu2 = np.empty(n), nu * nu
    first = solve_lambda(ells[0], nu, pot, grid)
    lam_a, ell_a, var_a = first.lam, ells[0], first.state.variance
    for i in range(0, n, size):
        batch = slice(i, i + size)
        ell = ells[batch]
        lam[batch], _, var, log_z[batch], *_ = solve_lambdas(ell, nu, pot, grid, lam_a + (ell - ell_a) * nu2 / var_a)
        lam_a, ell_a, var_a = lam[batch][-1], ell[-1], var[-1]
    return cols, log_z


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


def total_limited_mass(columns: dict[str, np.ndarray]) -> float:
    """The run's limited negative mass, summed in record order: np.sum pairs
    terms, which moves the last bits."""
    return float(sum(columns["limited_mass"].tolist()))


def write_csv(columns: dict[str, np.ndarray], path: str, names: list[str]) -> None:
    """The `names` columns in that order, 17 significant digits: byte-identical across runs."""
    row = ",".join(["%.17g"] * len(names))
    lines = [",".join(names)]
    lines.extend(row % values for values in zip(*(columns[c].tolist() for c in names)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
