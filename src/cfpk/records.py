"""Trajectory columns and their CSV emission.

A run returns its trajectory as a dict of numpy arrays, one per diagnostic,
each with one entry per record; the columns below are written to CSV.
Solver-specific extras (the FV `lam_ell`, `l1_star`, `ell_dot`, `steps` and
`density`, the JKO `quantile`) ride in the same dict but are never written.
"""

from __future__ import annotations

import numpy as np

TRANSPORT_COLUMNS = ["t", "sigma", "ell", "M1", "M2", "F", "S", "E", "W2sq_step", "kkt_residual"]
FPSOLVER_COLUMNS = [
    "t", "sigma", "ell", "M1", "M2", "F", "S", "E",
    "D", "eb_residual", "Hrel_quasistatic", "Hrel_star", "limited_mass", "mass_drift",
]


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
