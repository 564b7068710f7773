"""Per-time-step diagnostic records and their CSV emission."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

import numpy as np

from .core import Density

TRANSPORT_COLUMNS = ["t", "sigma", "ell", "M1", "M2", "F", "S", "E", "W2sq_step", "kkt_residual"]
FPSOLVER_COLUMNS = [
    "t", "sigma", "ell", "M1", "M2", "F", "S", "E",
    "D", "eb_residual", "Hrel_quasistatic", "Hrel_star", "limited_mass", "mass_drift",
]


@dataclass(slots=True)
class TrajectoryRecord:
    """One time-step of diagnostics; solver-specific fields stay NaN when
    the producing solver does not define them.  Slotted: a run holds
    thousands of records, and a slot costs 8 bytes where an instance dict
    entry costs more."""

    t: float
    sigma: float
    ell: float
    M1: float
    M2: float
    F: float
    S: float
    E: float
    W2sq_step: float = float("nan")
    kkt_residual: float = float("nan")
    D: float = float("nan")
    eb_residual: float = float("nan")
    Hrel_quasistatic: float = float("nan")
    Hrel_star: float = float("nan")
    limited_mass: float = float("nan")  # FV: negative mass limited out since the last record
    mass_drift: float = float("nan")  # FV: largest step |mass - 1| since the last record
    # carried for in-process monitors, never serialized
    lam_ell: float = float("nan")
    l1_star: float = float("nan")
    steps: int = 0  # FV: steps taken since the last record
    # FV: the state on the records a `keep_densities` stride selects
    density: Optional[Density] = field(default=None, repr=False, compare=False)
    # JKO: the chain state; its grid density is quantile_to_density(quantile, grid)
    quantile: Optional[np.ndarray] = field(default=None, repr=False, compare=False)


def write_csv(records: list[TrajectoryRecord], path: str, columns: list[str]) -> None:
    """Fixed column order, 17 significant digits: byte-identical across runs."""
    row = ",".join(["%.17g"] * len(columns))
    values = attrgetter(*columns)
    lines = [",".join(columns)]
    lines.extend(row % values(r) for r in records)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
