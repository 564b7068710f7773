"""Trajectories against golden outputs written before a refactor.

`golden/fv_exp_decay.csv` and `golden/jko_chain.csv` hold the columns of the
two runs below, written by `records.write_csv` before trajectories became
column tables.  A refactor that keeps the arithmetic reproduces every column
to rtol = atol / max|column| = 1e-12, which leaves room for a BLAS that rounds
the last bit differently.  Two columns are roundoff themselves, so their
absolute tolerance is 1e-12 of the quantity they measure the roundoff of:
`mass_drift` of the unit mass, `kkt_residual` of KKT_TOL's scale max(1, |mu|).
"""

from pathlib import Path

import numpy as np
import pytest

from cfpk.core import Grid, ModelParams, doublewell_potential, exp_decay_path, gaussian_density
from cfpk.fpsolver import run
from cfpk.transport import jko_run

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-12
ROUNDOFF_SCALE = {"mass_drift": 1.0, "kkt_residual": 1.0}
PATH = exp_decay_path(0.2, 0.3, 2.0)


def fv_exp_decay():
    # 51 records, the last one on a stretched slot (dt does not divide T)
    g = Grid(-8.0, 8.0, 128)
    return run(gaussian_density(g, 0.5, 0.6), PATH, 0.01, doublewell_potential(), ModelParams(nu=0.8), 1.005,
               record_every=2)


def jko_chain():
    # ten steps
    g = Grid(-6.0, 6.0, 128)
    return jko_run(gaussian_density(g, 0.5, 0.5), PATH, 0.02, 0.2, doublewell_potential(), ModelParams(nu=0.8))


@pytest.mark.parametrize("runner", [fv_exp_decay, jko_chain], ids=lambda runner: runner.__name__)
def test_trajectory_matches_golden_columns(runner):
    path = GOLDEN / f"{runner.__name__}.csv"
    names = path.read_text().split("\n", 1)[0].split(",")
    golden = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
    traj = runner()
    for j, c in enumerate(names):
        want = golden[:, j]
        scale = max(float(np.nanmax(np.abs(want))), ROUNDOFF_SCALE.get(c, 0.0))
        np.testing.assert_allclose(traj[c], want, rtol=RTOL, atol=RTOL * scale, equal_nan=True, err_msg=c)
