"""Refined fully relaxing reference runs for the convergence tests.

A reference run integrates the same problem through coupler.run_maxwell
on a grid refined in both y and t, such that every coarse node and time
is also a fine one; the restrict helpers pick those back out.
"""

from dataclasses import replace

import numpy as np

from hlcouette.coupler import CoupledProblem, RunResult, run_maxwell
from hlcouette.grids import SpaceTimeGrid


def refined_space_grid(sgrid: SpaceTimeGrid, refine: int) -> SpaceTimeGrid:
    """Grid refined so coarse nodes/times are subsets of the fine ones."""
    return SpaceTimeGrid(n_y=refine * (sgrid.n_y + 1) - 1,
                         dt=sgrid.dt / refine, t_final=sgrid.t_final)


def restrict_nodes(field_fine: np.ndarray, refine: int) -> np.ndarray:
    """Restrict a fine interior-node field (last axis) to the coarse nodes."""
    return np.asarray(field_fine)[..., refine - 1::refine]


def restrict_times(series_fine: np.ndarray, refine: int) -> np.ndarray:
    """Restrict a per-step series (first axis) to the coarse time ladder."""
    return np.asarray(series_fine)[::refine]


def maxwell_reference_run(prob: CoupledProblem, tau0_fn, u0_fn,
                          refine: int = 4, snap_every: int = 0) -> RunResult:
    """Fully relaxing reference on a refine-times finer grid in y and t.

    tau0_fn / u0_fn evaluate the initial fields at arbitrary gap nodes so
    the refined grid can be seeded consistently.
    """
    fine = refined_space_grid(prob.space_grid, refine)
    return run_maxwell(replace(prob, space_grid=fine),
                       tau0=np.asarray([tau0_fn(y) for y in fine.y]),
                       u0=np.asarray([u0_fn(y) for y in fine.y]),
                       snap_every=snap_every)
