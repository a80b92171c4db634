#!/usr/bin/env python3
"""Sample-by-sample replay of the paper's design on a synthetic field.

Draws one campaign from a known prior (tasks 1-2 correlated at 0.9) with
a 20x20 truth grid, refits after each ingested sample, and writes the
per-task RMSE curves of the joint multi-task model and the single-task
baselines (--curves), the estimated inter-task correlations (--trajectory),
or both, all of that one campaign.

    python scripts/replay_experiment.py --curves curves.csv --trajectory traj.csv --seed 0
"""

import argparse
import sys

import numpy as np

from soilgp.gp import FitConfig
from soilgp.io import write_rmse_curves, write_trajectory
from soilgp.mapping import correlation_trajectory, sequential_eval
from soilgp.synthetic import SyntheticField, draw_field, grid_locations

TRUTH_GRID = 20  # truth points per side


def draw_campaign(seed: int, n_samples: int):
    """The design's dataset and its truth on the grid's cell centers."""
    field = SyntheticField(noise_vars=(0.0025,) * 4, n_samples=n_samples)
    gx, gy = np.meshgrid(
        (np.arange(TRUTH_GRID) + 0.5) * field.width / TRUTH_GRID,
        (np.arange(TRUTH_GRID) + 0.5) * field.height / TRUTH_GRID,
    )
    truth_xy = np.column_stack([gx.ravel(), gy.ravel()])
    return draw_field(field, seed, truth_xy=truth_xy, locations=grid_locations(field))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--curves", help="RMSE curves CSV: method,task,k,rmse")
    parser.add_argument("--trajectory", help="correlations CSV: task_i,task_j,k,r")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=30)
    parser.add_argument("--restarts", type=int, default=4)
    args = parser.parse_args(argv)
    if not (args.curves or args.trajectory):
        parser.error("give --curves, --trajectory or both")
    dataset, truth = draw_campaign(args.seed, args.samples)
    config = FitConfig(restarts=args.restarts, max_iters=120, seed=args.seed)
    if args.curves:
        curves = [sequential_eval(dataset, truth, m, config) for m in ("mtgp", "stgp")]
        write_rmse_curves(args.curves, dataset.labels, curves)
        for i, label in enumerate(dataset.labels):
            print(f"{label:>3s}: final RMSE mtgp={curves[0].values[-1, i]:.3f} "
                  f"stgp={curves[1].values[-1, i]:.3f}")
        print(f"wrote {args.curves}")
    if args.trajectory:
        traj = correlation_trajectory(dataset, config)
        write_trajectory(args.trajectory, dataset.labels, traj)
        for (i, j), r in zip(traj.pairs, traj.values[-1]):
            print(f"{dataset.labels[i]}-{dataset.labels[j]}: final r = {r:+.3f}")
        print(f"wrote {args.trajectory}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
