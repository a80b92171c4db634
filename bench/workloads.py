"""The benchmark's three workloads.

Each workload makes its inputs from the seed in ``setup``, runs one
measured ``step`` on them, and checks the step's outputs in ``check``.
Steps call soilgp through module attributes (``gp.fit``, ``cli.main``)
so that the tracing wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from soilgp import cli, gp, io, kernels, mapping, synthetic
from soilgp.gp import FitConfig
from soilgp.kernels import KernelMode

# The acceptance generator: tasks 1-2 correlated at 0.9, Matérn 3/2
# length-scales 40/40/60/80 m, noise variance 0.0025, 300x170 m field.
PAPER_FIELD = synthetic.SyntheticField(noise_vars=(0.0025,) * 4)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _eval_seconds(step_spans) -> float:
    """Wall time per objective evaluation of each refit (a top-level
    ``fit`` or ``fit_stgp`` call, with the evaluations of all its
    optimizations), as its median over the run's steps (every step repeats
    the same refits), then averaged over the refits of a step."""
    per_step = []
    for spans in step_spans:
        refits = []  # [duration, evaluations]; nested spans follow their refit
        for name, start, end, parent, _, counts in spans:
            if parent < 0:
                refits.append([end - start, 0.0])
            elif name == "gp.minimize":
                refits[-1][1] += counts["nfev"]
        per_step.append([d / max(n, 1.0) for d, n in refits])
    return float(np.mean(np.median(np.array(per_step), axis=0)))


def _truth_grid(nx: int, ny: int, field: synthetic.SyntheticField) -> np.ndarray:
    gx, gy = np.meshgrid(
        (np.arange(nx) + 0.5) * field.width / nx,
        (np.arange(ny) + 0.5) * field.height / ny,
    )
    return np.column_stack([gx.ravel(), gy.ravel()])


class Campaign:
    """The paper design: one 8-restart fit, then the MTGP and STGP
    sequential replays (4 restarts, max_iters 120) scored on a 20x20
    truth grid. Many small objective evaluations (M <= 120)."""

    name = "campaign"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        n = 6 if smoke else 30
        self.field = replace(PAPER_FIELD, n_samples=n)
        self.truth_xy = _truth_grid(5, 5, self.field) if smoke else _truth_grid(
            20, 20, self.field)
        self.fit_config = FitConfig(restarts=2 if smoke else 8, seed=seed)
        self.replay_config = FitConfig(
            restarts=1 if smoke else 4, max_iters=20 if smoke else 120, seed=seed)
        self.n_samples = n

    def setup(self):
        locs = synthetic.grid_locations(self.field)
        self.data, self.truth = synthetic.draw_field(
            self.field, self.seed, truth_xy=self.truth_xy, locations=locs)

    def step(self):
        model = gp.fit(self.data, self.fit_config)
        curves = [
            mapping.sequential_eval(self.data, self.truth, method, self.replay_config)
            for method in ("mtgp", "stgp")
        ]
        return model, curves

    def warmup(self):
        gp.fit(self.data, FitConfig(restarts=1, max_iters=5, seed=self.seed))

    def unit_seconds(self, step_times, step_spans) -> float:
        """The unit is one objective evaluation."""
        return _eval_seconds(step_spans)

    def check(self, out, first: bool) -> tuple[int, list[str], str, dict]:
        """(operations, failures, output digest, quality values)."""
        model, curves = out
        failures = []
        lmls = np.array(model.restart_lmls)
        if not np.all(np.isfinite(lmls) | (lmls == gp.REJECTED)):
            failures.append(f"restart LML neither finite nor rejected: {lmls}")
        if not np.isfinite(model.lml):
            failures.append(f"best LML not finite: {model.lml}")
        for c in curves:
            if c.values.shape != (self.n_samples, 4) or not np.all(np.isfinite(c.values)):
                failures.append(f"{c.method} curves: shape {c.values.shape} or non-finite")
        digest = _digest(model.theta.values, lmls, *(c.values for c in curves))
        quality = {"fit_lml": float(model.lml),
                   "replay_rmse": float(np.mean(curves[0].values[-1]))}
        return 3, failures, digest, quality


class Map:
    """``soilgp map`` at 1 m over 300x170 m (51,000 cells x 4 tasks) on a
    model file written in set-up: one large Q x M cross-covariance, a
    triangular solve and bulk CSV/ASC writing; no optimizer."""

    name = "map"
    BOUNDS = "0,0,300,170"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.resolution = 10.0 if smoke else 1.0
        self.n_cells = int(300 / self.resolution) * int(170 / self.resolution)
        self.workdir = workdir

    def setup(self):
        data, _ = synthetic.draw_field(
            PAPER_FIELD, self.seed, locations=synthetic.grid_locations(PAPER_FIELD))
        self.obs = self.workdir / "obs.csv"
        self.model = self.workdir / "model.txt"
        io.write_observations(self.obs, data)
        # Conditioned on the generator's hyperparameters rather than fitted,
        # so set-up time does not depend on how hard the field is to fit.
        model = gp.condition(data, synthetic.prior_theta(PAPER_FIELD))
        io.write_model(self.model, model, io.dataset_digest(data))
        self.lml = float(model.lml)

    def step(self):
        return self._map(self.resolution)

    def warmup(self):
        self._map(5.0)

    def _map(self, resolution: float):
        out_dir = self.workdir / "maps"
        if out_dir.exists():
            shutil.rmtree(out_dir)
        argv = ["map", "--model", str(self.model), "--obs", str(self.obs),
                "--out-dir", str(out_dir), "--bounds", self.BOUNDS,
                "--resolution", repr(resolution)]
        with contextlib.redirect_stdout(stdio.StringIO()):
            code = cli.main(argv)
        return code, out_dir

    def unit_seconds(self, step_times, step_spans) -> float:
        """The unit is one grid cell (all four tasks) of the CLI map step."""
        return float(np.median(step_times)) / self.n_cells

    def check(self, out, first: bool):
        code, out_dir = out
        if code != 0:
            return 1, [f"soilgp map exited {code}"], "", {"fit_lml": self.lml}
        files = sorted(out_dir.iterdir())
        h = hashlib.sha256()
        for f in files:
            h.update(f.name.encode())
            h.update(f.read_bytes())
        failures = []
        if first:
            failures = self._check_grids(files)
        return 1, failures, h.hexdigest(), {"fit_lml": self.lml}

    def _check_grids(self, files) -> list[str]:
        failures = []
        means = [f for f in files if f.name.endswith("_mean.asc")]
        variances = [f for f in files if f.name.endswith("_variance.asc")]
        if len(means) != 4 or len(variances) != 4:
            failures.append(f"expected 4 mean + 4 variance grids, got {len(means)} + "
                            f"{len(variances)}")
        for f in means + variances:
            lines = f.read_text().splitlines()
            values = np.array(" ".join(lines[6:]).split(), dtype=float)
            if values.size != self.n_cells:
                failures.append(f"{f.name}: {values.size} cells, expected {self.n_cells}")
            if not np.all(np.isfinite(values)):
                failures.append(f"{f.name}: non-finite values")
            if f in variances and np.any(values < 0):
                failures.append(f"{f.name}: negative variance")
        return failures


class Large:
    """A homotopic ICM campaign of 250 samples x 4 tasks (M = 1000) fitted
    with one restart: the O(M^3) Cholesky and explicit inverse dominate,
    and it is the only workload on the ICM kernel branch."""

    name = "large"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.field = replace(PAPER_FIELD, n_samples=20 if smoke else 250,
                             lengthscales=(50.0,), mode=KernelMode.ICM)
        self.fit_config = FitConfig(restarts=1, seed=seed, mode=KernelMode.ICM,
                                    max_iters=20 if smoke else 200)

    def setup(self):
        self.data, _ = synthetic.draw_field(self.field, self.seed)

    def step(self):
        return gp.fit(self.data, self.fit_config)

    def warmup(self):
        gp.fit(self.data, FitConfig(restarts=1, max_iters=2, seed=self.seed,
                                    mode=KernelMode.ICM))

    def unit_seconds(self, step_times, step_spans) -> float:
        """The unit is one objective evaluation."""
        return _eval_seconds(step_spans)

    def check(self, model, first: bool):
        failures = []
        if not np.isfinite(model.lml):
            failures.append(f"final LML not finite: {model.lml}")
        L, ls, noise = model.theta.unpack(model.noise_floor)
        ds = model.dataset
        K = kernels.assemble_training_cov(ds.task_index, ds.xy, L @ L.T, ls, noise,
                                          model.mode)
        K[np.diag_indices_from(K)] += model.jitter
        resid = np.linalg.norm(K @ model.alpha - ds.values) / np.linalg.norm(ds.values)
        if not resid <= 1e-8:
            failures.append(f"alpha residual {resid:.3e} > 1e-8")
        digest = _digest(model.theta.values, model.alpha)
        return 1, failures, digest, {"fit_lml": float(model.lml)}


def make(name: str, seed: int, smoke: bool, root: Path):
    if name == "campaign":
        return Campaign(seed, smoke)
    if name == "map":
        workdir = Path(tempfile.mkdtemp(prefix="map-", dir=root))
        return Map(seed, smoke, workdir)
    if name == "large":
        return Large(seed, smoke)
    raise ValueError(f"unknown workload {name!r}")
