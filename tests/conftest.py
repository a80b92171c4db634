"""Shared fixtures and independent oracle implementations.

The oracles here are deliberately written from the closed forms with
plain loops, independent of the library's vectorized assembly paths.
"""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import solve_triangular

from soilgp.data import Location, Observation, make_dataset
from soilgp.gp import HyperParams
from soilgp.kernels import KernelMode, assemble_cross_cov, theta_dim

SQRT3 = math.sqrt(3.0)

# A length-scale at which l**3 rounds differently for a numpy scalar and
# for a 0-d array (8114.030478136729 vs ...728).
ULP_LENGTHSCALE = 20.094577448768796


def matern32_scalar(r, l):
    z = SQRT3 * r / l
    return (1.0 + z) * math.exp(-z)


def cross_scalar(r, li, lj):
    if abs(li - lj) <= 1e-4 * max(li, lj):
        return matern32_scalar(r, min(li, lj))
    return (
        2.0
        * math.sqrt(li * lj)
        / (li**2 - lj**2)
        * (li * math.exp(-SQRT3 * r / li) - lj * math.exp(-SQRT3 * r / lj))
    )


def naive_cov(tasks, xy, Kc, ls, noise, mode):
    """Double-loop covariance builder straight from the entry rule."""
    m = len(tasks)
    K = np.zeros((m, m))
    for p in range(m):
        for q in range(m):
            r = math.hypot(xy[p, 0] - xy[q, 0], xy[p, 1] - xy[q, 1])
            i, j = tasks[p], tasks[q]
            if mode is KernelMode.ICM:
                s = matern32_scalar(r, ls[0])
            else:
                s = cross_scalar(r, ls[i], ls[j])
            K[p, q] = Kc[i, j] * s
            if p == q:
                K[p, q] += noise[i]
    return K


def dense_lml_oracle(theta: HyperParams, dataset) -> float:
    """Multivariate-normal log-density via scipy on a naive covariance."""
    L, ls, noise = theta.unpack()
    K = naive_cov(dataset.task_index, dataset.xy, L @ L.T, ls, noise, theta.mode)
    return float(
        stats.multivariate_normal(mean=np.zeros(len(dataset)), cov=K).logpdf(
            dataset.values
        )
    )


def fd_gradient_oracle(lml_fn, theta_values, h=1e-5):
    """Central finite differences of an arbitrary scalar function."""
    g = np.empty(len(theta_values))
    for i in range(len(theta_values)):
        tp = np.array(theta_values, dtype=float)
        tp[i] += h
        fp = lml_fn(tp)
        tp[i] -= 2 * h
        fm = lml_fn(tp)
        g[i] = (fp - fm) / (2 * h)
    return g


def reference_prediction(model, tasks, xy):
    """Normalized posterior mean and clamped variance of (task, point)
    rows from :func:`assemble_cross_cov` and one solve over all rows."""
    L_task, ls, _ = model.theta.unpack(model.noise_floor)
    Kc = L_task @ L_task.T
    ds = model.dataset
    Ks = assemble_cross_cov(tasks, xy, ds.task_index, ds.xy, Kc, ls, model.mode)
    # OpenBLAS's gemv computes rows four at a time and the one to three
    # rows left at the end (of the matrix, or of a thread's share) in
    # another kernel, which rounds differently. Padded to a multiple of
    # eight rows, as the library pads its blocks, every row goes through
    # the same kernel on both sides.
    q = len(Ks)
    Ks = np.vstack([Ks, np.zeros((-q % 8, Ks.shape[1]))])
    mean = (Ks @ model.alpha)[:q]
    v = solve_triangular(model.chol_factor, Ks.T, lower=True)
    var = Kc[tasks, tasks] - np.einsum("ij,ij->j", v, v)[:q]
    return mean, np.where(var < 0, 0.0, var)


def random_instance(seed, n_tasks=None, max_points=8, mode=None, noise_lo=1e-3):
    """Seeded heterotopic dataset plus a valid random theta."""
    rng = np.random.default_rng(seed)
    n = n_tasks if n_tasks is not None else int(rng.integers(1, 4))
    m = int(rng.integers(max(n, 2), max_points + 1))
    mode = mode if mode is not None else rng.choice(list(KernelMode))
    obs = []
    # every task appears at least once, extras drawn at random
    task_seq = list(range(n)) + list(rng.integers(0, n, size=m - n))
    for j, t in enumerate(task_seq):
        loc = Location(float(rng.uniform(0, 60)), float(rng.uniform(0, 60)))
        obs.append(Observation(f"S{j + 1:02d}", loc, int(t), float(rng.normal())))
    ds = make_dataset(obs, n)

    dim = theta_dim(n, mode)
    n_tri = n * (n + 1) // 2
    n_ls = 1 if mode is KernelMode.ICM else n
    vec = np.empty(dim)
    k = 0
    for a in range(n):
        for b in range(a + 1):
            vec[k] = rng.uniform(-0.3, 0.3) if a == b else rng.uniform(-1, 1)
            k += 1
    vec[n_tri : n_tri + n_ls] = rng.uniform(np.log(3), np.log(60), size=n_ls)
    vec[n_tri + n_ls :] = rng.uniform(np.log(noise_lo), np.log(0.5), size=n)
    return ds, HyperParams(vec, n, mode)


@pytest.fixture
def small_dataset():
    rng = np.random.default_rng(42)
    obs = []
    for j in range(6):
        loc = Location(float(rng.uniform(0, 40)), float(rng.uniform(0, 40)))
        for t in range(2):
            obs.append(Observation(f"S{j + 1:02d}", loc, t, float(rng.normal())))
    return make_dataset(obs, 2, ("pH", "N"))
