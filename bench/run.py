#!/usr/bin/env python3
"""Run one soilgp benchmark workload and print its metrics.

    python3 bench/run.py --workload campaign --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` they are its per-layer metrics. Lines before it record the
machine and a SHA-256 of the workload's outputs. ``--smoke`` runs every
workload at reduced size in both modes and checks that each declared
metric is present with its declared unit.

soilgp is imported from ``src/`` of the checkout this file sits in; the
benchmark exits with code 2 when that tree is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("campaign", "map", "large")
# set-up runs at least SETUP_MIN times and until SETUP_SECONDS have passed
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 50, 1.5


def _import_soilgp() -> None:
    src = ROOT / "src"
    if not (src / "soilgp" / "__init__.py").is_file():
        raise ImportError(f"no soilgp package under {src}")
    sys.path.insert(0, str(src))
    import soilgp

    if Path(soilgp.__file__).resolve().parent != (src / "soilgp").resolve():
        raise ImportError(f"soilgp imported from {soilgp.__file__}, not from {src}")


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------


def _blas_threads() -> dict[str, int]:
    """Thread count of each bundled OpenBLAS (numpy's and scipy's)."""
    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in glob.glob(str(libdir / "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    out[pkg.__name__] = int(getattr(lib, sym)())
                    break
    return out


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


class Outcome:
    """Operation counts, output digests and quality values of the steps."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()
        self.quality: dict = {}
        self.messages: list[str] = []
        self.timings: dict[str, list[float]] = {}

    def record(self, wl, out, first: bool):
        ops, failures, digest, quality = wl.check(out, first)
        self.attempted += ops
        self.failed += min(ops, len(failures))
        self.messages += failures
        self.digests.add(digest)
        self.quality = quality

    def record_error(self, wl, exc: Exception):
        self.attempted += 1
        self.failed += 1
        self.messages.append(f"{wl.name} step raised {exc!r}")

    @property
    def correct(self) -> bool:
        # same inputs every step, so the output bytes must repeat exactly
        return self.failed == 0 and len(self.digests) == 1


def run_steps(wl, seconds: float, outcome: Outcome, tracer=None):
    """Closed loop of steps until ``seconds`` have passed (at least one).

    Returns the wall time of each step that completed and, per such step,
    the spans the tracer recorded during it."""
    times: list[float] = []
    step_spans: list[list] = []
    start = perf_counter()
    while True:
        first_span = len(tracer.spans) if tracer is not None else 0
        if tracer is not None:
            tracer.phase = "step"
        t0 = perf_counter()
        try:
            out = wl.step()
        except Exception as exc:
            out = exc
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.phase = None
        if isinstance(out, Exception):
            outcome.record_error(wl, out)
        else:
            times.append(dt)
            step_spans.append(tracer.spans[first_span:] if tracer is not None else [])
            outcome.record(wl, out, first=len(outcome.digests) == 0)
        if perf_counter() - start >= seconds:
            return times, step_spans


def timed_setups(wl) -> list[float]:
    times: list[float] = []
    while len(times) < SETUP_MIN or (sum(times) < SETUP_SECONDS
                                     and len(times) < SETUP_MAX):
        t0 = perf_counter()
        wl.setup()
        times.append(perf_counter() - t0)
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl, seconds: float, outcome: Outcome) -> dict:
    import tracing

    setup_times = timed_setups(wl)
    wl.warmup()
    # Only the refits and the scipy minimize they call are wrapped, to time
    # each refit and read its evaluation count; nothing else is intercepted.
    meter = tracing.Tracer()
    meter.install(only={"gp.fit", "gp.fit_stgp", "gp.minimize"})
    try:
        step_times, step_spans = run_steps(wl, seconds, outcome, tracer=meter)
    finally:
        meter.uninstall()
    outcome.timings = {"setup_s": setup_times, "step_s": step_times}
    return {
        "setup_s": statistics.median(setup_times),
        "unit_ms": 1e3 * wl.unit_seconds(step_times, step_spans),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(wl, seconds: float, outcome: Outcome, trace_path: Path) -> dict:
    import tracing

    wl.setup()
    wl.warmup()
    tracer = tracing.Tracer()
    tracer.install()
    plain: list[float] = []
    traced: list[float] = []
    try:
        tracer.phase = "setup"
        wl.setup()  # the same inputs again, now traced
        tracer.phase = None
        # Untraced and traced steps alternate, so that drift in the
        # machine's speed hits both alike; the wrappers stay installed
        # but only record while a traced step runs.
        start = perf_counter()
        while True:
            times, _ = run_steps(wl, 0.0, outcome)
            plain += times
            times, _ = run_steps(wl, 0.0, outcome, tracer=tracer)
            traced += times
            if perf_counter() - start >= seconds:
                break
    finally:
        tracer.phase = None
        tracer.uninstall()
    tracer.dump(trace_path)
    outcome.timings = {"untraced_step_s": plain, "traced_step_s": traced}
    setup = tracing.summarize(tracer.spans, "setup", 1)
    step = tracing.summarize(tracer.spans, "step", max(len(traced), 1))
    total = {k: setup.get(k, 0.0) + step.get(k, 0.0) for k in setup.keys() | step.keys()}
    overhead = (statistics.median(traced) - statistics.median(plain)
                if plain and traced else 0.0)
    return layer_metrics(total, outcome.quality, overhead)


def layer_metrics(t: dict, quality: dict, overhead: float) -> dict:
    """Map span summaries onto the per-layer metric names."""
    def g(key):  # a layer a workload never calls reads 0
        return t.get(key, 0.0)

    m = {}
    for name in ("kernels.cross_matern32", "kernels.cross_matern32_dli",
                 "kernels.matern32", "kernels.matern32_dl", "kernels.chol_with_jitter",
                 "gp.cho_solve", "gp.minimize", "gp.fit", "gp.predict_arrays",
                 "gp.solve_triangular", "gp.cdist", "mapping.predict_map",
                 "mapping.sequential_eval", "data.prefix", "data.normalize",
                 "io.write_map_csv", "io.write_asc", "io.parse_observations",
                 "io.read_model", "synthetic.draw_field", "cli.main"):
        m[f"{name}.s"] = g(f"{name}.s")
    for name in ("kernels.cross_matern32", "kernels.cross_matern32_dli",
                 "kernels.chol_with_jitter", "gp.predict_arrays", "gp.fit"):
        m[f"{name}.calls"] = g(f"{name}.calls")
    m["kernels.cross_matern32.entries"] = g("kernels.cross_matern32.entries")
    for key in ("jittered", "rejected", "gflop"):
        m[f"kernels.chol_with_jitter.{key}"] = g(f"kernels.chol_with_jitter.{key}")
    nfev = g("gp.minimize.nfev")
    m["gp.nfev"] = nfev
    m["gp.nit"] = g("gp.minimize.nit")
    m["gp.eval_ms"] = 1e3 * g("gp.minimize.s") / nfev if nfev else 0.0
    m["gp.restarts_rejected"] = g("gp.minimize.restarts_rejected")
    m["gp.self_s"] = g("gp.minimize.self_s")
    m["gp.minimize.children_s"] = g("gp.minimize.s") - g("gp.minimize.self_s")
    m["io.bytes_written"] = sum(v for k, v in t.items() if k.endswith(".bytes_written"))
    for layer in ("kernels", "mapping", "data", "io", "synthetic", "cli"):
        m[f"{layer}.self_s"] = g(f"{layer}.layer_self_s")
    m["gp.layer_self_s"] = g("gp.layer_self_s")
    m["gp.fit_lml"] = quality.get("fit_lml", 0.0)
    m["mapping.replay_rmse"] = quality.get("replay_rmse", 0.0)
    m["trace.overhead_s"] = overhead
    return m


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.make(name, seed, smoke, OUT_DIR)
    outcome = Outcome()
    try:
        if trace:
            path = OUT_DIR / f"trace-{name}-seed{seed}.jsonl"
            values = per_layer(wl, seconds, outcome, path)
        else:
            values = end_to_end(wl, seconds, outcome)
    finally:
        workdir = getattr(wl, "workdir", None)
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
    units = declared_metrics(trace)
    missing = set(units) - set(values)
    if missing:
        raise KeyError(f"metrics not computed: {sorted(missing)}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    result = {"correct": outcome.correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine(), "output_sha256": sorted(outcome.digests),
              "failures": outcome.messages[:20], "timings": outcome.timings, **result}
    (OUT_DIR / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return result, record


def smoke() -> int:
    """Every workload at reduced size, both modes: metric names, units
    and output checks."""
    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            result, _ = run(name, 0, 0.5, trace, smoke=True)
            units = declared_metrics(trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != units:
                problems.append(f"{name} trace={trace}: metrics {got} != {units}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: outputs failed their checks")
            print(f"smoke {name} trace={int(trace)}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, {len(got)} metrics")
    for p in problems:
        print(f"smoke FAIL: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        _import_soilgp()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print("output_sha256 " + " ".join(record["output_sha256"]))
    for msg in record["failures"]:
        print(f"check failed: {msg}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
