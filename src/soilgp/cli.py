"""Command-line pipelines over the mapping library.

Exit codes: 0 success, 1 usage error, 2 data error (missing/malformed
files, inconsistent inputs), 3 numeric failure (covariance rejection,
failed hyperparameter search).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .data import Rect, _check_positive, check_labels
from .gp import FitConfig, NumericFailure, correlation_matrix, fit, predict_arrays
from .io import (
    SETTING_PARSERS,
    RunConfig,
    dataset_digest,
    model_from_record,
    parse_boundary,
    parse_observations,
    parse_plan,
    parse_queries,
    parse_run_config,
    parse_truth,
    read_model,
    write_correlation_matrix,
    write_maps,
    write_model,
    write_observations,
    write_plan,
    write_predictions,
    write_rmse_curves,
    write_trajectory,
    write_truth,
)
from .kernels import KernelMode
from .mapping import GridSpec, correlation_trajectory, predict_map, sequential_eval
from .mission import DrillSpec, grid_plan, sample_mass
from .synthetic import SyntheticField, draw_field

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message)


# help metavar of both --mode flags, which parse through KernelMode.parse
_MODE_METAVAR = "{" + ",".join(KernelMode.names()) + "}"


def _add_fit_flags(p):
    p.add_argument("--config", help="run-config file (key=value lines)")
    for f in fields(FitConfig):
        parse = SETTING_PARSERS[f.name]
        p.add_argument("--" + f.name.replace("_", "-"), type=parse,
                       metavar=_MODE_METAVAR if parse == KernelMode.parse else None)


def _resolve_config(args) -> RunConfig:
    """The --config file's settings, each overridden by its flag if given."""
    settings = parse_run_config(args.config) if args.config else {}
    for key in SETTING_PARSERS:
        v = getattr(args, key, None)
        # by identity: an unset flag is None or False, and --seed 0 == False
        if v is not None and v is not False:
            settings[key] = v
    return RunConfig.from_settings(settings)


def build_parser() -> _Parser:
    parser = _Parser(prog="soilgp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a multi-task model to observations")
    p.add_argument("--obs", required=True)
    p.add_argument("--out", required=True, help="model file to write")
    _add_fit_flags(p)

    p = sub.add_parser("predict", help="posterior mean/variance at query points")
    p.add_argument("--model", required=True)
    p.add_argument("--obs", required=True, help="training observations (digest checked)")
    p.add_argument("--queries", required=True, help="CSV with task,x_m,y_m")
    p.add_argument("--out", required=True)
    p.add_argument("--denormalize", action="store_true")
    p.add_argument("--include-noise", action="store_true")

    p = sub.add_parser("map", help="prediction and uncertainty maps on a grid")
    p.add_argument("--model", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--prefix", default="map")
    p.add_argument("--bounds", help="xmin,ymin,xmax,ymax (default: data bounds)")
    p.add_argument("--resolution", type=SETTING_PARSERS["resolution"])
    p.add_argument("--denormalize", action="store_true")
    p.add_argument("--config")

    p = sub.add_parser("eval-sequential", help="per-sample RMSE replay curves")
    p.add_argument("--obs", required=True)
    p.add_argument("--truth", required=True, help="CSV with task,x_m,y_m,value")
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=["mtgp", "stgp", "both"], default="both")
    p.add_argument("--raw-errors", action="store_true",
                   help="skip per-task truth-std normalization of RMSE")
    _add_fit_flags(p)

    p = sub.add_parser("correlations", help="task correlation matrix or trajectory")
    p.add_argument("--model", help="model file: write the correlation matrix")
    p.add_argument("--obs", help="observations: write a per-sample trajectory")
    p.add_argument("--out", required=True)
    _add_fit_flags(p)

    # synth's defaults are SyntheticField's; the length-scales are taken from the front
    field = SyntheticField
    p = sub.add_parser("synth", help="draw a synthetic campaign from a known prior")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-samples", type=int, default=field.n_samples)
    p.add_argument("--width", type=float, default=field.width)
    p.add_argument("--height", type=float, default=field.height)
    p.add_argument("--labels", default=",".join(field.labels))
    p.add_argument("--variances", help="comma-separated per-task variances "
                   "(default: %g each)" % field.TASK_VARIANCE)
    p.add_argument("--lengthscales", help="comma-separated length-scales in m, one per "
                   "task or one for icm (default: the first of %s)"
                   % ",".join(f"{v:g}" for v in field.lengthscales))
    p.add_argument("--noise", help="comma-separated per-task noise variances "
                   "(default: %g each)" % field.TASK_NOISE_VAR)
    p.add_argument("--corr", action="append", help="inter-task correlation as "
                   "LABEL,LABEL=r (repeatable; default: %s)" % ", ".join(
                       f"tasks {i + 1},{j + 1} at {r:g}" for i, j, r in field.correlations))
    p.add_argument("--mode", type=KernelMode.parse, metavar=_MODE_METAVAR,
                   default=field.mode)
    p.add_argument("--plan", help="take sample locations from a plan CSV")
    p.add_argument("--truth-out", help="also write a noise-free truth grid CSV")
    p.add_argument("--truth-resolution", type=float, default=20.0)

    p = sub.add_parser("plan", help="grid sample plan inside a field boundary")
    p.add_argument("--boundary", required=True, help="CSV with ring,x_m,y_m")
    p.add_argument("--spacing", type=float, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("mass", help="sample mass from drill geometry")
    p.add_argument("--rho", type=float, required=True, help="bulk density g/mm^3")
    p.add_argument("--depth", type=float, required=True, help="mm")
    p.add_argument("--diameter", type=float, required=True, help="mm")

    return parser


def _load_model_with_data(args):
    record = read_model(args.model)
    dataset = parse_observations(args.obs)
    return record, dataset, model_from_record(record, dataset)


def _cmd_fit(args):
    cfg = _resolve_config(args)
    dataset = parse_observations(args.obs)
    model = fit(dataset, cfg.fit)
    write_model(args.out, model, dataset_digest(dataset))
    print(f"fitted {dataset.n_tasks} tasks on {len(dataset)} observations; "
          f"lml={model.lml:.6f}")
    return EXIT_OK


def _cmd_predict(args):
    _, dataset, model = _load_model_with_data(args)
    tasks, xy = parse_queries(args.queries, dataset.labels)
    mean, var = predict_arrays(model, tasks, xy, denormalize=args.denormalize,
                               include_noise=args.include_noise)
    write_predictions(args.out, dataset.labels, tasks, xy, mean, var)
    return EXIT_OK


def _parse_bounds(raw) -> Rect:
    parts = [_number("bounds", v) for v in raw.split(",")]
    if len(parts) != 4:
        raise ValueError("bounds must be xmin,ymin,xmax,ymax")
    return Rect(*parts)


def _cmd_map(args):
    cfg = _resolve_config(args)
    _, dataset, model = _load_model_with_data(args)
    bounds = _parse_bounds(args.bounds) if args.bounds else dataset.field_bounds
    grid = GridSpec(bounds, cfg.resolution)
    mean, variance = predict_map(model, grid, denormalize=cfg.denormalize)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = dataset.labels
    write_maps(out_dir, args.prefix, labels, grid, mean, variance)
    print(f"wrote {len(labels)} mean + {len(labels)} variance surfaces "
          f"({grid.nx}x{grid.ny} cells) to {out_dir}")
    return EXIT_OK


def _cmd_eval_sequential(args):
    cfg = _resolve_config(args)
    dataset = parse_observations(args.obs)
    truth = parse_truth(args.truth, dataset.labels)
    methods = ["mtgp", "stgp"] if args.method == "both" else [args.method]
    curves = [
        sequential_eval(dataset, truth, m, cfg.fit,
                        normalize_errors=not args.raw_errors)
        for m in methods
    ]
    write_rmse_curves(args.out, dataset.labels, curves)
    return EXIT_OK


def _cmd_correlations(args):
    if (args.model is None) == (args.obs is None):
        raise _UsageError("correlations needs exactly one of --model or --obs")
    if args.model:
        record = read_model(args.model)
        Kc = record.theta.task_cov()
        write_correlation_matrix(args.out, record.labels, correlation_matrix(Kc))
    else:
        cfg = _resolve_config(args)
        dataset = parse_observations(args.obs)
        traj = correlation_trajectory(dataset, cfg.fit)
        write_trajectory(args.out, dataset.labels, traj)
    return EXIT_OK


def _number(what, raw):
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{what} must be a number, got {raw!r}") from None


def _comma_floats(raw, n, what):
    vals = [float(_check_positive(_number(what, v), what)) for v in raw.split(",")]
    if len(vals) == 1:
        vals = vals * n
    if len(vals) != n:
        counts = "1 value" if n == 1 else f"1 or {n} comma-separated values"
        raise ValueError(f"{what} needs {counts}")
    return tuple(vals)


def _cmd_synth(args):
    labels = tuple(s.strip() for s in args.labels.split(","))
    n = len(labels)
    check_labels(labels)  # SyntheticField's rule, before any other setting
    mode = args.mode
    locations = parse_plan(args.plan) if args.plan else None
    n_samples = len(locations) if locations is not None else args.n_samples
    variances = _comma_floats(args.variances, n, "variances") if args.variances \
        else (SyntheticField.TASK_VARIANCE,) * n
    n_ls = mode.n_lengthscales(n)
    default_ls = SyntheticField.lengthscales  # one per task, or one shared under ICM
    if args.lengthscales is not None:
        lengthscales = _comma_floats(args.lengthscales, n_ls, "lengthscales")
    elif n_ls <= len(default_ls):
        lengthscales = default_ls[:n_ls]
    else:
        raise ValueError(
            f"{n} tasks need --lengthscales: the default has {len(default_ls)} values"
        )
    noise = _comma_floats(args.noise, n, "noise") if args.noise \
        else (SyntheticField.TASK_NOISE_VAR,) * n
    correlations = SyntheticField.correlations if n >= 2 else ()
    if args.corr is not None:
        correlations = []
        for spec in args.corr:
            pair, _, rv = spec.partition("=")
            a, _, b = pair.partition(",")
            a, b = a.strip(), b.strip()
            if a not in labels or b not in labels or not rv:
                raise ValueError(f"bad --corr {spec!r} (expected LABEL,LABEL=r)")
            correlations.append((labels.index(a), labels.index(b), _number("corr", rv)))

    cfg = SyntheticField(
        labels=labels,
        variances=variances,
        correlations=tuple(correlations),
        lengthscales=lengthscales,
        noise_vars=noise,
        width=args.width,
        height=args.height,
        n_samples=n_samples,
        mode=mode,
    )
    truth_xy = None
    grid = None
    if args.truth_out:
        grid = GridSpec(Rect(0.0, 0.0, cfg.width, cfg.height), args.truth_resolution)
        truth_xy = grid.cell_centers
    dataset, truth = draw_field(cfg, args.seed, truth_xy=truth_xy,
                                locations=locations)
    write_observations(args.out, dataset)
    if args.truth_out:
        write_truth(args.truth_out, labels, truth)
    print(f"wrote {len(dataset)} observations for {n} tasks to {args.out}")
    return EXIT_OK


def _cmd_plan(args):
    boundary = parse_boundary(args.boundary)
    points = grid_plan(boundary, args.spacing)
    write_plan(args.out, points)
    print(f"{len(points)} sample points at {args.spacing:g} m spacing")
    return EXIT_OK


def _cmd_mass(args):
    spec = DrillSpec(args.rho, args.depth, args.diameter)
    print(f"{sample_mass(spec):.1f}")
    return EXIT_OK


_COMMANDS = {
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "map": _cmd_map,
    "eval-sequential": _cmd_eval_sequential,
    "correlations": _cmd_correlations,
    "synth": _cmd_synth,
    "plan": _cmd_plan,
    "mass": _cmd_mass,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except NumericFailure as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
