"""Multi-task Gaussian-process mapping of sparse soil-property samples."""

from .data import (
    Dataset,
    Location,
    NormStats,
    Observation,
    Rect,
    make_dataset,
    normalize,
    prefix,
)
from .gp import (
    FitConfig,
    FittedModel,
    HyperParams,
    condition,
    fit,
    fit_stgp,
    log_marginal_likelihood,
    lml_gradient,
    predict_arrays,
    predict_tasks,
    task_correlations,
    theta_from_moments,
)
from .kernels import (
    KernelMode,
    NumericFailure,
    assemble_training_cov,
    cross_matern32,
    matern32,
    pack_theta,
    unpack_theta,
)
from .mapping import (
    CorrelationTrajectory,
    GridSpec,
    GroundTruth,
    RmseCurves,
    correlation_trajectory,
    predict_map,
    rmse,
    sequential_eval,
)
from .mission import (
    DrillSpec,
    FieldBoundary,
    auger_diameter,
    grid_plan,
    sample_mass,
)

__version__ = "0.1.0"
