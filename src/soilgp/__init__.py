"""Multi-task Gaussian-process mapping of sparse soil-property samples."""

from .data import (
    Dataset,
    Location,
    NormStats,
    Observation,
    Rect,
    TaskId,
    make_dataset,
    normalize,
    prefix,
)
from .gp import (
    FitConfig,
    FittedModel,
    GradientMethod,
    HyperParams,
    PredictionResult,
    condition,
    fit,
    fit_stgp,
    log_marginal_likelihood,
    lml_gradient,
    predict,
    predict_arrays,
    predict_tasks,
    sample_prior,
    task_correlations,
    theta_from_moments,
)
from .kernels import (
    KernelMode,
    NumericFailure,
    TaskCholesky,
    assemble_cross_cov,
    assemble_training_cov,
    cross_matern32,
    matern32,
    pack_theta,
    task_cov,
    unpack_theta,
)
from .mapping import (
    CorrelationTrajectory,
    GridSpec,
    GroundTruth,
    PropertyMap,
    RmseCurves,
    correlation_trajectory,
    predict_map,
    rmse,
    sequential_eval,
)
from .mission import (
    DrillSpec,
    FieldBoundary,
    SamplePlan,
    auger_diameter,
    grid_plan,
    sample_mass,
)

__version__ = "0.1.0"
