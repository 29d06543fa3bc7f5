"""Numerically stable sparse Gaussian process regression.

The package couples a clustered inducing point approximation, whose posterior
matches an exact GP on a perturbed dataset, with a cover tree selector that
guarantees separation of the inducing points and hence bounded conditioning
of every matrix the solver touches.
"""

from .covertree import (
    ClusterAssignment,
    CoverTree,
    build,
    cluster_assign,
    inducing_points,
    select_kmeans,
    select_uniform,
    separation,
    spatial_resolution,
)
from .diagnostics import (
    KmsCondBounds,
    StabilityReport,
    cg_iteration_bound,
    cond_bound_with_noise,
    kms_cond_bounds,
    lambda_max_bound,
    stability_report,
)
from .kernels import (
    DecayEnvelope,
    Family,
    Kernel,
    decay_envelope,
    gram,
    gram_gradients,
    kms_matrix,
)
from .linalg import (
    CGReport,
    CholeskyOutcome,
    NumericalFailure,
    SpectrumSummary,
    cho_solve,
    cholesky,
    cholesky_stability_predicate,
    conjugate_gradient,
    spectrum,
    wasserstein2_gaussians,
)
from .sgp import (
    ClusteredModel,
    Dataset,
    GaussianBelief,
    TrainConfig,
    TrainResult,
    clustered_posterior,
    exact_posterior,
    fit_clustered,
    kl_to_prior,
    sample_targets,
    train,
    training_objective,
)

__all__ = [
    "ClusterAssignment", "CoverTree", "build", "cluster_assign", "inducing_points",
    "select_kmeans", "select_uniform", "separation", "spatial_resolution",
    "KmsCondBounds", "StabilityReport", "cg_iteration_bound", "cond_bound_with_noise",
    "kms_cond_bounds", "lambda_max_bound", "stability_report",
    "DecayEnvelope", "Family", "Kernel", "decay_envelope", "gram", "gram_gradients", "kms_matrix",
    "CGReport", "CholeskyOutcome", "NumericalFailure",
    "SpectrumSummary", "cho_solve", "cholesky", "cholesky_stability_predicate",
    "conjugate_gradient", "spectrum", "wasserstein2_gaussians",
    "ClusteredModel", "Dataset", "GaussianBelief", "TrainConfig", "TrainResult",
    "clustered_posterior", "exact_posterior", "fit_clustered", "kl_to_prior",
    "sample_targets", "train", "training_objective",
]

__version__ = "0.1.0"
