"""Maximum-likelihood model fitting when both inputs and outputs carry
measurement error and the pairing between them is only partially known.

Observations come in groups; within a group any input may belong to any
output. The likelihood treats each group's inputs and outputs as mixture
densities and integrates the model through them. Paired data is the
special case of singleton groups, fully unpaired data the case of one
group. Closed forms cover Gaussian errors with affine models and uniform
errors with line models; everything else runs through quadrature or Monte
Carlo integration.

The package namespace holds the documented API. Compiled objectives, the
optimizer core, result-file I/O, density and model evaluation helpers and
the bundled analog table are imported from their own modules.
"""

__version__ = "0.1.0"

from .baselines import (
    ALL_PAIRS,
    GROUP_MEAN,
    deming_line,
    imputation_fit,
    ols_general,
    ols_line,
)
from .dataset import (
    Group,
    GroupedDataset,
    PairedDataset,
    as_grouped,
    build_grouped,
    partition_by_key,
)
from .densities import GAUSSIAN, POINT_MASS, UNIFORM, DensityParams, ErrorDensity
from .data_io import AUTO15, IngestResult, TabularSchema, read_csv
from .metrics import ResidualSummary, r_squared_delta
from .models import ParametricModel
from .objective import (
    GAUSS_LOG_NORM_PER_GROUP,
    MONTE_CARLO,
    QUADRATURE,
    IntegrationConfig,
    ObjectiveValue,
    likelihood_interval_line,
    nll_gaussian_hyperplane,
    nll_general,
)
from .optimize import (
    GAUSS_LINE,
    GAUSS_PLANE,
    GENERAL,
    INTERVAL_LINE,
    OBJECTIVE_CHOICES,
    FitResult,
    OptimizerConfig,
    SurfaceGrid,
    fit,
    fit_extended,
    objective_surface,
)
from .simulate import (
    SCENARIO_NAMES,
    ReplicationReport,
    ScenarioSpec,
    generate_scenario,
    replicate,
    scenario_model,
    scenario_spec,
)

__all__ = [
    "__version__",
    "ALL_PAIRS",
    "AUTO15",
    "GAUSSIAN",
    "GAUSS_LINE",
    "GAUSS_LOG_NORM_PER_GROUP",
    "GAUSS_PLANE",
    "GENERAL",
    "GROUP_MEAN",
    "INTERVAL_LINE",
    "MONTE_CARLO",
    "OBJECTIVE_CHOICES",
    "POINT_MASS",
    "QUADRATURE",
    "SCENARIO_NAMES",
    "UNIFORM",
    "DensityParams",
    "ErrorDensity",
    "FitResult",
    "Group",
    "GroupedDataset",
    "IngestResult",
    "IntegrationConfig",
    "ObjectiveValue",
    "OptimizerConfig",
    "PairedDataset",
    "ParametricModel",
    "ReplicationReport",
    "ResidualSummary",
    "ScenarioSpec",
    "SurfaceGrid",
    "TabularSchema",
    "as_grouped",
    "build_grouped",
    "deming_line",
    "fit",
    "fit_extended",
    "generate_scenario",
    "imputation_fit",
    "likelihood_interval_line",
    "nll_gaussian_hyperplane",
    "nll_general",
    "objective_surface",
    "ols_general",
    "ols_line",
    "partition_by_key",
    "r_squared_delta",
    "read_csv",
    "replicate",
    "scenario_model",
    "scenario_spec",
]
