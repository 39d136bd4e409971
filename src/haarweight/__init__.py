"""haarweight: dyadic Haar systems with matrix weights, at desk scale."""

__version__ = "0.1.0"

import logging

# diagnostics (ellipsoid fit telemetry) go to this logger at DEBUG; silent
# unless the application configures logging
logging.getLogger(__name__).addHandler(logging.NullHandler())

from .errors import (
    CoverageError,
    EigenConvergenceError,
    EllipsoidFitError,
    HaarweightError,
    MatrixDomainError,
    ParameterError,
    ShapeError,
)
from .dyadic import (
    GridFunction,
    HaarCoefficients,
    haar_reconstruct,
    haar_transform,
    lp_norm,
)
from .weights import (
    MatrixWeight,
    WeightFamily,
    make_weight,
    weighted_lp_norm,
)
from .reducing import (
    DualityReport,
    ReducingFamily,
    build_reducing_family,
    conjugate_exponent,
    duality_check,
    op_norm_stack,
    quasi_uniform_directions,
    scan_depth,
)
from .stopping import (
    CalibrationResult,
    GenerationTree,
    StoppingConfig,
    build_generations,
    calibrate_lambdas,
    decay_ratio,
    split_generations,
)
from .multipliers import (
    apply_symbols,
    t_blocks,
    t_operator,
)
from .analysis import (
    CrossTermReport,
    EquivalenceReport,
    SharpnessProbe,
    block_partition_constant,
    cross_term_rate,
    dual_square_norm,
    equivalence_ratios,
    loglog_slope,
    random_mean_zero_batch,
    sharpness_probe,
    sharpness_probes,
    square_function,
    square_norm,
)
from .errors import ConfigError, SerializationError
from .serialization import (
    load_weight,
    save_generation_tree,
    save_weight,
    write_manifest,
)
from .config import (
    ExperimentConfig,
    WeightSpec,
    default_config,
    load_config,
    suite_weight_specs,
)
from .experiments import RunContext, RunResult, alpha_sweep_report, run_experiments
from .acceptance import AcceptanceContext, CriterionResult, run_all
