"""soco: soundness and completeness evaluation for feature attribution maps.

The library measures how faithfully an attribution map reflects a model's
actual use of features, via two complementary accuracy-based metrics plus
the classic order-based baselines they are designed to improve on, and
ships a fully synthetic validation world where exact ground truth is known.
"""

from ._version import __version__
from .analysis import (
    CurveSet,
    TrialSummary,
    aggregate_trials,
    hausdorff_distance,
    min_pairwise_hausdorff,
    pairwise_hausdorff,
)
from .core import (
    ConfigError,
    DataError,
    Dataset,
    EvalCurve,
    MapSet,
    Model,
    ModelBridgeError,
    SocoError,
    WorkerError,
    normalize_attribution,
)
from .experiment import (
    ExperimentConfig,
    RunManifest,
    ValidationResult,
    ValidationSettings,
    load_config,
    parse_config,
    run_experiment,
    run_validation,
)
from .io import (
    emit_plot_data,
    read_curve,
    read_dataset,
    read_maps,
    write_curve,
    write_dataset,
    write_maps,
)
from .metrics import (
    CompletenessConfig,
    SoundnessConfig,
    align_soundness,
    auc,
    completeness_curve,
    order_based_curve,
    road_curve,
    soundness_curve,
)
from .models import (
    ExternalModel,
    ExternalModelSpec,
    MlpModel,
    MlpWeights,
    mlp_predict,
)
from .modify import ModScheme, apply_scheme
from .perturb import Imputer, impute_grid
from .rng import substream
from .synthetic import (
    LinearStepModel,
    OracleInfo,
    generate_synthetic,
    ground_truth_attribution,
    oracle_info,
)

__all__ = [
    "__version__",
    "CompletenessConfig",
    "ConfigError",
    "CurveSet",
    "DataError",
    "Dataset",
    "EvalCurve",
    "MapSet",
    "ExperimentConfig",
    "ExternalModel",
    "ExternalModelSpec",
    "Imputer",
    "LinearStepModel",
    "MlpModel",
    "MlpWeights",
    "ModScheme",
    "Model",
    "ModelBridgeError",
    "OracleInfo",
    "RunManifest",
    "SocoError",
    "SoundnessConfig",
    "TrialSummary",
    "ValidationResult",
    "ValidationSettings",
    "WorkerError",
    "aggregate_trials",
    "align_soundness",
    "apply_scheme",
    "auc",
    "completeness_curve",
    "emit_plot_data",
    "generate_synthetic",
    "ground_truth_attribution",
    "hausdorff_distance",
    "impute_grid",
    "load_config",
    "min_pairwise_hausdorff",
    "mlp_predict",
    "normalize_attribution",
    "oracle_info",
    "order_based_curve",
    "pairwise_hausdorff",
    "parse_config",
    "read_curve",
    "read_dataset",
    "read_maps",
    "road_curve",
    "run_experiment",
    "run_validation",
    "soundness_curve",
    "substream",
    "write_curve",
    "write_dataset",
    "write_maps",
]
