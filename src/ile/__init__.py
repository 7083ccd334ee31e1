"""Confidence-gated iterative self-training for cheap numpy classifiers.

The package trains a classifier on a small labelled set, scores the
unlabelled pool with an augmentation ensemble plus three confidence
metrics, learns an admission threshold that targets a desired accuracy,
and feeds the admitted pseudo-labelled samples back into training.
"""

from .augment import (
    AugmentationPlan,
    GaussianJitter,
    GridHFlip,
    GridShift,
    Identity,
    make_transform,
)
from .classifier import (
    MLP,
    SOFTMAX_REGRESSION,
    ModelState,
    TrainConfig,
    evaluate,
    fit,
    init_model,
    predict_proba,
)
from .config import RunConfig, config_from_dict, config_to_dict, load_config
from .confidence import (
    ConfidenceReport,
    MetricWeights,
    PrototypeTable,
    build_prototypes,
    calibrate_weights,
    combine,
    score_sample,
)
from .datasets import (
    AdmissionRecord,
    DatasetTriple,
    Samples,
    admit,
    load_table,
    save_table,
    split,
)
from .ensemble import EnsembleResult, ensemble_predict, select_distribution
from .errors import (
    ConfigError,
    DataError,
    IleError,
    MissingPrototypeError,
    StateError,
    TrainingError,
)
from .loop import IterationRecord, LoopState, RunReport, run, run_iteration, run_single
from .seeding import derive_seed, rng
from .synth import generate
from .threshold import learn_threshold, select_admissions, threshold_accuracy

__version__ = "0.1.0"

__all__ = [
    "AdmissionRecord",
    "AugmentationPlan",
    "ConfidenceReport",
    "ConfigError",
    "DataError",
    "DatasetTriple",
    "EnsembleResult",
    "GaussianJitter",
    "GridHFlip",
    "GridShift",
    "Identity",
    "IleError",
    "IterationRecord",
    "LoopState",
    "MLP",
    "MetricWeights",
    "MissingPrototypeError",
    "ModelState",
    "PrototypeTable",
    "RunConfig",
    "RunReport",
    "SOFTMAX_REGRESSION",
    "Samples",
    "StateError",
    "TrainConfig",
    "TrainingError",
    "admit",
    "build_prototypes",
    "calibrate_weights",
    "combine",
    "config_from_dict",
    "config_to_dict",
    "derive_seed",
    "ensemble_predict",
    "evaluate",
    "fit",
    "generate",
    "init_model",
    "learn_threshold",
    "load_config",
    "load_table",
    "make_transform",
    "predict_proba",
    "rng",
    "run",
    "run_iteration",
    "run_single",
    "save_table",
    "score_sample",
    "select_admissions",
    "select_distribution",
    "split",
    "threshold_accuracy",
]
