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
)
from .config import RunConfig, config_from_dict, config_to_dict, load_config
from .confidence import (
    MetricWeights,
    PrototypeTable,
    build_prototypes,
    combine,
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
from .ensemble import EnsembleResult, select_distribution
from .errors import (
    ConfigError,
    DataError,
    IleError,
    MissingPrototypeError,
    StateError,
    TrainingError,
)
from .loop import IterationRecord, RunReport, run, run_iteration, run_single
from .seeding import derive_seed, rng
from .synth import generate
from .threshold import learn_threshold, select_admissions, threshold_accuracy

__version__ = "0.1.0"

__all__ = [
    "AdmissionRecord",
    "AugmentationPlan",
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
    "combine",
    "config_from_dict",
    "config_to_dict",
    "derive_seed",
    "evaluate",
    "fit",
    "generate",
    "init_model",
    "learn_threshold",
    "load_config",
    "load_table",
    "make_transform",
    "rng",
    "run",
    "run_iteration",
    "run_single",
    "save_table",
    "select_admissions",
    "select_distribution",
    "split",
    "threshold_accuracy",
]
