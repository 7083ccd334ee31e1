"""Run configuration: the dataclasses below are the JSON schema.

One decoder and one encoder walk ``dataclasses.fields()``. A field's name
is its JSON key, its annotation is the type a JSON value must have (a
closed choice is a ``Literal`` of its strings), and its default is what an
omitted key means; a field without a default is required. Unknown keys are
rejected so that typos fail loudly instead of silently falling back to
defaults. The two fields whose JSON value has another form than the
field's (the augmentation plan and the metric weights) carry a codec in
their metadata; each transform in the plan is itself a section, picked by
its ``kind``. Every consumer module reads exactly one section.

Every section is frozen and checks in ``__post_init__`` its fields' types
(``errors.check_fields``, the decoder's scalar rule), then its ranges, so a
config is valid once built, whether decoded from JSON or built in Python.
"""

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import partial
from typing import Callable, Literal, NamedTuple

from .augment import TRANSFORMS, AugmentationPlan
from .classifier import SOFTMAX_REGRESSION, TrainConfig, check_architecture
from .confidence import MetricWeights
from .errors import ConfigError, check_fields, coerce, optional
from .synth import check_spec


class _Codec(NamedTuple):
    """A field's own JSON form."""

    decode: Callable  # (raw, where) -> value
    encode: Callable  # value -> raw


def _check_keys(mapping, allowed, where):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _decode_transform(raw, where):
    """The transform named by ``raw['kind']``, its other keys as parameters."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object")
    if "kind" not in raw:
        raise ConfigError(f"missing required key 'kind' in {where}")
    params = dict(raw)
    kind = _decode(str, params.pop("kind"), f"{where}.kind")
    if kind not in TRANSFORMS:
        raise ConfigError(f"unknown transform kind {kind!r} in {where}")
    return _decode(TRANSFORMS[kind], params, where)


def _decode_augment(raw, where):
    if not isinstance(raw, list):
        raise ConfigError(f"{where} must be a list of transform specs")
    transforms = [_decode_transform(s, f"{where}[{i}]") for i, s in enumerate(raw)]
    return AugmentationPlan.from_transforms(transforms)


def _decode_weights(raw, where):
    if raw == "calibrate":
        return None
    if not isinstance(raw, list) or len(raw) != 3:
        raise ConfigError(f"{where} must be 'calibrate' or a list of three numbers")
    weights = [_decode(float, w, f"{where}[{i}]") for i, w in enumerate(raw)]
    return MetricWeights(*weights)


_AUGMENT = _Codec(
    _decode_augment,
    lambda plan: [{"kind": t.kind, **config_to_dict(t)} for t in plan.transforms],
)
_WEIGHTS = _Codec(
    _decode_weights, lambda w: "calibrate" if w is None else [w.w_a, w.w_b, w.w_c]
)


def _json(codec=None, omit_none=False):
    """Field metadata: a codec, and whether an unset (None) value is left
    out of the serialized form."""
    return {"codec": codec, "omit_none": omit_none}


@dataclass(frozen=True)
class SynthSpec:
    kind: str
    classes: int
    per_class: int
    noise: float = 0.0

    def __post_init__(self):
        check_fields(self)
        check_spec(self.kind, self.classes, self.per_class, self.noise)


@dataclass(frozen=True)
class DataSource:
    path: str | None = field(default=None, metadata=_json(omit_none=True))
    format: Literal["csv", "binary"] = "csv"
    synth: SynthSpec | None = field(default=None, metadata=_json(omit_none=True))

    def __post_init__(self):
        check_fields(self)
        if (self.path is None) == (self.synth is None):
            raise ConfigError("data source needs exactly one of 'path' or 'synth'")


@dataclass(frozen=True)
class SplitSpec:
    labelled_per_class: int
    validation_count: int

    def __post_init__(self):
        check_fields(self)
        if self.labelled_per_class < 1:
            raise ConfigError("labelled_per_class must be >= 1")
        if self.validation_count < 0:
            raise ConfigError("validation_count must be >= 0")


@dataclass(frozen=True)
class ClassifierSpec:
    architecture: str = SOFTMAX_REGRESSION
    hidden_units: int | None = None
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        check_fields(self)
        check_architecture(self.architecture, self.hidden_units)


@dataclass(frozen=True)
class EnsembleSpec:
    # the spread penalty's std: divide by A ("population") or by A - 1
    std: Literal["population", "sample"] = "population"

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class ConfidenceSpec:
    # None means calibrate the weights each iteration
    weights: MetricWeights | None = field(
        default_factory=MetricWeights.equal, metadata=_json(codec=_WEIGHTS)
    )
    combine_mode: Literal["bounded", "reciprocal"] = "bounded"
    epsilon: float = 1e-6

    def __post_init__(self):
        check_fields(self)
        if not 0 < self.epsilon < math.inf:
            raise ConfigError("epsilon must be finite and > 0")


@dataclass(frozen=True)
class ThresholdSpec:
    target_accuracy: float = 0.99
    manual: float | None = None
    refresh: Literal["every_iteration", "freeze_after_first"] = "every_iteration"
    admit_rule: Literal["closed", "open"] = "closed"

    def __post_init__(self):
        check_fields(self)
        if not 0 < self.target_accuracy <= 1:
            raise ConfigError("target_accuracy must be in (0, 1]")


@dataclass(frozen=True)
class LoopSpec:
    max_iterations: int = 25
    patience: int = 2
    repeat_count: int = 1
    rescore_admitted: bool = False

    def __post_init__(self):
        check_fields(self)
        if self.max_iterations < 0:
            raise ConfigError("max_iterations must be >= 0")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.repeat_count < 1:
            raise ConfigError("repeat_count must be >= 1")


@dataclass(frozen=True)
class RunConfig:
    data: DataSource
    split: SplitSpec
    classifier: ClassifierSpec = field(default_factory=ClassifierSpec)
    augment: AugmentationPlan = field(
        default_factory=AugmentationPlan.identity_only, metadata=_json(codec=_AUGMENT)
    )
    confidence: ConfidenceSpec = field(default_factory=ConfidenceSpec)
    threshold: ThresholdSpec = field(default_factory=ThresholdSpec)
    loop: LoopSpec = field(default_factory=LoopSpec)
    ensemble: EnsembleSpec = field(default_factory=EnsembleSpec)
    seed: int = 0
    output_dir: str | None = None

    def __post_init__(self):
        check_fields(self)
        stops_early = self.classifier.train.early_stop_patience is not None
        if stops_early and self.split.validation_count == 0:
            raise ConfigError(
                "classifier.train.early_stop_patience needs validation rows: "
                "set split.validation_count > 0"
            )


# ---------------------------------------------------------------------------
# Decoding and encoding
# ---------------------------------------------------------------------------

def _decode(tp, raw, where):
    """The value of type ``tp`` that the JSON value ``raw`` at ``where`` encodes."""
    tp, nullable = optional(tp)
    if nullable and raw is None:
        return None
    if is_dataclass(tp):
        section = where or "config"
        _check_keys(raw, [f.name for f in fields(tp)], section)
        values = {}
        for f in fields(tp):
            key = f.name
            if key not in raw:
                if f.default is MISSING and f.default_factory is MISSING:
                    raise ConfigError(f"missing required key {key!r} in {section}")
                continue
            codec = f.metadata.get("codec")
            decode = codec.decode if codec else partial(_decode, f.type)
            values[key] = decode(raw[key], f"{where}.{key}" if where else key)
        return tp(**values)
    return coerce(tp, raw, where)


def config_to_dict(obj) -> dict:
    """The JSON form of a RunConfig, or of one of its sections."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if value is None and f.metadata.get("omit_none"):
            continue
        codec = f.metadata.get("codec")
        if codec:
            value = codec.encode(value)
        elif is_dataclass(value):
            value = config_to_dict(value)
        out[f.name] = value
    return out


def config_from_dict(raw) -> RunConfig:
    return _decode(RunConfig, raw, "")


def load_config(path) -> RunConfig:
    try:
        with open(path, "r") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)
