import json
import re
from dataclasses import FrozenInstanceError, fields, is_dataclass
from pathlib import Path
from typing import get_args

import numpy as np
import pytest

from ile import ConfigError, MetricWeights, load_config
from ile.augment import (
    TRANSFORMS,
    AugmentationPlan,
    GaussianJitter,
    GridHFlip,
    GridShift,
    Identity,
)
from ile.classifier import TrainConfig
from ile.config import (
    ClassifierSpec,
    ConfidenceSpec,
    DataSource,
    EnsembleSpec,
    LoopSpec,
    RunConfig,
    SplitSpec,
    SynthSpec,
    ThresholdSpec,
    config_from_dict,
    config_to_dict,
)

MINIMAL = {
    "data": {"synth": {"kind": "blobs", "classes": 3, "per_class": 50}},
    "split": {"labelled_per_class": 5, "validation_count": 20},
}
IDENTITY = {"kind": "identity"}
NAN = float("nan")  # what json.loads makes of a bare NaN
INF = float("inf")


def full_dict():
    return {
        "data": {"path": "pool.csv", "format": "binary"},
        "split": {"labelled_per_class": 10, "validation_count": 100},
        "classifier": {
            "architecture": "mlp",
            "hidden_units": 8,
            "train": {
                "epochs": 50,
                "learning_rate": 0.05,
                "batch_size": 16,
                "l2": 0.001,
                "early_stop_patience": 3,
            },
        },
        "augment": [
            {"kind": "identity"},
            {"kind": "gaussian_jitter", "sigma": 0.25},
            {"kind": "grid_hflip", "rows": 2, "cols": 2},
        ],
        "confidence": {"weights": [0.5, 0.3, 0.2], "combine_mode": "reciprocal", "epsilon": 1e-4},
        "threshold": {
            "target_accuracy": 0.97,
            "manual": None,
            "refresh": "freeze_after_first",
            "admit_rule": "open",
        },
        "loop": {
            "max_iterations": 7,
            "patience": 3,
            "repeat_count": 2,
            "rescore_admitted": True,
        },
        "ensemble": {"std": "sample"},
        "seed": 99,
        "output_dir": "runs/full",
    }


def test_minimal_config_gets_documented_defaults():
    cfg = config_from_dict(MINIMAL)
    assert cfg.classifier.architecture == "softmax_regression"
    assert cfg.classifier.train.epochs == 200
    assert cfg.classifier.train.learning_rate == 0.1
    assert cfg.augment.count == 1
    assert isinstance(cfg.augment.transforms[0], Identity)
    assert cfg.confidence.weights == MetricWeights(1 / 3, 1 / 3, 1 / 3)
    assert cfg.confidence.combine_mode == "bounded"
    assert cfg.threshold.target_accuracy == 0.99
    assert cfg.threshold.manual is None
    assert cfg.threshold.refresh == "every_iteration"
    assert cfg.threshold.admit_rule == "closed"
    assert cfg.loop.max_iterations == 25
    assert cfg.loop.patience == 2
    assert cfg.loop.repeat_count == 1
    assert cfg.loop.rescore_admitted is False
    assert cfg.ensemble.std == "population"
    assert cfg.seed == 0
    assert cfg.output_dir is None


def test_round_trip_is_identity():
    cfg = config_from_dict(full_dict())
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg
    # and the serialized form is stable too
    assert config_to_dict(again) == config_to_dict(cfg)


def test_full_dict_parses_every_field():
    cfg = config_from_dict(full_dict())
    assert cfg.data.path == "pool.csv"
    assert cfg.data.format == "binary"
    assert cfg.classifier.hidden_units == 8
    assert cfg.classifier.train.early_stop_patience == 3
    assert cfg.augment.transforms[1] == GaussianJitter(0.25)
    assert cfg.augment.transforms[2] == GridHFlip(2, 2)
    assert cfg.confidence.weights == MetricWeights(0.5, 0.3, 0.2)
    assert cfg.confidence.epsilon == 1e-4
    assert cfg.threshold.refresh == "freeze_after_first"
    assert cfg.threshold.admit_rule == "open"
    assert cfg.loop.rescore_admitted is True
    assert cfg.ensemble.std == "sample"
    assert cfg.seed == 99


def test_calibrate_keyword_clears_fixed_weights():
    raw = dict(MINIMAL, confidence={"weights": "calibrate"})
    assert config_from_dict(raw).confidence.weights is None
    raw = dict(MINIMAL, confidence={"weights": [1, 2]})
    with pytest.raises(ConfigError, match="weights"):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "mutate",
    [
        {"bogus": 1},
        {"data": {"synth": {"kind": "blobs", "classes": 3, "per_class": 5}, "extra": 1}},
        {"data": {"synth": {"kind": "blobs", "classes": 3, "per_class": 5, "spread": 2}}},
        {"split": {"labelled_per_class": 5, "validation_count": 0, "shuffle": True}},
        {"classifier": {"layers": 3}},
        {"classifier": {"train": {"momentum": 0.9}}},
        {"confidence": {"temperature": 2.0}},
        {"threshold": {"floor": 0.1}},
        {"loop": {"verbose": True}},
        {"ensemble": {"mean": "geometric"}},
    ],
)
def test_unknown_keys_are_rejected_everywhere(mutate):
    raw = {**MINIMAL, **mutate}
    with pytest.raises(ConfigError, match="unknown key|unknown"):
        config_from_dict(raw)


def test_missing_required_sections():
    with pytest.raises(ConfigError, match="data"):
        config_from_dict({"split": MINIMAL["split"]})
    with pytest.raises(ConfigError, match="split"):
        config_from_dict({"data": MINIMAL["data"]})
    with pytest.raises(ConfigError, match="labelled_per_class"):
        config_from_dict({**MINIMAL, "split": {"validation_count": 5}})


def test_data_source_needs_exactly_one_origin():
    with pytest.raises(ConfigError, match="exactly one"):
        config_from_dict({**MINIMAL, "data": {"format": "csv"}})
    with pytest.raises(ConfigError, match="exactly one"):
        config_from_dict(
            {
                **MINIMAL,
                "data": {
                    "path": "x.csv",
                    "synth": {"kind": "blobs", "classes": 2, "per_class": 5},
                },
            }
        )


@pytest.mark.parametrize(
    "section,patch,needle",
    [
        ("data", {"path": "x.csv", "format": "hdf5"}, "format"),
        ("data", {"synth": {"kind": "spirals", "classes": 2, "per_class": 5}}, "kind"),
        ("classifier", {"architecture": "transformer"}, "architecture"),
        ("classifier", {"architecture": "mlp"}, "hidden_units"),
        ("classifier", {"train": {"epochs": 0}}, "epochs"),
        ("confidence", {"combine_mode": "harmonic"}, "combine mode"),
        ("confidence", {"epsilon": 0.0}, "epsilon"),
        ("threshold", {"target_accuracy": 0.0}, "target_accuracy"),
        ("threshold", {"target_accuracy": 1.5}, "target_accuracy"),
        ("threshold", {"refresh": "never"}, "refresh"),
        ("threshold", {"admit_rule": "fuzzy"}, "admit rule"),
        ("loop", {"max_iterations": -1}, "max_iterations"),
        ("loop", {"patience": 0}, "patience"),
        ("loop", {"repeat_count": 0}, "repeat_count"),
        ("ensemble", {"std": "robust"}, "std"),
        ("data", {"synth": {"kind": "moons", "classes": 3, "per_class": 5}}, "moons"),
        # JSON types are checked strictly and the error names the dotted key
        ("loop", {"rescore_admitted": "false"}, "loop.rescore_admitted"),
        ("loop", {"rescore_admitted": 0}, "loop.rescore_admitted"),
        ("classifier", {"train": {"epochs": 2.9}}, "classifier.train.epochs"),
        ("classifier", {"train": {"epochs": True}}, "classifier.train.epochs"),
        ("classifier", {"train": {"batch_size": "32"}}, "classifier.train.batch_size"),
        ("classifier", {"train": {"learning_rate": False}}, "classifier.train.learning_rate"),
        ("classifier", {"architecture": 1}, "classifier.architecture"),
        ("threshold", {"target_accuracy": "0.9"}, "threshold.target_accuracy"),
        ("data", {"synth": {"kind": "blobs", "classes": 2.5, "per_class": 5}}, "data.synth.classes"),
        ("confidence", {"weights": [0.5, True, 0.2]}, "confidence.weights"),
        ("ensemble", {"std": 1}, "ensemble.std"),
        ("seed", True, "seed"),
        ("augment", [IDENTITY, {"kind": "gaussian_jitter", "sigma": "0.5"}], r"augment\[1\]\.sigma"),
        ("augment", [IDENTITY, {"kind": "gaussian_jitter", "sigma": -0.5}], "gaussian_jitter"),
        ("augment", [IDENTITY, {"kind": "gaussian_jitter", "sigma": NAN}], r"augment\[1\]\.sigma"),
        ("augment", [IDENTITY, {"kind": "gaussian_jitter", "sigma": True}], r"augment\[1\]\.sigma"),
        ("augment", [IDENTITY, {"kind": "grid_shift", "rows": 5, "cols": 5, "dx": 0.5, "dy": 0}], r"augment\[1\]\.dx"),
        ("augment", [IDENTITY, {"kind": "grid_shift", "rows": 5, "cols": 5, "dx": 1, "dy": "1"}], r"augment\[1\]\.dy"),
        ("augment", [IDENTITY, {"kind": "grid_shift", "rows": 0, "cols": 5, "dx": 1, "dy": 0}], "'grid_shift': rows"),
        ("augment", [IDENTITY, {"kind": "grid_hflip", "rows": 5, "cols": 2.5}], r"augment\[1\]\.cols"),
        ("augment", [IDENTITY, {"kind": "grid_hflip", "rows": 5, "cols": 0}], "'grid_hflip': cols"),
        # NaN is no number for any float field
        ("confidence", {"epsilon": NAN}, "confidence.epsilon"),
        ("confidence", {"weights": [0.5, NAN, 0.2]}, r"confidence\.weights\[1\]"),
        ("threshold", {"manual": NAN}, "threshold.manual"),
        ("threshold", {"target_accuracy": NAN}, "threshold.target_accuracy"),
        ("classifier", {"train": {"learning_rate": NAN}}, "classifier.train.learning_rate"),
        ("classifier", {"train": {"l2": NAN}}, "classifier.train.l2"),
        ("data", {"synth": {"kind": "blobs", "classes": 2, "per_class": 5, "noise": NAN}}, "data.synth.noise"),
        # an infinite weight makes every confidence inf, which passes the inf
        # cut that admits nothing; an infinite rate, penalty or floor is no
        # usable value either
        ("confidence", {"weights": [INF, 0, 0]}, "metric weights must be finite"),
        ("confidence", {"weights": [0.5, 0.5, -INF]}, "metric weights must be finite"),
        ("classifier", {"train": {"learning_rate": INF}}, "learning_rate must be finite"),
        ("classifier", {"train": {"l2": INF}}, "l2 must be finite"),
        ("confidence", {"epsilon": INF}, "epsilon must be finite"),
    ],
)
def test_invalid_values_are_rejected(section, patch, needle):
    raw = {
        "data": {"synth": {"kind": "blobs", "classes": 3, "per_class": 50}},
        "split": {"labelled_per_class": 5, "validation_count": 20},
    }
    raw[section] = patch
    with pytest.raises(ConfigError, match=needle):
        config_from_dict(raw)


def test_infinite_manual_threshold_stays_legal():
    raw = json.loads('{"threshold": {"manual": Infinity}}')
    assert config_from_dict(dict(MINIMAL, **raw)).threshold.manual == float("inf")


def test_whole_numbers_coerce_to_the_field_type():
    raw = dict(
        MINIMAL,
        classifier={"train": {"epochs": 60.0, "learning_rate": 1}},
        confidence={"weights": [1, 0, 0]},
        augment=[IDENTITY, {"kind": "grid_hflip", "rows": 5, "cols": 2.0}],
    )
    cfg = config_from_dict(raw)
    assert cfg.classifier.train.epochs == 60 and type(cfg.classifier.train.epochs) is int
    assert type(cfg.classifier.train.learning_rate) is float
    assert cfg.confidence.weights == MetricWeights(1.0, 0.0, 0.0)
    flip = cfg.augment.transforms[1]
    assert flip == GridHFlip(5, 2) and type(flip.cols) is int
    # the same rule when the sections are built in Python
    assert type(TrainConfig(epochs=60.0).epochs) is int
    assert type(ThresholdSpec(target_accuracy=1).target_accuracy) is float
    python = built(
        classifier=ClassifierSpec(train=TrainConfig(epochs=60.0, learning_rate=1)),
        confidence=ConfidenceSpec(weights=MetricWeights(1, 0, 0)),
        augment=AugmentationPlan.from_transforms([Identity(), GridHFlip(5, 2.0)]),
        seed=np.int64(3),
    )
    assert type(python.seed) is int
    decoded = config_from_dict(dict(raw, seed=3))
    assert config_to_dict(python) == config_to_dict(decoded)
    # 60 == 60.0, so compare the JSON text too
    assert json.dumps(config_to_dict(python)) == json.dumps(config_to_dict(decoded))


@pytest.mark.parametrize(
    "section,kwargs,needle",
    [
        (ThresholdSpec, {"target_accuracy": 1.5}, "target_accuracy"),
        (ThresholdSpec, {"refresh": "never"}, "refresh"),
        (ThresholdSpec, {"admit_rule": "fuzzy"}, "admit rule"),
        (LoopSpec, {"patience": 0}, "patience"),
        (LoopSpec, {"max_iterations": -1}, "max_iterations"),
        (EnsembleSpec, {"std": "robust"}, "std"),
        (ConfidenceSpec, {"epsilon": 0.0}, "epsilon"),
        (SplitSpec, {"labelled_per_class": 0, "validation_count": 5}, "labelled_per_class"),
        (SynthSpec, {"kind": "blobs", "classes": 3, "per_class": 5, "noise": INF}, "noise"),
        (DataSource, {"path": "x.csv", "format": "hdf5"}, "format"),
        (DataSource, {}, "exactly one"),
        (ClassifierSpec, {"architecture": "mlp"}, "hidden_units"),
        (TrainConfig, {"epochs": 0}, "epochs"),
        (GaussianJitter, {"sigma": -1.0}, "sigma"),
        (GridShift, {"rows": 5, "cols": 0, "dx": 0, "dy": 0}, "cols"),
        (MetricWeights, {"w_a": INF, "w_b": 0.0, "w_c": 0.0}, "finite"),
        (
            AugmentationPlan,
            {"transforms": (Identity(), "x")},
            r"^AugmentationPlan\.transforms\[1\] must be a transform, got 'x'",
        ),
    ],
)
def test_sections_built_in_python_are_checked_at_construction(section, kwargs, needle):
    with pytest.raises(ConfigError, match=needle):
        section(**kwargs)


def built(**over):
    """A minimal RunConfig built in Python, with ``over`` in place."""
    base = dict(data=DataSource(synth=SynthSpec("blobs", 3, 50)), split=SplitSpec(5, 20))
    return RunConfig(**{**base, **over})


NUMBER, INTEGER, FLAG, TEXT = "a number", "an integer", "true or false", "text"

# every field of every section, built in Python with a non-number of the
# wrong type, and what its error says the field must be
NON_NUMBERS = {
    "ThresholdSpec.target_accuracy": (lambda: ThresholdSpec(target_accuracy="0.9"), NUMBER),
    "SplitSpec.labelled_per_class": (lambda: SplitSpec("5", 10), INTEGER),
    "LoopSpec.max_iterations": (lambda: LoopSpec(max_iterations="3"), INTEGER),
    "LoopSpec.patience": (lambda: LoopSpec(patience=None), INTEGER),
    "TrainConfig.epochs": (lambda: TrainConfig(epochs="2"), INTEGER),
    "TrainConfig.early_stop_patience": (lambda: TrainConfig(early_stop_patience="2"), INTEGER),
    "ConfidenceSpec.epsilon": (lambda: ConfidenceSpec(epsilon="1"), NUMBER),
    "GaussianJitter.sigma": (lambda: GaussianJitter("0.5"), NUMBER),
    "GridShift.cols": (lambda: GridShift(5, "5", 0, 0), INTEGER),
    "MetricWeights.w_a": (lambda: MetricWeights("1", 1, 1), NUMBER),
    "SynthSpec.classes": (lambda: SynthSpec("blobs", "3", 10), INTEGER),
    "SynthSpec.noise": (lambda: SynthSpec("blobs", 3, 10, "0.5"), NUMBER),
    "ClassifierSpec.hidden_units": (lambda: ClassifierSpec("mlp", "8"), INTEGER),
    "SynthSpec.kind": (lambda: SynthSpec(None, 3, 10), TEXT),
    "SynthSpec.per_class": (lambda: SynthSpec("blobs", 3, "10"), INTEGER),
    "DataSource.path": (lambda: DataSource(path=Path("pool.csv")), TEXT),
    "DataSource.format": (lambda: DataSource(path="pool.csv", format=None), TEXT),
    "DataSource.synth": (lambda: DataSource(synth=MINIMAL["data"]["synth"]), "of type SynthSpec"),
    "SplitSpec.validation_count": (lambda: SplitSpec(5, "10"), INTEGER),
    "ClassifierSpec.architecture": (lambda: ClassifierSpec(architecture=None), TEXT),
    "ClassifierSpec.train": (lambda: ClassifierSpec(train={"epochs": 5}), "of type TrainConfig"),
    "TrainConfig.learning_rate": (lambda: TrainConfig(learning_rate="0.1"), NUMBER),
    "TrainConfig.batch_size": (lambda: TrainConfig(batch_size="32"), INTEGER),
    "TrainConfig.l2": (lambda: TrainConfig(l2=None), NUMBER),
    "EnsembleSpec.std": (lambda: EnsembleSpec(std=None), TEXT),
    "ConfidenceSpec.weights": (
        lambda: ConfidenceSpec(weights=[0.5, 0.3, 0.2]),
        "of type MetricWeights",
    ),
    "ConfidenceSpec.combine_mode": (lambda: ConfidenceSpec(combine_mode=None), TEXT),
    "MetricWeights.w_b": (lambda: MetricWeights(1, "1", 1), NUMBER),
    "MetricWeights.w_c": (lambda: MetricWeights(1, 1, None), NUMBER),
    "ThresholdSpec.manual": (lambda: ThresholdSpec(manual="0.5"), NUMBER),
    "ThresholdSpec.refresh": (lambda: ThresholdSpec(refresh=None), TEXT),
    "ThresholdSpec.admit_rule": (lambda: ThresholdSpec(admit_rule=None), TEXT),
    "LoopSpec.repeat_count": (lambda: LoopSpec(repeat_count="2"), INTEGER),
    "LoopSpec.rescore_admitted": (lambda: LoopSpec(rescore_admitted="false"), FLAG),
    "RunConfig.data": (lambda: built(data=MINIMAL["data"]), "of type DataSource"),
    "RunConfig.split": (lambda: built(split=MINIMAL["split"]), "of type SplitSpec"),
    "RunConfig.classifier": (lambda: built(classifier={}), "of type ClassifierSpec"),
    "RunConfig.augment": (lambda: built(augment=[Identity()]), "of type AugmentationPlan"),
    "RunConfig.confidence": (lambda: built(confidence={}), "of type ConfidenceSpec"),
    "RunConfig.threshold": (lambda: built(threshold={}), "of type ThresholdSpec"),
    "RunConfig.loop": (lambda: built(loop={"max_iterations": 1}), "of type LoopSpec"),
    "RunConfig.ensemble": (lambda: built(ensemble="sample"), "of type EnsembleSpec"),
    "RunConfig.seed": (lambda: built(seed="7"), INTEGER),
    "RunConfig.output_dir": (lambda: built(output_dir=Path("runs")), TEXT),
    "AugmentationPlan.transforms": (
        lambda: AugmentationPlan([Identity()]),
        "of type tuple",
    ),
    "GridHFlip.rows": (lambda: GridHFlip("5", 5), INTEGER),
    "GridHFlip.cols": (lambda: GridHFlip(5, None), INTEGER),
    "GridShift.rows": (lambda: GridShift("5", 5, 0, 0), INTEGER),
    "GridShift.dx": (lambda: GridShift(5, 5, "1", 0), INTEGER),
    "GridShift.dy": (lambda: GridShift(5, 5, 0, None), INTEGER),
}


@pytest.mark.parametrize("key", NON_NUMBERS)
def test_a_non_number_built_in_python_is_a_config_error_naming_its_field(key):
    # not a bare TypeError from a range check, nor a value kept as given
    build, phrase = NON_NUMBERS[key]
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be {phrase}, got "):
        build()


def sections_named_by(tp):
    """``tp`` if it is a section, and every section its fields name, transitively."""
    found = set()
    for t in get_args(tp) or (tp,):  # ``X | None`` names X
        if is_dataclass(t):
            found |= {t}.union(*(sections_named_by(f.type) for f in fields(t)))
    return found


def test_every_field_of_every_section_has_a_wrong_typed_case():
    # a section added without check_fields then fails its cases above
    sections = sections_named_by(RunConfig) | set(TRANSFORMS.values()) | {MetricWeights}
    with_fields = {s.__name__ for s in sections if fields(s)}
    assert {key.split(".")[0] for key in NON_NUMBERS} == with_fields
    assert set(NON_NUMBERS) == {f"{s.__name__}.{f.name}" for s in sections for f in fields(s)}


def test_readme_tour_config_with_a_bad_target_cannot_be_built():
    # run_single takes a RunConfig as built; an out-of-range one never reaches it
    with pytest.raises(ConfigError, match="target_accuracy"):
        RunConfig(
            data=DataSource(synth=SynthSpec("blobs", classes=3, per_class=400, noise=1.6)),
            split=SplitSpec(labelled_per_class=5, validation_count=300),
            classifier=ClassifierSpec(train=TrainConfig(epochs=60)),
            augment=AugmentationPlan.from_transforms(
                [Identity(), GaussianJitter(0.4), GaussianJitter(0.4)]
            ),
            confidence=ConfidenceSpec(weights=None),
            threshold=ThresholdSpec(target_accuracy=1.5),
            loop=LoopSpec(max_iterations=8),
            seed=7,
        )


def test_built_sections_cannot_be_mutated():
    cfg = config_from_dict(MINIMAL)
    with pytest.raises(FrozenInstanceError):
        cfg.classifier.train.epochs = 0


def test_python_and_json_defaults_agree():
    python = RunConfig(
        data=DataSource(synth=SynthSpec("blobs", classes=3, per_class=50)),
        split=SplitSpec(labelled_per_class=5, validation_count=20),
    )
    assert config_from_dict(MINIMAL) == python


def test_readme_config_block_matches_the_code():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme[readme.index("## Configuration") :]
    block = section[section.index("```jsonc") + len("```jsonc") : section.index("\n```\n")]
    raw = json.loads(re.sub(r"//.*", "", block))
    assert config_to_dict(config_from_dict(raw)) == raw


def test_augment_must_lead_with_identity():
    raw = dict(MINIMAL, augment=[{"kind": "gaussian_jitter", "sigma": 0.2}])
    with pytest.raises(ConfigError, match="identity"):
        config_from_dict(raw)
    raw = dict(MINIMAL, augment={"kind": "identity"})
    with pytest.raises(ConfigError, match="list"):
        config_from_dict(raw)


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "none.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(str(bad))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(MINIMAL))
    cfg = load_config(str(good))
    assert cfg.data.synth.kind == "blobs"
