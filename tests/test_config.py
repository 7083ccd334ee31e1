import json
import re
from pathlib import Path

import pytest

from ile import ConfigError, MetricWeights, load_config
from ile.augment import GaussianJitter, GridHFlip, Identity
from ile.config import (
    DataSource,
    RunConfig,
    SplitSpec,
    SynthSpec,
    config_from_dict,
    config_to_dict,
)

MINIMAL = {
    "data": {"synth": {"kind": "blobs", "classes": 3, "per_class": 50}},
    "split": {"labelled_per_class": 5, "validation_count": 20},
}
IDENTITY = {"kind": "identity"}
NAN = float("nan")  # what json.loads makes of a bare NaN


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
    assert cfg.population_std is True
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
    assert cfg.population_std is False
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
        # transform parameters are checked where the transform is built
        ("augment", [IDENTITY, {"kind": "gaussian_jitter", "sigma": "0.5"}], "gaussian_jitter"),
        ("augment", [IDENTITY, {"kind": "gaussian_jitter", "sigma": -0.5}], "gaussian_jitter"),
        ("augment", [IDENTITY, {"kind": "gaussian_jitter", "sigma": NAN}], "gaussian_jitter"),
        ("augment", [IDENTITY, {"kind": "gaussian_jitter", "sigma": True}], "gaussian_jitter"),
        ("augment", [IDENTITY, {"kind": "grid_shift", "rows": 5, "cols": 5, "dx": 0.5, "dy": 0}], "'grid_shift': dx"),
        ("augment", [IDENTITY, {"kind": "grid_shift", "rows": 5, "cols": 5, "dx": 1, "dy": "1"}], "'grid_shift': dy"),
        ("augment", [IDENTITY, {"kind": "grid_shift", "rows": 0, "cols": 5, "dx": 1, "dy": 0}], "'grid_shift': rows"),
        ("augment", [IDENTITY, {"kind": "grid_hflip", "rows": 5, "cols": 2.0}], "'grid_hflip': cols"),
        ("augment", [IDENTITY, {"kind": "grid_hflip", "rows": 5, "cols": 0}], "'grid_hflip': cols"),
        # NaN is no number for any float field
        ("confidence", {"epsilon": NAN}, "confidence.epsilon"),
        ("confidence", {"weights": [0.5, NAN, 0.2]}, r"confidence\.weights\[1\]"),
        ("threshold", {"manual": NAN}, "threshold.manual"),
        ("threshold", {"target_accuracy": NAN}, "threshold.target_accuracy"),
        ("classifier", {"train": {"learning_rate": NAN}}, "classifier.train.learning_rate"),
        ("classifier", {"train": {"l2": NAN}}, "classifier.train.l2"),
        ("data", {"synth": {"kind": "blobs", "classes": 2, "per_class": 5, "noise": NAN}}, "data.synth.noise"),
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
    )
    cfg = config_from_dict(raw)
    assert cfg.classifier.train.epochs == 60 and type(cfg.classifier.train.epochs) is int
    assert type(cfg.classifier.train.learning_rate) is float
    assert cfg.confidence.weights == MetricWeights(1.0, 0.0, 0.0)


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
