import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ile import ConfigError, DataError
from ile.augment import (
    AugmentationPlan,
    GaussianJitter,
    GridHFlip,
    GridShift,
    Identity,
    apply,
)
from ile.config import config_from_dict, config_to_dict

from conftest import make_sample, samples_of


def plan(*extra):
    return AugmentationPlan.from_transforms([Identity(), *extra])


def one(t, features):
    """A transform applied to a block holding one feature vector."""
    return t.apply(np.asarray(features, dtype=np.float64)[None, :], [0], 0, 0)[0]


def test_identity_plan_returns_the_original():
    s = make_sample(0, [1.0, 2.0, 3.0])
    out = apply(AugmentationPlan.identity_only(), s, seed=0)[0]
    assert len(out) == 1
    np.testing.assert_array_equal(out[0], s.X[0])
    out[0][0] = 99.0  # the returned vector is a copy
    assert s.X[0][0] == 1.0


def test_zero_sigma_jitter_is_exact():
    s = make_sample(1, [0.5, -0.5])
    out = apply(plan(GaussianJitter(sigma=0.0)), s, seed=3)[0]
    np.testing.assert_array_equal(out[1], s.X[0])


def test_jitter_is_deterministic_per_sample_and_slot():
    p = plan(GaussianJitter(0.5), GaussianJitter(0.5))
    s = make_sample(7, [1.0, 2.0])
    a = apply(p, s, seed=10)[0]
    b = apply(p, s, seed=10)[0]
    for va, vb in zip(a, b):
        np.testing.assert_array_equal(va, vb)
    # two jitter slots with identical sigma still draw different noise
    assert not np.array_equal(a[1], a[2])
    # a different sample id gets different noise
    other = apply(p, make_sample(8, [1.0, 2.0]), seed=10)[0]
    assert not np.array_equal(a[1], other[1])


def test_apply_is_order_independent_across_samples():
    p = plan(GaussianJitter(0.3))
    s1, s2 = make_sample(1, [0.0, 0.0]), make_sample(2, [0.0, 0.0])
    first = apply(p, s1, seed=5)[0]
    second = apply(p, s2, seed=5)[0]
    # reversed processing order reproduces the same vectors
    second_again = apply(p, s2, seed=5)[0]
    first_again = apply(p, s1, seed=5)[0]
    np.testing.assert_array_equal(first[1], first_again[1])
    np.testing.assert_array_equal(second[1], second_again[1])
    # so does scoring both in one block, in either order
    block = apply(p, samples_of(s2, s1), seed=5)
    np.testing.assert_array_equal(block[0], second)
    np.testing.assert_array_equal(block[1], first)


def test_hflip_hand_case():
    flip = GridHFlip(rows=2, cols=2)
    out = one(flip, [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(out, [2.0, 1.0, 4.0, 3.0])


@settings(max_examples=50, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    data=st.data(),
)
def test_hflip_is_an_involution(rows, cols, data):
    n = rows * cols
    values = data.draw(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n
        )
    )
    features = np.asarray(values)
    flip = GridHFlip(rows=rows, cols=cols)
    twice = one(flip, one(flip, features))
    np.testing.assert_array_equal(twice, features)


def test_shift_moves_and_zero_fills():
    g = np.array([1.0, 2.0, 3.0, 4.0])
    out = one(GridShift(rows=2, cols=2, dx=1, dy=0), g)
    np.testing.assert_array_equal(out, [0.0, 1.0, 0.0, 3.0])
    out = one(GridShift(rows=2, cols=2, dx=0, dy=-1), g)
    np.testing.assert_array_equal(out, [3.0, 4.0, 0.0, 0.0])
    out = one(GridShift(rows=2, cols=2, dx=0, dy=0), g)
    np.testing.assert_array_equal(out, g)
    out = one(GridShift(rows=2, cols=2, dx=5, dy=0), g)
    np.testing.assert_array_equal(out, np.zeros(4))


def test_grid_transforms_check_feature_count():
    with pytest.raises(DataError):
        one(GridHFlip(rows=2, cols=3), np.zeros(4))
    with pytest.raises(DataError):
        one(GridShift(rows=2, cols=2, dx=1, dy=1), np.zeros(5))


def test_plan_must_start_with_identity():
    with pytest.raises(ConfigError):
        AugmentationPlan.from_transforms([GaussianJitter(0.1)])
    with pytest.raises(ConfigError):
        AugmentationPlan.from_transforms([])
    p = plan(GaussianJitter(0.1))
    assert p.count == 2


MINIMAL = {
    "data": {"synth": {"kind": "blobs", "classes": 3, "per_class": 50}},
    "split": {"labelled_per_class": 5, "validation_count": 20},
}
IDENTITY = {"kind": "identity"}


def decode_transform(spec):
    """The transform that ``spec`` decodes to as the config's augment[1]."""
    cfg = config_from_dict(dict(MINIMAL, augment=[IDENTITY, spec]))
    return cfg.augment.transforms[1]


def encode_transform(t):
    """The JSON form of ``t`` as the config's augment[1]."""
    plan = AugmentationPlan.from_transforms([Identity(), t])
    return config_to_dict(replace(config_from_dict(MINIMAL), augment=plan))["augment"][1]


def test_transform_kind_dispatch_and_errors():
    assert decode_transform({"kind": "gaussian_jitter", "sigma": 0.25}) == GaussianJitter(0.25)
    with pytest.raises(ConfigError, match=r"unknown transform kind 'warp' in augment\[1\]"):
        decode_transform({"kind": "warp"})
    with pytest.raises(ConfigError, match=r"unknown key\(s\) in augment\[1\]: amount"):
        decode_transform({"kind": "gaussian_jitter", "sigma": 0.5, "amount": 1.0})
    with pytest.raises(ConfigError, match=r"unknown key\(s\) in augment\[1\]: x"):
        decode_transform({"kind": "grid_hflip", "rows": 2, "cols": 2, "x": 1})
    with pytest.raises(ConfigError, match=r"missing required key 'sigma' in augment\[1\]"):
        decode_transform({"kind": "gaussian_jitter"})
    with pytest.raises(ConfigError, match=r"missing required key 'dy' in augment\[1\]"):
        decode_transform({"kind": "grid_shift", "rows": 2, "cols": 2, "dx": 1})
    with pytest.raises(ConfigError, match=r"augment\[1\]\.kind must be text"):
        decode_transform({"kind": 3})


@pytest.mark.parametrize(
    "t",
    [
        Identity(),
        GaussianJitter(0.7),
        GridHFlip(rows=3, cols=5),
        GridShift(rows=2, cols=2, dx=-1, dy=1),
    ],
)
def test_transform_dict_round_trip(t):
    spec = encode_transform(t)
    assert spec["kind"] in ("identity", "gaussian_jitter", "grid_hflip", "grid_shift")
    assert decode_transform(spec) == t


_TRANSFORMS = st.one_of(
    st.just(Identity()),
    st.builds(GaussianJitter, st.floats(0.0, 1e6, allow_nan=False)),
    st.builds(GridHFlip, st.integers(1, 64), st.integers(1, 64)),
    st.builds(
        GridShift,
        st.integers(1, 64),
        st.integers(1, 64),
        st.integers(-64, 64),
        st.integers(-64, 64),
    ),
)


@settings(max_examples=100, deadline=None)
@given(t=_TRANSFORMS)
def test_every_transform_round_trips_through_json(t):
    spec = json.loads(json.dumps(encode_transform(t)))
    assert decode_transform(spec) == t
    assert encode_transform(decode_transform(spec)) == spec


def test_transform_spec_must_be_an_object_with_a_kind():
    with pytest.raises(ConfigError, match=r"missing required key 'kind' in augment\[1\]"):
        decode_transform({"sigma": 1.0})
    with pytest.raises(ConfigError, match=r"augment\[1\] must be an object"):
        decode_transform("identity")
