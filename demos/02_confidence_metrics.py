"""Unpack the three confidence metrics behind every admission decision."""

import numpy as np

from ile import derive_seed, generate
from ile.augment import AugmentationPlan
from ile.classifier import SOFTMAX_REGRESSION, TrainConfig, fit, init_model
from ile.confidence import (
    MetricWeights,
    build_prototypes,
    combine,
    score_block,
    weights_from_scored,
)
from ile.datasets import split

# train on a small labelled subset of noisy 2-d blobs
samples = generate("blobs", classes=3, per_class=200, noise=1.5, seed=derive_seed(5, "synth"))
triple = split(samples, labelled_per_class=8, validation_count=100, seed=derive_seed(5, "split"))

model = init_model(SOFTMAX_REGRESSION, d=2, C=3, seed=derive_seed(5, "model"))
model = fit(model, triple.labelled, TrainConfig(epochs=80), seed=derive_seed(5, "fit"))

# Prototypes are per-class mean posteriors over the labelled set; metric c
# measures how far a prediction sits from its class's typical prediction.
prototypes = build_prototypes(model, triple.labelled)
for label in range(3):
    print(f"prototype for class {label}: {np.round(prototypes.table[label], 3)}")
print()

# No augmentation here so the numbers trace directly to one posterior.
plan = AugmentationPlan.identity_only()
weights = MetricWeights.equal()

# The pool is one sample set: ids, features X (n, d) and labels as arrays.
# Score it as one block, whose entries follow the pool's rows, pick the
# sample the model is most sure about and the one it is least sure about,
# then compare their metric breakdowns.
pool = triple.unlabelled
block = score_block(model, prototypes, plan, pool, seed=5)
combined = combine(block.c_a, block.c_b, block.c_c, weights)
order = np.argsort(combined, kind="stable")

for tag, i in [("least confident", order[0]), ("most confident", order[-1])]:
    print(f"{tag}: sample {pool.ids[i]} at {np.round(pool.X[i], 2)}")
    print(f"  predicted class {block.y1[i]} (runner-up {block.y2[i]})")
    print(f"  c_a top probability      {block.c_a[i]:.3f}")
    print(f"  c_b margin over runner-up {block.c_b[i]:.3f}")
    print(f"  c_c distance to prototype {block.c_c[i]:.3f}  (0 = looks typical)")
    print(f"  combined confidence       {combined[i]:.3f}")
    print()

# c_c is a distance, so the combination maps it through 1/(1+c_c) by
# default; the "reciprocal" mode uses 1/max(c_c, eps) instead.
i = order[0]
for mode in ("bounded", "reciprocal"):
    c = combine(block.c_a[i], block.c_b[i], block.c_c[i], weights, mode=mode)
    print(f"combined with mode={mode!r}: {c:.3f}")
print()

# Weights need not be equal: calibration ranks each metric by how accurate
# its own top-half picks are on the labelled data. Rows whose predicted
# class has no prototype are not scorable and sit out, as in the loop.
train = score_block(model, prototypes, plan, triple.labelled, seed=5)
ok = train.scorable
correct = train.y1[ok] == triple.labelled.label[ok]
calibrated = weights_from_scored(train.c_a[ok], train.c_b[ok], train.c_c[ok], correct)
print(f"calibrated weights: a={calibrated.w_a:.3f} b={calibrated.w_b:.3f} c={calibrated.w_c:.3f}")
