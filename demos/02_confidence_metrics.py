"""Unpack the three confidence metrics behind every admission decision."""

import numpy as np

from ile import derive_seed, generate
from ile.augment import AugmentationPlan, Identity
from ile.classifier import SOFTMAX_REGRESSION, TrainConfig, fit, init_model
from ile.confidence import (
    MetricWeights,
    build_prototypes,
    calibrate_weights,
    combine,
    score_block,
    score_sample,
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
    print(f"prototype for class {label}: {np.round(prototypes.get(label), 3)}")
print()

# No augmentation here so the numbers trace directly to one posterior.
plan = AugmentationPlan.identity_only()
weights = MetricWeights.equal()

# The pool is one sample set: ids, features X (n, d) and labels as arrays.
# Score it as one block, pick the sample the model is most sure about and
# the one it is least sure about, then compare their metric breakdowns.
pool = triple.unlabelled
block = score_block(model, prototypes, plan, pool, seed=5)
order = np.argsort(combine(block.c_a, block.c_b, block.c_c, weights), kind="stable")

reports = []
for tag, i in [("least confident", order[0]), ("most confident", order[-1])]:
    sample = pool[i : i + 1]  # a one-row set
    rep = score_sample(model, prototypes, plan, sample, weights, seed=5)
    reports.append(rep)
    print(f"{tag}: sample {sample.ids[0]} at {np.round(sample.X[0], 2)}")
    print(f"  predicted class {rep.predicted_label} (runner-up {rep.runner_up})")
    print(f"  c_a top probability      {rep.c_a:.3f}")
    print(f"  c_b margin over runner-up {rep.c_b:.3f}")
    print(f"  c_c distance to prototype {rep.c_c:.3f}  (0 = looks typical)")
    print(f"  combined confidence       {rep.combined:.3f}")
    print()

# c_c is a distance, so the combination maps it through 1/(1+c_c) by
# default; the "reciprocal" mode uses 1/max(c_c, eps) instead.
rep = reports[0]
for mode in ("bounded", "reciprocal"):
    c = combine(rep.c_a, rep.c_b, rep.c_c, weights, mode=mode)
    print(f"combined with mode={mode!r}: {c:.3f}")
print()

# Weights need not be equal: calibration ranks each metric by how accurate
# its own top-half picks are on the labelled data.
calibrated = calibrate_weights(model, prototypes, plan, triple.labelled, seed=5)
print(f"calibrated weights: a={calibrated.w_a:.3f} b={calibrated.w_b:.3f} c={calibrated.w_c:.3f}")
