"""
Augmentation-ensemble inference
===============================

One sample, several jittered copies, one posterior per copy.  The ensemble
penalizes each class by the spread of its column (population std), then
keeps the single row whose best penalized score is highest.  Unstable
predictions lose even when they look confident.
"""

import numpy as np

from ile import augment, derive_seed, generate
from ile.augment import AugmentationPlan, GaussianJitter, Identity
from ile.classifier import SOFTMAX_REGRESSION, TrainConfig, fit, init_model, predict_proba_batch
from ile.datasets import split
from ile.ensemble import ensemble_posteriors, select_distribution

# --- a hand-sized matrix first ---------------------------------------------
# Row 0 is the more confident one (0.70), but it stakes that claim on
# class 0, whose column spread is the largest.  Row 1's class-1 claim is
# steadier: 0.70 - 0.300 = 0.400 loses to 0.62 - 0.185 = 0.435.
z = np.array([
    [0.70, 0.25, 0.05],
    [0.10, 0.62, 0.28],
])
result = select_distribution(z)
print("posterior matrix:")
print(z)
print(f"per-class spread sigma: {np.round(result.sigma, 3)}")
print(f"winning row: {result.chosen_index}, distribution {result.distribution}")
print(f"best penalized score: {result.scaled_max:.3f}")
print()

# --- the same machinery on a real model ------------------------------------
samples = generate("blobs", classes=3, per_class=150, noise=1.4, seed=derive_seed(11, "synth"))
triple = split(samples, labelled_per_class=6, validation_count=90, seed=derive_seed(11, "split"))
model = init_model(SOFTMAX_REGRESSION, d=2, C=3, seed=derive_seed(11, "model"))
model = fit(model, triple.labelled, TrainConfig(epochs=80), seed=derive_seed(11, "fit"))

plan = AugmentationPlan.from_transforms(
    [Identity(), GaussianJitter(0.6), GaussianJitter(0.6), GaussianJitter(0.6)]
)

# find the pool sample whose jittered copies disagree the most: the whole
# pool goes through as one (n, A, C) block of posteriors
pool = triple.unlabelled
spread = select_distribution(ensemble_posteriors(model, plan, pool, seed=11)).sigma
shaky = pool[[int(np.argmax(spread.max(axis=1)))]]  # a one-row set
vectors = augment.apply(plan, shaky, seed=11)[0]
z = predict_proba_batch(model, vectors)

print(f"sample {shaky.ids[0]} at {np.round(shaky.X[0], 2)} (slot 0 is the identity):")
for i, row in enumerate(z):
    print(f"  slot {i}: {np.round(row, 3)}")

# the one sample's (A, C) matrix, as the loop selects from it
result = select_distribution(ensemble_posteriors(model, plan, shaky, seed=11)[0])
plain = predict_proba_batch(model, shaky.X)[0]
print(f"sigma {np.round(result.sigma, 3)}")
print(f"ensemble keeps slot {result.chosen_index}: {np.round(result.distribution, 3)}")
print(f"plain single prediction:  {np.round(plain, 3)}")
print()

# Augmentation noise is keyed by (seed, sample id, slot), never by block
# or visit order, so a rescore reproduces the identical matrix.
again = select_distribution(ensemble_posteriors(model, plan, shaky, seed=11)[0])
print(f"rescoring is bit-identical: {np.array_equal(result.distribution, again.distribution)}")
