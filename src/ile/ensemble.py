"""Augmentation-ensemble inference.

All A augmented copies of a sample are scored by the model, giving an A x C
matrix of posteriors. The per-class standard deviation across the ensemble is
subtracted from every row as a disagreement penalty, the row whose best
penalized score is highest wins, and that row's *unscaled* distribution is
what the confidence metrics see. Blocks of samples go through as (n, A, C)
arrays; one sample is a block of one.
"""

from dataclasses import dataclass

import numpy as np

from . import augment
from .classifier import predict_proba_batch


@dataclass
class EnsembleResult:
    """The selection for one (A, C) matrix, or per sample for an (n, A, C) block."""

    chosen_index: np.ndarray  # winning row
    distribution: np.ndarray  # unscaled posterior of the chosen augmentation
    sigma: np.ndarray  # per-class std across the ensemble
    scaled_max: np.ndarray  # best penalized score of the chosen row


def select_distribution(posteriors, population_std=True) -> EnsembleResult:
    """Pick the winning row of each (A, C) posterior matrix in ``posteriors``.

    ``posteriors`` is one (A, C) matrix or an (n, A, C) block; the result
    fields carry the same leading axes. ``population_std`` selects the
    divide-by-A std (well defined at A=1); the sample std (divide by A-1) is
    available as a variant and treated as zero when A=1. Ties go to the
    lowest row index.
    """
    z = np.asarray(posteriors, dtype=np.float64)
    ddof = 0 if population_std else 1
    if z.shape[-2] > ddof:
        sigma = z.std(axis=-2, ddof=ddof)
    else:
        sigma = np.zeros(z.shape[:-2] + z.shape[-1:])
    row_best = (z - sigma[..., None, :]).max(axis=-1)
    a = np.argmax(row_best, axis=-1)
    return EnsembleResult(
        chosen_index=a,
        distribution=np.take_along_axis(z, a[..., None, None], axis=-2)[..., 0, :],
        sigma=sigma,
        scaled_max=row_best.max(axis=-1),
    )


def ensemble_posteriors(model, plan, samples, seed):
    """Posteriors of every augmented copy of a block of samples, (n, A, C)."""
    vectors = augment.apply(plan, samples, seed)
    n, A, d = vectors.shape
    return predict_proba_batch(model, vectors.reshape(n * A, d)).reshape(n, A, model.C)


# kept only as a hook for bench/tracing.py until ROADMAP item 8 removes it
def ensemble_predict(model, plan, sample, seed, population_std=True) -> EnsembleResult:
    """Score all augmentations of ``sample`` (a one-row set) and select the winner."""
    z = ensemble_posteriors(model, plan, sample, seed)[0]
    return select_distribution(z, population_std=population_std)
