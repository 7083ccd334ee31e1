"""
Self-training quickstart
========================

A softmax-regression model, five labelled samples per class, and a pool of
unlabelled points.  Each round the model labels the pool with an
augmentation ensemble, keeps only the admissions that clear the learned
confidence threshold, and retrains on the enlarged set.
"""

from ile import derive_seed, generate, run_single
from ile.augment import AugmentationPlan, GaussianJitter, Identity
from ile.classifier import TrainConfig
from ile.config import (
    ClassifierSpec,
    ConfidenceSpec,
    DataSource,
    LoopSpec,
    RunConfig,
    SplitSpec,
    SynthSpec,
    ThresholdSpec,
)

cfg = RunConfig(
    data=DataSource(synth=SynthSpec("blobs", classes=3, per_class=400, noise=1.6)),
    split=SplitSpec(labelled_per_class=5, validation_count=300),
    classifier=ClassifierSpec(train=TrainConfig(epochs=60)),
    augment=AugmentationPlan.from_transforms(
        [Identity(), GaussianJitter(0.4), GaussianJitter(0.4)]
    ),
    confidence=ConfidenceSpec(weights=None),  # calibrate the weights each round
    threshold=ThresholdSpec(target_accuracy=0.97),
    loop=LoopSpec(max_iterations=8),
    seed=7,
)

# the same generator call run(cfg) would make internally
samples = generate("blobs", 3, 400, 1.6, seed=derive_seed(cfg.seed, "synth"))
report = run_single(cfg, samples, base_seed=cfg.seed)

# The benchmark model sees only the 15 labelled samples.  It shares its
# seeds with iteration 1, so any gap below is due to the admissions alone.
print(f"labelled-only benchmark error: {report.benchmark_val_error:.3f}")
print()
print("iter   |D_l|   |D_u|   added   add-acc   val error   threshold")
for r in report.iterations:
    acc = "  n/a" if r.addition_accuracy is None else f"{r.addition_accuracy:.3f}"
    thr = "inf" if r.threshold == float("inf") else f"{r.threshold:.3f}"
    print(
        f"{r.iteration:4d}  {r.dl_size:6d}  {r.du_size:6d}  {r.added_count:6d}"
        f"   {acc:>7}   {r.val_error:9.3f}   {thr:>9}"
    )

print()
print(
    f"final error {report.final_val_error:.3f} "
    f"(improvement {report.improvement:+.3f}; positive means error went down)"
)
last = report.iterations[-1]
print(
    f"admitted pseudo-labels were "
    f"{100 * last.cumulative_addition_accuracy:.1f}% correct overall"
)
