"""
Learning an admission threshold
===============================

Given scored training samples whose correctness is known, pick the lowest
confidence cut-off whose pass-set accuracy still meets a target.  Lower
cut-offs admit more, so the cheapest qualifying cut wins; if no cut
qualifies the threshold is +inf and nothing gets admitted.
"""

import math

import numpy as np

from ile.threshold import learn_threshold, select_admissions, threshold_accuracy

# (confidence, predicted label, true label); a prediction is correct when
# the two labels agree
scored = [
    (0.97, 0, 0),
    (0.94, 1, 1),
    (0.90, 0, 2),
    (0.86, 2, 2),
    (0.81, 1, 1),
    (0.73, 2, 2),
    (0.55, 0, 1),
    (0.42, 1, 0),
]
confidences = np.array([c for c, _, _ in scored])
correct = np.array([pred == true for _, pred, true in scored])

print("cut     admitted  accuracy")
for cut in sorted(set(confidences.tolist()), reverse=True):
    admitted = int((confidences >= cut).sum())
    acc = threshold_accuracy(confidences, correct, cut)
    print(f"{cut:.2f}    {admitted:8d}  {acc:8.3f}")
print()

# The sweep above explains the outcomes below.  A target of 0.8 is met at
# 0.81 (4/5 correct) and again at 0.73 (5/6) once the pass set outgrows the
# mistake at 0.90 -- the sweep keeps the cheaper 0.73.
for target in (1.0, 0.8, 0.6):
    t_c = learn_threshold(confidences, correct, target)
    shown = "inf" if math.isinf(t_c) else f"{t_c:.2f}"
    print(f"target accuracy {target:.2f} -> threshold {shown}")

# nothing qualifies when even the most confident sample is wrong
hopeless = learn_threshold([0.99, 0.50], [False, True], 0.9)
print(f"hopeless case -> {hopeless}")
print()

# Applying the threshold to fresh unlabelled scores gives a mask over the
# pool; the rows it keeps are the admissions, and everything below the cut
# stays in the pool.
pool_ids = np.array([101, 102, 103])
pool_labels = np.array([0, 1, 0])
pool_confidences = np.array([0.91, 0.84, 0.61])
t_c = learn_threshold(confidences, correct, 0.8)
passes = select_admissions(pool_confidences, t_c)
admissions = list(
    zip(*(a[passes].tolist() for a in (pool_ids, pool_labels, pool_confidences)))
)
print(f"threshold {t_c:.2f} admits {len(admissions)} of {len(pool_ids)}: {admissions}")
