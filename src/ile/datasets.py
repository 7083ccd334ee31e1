"""Samples, the labelled/unlabelled/validation split, and pseudo-label admissions.

Evaluation mode keeps the hidden ground-truth label (``true_label``) on
unlabelled samples so that the accuracy of admitted pseudo-labels can be
reported. The training path only ever reads ``assigned_label``.
"""

import csv
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError
from .seeding import rng

PROVENANCE_CLEAN = "clean"
PROVENANCE_PSEUDO = "pseudo"

_BINARY_MAGIC = b"ILE1"


@dataclass(frozen=True, eq=False)
class Sample:
    """One data point: feature vector plus label bookkeeping.

    ``true_label`` is hidden ground truth (evaluation mode only);
    ``assigned_label`` is what training sees. Provenance records whether the
    label came with the data ("clean") or was admitted by the loop
    ("pseudo", with the admitting iteration).
    """

    id: int
    features: np.ndarray
    true_label: int | None = None
    assigned_label: int | None = None
    provenance: str = PROVENANCE_CLEAN
    admitted_iteration: int | None = None

    def __post_init__(self):
        if self.provenance not in (PROVENANCE_CLEAN, PROVENANCE_PSEUDO):
            raise DataError(f"unknown provenance {self.provenance!r}")
        if self.provenance == PROVENANCE_PSEUDO:
            if self.assigned_label is None:
                raise DataError(f"sample {self.id}: pseudo provenance requires a label")
            if self.admitted_iteration is None or self.admitted_iteration < 1:
                raise DataError(
                    f"sample {self.id}: pseudo provenance requires a positive iteration"
                )
        elif (
            self.assigned_label is not None
            and self.true_label is not None
            and self.assigned_label != self.true_label
        ):
            raise DataError(
                f"sample {self.id}: clean label {self.assigned_label} contradicts "
                f"ground truth {self.true_label}"
            )


@dataclass
class DatasetTriple:
    """The three working sets: labelled, unlabelled and validation."""

    labelled: list[Sample]
    unlabelled: list[Sample]
    validation: list[Sample]

    def validate(self):
        """Check the structural invariants; raises DataError on violation."""
        seen = {}
        for name, part in (
            ("labelled", self.labelled),
            ("unlabelled", self.unlabelled),
            ("validation", self.validation),
        ):
            for s in part:
                if s.id in seen:
                    raise DataError(
                        f"id {s.id} appears in both {seen[s.id]} and {name}"
                    )
                seen[s.id] = name
        for s in self.labelled:
            if s.assigned_label is None:
                raise DataError(f"labelled sample {s.id} has no assigned label")
        for s in self.validation:
            if s.assigned_label is None:
                raise DataError(f"validation sample {s.id} has no assigned label")
        for s in self.unlabelled:
            if s.assigned_label is not None:
                raise DataError(f"unlabelled sample {s.id} has an assigned label")

    def total_size(self) -> int:
        return len(self.labelled) + len(self.unlabelled) + len(self.validation)


@dataclass
class AdmissionRecord:
    """What one admission step did, for reporting."""

    iteration: int
    admitted_ids: list[int] = field(default_factory=list)
    assigned_labels: dict[int, int] = field(default_factory=dict)
    confidences: dict[int, float] = field(default_factory=dict)
    addition_accuracy: float | None = None


def to_arrays(samples, labels="assigned"):
    """Stack samples into (X, y) arrays.

    ``labels`` selects which label field to read: "assigned", "true" or None
    (y is then None). Raises DataError if a requested label is missing.
    """
    if not samples:
        raise DataError("empty sample collection")
    X = np.stack([s.features for s in samples]).astype(np.float64)
    if labels is None:
        return X, None
    y = np.empty(len(samples), dtype=np.int64)
    for i, s in enumerate(samples):
        lab = s.assigned_label if labels == "assigned" else s.true_label
        if lab is None:
            raise DataError(f"sample {s.id} has no {labels} label")
        y[i] = lab
    return X, y


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def load_table(path, format="csv") -> list[Sample]:
    """Load samples from ``path``; format "csv" or "binary".

    Rows with a label yield clean samples where the label doubles as hidden
    ground truth; rows without one yield unlabelled samples. NaN or infinite
    features are rejected.
    """
    if format == "csv":
        samples = _load_csv(path)
    elif format == "binary":
        samples = _load_binary(path)
    else:
        raise DataError(f"unknown table format {format!r}")
    seen = set()
    for s in samples:
        if s.id in seen:
            raise DataError(f"{path}: duplicate id {s.id}")
        seen.add(s.id)
    if samples:
        finite = np.isfinite(np.stack([s.features for s in samples])).all(axis=1)
        if not finite.all():
            bad = samples[int(np.argmin(finite))]
            raise DataError(f"{path}: sample {bad.id} has a non-finite feature")
    return samples


def _load_csv(path) -> list[Sample]:
    try:
        fh = open(path, "r", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        d = len(header) - 2
        if d < 1 or header[:2] != ["id", "label"] or header[2:] != [
            f"f{i}" for i in range(d)
        ]:
            raise DataError(f"{path}: line 1: bad header {','.join(header)!r}")
        samples = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 2:
                raise DataError(
                    f"{path}: line {lineno}: expected {d + 2} fields, got {len(row)}"
                )
            try:
                sid = int(row[0])
                label = int(row[1]) if row[1] != "" else None
                feats = np.array([float(v) for v in row[2:]], dtype=np.float64)
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from exc
            if label is not None and label < 0:
                raise DataError(f"{path}: line {lineno}: negative label {label}")
            samples.append(
                Sample(id=sid, features=feats, true_label=label, assigned_label=label)
            )
    return samples


def _load_binary(path) -> list[Sample]:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if blob[:4] != _BINARY_MAGIC:
        raise DataError(f"{path}: bad magic bytes")
    if len(blob) < 16:
        raise DataError(f"{path}: truncated header")
    count, d, num_classes = struct.unpack_from("<III", blob, 4)
    if d < 1:
        raise DataError(f"{path}: feature dimension {d} < 1")
    rec_size = 4 + 4 + 4 * d
    expected = 16 + count * rec_size
    if len(blob) != expected:
        raise DataError(
            f"{path}: expected {expected} bytes for {count} records, got {len(blob)}"
        )
    samples = []
    off = 16
    for i in range(count):
        sid, label = struct.unpack_from("<Ii", blob, off)
        feats = np.frombuffer(blob, dtype="<f4", count=d, offset=off + 8).astype(
            np.float64
        )
        off += rec_size
        if label == -1:
            lab = None
        elif 0 <= label < num_classes:
            lab = label
        else:
            raise DataError(
                f"{path}: record {i}: label {label} outside [0, {num_classes})"
            )
        samples.append(
            Sample(id=sid, features=feats, true_label=lab, assigned_label=lab)
        )
    return samples


def save_table(samples, path, format="csv", num_classes=None):
    """Write samples to ``path`` in the CSV or binary table format.

    Labels are taken from ``true_label`` (falling back to ``assigned_label``),
    so a dataset round-trips through save/load.
    """
    if not samples:
        raise DataError("refusing to write an empty table")
    d = len(samples[0].features)
    for s in samples:
        if len(s.features) != d:
            raise DataError(f"sample {s.id}: dimension {len(s.features)} != {d}")

    def label_of(s):
        return s.true_label if s.true_label is not None else s.assigned_label

    if format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "label"] + [f"f{i}" for i in range(d)])
            for s in samples:
                lab = label_of(s)
                writer.writerow(
                    [s.id, "" if lab is None else lab]
                    + [repr(float(v)) for v in s.features]
                )
    elif format == "binary":
        if num_classes is None:
            labels = [label_of(s) for s in samples if label_of(s) is not None]
            num_classes = (max(labels) + 1) if labels else 0
        with open(path, "wb") as fh:
            fh.write(_BINARY_MAGIC)
            fh.write(struct.pack("<III", len(samples), d, num_classes))
            for s in samples:
                lab = label_of(s)
                fh.write(struct.pack("<Ii", s.id, -1 if lab is None else lab))
                fh.write(np.asarray(s.features, dtype="<f4").tobytes())
    else:
        raise DataError(f"unknown table format {format!r}")


# ---------------------------------------------------------------------------
# Split and admissions
# ---------------------------------------------------------------------------

def split(samples, labelled_per_class, validation_count, seed) -> DatasetTriple:
    """Partition fully labelled samples into a DatasetTriple.

    The labelled set takes ``labelled_per_class`` samples per class uniformly
    at random; the validation set is a uniform draw from the remainder; the
    rest becomes the unlabelled pool with assigned labels stripped (ground
    truth stays hidden on the samples). Deterministic in ``seed``.
    """
    if labelled_per_class < 1:
        raise DataError("labelled_per_class must be >= 1")
    if validation_count < 0:
        raise DataError("validation_count must be >= 0")
    by_class = {}
    for s in samples:
        if s.true_label is None:
            raise DataError(f"sample {s.id} has no ground-truth label; cannot split")
        by_class.setdefault(s.true_label, []).append(s)

    labelled = []
    remainder = []
    for cls in sorted(by_class):
        members = sorted(by_class[cls], key=lambda s: s.id)
        if len(members) < labelled_per_class:
            raise DataError(
                f"class {cls} has {len(members)} samples, "
                f"needs {labelled_per_class}"
            )
        order = rng(seed, "split-class", cls).permutation(len(members))
        chosen = order[:labelled_per_class]
        chosen_set = set(chosen.tolist())
        labelled.extend(members[i] for i in chosen)
        remainder.extend(m for i, m in enumerate(members) if i not in chosen_set)

    if validation_count > len(remainder):
        raise DataError(
            f"validation_count {validation_count} exceeds remaining "
            f"{len(remainder)} samples"
        )
    # uniform over the remainder, not class-stratified
    remainder.sort(key=lambda s: s.id)
    order = rng(seed, "split-validation").permutation(len(remainder))
    val_idx = set(order[:validation_count].tolist())
    validation = [remainder[i] for i in sorted(val_idx)]
    unlabelled = [
        replace(remainder[i], assigned_label=None)
        for i in range(len(remainder))
        if i not in val_idx
    ]

    labelled.sort(key=lambda s: s.id)
    triple = DatasetTriple(labelled, unlabelled, validation)
    triple.validate()
    return triple


def admit(triple, admissions, iteration):
    """Move admitted samples from unlabelled to labelled.

    ``admissions`` is a list of (id, label, confidence). Returns a new
    DatasetTriple plus the AdmissionRecord; the input triple is not mutated.
    Total sample count is conserved.
    """
    record = AdmissionRecord(iteration=iteration)
    if not admissions:
        return triple, record

    by_id = {}
    for sid, label, conf in admissions:
        if sid in by_id:
            raise DataError(f"id {sid} admitted twice")
        by_id[sid] = (label, conf)

    pool_ids = {s.id for s in triple.unlabelled}
    for sid in by_id:
        if sid not in pool_ids:
            raise DataError(f"id {sid} is not in the unlabelled pool")

    labelled = list(triple.labelled)
    unlabelled = []
    correct = 0
    with_truth = 0
    for s in triple.unlabelled:
        if s.id not in by_id:
            unlabelled.append(s)
            continue
        label, conf = by_id[s.id]
        labelled.append(
            replace(
                s,
                assigned_label=label,
                provenance=PROVENANCE_PSEUDO,
                admitted_iteration=iteration,
            )
        )
        record.admitted_ids.append(s.id)
        record.assigned_labels[s.id] = label
        record.confidences[s.id] = conf
        if s.true_label is not None:
            with_truth += 1
            if label == s.true_label:
                correct += 1
    if with_truth:
        record.addition_accuracy = correct / with_truth

    new_triple = DatasetTriple(labelled, unlabelled, list(triple.validation))
    assert new_triple.total_size() == triple.total_size()
    return new_triple, record


def release_pseudo(triple):
    """Return pseudo-labelled samples to the unlabelled pool.

    Used by the re-scoring mode in which admissions are reconsidered every
    iteration instead of being permanent.
    """
    labelled = []
    released = []
    for s in triple.labelled:
        if s.provenance == PROVENANCE_PSEUDO:
            released.append(
                replace(
                    s,
                    assigned_label=None,
                    provenance=PROVENANCE_CLEAN,
                    admitted_iteration=None,
                )
            )
        else:
            labelled.append(s)
    unlabelled = list(triple.unlabelled) + released
    unlabelled.sort(key=lambda s: s.id)
    return DatasetTriple(labelled, unlabelled, list(triple.validation))
