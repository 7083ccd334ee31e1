"""Sample sets, the working table and its validation set, and pseudo-label admissions.

A set of samples is one ``Samples`` struct of parallel arrays. Evaluation
mode keeps the hidden ground-truth label (``true_label``) on unlabelled
samples so that the accuracy of admitted pseudo-labels can be reported. The
training path only ever reads ``label``.

The labelled set D_l and the unlabelled pool D_u are two views of one
id-ordered working table: a row is in D_u while its ``label`` is UNKNOWN
and in D_l otherwise. Admitting a row writes its ``label``; releasing it
resets that label. So the two sets are disjoint and together hold every
non-validation row by construction, and no step checks it afterwards.
"""

import csv
import struct
from array import array
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import DataError, writing
from .seeding import rng

UNKNOWN = -1  # label sentinel: no ground truth, or no label assigned

_BINARY_MAGIC = b"ILE1"


@dataclass(frozen=True, eq=False)
class Samples:
    """A set of samples as parallel arrays, one entry (row of ``X``) per sample.

    ``true_label`` is hidden ground truth (evaluation mode only); ``label``
    is what training sees. Both are UNKNOWN (-1) where absent. ``admitted``
    is 0 for a label that came with the data and otherwise the iteration
    that admitted the pseudo-label.
    """

    ids: np.ndarray  # (n,) int64
    X: np.ndarray  # (n, d) float64
    true_label: np.ndarray  # (n,) int64
    label: np.ndarray  # (n,) int64
    admitted: np.ndarray  # (n,) int64

    @classmethod
    def clean(cls, ids, X, labels):
        """Clean samples whose label doubles as ground truth (UNKNOWN: none)."""
        labels = np.asarray(labels, dtype=np.int64)
        return cls(
            ids=np.asarray(ids, dtype=np.int64),
            X=np.asarray(X, dtype=np.float64),
            true_label=labels,
            label=labels.copy(),
            admitted=np.zeros(len(labels), dtype=np.int64),
        )

    __iter__ = None  # there are no row objects to iterate over: index instead

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, index):
        """The samples selected by ``index`` (a mask, slice or index array)."""
        return Samples(*(getattr(self, f.name)[index] for f in fields(self)))


def _first_id(samples, mask):
    return int(samples.ids[np.argmax(mask)])


def _duplicate_id(ids):
    """The smallest id that occurs more than once in ``ids``, or None."""
    ids = np.sort(ids)
    repeated = ids[1:][ids[1:] == ids[:-1]]
    return int(repeated[0]) if repeated.size else None


@dataclass(frozen=True, eq=False)
class DatasetTriple:
    """The working table and the validation set.

    ``work`` holds every non-validation row in id order; ``labelled`` (D_l)
    and ``unlabelled`` (D_u) are built from it on every read, so a caller on
    a hot path reads each once.
    """

    work: Samples
    validation: Samples

    @property
    def labelled(self):
        """D_l: the clean rows by id, then each iteration's admissions by id.

        The order is part of the result: training permutes row positions
        and the prototypes are row-order sums.
        """
        rows = np.flatnonzero(self.work.label != UNKNOWN)
        return self.work[rows[np.argsort(self.work.admitted[rows], kind="stable")]]

    @property
    def unlabelled(self):
        """D_u in id order."""
        return self.work[self.work.label == UNKNOWN]


@dataclass
class AdmissionRecord:
    """What one admission step did, for reporting."""

    admitted_ids: np.ndarray
    addition_accuracy: float | None = None


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def load_table(path, format="csv") -> Samples:
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
    duplicate = _duplicate_id(samples.ids)
    if duplicate is not None:
        raise DataError(f"{path}: duplicate id {duplicate}")
    finite = np.isfinite(samples.X).all(axis=1)
    if not finite.all():
        sid = _first_id(samples, ~finite)
        raise DataError(f"{path}: sample {sid} has a non-finite feature")
    return samples


def _load_csv(path) -> Samples:
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
        ids, labels, features = [], [], array("d")  # features: flat float64
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 2:
                raise DataError(
                    f"{path}: line {lineno}: expected {d + 2} fields, got {len(row)}"
                )
            try:
                ids.append(int(row[0]))
                labels.append(int(row[1]) if row[1] != "" else UNKNOWN)
                features.extend([float(v) for v in row[2:]])
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from exc
            if row[1] != "" and labels[-1] < 0:
                raise DataError(f"{path}: line {lineno}: negative label {labels[-1]}")
    try:
        X = np.frombuffer(features, dtype=np.float64).reshape(len(ids), d)
        return Samples.clean(ids, X, labels)
    except OverflowError as exc:
        raise DataError(f"{path}: id or label out of range: {exc}") from exc


def _load_binary(path) -> Samples:
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
    record = _binary_record(d)
    expected = 16 + count * record.itemsize
    if len(blob) != expected:
        raise DataError(
            f"{path}: expected {expected} bytes for {count} records, got {len(blob)}"
        )
    rows = np.frombuffer(blob, dtype=record, count=count, offset=16)
    labels = rows["label"].astype(np.int64)
    bad = (labels != UNKNOWN) & ((labels < 0) | (labels >= num_classes))
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(
            f"{path}: record {i}: label {labels[i]} outside [0, {num_classes})"
        )
    return Samples.clean(rows["id"], rows["X"], labels)


def _binary_record(d):
    """One binary table record: uint32 id, int32 label (-1 unknown), d float32."""
    return np.dtype([("id", "<u4"), ("label", "<i4"), ("X", "<f4", (d,))])


def save_table(samples, path, format="csv", num_classes=None):
    """Write samples to ``path`` in the CSV or binary table format.

    Labels are taken from ``true_label`` (falling back to ``label``), so a
    dataset round-trips through save/load.
    """
    if not len(samples):
        raise DataError("refusing to write an empty table")
    n, d = samples.X.shape
    labels = np.where(samples.true_label != UNKNOWN, samples.true_label, samples.label)

    if format == "csv":
        with writing(path), open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "label"] + [f"f{i}" for i in range(d)])
            # row by row: one list of every value would briefly hold the
            # whole table as Python floats
            for sid, lab, row in zip(samples.ids.tolist(), labels.tolist(), samples.X):
                writer.writerow(
                    [sid, "" if lab == UNKNOWN else lab] + [repr(v) for v in row.tolist()]
                )
    elif format == "binary":
        if num_classes is None:
            num_classes = int(labels.max()) + 1 if (labels != UNKNOWN).any() else 0
        if samples.ids.min() < 0 or samples.ids.max() >= 1 << 32:
            raise DataError("binary tables hold ids in [0, 2**32)")
        rows = np.empty(n, dtype=_binary_record(d))
        rows["id"], rows["label"], rows["X"] = samples.ids, labels, samples.X
        with writing(path), open(path, "wb") as fh:
            fh.write(_BINARY_MAGIC)
            fh.write(struct.pack("<III", n, d, num_classes))
            fh.write(rows.tobytes())
    else:
        raise DataError(f"unknown table format {format!r}")


# ---------------------------------------------------------------------------
# Split and admissions
# ---------------------------------------------------------------------------

def split(samples, labelled_per_class, validation_count, seed) -> DatasetTriple:
    """Partition samples into a DatasetTriple.

    The samples must be clean (no pseudo-labels, every label its ground
    truth) with distinct ids. The labelled set takes ``labelled_per_class``
    samples per class uniformly at random; the validation set is a uniform
    draw from the remainder; the rest becomes the unlabelled pool with
    assigned labels stripped (ground truth stays hidden on the samples).
    Samples without ground truth go straight to the pool. Deterministic in
    ``seed``; the working table and the validation set come out in id order.
    """
    if labelled_per_class < 1:
        raise DataError("labelled_per_class must be >= 1")
    if validation_count < 0:
        raise DataError("validation_count must be >= 0")
    duplicate = _duplicate_id(samples.ids)
    if duplicate is not None:
        raise DataError(f"duplicate id {duplicate}")
    samples = samples[np.argsort(samples.ids, kind="stable")]
    for bad, rule in (
        (samples.admitted != 0, "admitted != 0"),
        (samples.label != samples.true_label, "label != true_label"),
    ):
        if bad.any():
            raise DataError(f"sample {_first_id(samples, bad)} is not clean: {rule}")
    known = samples.true_label != UNKNOWN
    if not known.any():
        raise DataError("no sample has a ground-truth label; cannot split")

    labelled = np.zeros(len(samples), dtype=bool)
    for cls in np.unique(samples.true_label[known]).tolist():
        members = np.flatnonzero(samples.true_label == cls)
        if len(members) < labelled_per_class:
            raise DataError(
                f"class {cls} has {len(members)} samples, "
                f"needs {labelled_per_class}"
            )
        order = rng(seed, "split-class", cls).permutation(len(members))
        labelled[members[order[:labelled_per_class]]] = True

    # uniform over the remainder, not class-stratified
    remainder = np.flatnonzero(known & ~labelled)
    if validation_count > len(remainder):
        raise DataError(
            f"validation_count {validation_count} exceeds remaining "
            f"{len(remainder)} samples"
        )
    validation = np.zeros(len(samples), dtype=bool)
    order = rng(seed, "split-validation").permutation(len(remainder))
    validation[remainder[order[:validation_count]]] = True

    work = samples[~validation]
    pool_label = np.where(labelled[~validation], work.label, UNKNOWN)
    return DatasetTriple(replace(work, label=pool_label), samples[validation])


def admit(triple, ids, labels, iteration):
    """Move the pool samples ``ids`` to labelled with pseudo-labels ``labels``.

    Returns a new DatasetTriple plus the AdmissionRecord. The new working
    table gets fresh ``label`` and ``admitted`` columns and shares every
    other array, so the input triple is not mutated. In the labelled view
    the admitted rows follow every earlier row, in id order.
    """
    if iteration < 1:
        raise DataError(f"admitting iteration {iteration} < 1")
    ids = np.asarray(ids, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if not ids.size:
        return triple, AdmissionRecord(admitted_ids=ids)
    order = np.argsort(ids, kind="stable")
    ids, labels = ids[order], labels[order]
    duplicate = _duplicate_id(ids)
    if duplicate is not None:
        raise DataError(f"id {duplicate} admitted twice")
    if (labels < 0).any():
        raise DataError(f"id {ids[np.argmax(labels < 0)]} admitted without a label")
    work = triple.work
    outside = ~np.isin(ids, work.ids[work.label == UNKNOWN])
    if outside.any():
        raise DataError(f"id {ids[np.argmax(outside)]} is not in the unlabelled pool")

    rows = np.searchsorted(work.ids, ids)
    label, admitted = work.label.copy(), work.admitted.copy()
    label[rows] = labels
    admitted[rows] = iteration
    new_work = replace(work, label=label, admitted=admitted)
    accuracy = label_accuracy(labels, work.true_label[rows])
    return DatasetTriple(new_work, triple.validation), AdmissionRecord(ids, accuracy)


def label_accuracy(label, true_label):
    """Share of the rows with ground truth whose label matches it.

    None when no row has ground truth.
    """
    right = (label == true_label)[true_label != UNKNOWN]
    return int(right.sum()) / len(right) if len(right) else None


def release_pseudo(triple):
    """Return pseudo-labelled samples to the unlabelled pool.

    Used by the re-scoring mode in which admissions are reconsidered every
    iteration instead of being permanent.
    """
    work = triple.work
    pseudo = work.admitted != 0
    released = replace(
        work,
        label=np.where(pseudo, UNKNOWN, work.label),
        admitted=np.zeros_like(work.admitted),
    )
    return DatasetTriple(released, triple.validation)
