"""Sample sets, the labelled/unlabelled/validation split, and pseudo-label admissions.

A set of samples is one ``Samples`` struct of parallel arrays. Evaluation
mode keeps the hidden ground-truth label (``true_label``) on unlabelled
samples so that the accuracy of admitted pseudo-labels can be reported. The
training path only ever reads ``label``.
"""

import csv
import struct
from array import array
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import DataError
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

    def by_id(self):
        """The same samples in ascending id order; ``self`` if already so."""
        if (self.ids[1:] > self.ids[:-1]).all():
            return self
        return self[np.argsort(self.ids, kind="stable")]

    @classmethod
    def concatenate(cls, parts):
        """One set holding the rows of every set in ``parts``, in order."""
        dims = {p.X.shape[1] for p in parts}
        if len(dims) > 1:
            raise DataError(f"feature dimension mismatch: {sorted(dims)}")
        return cls(
            *(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls))
        )


def _first_id(samples, mask):
    return int(samples.ids[np.argmax(mask)])


@dataclass
class DatasetTriple:
    """The three working sets: labelled, unlabelled and validation.

    Rows of ``labelled`` are the clean samples in id order followed by each
    iteration's admissions in id order; the other two sets are in id order.
    """

    labelled: Samples
    unlabelled: Samples
    validation: Samples

    def validate(self):
        """Check the structural invariants; raises DataError on violation."""
        parts = {
            "labelled": self.labelled,
            "unlabelled": self.unlabelled,
            "validation": self.validation,
        }
        ids = np.concatenate([p.ids for p in parts.values()])
        uniq, counts = np.unique(ids, return_counts=True)
        if (counts > 1).any():
            sid = uniq[np.argmax(counts > 1)]
            where = [n for n, p in parts.items() for _ in range((p.ids == sid).sum())]
            raise DataError(f"id {sid} appears in both {where[0]} and {where[1]}")
        for name, p in parts.items():
            pseudo = p.admitted != 0
            pool = name == "unlabelled"
            for bad, problem in (
                (p.admitted < 0, "has a negative admitting iteration"),
                (pseudo & (name != "labelled"), "has a pseudo-label"),
                (p.label != UNKNOWN, "has an assigned label") if pool
                else (p.label < 0, "has no assigned label"),
                (
                    ~pseudo & (p.true_label >= 0) & (p.label >= 0)
                    & (p.label != p.true_label),
                    "has a clean label that contradicts its ground truth",
                ),
            ):
                if bad.any():
                    raise DataError(f"{name} sample {_first_id(p, bad)} {problem}")

    def total_size(self) -> int:
        return len(self.labelled) + len(self.unlabelled) + len(self.validation)


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
    ids = np.sort(samples.ids)
    repeated = ids[1:][ids[1:] == ids[:-1]]
    if repeated.size:
        raise DataError(f"{path}: duplicate id {repeated[0]}")
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
        with open(path, "w", newline="") as fh:
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
        with open(path, "wb") as fh:
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

    The labelled set takes ``labelled_per_class`` samples per class uniformly
    at random; the validation set is a uniform draw from the remainder; the
    rest becomes the unlabelled pool with assigned labels stripped (ground
    truth stays hidden on the samples). Samples without ground truth go
    straight to the pool. Deterministic in ``seed``; every set comes out in
    id order.
    """
    if labelled_per_class < 1:
        raise DataError("labelled_per_class must be >= 1")
    if validation_count < 0:
        raise DataError("validation_count must be >= 0")
    samples = samples.by_id()
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

    pool = samples[~labelled & ~validation]
    triple = DatasetTriple(
        samples[labelled],
        replace(pool, label=np.full_like(pool.ids, UNKNOWN)),
        samples[validation],
    )
    triple.validate()
    return triple


def admit(triple, ids, labels, iteration):
    """Move the pool samples ``ids`` to labelled with pseudo-labels ``labels``.

    Returns a new DatasetTriple plus the AdmissionRecord; the input triple is
    not mutated. The admitted rows join the end of the labelled set in pool
    (id) order. Total sample count is conserved.
    """
    ids = np.asarray(ids, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if not ids.size:
        return triple, AdmissionRecord(admitted_ids=ids)
    order = np.argsort(ids, kind="stable")
    ids, labels = ids[order], labels[order]
    if (ids[1:] == ids[:-1]).any():
        raise DataError(f"id {ids[1:][ids[1:] == ids[:-1]][0]} admitted twice")
    pool = triple.unlabelled
    outside = ~np.isin(ids, pool.ids)
    if outside.any():
        raise DataError(f"id {ids[np.argmax(outside)]} is not in the unlabelled pool")

    chosen = np.isin(pool.ids, ids)
    moved = pool[chosen]
    moved = replace(
        moved,
        label=labels[np.searchsorted(ids, moved.ids)],
        admitted=np.full_like(moved.ids, iteration),
    )
    new_triple = DatasetTriple(
        Samples.concatenate([triple.labelled, moved]), pool[~chosen], triple.validation
    )
    return new_triple, AdmissionRecord(moved.ids, label_accuracy(moved))


def label_accuracy(samples):
    """Share of the samples with ground truth whose label matches it.

    None when no sample has ground truth.
    """
    right = (samples.label == samples.true_label)[samples.true_label != UNKNOWN]
    return int(right.sum()) / len(right) if len(right) else None


def release_pseudo(triple):
    """Return pseudo-labelled samples to the unlabelled pool.

    Used by the re-scoring mode in which admissions are reconsidered every
    iteration instead of being permanent.
    """
    pseudo = triple.labelled.admitted != 0
    released = triple.labelled[pseudo]
    released = replace(
        released,
        label=np.full_like(released.ids, UNKNOWN),
        admitted=np.zeros_like(released.ids),
    )
    unlabelled = Samples.concatenate([triple.unlabelled, released]).by_id()
    return DatasetTriple(triple.labelled[~pseudo], unlabelled, triple.validation)
