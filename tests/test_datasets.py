import numpy as np
import pytest

from ile import DataError, DatasetTriple, Sample, admit, load_table, save_table, split
from ile.datasets import release_pseudo, to_arrays

from conftest import make_sample


# ---------------------------------------------------------------------------
# Sample invariants
# ---------------------------------------------------------------------------

def test_pseudo_sample_requires_label_and_iteration():
    feats = np.zeros(2)
    with pytest.raises(DataError):
        Sample(id=1, features=feats, provenance="pseudo", admitted_iteration=1)
    with pytest.raises(DataError):
        Sample(id=1, features=feats, assigned_label=0, provenance="pseudo")
    with pytest.raises(DataError):
        Sample(
            id=1,
            features=feats,
            assigned_label=0,
            provenance="pseudo",
            admitted_iteration=0,
        )


def test_clean_sample_label_must_match_truth():
    with pytest.raises(DataError):
        Sample(id=1, features=np.zeros(2), true_label=0, assigned_label=1)


def test_unknown_provenance_rejected():
    with pytest.raises(DataError):
        Sample(id=1, features=np.zeros(2), provenance="mystery")


def test_to_arrays_label_selection():
    samples = [make_sample(0, [1.0, 2.0], 1), make_sample(1, [3.0, 4.0], 0)]
    X, y = to_arrays(samples, labels="assigned")
    assert X.shape == (2, 2)
    np.testing.assert_array_equal(y, [1, 0])
    X2, y2 = to_arrays(samples, labels=None)
    assert y2 is None
    with pytest.raises(DataError):
        to_arrays([make_sample(0, [1.0], None)], labels="assigned")
    with pytest.raises(DataError):
        to_arrays([])


# ---------------------------------------------------------------------------
# CSV format
# ---------------------------------------------------------------------------

def write_csv(path, text):
    path.write_text(text)
    return str(path)


def test_csv_basic_parse(tmp_path):
    path = write_csv(
        tmp_path / "t.csv",
        "id,label,f0,f1\n0,1,0.5,-1.5\n1,0,2.0,3.0\n2,1,0.0,0.25\n",
    )
    samples = load_table(path)
    assert len(samples) == 3
    assert all(s.provenance == "clean" for s in samples)
    assert samples[0].assigned_label == 1
    assert samples[0].true_label == 1
    np.testing.assert_array_equal(samples[0].features, [0.5, -1.5])


def test_csv_empty_label_means_unlabelled(tmp_path):
    path = write_csv(tmp_path / "t.csv", "id,label,f0\n5,,1.25\n")
    (s,) = load_table(path)
    assert s.assigned_label is None
    assert s.true_label is None
    assert s.id == 5


def test_csv_duplicate_ids_rejected(tmp_path):
    path = write_csv(tmp_path / "t.csv", "id,label,f0\n7,0,1.0\n7,1,2.0\n")
    with pytest.raises(DataError, match="duplicate id 7"):
        load_table(path)


def test_csv_bad_header_names_line_one(tmp_path):
    path = write_csv(tmp_path / "t.csv", "id,label,x0\n0,0,1.0\n")
    with pytest.raises(DataError, match="line 1"):
        load_table(path)


def test_csv_field_count_error_names_line(tmp_path):
    path = write_csv(tmp_path / "t.csv", "id,label,f0\n0,0,1.0\n1,0\n")
    with pytest.raises(DataError, match="line 3"):
        load_table(path)


def test_csv_bad_value_and_negative_label(tmp_path):
    path = write_csv(tmp_path / "t.csv", "id,label,f0\n0,0,oops\n")
    with pytest.raises(DataError, match="line 2"):
        load_table(path)
    path = write_csv(tmp_path / "u.csv", "id,label,f0\n0,-2,1.0\n")
    with pytest.raises(DataError, match="negative label"):
        load_table(path)


def test_csv_missing_file_and_empty_file(tmp_path):
    with pytest.raises(DataError, match="nope.csv"):
        load_table(str(tmp_path / "nope.csv"))
    path = write_csv(tmp_path / "empty.csv", "")
    with pytest.raises(DataError, match="empty"):
        load_table(path)


def test_csv_round_trip_exact(tmp_path):
    samples = [
        make_sample(3, [0.1, -2.5e-7], 1),
        make_sample(9, [1 / 3, 7.0], None),
        make_sample(10, [5.5, 1e30], 0),
    ]
    path = str(tmp_path / "rt.csv")
    save_table(samples, path)
    back = load_table(path)
    assert [s.id for s in back] == [3, 9, 10]
    assert [s.true_label for s in back] == [1, None, 0]
    for a, b in zip(samples, back):
        # repr() round-trips float64 exactly
        np.testing.assert_array_equal(a.features, b.features)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_csv_non_finite_feature_names_the_sample(tmp_path, value):
    text = f"id,label,f0,f1\n0,0,1.0,2.0\n4,1,3.0,{value}\n"
    path = write_csv(tmp_path / "t.csv", text)
    with pytest.raises(DataError, match="sample 4 has a non-finite feature"):
        load_table(path)


# ---------------------------------------------------------------------------
# Binary format
# ---------------------------------------------------------------------------

def test_binary_round_trip(tmp_path):
    samples = [
        make_sample(0, [1.5, -2.0], 0),
        make_sample(1, [0.25, 8.0], None),
        make_sample(2, [3.0, 4.0], 2),
    ]
    path = str(tmp_path / "t.bin")
    save_table(samples, path, format="binary")
    back = load_table(path, format="binary")
    assert [s.id for s in back] == [0, 1, 2]
    assert [s.true_label for s in back] == [0, None, 2]
    for a, b in zip(samples, back):
        # values here are exactly representable in float32
        np.testing.assert_array_equal(a.features, b.features)


def test_binary_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(DataError, match="magic"):
        load_table(str(path), format="binary")
    path.write_bytes(b"ILE1\x02\x00\x00\x00")
    with pytest.raises(DataError, match="truncated"):
        load_table(str(path), format="binary")


def test_binary_truncated_records(tmp_path):
    samples = [make_sample(0, [1.0, 2.0], 0)]
    path = str(tmp_path / "t.bin")
    save_table(samples, path, format="binary")
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-2])
    with pytest.raises(DataError, match="expected"):
        load_table(path, format="binary")


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_binary_non_finite_feature_names_the_sample(tmp_path, value):
    samples = [make_sample(0, [1.0, 2.0], 0), make_sample(6, [value, 2.0], 1)]
    path = str(tmp_path / "t.bin")
    save_table(samples, path, format="binary")
    with pytest.raises(DataError, match="sample 6 has a non-finite feature"):
        load_table(path, format="binary")


def test_binary_label_out_of_range(tmp_path):
    samples = [make_sample(0, [1.0], 3)]
    path = str(tmp_path / "t.bin")
    save_table(samples, path, format="binary", num_classes=2)
    with pytest.raises(DataError, match="outside"):
        load_table(path, format="binary")


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(DataError):
        load_table(str(tmp_path / "x"), format="parquet")
    with pytest.raises(DataError):
        save_table([make_sample(0, [1.0], 0)], str(tmp_path / "x"), format="parquet")


def test_save_empty_or_ragged_rejected(tmp_path):
    with pytest.raises(DataError):
        save_table([], str(tmp_path / "x.csv"))
    ragged = [make_sample(0, [1.0], 0), make_sample(1, [1.0, 2.0], 0)]
    with pytest.raises(DataError, match="dimension"):
        save_table(ragged, str(tmp_path / "x.csv"))


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

def blob_samples(per_class=12, classes=3):
    out = []
    sid = 0
    for cls in range(classes):
        for i in range(per_class):
            out.append(make_sample(sid, [float(cls), float(i)], cls))
            sid += 1
    return out


def test_split_counts_and_partition():
    samples = blob_samples()
    triple = split(samples, labelled_per_class=4, validation_count=6, seed=0)
    assert len(triple.labelled) == 12
    assert len(triple.unlabelled) == 36 - 12 - 6
    assert len(triple.validation) == 6
    all_ids = sorted(s.id for part in (triple.labelled, triple.unlabelled, triple.validation) for s in part)
    assert all_ids == [s.id for s in samples]
    for cls in range(3):
        assert sum(1 for s in triple.labelled if s.true_label == cls) == 4


def test_split_unlabelled_keep_truth_but_lose_label():
    triple = split(blob_samples(), labelled_per_class=4, validation_count=0, seed=1)
    for s in triple.unlabelled:
        assert s.assigned_label is None
        assert s.true_label is not None


def test_split_exhaustive_leaves_pool_empty():
    triple = split(blob_samples(), labelled_per_class=12, validation_count=0, seed=0)
    assert triple.unlabelled == []
    assert triple.validation == []
    assert len(triple.labelled) == 36


def test_split_is_deterministic_and_order_insensitive():
    samples = blob_samples()
    t1 = split(samples, 4, 6, seed=7)
    t2 = split(samples, 4, 6, seed=7)
    t3 = split(list(reversed(samples)), 4, 6, seed=7)
    for a, b in ((t1, t2), (t1, t3)):
        assert [s.id for s in a.labelled] == [s.id for s in b.labelled]
        assert [s.id for s in a.unlabelled] == [s.id for s in b.unlabelled]
        assert [s.id for s in a.validation] == [s.id for s in b.validation]
    t4 = split(samples, 4, 6, seed=8)
    assert [s.id for s in t1.labelled] != [s.id for s in t4.labelled]


def test_split_sends_rows_without_ground_truth_to_the_pool():
    # labelled rows get even ids, unknown rows odd ids in between them
    known = [
        make_sample(2 * s.id, s.features, s.true_label) for s in blob_samples()
    ]
    unknown = [make_sample(2 * i + 1, [0.5, float(i)], None) for i in range(0, 36, 5)]
    before = split(known, 4, 6, seed=3)
    after = split(known + unknown, 4, 6, seed=3)
    assert [s.id for s in after.labelled] == [s.id for s in before.labelled]
    assert [s.id for s in after.validation] == [s.id for s in before.validation]
    pool_ids = [s.id for s in after.unlabelled]
    assert pool_ids == sorted([s.id for s in before.unlabelled] + [s.id for s in unknown])
    assert all(s.assigned_label is None for s in after.unlabelled)
    after.validate()


def test_split_errors():
    samples = blob_samples(per_class=3)
    with pytest.raises(DataError, match="class"):
        split(samples, labelled_per_class=4, validation_count=0, seed=0)
    with pytest.raises(DataError, match="validation_count"):
        split(samples, labelled_per_class=3, validation_count=1, seed=0)
    with pytest.raises(DataError):
        split(samples, labelled_per_class=0, validation_count=0, seed=0)
    unlabelled = [make_sample(0, [1.0], None)]
    with pytest.raises(DataError, match="ground-truth"):
        split(unlabelled, labelled_per_class=1, validation_count=0, seed=0)


# ---------------------------------------------------------------------------
# admit / release
# ---------------------------------------------------------------------------

def toy_triple():
    labelled = [make_sample(0, [0.0], 0), make_sample(1, [1.0], 1)]
    unlabelled = [
        Sample(id=i, features=np.array([float(i)]), true_label=i % 2)
        for i in range(2, 8)
    ]
    return DatasetTriple(labelled, unlabelled, [])


def test_admit_moves_samples_and_scores_accuracy():
    triple = toy_triple()
    # ids 2,4 are truly 0; ids 3,5 truly 1. Label 3 of 4 correctly.
    admissions = [(2, 0, 0.9), (3, 1, 0.8), (4, 0, 0.7), (5, 0, 0.6)]
    new, record = admit(triple, admissions, iteration=2)
    assert record.addition_accuracy == 0.75
    assert sorted(record.admitted_ids) == [2, 3, 4, 5]
    assert record.assigned_labels[5] == 0
    assert record.confidences[2] == 0.9
    assert new.total_size() == triple.total_size()
    assert len(new.labelled) == 6
    assert len(new.unlabelled) == 2
    admitted = {s.id: s for s in new.labelled if s.provenance == "pseudo"}
    assert set(admitted) == {2, 3, 4, 5}
    assert all(s.admitted_iteration == 2 for s in admitted.values())
    assert admitted[5].assigned_label == 0
    assert admitted[5].true_label == 1  # hidden truth survives admission
    new.validate()


def test_admit_empty_is_identity():
    triple = toy_triple()
    new, record = admit(triple, [], iteration=1)
    assert new is triple
    assert record.admitted_ids == []
    assert record.addition_accuracy is None


def test_admit_rejects_ids_outside_pool():
    triple = toy_triple()
    with pytest.raises(DataError, match="not in the unlabelled pool"):
        admit(triple, [(0, 0, 0.9)], iteration=1)  # id 0 already labelled
    with pytest.raises(DataError, match="not in the unlabelled pool"):
        admit(triple, [(99, 0, 0.9)], iteration=1)
    with pytest.raises(DataError, match="twice"):
        admit(triple, [(2, 0, 0.9), (2, 1, 0.8)], iteration=1)


def test_admit_sequence_conserves_and_grows():
    triple = toy_triple()
    total = triple.total_size()
    sizes = [len(triple.labelled)]
    for it, sid in enumerate([2, 3, 4], start=1):
        triple, _ = admit(triple, [(sid, sid % 2, 0.5)], iteration=it)
        triple.validate()
        assert triple.total_size() == total
        sizes.append(len(triple.labelled))
    assert sizes == sorted(sizes)


def test_release_pseudo_returns_admissions_to_pool():
    triple = toy_triple()
    triple, _ = admit(triple, [(2, 0, 0.9), (5, 0, 0.6)], iteration=1)
    released = release_pseudo(triple)
    assert len(released.labelled) == 2  # the clean originals
    assert {s.id for s in released.unlabelled} == {2, 3, 4, 5, 6, 7}
    by_id = {s.id: s for s in released.unlabelled}
    assert by_id[2].assigned_label is None
    assert by_id[2].true_label == 0
    assert [s.id for s in released.unlabelled] == sorted(by_id)
    released.validate()


def test_triple_validate_catches_violations():
    dup = DatasetTriple(
        [make_sample(0, [0.0], 0)], [Sample(id=0, features=np.zeros(1))], []
    )
    with pytest.raises(DataError, match="id 0"):
        dup.validate()
    bad_unlabelled = DatasetTriple([], [make_sample(1, [0.0], 1)], [])
    with pytest.raises(DataError, match="unlabelled"):
        bad_unlabelled.validate()
    bad_labelled = DatasetTriple([Sample(id=2, features=np.zeros(1))], [], [])
    with pytest.raises(DataError, match="no assigned label"):
        bad_labelled.validate()
