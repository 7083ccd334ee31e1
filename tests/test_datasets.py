from dataclasses import replace

import numpy as np
import pytest

from ile import DataError, DatasetTriple, admit, evaluate, load_table, save_table, split
from ile.datasets import release_pseudo

from conftest import assert_partition, logit_model, make_sample, samples_of


# ---------------------------------------------------------------------------
# Input checks: split takes clean rows with distinct ids, admit an iteration
# ---------------------------------------------------------------------------

def row(sid=1, true_label=0, label=0, admitted=0):
    """A one-row set with the given label fields."""
    return replace(
        make_sample(sid, [0.0, 0.0], true_label),
        label=np.array([label]),
        admitted=np.array([admitted]),
    )


def split_rows(*rows):
    return split(samples_of(*rows), labelled_per_class=1, validation_count=0, seed=0)


def test_pseudo_sample_requires_label_and_iteration():
    triple = toy_triple()
    with pytest.raises(DataError, match="iteration 0"):
        admit(triple, rows_of(triple, [2]), [0], iteration=0)
    with pytest.raises(DataError, match="iteration 0"):
        admit(triple, rows_of(triple, []), [], iteration=0)
    with pytest.raises(DataError, match="id 2 admitted without a label"):
        admit(triple, rows_of(triple, [2]), [-1], iteration=1)


def test_clean_sample_label_must_match_truth():
    with pytest.raises(DataError, match="sample 1 is not clean: label != true_label"):
        split_rows(row(sid=0), row(sid=1, true_label=0, label=1))
    # a label without ground truth is not clean either
    with pytest.raises(DataError, match="sample 1 is not clean: label != true_label"):
        split_rows(row(sid=0), row(sid=1, true_label=-1, label=0))
    split_rows(row(sid=0), row(sid=1, true_label=-1, label=-1))


def test_unknown_provenance_rejected():
    for admitted in (-1, 2):
        with pytest.raises(DataError, match="sample 1 is not clean: admitted != 0"):
            split_rows(row(sid=0), row(sid=1, admitted=admitted))


def test_split_rejects_duplicate_ids():
    with pytest.raises(DataError, match="duplicate id 4"):
        split_rows(row(sid=4), row(sid=1), row(sid=4, true_label=1, label=1))


def test_sample_sets_stack_rows_and_evaluation_needs_labels():
    samples = samples_of(make_sample(0, [1.0, 2.0], 1), make_sample(1, [3.0, 4.0], 0))
    assert samples.X.shape == (2, 2)
    np.testing.assert_array_equal(samples.label, [1, 0])
    unlabelled = make_sample(0, [1.0, 2.0], None)
    np.testing.assert_array_equal(unlabelled.X, [[1.0, 2.0]])
    with pytest.raises(DataError, match="sample 0 has no assigned label"):
        evaluate(logit_model(), unlabelled)
    with pytest.raises(DataError):
        evaluate(logit_model(), samples[:0])


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
    assert (samples.admitted == 0).all()  # clean
    assert samples.label[0] == 1
    assert samples.true_label[0] == 1
    np.testing.assert_array_equal(samples.X[0], [0.5, -1.5])


def test_csv_empty_label_means_unlabelled(tmp_path):
    path = write_csv(tmp_path / "t.csv", "id,label,f0\n5,,1.25\n")
    s = load_table(path)
    assert len(s) == 1
    assert s.label[0] == -1
    assert s.true_label[0] == -1
    assert s.ids[0] == 5


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
    samples = samples_of(
        make_sample(3, [0.1, -2.5e-7], 1),
        make_sample(9, [1 / 3, 7.0], None),
        make_sample(10, [5.5, 1e30], 0),
    )
    path = str(tmp_path / "rt.csv")
    save_table(samples, path)
    back = load_table(path)
    assert back.ids.tolist() == [3, 9, 10]
    assert back.true_label.tolist() == [1, -1, 0]
    # repr() round-trips float64 exactly
    np.testing.assert_array_equal(samples.X, back.X)


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
    samples = samples_of(
        make_sample(0, [1.5, -2.0], 0),
        make_sample(1, [0.25, 8.0], None),
        make_sample(2, [3.0, 4.0], 2),
    )
    path = str(tmp_path / "t.bin")
    save_table(samples, path, format="binary")
    back = load_table(path, format="binary")
    assert back.ids.tolist() == [0, 1, 2]
    assert back.true_label.tolist() == [0, -1, 2]
    # values here are exactly representable in float32
    np.testing.assert_array_equal(samples.X, back.X)


def test_binary_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(DataError, match="magic"):
        load_table(str(path), format="binary")
    path.write_bytes(b"ILE1\x02\x00\x00\x00")
    with pytest.raises(DataError, match="truncated"):
        load_table(str(path), format="binary")


def test_binary_truncated_records(tmp_path):
    samples = make_sample(0, [1.0, 2.0], 0)
    path = str(tmp_path / "t.bin")
    save_table(samples, path, format="binary")
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-2])
    with pytest.raises(DataError, match="expected"):
        load_table(path, format="binary")


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_binary_non_finite_feature_names_the_sample(tmp_path, value):
    samples = samples_of(make_sample(0, [1.0, 2.0], 0), make_sample(6, [value, 2.0], 1))
    path = str(tmp_path / "t.bin")
    save_table(samples, path, format="binary")
    with pytest.raises(DataError, match="sample 6 has a non-finite feature"):
        load_table(path, format="binary")


def test_binary_label_out_of_range(tmp_path):
    samples = make_sample(0, [1.0], 3)
    path = str(tmp_path / "t.bin")
    save_table(samples, path, format="binary", num_classes=2)
    with pytest.raises(DataError, match="outside"):
        load_table(path, format="binary")


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(DataError):
        load_table(str(tmp_path / "x"), format="parquet")
    with pytest.raises(DataError):
        save_table(make_sample(0, [1.0], 0), str(tmp_path / "x"), format="parquet")


def test_ids_outside_the_storable_range_are_data_errors(tmp_path):
    path = write_csv(tmp_path / "t.csv", f"id,label,f0\n{2**64},0,1.0\n")
    with pytest.raises(DataError, match="out of range"):
        load_table(path)
    for sid in (-1, 2**32):
        with pytest.raises(DataError, match="ids in"):
            save_table(make_sample(sid, [1.0], 0), str(tmp_path / "t.bin"), format="binary")


def test_save_empty_or_ragged_rejected(tmp_path):
    with pytest.raises(DataError):
        save_table(make_sample(0, [1.0], 0)[:0], str(tmp_path / "x.csv"))
    # rows of one set share a dimension: a ragged set cannot be built
    with pytest.raises(ValueError, match="dimension"):
        samples_of(make_sample(0, [1.0], 0), make_sample(1, [1.0, 2.0], 0))


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
    return samples_of(*out)


def test_split_counts_and_partition():
    samples = blob_samples()
    triple = split(samples, labelled_per_class=4, validation_count=6, seed=0)
    assert len(triple.labelled) == 12
    assert len(triple.unlabelled) == 36 - 12 - 6
    assert len(triple.validation) == 6
    parts = (triple.labelled, triple.unlabelled, triple.validation)
    all_ids = sorted(sid for part in parts for sid in part.ids.tolist())
    assert all_ids == samples.ids.tolist()
    for cls in range(3):
        assert (triple.labelled.true_label == cls).sum() == 4


def test_split_unlabelled_keep_truth_but_lose_label():
    triple = split(blob_samples(), labelled_per_class=4, validation_count=0, seed=1)
    assert (triple.unlabelled.label == -1).all()
    assert (triple.unlabelled.true_label != -1).all()


def test_split_exhaustive_leaves_pool_empty():
    triple = split(blob_samples(), labelled_per_class=12, validation_count=0, seed=0)
    assert len(triple.unlabelled) == 0
    assert len(triple.validation) == 0
    assert len(triple.labelled) == 36


def test_split_is_deterministic_and_order_insensitive():
    samples = blob_samples()
    t1 = split(samples, 4, 6, seed=7)
    t2 = split(samples, 4, 6, seed=7)
    t3 = split(samples[::-1], 4, 6, seed=7)
    for a, b in ((t1, t2), (t1, t3)):
        assert a.labelled.ids.tolist() == b.labelled.ids.tolist()
        assert a.unlabelled.ids.tolist() == b.unlabelled.ids.tolist()
        assert a.validation.ids.tolist() == b.validation.ids.tolist()
    t4 = split(samples, 4, 6, seed=8)
    assert t1.labelled.ids.tolist() != t4.labelled.ids.tolist()


def test_split_sends_rows_without_ground_truth_to_the_pool():
    # labelled rows get even ids, unknown rows odd ids in between them
    known = blob_samples()
    known = replace(known, ids=2 * known.ids)
    unknown = samples_of(
        *(make_sample(2 * i + 1, [0.5, float(i)], None) for i in range(0, 36, 5))
    )
    before = split(known, 4, 6, seed=3)
    after = split(samples_of(known, unknown), 4, 6, seed=3)
    assert after.labelled.ids.tolist() == before.labelled.ids.tolist()
    assert after.validation.ids.tolist() == before.validation.ids.tolist()
    pool_ids = after.unlabelled.ids.tolist()
    assert pool_ids == sorted(before.unlabelled.ids.tolist() + unknown.ids.tolist())
    assert (after.unlabelled.label == -1).all()
    assert_partition(after, samples_of(known, unknown).ids)


def test_split_errors():
    samples = blob_samples(per_class=3)
    with pytest.raises(DataError, match="class"):
        split(samples, labelled_per_class=4, validation_count=0, seed=0)
    with pytest.raises(DataError, match="validation_count"):
        split(samples, labelled_per_class=3, validation_count=1, seed=0)
    with pytest.raises(DataError):
        split(samples, labelled_per_class=0, validation_count=0, seed=0)
    unlabelled = make_sample(0, [1.0], None)
    with pytest.raises(DataError, match="ground-truth"):
        split(unlabelled, labelled_per_class=1, validation_count=0, seed=0)


# ---------------------------------------------------------------------------
# admit / release
# ---------------------------------------------------------------------------

TOY_IDS = np.arange(9)


def toy_triple():
    """Ids 0-1 labelled, 2-7 in the pool (truly ``id % 2``), 8 for validation."""
    labelled = samples_of(make_sample(0, [0.0], 0), make_sample(1, [1.0], 1))
    unlabelled = samples_of(
        *(replace(make_sample(i, [float(i)], i % 2), label=np.array([-1])) for i in range(2, 8))
    )
    return DatasetTriple(samples_of(labelled, unlabelled), make_sample(8, [8.0], 0))


def rows_of(triple, ids):
    """The admission mask over ``triple.work`` that chooses ``ids``."""
    return np.isin(triple.work.ids, ids)


def views(triple):
    """The ids, labels and admitting iterations of D_l, D_u and validation."""
    return [
        (part.ids.tolist(), part.label.tolist(), part.admitted.tolist())
        for part in (triple.labelled, triple.unlabelled, triple.validation)
    ]


def test_admit_moves_samples_and_scores_accuracy():
    triple = toy_triple()
    # ids 2,4 are truly 0; ids 3,5 truly 1. Label 3 of 4 correctly.
    new, record = admit(triple, rows_of(triple, [2, 3, 4, 5]), [0, 1, 0, 0], iteration=2)
    assert record.addition_accuracy == 0.75
    assert sorted(record.admitted_ids.tolist()) == [2, 3, 4, 5]
    assert_partition(new, TOY_IDS)
    assert len(new.labelled) == 6
    assert len(new.unlabelled) == 2
    admitted = new.labelled[new.labelled.admitted != 0]  # pseudo rows
    assert set(admitted.ids.tolist()) == {2, 3, 4, 5}
    assert (admitted.admitted == 2).all()
    five = admitted[admitted.ids == 5]
    assert five.label[0] == 0
    assert five.true_label[0] == 1  # hidden truth survives admission
    # the admissions follow the clean rows of D_l, in id order
    assert new.labelled.ids.tolist() == [0, 1, 2, 3, 4, 5]


def test_admit_empty_is_identity():
    triple = toy_triple()
    new, record = admit(triple, rows_of(triple, []), [], iteration=1)
    assert new is triple
    assert record.admitted_ids.tolist() == []
    assert record.addition_accuracy is None


def test_admit_rejects_ids_outside_pool():
    triple = toy_triple()
    with pytest.raises(DataError, match="id 0 is not in the unlabelled pool"):
        admit(triple, rows_of(triple, [0]), [0], iteration=1)  # id 0 already labelled
    # a mask names each row of the working table once, and nothing else
    with pytest.raises(DataError, match="admission mask"):
        admit(triple, np.zeros(len(triple.work) + 1, dtype=bool), [], iteration=1)
    with pytest.raises(DataError, match="admission mask"):
        admit(triple, np.flatnonzero(rows_of(triple, [2])), [0], iteration=1)
    with pytest.raises(DataError, match="2 labels for 1 admitted rows"):
        admit(triple, rows_of(triple, [2]), [0, 1], iteration=1)


def test_admit_sequence_conserves_and_grows():
    triple = toy_triple()
    sizes = [len(triple.labelled)]
    for it, sid in enumerate([4, 3, 2], start=1):
        triple, _ = admit(triple, rows_of(triple, [sid]), [sid % 2], iteration=it)
        assert_partition(triple, TOY_IDS)
        sizes.append(len(triple.labelled))
    assert sizes == sorted(sizes)
    # each iteration's admissions after the earlier ones, whatever their ids
    assert triple.labelled.ids.tolist() == [0, 1, 4, 3, 2]


def test_release_pseudo_returns_admissions_to_pool():
    triple = toy_triple()
    triple, _ = admit(triple, rows_of(triple, [2, 5]), [0, 0], iteration=1)
    released = release_pseudo(triple)
    assert len(released.labelled) == 2  # the clean originals
    pool = released.unlabelled
    assert set(pool.ids.tolist()) == {2, 3, 4, 5, 6, 7}
    two = pool[pool.ids == 2]
    assert two.label[0] == -1
    assert two.true_label[0] == 0
    assert pool.ids.tolist() == sorted(pool.ids.tolist())
    assert (pool.admitted == 0).all()
    assert_partition(released, TOY_IDS)


def test_admit_and_release_leave_their_input_untouched():
    triple = toy_triple()
    before = views(triple)
    admitted, _ = admit(triple, rows_of(triple, [2, 5]), [0, 0], iteration=1)
    assert views(triple) == before
    before = views(admitted)
    release_pseudo(admitted)
    assert views(admitted) == before
