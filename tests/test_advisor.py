import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustsim import advisor
from trustsim.advisor import (
    AdvisorDataset,
    advisor_verdict,
    build_advisor,
    cv_folds,
    honest_responder,
    load_dataset,
    save_dataset,
    self_assess,
)
from trustsim.core import AgentId, Verdict
from trustsim.tree import EmptyDataset, Leaf, fit, predict

T, N = Verdict.TRUSTWORTHY, Verdict.UNTRUSTWORTHY


def dataset_from(rows, schema=None):
    """A dataset from ``(features, verdict)`` rows."""
    width = len(rows[0][0])
    schema = schema or tuple(f"f{i}" for i in range(width))
    return AdvisorDataset(schema, [f for f, _ in rows], [label is T for _, label in rows])


def pure_dataset(n=20):
    return dataset_from([((i / n, 1.0 - i / n), T) for i in range(n)])


def xor_dataset(copies=10):
    points = [((0.0, 0.0), N), ((0.0, 1.0), T), ((1.0, 0.0), T), ((1.0, 1.0), N)]
    return dataset_from(points * copies)


def separable_dataset(n=30):
    rows = []
    for i in range(n):
        x = i / n
        rows.append(((x, x / 2), T if x > 0.5 else N))
    return dataset_from(rows)


def test_dataset_rejects_ragged_records():
    with pytest.raises(ValueError, match="schema has 2 features"):
        AdvisorDataset(("a", "b"), [[1.0]], [1])
    with pytest.raises(ValueError, match="schema has 2 features"):
        AdvisorDataset(("a", "b"), [1.0, 2.0], [1, 0])
    with pytest.raises(ValueError):
        AdvisorDataset(("a", "b"), [[1.0, 2.0], [1.0]], [1, 0])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_dataset_rejects_non_finite_values(value):
    with pytest.raises(ValueError, match="feature values must be finite"):
        AdvisorDataset(("a",), [[value], [1.0], [2.0], [value]], [0, 1, 1, 0])


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_load_dataset_rejects_non_finite_values(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(f"a,label\n{text},N\n1.0,T\n2.0,T\n")
    with pytest.raises(ValueError, match="feature values must be finite"):
        load_dataset(path)


@pytest.mark.parametrize("labels", [[1], [1, 0, 1], [[1, 0]]])
def test_dataset_needs_one_label_per_row(labels):
    with pytest.raises(ValueError, match="labels have shape"):
        AdvisorDataset(("a",), [[0.1], [0.2]], labels)


@pytest.mark.parametrize("labels", [[0, 2], [1, -1], [0.5, 1], ["T", "N"]])
def test_dataset_labels_are_zero_or_one(labels):
    with pytest.raises(ValueError, match="labels must be 0"):
        AdvisorDataset(("a",), [[0.1], [0.2]], labels)


def test_dataset_holds_float_values_and_uint8_labels():
    values = np.array([[1, 2], [3, 4]])
    labels = np.array([True, False])
    data = AdvisorDataset(("a", "b"), values, labels)
    assert data.values.dtype == np.float64 and data.values.shape == (2, 2)
    assert data.labels.dtype == np.uint8 and data.labels.tolist() == [1, 0]
    assert len(data) == 2
    # read-only copies: neither the dataset nor its source can change it
    with pytest.raises(ValueError, match="read-only"):
        data.values[0, 0] = 9.0
    with pytest.raises(ValueError, match="read-only"):
        data.labels[0] = 0
    values[0, 0], labels[0] = 9, False
    assert data.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert data.labels.tolist() == [1, 0]


def test_self_assess_on_empty_dataset():
    with pytest.raises(EmptyDataset):
        self_assess(AdvisorDataset(("a",), np.empty((0, 1)), []))


def test_cv_folds_partition_exactly():
    for n, k in [(20, 10), (23, 10), (5, 5), (7, 3)]:
        folds = cv_folds(n, k, seed=1)
        flat = [i for fold in folds for i in fold]
        assert sorted(flat) == list(range(n))
        assert len(folds) == k
        assert all(folds)
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1


def test_cv_folds_deterministic_given_seed():
    assert cv_folds(40, 10, seed=5) == cv_folds(40, 10, seed=5)
    assert cv_folds(40, 10, seed=5) != cv_folds(40, 10, seed=6)


def test_self_assess_pure_dataset_is_perfect():
    result = self_assess(pure_dataset(20), k=10, threshold=0.7, seed=0)
    assert result.accuracy == 1.0
    assert result.folds == 10
    assert result.participate is True


def test_self_assess_xor_stump_cannot_clear_threshold():
    # A depth-1 stump cannot represent XOR. Held-out folds are in fact
    # anti-correlated with the training majorities (removing a fold tilts the
    # balanced label counts exactly against the held-out points), so the
    # cross-validated accuracy sits well below chance, far under any sane
    # participation threshold.
    for seed in range(10):
        result = self_assess(xor_dataset(10), k=10, threshold=0.7, seed=seed, max_depth=1)
        assert result.accuracy <= 0.35
        assert result.participate is False


def test_self_assess_resource_flag_withdraws():
    result = self_assess(pure_dataset(20), k=10, threshold=0.7, resource_flag=False, seed=0)
    assert result.accuracy == 1.0
    assert result.participate is False


def test_self_assess_reduces_folds_to_record_count():
    result = self_assess(separable_dataset(6), k=10, seed=0)
    assert result.folds == 6


def test_self_assess_needs_two_records():
    tiny = dataset_from([((0.1, 0.1), T)])
    with pytest.raises(ValueError):
        self_assess(tiny, k=10)


@pytest.mark.parametrize("k", [0, 1])
def test_self_assess_needs_two_folds(k):
    # one fold would hold every record and leave its training set empty
    with pytest.raises(ValueError, match="cross-validation needs at least two folds"):
        self_assess(separable_dataset(10), k=k)


def test_self_assess_deterministic():
    data = separable_dataset(30)
    a = self_assess(data, k=10, seed=9)
    b = self_assess(data, k=10, seed=9)
    assert a == b


def test_advisor_verdict_abstains_when_not_participating():
    advisor = build_advisor(AgentId(1), xor_dataset(10), seed=0, max_depth=1)
    assert advisor.assessment.participate is False
    assert advisor_verdict(advisor, (0.0, 1.0)) is None
    assert honest_responder(advisor)(AgentId(2), (0.0, 1.0)) is None


def test_advisor_verdict_passes_tree_verdict_through():
    advisor = build_advisor(AgentId(1), separable_dataset(30), seed=0)
    assert advisor.assessment.participate is True
    assert advisor_verdict(advisor, (0.9, 0.45)) is T
    assert predict(advisor.tree, (0.9, 0.45)) is T
    assert honest_responder(advisor)(AgentId(2), (0.9, 0.45)) is T


def test_single_leaf_tree_predicts_constantly():
    advisor = build_advisor(AgentId(1), pure_dataset(10), seed=0)
    assert isinstance(advisor.tree.root, Leaf)
    for features in [(0.0, 0.0), (1.0, 1.0), (0.3, 0.9)]:
        assert advisor_verdict(advisor, features) is T


def test_dataset_file_round_trip(tmp_path):
    data = dataset_from([((0.125, 0.5), T), ((0.75, 0.0625), N)], schema=("alpha", "beta"))
    path = tmp_path / "records.csv"
    save_dataset(data, path)
    loaded = load_dataset(path)
    assert loaded.schema == ("alpha", "beta")
    assert loaded.values.tolist() == data.values.tolist()
    assert loaded.labels.tolist() == data.labels.tolist() == [1, 0]
    header = path.read_text().splitlines()[0]
    assert header == "alpha,beta,label"


def test_load_dataset_rejects_bad_label(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,label\n0.5,X\n")
    with pytest.raises(ValueError):
        load_dataset(path)


def test_load_dataset_rejects_missing_label_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0.5,0.6\n")
    with pytest.raises(ValueError):
        load_dataset(path)


# ---------------------------------------------------------------------------
# one-pass build
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 80),
    d=st.integers(1, 5),
    decimals=st.integers(0, 2),
    k=st.integers(2, 12),
    max_depth=st.integers(1, 8),
    min_leaf=st.integers(1, 4),
    data_seed=st.integers(0, 2**32 - 1),
    fold_seed=st.integers(0, 2**16),
)
def test_build_advisor_equals_fit_and_self_assess(
    n, d, decimals, k, max_depth, min_leaf, data_seed, fold_seed
):
    # rounded values repeat, so split candidates tie
    rng = np.random.default_rng(data_seed)
    values = np.round(rng.random((n, d)), decimals)
    labels = rng.random(n) < 0.5
    data = AdvisorDataset(tuple(f"f{i}" for i in range(d)), values, labels)
    grow = dict(max_depth=max_depth, min_leaf=min_leaf)
    built = build_advisor(AgentId(1), data, k=k, seed=fold_seed, **grow)
    assert built.tree == fit(values, labels.astype(np.uint8), **grow)
    assert built.assessment == self_assess(data, k, seed=fold_seed, **grow)
    assert built.assessment.folds == min(k, n)


def test_build_advisor_converts_and_fits_once(monkeypatch):
    calls = []
    fit_many = advisor.fit_many

    def counted_fit_many(values, labels, row_sets, **grow):
        calls.append(len(row_sets))
        return fit_many(values, labels, row_sets, **grow)

    monkeypatch.setattr(advisor, "fit_many", counted_fit_many)
    monkeypatch.setattr(advisor, "fit", None)
    build_advisor(AgentId(1), separable_dataset(30), k=7, seed=0)
    assert calls == [1 + 7]


def test_build_advisor_on_empty_dataset():
    with pytest.raises(EmptyDataset, match="^advisor has no interaction records$"):
        build_advisor(AgentId(1), AdvisorDataset(("a",), np.empty((0, 1)), []), k=1)


def test_build_advisor_needs_two_records():
    tiny = dataset_from([((0.1, 0.1), T)])
    with pytest.raises(ValueError, match="^cross-validation needs at least two records$"):
        build_advisor(AgentId(1), tiny, k=1)


@pytest.mark.parametrize("k", [0, 1])
def test_build_advisor_needs_two_folds(k):
    with pytest.raises(ValueError, match="^cross-validation needs at least two folds$"):
        build_advisor(AgentId(1), separable_dataset(10), k=k)


def test_build_advisor_falls_back_to_leave_one_out():
    data = separable_dataset(6)
    built = build_advisor(AgentId(1), data, k=10, seed=0)
    assert built.assessment.folds == 6
    assert built.assessment == self_assess(data, k=6, seed=0)
