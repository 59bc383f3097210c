import math

import numpy as np
import pytest

from trustsim.core import Verdict
from trustsim.tree import (
    EmptyDataset,
    Leaf,
    Split,
    accuracy,
    depth,
    fit,
    fit_many,
    leaves,
    predict,
)

ONE_D_X = np.array([[0.1], [0.2], [0.8], [0.9]])
ONE_D_Y = np.array([0, 0, 1, 1], dtype=np.uint8)

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0], dtype=np.uint8)


# ---------------------------------------------------------------------------
# independent oracle: enumerate every midpoint threshold, recompute gains
# ---------------------------------------------------------------------------


def oracle_entropy(labels):
    n = len(labels)
    ones = sum(labels)
    if ones in (0, n):
        return 0.0
    p = ones / n
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def oracle_candidates(values, labels):
    """All (feature, threshold, gain) candidates, no leaf-size constraint."""
    n, d = values.shape
    parent = oracle_entropy(list(labels))
    out = []
    for j in range(d):
        distinct = sorted(set(values[:, j]))
        for lo, hi in zip(distinct, distinct[1:]):
            threshold = (lo + hi) / 2
            left = [labels[i] for i in range(n) if values[i, j] <= threshold]
            right = [labels[i] for i in range(n) if values[i, j] > threshold]
            child = (
                len(left) * oracle_entropy(left) + len(right) * oracle_entropy(right)
            ) / n
            out.append((j, threshold, parent - child))
    return out


def test_one_dimensional_example_has_three_candidates():
    candidates = oracle_candidates(ONE_D_X, ONE_D_Y)
    assert len(candidates) == 3
    by_threshold = {t: g for _, t, g in candidates}
    assert by_threshold[0.5] == pytest.approx(1.0)
    assert max(by_threshold, key=by_threshold.get) == 0.5


def test_one_dimensional_example_splits_at_half():
    for min_leaf in (1, 2):
        tree = fit(ONE_D_X, ONE_D_Y, max_depth=8, min_leaf=min_leaf)
        assert isinstance(tree.root, Split)
        assert tree.root.feature == 0
        assert tree.root.threshold == 0.5
        assert isinstance(tree.root.left, Leaf)
        assert isinstance(tree.root.right, Leaf)
        assert tree.root.left.verdict is Verdict.UNTRUSTWORTHY
        assert tree.root.left.counts == (2, 0)
        assert tree.root.right.verdict is Verdict.TRUSTWORTHY
        assert tree.root.right.counts == (0, 2)


def test_pure_dataset_yields_single_leaf():
    X = np.array([[0.3, 0.7], [0.1, 0.4], [0.9, 0.2]])
    y = np.ones(3, dtype=np.uint8)
    tree = fit(X, y)
    assert isinstance(tree.root, Leaf)
    assert tree.root.verdict is Verdict.TRUSTWORTHY
    assert tree.root.counts == (0, 3)


def test_xor_has_no_useful_axis_split():
    for _, _, gain in oracle_candidates(XOR_X, XOR_Y):
        assert gain == pytest.approx(0.0, abs=1e-12)
    tree = fit(XOR_X, XOR_Y, max_depth=1, min_leaf=1)
    assert isinstance(tree.root, Leaf)
    # tie between labels falls to untrustworthy; training accuracy is chance
    assert tree.root.verdict is Verdict.UNTRUSTWORTHY
    assert accuracy(tree, XOR_X, XOR_Y) == 0.5


def test_tree_matches_oracle_best_candidate_on_random_data():
    rng = np.random.default_rng(23)
    for _ in range(30):
        X = rng.random((40, 3))
        y = (X[:, 0] + 0.3 * rng.standard_normal(40) > 0.5).astype(np.uint8)
        if y.min() == y.max():
            continue
        tree = fit(X, y, max_depth=1, min_leaf=1)
        candidates = oracle_candidates(X, y)
        best = max(candidates, key=lambda c: c[2])
        if best[2] <= 0:
            assert isinstance(tree.root, Leaf)
            continue
        assert isinstance(tree.root, Split)
        got = (tree.root.feature, tree.root.threshold)
        want_gain = best[2]
        got_gain = dict(
            ((j, t), g) for j, t, g in candidates
        )[got]
        assert got_gain == pytest.approx(want_gain, abs=1e-12)


def test_determinism():
    rng = np.random.default_rng(5)
    X = rng.random((60, 4))
    y = (X[:, 1] > 0.5).astype(np.uint8)
    assert fit(X, y) == fit(X, y)


def test_consistent_data_fits_perfectly_at_full_depth():
    rng = np.random.default_rng(9)
    X = rng.random((50, 3))
    y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(np.uint8)
    tree = fit(X, y, max_depth=50, min_leaf=1)
    assert accuracy(tree, X, y) == 1.0


def test_depth_never_exceeds_cap():
    rng = np.random.default_rng(31)
    for max_depth in (1, 2, 3):
        X = rng.random((80, 4))
        y = (rng.random(80) < 0.5).astype(np.uint8)
        tree = fit(X, y, max_depth=max_depth, min_leaf=1)
        assert depth(tree) <= max_depth


def test_split_children_respect_min_leaf():
    rng = np.random.default_rng(13)
    X = rng.random((50, 3))
    y = (X[:, 2] > 0.4).astype(np.uint8)
    for min_leaf in (1, 3, 7):
        tree = fit(X, y, max_depth=10, min_leaf=min_leaf)
        if isinstance(tree.root, Leaf):
            continue
        for leaf in leaves(tree):
            assert sum(leaf.counts) >= min_leaf


def test_predict_routes_by_threshold():
    tree = fit(ONE_D_X, ONE_D_Y)
    assert predict(tree, [0.15]) is Verdict.UNTRUSTWORTHY
    assert predict(tree, [0.5]) is Verdict.UNTRUSTWORTHY  # boundary goes left
    assert predict(tree, [0.85]) is Verdict.TRUSTWORTHY


def test_predict_rejects_schema_mismatch():
    tree = fit(ONE_D_X, ONE_D_Y)
    with pytest.raises(ValueError):
        predict(tree, [0.1, 0.2])


def test_empty_dataset_rejected():
    with pytest.raises(EmptyDataset):
        fit(np.empty((0, 2)), np.empty(0, dtype=np.uint8))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_fit_many_rejects_non_finite_values(value):
    # the grower would send NaN left of a split and ``predict`` right of it
    values = np.array([[value], [1.0], [2.0], [value]])
    with pytest.raises(ValueError, match="feature values must be finite"):
        fit_many(values, [0, 1, 1, 0], [np.arange(4)], min_leaf=1)


def test_hyperparameter_validation():
    with pytest.raises(ValueError):
        fit(ONE_D_X, ONE_D_Y, max_depth=0)
    with pytest.raises(ValueError):
        fit(ONE_D_X, ONE_D_Y, min_leaf=0)


def test_single_record_becomes_leaf():
    tree = fit(np.array([[0.4]]), np.array([1], dtype=np.uint8))
    assert isinstance(tree.root, Leaf)
    assert tree.root.verdict is Verdict.TRUSTWORTHY
