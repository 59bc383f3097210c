"""Pure-Python parity oracle for the decision-tree grower.

A scalar best-split scan and a recursive grower over it: the tree induction
``trustsim.tree`` performed node by node before it grew whole levels at once.
The tests check that ``trustsim.tree.fit_many`` grows the same trees, node
for node, and that its entropies equal ``_entropy`` bit for bit.
"""

from __future__ import annotations

from math import log2

import numpy as np

from trustsim.tree import DecisionTree, Split, _leaf


def _entropy(c0: int, c1: int) -> float:
    if c0 == 0 or c1 == 0:
        return 0.0
    n = c0 + c1
    p0 = c0 / n
    p1 = c1 / n
    return -(p0 * log2(p0) + p1 * log2(p1))


def best_split(values, labels, min_leaf: int):
    """Find the strictly-gain-positive split with maximal information gain.

    ``values`` is an (n, d) float64 array, ``labels`` a uint8 array of 0/1.
    Candidate thresholds are midpoints between consecutive distinct sorted
    values of each feature; candidates leaving a child smaller than
    ``min_leaf`` are skipped. Ties break to the lowest feature index, then the
    lowest threshold (the scan order makes that automatic with a strict
    comparison). Returns ``(feature, threshold, gain)`` with feature -1 when
    no usable split exists.
    """
    n, d = values.shape
    total1 = 0
    for i in range(n):
        if labels[i]:
            total1 += 1
    total0 = n - total1
    parent = _entropy(total0, total1)

    best_feature = -1
    best_threshold = 0.0
    best_gain = 0.0
    for j in range(d):
        order = np.argsort(values[:, j], kind="stable")
        left0 = 0
        left1 = 0
        for pos in range(n - 1):
            i = order[pos]
            if labels[i]:
                left1 += 1
            else:
                left0 += 1
            value = values[i, j]
            nxt = values[order[pos + 1], j]
            if nxt == value:
                continue
            n_left = pos + 1
            n_right = n - n_left
            if n_left < min_leaf or n_right < min_leaf:
                continue
            child = (
                n_left * _entropy(left0, left1)
                + n_right * _entropy(total0 - left0, total1 - left1)
            ) / n
            gain = parent - child
            if gain > best_gain:
                best_gain = gain
                best_feature = j
                best_threshold = (value + nxt) / 2.0
    return best_feature, float(best_threshold), float(best_gain)


def _grow(values, labels, depth: int, max_depth: int, min_leaf: int):
    n = labels.shape[0]
    count1 = int(labels.sum())
    count0 = n - count1
    if count0 == 0 or count1 == 0 or depth >= max_depth or n < 2 * min_leaf:
        return _leaf(count0, count1)
    feature, threshold, _gain = best_split(values, labels, min_leaf)
    if feature < 0:
        return _leaf(count0, count1)
    mask = values[:, feature] <= threshold
    left = _grow(np.ascontiguousarray(values[mask]), labels[mask], depth + 1, max_depth, min_leaf)
    right = _grow(np.ascontiguousarray(values[~mask]), labels[~mask], depth + 1, max_depth, min_leaf)
    return Split(int(feature), float(threshold), left, right)


def fit(values, labels, max_depth: int = 8, min_leaf: int = 2) -> DecisionTree:
    """The tree grown node by node on ``best_split``."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    root = _grow(values, labels, 0, max_depth, min_leaf)
    return DecisionTree(root, int(values.shape[1]))
