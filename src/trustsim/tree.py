"""Axis-aligned binary decision trees grown by information gain.

Induction is deliberately plain: greedy top-down splitting on Shannon entropy,
midpoint thresholds between consecutive distinct feature values, and fully
deterministic tie-breaking (lowest feature index, then lowest threshold).

One numpy grower builds every tree. ``fit_many`` grows several trees over row
subsets of one feature matrix (an advisor's cross-validation folds) level by
level: at each depth it searches every open node of every tree at once, per
feature, by sorting the nodes' rows on (node, value), counting labels
cumulatively along the sort and taking each node's first maximal gain. ``fit``
is the one-tree case.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2
from typing import Sequence

import numpy as np

from .core import Verdict

#: Name of the split search every fit runs on.
SPLIT_BACKEND = "numpy"


class EmptyDataset(ValueError):
    """Training was requested on zero records."""


@dataclass(frozen=True)
class Leaf:
    """Terminal node: the majority verdict of its training subset.

    ``counts`` is (untrustworthy, trustworthy) training examples that reached
    the leaf; exact ties resolve to untrustworthy.
    """

    verdict: Verdict
    counts: tuple[int, int]


@dataclass(frozen=True)
class Split:
    feature: int
    threshold: float
    left: "Leaf | Split"
    right: "Leaf | Split"


@dataclass(frozen=True)
class DecisionTree:
    root: Leaf | Split
    n_features: int


def _leaf(count0: int, count1: int) -> Leaf:
    verdict = Verdict.TRUSTWORTHY if count1 > count0 else Verdict.UNTRUSTWORTHY
    return Leaf(verdict, (count0, count1))


def _log2(p: np.ndarray) -> np.ndarray:
    """``math.log2`` of each element. numpy's own log2 differs from it in the
    last bit for some arguments, and a last-bit difference in an entropy can
    break a gain tie the other way."""
    return np.fromiter(map(log2, memoryview(p)), dtype=np.float64, count=p.shape[0])


def _first_slot(total):
    """Memo slot of the count pair (0, ``total``). The pairs of one total take
    consecutive slots by their smaller count; the entropy is symmetric in the
    two counts (float addition commutes), so a pair and its mirror share one."""
    return (total + 1) * (total + 1) >> 2


#: Entropies computed so far, by slot, 0.0 where not yet computed (a pair
#: with both counts positive has positive entropy). It grows to the largest
#: slot asked for, up to ``_MEMO_SLOTS`` (2 MB: every pair of at most 1,022
#: rows); its last slot stays 0.0, and larger pairs, which look that up, are
#: computed every time. Every value in it is exact, so what it holds changes
#: how often log2 runs, never a result.
_MEMO_SLOTS = 1 << 18
_memo = np.zeros(1)


def _entropies(c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    """Shannon entropy (bits) of each count pair of two equal-length int64
    arrays, as ``-(p0 * log2(p0) + p1 * log2(p1))`` with ``p = c / (c0 + c1)``,
    and 0.0 when a count is zero. Each distinct pair takes log2 once."""
    global _memo
    smaller = np.minimum(c0, c1)
    slot = _first_slot(c0 + c1)
    slot += smaller
    kept = min(int(slot.max(initial=0)) + 1, _MEMO_SLOTS)  # slots this call may store
    if kept >= _memo.shape[0]:
        _memo = np.concatenate((_memo, np.zeros(kept + 1 - _memo.shape[0])))
    out = _memo.take(slot, mode="clip")
    missing = np.flatnonzero((out == 0.0) & (smaller > 0))
    if missing.shape[0]:
        missing = missing[np.argsort(slot[missing], kind="stable")]
        ordered = slot[missing]
        first = np.empty(ordered.shape[0], dtype=bool)
        first[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        pick = missing[first]
        total = c0[pick] + c1[pick]
        p0, p1 = c0[pick] / total, c1[pick] / total
        fresh = -(p0 * _log2(p0) + p1 * _log2(p1))
        out[missing] = fresh[np.cumsum(first) - 1]
        stored = slot[pick] < _memo.shape[0] - 1
        _memo[slot[pick][stored]] = fresh[stored]
    return out


def _dense_ranks(values: np.ndarray) -> np.ndarray:
    """(d, n) rank of each value within its feature; equal values share a rank."""
    n, d = values.shape
    order = np.argsort(values, axis=0, kind="stable")
    ordered = np.take_along_axis(values, order, axis=0)
    steps = np.zeros((n, d), dtype=np.int64)
    np.not_equal(ordered[1:], ordered[:-1], out=steps[1:])
    np.cumsum(steps, axis=0, out=steps)
    ranks = np.empty((d, n), dtype=np.int64)
    ranks[np.arange(d)[:, None], order.T] = steps.T
    return ranks


#: Most (feature, row) cells one pass of the split search sorts at once. A
#: level with more rows is searched a block of features at a time, which
#: keeps its temporaries to a few hundred kilobytes and changes no result.
_CELLS_PER_PASS = 1 << 12


def _search(values, labels, ranks, rows, node, size, zeros, ones, min_leaf: int):
    """Best split of every open node of a level.

    ``rows`` are the rows of the open nodes and ``node`` their node numbers
    (0 to S-1); ``size``, ``zeros`` and ``ones`` are the nodes' row and label
    counts. Returns, per node, the best gain (-inf without a candidate), its
    feature and its threshold. Ties go to the lowest feature, then the
    lowest threshold, as a scan in that order keeping the first maximum.
    """
    n_rows, n_features = values.shape
    n_open, m = size.shape[0], rows.shape[0]
    start = np.cumsum(size) - size
    segment = np.repeat(np.arange(n_open), size)
    n_left = np.arange(1, m + 1) - start[segment]
    n_right = size[segment] - n_left
    sizeable = (n_left >= min_leaf) & (n_right >= min_leaf)
    node_key = node * n_rows
    parent = _entropies(zeros, ones)
    best = np.full(n_open, -np.inf)
    best_feature = np.zeros(n_open, dtype=np.int64)
    best_threshold = np.zeros(n_open)
    step = max(1, _CELLS_PER_PASS // m)
    # Each pass drops its temporaries as soon as they are used: the passes
    # set the grower's peak memory.
    for first in range(0, n_features, step):
        # Sort each feature's rows on (node, value); node segments then sit
        # at the same offsets in every feature.
        key = node_key + ranks[first:first + step, rows]
        perm = np.argsort(key, axis=1, kind="stable")
        key = np.take_along_axis(key, perm, axis=1)
        sorted_rows = rows[perm]
        # A candidate cuts one node between two distinct values and leaves
        # at least min_leaf rows on either side.
        candidate = np.zeros(key.shape, dtype=bool)
        np.not_equal(key[:, 1:], key[:, :-1], out=candidate[:, :-1])
        candidate &= sizeable
        del key, perm
        cum1 = np.zeros((sorted_rows.shape[0], m + 1), dtype=np.int64)
        np.cumsum(labels[sorted_rows], axis=1, out=cum1[:, 1:])
        f_idx, p_idx = np.nonzero(candidate)
        del candidate
        seg = segment[p_idx]
        left1 = cum1[f_idx, p_idx + 1] - cum1[f_idx, start[seg]]
        del cum1
        n_l = n_left[p_idx]
        left0 = n_l - left1
        v = left0.shape[0]
        entropy = _entropies(np.concatenate((left0, zeros[seg] - left0)),
                             np.concatenate((left1, ones[seg] - left1)))
        del left0, left1
        child = n_l * entropy[:v]
        child += n_right[p_idx] * entropy[v:]
        child /= size[seg]
        gain = np.full(sorted_rows.shape, -np.inf)
        gain[f_idx, p_idx] = parent[seg] - child
        del f_idx, p_idx, seg, n_l, entropy, child

        # First maximum per node: lowest feature of the block, then lowest
        # position; an earlier block keeps a tie.
        block_best = np.maximum.reduceat(gain, start, axis=1)
        feature = block_best.argmax(axis=0)
        block_best = block_best[feature, np.arange(n_open)]
        better = block_best > best
        if not better.any():
            continue
        hit = gain[feature[segment], np.arange(m)] == block_best[segment]
        hit &= better[segment]
        hits = np.flatnonzero(hit)
        at = hits[np.searchsorted(segment[hits], np.flatnonzero(better))]
        chosen = feature[better]
        column = first + chosen
        best[better] = block_best[better]
        best_feature[better] = column
        best_threshold[better] = (values[sorted_rows[chosen, at], column]
                                  + values[sorted_rows[chosen, at + 1], column]) / 2.0
    return best, best_feature, best_threshold


def _grow(values, labels, row_sets, max_depth: int, min_leaf: int) -> list:
    """Roots of the trees grown on each row set, level by level.

    Every level holds its nodes in order: the trees in turn, and within a
    tree the children of the previous level's splits, left before right. A
    level records, per node, its label counts and whether it split; a split's
    children are nodes ``2q`` and ``2q + 1`` of the next level, ``q`` being
    its position among the level's splits.
    """
    ranks = _dense_ranks(values)
    rows = np.concatenate(row_sets)
    node = np.repeat(np.arange(len(row_sets)), [len(r) for r in row_sets])
    n_nodes = len(row_sets)
    levels = []
    for depth in range(max_depth + 1):
        total = np.bincount(node, minlength=n_nodes)
        ones = np.bincount(node, weights=labels[rows], minlength=n_nodes).astype(np.int64)
        zeros = total - ones
        open_ = (zeros > 0) & (ones > 0) & (total >= 2 * min_leaf)
        splitting = np.zeros(n_nodes, dtype=bool)
        feature = threshold = np.empty(0)
        if depth < max_depth and open_.any():
            # Rows of open nodes, with the open nodes numbered 0 to S-1.
            keep = open_[node]
            rows = rows[keep]
            node = (np.cumsum(open_) - 1)[node[keep]]
            gain, feature, threshold = _search(
                values, labels, ranks, rows, node,
                total[open_], zeros[open_], ones[open_], min_leaf,
            )
            splits = gain > 0.0
            splitting[np.flatnonzero(open_)[splits]] = True
            feature, threshold = feature[splits], threshold[splits]
        levels.append((zeros.tolist(), ones.tolist(), splitting.tolist(),
                       feature.tolist(), threshold.tolist()))
        if feature.shape[0] == 0:
            break
        # Route the rows of splitting nodes to their children.
        keep = splits[node]
        rows = rows[keep]
        q = (np.cumsum(splits) - 1)[node[keep]]
        node = 2 * q + (values[rows, feature[q]] > threshold[q])
        n_nodes = 2 * feature.shape[0]

    below: list = []
    for zeros, ones, splitting, feature, threshold in reversed(levels):
        built = []
        q = 0
        for c0, c1, is_split in zip(zeros, ones, splitting):
            if is_split:
                built.append(Split(feature[q], threshold[q], below[2 * q], below[2 * q + 1]))
                q += 1
            else:
                built.append(_leaf(c0, c1))
        below = built
    return below


def fit_many(values, labels, row_sets, max_depth: int = 8, min_leaf: int = 2) -> list[DecisionTree]:
    """Grow one tree per row set over an (n, d) feature matrix and 0/1 labels.

    Each row set is a sequence of row indices (repeats allowed; sets may
    share rows). Tree ``i`` is the tree ``fit`` grows on
    ``values[row_sets[i]], labels[row_sets[i]]``, node for node. An empty row
    set raises ``EmptyDataset``, an index outside the matrix ``ValueError``,
    and so does a NaN or infinite feature value: the grower and
    :func:`predict` would route it to opposite sides of a split.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be positive")
    if min_leaf < 1:
        raise ValueError("min_leaf must be positive")
    values = np.ascontiguousarray(values, dtype=np.float64)
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    if values.ndim != 2:
        raise ValueError("feature matrix must be two-dimensional")
    if not np.isfinite(values).all():
        raise ValueError("feature values must be finite")
    if labels.ndim != 1 or labels.shape[0] != values.shape[0]:
        raise ValueError("labels must align with feature rows")
    sets = []
    for row_set in row_sets:
        rows = np.asarray(row_set)
        if rows.size == 0:
            raise EmptyDataset("cannot train on an empty dataset")
        if rows.ndim != 1 or rows.dtype.kind not in "iu":
            raise ValueError("a row set must be a flat sequence of integer row indices")
        if rows.min() < 0 or rows.max() >= values.shape[0]:
            raise ValueError("row index out of range")
        sets.append(rows.astype(np.int64, copy=False))
    if not sets:
        return []
    roots = _grow(values, labels, sets, max_depth, min_leaf)
    return [DecisionTree(root, int(values.shape[1])) for root in roots]


def fit(values, labels, max_depth: int = 8, min_leaf: int = 2) -> DecisionTree:
    """Grow a tree on an (n, d) feature matrix and 0/1 labels (1 = trustworthy).

    Splits need strictly positive information gain and children of at least
    ``min_leaf`` records; otherwise the node becomes a leaf.
    """
    values = np.asarray(values)
    rows = np.arange(values.shape[0] if values.ndim else 0)
    return fit_many(values, labels, [rows], max_depth, min_leaf)[0]


def predict(tree: DecisionTree, features: Sequence[float]) -> Verdict:
    """Route a feature vector to a leaf; go left when value <= threshold."""
    if len(features) != tree.n_features:
        raise ValueError(
            f"expected {tree.n_features} features, got {len(features)}"
        )
    node = tree.root
    while isinstance(node, Split):
        node = node.left if features[node.feature] <= node.threshold else node.right
    return node.verdict


def depth(tree: DecisionTree) -> int:
    def walk(node) -> int:
        if isinstance(node, Leaf):
            return 0
        return 1 + max(walk(node.left), walk(node.right))

    return walk(tree.root)


def leaves(tree: DecisionTree) -> list[Leaf]:
    out: list[Leaf] = []

    def walk(node) -> None:
        if isinstance(node, Leaf):
            out.append(node)
        else:
            walk(node.left)
            walk(node.right)

    walk(tree.root)
    return out


def accuracy(tree: DecisionTree, values, labels) -> float:
    """Fraction of rows whose predicted verdict matches the 0/1 label."""
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.uint8)
    if labels.shape[0] == 0:
        raise EmptyDataset("cannot score an empty dataset")
    hits = 0
    for row, lab in zip(values, labels):
        wants = Verdict.TRUSTWORTHY if lab else Verdict.UNTRUSTWORTHY
        if predict(tree, row) is wants:
            hits += 1
    return hits / labels.shape[0]
