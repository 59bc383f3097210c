"""Advisor-side recommendation pipeline.

Each advisor owns a labelled dataset of past interactions, trains a decision
tree on it, estimates its own accuracy by k-fold cross-validation, and only
participates in recommendation rounds when that self-assessment clears the
participation threshold (and resources permit). Honest advisors then answer
requests with the tree's prediction for the subject's feature vector.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import AgentId, Probability, Verdict
# ``fit`` has no caller here; the benchmark harness wraps ``advisor.fit`` by name.
from .tree import DecisionTree, EmptyDataset, fit, fit_many, predict  # noqa: F401

#: A dataset label's letter in the CSV format, indexed by the label.
_LABEL_LETTERS = (Verdict.UNTRUSTWORTHY.value, Verdict.TRUSTWORTHY.value)


@dataclass(eq=False)
class AdvisorDataset:
    """A named feature schema and the labelled past interactions that conform to
    it, held as the arrays the tree grower reads: row ``i`` of ``values``
    (float64, one column per schema name) is an interaction's feature vector
    and ``labels[i]`` (uint8) its outcome, 1 for trustworthy and 0 for
    untrustworthy. Both are read-only copies, checked once here; a NaN or
    infinite feature value is rejected."""

    schema: tuple[str, ...]
    values: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        width = len(self.schema)
        values = np.array(self.values, dtype=np.float64)
        labels = np.asarray(self.labels)
        if values.ndim != 2 or values.shape[1] != width:
            raise ValueError(f"values have shape {values.shape}, schema has {width} features")
        if not np.isfinite(values).all():
            raise ValueError("feature values must be finite")
        if labels.shape != (len(values),):
            raise ValueError(f"labels have shape {labels.shape}, values have {len(values)} rows")
        if ((labels != 0) & (labels != 1)).any():
            raise ValueError("labels must be 0 (untrustworthy) or 1 (trustworthy)")
        labels = labels.astype(np.uint8)
        values.flags.writeable = labels.flags.writeable = False
        self.values, self.labels = values, labels

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class SelfAssessment:
    """Cross-validated accuracy and the participation decision built on it.

    ``folds`` is the fold count actually used; it is smaller than requested
    when the dataset could not support that many folds.
    """

    accuracy: Probability
    folds: int
    participate: bool


@dataclass
class AdvisorState:
    """Everything an advisor needs to answer requests."""

    identity: AgentId
    tree: DecisionTree
    assessment: SelfAssessment


def cv_folds(n_records: int, k: int, seed: int | None = None) -> list[list[int]]:
    """Deterministic fold assignment: a seeded shuffle of the record indices,
    then position-mod-k bucketing. The folds partition the dataset exactly."""
    if k < 1:
        raise ValueError("fold count must be positive")
    indices = list(range(n_records))
    if seed is not None:
        random.Random(seed).shuffle(indices)
    folds: list[list[int]] = [[] for _ in range(k)]
    for position, index in enumerate(indices):
        folds[position % k].append(index)
    return folds


def _cross_validate(
    dataset: AdvisorDataset, k: int, threshold: float, resource_flag: bool, seed: int | None,
    max_depth: int, min_leaf: int,
) -> tuple[DecisionTree, SelfAssessment]:
    """The tree on every record and the :func:`self_assess` result. That tree and
    the k fold trees grow in one ``fit_many`` call."""
    n = len(dataset)
    if n == 0:
        raise EmptyDataset("advisor has no interaction records")
    if n < 2:
        raise ValueError("cross-validation needs at least two records")
    if k < 2:
        raise ValueError("cross-validation needs at least two folds")
    effective_k = min(k, n)
    values, labels = dataset.values, dataset.labels
    folds = cv_folds(n, effective_k, seed)
    row_sets = [np.arange(n)]
    for fold in folds:
        held = np.zeros(n, dtype=bool)
        held[fold] = True
        row_sets.append(np.flatnonzero(~held))
    full, *fold_models = fit_many(
        values, labels, row_sets, max_depth=max_depth, min_leaf=min_leaf
    )
    fold_accuracies: list[float] = []
    for fold, model in zip(folds, fold_models):
        hits = 0
        for index in fold:
            wanted = Verdict.TRUSTWORTHY if labels[index] else Verdict.UNTRUSTWORTHY
            if predict(model, values[index]) is wanted:
                hits += 1
        fold_accuracies.append(hits / len(fold))
    accuracy = Probability(sum(fold_accuracies) / effective_k)
    participate = bool(resource_flag and accuracy >= threshold)
    return full, SelfAssessment(accuracy, effective_k, participate)


def self_assess(
    dataset: AdvisorDataset,
    k: int = 10,
    threshold: float = 0.7,
    resource_flag: bool = True,
    *,
    seed: int | None = None,
    max_depth: int = 8,
    min_leaf: int = 2,
) -> SelfAssessment:
    """Estimate accuracy by k-fold cross-validation and decide participation.

    Accuracy is the mean over folds of the held-out hit rate. When the dataset
    has fewer records than folds, k drops to the record count (leave-one-out)
    and the returned ``folds`` reflects that. Participation requires both the
    accuracy threshold and ``resource_flag``; an advisor that cannot spare the
    resources withdraws regardless of how good its data is.
    """
    return _cross_validate(dataset, k, threshold, resource_flag, seed, max_depth, min_leaf)[1]


def build_advisor(
    identity: AgentId,
    dataset: AdvisorDataset,
    *,
    k: int = 10,
    threshold: float = 0.7,
    resource_flag: bool = True,
    seed: int | None = None,
    max_depth: int = 8,
    min_leaf: int = 2,
) -> AdvisorState:
    """Train, self-assess, and bundle the result into an advisor state: the tree
    on every record and the ``self_assess`` result, from one ``fit_many`` call."""
    model, assessment = _cross_validate(
        dataset, k, threshold, resource_flag, seed, max_depth, min_leaf
    )
    return AdvisorState(identity, model, assessment)


def advisor_verdict(advisor: AdvisorState, subject_features: Sequence[float]) -> Verdict | None:
    """Honest answer to a request: None when the advisor self-withdrew,
    otherwise the tree's prediction for the subject's features."""
    if not advisor.assessment.participate:
        return None
    return predict(advisor.tree, subject_features)


def honest_responder(advisor: AdvisorState):
    """Responder callable for the round engine: honest, participation-aware."""

    def respond(subject: AgentId, subject_features: Sequence[float]) -> Verdict | None:
        return advisor_verdict(advisor, subject_features)

    return respond


def save_dataset(dataset: AdvisorDataset, path: str | Path) -> None:
    """Write the CSV dataset format: header of feature names plus ``label``,
    one record per line, labels ``T``/``N``."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(dataset.schema) + ["label"])
        for row, label in zip(dataset.values.tolist(), dataset.labels.tolist()):
            writer.writerow([repr(v) for v in row] + [_LABEL_LETTERS[label]])


def load_dataset(path: str | Path) -> AdvisorDataset:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty dataset file") from None
        if not header or header[-1] != "label":
            raise ValueError(f"{path}: header must end with a 'label' column")
        schema = tuple(header[:-1])
        rows, labels = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: row width {len(row)} != header width")
            raw_label = row[-1].strip()
            try:
                labels.append(Verdict(raw_label) is Verdict.TRUSTWORTHY)
            except ValueError:
                raise ValueError(f"{path}: unknown label {raw_label!r}") from None
            rows.append([float(v) for v in row[:-1]])
    values = np.array(rows, dtype=np.float64).reshape(len(rows), len(schema))
    return AdvisorDataset(schema, values, labels)
