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
from .tree import DecisionTree, EmptyDataset, fit, fit_many, predict, recalled


@dataclass(frozen=True)
class InteractionRecord:
    """One labelled past interaction: a feature vector and its outcome."""

    features: tuple[float, ...]
    label: Verdict


@dataclass
class AdvisorDataset:
    """A named feature schema plus the records that conform to it."""

    schema: tuple[str, ...]
    records: list[InteractionRecord]

    def __post_init__(self) -> None:
        width = len(self.schema)
        for record in self.records:
            if len(record.features) != width:
                raise ValueError(
                    f"record has {len(record.features)} features, schema has {width}"
                )

    def __len__(self) -> int:
        return len(self.records)

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        values = np.array([r.features for r in self.records], dtype=np.float64)
        values = values.reshape(len(self.records), len(self.schema))
        labels = np.array(
            [1 if r.label is Verdict.TRUSTWORTHY else 0 for r in self.records],
            dtype=np.uint8,
        )
        return values, labels


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


def train_tree(dataset: AdvisorDataset, max_depth: int = 8, min_leaf: int = 2) -> DecisionTree:
    """Train the advisor's classifier on its full dataset."""
    if len(dataset) == 0:
        raise EmptyDataset("advisor has no interaction records")
    values, labels = dataset.to_arrays()
    return fit(values, labels, max_depth=max_depth, min_leaf=min_leaf)


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
    max_depth: int, min_leaf: int, with_full_tree: bool,
) -> tuple[list[DecisionTree], SelfAssessment]:
    """:func:`self_assess`, and with ``with_full_tree`` also a list holding the tree
    on every record; that tree and the fold trees grow in one ``fit_many`` call."""
    n = len(dataset)
    if n == 0:
        raise EmptyDataset("advisor has no interaction records")
    if n < 2:
        raise ValueError("cross-validation needs at least two records")
    if k < 2:
        raise ValueError("cross-validation needs at least two folds")
    effective_k = min(k, n)
    values, labels = dataset.to_arrays()
    folds = cv_folds(n, effective_k, seed)
    lead = int(with_full_tree)
    row_sets = [np.arange(n)] * lead
    for fold in folds:
        held = np.zeros(n, dtype=bool)
        held[fold] = True
        row_sets.append(np.flatnonzero(~held))
    models = fit_many(values, labels, row_sets, max_depth=max_depth, min_leaf=min_leaf)
    fold_accuracies: list[float] = []
    for fold, model in zip(folds, models[lead:]):
        hits = 0
        for index in fold:
            wanted = Verdict.TRUSTWORTHY if labels[index] else Verdict.UNTRUSTWORTHY
            if predict(model, values[index]) is wanted:
                hits += 1
        fold_accuracies.append(hits / len(fold))
    accuracy = Probability(sum(fold_accuracies) / effective_k)
    participate = bool(resource_flag and accuracy >= threshold)
    return models[:lead], SelfAssessment(accuracy, effective_k, participate)


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
    return _cross_validate(
        dataset, k, threshold, resource_flag, seed, max_depth, min_leaf, with_full_tree=False
    )[1]


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
    """Train, self-assess, and bundle the result into an advisor state: the
    ``train_tree`` tree and the ``self_assess`` result, from one ``fit_many`` call."""
    (model,), assessment = _cross_validate(
        dataset, k, threshold, resource_flag, seed, max_depth, min_leaf, with_full_tree=True
    )
    return AdvisorState(identity, model, assessment)


def advisor_verdict(advisor: AdvisorState, subject_features: Sequence[float]) -> Verdict | None:
    """Honest answer to a request: None when the advisor self-withdrew,
    otherwise the tree's prediction for the subject (walked once per distinct
    feature tuple, :func:`~trustsim.tree.recalled`)."""
    if not advisor.assessment.participate:
        return None
    return recalled(advisor.tree, subject_features, predict)


def honest_responder(advisor: AdvisorState):
    """Responder callable for the round engine: honest, participation-aware."""

    def respond(subject: AgentId, subject_features: Sequence[float]) -> Verdict | None:
        return advisor_verdict(advisor, subject_features)

    return respond


def save_dataset(dataset: AdvisorDataset, path: str | Path) -> None:
    """Write the CSV dataset format: header of feature names plus ``label``,
    one record per line, labels ``T``/``N``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(dataset.schema) + ["label"])
        for record in dataset.records:
            writer.writerow([repr(v) for v in record.features] + [record.label.value])


def load_dataset(path: str | Path) -> AdvisorDataset:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty dataset file") from None
        if not header or header[-1] != "label":
            raise ValueError(f"{path}: header must end with a 'label' column")
        schema = tuple(header[:-1])
        records = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: row width {len(row)} != header width")
            raw_label = row[-1].strip()
            try:
                label = Verdict(raw_label)
            except ValueError:
                raise ValueError(f"{path}: unknown label {raw_label!r}") from None
            features = tuple(float(v) for v in row[:-1])
            records.append(InteractionRecord(features, label))
    return AdvisorDataset(schema, records)
