"""The batched grower against the node-by-node oracle in ``_splitpy``.

``fit_many`` grows every tree of a call level by level; each tree must equal,
node for node, the tree the oracle grows on that tree's rows alone. Ties are
the hard part: rounded feature values put many candidates at equal gain, and
only the same float operations in the same order break them the same way.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _splitpy
from trustsim import tree
from trustsim.advisor import AdvisorDataset, cv_folds, self_assess
from trustsim.core import Verdict
from trustsim.tree import EmptyDataset, fit, fit_many

ROOT = Path(__file__).resolve().parent.parent


def random_problem(rng):
    n = int(rng.integers(1, 90))
    d = int(rng.integers(1, 5))
    values = np.round(rng.random((n, d)), int(rng.integers(0, 3)))
    if rng.random() < 0.5:
        labels = values[:, 0] + 0.3 * rng.standard_normal(n) > 0.5
    else:
        labels = rng.random(n) < rng.random()
    return values, labels.astype(np.uint8)


def random_row_sets(rng, n):
    sets = []
    for _ in range(int(rng.integers(1, 6))):
        size = int(rng.integers(1, n + 1))
        sets.append(np.sort(rng.choice(n, size=size, replace=bool(rng.integers(0, 2)))))
    return sets


def test_split_backend_reports_numpy():
    assert tree.SPLIT_BACKEND == "numpy"


def test_trees_match_oracle_on_random_problems():
    rng = np.random.default_rng(2024)
    grown = 0
    for _ in range(320):
        values, labels = random_problem(rng)
        max_depth = int(rng.integers(1, 10))
        min_leaf = int(rng.integers(1, 5))
        row_sets = random_row_sets(rng, values.shape[0])
        trees = fit_many(values, labels, row_sets, max_depth, min_leaf)
        assert len(trees) == len(row_sets)
        for rows, got in zip(row_sets, trees):
            assert got == _splitpy.fit(values[rows], labels[rows], max_depth, min_leaf)
            grown += 1
    assert grown >= 900


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    d=st.integers(1, 3),
    decimals=st.integers(0, 2),
    max_depth=st.integers(1, 9),
    min_leaf=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_trees_match_oracle_with_shared_rows(n, d, decimals, max_depth, min_leaf, seed):
    rng = np.random.default_rng(seed)
    values = np.round(rng.random((n, d)), decimals)
    labels = (rng.random(n) < 0.5).astype(np.uint8)
    everything = np.arange(n)
    row_sets = [everything, everything[: max(1, n // 2)], everything[n // 3 :], everything]
    trees = fit_many(values, labels, row_sets, max_depth, min_leaf)
    for rows, got in zip(row_sets, trees):
        assert got == _splitpy.fit(values[rows], labels[rows], max_depth, min_leaf)


def test_fit_is_the_one_tree_case():
    rng = np.random.default_rng(8)
    values, labels = rng.random((70, 3)), (rng.random(70) < 0.4).astype(np.uint8)
    assert fit(values, labels) == fit_many(values, labels, [np.arange(70)])[0]
    assert fit(values, labels) == _splitpy.fit(values, labels)


def test_cv_fold_trees_match_oracle_on_large_advisors():
    # several hundred rows per tree: the level search runs a block of
    # features at a time
    rng = np.random.default_rng(400)
    values = np.round(rng.random((400, 4)), 2)
    labels = (values[:, 1] + 0.2 * rng.standard_normal(400) > 0.5).astype(np.uint8)
    row_sets = [np.setdiff1d(np.arange(400), fold) for fold in cv_folds(400, 10, seed=3)]
    for rows, got in zip(row_sets, fit_many(values, labels, row_sets)):
        assert got == _splitpy.fit(values[rows], labels[rows])


def test_self_assess_matches_oracle_fold_trees():
    rng = np.random.default_rng(17)
    values = np.round(rng.random((45, 3)), 1)
    labels = (rng.random(45) < 0.6).astype(np.uint8)
    verdicts = (Verdict.UNTRUSTWORTHY, Verdict.TRUSTWORTHY)
    dataset = AdvisorDataset(("a", "b", "c"), values, labels)
    folds = cv_folds(45, 10, seed=5)
    accuracies = []
    for fold in folds:
        rows = np.setdiff1d(np.arange(45), fold)
        model = _splitpy.fit(values[rows], labels[rows])
        hits = sum(tree.predict(model, values[i]) is verdicts[labels[i]] for i in fold)
        accuracies.append(hits / len(fold))
    assert self_assess(dataset, k=10, seed=5).accuracy == sum(accuracies) / 10


def test_entropies_equal_oracle_bit_for_bit():
    totals = np.arange(2001)
    c0 = np.concatenate([np.arange(t + 1) for t in totals])
    c1 = np.repeat(totals, totals + 1) - c0
    got = tree._entropies(c0, c1)
    want = np.array([_splitpy._entropy(a, b) for a, b in zip(c0.tolist(), c1.tolist())])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_entropies_past_the_memo_equal_oracle():
    rng = np.random.default_rng(1)
    c0 = rng.integers(0, 5000, 3000)
    c1 = rng.integers(0, 5000, 3000)
    got = tree._entropies(c0, c1)
    want = np.array([_splitpy._entropy(a, b) for a, b in zip(c0.tolist(), c1.tolist())])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_empty_row_set_rejected():
    values, labels = np.eye(3), np.array([0, 1, 0], dtype=np.uint8)
    with pytest.raises(EmptyDataset):
        fit_many(values, labels, [np.arange(3), []])


@pytest.mark.parametrize("bad", [[0, 3], [-1, 1]])
def test_out_of_range_row_index_rejected(bad):
    values, labels = np.eye(3), np.array([0, 1, 0], dtype=np.uint8)
    with pytest.raises(ValueError, match="out of range"):
        fit_many(values, labels, [bad])


def test_toy_scenario_leaves_numpy_ma_unimported():
    # numpy.ma costs about 2 MB of resident memory; nothing on the scenario
    # path needs it (plain np.unique would pull it in)
    script = (
        "import sys\n"
        "from trustsim.simulate import ScenarioConfig, run_scenario\n"
        "run_scenario(ScenarioConfig(seed=3, attack_kind='sybil', n_advisors=8, n_items=3,"
        " n_iterations=2, records_per_advisor=30))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"
