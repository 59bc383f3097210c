"""Per-record oracle for ``trustsim.simulate.synthesize_population``.

The loop the simulator ran before it drew each advisor's records in one
``rng.random`` call: three RNG calls per record (class test, label-noise
test, ``rng.uniform`` for the features). The tests check that the one-draw
version makes the same datasets and items, bit for bit.
"""

from __future__ import annotations

import numpy as np

from trustsim.advisor import AdvisorDataset
from trustsim.simulate import RATERS_PER_ITEM, ItemSpec, ground_truth_trust


def synthesize_population(
    seed: int,
    n_advisors: int,
    n_items: int,
    noise: float,
    n_features: int = 4,
    records_per_advisor: int = 60,
) -> tuple[list[AdvisorDataset], list[ItemSpec]]:
    rng = np.random.default_rng(seed)
    schema = tuple(f"f{i}" for i in range(n_features))

    def feature_vector(good: bool) -> tuple[float, ...]:
        low = 0.55 if good else 0.05
        return tuple(float(v) for v in rng.uniform(low, low + 0.4, n_features))

    datasets = []
    for _ in range(n_advisors):
        rows, labels = [], []
        for _ in range(records_per_advisor):
            good = bool(rng.random() < 0.5)
            observed = good if rng.random() >= noise else not good
            rows.append(feature_vector(good))
            labels.append(observed)
        datasets.append(AdvisorDataset(schema, rows, labels))

    items = []
    for _ in range(n_items):
        good = bool(rng.random() < 0.5)
        ratings = []
        for _ in range(RATERS_PER_ITEM):
            satisfied = good if rng.random() >= noise else not good
            ratings.append(int(rng.integers(4, 6)) if satisfied else int(rng.integers(1, 4)))
        items.append(ItemSpec(feature_vector(good), float(ground_truth_trust(ratings))))
    return datasets, items
