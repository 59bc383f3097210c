import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _populationpy
from trustsim.advisor import self_assess
from trustsim.core import AgentId
from trustsim.simulate import (
    ConfigError,
    ScenarioConfig,
    ground_truth_trust,
    mae,
    run_scenario,
    synthesize_population,
)

SMALL = dict(n_advisors=8, n_items=4, n_iterations=4, records_per_advisor=30)


def small_config(**overrides):
    merged = {"seed": 7, **SMALL, **overrides}
    return ScenarioConfig(**merged)


# ---------------------------------------------------------------------------
# metric primitives
# ---------------------------------------------------------------------------


def test_ground_truth_trust_examples():
    assert ground_truth_trust([5, 5, 4, 1]) == 0.75
    assert ground_truth_trust([1, 1]) == 0.0
    assert ground_truth_trust([4]) == 1.0


def test_ground_truth_trust_rejects_empty():
    with pytest.raises(ValueError):
        ground_truth_trust([])


def test_mae_examples():
    assert mae(0.9, 0.7, 5) == pytest.approx(0.04, abs=1e-12)
    assert mae(0.42, 0.42, 9) == 0.0
    assert mae(1.0, 0.0, 1) == 1.0


def test_mae_rejects_zero_consulted():
    with pytest.raises(ValueError):
        mae(0.5, 0.5, 0)


# ---------------------------------------------------------------------------
# synthetic population
# ---------------------------------------------------------------------------


def plain(population):
    """A population with each dataset as its schema, values and labels in lists,
    so two populations compare by exact equality."""
    datasets, items = population
    return [(d.schema, d.values.tolist(), d.labels.tolist()) for d in datasets], items


def test_synthesize_is_deterministic():
    a = plain(synthesize_population(3, 5, 4, 0.2))
    b = plain(synthesize_population(3, 5, 4, 0.2))
    assert a == b
    c = plain(synthesize_population(4, 5, 4, 0.2))
    assert a != c


def test_noiseless_population_is_perfectly_learnable():
    datasets, _ = synthesize_population(1, 6, 4, 0.0)
    for dataset in datasets:
        result = self_assess(dataset, k=10, threshold=0.7, seed=0)
        assert result.accuracy == 1.0


def test_heavy_noise_causes_mass_abstention():
    datasets, _ = synthesize_population(1, 12, 4, 0.4)
    participating = sum(
        self_assess(d, k=10, threshold=0.7, seed=0).participate for d in datasets
    )
    assert participating <= len(datasets) // 2


def test_item_ground_truth_tracks_noise():
    _, items = synthesize_population(5, 2, 40, 0.1)
    for item in items:
        assert item.ground_truth >= 0.5 or item.ground_truth <= 0.5  # in [0, 1]
        assert min(item.ground_truth, 1.0 - item.ground_truth) <= 0.35


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_advisors=st.integers(1, 4),
    n_items=st.integers(1, 4),
    n_features=st.integers(1, 6),
    records_per_advisor=st.integers(2, 80),
    noise=st.sampled_from([0.0, 0.1, 0.49]),
)
def test_synthesize_matches_per_record_oracle(
    seed, n_advisors, n_items, n_features, records_per_advisor, noise
):
    args = (seed, n_advisors, n_items, noise, n_features, records_per_advisor)
    population = synthesize_population(*args)
    want = _populationpy.synthesize_population(*args)
    assert plain(population) == plain(want)
    for got, expected in zip(population[0], want[0]):
        assert np.array_equal(got.values.view(np.uint64), expected.values.view(np.uint64))


@pytest.mark.parametrize(
    "name, value",
    [
        ("n_advisors", 0),
        ("n_advisors", -2),
        ("n_items", 0),
        ("n_features", 0),
        ("n_features", -1),
        ("records_per_advisor", 1),
        ("records_per_advisor", 0),
    ],
)
def test_synthesize_rejects_unusable_sizes(name, value):
    sizes = {"n_advisors": 3, "n_items": 2, "n_features": 4, "records_per_advisor": 10}
    with pytest.raises(ValueError, match=f"^{name} must be at least"):
        synthesize_population(1, noise=0.1, **{**sizes, name: value})


# ---------------------------------------------------------------------------
# scenario runs
# ---------------------------------------------------------------------------


def test_config_validation_names_the_offending_key():
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(seed=1, attack_kind="ddos").validate()
    assert err.value.key == "attack"
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(seed=1, attacker_fraction=1.5).validate()
    assert err.value.key == "attacker_fraction"
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(seed=1, noise=0.7).validate()
    assert err.value.key == "noise"
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(seed="abc").validate()
    assert err.value.key == "seed"


def test_run_scenario_is_deterministic():
    first = run_scenario(small_config())
    second = run_scenario(small_config())
    assert first.per_iteration_mae == second.per_iteration_mae
    assert np.array_equal(first.per_item_mae, second.per_item_mae, equal_nan=True)
    assert first.summary == second.summary
    assert first.attacker_credibility == second.attacker_credibility
    assert [a.value for a in first.final_identities] == [
        a.value for a in second.final_identities
    ]


def test_mae_cells_are_bounded():
    result = run_scenario(small_config(attack_kind="sybil", sybil_count=2))
    cells = result.per_item_mae[~np.isnan(result.per_item_mae)]
    assert (cells >= 0).all()
    assert (cells <= 1).all()
    assert result.summary[0] >= min(cells)
    assert result.summary[0] <= max(cells)


def test_no_attack_is_the_mae_floor_against_sybil():
    base = run_scenario(ScenarioConfig(seed=42, attack_kind="none"))
    sybil = run_scenario(ScenarioConfig(seed=42, attack_kind="sybil"))
    assert base.summary[0] <= sybil.summary[0]
    assert base.summary_plain[0] <= sybil.summary_plain[0]


def test_sybil_identity_majority_captures_the_aggregate():
    # 6 attackers x 5 identities outvote 14 honest advisors from round one;
    # agreeing with the decided direction pins a score straight to 1.0, so
    # the coalition keeps its grip for the rest of the run
    result = run_scenario(ScenarioConfig(seed=42, attack_kind="sybil"))
    assert result.attacker_credibility[-1] > 0.9
    assert result.summary_plain[0] > 0.5


def test_sybil_identity_minority_still_poisons_some_items():
    # with sybil_count 1 the coalition is 12 identities against 14 honest;
    # decisions flip only on items where a couple of honest trees also err,
    # so the damage is partial rather than total
    minority = run_scenario(ScenarioConfig(seed=42, attack_kind="sybil", sybil_count=1))
    majority = run_scenario(ScenarioConfig(seed=42, attack_kind="sybil", sybil_count=4))
    base = run_scenario(ScenarioConfig(seed=42, attack_kind="none"))
    assert base.summary_plain[0] < minority.summary_plain[0] < majority.summary_plain[0]
    # the convergence reward never lets a coalition's credibility sink: one
    # agreement (an attacker tree erring, hence voting with the majority)
    # jumps the score to 1.0 and dissent under saturated beliefs is free
    assert minority.attacker_credibility[-1] > 0.9


def test_camouflage_switch_is_visible_when_attackers_can_flip_decisions():
    # at 60% attackers the post-switch coalition outweighs the honest rump:
    # the error series steps up exactly at the switch iteration and stays up
    # (dissenters lose nothing once beliefs saturate, so there is no recovery)
    result = run_scenario(
        ScenarioConfig(
            seed=42, attack_kind="camouflage", attacker_fraction=0.6, switch_iteration=5
        )
    )
    series = dict(result.per_iteration_mae)
    pre = max(series[t] for t in range(1, 5))
    post = min(series[t] for t in range(5, 11))
    assert post > 2 * pre


def test_sybil_expansion_grows_population():
    result = run_scenario(small_config(attack_kind="sybil", sybil_count=3))
    attackers = round(0.3 * SMALL["n_advisors"])
    expected = SMALL["n_advisors"] + attackers * 3
    assert len(result.final_identities) == expected


def test_attacker_credibility_non_increasing_after_camouflage_switch():
    config = ScenarioConfig(seed=42, attack_kind="camouflage", switch_iteration=5)
    result = run_scenario(config)
    series = result.attacker_credibility
    for left, right in zip(series[4:7], series[5:8]):
        assert right <= left + 1e-12


def test_whitewash_resets_reenter_at_initial_credibility():
    records = []
    config = small_config(
        attack_kind="whitewashing", reset_period=2, n_iterations=6, seed=42
    )
    result = run_scenario(config, trace=lambda line: records.append(json.loads(line)))
    assert result.retired_identities
    retired_values = {agent.value for agent in result.retired_identities}
    # retired ids never show up again after their retirement iteration
    reborn = [
        agent.value for agent in result.final_identities
    ]
    assert retired_values.isdisjoint(reborn)
    # each successor identity's first recommendation carries the newcomer score
    first_seen = {}
    for record in records:
        for responder in record["responders"]:
            first_seen.setdefault(responder["advisor"], responder["credibility"])
    successor_values = {
        agent.value for agent in result.final_identities
    } - {agent.value for agent in result.retired_identities}
    newcomer_scores = [
        first_seen[value]
        for value in successor_values
        if value in first_seen and value not in retired_values
    ]
    assert newcomer_scores
    for value in result.retired_identities:
        assert value.value not in successor_values


def test_retired_ids_never_polled_after_reset():
    records = []
    config = small_config(
        attack_kind="whitewashing", reset_period=2, n_iterations=6, seed=1
    )
    result = run_scenario(config, trace=lambda line: records.append(json.loads(line)))
    last_seen = {}
    for record in records:
        participants = (
            [r["advisor"] for r in record["responders"]]
            + record["abstainers"]
            + record["not_polled"]
        )
        for value in participants:
            last_seen[value] = record["iteration"]
    for retired in result.retired_identities:
        # a retired id's final appearance precedes the reset that removed it
        assert last_seen[retired.value] < config.n_iterations


def test_trace_carries_iteration_and_item():
    records = []
    run_scenario(small_config(), trace=lambda line: records.append(json.loads(line)))
    assert len(records) == SMALL["n_items"] * SMALL["n_iterations"]
    assert {record["iteration"] for record in records} == {1, 2, 3, 4}
    assert {record["item"] for record in records} == {0, 1, 2, 3}


def test_starved_budget_skips_cells():
    # an explicit one-inquiry budget can only cover the first item
    config = small_config(initial_budget=1, seed=3)
    result = run_scenario(config)
    assert result.skipped_cells > 0
    assert result.skipped_cells == np.isnan(result.per_item_mae).sum()


def test_budgets_follow_the_per_period_drip():
    # The system polls each advisor once per item while its budget lasts and
    # never answers, so each period pays it only the drip of one. Each
    # advisor's budget toward the system exists from its first answer on and
    # grows by its pay; no scenario has an advisor ask the system anything.
    budget, n_items, n_iterations = 5, 3, 4
    config = ScenarioConfig(
        seed=3, n_advisors=6, n_items=n_items, n_iterations=n_iterations,
        initial_budget=budget, period_length=1,
    )
    records = []
    result = run_scenario(config, trace=lambda line: records.append(json.loads(line)))
    (system,) = {AgentId(record["requester"]) for record in records}
    inquiries = result.inquiry_ledger
    assert result.final_identities
    for advisor in result.final_identities:
        asked, paid, answering = budget, budget, False
        for iteration in range(1, n_iterations + 1):
            rounds = [r for r in records if r["iteration"] == iteration]
            served = sum(
                advisor.value in [rec["advisor"] for rec in r["responders"]] for r in rounds
            )
            polled = served + sum(advisor.value in r["abstainers"] for r in rounds)
            assert polled == min(asked, n_items)
            asked = asked - polled + 1
            answering = answering or served > 0
            if answering:
                score = result.credibility_trajectories[advisor][iteration - 1]
                paid += served + math.ceil(served * score) + 1
        assert inquiries.budget(system, advisor) == asked == 1
        assert inquiries.budget(advisor, system) == paid
        if answering:
            assert paid > budget


def test_trajectories_are_aligned_with_iterations():
    result = run_scenario(small_config())
    for series in result.credibility_trajectories.values():
        assert len(series) == SMALL["n_iterations"]


@pytest.mark.parametrize("attack", ["none", "sybil", "whitewashing"])
def test_trajectory_keys_come_in_issuance_order(attack):
    # new identities (sybil fakes, whitewash successors) join in the order
    # they were issued
    config = ScenarioConfig(
        seed=3, attack_kind=attack, n_advisors=10, n_items=3, n_iterations=4, reset_period=2
    )
    result = run_scenario(config)
    keys = [agent.value for agent in result.credibility_trajectories]
    assert keys == sorted(keys)
    everyone = {agent.value for agent in result.final_identities + result.retired_identities}
    assert set(keys) == everyone


def write_ratings(path, users=12, items=10, seed=5):
    import random

    rng = random.Random(seed)
    lines = []
    for u in range(users):
        for i in range(items):
            good = i < items // 2
            satisfied = good if rng.random() > 0.15 else not good
            rating = rng.choice([4, 5]) if satisfied else rng.choice([1, 2, 3])
            lines.append(f"u{u},i{i},{rating}")
    path.write_text("\n".join(lines) + "\n")


def test_scenario_from_ratings_file(tmp_path):
    ratings = tmp_path / "ratings.txt"
    write_ratings(ratings)
    config = ScenarioConfig(
        seed=3,
        n_advisors=8,
        n_items=5,
        n_iterations=3,
        attack_kind="sybil",
        sybil_count=2,
        k_folds=5,
        ratings_path=str(ratings),
    )
    result = run_scenario(config)
    assert len(result.per_iteration_mae) == 3
    assert result.skipped_cells == 0
    assert len(result.final_identities) == 8 + round(0.3 * 8) * 2


def test_scenario_from_ratings_rejects_thin_files(tmp_path):
    ratings = tmp_path / "ratings.txt"
    write_ratings(ratings, users=3, items=2)
    config = ScenarioConfig(seed=1, n_advisors=10, n_items=2, ratings_path=str(ratings))
    with pytest.raises(ConfigError) as err:
        run_scenario(config)
    assert err.value.key == "advisors"
