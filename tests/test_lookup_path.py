"""The round path does its work by lookup: each tree is walked once per
distinct feature tuple, a scenario asks each identity about each item once per
population, the fold makes no function call per step, and the ledger settles
each distinct (score, verdict) pair once. These tests pin that the lookups are
taken and that they never hand back a stale answer.
"""

import dataclasses
import json
import sys
from collections import Counter

import pytest

from trustsim import adversary, advisor, simulate
from trustsim.adversary import (
    camouflage_responder,
    inverting_responder,
    sybil_expand,
    whitewash_maybe_reset,
)
from trustsim.advisor import build_advisor, honest_responder
from trustsim.core import AgentId, IdentityIssuer, Verdict
from trustsim.dst import combine_all, mass_from_recommendation
from trustsim.simulate import ScenarioConfig, run_scenario
from trustsim.tree import predict

from test_advisor import separable_dataset, xor_dataset

T, N = Verdict.TRUSTWORTHY, Verdict.UNTRUSTWORTHY

SUBJECT = AgentId(999)

#: The records ``state`` is trained on; an advisor keeps only its tree.
DATASET = separable_dataset(30)


@pytest.fixture
def issuer():
    return IdentityIssuer()


@pytest.fixture
def state(issuer):
    return build_advisor(issuer.fresh(), DATASET, seed=3)


@pytest.fixture
def walks(monkeypatch, state):
    """Every tree walk made through the advisor and adversary modules, by
    (tree, feature tuple), from after ``state`` was built. The trees are kept
    alive so their ids stay theirs."""
    counted = Counter()
    trees = []

    def counting(module):
        original = module.predict

        def predict(tree, features):
            trees.append(tree)
            counted[(id(tree), tuple(features))] += 1
            return original(tree, features)

        monkeypatch.setattr(module, "predict", predict)

    counting(advisor)
    counting(adversary)
    return counted


def features_for(state, verdict):
    """A feature tuple the state's tree answers ``verdict`` for."""
    for features in map(tuple, DATASET.values.tolist()):
        if predict(state.tree, features) is verdict:
            return features
    raise AssertionError(f"the tree never answers {verdict}")


# ---------------------------------------------------------------------------
# verdict memo
# ---------------------------------------------------------------------------


def test_sybil_scenario_walks_each_tree_once_per_item(walks):
    records = []
    config = ScenarioConfig(
        seed=3, n_advisors=10, n_items=5, n_iterations=4, attack_kind="sybil",
        sybil_count=3, records_per_advisor=30,
    )
    run_scenario(config, trace=lambda line: records.append(json.loads(line)))
    assert max(walks.values()) == 1
    # self-assessment walks fold trees on dataset rows; rounds walk the full
    # trees on item features, which are tuples
    round_walks = sum(1 for _, features in walks if all(type(v) is float for v in features))
    answers = sum(len(record["responders"]) for record in records)
    assert 0 < round_walks <= config.n_advisors * config.n_items
    assert answers >= 5 * round_walks


def test_fakes_and_successors_share_the_principal_memo(walks, state, issuer):
    features = features_for(state, T)
    assert inverting_responder(state)(SUBJECT, features) is N
    fakes = sybil_expand(state, 3, issuer)
    successor = whitewash_maybe_reset(state, 2, 2, issuer)
    assert successor.identity != state.identity
    for other in [*fakes, successor]:
        assert other.tree.verdicts is state.tree.verdicts
        assert inverting_responder(other)(SUBJECT, features) is N
    assert sum(walks.values()) == 1


def test_honest_and_attacking_answers_are_transforms_of_one_walk(walks, state):
    features = features_for(state, N)
    assert honest_responder(state)(SUBJECT, features) is N
    assert inverting_responder(state)(SUBJECT, features) is T
    assert camouflage_responder(state, 3, 1)(SUBJECT, features) is N
    assert sum(walks.values()) == 1
    assert state.tree.verdicts == {features: N}


def test_camouflage_switches_with_a_warm_memo(walks, state):
    features = features_for(state, T)
    answers = [
        camouflage_responder(state, 3, iteration)(SUBJECT, features) for iteration in range(1, 6)
    ]
    assert answers == [T, T, N, N, N]
    assert sum(walks.values()) == 1


def test_whitewash_successor_answers_like_a_fresh_tree(state, issuer):
    features = features_for(state, T)
    inverting_responder(state)(SUBJECT, features)
    successor = whitewash_maybe_reset(state, 3, 3, issuer)
    fresh = build_advisor(issuer.fresh(), DATASET, seed=3)
    assert fresh.tree == state.tree and fresh.tree.verdicts == {}
    assert inverting_responder(successor)(SUBJECT, features) is inverting_responder(fresh)(
        SUBJECT, features
    )


def test_changed_features_are_walked_again(walks, state):
    yes, no = features_for(state, T), features_for(state, N)
    respond = honest_responder(state)
    features = list(yes)
    assert respond(SUBJECT, features) is T
    # the same subject with other features: the memo is keyed by what is
    # asked, not by who it is about
    features[:] = no
    assert respond(SUBJECT, features) is N
    assert respond(SUBJECT, tuple(no)) is N
    assert respond(AgentId(1000), yes) is T
    assert sorted(walks.values()) == [1, 1]
    # a difference in any one feature is a different question
    respond(SUBJECT, (yes[0], yes[1] + 0.01))
    assert sorted(walks.values()) == [1, 1, 1]


def test_withdrawn_advisor_never_walks(walks, issuer):
    dataset = xor_dataset()
    withdrawn = build_advisor(issuer.fresh(), dataset, seed=1, max_depth=1)
    assert not withdrawn.assessment.participate
    walks.clear()
    features = tuple(dataset.values[0].tolist())
    assert honest_responder(withdrawn)(SUBJECT, features) is None
    assert walks == Counter()
    assert withdrawn.tree.verdicts == {}


def test_wrong_width_is_rejected_and_not_remembered(state):
    with pytest.raises(ValueError):
        honest_responder(state)(SUBJECT, (0.5,))
    assert state.tree.verdicts == {}


def test_memo_is_not_part_of_the_tree_value(state, issuer):
    twin = build_advisor(issuer.fresh(), DATASET, seed=3)
    honest_responder(state)(SUBJECT, features_for(state, T))
    assert state.tree.verdicts and not twin.tree.verdicts
    assert state.tree == twin.tree
    assert hash(state.tree) == hash(twin.tree)
    assert "verdicts" not in repr(state.tree)
    # a tree derived from another does not inherit its answers
    assert dataclasses.replace(state.tree, n_features=3).verdicts == {}


# ---------------------------------------------------------------------------
# polls: each identity asked once per item per population
# ---------------------------------------------------------------------------


@pytest.fixture
def responder_calls(monkeypatch):
    """Every call of a responder that ``run_scenario`` builds, by (identity,
    subject)."""
    counted = Counter()
    for name in ("honest_responder", "inverting_responder", "camouflage_responder"):

        def make(state, *args, factory=getattr(simulate, name)):
            respond = factory(state, *args)

            def counting(subject, features):
                counted[(state.identity, subject)] += 1
                return respond(subject, features)

            return counting

        monkeypatch.setattr(simulate, name, make)
    return counted


POLL_CONFIG = dict(
    seed=5, n_advisors=8, n_items=3, n_iterations=7, attacker_fraction=0.5,
    sybil_count=2, reset_period=3, switch_iteration=4, records_per_advisor=20, k_folds=3,
)


@pytest.mark.parametrize("kind", ["none", "sybil"])
def test_a_fixed_population_is_polled_once_per_identity_and_item(responder_calls, kind):
    config = ScenarioConfig(attack_kind=kind, **POLL_CONFIG)
    result = run_scenario(config)
    identities = len(result.final_identities)
    assert sum(responder_calls.values()) == identities * config.n_items
    assert set(responder_calls.values()) == {1}


def test_whitewash_polls_again_after_each_reset(responder_calls):
    config = ScenarioConfig(attack_kind="whitewashing", **POLL_CONFIG)
    result = run_scenario(config)
    # one population at iteration 1, and a new one at iterations 3 and 6
    populations = 3
    assert len(result.retired_identities) == 2 * 4
    assert sum(responder_calls.values()) == (
        populations * config.n_advisors * config.n_items
    )
    # an identity is asked once per item in each population it lives in
    assert max(responder_calls.values()) == populations
    for retired in result.retired_identities:
        assert {responder_calls[key] for key in responder_calls if key[0] == retired} == {1}


def test_camouflage_polls_every_iteration(responder_calls):
    config = ScenarioConfig(attack_kind="camouflage", **POLL_CONFIG)
    run_scenario(config)
    assert sum(responder_calls.values()) == (
        config.n_iterations * config.n_advisors * config.n_items
    )
    assert set(responder_calls.values()) == {config.n_iterations}


# ---------------------------------------------------------------------------
# fold: no Python call per step
# ---------------------------------------------------------------------------


def calls_from_fold(fn, *args):
    """Names of the Python functions that ``dst._fold`` calls while
    ``fn(*args)`` runs, with counts."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_back.f_code.co_name == "_fold":
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("credibility", [0.5, 0.9, 1.0])
def test_fold_calls_nothing_per_step_but_the_rescale_of_a_drift(credibility):
    yes, no = mass_from_recommendation(T, credibility), mass_from_recommendation(N, credibility)
    masses = [yes, no] * 150
    calls = calls_from_fold(combine_all, masses)
    # a step whose result does not sum to exactly 1 is rescaled by a call;
    # every other step runs inline
    assert set(calls) <= {"_rescaled"}
    assert calls["_rescaled"] < len(masses) - 1
