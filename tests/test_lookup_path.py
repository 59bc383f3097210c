"""The round path does its work once: a scenario asks each identity about each
item once per population, and the fold makes no function call per step. These
tests pin both, and that an answer is computed from the features asked about,
never from who the subject is.
"""

import sys
from collections import Counter

import pytest

from trustsim import simulate
from trustsim.adversary import (
    camouflage_responder,
    inverting_responder,
    whitewash_maybe_reset,
)
from trustsim.advisor import build_advisor, honest_responder
from trustsim.core import AgentId, IdentityIssuer, Verdict
from trustsim.dst import combine_all, mass_from_recommendation
from trustsim.simulate import ScenarioConfig, run_scenario
from trustsim.tree import predict

from test_advisor import separable_dataset

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


def features_for(state, verdict):
    """A feature tuple the state's tree answers ``verdict`` for."""
    for features in map(tuple, DATASET.values.tolist()):
        if predict(state.tree, features) is verdict:
            return features
    raise AssertionError(f"the tree never answers {verdict}")


def responders(state):
    """An honest, an inverting and a not yet switched camouflage responder,
    with what each answers for a subject the tree calls trustworthy."""
    return [
        (honest_responder(state), T),
        (inverting_responder(state), N),
        (camouflage_responder(state, 3, 1), T),
    ]


# ---------------------------------------------------------------------------
# answers: from the features asked about
# ---------------------------------------------------------------------------


def test_changed_features_are_walked_again(state):
    yes, no = features_for(state, T), features_for(state, N)
    for respond, answer in responders(state):
        features = list(yes)
        assert respond(SUBJECT, features) is answer
        # the same subject with other features: an answer is about what is
        # asked, not about who it is about
        features[:] = no
        assert respond(SUBJECT, features) is answer.inverted()
        assert respond(SUBJECT, tuple(no)) is answer.inverted()
        assert respond(AgentId(1000), yes) is answer


def test_wrong_width_is_rejected_and_not_remembered(state):
    yes = features_for(state, T)
    for respond, answer in responders(state):
        with pytest.raises(ValueError):
            respond(SUBJECT, (0.5,))
        assert respond(SUBJECT, yes) is answer


def test_whitewash_successor_answers_like_a_fresh_tree(state, issuer):
    successor = whitewash_maybe_reset(state, 3, 3, issuer)
    fresh = build_advisor(issuer.fresh(), DATASET, seed=3)
    assert fresh.tree == state.tree
    assert hash(fresh.tree) == hash(state.tree)
    for features in map(tuple, DATASET.values.tolist()):
        assert inverting_responder(successor)(SUBJECT, features) is inverting_responder(fresh)(
            SUBJECT, features
        )


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
