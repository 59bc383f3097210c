import inspect
import random

import pytest

from trustsim import adversary, credibility, dst, engine, incentives
from trustsim.adversary import (
    camouflage_responder,
    camouflage_verdict,
    dishonest_verdict,
    inverting_responder,
    mark_attackers,
    sybil_expand,
    whitewash_maybe_reset,
)
from trustsim.advisor import advisor_verdict, build_advisor
from trustsim.core import IdentityIssuer, Verdict
from trustsim.credibility import CredibilityLedger
from trustsim.tree import predict

from test_advisor import separable_dataset, xor_dataset

T, N = Verdict.TRUSTWORTHY, Verdict.UNTRUSTWORTHY


@pytest.fixture
def issuer():
    return IdentityIssuer()


@pytest.fixture
def honest_advisor(issuer):
    return build_advisor(issuer.fresh(), separable_dataset(30), seed=3)


def test_sybil_expand_creates_lineage_marked_newcomers(issuer, honest_advisor):
    ledger = CredibilityLedger()
    fakes = sybil_expand(honest_advisor, 5, issuer)
    assert len(fakes) == 5
    assert len({fake.identity for fake in fakes}) == 5
    for fake in fakes:
        assert fake.tree is honest_advisor.tree
        assert fake.assessment is honest_advisor.assessment
        assert ledger.get(fake.identity) == 0.5


def test_sybil_identities_invert_the_honest_prediction(issuer, honest_advisor):
    features = (0.9, 0.45)
    honest = predict(honest_advisor.tree, features)
    for fake in sybil_expand(honest_advisor, 3, issuer):
        assert inverting_responder(fake)(None, features) is honest.inverted()


def test_camouflage_verdict_switches_at_the_configured_iteration():
    assert camouflage_verdict(T, 3, 5) is T
    assert camouflage_verdict(T, 5, 5) is N
    assert camouflage_verdict(N, 9, 5) is T
    assert camouflage_verdict(N, 4, 5) is N
    with pytest.raises(ValueError):
        camouflage_verdict(T, 0, 5)


def test_camouflage_responder_tracks_iteration(honest_advisor):
    features = (0.9, 0.45)
    honest = predict(honest_advisor.tree, features)
    before = camouflage_responder(honest_advisor, 5, 4)(None, features)
    after = camouflage_responder(honest_advisor, 5, 5)(None, features)
    assert before is honest
    assert after is honest.inverted()


def test_whitewash_resets_only_on_period(issuer, honest_advisor):
    same = whitewash_maybe_reset(honest_advisor, 4, 3, issuer)
    assert same.identity == honest_advisor.identity
    fresh = whitewash_maybe_reset(honest_advisor, 3, 3, issuer)
    assert fresh.identity != honest_advisor.identity
    assert fresh.tree is honest_advisor.tree
    assert fresh.assessment is honest_advisor.assessment


def test_inversion_is_exact_negation_of_honest_pipeline(issuer):
    advisor = build_advisor(issuer.fresh(), separable_dataset(30), seed=1)
    for features in [(0.9, 0.45), (0.2, 0.1), (0.55, 0.2)]:
        honest = predict(advisor.tree, features)
        assert dishonest_verdict(advisor, features) is honest.inverted()


def test_attackers_answer_even_when_self_assessment_says_abstain(issuer):
    withdrawn = build_advisor(issuer.fresh(), xor_dataset(10), seed=0, max_depth=1)
    assert withdrawn.assessment.participate is False
    assert advisor_verdict(withdrawn, (0.0, 1.0)) is None
    assert inverting_responder(withdrawn)(None, (0.0, 1.0)) is not None


def test_mark_attackers_hits_exact_fraction():
    rng = random.Random(0)
    assert len(mark_attackers(20, 0.3, rng)) == 6
    assert len(mark_attackers(10, 0.25, rng)) == 2
    assert mark_attackers(10, 0.0, rng) == set()
    assert len(mark_attackers(10, 1.0, rng)) == 10
    with pytest.raises(ValueError):
        mark_attackers(10, 1.2, rng)


def test_defender_modules_never_mention_attacker_machinery():
    # the engine-side modules must be unable to key anything off attacker
    # metadata: no references to lineage or behavior profiles in their source
    for module in (engine, dst, credibility, incentives):
        source = inspect.getsource(module)
        assert "lineage" not in source
        assert "BehaviorProfile" not in source
        assert "profile" not in source
        assert "adversary" not in source
