import copy
import pickle

import pytest

from trustsim.core import (
    AgentId,
    IdentityIssuer,
    Probability,
    Verdict,
)


def test_fresh_ids_are_distinct():
    issuer = IdentityIssuer()
    a = issuer.fresh()
    b = issuer.fresh()
    assert a != b
    assert a.value != b.value


def test_identical_runs_issue_identical_sequences():
    def run(issuer):
        return [issuer.fresh() for _ in range(5)]

    left = run(IdentityIssuer())
    right = run(IdentityIssuer())
    assert [a.value for a in left] == [a.value for a in right]


def test_no_id_reissued_over_many_draws():
    issuer = IdentityIssuer()
    values = [issuer.fresh().value for _ in range(1000)]
    assert len(set(values)) == 1000


def test_id_hashes_like_the_tuple_of_its_value():
    # the iteration order of sets of ids (and so of some outputs) rests on it
    for value in (0, 1, 5, 219, 2**40):
        assert hash(AgentId(value)) == hash((value,))
    assert repr(AgentId(5)) == "AgentId(value=5)"


def test_ids_from_two_issuers_compare_equal():
    left, right = IdentityIssuer(), IdentityIssuer()
    pairs = [(left.fresh(), right.fresh()) for _ in range(3)]
    for a, b in pairs:
        assert a == b
        assert hash(a) == hash(b)
    assert {a for a, _ in pairs} == {b for _, b in pairs}


@pytest.mark.parametrize("bad", [-0.1, 1.0000001, float("nan"), 2.0])
def test_probability_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        Probability(bad)


def test_probability_accepts_bounds():
    assert Probability(0.0) == 0.0
    assert Probability(1.0) == 1.0
    assert isinstance(Probability(0.5) * 2, float)


def test_verdict_has_two_inhabitants():
    assert {v for v in Verdict} == {Verdict.TRUSTWORTHY, Verdict.UNTRUSTWORTHY}


def test_verdict_inversion_is_involutive():
    for verdict in Verdict:
        assert verdict.inverted() is not verdict
        assert verdict.inverted().inverted() is verdict


@pytest.mark.parametrize("verdict", list(Verdict), ids=lambda verdict: verdict.name)
def test_verdict_hashes_by_identity_and_survives_copies(verdict):
    # a round's answers tuple is a dict key, so each member hashes in C, by identity
    assert hash(verdict) == object.__hash__(verdict)
    table = {verdict: "found", (verdict, verdict): "pair"}
    for again in (copy.deepcopy(verdict), pickle.loads(pickle.dumps(verdict))):
        assert again is verdict
        assert hash(again) == hash(verdict)
        assert table[again] == "found"
        assert table[(again, again)] == "pair"
    assert table.get(verdict.inverted()) is None
