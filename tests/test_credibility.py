import json
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trustsim.core import AgentId, Verdict
from trustsim import simulate
from trustsim.credibility import CredibilityLedger, _settled_score
from trustsim.dst import MassFunction
from trustsim.simulate import ScenarioConfig, run_scenario


def triple(t, n):
    return MassFunction(t, n, 1.0 - t - n)


def oracle_update(score, said_trust, trust, distrust):
    """Direct, separate evaluation of the convergence update rule."""
    bigger, smaller = max(trust, distrust), min(trust, distrust)
    if (said_trust and trust > distrust) or (not said_trust and distrust > trust):
        return min(1.0, score + bigger)
    if (said_trust and trust < distrust) or (not said_trust and distrust < trust):
        return abs(score - smaller)
    return score


def test_agreeing_advisor_capped_at_one():
    ledger = CredibilityLedger()
    got = ledger.update(AgentId(1), Verdict.TRUSTWORTHY, triple(0.7, 0.2))
    assert got == 1.0


def test_dissenting_advisor_loses_minority_belief():
    ledger = CredibilityLedger()
    ledger.set(AgentId(1), 0.9)
    got = ledger.update(AgentId(1), Verdict.UNTRUSTWORTHY, triple(0.6, 0.3))
    assert got == pytest.approx(0.6, abs=1e-12)


def test_exact_tie_changes_nothing():
    ledger = CredibilityLedger()
    ledger.set(AgentId(1), 0.4)
    for verdict in Verdict:
        got = ledger.update(AgentId(1), verdict, triple(0.3, 0.3))
        assert got == 0.4


def test_low_score_can_rise_under_dissent():
    # the divergence branch takes an absolute value, so when the losing
    # belief exceeds twice the current score the "penalty" raises it
    ledger = CredibilityLedger()
    ledger.set(AgentId(1), 0.05)
    got = ledger.update(AgentId(1), Verdict.UNTRUSTWORTHY, triple(0.6, 0.3))
    assert got == pytest.approx(0.25, abs=1e-12)


def test_dissent_decreases_score_in_normal_range():
    rng = random.Random(5)
    for _ in range(2000):
        distrust_belief = rng.random() * 0.5
        trust_belief = distrust_belief + rng.random() * (1.0 - 2 * distrust_belief)
        if trust_belief <= distrust_belief or trust_belief + distrust_belief > 1.0:
            continue
        score = rng.random()
        if not 0.0 < distrust_belief < 2 * score:
            continue
        ledger = CredibilityLedger()
        ledger.set(AgentId(1), score)
        got = ledger.update(AgentId(1), Verdict.UNTRUSTWORTHY, triple(trust_belief, distrust_belief))
        assert got < score


def test_unknown_advisor_reads_initial_without_mutation():
    ledger = CredibilityLedger(initial_score=0.5)
    assert ledger.get(AgentId(42)) == 0.5
    assert AgentId(42) not in ledger
    assert len(ledger) == 0


@settings(max_examples=500)
@given(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.booleans(),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_update_stays_in_range_and_matches_oracle(score, said_trust, t, frac):
    trust = t
    distrust = (1.0 - t) * frac
    ledger = CredibilityLedger()
    agent = AgentId(1)
    ledger.set(agent, score)
    verdict = Verdict.TRUSTWORTHY if said_trust else Verdict.UNTRUSTWORTHY
    got = ledger.update(agent, verdict, triple(trust, distrust))
    assert 0.0 <= got <= 1.0
    assert got == pytest.approx(oracle_update(score, said_trust, trust, distrust), abs=1e-12)


T, N = Verdict.TRUSTWORTHY, Verdict.UNTRUSTWORTHY


def test_batch_update_round_example():
    beliefs = triple(0.7752808988764045, 0.15730337078651688)
    ledger = CredibilityLedger()
    ledger.set(AgentId(1), 0.8)
    ledger.set(AgentId(2), 0.6)
    ledger.set(AgentId(3), 0.7)
    ledger.batch_update([AgentId(1), AgentId(2), AgentId(3)], [T, T, N], beliefs)
    assert ledger.get(AgentId(1)) == 1.0
    assert ledger.get(AgentId(2)) == 1.0
    assert ledger.get(AgentId(3)) == pytest.approx(0.5426966292, abs=1e-9)


def test_batch_update_empty_is_noop():
    ledger = CredibilityLedger()
    ledger.set(AgentId(1), 0.3)
    ledger.batch_update([], [], triple(0.6, 0.2))
    assert ledger.get(AgentId(1)) == 0.3


@pytest.mark.parametrize(
    "beliefs", [triple(0.5, 0.5), triple(0.6, 0.2)], ids=["exact-tie", "decided"]
)
@pytest.mark.parametrize(
    "advisors, verdicts",
    [([AgentId(1), AgentId(2)], [T]), ([AgentId(1)], [T, N])],
    ids=["fewer-verdicts", "fewer-advisors"],
)
def test_batch_update_rejects_unequal_lengths_before_any_write(beliefs, advisors, verdicts):
    ledger = CredibilityLedger()
    ledger.set(AgentId(1), 0.3)
    with pytest.raises(ValueError, match="advisors but"):
        ledger.batch_update(advisors, verdicts, beliefs)
    assert ledger.as_map() == {AgentId(1): 0.3}


def test_abstainers_bit_identical_after_batch():
    ledger = CredibilityLedger()
    ledger.set(AgentId(7), 0.123456789)
    before = float(ledger.get(AgentId(7)))
    ledger.batch_update([AgentId(1)], [T], triple(0.9, 0.05))
    assert float(ledger.get(AgentId(7))) == before


# ---------------------------------------------------------------------------
# the settle memo of batch_update (against a sequential oracle:
# tests/test_round_path.py)
# ---------------------------------------------------------------------------


def test_settle_shares_one_result_between_equal_scores():
    ledger = CredibilityLedger()
    ledger.set(AgentId(1), -0.0)
    ledger.set(AgentId(2), 0.0)
    ledger.batch_update([AgentId(1), AgentId(2)], [N, N], triple(0.75, 0.25))
    assert ledger.get(AgentId(1)).hex() == ledger.get(AgentId(2)).hex() == (0.25).hex()


def test_snapshot_round_trip(tmp_path):
    ledger = CredibilityLedger()
    ledger.set(AgentId(3), 0.25)
    ledger.set(AgentId(1), 1.0)
    path = tmp_path / "credibility.tsv"
    ledger.save(path)
    loaded = CredibilityLedger.load(path)
    assert loaded.get(AgentId(3)) == 0.25
    assert loaded.get(AgentId(1)) == 1.0
    assert loaded.get(AgentId(999)) == 0.5


def test_drop_forgets_agent():
    ledger = CredibilityLedger()
    ledger.set(AgentId(3), 0.9)
    ledger.drop(AgentId(3))
    assert ledger.get(AgentId(3)) == ledger.initial_score


def test_entries_are_found_by_an_equal_fresh_id():
    ledger = CredibilityLedger()
    stored = AgentId(12)
    ledger.set(stored, 0.75)
    fresh = AgentId(int("12"))
    assert fresh is not stored
    assert fresh in ledger
    assert ledger.get(fresh) == 0.75
    ledger.batch_update([fresh], [T], triple(0.9, 0.05))
    assert len(ledger) == 1
    assert ledger.get(stored) == 1.0
    ledger.drop(AgentId(12))
    assert stored not in ledger


def test_snapshot_lists_ids_in_numeric_order(tmp_path):
    ledger = CredibilityLedger()
    for value in (100, 2, 10):
        ledger.set(AgentId(value), 0.5)
    path = tmp_path / "credibility.tsv"
    ledger.save(path)
    rows = path.read_text().splitlines()[1:]
    assert [row.split("\t")[0] for row in rows] == ["2", "10", "100"]


def test_as_map_is_a_copy():
    ledger = CredibilityLedger()
    ledger.set(AgentId(1), 0.25)
    scores = ledger.as_map()
    scores[AgentId(1)] = 1.0
    scores[AgentId(2)] = 0.0
    assert ledger.as_map() == {AgentId(1): 0.25}
    assert AgentId(2) not in ledger


# ---------------------------------------------------------------------------
# lock-in: once a score reaches 1.0, dissent in a confident round cannot move it
# (the cause of the c06 and c07 acceptance failures, README "Tests")
# ---------------------------------------------------------------------------

#: The largest losing belief that 1.0 absorbs: 1 - 2**-54 lies halfway between
#: 1 - 2**-53 and 1.0 and rounds to even, which is 1.0.
ABSORBED = 2.0**-54


@settings(max_examples=300, deadline=None)
@given(low=st.floats(0.0, ABSORBED), high=st.floats(0.0, 1.0), trust_wins=st.booleans())
def test_dissent_from_full_credibility_is_absorbed(low, high, trust_wins):
    assume(high > low)
    trust, distrust = (high, low) if trust_wins else (low, high)
    assert _settled_score(1.0, not trust_wins, trust, distrust) == 1.0


def test_absorption_ends_just_above_two_to_the_minus_54():
    assert _settled_score(1.0, False, 0.9, ABSORBED) == 1.0
    assert _settled_score(1.0, True, ABSORBED, 0.9) == 1.0
    above = math.nextafter(ABSORBED, 1.0)
    assert _settled_score(1.0, False, 0.9, above) == 1.0 - 2.0**-53
    assert _settled_score(1.0, True, above, 0.9) == 1.0 - 2.0**-53
    # a losing belief of 1e-16 is already above the bound
    assert _settled_score(1.0, False, 0.9, 1e-16) == 0.9999999999999999


@settings(max_examples=300, deadline=None)
@given(trust=st.floats(0.0, 1.0), distrust=st.floats(0.0, 1.0))
def test_agreement_from_full_credibility_stays_at_one(trust, distrust):
    assume(trust != distrust)
    assert _settled_score(1.0, trust > distrust, trust, distrust) == 1.0


@pytest.mark.parametrize("seed", [0, 1])
def test_a_dissenting_sybil_minority_keeps_full_credibility(monkeypatch, seed):
    # desk scale with one attacking principal and one fake: 2 of 21 identities
    attackers = set()
    expand = simulate.sybil_expand

    def recorded(state, count, issuer):
        fakes = expand(state, count, issuer)
        attackers.update(a.identity.value for a in (state, *fakes))
        return fakes

    monkeypatch.setattr(simulate, "sybil_expand", recorded)
    rounds = []
    config = ScenarioConfig(
        seed=seed, n_advisors=20, n_items=10, n_iterations=10, attack_kind="sybil",
        attacker_fraction=0.05, sybil_count=1,
    )
    result = run_scenario(config, trace=lambda line: rounds.append(json.loads(line)))
    assert len(attackers) == 2
    for attacker in attackers:
        answers = [
            (r, a) for r in rounds for a in r["responders"] if a["advisor"] == attacker
        ]
        dissents = [(r, a) for r, a in answers if a["verdict"] != r["verdict"]]
        assert len(dissents) > len(answers) / 2  # 70-80 % at seeds 0 and 1
        # every dissent from 1.0 leaves the score at 1.0: the losing belief is
        # at most ABSORBED in each of those rounds (all but the first dissent)
        locked = [(r, a) for r, a in dissents if a["credibility"] == 1.0]
        assert len(locked) > len(dissents) / 2
        for r, a in locked:
            assert min(r["beliefs"]["trust"], r["beliefs"]["distrust"]) <= ABSORBED
            assert r["credibility_after"][str(attacker)] == 1.0
    assert result.attacker_credibility[-1] >= 0.99


# ---------------------------------------------------------------------------
# the slot-vector settle against the scalar rule, one advisor at a time
# ---------------------------------------------------------------------------

#: Scores where the vector rule could part from the scalar one: both zeros,
#: the cap, 1.0, and the smallest normal and subnormal steps.
EDGE_SCORES = [-0.0, 0.0, 1.0, 2.0**-54, 5e-324, 0.5, 1.0 - 1e-6]
edge_or_free = st.one_of(
    st.sampled_from(EDGE_SCORES), st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
)


@st.composite
def settle_beliefs(draw):
    """Beliefs free, saturated (the losing side at most 2**-54) or tied."""
    kind = draw(st.sampled_from(["free", "saturated", "tie"]))
    if kind == "tie":
        side = draw(st.sampled_from([0.0, 2.0**-54, 0.25, 0.5]))
        return triple(side, side)
    big = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    if kind == "saturated":
        small = draw(st.sampled_from([0.0, 5e-324, 2.0**-60, 2.0**-54]))
        big = max(big, 0.5)
    else:
        small = (1.0 - big) * draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    if small > 1.0 - big:
        small = 0.0
    trust, distrust = (big, small) if draw(st.booleans()) else (small, big)
    return MassFunction(trust, distrust, max(0.0, 1.0 - trust - distrust))


@settings(max_examples=400, deadline=None)
@given(
    stored=st.dictionaries(st.integers(0, 11), edge_or_free, max_size=12),
    listed=st.lists(st.tuples(st.integers(0, 15), st.booleans()), max_size=40),
    newcomers=st.lists(st.integers(16, 19), max_size=4),
    beliefs=settle_beliefs(),
    initial=st.sampled_from(EDGE_SCORES),
)
def test_vector_settle_equals_the_scalar_rule_in_turn(stored, listed, newcomers, beliefs, initial):
    """Settling a slot list (repeats included) in one ``batch_update`` call
    gives every score the bits the scalar rule gives applied in list order;
    exactly the listed advisors are written, and advisors only resolved to
    slots stay unwritten newcomers."""
    ledger = CredibilityLedger(initial)
    oracle = {}
    for value, score in stored.items():
        ledger.set(AgentId(value), score)
        oracle[AgentId(value)] = score
    ledger.slots([AgentId(value) for value in newcomers])
    advisors = [AgentId(value) for value, _ in listed]
    trusting = np.array([said for _, said in listed], dtype=bool)
    slots = ledger.slots(advisors)
    trust, distrust = float(beliefs.trust), float(beliefs.distrust)
    for advisor, said in zip(advisors, trusting.tolist()):
        oracle[advisor] = _settled_score(oracle.get(advisor, initial), said, trust, distrust)
    ledger.batch_update(slots, trusting, beliefs)
    got = {agent: score.hex() for agent, score in ledger.as_map().items()}
    assert got == {agent: float(score).hex() for agent, score in oracle.items()}
    for value in newcomers:
        if AgentId(value) not in oracle:
            assert AgentId(value) not in ledger
            assert ledger.get(AgentId(value)).hex() == float(initial).hex()
    assert len(ledger) == len(oracle)


def test_exact_tie_writes_newcomers_and_keeps_every_bit():
    ledger = CredibilityLedger(-0.0)
    ledger.set(AgentId(1), 0.0)
    ledger.set(AgentId(2), 5e-324)
    agents = [AgentId(1), AgentId(2), AgentId(3), AgentId(1)]
    ledger.batch_update(agents, [T, N, T, N], triple(2.0**-54, 2.0**-54))
    assert {agent: score.hex() for agent, score in ledger.as_map().items()} == {
        AgentId(1): (0.0).hex(),
        AgentId(2): (5e-324).hex(),
        AgentId(3): (-0.0).hex(),
    }
