import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustsim.core import AgentId
from trustsim.incentives import MAX_BUDGET, BudgetExhausted, InquiryLedger

X, S = AgentId(1), AgentId(2)


def test_consume_decrements():
    ledger = InquiryLedger(initial_budget=10)
    assert ledger.consume(X, S) == 9


def test_consume_at_zero_raises():
    ledger = InquiryLedger(initial_budget=0)
    with pytest.raises(BudgetExhausted):
        ledger.consume(X, S)


def test_budget_runs_out_after_ten():
    ledger = InquiryLedger(initial_budget=10)
    for expected in range(9, -1, -1):
        assert ledger.consume(X, S) == expected
    with pytest.raises(BudgetExhausted):
        ledger.consume(X, S)


def test_budgets_are_per_pair():
    ledger = InquiryLedger(initial_budget=2)
    ledger.consume(X, S)
    assert ledger.budget(X, S) == 1
    assert ledger.budget(S, X) == 2
    assert ledger.budget(X, AgentId(3)) == 2


def test_record_answer_counts():
    ledger = InquiryLedger()
    assert ledger.record_answer(X, S) == 1
    assert ledger.record_answer(X, S) == 2
    assert ledger.record_answer(X, S) == 3
    assert ledger.answered(S, X) == 0


def test_replenish_worked_examples():
    # 10 + (3 + ceil(3 * 0.5) + 1) = 16
    ledger = InquiryLedger(initial_budget=10)
    for _ in range(3):
        ledger.record_answer(X, S)
    ledger.replenish({X: 0.5})
    assert ledger.budget(X, S) == 16

    # no answers still earns the +1 drip: 10 + 1 = 11
    ledger = InquiryLedger(initial_budget=10)
    ledger.consume(X, S)
    ledger.consume(X, S)  # touch the pair so it is known, budget 8
    ledger.replenish({X: 0.9})
    assert ledger.budget(X, S) == 9

    # 10 + (4 + ceil(4 * 1.0) + 1) = 19
    ledger = InquiryLedger(initial_budget=10)
    for _ in range(4):
        ledger.record_answer(X, S)
    ledger.replenish({X: 1.0})
    assert ledger.budget(X, S) == 19


def test_replenish_drip_for_untouched_pair_via_pairs_argument():
    ledger = InquiryLedger(initial_budget=10)
    ledger.replenish({}, pairs=[(X, S)])
    assert ledger.budget(X, S) == 11


def test_replenish_clears_answer_tallies():
    ledger = InquiryLedger()
    ledger.record_answer(X, S)
    ledger.replenish({X: 0.5})
    assert ledger.answered(X, S) == 0


def test_replenish_never_decreases_and_matches_fraction_oracle():
    rng = random.Random(17)
    ledger = InquiryLedger(initial_budget=5)
    for case in range(1000):
        answers = rng.randrange(0, 50)
        cred = rng.random()
        pair = (AgentId(1000 + case), AgentId(2000 + case))
        for _ in range(answers):
            ledger.record_answer(*pair)
        before = ledger.budget(*pair)
        ledger.replenish({pair[0]: cred}, pairs=[pair])
        gain = ledger.budget(*pair) - before
        # independent ceiling route: exact rational arithmetic
        want = answers + math.ceil(Fraction(answers) * Fraction(cred)) + 1
        assert gain == want
        assert gain >= 1


def test_participation_dominance():
    # equal budgets and credibility; the busier answerer ends every period richer
    ledger = InquiryLedger(initial_budget=10)
    busy, idle, requester = AgentId(1), AgentId(2), AgentId(3)
    for period in range(5):
        for _ in range(4):
            ledger.record_answer(busy, requester)
        ledger.record_answer(idle, requester)
        ledger.replenish({busy: 0.6, idle: 0.6}, pairs=[(busy, requester), (idle, requester)])
        assert ledger.budget(busy, requester) > ledger.budget(idle, requester)


def test_credibility_dominance():
    for answers in range(1, 20):
        low = answers + math.ceil(answers * 0.2) + 1
        high = answers + math.ceil(answers * 0.9) + 1
        assert high >= low


def test_drop_agent_removes_pairs():
    ledger = InquiryLedger(initial_budget=4)
    ledger.consume(X, S)
    ledger.record_answer(S, X)
    ledger.drop_agent(S)
    assert ledger.budget(X, S) == 4
    assert ledger.answered(S, X) == 0


def test_snapshot_round_trip(tmp_path):
    ledger = InquiryLedger(initial_budget=7)
    ledger.consume(X, S)
    ledger.record_answer(S, X)
    path = tmp_path / "inquiries.tsv"
    ledger.save(path)
    loaded = InquiryLedger.load(path, initial_budget=7)
    assert loaded.budget(X, S) == 6
    assert loaded.answered(S, X) == 1


def test_validation():
    with pytest.raises(ValueError):
        InquiryLedger(initial_budget=-1)


def test_initial_budget_is_bounded_by_int64_room():
    assert InquiryLedger(initial_budget=MAX_BUDGET).budget(X, S) == 2**62
    for budget in (MAX_BUDGET + 1, 99999999999999999999999):
        with pytest.raises(ValueError, match="at most 2\\*\\*62"):
            InquiryLedger(initial_budget=budget)
    # the largest budget still spends and pays out exactly
    ledger = InquiryLedger(initial_budget=MAX_BUDGET)
    assert ledger.consume(X, S) == 2**62 - 1
    ledger.record_answer(X, S)
    ledger.replenish({X: 1.0})
    assert ledger.budget(X, S) == 2**62 - 1 + 1 + 1 + 1


def test_pairs_are_found_by_equal_fresh_ids():
    ledger = InquiryLedger(initial_budget=4)
    ledger.consume(AgentId(1), AgentId(2))
    ledger.record_answer(AgentId(2), AgentId(1))
    assert ledger.budget(AgentId(1), AgentId(2)) == 3
    assert ledger.answered(AgentId(2), AgentId(1)) == 1
    # a zero credibility, found by an equal id, pays no bonus: 4 + 1 + 0 + 1
    ledger.replenish({AgentId(2): 0.0}, default_credibility=1.0)
    assert ledger.budget(AgentId(2), AgentId(1)) == 6
    ledger.drop_agent(AgentId(2))
    assert ledger.budget(AgentId(1), AgentId(2)) == 4
    assert ledger.budget(AgentId(2), AgentId(1)) == 4


def test_snapshot_lists_ids_in_numeric_order(tmp_path):
    ledger = InquiryLedger(initial_budget=3)
    for a, b in ((100, 2), (2, 100), (10, 100), (2, 10)):
        ledger.consume(AgentId(a), AgentId(b))
        ledger.record_answer(AgentId(b), AgentId(a))
    path = tmp_path / "inquiries.tsv"
    ledger.save(path)
    rows = [row.split("\t")[:3] for row in path.read_text().splitlines()[1:]]
    assert rows == [
        ["budget", "2", "10"],
        ["budget", "2", "100"],
        ["budget", "10", "100"],
        ["budget", "100", "2"],
        ["answered", "2", "100"],
        ["answered", "10", "2"],
        ["answered", "100", "2"],
        ["answered", "100", "10"],
    ]


# ---------------------------------------------------------------------------
# the batch calls and their one-element cases against plain dict arithmetic
# ---------------------------------------------------------------------------

IDS = st.integers(0, 5).map(AgentId)


def consume(budget, initial, asker, provider):
    """The oracle: one inquiry spent on a dict of budgets. Returns what is
    left, or None, writing nothing, where the budget is exhausted."""
    remaining = budget.get((asker, provider), initial)
    if remaining <= 0:
        return None
    budget[(asker, provider)] = remaining - 1
    return remaining - 1


def ledgers_after(initial, asked):
    """Two equal ledgers on which each (asker, provider) pair of ``asked`` has
    been consumed once where budget allowed."""
    pair = InquiryLedger(initial), InquiryLedger(initial)
    for ledger in pair:
        for asker, provider in asked:
            try:
                ledger.consume(asker, provider)
            except BudgetExhausted:
                pass
    return pair


def assert_same_entries(ledger_counts, oracle):
    assert ledger_counts == oracle
    assert list(ledger_counts) == list(oracle)


@settings(max_examples=300, deadline=None)
@given(
    initial=st.integers(0, 3),
    asked=st.lists(st.tuples(IDS, IDS), max_size=10),
    asker=IDS,
    providers=st.lists(IDS, max_size=12),
)
def test_spend_equals_a_sequence_of_consume_calls(initial, asked, asker, providers):
    batch, single = ledgers_after(initial, asked)
    budget = {}
    for pair in asked:
        consume(budget, initial, *pair)
    granted = batch.spend(asker, providers)
    expected = []
    for provider in providers:
        left = consume(budget, initial, asker, provider)
        expected.append(left is not None)
        try:
            assert single.consume(asker, provider) == left
        except BudgetExhausted:
            assert left is None
    assert granted == expected
    # exhausted pairs are left unwritten
    for ledger in (batch, single):
        budgets, answered = ledger.as_maps()
        assert_same_entries(budgets, budget)
        assert answered == {}


@settings(max_examples=300, deadline=None)
@given(
    asked=st.lists(st.tuples(IDS, IDS), max_size=10),
    answerers=st.lists(IDS, max_size=12),
    requester=IDS,
)
def test_tally_equals_a_sequence_of_record_answer_calls(asked, answerers, requester):
    batch, single = ledgers_after(2, asked)
    answered = {}
    for answerer, asker in asked:
        batch.record_answer(answerer, asker)
        single.record_answer(answerer, asker)
        answered[(answerer, asker)] = answered.get((answerer, asker), 0) + 1
    batch.tally(answerers, requester)
    for answerer in answerers:
        key = (answerer, requester)
        answered[key] = answered.get(key, 0) + 1
        assert single.record_answer(answerer, requester) == answered[key]
    for ledger in (batch, single):
        assert_same_entries(ledger.as_maps()[1], answered)
    assert batch.as_maps() == single.as_maps()


# ---------------------------------------------------------------------------
# the slot calls against the dict oracle, repeats and exhaustion included
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    initial=st.integers(0, 4),
    asked=st.lists(st.tuples(IDS, IDS), max_size=10),
    listed=st.lists(st.tuples(IDS, IDS), max_size=30),
    answering=st.lists(st.tuples(IDS, IDS), max_size=30),
    credibility=st.dictionaries(IDS, st.sampled_from([-0.0, 0.0, 0.3, 0.5, 1.0])),
    dropped=st.one_of(st.none(), IDS),
)
def test_slot_calls_equal_the_dict_oracle(
    initial, asked, listed, answering, credibility, dropped
):
    """One ``spend_slots`` call over a pair list that repeats pairs, so that a
    budget can run out partway through it, grants and writes what one
    ``consume`` per listing would; ``tally_slots`` counts every listing; the
    payout and a retirement then match plain dict arithmetic."""
    ledger = ledgers_after(initial, asked)[0]
    budget, answered = {}, {}
    for pair in asked:
        consume(budget, initial, *pair)
    granted = ledger.spend_slots(ledger.slots(listed))
    assert granted.tolist() == [consume(budget, initial, *pair) is not None for pair in listed]
    ledger.tally_slots(ledger.slots(answering))
    for pair in answering:
        answered[pair] = answered.get(pair, 0) + 1
    assert ledger.as_maps() == (budget, answered)
    ledger.replenish(credibility)
    for pair in {**budget, **answered}:
        served = answered.get(pair, 0)
        cred = Fraction(credibility.get(pair[0], 0.5))
        budget[pair] = budget.get(pair, initial) + served + math.ceil(served * cred) + 1
    assert ledger.as_maps() == (budget, {})
    if dropped is not None:
        ledger.drop_agent(dropped)
        budget = {pair: left for pair, left in budget.items() if dropped not in pair}
        assert ledger.as_maps() == (budget, {})
        assert all(ledger.budget(dropped, other) == initial for other in map(AgentId, range(6)))


def test_spend_runs_out_partway_through_a_repeated_pair():
    ledger = InquiryLedger(initial_budget=2)
    slots = ledger.slots([(X, S), (S, X), (X, S), (X, S), (S, X)])
    assert ledger.spend_slots(slots).tolist() == [True, True, True, False, True]
    assert ledger.as_maps() == ({(X, S): 0, (S, X): 0}, {})
    assert ledger.spend_slots(slots).tolist() == [False] * 5
