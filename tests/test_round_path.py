"""The float round path against the object code it replaced, bit for bit.

``reference_combine_all`` is the fold as it was written on objects: the
accumulator becomes a mass function, is rescaled to sum to one, and is
combined with the next mass into a new validated ``MassFunction``.
``combine_all`` now runs the same arithmetic on plain floats; every result
must carry the same bits. The saturated cases pile 200+ capped voters on both
sides, where the fold is most sensitive to the order of operations. A round
builds each distinct (verdict, credibility) mass once and fuses it once per
responder; its beliefs must carry the bits of a fold over one fresh mass per
responder. A scenario round concludes from answers polled once per population;
it must give every bit the library round gives, also where it reuses an earlier
round's fusion, and it must fuse exactly the rounds its trace says it must.
"""

import copy
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trustsim import engine, simulate
from trustsim.core import AgentId, Probability, Verdict
from trustsim.credibility import CredibilityLedger, _settled_score
from trustsim.engine import RecommendationRequest, RoundFailure, run_round
from trustsim.incentives import InquiryLedger
from trustsim.dst import (
    CREDIBILITY_CAP,
    MIN_NORMALISER,
    MassFunction,
    TotalConflict,
    combine,
    combine_all,
    decide,
    mass_from_recommendation,
)
from trustsim.simulate import ATTACK_KINDS, ScenarioConfig, run_scenario

T, N = Verdict.TRUSTWORTHY, Verdict.UNTRUSTWORTHY


# ---------------------------------------------------------------------------
# reference: the object fold, one validated object per intermediate value
# ---------------------------------------------------------------------------


def reference_combine(a, b):
    conflict = a.trust * b.distrust + a.distrust * b.trust
    normaliser = 1.0 - conflict
    if normaliser <= MIN_NORMALISER:
        raise TotalConflict(f"conflict {conflict!r} leaves no usable evidence")
    trust = (a.trust * b.trust + (a.trust * b.uncertainty + a.uncertainty * b.trust)) / normaliser
    distrust = (
        a.distrust * b.distrust
        + (a.distrust * b.uncertainty + a.uncertainty * b.distrust)
    ) / normaliser
    uncertainty = (a.uncertainty * b.uncertainty) / normaliser
    return MassFunction(
        Probability(min(1.0, trust)),
        Probability(min(1.0, distrust)),
        Probability(min(1.0, uncertainty)),
    )


def reference_renormalised(mass):
    total = mass.trust + mass.distrust + mass.uncertainty
    if total == 1.0:
        return mass
    return MassFunction(
        Probability(mass.trust / total),
        Probability(mass.distrust / total),
        Probability(mass.uncertainty / total),
    )


def reference_combine_all(masses):
    first, *rest = masses
    acc = MassFunction(first.trust, first.distrust, first.uncertainty)
    for mass in rest:
        acc = reference_combine(
            reference_renormalised(MassFunction(acc.trust, acc.distrust, acc.uncertainty)), mass
        )
    return acc


def bits(fold, masses):
    """The exact bits of a fold's result, or the name of what it raised."""
    try:
        beliefs = fold(masses)
    except (TotalConflict, ValueError) as exc:
        return type(exc).__name__
    return tuple(float(x).hex() for x in (beliefs.trust, beliefs.distrust, beliefs.uncertainty))


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def free_masses(draw):
    trust = draw(unit)
    distrust = (1.0 - trust) * draw(unit)
    return MassFunction(trust, distrust, max(0.0, 1.0 - trust - distrust))


votes = st.builds(mass_from_recommendation, st.sampled_from([T, N]), unit)
capped = st.builds(mass_from_recommendation, st.sampled_from([T, N]), st.just(1.0))


# ---------------------------------------------------------------------------
# combine_all on floats == the object fold, bit for bit
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(free_masses(), votes, capped), min_size=1, max_size=40))
def test_float_fold_is_bit_identical_to_object_fold(masses):
    assert bits(combine_all, masses) == bits(reference_combine_all, masses)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=200, max_value=260),
    st.integers(min_value=200, max_value=260),
    st.booleans(),
    st.lists(votes, max_size=5),
)
def test_saturated_fold_is_bit_identical(n_trust, n_distrust, trust_first, extra):
    yes = [mass_from_recommendation(T, 1.0)] * n_trust
    no = [mass_from_recommendation(N, 1.0)] * n_distrust
    masses = (yes + no if trust_first else no + yes) + extra
    assert bits(combine_all, masses) == bits(reference_combine_all, masses)


def reference_mass(verdict, credibility):
    """A mass built afresh for one responder, as every round did before it
    built each distinct (verdict, credibility) mass once."""
    lam = min(float(Probability(credibility)), CREDIBILITY_CAP)
    backed, rest = Probability(lam), Probability(1.0 - lam)
    if verdict is T:
        return MassFunction(backed, Probability(0.0), rest)
    return MassFunction(Probability(0.0), backed, rest)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([T, N]), st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.9, 1.0])),
        min_size=1,
        max_size=30,
    )
)
def test_round_with_shared_masses_is_bit_identical(votes):
    ledger = CredibilityLedger()
    population = {}
    for index, (verdict, credibility) in enumerate(votes):
        advisor = AgentId(index + 1)
        ledger.set(advisor, credibility)
        population[advisor] = lambda subject, features, verdict=verdict: verdict
    request = RecommendationRequest(AgentId(100), AgentId(200), (0.5,), tuple(population))
    fresh = [reference_mass(verdict, ledger.get(advisor)) for advisor, (verdict, _) in zip(population, votes)]
    want = bits(reference_combine_all, fresh)
    try:
        outcome = run_round(request, population, ledger)
    except RoundFailure:
        assert want == "TotalConflict"
        return
    beliefs = outcome.beliefs
    assert tuple(float(x).hex() for x in (beliefs.trust, beliefs.distrust, beliefs.uncertainty)) == want


@pytest.mark.parametrize("order", ["trust-first", "distrust-first", "alternating"])
def test_saturated_fold_with_250_each_side(order):
    yes, no = mass_from_recommendation(T, 1.0), mass_from_recommendation(N, 1.0)
    masses = {
        "trust-first": [yes] * 250 + [no] * 250,
        "distrust-first": [no] * 250 + [yes] * 250,
        "alternating": [yes, no] * 250,
    }[order]
    assert bits(combine_all, masses) == bits(reference_combine_all, masses)


@settings(max_examples=200, deadline=None)
@given(st.one_of(free_masses(), votes, capped), st.one_of(free_masses(), votes, capped))
def test_combine_is_the_reference_rule(a, b):
    assert bits(lambda pair: combine(*pair), (a, b)) == bits(
        lambda pair: reference_combine(*pair), (a, b)
    )


# Components may miss a sum of 1 by up to SUM_TOLERANCE. The first fold shows
# whether the first mass is rescaled; in the second, heavy conflict amplifies
# the second mass's excess past the tolerance, so the first step's sum check
# must fire (a rescale before the next step would hide the excess).
OFF_BY_THE_TOLERANCE = {
    "rescaled-first": [MassFunction(0.3, 0.2, 0.5 + 9e-10), mass_from_recommendation(T, 0.5)],
    "amplified-drift": [
        MassFunction(0.999, 0.0, 0.001 + 9e-10),
        MassFunction(0.0, 0.999, 0.001 + 9e-10),
        mass_from_recommendation(T, 0.5),
    ],
}


@pytest.mark.parametrize("name", sorted(OFF_BY_THE_TOLERANCE))
def test_fold_of_masses_off_by_the_tolerance(name):
    masses = OFF_BY_THE_TOLERANCE[name]
    want = bits(reference_combine_all, masses)
    assert (want == "ValueError") is (name == "amplified-drift")
    assert bits(combine_all, masses) == want
    assert bits(lambda pair: combine(*pair), masses[:2]) == bits(
        lambda pair: reference_combine(*pair), masses[:2]
    )


def test_total_conflict_still_raised_by_the_float_fold():
    with pytest.raises(TotalConflict):
        combine_all([MassFunction(1.0, 0.0, 0.0), MassFunction(0.0, 1.0, 0.0)])


# ---------------------------------------------------------------------------
# batch_update == one update per advisor == the rule applied in turn, bit for bit
# ---------------------------------------------------------------------------


def ledger_bits(ledger):
    """Every entry in insertion order, each score as its type and exact bits."""
    return [(agent, type(score), float(score).hex()) for agent, score in ledger.as_map().items()]


def sequential_settle(ledger, advisors, verdicts, beliefs):
    """The oracle: the settle rule applied to one advisor at a time, reading
    and writing through ``get`` and ``set``, with no memo."""
    trust, distrust = float(beliefs.trust), float(beliefs.distrust)
    for advisor, verdict in zip(advisors, verdicts):
        score = float(ledger.get(advisor))
        ledger.set(advisor, _settled_score(score, verdict is T, trust, distrust))


def settle_with_repeats(ledgers, answers, again, beliefs):
    """Settle ``answers`` and then the repeated indices ``again`` three ways:
    in one ``batch_update`` call, by one ``update`` call per advisor, and by
    the oracle. An advisor listed twice is settled twice."""
    batch, single, oracle = ledgers
    answers = answers + ([answers[i % len(answers)] for i in again] if answers else [])
    advisors = [advisor for advisor, _ in answers]
    verdicts = [verdict for _, verdict in answers]
    batch.batch_update(advisors, verdicts, beliefs)
    for advisor, verdict in answers:
        got = single.update(advisor, verdict, beliefs)
        sequential_settle(oracle, [advisor], [verdict], beliefs)
        assert (type(got), got.hex()) == (Probability, float(oracle.get(advisor)).hex())
    assert ledger_bits(batch) == ledger_bits(oracle)
    assert ledger_bits(single) == ledger_bits(oracle)
    assert all(type(score) is Probability for score in batch.as_map().values())


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from([T, N]), st.one_of(st.none(), unit)), max_size=30),
    free_masses(),
    unit,
    st.lists(st.integers(0, 29), max_size=5),
)
def test_batch_update_equals_sequential_updates(advisors, beliefs, initial, again):
    ledgers = [CredibilityLedger(initial) for _ in range(3)]
    answers = []
    for value, (verdict, score) in enumerate(advisors):
        agent = AgentId(value)
        if score is not None:
            for ledger in ledgers:
                ledger.set(agent, score)
        answers.append((agent, verdict))
    settle_with_repeats(ledgers, answers, again, beliefs)


shared_scores = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 0.75, CREDIBILITY_CAP, 1.0])
tied_or_free = st.one_of(
    st.sampled_from(
        [MassFunction(0.0, 0.0, 1.0), MassFunction(0.5, 0.5, 0.0), MassFunction(0.25, 0.25, 0.5)]
    ),
    free_masses(),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([T, N]), st.one_of(st.none(), shared_scores)),
        min_size=1,
        max_size=60,
    ),
    tied_or_free,
    shared_scores,
    st.lists(st.integers(0, 59), max_size=5),
)
@example([(T, 0.0), (T, -0.0), (N, -0.0)], MassFunction(0.5, 0.5, 0.0), 0.5, [])
@example([(T, None), (N, 0.3)], MassFunction(0.25, 0.25, 0.5), -0.0, [0, 1])
def test_batch_update_with_shared_scores_equals_sequential_updates(
    advisors, beliefs, initial, again
):
    # many responders share a handful of scores, as in a saturated round;
    # -0.0 and 0.0 are equal keys but must keep their own bits on a tie, and a
    # tie still writes an advisor the ledger did not hold
    ledgers = [CredibilityLedger(initial) for _ in range(3)]
    answers = []
    for value, (verdict, score) in enumerate(advisors):
        agent = AgentId(value)
        if score is not None:
            for ledger in ledgers:
                ledger.set(agent, score)
        answers.append((agent, verdict))
    settle_with_repeats(ledgers, answers, again, beliefs)


# ---------------------------------------------------------------------------
# saturated fold against exact arithmetic: a known fault, pinned
# ---------------------------------------------------------------------------


def fraction_dempster(masses):
    """Dempster's rule in exact rationals: fold the unnormalised products and
    normalise once at the end, which equals normalising at every step."""
    first, *rest = masses
    t, d, u = (Fraction(first.trust), Fraction(first.distrust), Fraction(first.uncertainty))
    for m in rest:
        mt, md, mu = Fraction(m.trust), Fraction(m.distrust), Fraction(m.uncertainty)
        t, d, u = t * mt + t * mu + u * mt, d * md + d * mu + u * md, u * mu
    total = t + d + u
    return t / total, d / total, u / total


def _verdict(trust, distrust):
    return T if trust > distrust else N


SIXTY_T_SEVENTY_N = [mass_from_recommendation(T, 1.0)] * 60 + [
    mass_from_recommendation(N, 1.0)
] * 70


def test_fraction_oracle_matches_fold_when_unsaturated():
    masses = [mass_from_recommendation(T, 0.7)] * 6 + [mass_from_recommendation(N, 0.6)] * 7
    exact = fraction_dempster(masses)
    got = combine_all(masses)
    assert float(exact[0]) == pytest.approx(got.trust, abs=1e-9)
    assert float(exact[1]) == pytest.approx(got.distrust, abs=1e-9)


def test_fraction_oracle_decides_the_larger_capped_side():
    # with every voter at the cap the larger side carries the evidence:
    # distrust over trust is (1 - cap)^-10 to within a factor of two
    trust, distrust, _ = fraction_dempster(SIXTY_T_SEVENTY_N)
    assert _verdict(trust, distrust) is N
    assert distrust / trust > Fraction(1, 2) * (1 / (1 - Fraction(CREDIBILITY_CAP))) ** 10


@pytest.mark.xfail(
    strict=True,
    reason="the float fold absorbs once 54 capped voters pile up on one side: "
    "their uncertainty underflows to 0.0 and the later, larger distrust side "
    "cannot move the belief",
)
def test_saturated_fold_decides_like_exact_dempster():
    trust, distrust, _ = fraction_dempster(SIXTY_T_SEVENTY_N)
    assert decide(combine_all(SIXTY_T_SEVENTY_N)) is _verdict(trust, distrust)


# ---------------------------------------------------------------------------
# the scenario round against the library round
# ---------------------------------------------------------------------------


def outcome_bits(outcome):
    beliefs = outcome.beliefs
    return (
        tuple(float(x).hex() for x in (beliefs.trust, beliefs.distrust, beliefs.uncertainty)),
        outcome.verdict,
        float(outcome.estimated_trust).hex(),
        outcome.responders,
        outcome.answers,
        tuple(float(weight).hex() for weight in outcome.weights),
        outcome.abstainers,
        outcome.not_polled,
    )


def ledgers_bits(credibility, inquiries):
    """Both ledgers' entries in slot order, scores by their type and bits."""
    budgets, answered = inquiries.as_maps()
    return ledger_bits(credibility), list(budgets.items()), list(answered.items())


#: Per draw: the system's initial budget. 0 leaves every advisor unpolled;
#: 1 and 2 run dry within an iteration of 3 or 4 items.
BUDGETS = (None, 0, 1, 2)


def random_desk_config(kind, draw):
    rng = random.Random(f"{kind}-{draw}")
    return ScenarioConfig(
        seed=rng.randrange(10_000),
        attack_kind=kind,
        n_advisors=rng.randint(4, 8),
        n_items=rng.randint(3, 4),
        n_iterations=rng.randint(3, 6),
        attacker_fraction=rng.choice([0.3, 0.5]),
        sybil_count=rng.randint(1, 3),
        switch_iteration=rng.randint(1, 4),
        reset_period=rng.randint(1, 3),
        initial_budget=BUDGETS[draw],
        period_length=rng.randint(1, 2),
        initial_credibility=rng.choice([0.0, -0.0, 0.5, 1.0]),
        noise=rng.choice([0.0, 0.1, 0.3]),
        records_per_advisor=20,
        k_folds=3,
    )


@pytest.mark.parametrize("draw", range(len(BUDGETS)))
@pytest.mark.parametrize("kind", ATTACK_KINDS)
def test_scenario_round_equals_the_library_round(monkeypatch, kind, draw):
    """Each round of a scenario, run again by ``engine.run_round`` on copies of
    the ledgers and over the population the scenario polled, gives the same
    outcome, ledgers and trace line, bit for bit. The scenario round keeps
    its fusion memo, so a round that reuses an earlier fusion is checked
    against a fresh one."""
    config = random_desk_config(kind, draw)
    populations = []
    polled = simulate.poll

    def recording_poll(eligible, policies, *args):
        populations.append(dict(zip(eligible, policies)))
        return polled(eligible, policies, *args)

    scenario_round = simulate.run_round
    starved = []

    def both_rounds(
        request, roster, polls, credibility, inquiries, trace, *, iteration, item, memo
    ):
        ledgers = copy.deepcopy((credibility, inquiries))
        library_lines, lines = [], []
        expected = engine.run_round(
            request, populations[-1], *ledgers, library_lines.append,
            iteration=iteration, item=item,
        )
        outcome = scenario_round(
            request, roster, polls, credibility, inquiries, lines.append,
            iteration=iteration, item=item, memo=memo,
        )
        assert outcome_bits(outcome) == outcome_bits(expected)
        assert ledgers_bits(credibility, inquiries) == ledgers_bits(*ledgers)
        assert lines == library_lines
        starved.append(bool(outcome.not_polled))
        trace(lines[0])
        return outcome

    monkeypatch.setattr(simulate, "poll", recording_poll)
    monkeypatch.setattr(simulate, "run_round", both_rounds)
    result = run_scenario(config, trace=lambda line: None)
    assert len(starved) == config.n_items * config.n_iterations
    assert any(starved) is (config.initial_budget is not None)
    if kind == "whitewashing":
        assert result.retired_identities and len(populations) > config.n_items


# ---------------------------------------------------------------------------
# the fusion memo: which rounds fuse, read from the trace alone
# ---------------------------------------------------------------------------


def expected_fusions(kind, records):
    """How many rounds must fuse, from the trace lines of one scenario.

    A population lasts while the identities asked stay the same (a whitewash
    reset replaces one) and, under camouflage, for one iteration. Within one,
    a round fuses unless its verdicts and the bits of its weights equal those
    of the last round with the same verdicts; every round that fuses is kept.
    A round nobody answers fuses nothing.
    """
    fusions, population, kept = 0, None, {}
    for record in records:
        ids = [entry["advisor"] for entry in record["responders"]]
        asked = frozenset(ids + record["abstainers"] + record["not_polled"])
        key = (asked, record["iteration"] if kind == "camouflage" else None)
        if key != population:
            population, kept = key, {}
        if not ids:
            continue
        verdicts = tuple(entry["verdict"] for entry in record["responders"])
        weights = tuple(float(entry["credibility"]).hex() for entry in record["responders"])
        if kept.get(verdicts) != weights:
            fusions += 1
            kept[verdicts] = weights
    return fusions


def test_fusion_memo_keeps_the_sign_of_a_zero_weight():
    """One responder weighted -0.0 fuses to ``trust = -0.0``, and -0.0 == 0.0,
    so the memo tells weights apart by their bytes: a round weighted 0.0
    after one weighted -0.0 fuses again and keeps its own sign; a round that
    repeats the last answers and weight bytes reuses that fusion. Each entry
    keeps the settled scores its round left."""
    advisor = AgentId(1)
    request = RecommendationRequest(AgentId(100), AgentId(200), (0.5,), (advisor,))
    polls = engine.poll((advisor,), (lambda subject, features: T,), request.subject, (0.5,))
    memo = {}

    def conclude(score, memo=None):
        ledger = CredibilityLedger()
        ledger.set(advisor, score)
        roster = engine.Roster.of(request.requester, request.eligible, ledger)
        outcome = engine.conclude_round(request, roster, polls, ledger, memo=memo)
        return outcome, ledger_bits(ledger)

    fusions = []
    for score in (-0.0, 0.0, -0.0, 0.5):
        outcome, settled = conclude(score, memo)
        fresh, fresh_settled = conclude(score)
        assert (outcome_bits(outcome), settled) == (outcome_bits(fresh), fresh_settled)
        assert math.copysign(1.0, outcome.beliefs.trust) == math.copysign(1.0, score)
        fusion = (outcome.beliefs, outcome.verdict, outcome.estimated_trust)
        ((key, (weights, kept, scores)),) = memo.items()
        assert (key, weights, kept) == (polls.trusting.tobytes(), np.array([score]).tobytes(), fusion)
        assert [(advisor, Probability, scores.item().hex())] == settled
        # a fresh fusion each time: no earlier beliefs object is reused
        assert all(fusion[0] is not earlier[0] for earlier in fusions)
        fusions.append(fusion)
    again, settled = conclude(0.5, memo)
    assert again.beliefs is fusions[-1][0]
    fresh, fresh_settled = conclude(0.5)
    assert (outcome_bits(again), settled) == (outcome_bits(fresh), fresh_settled)


#: Per case: A's, B's and C's answers, the initial credibility, scores set
#: before the first round and before the second, and whether the second round
#: reuses the first one's fusion and settle.
REPLAYS = {
    "capped-agreement": ("TTT", 1.0, {}, {}, True),
    "exact-tie": ("TNN", 0.5, {}, {}, True),
    "negative-zero": ("TNN", -0.0, {"A": 1.0}, {}, True),
    "zero-after-negative-zero": ("TNN", -0.0, {"A": 1.0}, {"C": 0.0}, False),
    "moved-weights": ("TTT", 0.5, {}, {}, False),
}


@pytest.mark.parametrize("case", REPLAYS)
def test_a_replayed_settle_equals_a_fresh_round(case):
    """Two scenario rounds over advisors A, B and C with one fusion memo: the
    first starves C, the second B, so the second round's responders are A
    and C. Where their answers and weight bytes equal the first round's, the
    second round replays the first one's settle into A's and C's slots, and
    C, never written before, is written. Each round leaves the outcome, both
    ledgers and the trace line bit-equal to a fresh ``engine.run_round``."""
    letters, initial, before, between, hit = REPLAYS[case]
    ids = {name: AgentId(number) for number, name in enumerate("ABC", 1)}
    requester, subject = AgentId(0), AgentId(9)
    eligible = tuple(ids.values())
    population = {
        advisor: (lambda subject, features, answer=T if letter == "T" else N: answer)
        for advisor, letter in zip(eligible, letters)
    }
    request = RecommendationRequest(requester, subject, (0.5,), eligible)
    credibility, inquiries = CredibilityLedger(initial), InquiryLedger(1)
    roster = engine.Roster.of(requester, eligible, credibility, inquiries)
    polls = engine.poll(eligible, list(population.values()), subject, (0.5,))
    memo = {}

    def both_rounds():
        ledgers = copy.deepcopy((credibility, inquiries))
        library_lines, lines = [], []
        expected = engine.run_round(
            request, population, *ledgers, library_lines.append, iteration=1, item=0
        )
        outcome = simulate.run_round(
            request, roster, polls, credibility, inquiries, lines.append,
            iteration=1, item=0, memo=memo,
        )
        assert outcome_bits(outcome) == outcome_bits(expected)
        assert ledgers_bits(credibility, inquiries) == ledgers_bits(*ledgers)
        assert lines == library_lines
        return outcome

    for name, score in before.items():
        credibility.set(ids[name], score)
    inquiries.spend(requester, [ids["C"]])
    first = both_rounds()
    assert first.responders == (ids["A"], ids["B"])
    inquiries.replenish({})
    inquiries.spend(requester, [ids["B"]])
    for name, score in between.items():
        credibility.set(ids[name], score)
    assert ids["C"] not in credibility or between
    second = both_rounds()
    assert second.responders == (ids["A"], ids["C"])
    assert (second.beliefs is first.beliefs) is hit
    assert ids["C"] in credibility


@pytest.mark.parametrize("budget", [None, 3])
@pytest.mark.parametrize("initial", [0.5, -0.0, 1.0], ids=["0.5", "-0.0", "1.0"])
@pytest.mark.parametrize("kind", ATTACK_KINDS)
def test_fusion_memo_fuses_what_the_trace_says(monkeypatch, kind, initial, budget):
    """``combine_all`` runs once per round the trace says must fuse; the memo
    lives for one population of one ``run_scenario`` call, so two calls of one
    config fuse equally often."""
    config = ScenarioConfig(
        seed=11,
        attack_kind=kind,
        n_advisors=8,
        n_items=3,
        n_iterations=8,
        sybil_count=2,
        switch_iteration=3,
        reset_period=3,
        initial_budget=budget,
        initial_credibility=initial,
        records_per_advisor=20,
        k_folds=3,
    )
    fused = []
    combine = engine.combine_all

    def counting(masses):
        fused[-1] += 1
        return combine(masses)

    monkeypatch.setattr(engine, "combine_all", counting)
    traces = []
    for _ in range(2):
        fused.append(0)
        traces.append([])
        run_scenario(config, trace=traces[-1].append)
    assert traces[0] == traces[1]
    assert fused[0] == fused[1]
    records = [json.loads(line) for line in traces[0]]
    answered = sum(1 for record in records if record["responders"])
    assert fused[0] == expected_fusions(kind, records)
    if kind == "camouflage":
        assert fused[0] == answered
    elif initial == 0.5 and budget is None:
        # these populations outlast an iteration and repeat rounds
        assert fused[0] < answered
