"""One recommendation round, end to end.

The engine broadcasts a request to every eligible advisor it still has budget
to ask, collects the verdicts of those who answer, fuses them into one mass
function weighted by each advisor's credibility as of collection time, decides,
and only then settles the ledgers (credibility updates for responders, answer
tallies for the incentive scheme). Reading everything before writing anything
means a round can never feed its own updates back into its own aggregation.

A round is two steps: collection (:func:`poll`, which asks each advisor whose
inquiry was granted) and the conclusion (:func:`conclude_round`, which weighs,
fuses, decides, settles and writes the trace line). :func:`run_round` runs
both; a caller that already knows what each advisor would answer, like the
simulator, concludes from those answers directly, and may hand it a
:data:`FusionMemo` so that a round repeating an earlier round's answers and
weights reuses that round's fusion and replays its settle.

Both steps work on a :class:`Roster`: the eligible advisors resolved once to
their slots in the two ledgers, so that a round spends, weighs, settles and
tallies all of them in one vector operation each.

Advisors appear here only as opaque callables keyed by identity; whatever
behavior hides behind a callable is invisible to this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .core import _TRUSTWORTHY, _UNTRUSTWORTHY, AgentId, Probability, Verdict
from .credibility import CredibilityLedger
from .dst import (
    VACUOUS,
    MassFunction,
    TotalConflict,
    combine_all,
    decide,
    estimated_trust,
    mass_from_recommendation,
)
from .incentives import InquiryLedger

#: An advisor's answer policy: a verdict, or None to abstain.
Responder = Callable[[AgentId, Sequence[float]], "Verdict | None"]

#: Fusions already made, for :func:`conclude_round`: a round's answers (the
#: bytes of its ``trusting`` vector) mapped to the bytes of the weights they
#: were fused with, what that fusion gave (beliefs, verdict, estimated trust)
#: and the responders' settled scores (a float64 array, in responder order),
#: for the last round that fused those answers.
FusionMemo = dict[bytes, tuple[bytes, tuple[MassFunction, Verdict, Probability], np.ndarray]]


class RoundFailure(RuntimeError):
    """The round could not produce a decision (e.g. totally conflicting evidence)."""


@dataclass(frozen=True)
class RecommendationRequest:
    requester: AgentId
    subject: AgentId
    subject_features: tuple[float, ...]
    eligible: tuple[AgentId, ...]

    def __post_init__(self) -> None:
        eligible = set(self.eligible)
        if len(eligible) != len(self.eligible):
            raise ValueError("an advisor is listed twice among the eligible")
        if self.subject in eligible:
            raise ValueError("the subject cannot advise on itself")
        if self.requester in eligible:
            raise ValueError("the requester cannot advise itself")


class RoundOutcome(NamedTuple):
    """What one round produced, including who answered and who did not.

    ``responders``, ``answers`` and ``weights`` line up, in polling order:
    each advisor that answered, its verdict, and the credibility its verdict
    was weighted by (its score before the round; a float64 array).
    ``not_polled`` lists advisors skipped because the requester's inquiry
    budget toward them was exhausted; they are not abstainers, they were
    never asked.
    """

    beliefs: MassFunction
    verdict: Verdict
    estimated_trust: Probability
    responders: tuple[AgentId, ...]
    answers: tuple[Verdict, ...]
    weights: np.ndarray
    abstainers: tuple[AgentId, ...]
    not_polled: tuple[AgentId, ...]


class Roster(NamedTuple):
    """The advisors a requester may ask, resolved once to the ledgers' slots.

    ``slots`` holds each eligible advisor's credibility slot, ``asks`` the
    inquiry slot of each pair (requester, advisor) and ``serves`` that of
    each pair (advisor, requester), all in the order of ``eligible``; the two
    inquiry arrays are None without an inquiry ledger. ``eligible`` lists
    each advisor once, as a :class:`RecommendationRequest` does, so each
    array holds distinct slots.
    """

    eligible: tuple[AgentId, ...]
    slots: np.ndarray
    asks: np.ndarray | None
    serves: np.ndarray | None

    @classmethod
    def of(
        cls,
        requester: AgentId,
        eligible: tuple[AgentId, ...],
        credibility: CredibilityLedger,
        inquiries: InquiryLedger | None = None,
    ) -> "Roster":
        """The roster of ``eligible``, each met for the first time given a
        slot in the ledgers; nothing is written."""
        if inquiries is None:
            return cls(eligible, credibility.slots(eligible), None, None)
        return cls(
            eligible,
            credibility.slots(eligible),
            inquiries.slots([(requester, advisor) for advisor in eligible]),
            inquiries.slots([(advisor, requester) for advisor in eligible]),
        )


class Polls(NamedTuple):
    """What a round collected, in polling order: the advisors that answered
    and their verdicts (these two line up), the advisors that abstained, and
    those never asked because the requester's inquiry budget toward them was
    exhausted. ``positions`` holds each responder's index among the eligible
    and ``trusting`` whether it answered trustworthy, both as arrays that line
    up with ``responders``."""

    responders: tuple[AgentId, ...]
    answers: tuple[Verdict, ...]
    abstainers: tuple[AgentId, ...]
    not_polled: tuple[AgentId, ...]
    positions: np.ndarray
    trusting: np.ndarray


def poll(
    eligible: Sequence[AgentId],
    policies: Sequence[Responder],
    subject: AgentId,
    features: Sequence[float],
    granted: Sequence[bool] | None = None,
) -> Polls:
    """Ask each eligible advisor (through its policy, which lines up with it)
    about ``subject``, in order. Where ``granted`` says ``False`` the advisor
    is not asked and is listed as not polled; without ``granted`` every
    advisor is asked."""
    responders: list[AgentId] = []
    answers: list[Verdict] = []
    positions: list[int] = []
    abstainers: list[AgentId] = []
    not_polled: list[AgentId] = []
    for position, (advisor, respond, asked) in enumerate(
        zip(eligible, policies, itertools.repeat(True) if granted is None else granted)
    ):
        if not asked:
            not_polled.append(advisor)
            continue
        answer = respond(subject, features)
        if answer is None:
            abstainers.append(advisor)
        else:
            responders.append(advisor)
            answers.append(answer)
            positions.append(position)
    return Polls(
        tuple(responders),
        tuple(answers),
        tuple(abstainers),
        tuple(not_polled),
        np.array(positions, dtype=np.int64),
        np.array([answer is _TRUSTWORTHY for answer in answers], dtype=bool),
    )


def run_round(
    request: RecommendationRequest,
    population: Mapping[AgentId, Responder],
    credibility: CredibilityLedger,
    inquiries: InquiryLedger | None = None,
    trace: Callable[[str], None] | None = None,
    *,
    iteration: int | None = None,
    item: int | None = None,
) -> RoundOutcome:
    """Execute one full round for ``request``.

    Every eligible advisor is polled (budget permitting) with the subject's
    features; responders' verdicts become credibility-weighted masses that are
    fused and decided on. If everyone abstains the outcome is pure uncertainty
    with the conservative untrustworthy verdict. Credibility updates apply to
    responders only, using the aggregate the round just produced.

    The eligible advisors are resolved to a :class:`Roster`, the requester's
    inquiries toward all of them are spent in one
    ``InquiryLedger.spend_distinct`` call, each granted advisor is asked once
    (:func:`poll`), and :func:`conclude_round` does the rest. An unknown
    advisor fails the round before any ledger is written.
    """
    eligible = request.eligible
    if not eligible:
        raise ValueError("cannot run a round with no eligible advisors")
    try:
        policies = [population[advisor] for advisor in eligible]
    except KeyError as exc:
        raise ValueError(
            f"eligible advisor {exc.args[0].value} is not in the population"
        ) from None
    roster = Roster.of(request.requester, eligible, credibility, inquiries)
    granted = None if inquiries is None else inquiries.spend_distinct(roster.asks).tolist()
    polls = poll(eligible, policies, request.subject, request.subject_features, granted)
    return conclude_round(
        request, roster, polls, credibility, inquiries, trace, iteration=iteration, item=item
    )


def conclude_round(
    request: RecommendationRequest,
    roster: Roster,
    polls: Polls,
    credibility: CredibilityLedger,
    inquiries: InquiryLedger | None = None,
    trace: Callable[[str], None] | None = None,
    *,
    iteration: int | None = None,
    item: int | None = None,
    memo: FusionMemo | None = None,
) -> RoundOutcome:
    """Conclude a round from what was collected: weigh, fuse, decide, settle.

    Each responder's verdict is weighted by its score before the round, read
    from its slot in ``roster`` in one ``CredibilityLedger.scores`` call, and
    the verdicts are fused (:func:`_fuse`). The responders are then settled
    in one ``CredibilityLedger.batch_update`` call and their answers tallied
    in one ``InquiryLedger.tally_slots`` call, each one vector operation.

    The fusion (beliefs, verdict and estimated trust) depends on nothing but
    the answers and the weights, in order, and each settled score on nothing
    but the responder's weight, its answer and the beliefs. With ``memo``
    (see :data:`FusionMemo`), a round whose answers are in it with weights of
    equal bytes reuses the stored fusion and replays the stored settled
    scores: it writes them into its own responders' slots in one
    ``CredibilityLedger.write`` call, in place of ``batch_update``. Any other
    round fuses, settles and stores its own. Bit-equal weights fuse and
    settle to bit-equal results whoever the responders are, and the bytes
    tell -0.0 from 0.0. A round that fails is not stored. Tallying, the
    outcome and the trace line happen on every round. Without ``memo`` every
    round fuses and settles.

    ``trace`` (if given) receives the round's record as one JSON line without
    the newline (see :func:`_trace_line`) before this call returns, with
    ``iteration`` and ``item`` among its fields when they are given.
    """
    responders, answers = polls.responders, polls.answers
    slots = roster.slots[polls.positions]
    weights = credibility.scores(slots)
    settled = None
    if responders:
        trusting = polls.trusting
        key = trusting.tobytes()
        kept = memo.get(key) if memo is not None else None
        if kept is not None and kept[0] == weights.tobytes():
            (beliefs, verdict, trust), settled = kept[1], kept[2]
            credibility.write(slots, settled)
        else:
            beliefs, verdict, trust = fusion = _fuse(request, answers, weights.tolist())
            credibility.batch_update(slots, trusting, beliefs)
            if memo is not None:
                settled = credibility.scores(slots)
                memo[key] = (weights.tobytes(), fusion, settled)
        if inquiries is not None:
            inquiries.tally_slots(roster.serves[polls.positions])
    else:
        beliefs = VACUOUS
        verdict = _UNTRUSTWORTHY
        trust = Probability(0.5)

    outcome = RoundOutcome(
        beliefs,
        verdict,
        trust,
        responders,
        answers,
        weights,
        polls.abstainers,
        polls.not_polled,
    )
    if trace is not None:
        if settled is None:
            settled = credibility.scores(slots)
        trace(_trace_line(request, outcome, settled.tolist(), iteration, item))
    return outcome


def _fuse(
    request: RecommendationRequest,
    answers: Sequence[Verdict],
    weights: Sequence[float],
) -> tuple[MassFunction, Verdict, Probability]:
    """The beliefs fused from ``answers`` weighted by ``weights``, the verdict
    and the estimated trust; :class:`RoundFailure` on total conflict.

    Responders share a handful of (verdict, weight) pairs once credibility
    saturates, so each distinct mass is built once and fused once per
    answer."""
    trusting: dict[float, MassFunction] = {}
    distrusting: dict[float, MassFunction] = {}
    masses: list[MassFunction] = []
    for answer, score in zip(answers, weights):
        built = trusting if answer is _TRUSTWORTHY else distrusting
        mass = built.get(score)
        if mass is None:
            mass = built[score] = mass_from_recommendation(answer, score)
        masses.append(mass)
    try:
        beliefs = combine_all(masses)
    except TotalConflict as exc:
        raise RoundFailure(
            f"total conflict aggregating {len(masses)} recommendations "
            f"about subject {request.subject.value}"
        ) from exc
    return beliefs, decide(beliefs), estimated_trust(beliefs)


#: Each verdict as JSON text.
_TRUSTWORTHY_JSON = f'"{_TRUSTWORTHY.value}"'
_UNTRUSTWORTHY_JSON = f'"{_UNTRUSTWORTHY.value}"'

#: Each traced advisor's id texts: the head of its ``responders`` entry and
#: the key of its ``credibility_after`` entry. They never change, so they are
#: kept from round to round; there is one entry per distinct id traced, and a
#: scenario's ids are the ones its ``IdentityIssuer`` issued, counting from 0.
_ID_TEXTS: dict[AgentId, tuple[str, str]] = {}


def _trace_line(
    request: RecommendationRequest,
    outcome: RoundOutcome,
    settled: Sequence[float],
    iteration: int | None,
    item: int | None,
) -> str:
    """One round's trace record as a JSON line, without the newline.

    The record holds ``requester`` and ``subject``; ``responders``, a list of
    ``{advisor, credibility, verdict}`` in polling order, where
    ``credibility`` is the score the verdict was weighted by (the one before
    the round); ``abstainers`` and ``not_polled``; the fused ``beliefs``
    (``trust``, ``distrust``, ``uncertainty``), ``verdict`` and
    ``estimated_trust``; ``credibility_after``, each responder's settled score
    (``settled``, in responder order) keyed by its id as a string; and
    ``iteration`` and ``item`` when they are given. Ids are the agents'
    numbers and verdicts their values.

    The line is byte for byte what ``json.dumps(record, sort_keys=True)``
    writes: keys in sorted order (``credibility_after`` in string order of the
    ids), floats by ``float.__repr__``, ``", "`` and ``": "`` separators.

    Responders share a few (verdict, weight) pairs and settled scores, so the
    text of each is written once a round. Those memos are keyed by value,
    which would merge ``-0.0`` with ``0.0``, so a zero's text is never stored.
    """
    text = float.__repr__
    id_texts = _ID_TEXTS
    trustworthy = _TRUSTWORTHY
    # per round: (verdict, weight) -> entry tail, settled score -> text
    trusting: dict[float, str] = {}
    distrusting: dict[float, str] = {}
    settled_texts: dict[float, str] = {}
    entries = []
    after = []
    for agent, answer, weight, score in zip(
        outcome.responders, outcome.answers, outcome.weights.tolist(), settled
    ):
        heads = id_texts.get(agent)
        if heads is None:
            advisor = str(agent.value)
            heads = id_texts[agent] = (
                f'{{"advisor": {advisor}, "credibility": ',
                f'"{advisor}": ',
            )
        tails = trusting if answer is trustworthy else distrusting
        tail = tails.get(weight)
        if tail is None:
            verdict = _TRUSTWORTHY_JSON if answer is trustworthy else _UNTRUSTWORTHY_JSON
            tail = f'{text(weight)}, "verdict": {verdict}}}'
            if weight:
                tails[weight] = tail
        score_text = settled_texts.get(score)
        if score_text is None:
            score_text = text(score)
            if score:
                settled_texts[score] = score_text
        entries.append(heads[0] + tail)
        after.append(heads[1] + score_text)
    # '"' sorts below every character of an id, so the entries sort as their ids
    after.sort()
    beliefs = outcome.beliefs
    position = "" if item is None else f'"item": {item}, '
    if iteration is not None:
        position += f'"iteration": {iteration}, '
    abstainers = ", ".join([str(agent.value) for agent in outcome.abstainers])
    not_polled = ", ".join([str(agent.value) for agent in outcome.not_polled])
    verdict = _TRUSTWORTHY_JSON if outcome.verdict is trustworthy else _UNTRUSTWORTHY_JSON
    return (
        f'{{"abstainers": [{abstainers}], "beliefs": {{"distrust": {text(beliefs.distrust)}, '
        f'"trust": {text(beliefs.trust)}, "uncertainty": {text(beliefs.uncertainty)}}}, '
        f'"credibility_after": {{{", ".join(after)}}}, '
        f'"estimated_trust": {text(outcome.estimated_trust)}, {position}'
        f'"not_polled": [{not_polled}], "requester": {request.requester.value}, '
        f'"responders": [{", ".join(entries)}], "subject": {request.subject.value}, '
        f'"verdict": {verdict}}}'
    )
