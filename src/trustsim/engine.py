"""One recommendation round, end to end.

The engine broadcasts a request to every eligible advisor it still has budget
to ask, collects the verdicts of those who answer, fuses them into one mass
function weighted by each advisor's credibility as of collection time, decides,
and only then settles the ledgers (credibility updates for responders, answer
tallies for the incentive scheme). Reading everything before writing anything
means a round can never feed its own updates back into its own aggregation.

Advisors appear here only as opaque callables keyed by identity; whatever
behavior hides behind a callable is invisible to this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .core import AgentId, Probability, Verdict
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


@dataclass(frozen=True)
class RoundOutcome:
    """What one round produced, including who answered and who did not.

    ``responders``, ``answers`` and ``weights`` line up, in polling order:
    each advisor that answered, its verdict, and the credibility its verdict
    was weighted by (its score before the round). ``not_polled`` lists
    advisors skipped because the requester's inquiry budget toward them was
    exhausted; they are not abstainers, they were never asked.
    """

    beliefs: MassFunction
    verdict: Verdict
    estimated_trust: Probability
    responders: tuple[AgentId, ...]
    answers: tuple[Verdict, ...]
    weights: tuple[Probability, ...]
    abstainers: tuple[AgentId, ...]
    not_polled: tuple[AgentId, ...]


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

    The round works on plain values: each ledger is read or written in one
    batch call per step (``InquiryLedger.spend``, ``CredibilityLedger.scores``,
    ``CredibilityLedger.batch_update``, ``InquiryLedger.tally``), and no
    per-responder object is built beyond the masses, which responders with the
    same verdict and score share.

    ``trace`` (if given) receives the round's record as one JSON line without
    the newline (see :func:`_trace_line`) before this call returns, with
    ``iteration`` and ``item`` among its fields when they are given.
    """
    eligible = request.eligible
    if not eligible:
        raise ValueError("cannot run a round with no eligible advisors")
    requester, subject, features = request.requester, request.subject, request.subject_features
    try:
        policies = [population[advisor] for advisor in eligible]
    except KeyError as exc:
        raise ValueError(
            f"eligible advisor {exc.args[0].value} is not in the population"
        ) from None
    granted = (
        inquiries.spend(requester, eligible)
        if inquiries is not None
        else itertools.repeat(True)
    )
    scores = credibility.scores(eligible)
    responders: list[AgentId] = []
    answers: list[Verdict] = []
    weights: list[Probability] = []
    masses: list[MassFunction] = []
    abstainers: list[AgentId] = []
    not_polled: list[AgentId] = []
    # Responders share a handful of (verdict, credibility) pairs once
    # credibility saturates, so each distinct mass is built once a round.
    trusting: dict[float, MassFunction] = {}
    distrusting: dict[float, MassFunction] = {}
    trustworthy = Verdict.TRUSTWORTHY  # an enum member lookup costs ten local reads
    for advisor, respond, asked, score in zip(eligible, policies, granted, scores):
        if not asked:
            not_polled.append(advisor)
            continue
        answer = respond(subject, features)
        if answer is None:
            abstainers.append(advisor)
            continue
        built = trusting if answer is trustworthy else distrusting
        mass = built.get(score)
        if mass is None:
            mass = built[score] = mass_from_recommendation(answer, score)
        responders.append(advisor)
        answers.append(answer)
        weights.append(score)
        masses.append(mass)

    if responders:
        try:
            beliefs = combine_all(masses)
        except TotalConflict as exc:
            raise RoundFailure(
                f"total conflict aggregating {len(masses)} recommendations "
                f"about subject {subject.value}"
            ) from exc
        verdict = decide(beliefs)
        trust = estimated_trust(beliefs)
        credibility.batch_update(responders, answers, beliefs)
        if inquiries is not None:
            inquiries.tally(responders, requester)
    else:
        beliefs = VACUOUS
        verdict = Verdict.UNTRUSTWORTHY
        trust = Probability(0.5)

    outcome = RoundOutcome(
        beliefs,
        verdict,
        trust,
        tuple(responders),
        tuple(answers),
        tuple(weights),
        tuple(abstainers),
        tuple(not_polled),
    )
    if trace is not None:
        settled = credibility.scores(responders)
        trace(_trace_line(request, outcome, settled, iteration, item))
    return outcome


#: Each verdict as JSON text.
_VERDICT_JSON = {verdict: f'"{verdict.value}"' for verdict in Verdict}


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
    """
    text = float.__repr__
    verdict_json = _VERDICT_JSON
    entries = []
    after = []
    for agent, answer, weight, score in zip(
        outcome.responders, outcome.answers, outcome.weights, settled
    ):
        advisor = str(agent.value)
        entries.append(
            f'{{"advisor": {advisor}, "credibility": {text(weight)}, '
            f'"verdict": {verdict_json[answer]}}}'
        )
        after.append(f'"{advisor}": {text(score)}')
    # '"' sorts below every character of an id, so the entries sort as their ids
    after.sort()
    beliefs = outcome.beliefs
    position = "" if item is None else f'"item": {item}, '
    if iteration is not None:
        position += f'"iteration": {iteration}, '
    abstainers = ", ".join([str(agent.value) for agent in outcome.abstainers])
    not_polled = ", ".join([str(agent.value) for agent in outcome.not_polled])
    return (
        f'{{"abstainers": [{abstainers}], "beliefs": {{"distrust": {text(beliefs.distrust)}, '
        f'"trust": {text(beliefs.trust)}, "uncertainty": {text(beliefs.uncertainty)}}}, '
        f'"credibility_after": {{{", ".join(after)}}}, '
        f'"estimated_trust": {text(outcome.estimated_trust)}, {position}'
        f'"not_polled": [{not_polled}], "requester": {request.requester.value}, '
        f'"responders": [{", ".join(entries)}], "subject": {request.subject.value}, '
        f'"verdict": {verdict_json[outcome.verdict]}}}'
    )
