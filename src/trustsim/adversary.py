"""Attacker behavior models, implemented as wrappers around honest advisors.

Dishonesty is verdict inversion, the strongest promote/demote policy: whatever
the advisor's own classifier would honestly answer, an attacking identity
reports the opposite. The three attacks differ only in when they invert and
how they manage identities:

* sybil: one principal fans out into several fresh fake identities, all
  voting the inverted verdict from round one;
* camouflage: answer honestly to build up credibility, then invert from a
  configured iteration onward;
* whitewashing: invert always, and periodically discard the (by then tainted)
  identity to re-enter as a newcomer.

Everything engine-side stays unaware of these attacks; only the simulator
sees them.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import Sequence

from .advisor import AdvisorState
from .core import AgentId, IdentityIssuer, Verdict
from .tree import predict


class AttackKind(Enum):
    HONEST = "none"
    SYBIL = "sybil"
    CAMOUFLAGE = "camouflage"
    WHITEWASHING = "whitewashing"


def dishonest_verdict(advisor: AdvisorState, subject_features: Sequence[float]) -> Verdict:
    """The inversion policy. Attackers skip the self-withdrawal step: staying
    in the round is the whole point of attacking, so the classifier is used
    even when the advisor's self-assessment said to abstain."""
    return predict(advisor.tree, subject_features).inverted()


def camouflage_verdict(
    honest: Verdict, current_iteration: int, switch_iteration: int
) -> Verdict:
    """Honest before the switch iteration, inverted from it onward."""
    if current_iteration < 1 or switch_iteration < 1:
        raise ValueError("iterations count from 1")
    if current_iteration < switch_iteration:
        return honest
    return honest.inverted()


def sybil_expand(
    attacker: AdvisorState, count: int, issuer: IdentityIssuer
) -> list[AdvisorState]:
    """Create ``count`` fake identities controlled by ``attacker``.

    Fakes share the principal's tree and assessment; each gets a fresh id.
    They enter the population as newcomers, so the credibility ledger sees
    them at its initial score.
    """
    if count < 1:
        raise ValueError("a sybil expansion needs at least one fake identity")
    return [
        AdvisorState(issuer.fresh(), attacker.tree, attacker.assessment)
        for _ in range(count)
    ]


def whitewash_maybe_reset(
    attacker: AdvisorState,
    current_iteration: int,
    reset_period: int,
    issuer: IdentityIssuer,
) -> AdvisorState:
    """At every ``reset_period``-th iteration, retire the current identity and
    return the same advisor under a fresh one. Otherwise return the state
    unchanged."""
    if reset_period < 1:
        raise ValueError("reset period must be positive")
    if current_iteration % reset_period != 0:
        return attacker
    return AdvisorState(issuer.fresh(), attacker.tree, attacker.assessment)


def inverting_responder(advisor: AdvisorState):
    """Responder that always answers, always inverted (sybil, whitewashing)."""

    def respond(subject: AgentId, subject_features: Sequence[float]) -> Verdict | None:
        return dishonest_verdict(advisor, subject_features)

    return respond


def camouflage_responder(advisor: AdvisorState, switch_iteration: int, current_iteration: int):
    """Responder that plays honest until the switch iteration, then inverts.

    Always answers: a camouflage attacker will not volunteer to sit out."""

    def respond(subject: AgentId, subject_features: Sequence[float]) -> Verdict | None:
        honest = predict(advisor.tree, subject_features)
        return camouflage_verdict(honest, current_iteration, switch_iteration)

    return respond


def mark_attackers(n_advisors: int, fraction: float, rng: random.Random) -> set[int]:
    """Choose exactly round(fraction * n) advisor indices as attack principals."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("attacker fraction must lie in [0, 1]")
    count = round(fraction * n_advisors)
    return set(rng.sample(range(n_advisors), count))
