"""Credibility scores the recommending system holds about its advisors.

After every aggregation round each responding advisor is rewarded or punished
according to whether its verdict converged to the aggregate decision: agreeing
advisors gain the winning belief (capped at 1), disagreeing advisors move to
the absolute difference between their score and the losing belief. Exact
belief ties update nobody. Scores live in [0, 1] and newcomers start at the
ledger's initial score without ever being written implicitly.

The rule is applied in one place, :meth:`CredibilityLedger.batch_update`;
:meth:`CredibilityLedger.update` is its one-element case.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from .core import AgentId, Probability, Verdict
from .dst import MassFunction


def _settled_score(score: float, said_trust: bool, trust: float, distrust: float) -> float:
    """The convergence/divergence rule on plain floats.

    The increment on agreement is the larger of the two directional beliefs;
    the divergence branch takes the absolute difference with the smaller one,
    which keeps the result in [0, 1] but can raise a very low score when the
    losing belief exceeds twice of it. That quirk is kept as designed rather
    than floored away. An exact tie leaves the score as it is.
    """
    if trust == distrust:
        return score
    if said_trust == (trust > distrust):
        return min(1.0, score + max(trust, distrust))
    return abs(score - min(trust, distrust))


class CredibilityLedger:
    """Single-writer map from advisor identity to credibility score."""

    def __init__(self, initial_score: float = 0.5) -> None:
        self.initial_score = Probability(initial_score)
        self._scores: dict[AgentId, Probability] = {}

    def __contains__(self, agent: AgentId) -> bool:
        return agent in self._scores

    def __len__(self) -> int:
        return len(self._scores)

    def get(self, agent: AgentId) -> Probability:
        """Current score, or the initial score for an unknown advisor.

        Lookups never mutate the ledger, so asking about a newcomer leaves no
        trace.
        """
        return self._scores.get(agent, self.initial_score)

    def set(self, agent: AgentId, score: float) -> None:
        self._scores[agent] = Probability(score)

    def drop(self, agent: AgentId) -> None:
        self._scores.pop(agent, None)

    def as_map(self) -> dict[AgentId, Probability]:
        return dict(self._scores)

    def update(self, advisor: AgentId, given: Verdict, beliefs: MassFunction) -> Probability:
        """Settle one advisor's verdict and return its new score: the
        one-element case of :meth:`batch_update`."""
        self.batch_update((advisor,), (given,), beliefs)
        return self._scores[advisor]

    def scores(self, agents: Iterable[AgentId]) -> list[Probability]:
        """Each agent's :meth:`get`, in order, in one call."""
        scores, initial = self._scores, self.initial_score
        return [scores.get(agent, initial) for agent in agents]

    def batch_update(
        self, advisors: Sequence[AgentId], verdicts: Sequence[Verdict], beliefs: MassFunction
    ) -> None:
        """Settle each advisor's verdict against ``beliefs``, in order.

        ``advisors`` and ``verdicts`` line up; when their lengths differ this
        raises ``ValueError`` before any write. An advisor listed twice is
        settled twice, from the score its first settling left, and every listed
        advisor's score is written even when it does not change. Advisors not
        listed are untouched. Nothing else is checked here: a round's
        :class:`~trustsim.engine.RecommendationRequest` already holds one
        subject and distinct advisors, none of them the subject or requester.

        The new score depends only on the old score and the verdict, and once
        credibility saturates a round's responders share two to four such
        pairs, so each distinct pair is settled once. Scores that compare
        equal (-0.0 and 0.0 included) settle to the same bits unless the
        beliefs tie exactly; a tie leaves every score as it is, bits and all,
        so it settles nothing.
        """
        if len(advisors) != len(verdicts):
            raise ValueError(
                f"{len(advisors)} advisors but {len(verdicts)} verdicts to settle"
            )
        trust, distrust = float(beliefs.trust), float(beliefs.distrust)
        scores, initial = self._scores, self.initial_score
        if trust == distrust:
            for advisor in advisors:
                scores[advisor] = scores.get(advisor, initial)
            return
        # the settled score of each distinct old score, per verdict
        trusting: dict[float, Probability] = {}
        distrusting: dict[float, Probability] = {}
        trustworthy = Verdict.TRUSTWORTHY  # an enum member lookup costs ten local reads
        for advisor, verdict in zip(advisors, verdicts):
            score = scores.get(advisor, initial)
            said_trust = verdict is trustworthy
            settled = trusting if said_trust else distrusting
            new = settled.get(score)
            if new is None:
                new = settled[score] = Probability(
                    _settled_score(score, said_trust, trust, distrust)
                )
            scores[advisor] = new

    def save(self, path: str | Path) -> None:
        """Write a flat two-column snapshot (agent id, score)."""
        lines = ["agent_id\tscore"]
        for agent in sorted(self._scores):
            lines.append(f"{agent.value}\t{self._scores[agent]!r}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path, initial_score: float = 0.5) -> "CredibilityLedger":
        ledger = cls(initial_score)
        text = Path(path).read_text(encoding="utf-8").splitlines()
        for line in text[1:]:
            if not line.strip():
                continue
            raw_id, raw_score = line.split("\t")
            ledger.set(AgentId(int(raw_id)), float(raw_score))
        return ledger
