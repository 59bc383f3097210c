"""Credibility scores the recommending system holds about its advisors.

After every aggregation round each responding advisor is rewarded or punished
according to whether its verdict converged to the aggregate decision: agreeing
advisors gain the winning belief (capped at 1), disagreeing advisors move to
the absolute difference between their score and the losing belief. Exact
belief ties change no score. Scores live in [0, 1] and newcomers start at the
ledger's initial score without ever being written implicitly.

The ledger gives each identity a dense slot the first time it meets it and
keeps the scores in a float64 vector by slot, beside a mask of the slots that
were written. A round resolves its advisors to slots once (:meth:`slots`) and
then reads and settles them in one vector operation each. The rule is applied
in one place, :meth:`CredibilityLedger.batch_update`;
:meth:`CredibilityLedger.update` is its one-element case, and
:meth:`CredibilityLedger.write` writes back scores it settled before.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import _TRUSTWORTHY, AgentId, Probability, Verdict, assign_slots, grown, repeats
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
    """Single-writer map from advisor identity to credibility score.

    A slot that was never written, or whose identity was dropped, holds the
    initial score's bits, so reading a vector of slots needs no mask.
    """

    def __init__(self, initial_score: float = 0.5) -> None:
        self.initial_score = Probability(initial_score)
        self._slot: dict[AgentId, int] = {}
        self._ids: list[AgentId] = []
        self._score = np.full(0, float(self.initial_score))
        self._written = np.zeros(0, dtype=bool)

    def __contains__(self, agent: AgentId) -> bool:
        slot = self._slot.get(agent)
        return slot is not None and bool(self._written[slot])

    def __len__(self) -> int:
        return int(np.count_nonzero(self._written))

    def slots(self, agents: Iterable[AgentId]) -> np.ndarray:
        """Each agent's slot, in order, as an int64 array; an agent met for the
        first time gets the next free slot. Nothing is written: a new slot
        reads the initial score and stays out of :meth:`as_map`."""
        found = assign_slots(agents, self._slot, self._ids)
        self._score = grown(self._score, len(self._ids), float(self.initial_score))
        self._written = grown(self._written, len(self._ids), False)
        return found

    def get(self, agent: AgentId) -> Probability:
        """Current score, or the initial score for an unknown advisor.

        Lookups never mutate the ledger, so asking about a newcomer leaves no
        trace.
        """
        slot = self._slot.get(agent)
        return self.initial_score if slot is None else Probability(self._score[slot])

    def set(self, agent: AgentId, score: float) -> None:
        value = float(Probability(score))
        (slot,) = self.slots((agent,))
        self._score[slot] = value
        self._written[slot] = True

    def drop(self, agent: AgentId) -> None:
        slot = self._slot.get(agent)
        if slot is not None:
            self._score[slot] = float(self.initial_score)
            self._written[slot] = False

    def as_map(self) -> dict[AgentId, Probability]:
        """Every written score, in slot order (the order the ledger first met
        each identity)."""
        written = np.flatnonzero(self._written)
        ids = self._ids
        return {
            ids[slot]: Probability(score)
            for slot, score in zip(written.tolist(), self._score[written].tolist())
        }

    def update(self, advisor: AgentId, given: Verdict, beliefs: MassFunction) -> Probability:
        """Settle one advisor's verdict and return its new score: the
        one-element case of :meth:`batch_update`."""
        self.batch_update((advisor,), (given,), beliefs)
        return self.get(advisor)

    def scores(self, agents: Iterable[AgentId] | np.ndarray) -> np.ndarray:
        """Each agent's :meth:`get`, in order, as a float64 array: ``agents``
        are identities, or their :meth:`slots` as an int array."""
        if isinstance(agents, np.ndarray):
            return self._score[agents]
        return np.array([self.get(agent) for agent in agents], dtype=np.float64)

    def write(self, slots: np.ndarray, scores: np.ndarray) -> None:
        """Write ``scores`` into the distinct ``slots`` they line up with and
        mark those slots written, in one vector write each. A round that
        settles exactly as an earlier one did (equal weights, answers and
        beliefs) writes back the scores :meth:`batch_update` left then."""
        self._score[slots] = scores
        self._written[slots] = True

    def batch_update(
        self,
        advisors: Sequence[AgentId] | np.ndarray,
        verdicts: Sequence[Verdict] | np.ndarray,
        beliefs: MassFunction,
    ) -> None:
        """Settle each advisor's verdict against ``beliefs``, in order.

        ``advisors`` are identities, or their :meth:`slots` as an int array;
        ``verdicts`` are verdicts, or a bool array that is True where the
        advisor said trustworthy. The two line up; when their lengths differ
        this raises ``ValueError`` before any write. An advisor listed twice is
        settled twice, from the score its first settling left, and every listed
        advisor is written even when its score does not change: an exact tie
        writes the listed advisors and changes no bit. Advisors not listed are
        untouched. Nothing else is checked here: a round's
        :class:`~trustsim.engine.RecommendationRequest` already holds one
        subject and distinct advisors, none of them the subject or requester.

        The rule runs on the whole vector at once, with the IEEE operations of
        :func:`_settled_score` (so with its bits): ``min(1, c + max)`` where the
        advisor agrees with the verdict the beliefs lean to, ``|c - min|``
        where it does not. A fancy-index write keeps one value per slot, so a
        list that repeats a slot is settled in waves, one per repetition.
        """
        if len(advisors) != len(verdicts):
            raise ValueError(
                f"{len(advisors)} advisors but {len(verdicts)} verdicts to settle"
            )
        slots = advisors if isinstance(advisors, np.ndarray) else self.slots(advisors)
        self._written[slots] = True
        trust, distrust = float(beliefs.trust), float(beliefs.distrust)
        if trust == distrust:
            return
        if isinstance(verdicts, np.ndarray):
            trusting = verdicts
        else:
            trusting = np.array([verdict is _TRUSTWORTHY for verdict in verdicts], dtype=bool)
        agree = trusting if trust > distrust else ~trusting
        wins, loses = max(trust, distrust), min(trust, distrust)
        ranks = repeats(slots)
        if ranks is None:
            self._settle(slots, agree, wins, loses)
            return
        for wave in range(int(ranks.max()) + 1):
            listed = ranks == wave
            self._settle(slots[listed], agree[listed], wins, loses)

    def _settle(self, slots: np.ndarray, agree: np.ndarray, wins: float, loses: float) -> None:
        """The rule on distinct ``slots``: ``agree`` marks those that gain."""
        scores = self._score[slots]
        gained = scores + wins
        np.minimum(gained, 1.0, out=gained)
        np.subtract(scores, loses, out=scores)
        np.abs(scores, out=scores)
        np.copyto(scores, gained, where=agree)
        self._score[slots] = scores

    def save(self, path: str | Path) -> None:
        """Write a flat two-column snapshot (agent id, score)."""
        lines = ["agent_id\tscore"]
        scores = self.as_map()
        for agent in sorted(scores):
            lines.append(f"{agent.value}\t{scores[agent]!r}")
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
