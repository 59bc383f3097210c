"""Inquiry budgets: the participation incentive.

Every agent holds a budget of inquiries it may still make toward each other
agent. Asking costs one unit; answering is tallied and pays out at period
boundaries, when each pair's budget grows by the answers given plus a
credibility-weighted bonus plus a constant drip of one. Agents that never
answer therefore accumulate almost nothing while spending on every question
they ask.

The ledger gives each (asker, provider) pair a dense slot the first time it
meets it, and keeps budgets and answer counts in int64 vectors by slot. A round
resolves its pairs to slots once (:meth:`InquiryLedger.slots`) and then spends
and tallies them in one vector operation each.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .core import AgentId, Probability, assign_slots, grown, repeats

Pair = tuple[AgentId, AgentId]

#: The largest initial budget a ledger takes. Budgets are int64; this leaves
#: room for 2**62 more inquiries of growth, far beyond what any run pays out.
MAX_BUDGET = 2**62


class BudgetExhausted(RuntimeError):
    """The asker has no inquiries left toward this provider."""


class InquiryLedger:
    """Tracks remaining inquiry budgets and answers given this period.

    ``budget`` is kept by (asker, provider): how many more questions asker
    may put to provider. ``answered`` is kept by (answerer, requester): how
    many of requester's inquiries answerer served since the last payout. Both
    use the same ordering and the same slot, so the pair that answers a lot
    is the pair whose budget to ask back grows.

    A budget is written once an inquiry is spent on it or a payout reaches
    it; an unwritten slot, or one whose agent was dropped, holds the initial
    budget and counts no answers. Only written budgets and nonzero counts
    appear in :meth:`as_maps` and the snapshot.
    """

    def __init__(self, initial_budget: int = 10) -> None:
        if initial_budget < 0:
            raise ValueError("initial budget must be nonnegative")
        if initial_budget > MAX_BUDGET:
            raise ValueError(f"initial budget must be at most 2**62, got {initial_budget}")
        self.initial_budget = int(initial_budget)
        self._slot: dict[Pair, int] = {}
        self._pairs: list[Pair] = []
        self._budget = np.zeros(0, dtype=np.int64)
        self._written = np.zeros(0, dtype=bool)
        self._answered = np.zeros(0, dtype=np.int64)

    def slots(self, pairs: Iterable[Pair]) -> np.ndarray:
        """Each pair's slot, in order, as an int64 array; a pair met for the
        first time gets the next free slot. Nothing is written."""
        found = assign_slots(pairs, self._slot, self._pairs)
        count = len(self._pairs)
        self._budget = grown(self._budget, count, self.initial_budget)
        self._written = grown(self._written, count, False)
        self._answered = grown(self._answered, count, 0)
        return found

    def budget(self, asker: AgentId, provider: AgentId) -> int:
        slot = self._slot.get((asker, provider))
        return self.initial_budget if slot is None else int(self._budget[slot])

    def answered(self, answerer: AgentId, requester: AgentId) -> int:
        slot = self._slot.get((answerer, requester))
        return 0 if slot is None else int(self._answered[slot])

    def consume(self, asker: AgentId, provider: AgentId) -> int:
        """Spend one inquiry; returns the remaining budget: the one-element
        case of :meth:`spend`.

        A zero budget raises :class:`BudgetExhausted`, which callers treat as
        "cannot ask this advisor right now".
        """
        if not self.spend(asker, (provider,))[0]:
            raise BudgetExhausted(
                f"agent {asker.value} has no inquiries left toward {provider.value}"
            )
        return self.budget(asker, provider)

    def record_answer(self, answerer: AgentId, requester: AgentId) -> int:
        """Tally one answer and return the pair's count this period: the
        one-element case of :meth:`tally`."""
        self.tally((answerer,), requester)
        return self.answered(answerer, requester)

    def spend(self, asker: AgentId, providers: Iterable[AgentId]) -> list[bool]:
        """Spend one inquiry toward each provider in turn, in one call:
        :meth:`spend_slots` on the pairs (asker, provider)."""
        return self.spend_slots(self.slots((asker, provider) for provider in providers)).tolist()

    def spend_slots(self, slots: np.ndarray) -> np.ndarray:
        """Spend one inquiry on each pair slot in turn; per slot, a bool array
        of whether an inquiry was spent: ``False`` where the budget is already
        0. An exhausted pair is left as it is, so a budget of 0 stays
        unwritten. A slot listed twice is spent twice, so where its budget
        runs out partway through the list, its later listings are refused.
        """
        ranks = repeats(slots)
        if ranks is None:
            return self.spend_distinct(slots)
        granted = self._budget[slots] > ranks
        paid = slots[granted]
        np.subtract.at(self._budget, paid, 1)
        self._written[paid] = True
        return granted

    def spend_distinct(self, slots: np.ndarray) -> np.ndarray:
        """:meth:`spend_slots` on slots that are distinct, such as a roster's,
        without looking for repeats."""
        granted = self._budget[slots] > 0
        paid = slots[granted]
        self._budget[paid] -= 1
        self._written[paid] = True
        return granted

    def tally(self, answerers: Iterable[AgentId], requester: AgentId) -> None:
        """Count one answer of each answerer to ``requester``, in order; an
        answerer listed twice is counted twice: :meth:`tally_slots` on the
        pairs (answerer, requester)."""
        self.tally_slots(self.slots((answerer, requester) for answerer in answerers))

    def tally_slots(self, slots: np.ndarray) -> None:
        """Count one answer on each pair slot; a slot listed twice counts twice."""
        np.add.at(self._answered, slots, 1)

    def replenish(
        self,
        credibility: Mapping[AgentId, float],
        default_credibility: float = 0.5,
        pairs: Iterable[Pair] | None = None,
    ) -> None:
        """Period-boundary payout, then reset of the answer tallies.

        For each pair (x, s) the budget of x toward s grows by
        ``answers + ceil(answers * credibility_of_x) + 1``, where ``answers``
        is what x answered for s this period. Pairs with no recorded activity
        sit at the lazy initial budget; pass ``pairs`` to materialise and pay
        specific ones regardless. Only a pair that answered reads its
        answerer's credibility: the others earn the drip alone.
        """
        if pairs is not None:
            listed = self.slots(pairs)  # may grow the vectors, so first
            self._written[listed] = True
        count = len(self._pairs)
        answered = self._answered[:count]
        paid = np.flatnonzero(self._written[:count] | (answered != 0))
        served = answered[paid]
        earned = served + 1
        busy = np.flatnonzero(served)
        if len(busy):
            answerers = [self._pairs[slot][0] for slot in paid[busy].tolist()]
            weights = np.array(
                [
                    float(Probability(credibility.get(answerer, default_credibility)))
                    for answerer in answerers
                ]
            )
            earned[busy] += np.ceil(served[busy] * weights).astype(np.int64)
        self._budget[paid] += earned
        self._written[paid] = True
        self._answered[:] = 0

    def drop_agent(self, agent: AgentId) -> None:
        """Forget every pair involving ``agent`` (identity retirements)."""
        dropped = [slot for slot, pair in enumerate(self._pairs) if agent in pair]
        self._budget[dropped] = self.initial_budget
        self._written[dropped] = False
        self._answered[dropped] = 0

    def as_maps(self) -> tuple[dict[Pair, int], dict[Pair, int]]:
        """The written budgets and the open answer tallies, each by pair, in
        slot order (the order the ledger first met each pair)."""
        count = len(self._pairs)
        maps = []
        for values, listed in (
            (self._budget, self._written[:count]),
            (self._answered, self._answered[:count] != 0),
        ):
            slots = np.flatnonzero(listed)
            maps.append(dict(zip([self._pairs[s] for s in slots.tolist()], values[slots].tolist())))
        return maps[0], maps[1]

    def save(self, path: str | Path) -> None:
        """Flat three-column snapshot of budgets and open answer tallies."""
        lines = ["kind\tfrom\tto\tcount"]
        for kind, counts in zip(("budget", "answered"), self.as_maps()):
            for a, b in sorted(counts):
                lines.append(f"{kind}\t{a.value}\t{b.value}\t{counts[(a, b)]}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path, initial_budget: int = 10) -> "InquiryLedger":
        """The ledger a snapshot describes; an ``answered`` row of 0 is no row."""
        ledger = cls(initial_budget)
        for line in Path(path).read_text(encoding="utf-8").splitlines()[1:]:
            if not line.strip():
                continue
            kind, raw_a, raw_b, raw_count = line.split("\t")
            if kind not in ("budget", "answered"):
                raise ValueError(f"unknown snapshot row kind {kind!r}")
            (slot,) = ledger.slots([(AgentId(int(raw_a)), AgentId(int(raw_b)))])
            if kind == "budget":
                ledger._budget[slot] = int(raw_count)
                ledger._written[slot] = True
            else:
                ledger._answered[slot] = int(raw_count)
        return ledger
