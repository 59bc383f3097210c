"""Inquiry budgets: the participation incentive.

Every agent holds a budget of inquiries it may still make toward each other
agent. Asking costs one unit; answering is tallied and pays out at period
boundaries, when each pair's budget grows by the answers given plus a
credibility-weighted bonus plus a constant drip of one. Agents that never
answer therefore accumulate almost nothing while spending on every question
they ask.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import repeat
from pathlib import Path
from typing import Iterable, Mapping

from .core import AgentId, Probability

Pair = tuple[AgentId, AgentId]


class BudgetExhausted(RuntimeError):
    """The asker has no inquiries left toward this provider."""


class InquiryLedger:
    """Tracks remaining inquiry budgets and answers given this period.

    ``budget`` is keyed by (asker, provider): how many more questions asker
    may put to provider. ``answered`` is keyed by (answerer, requester): how
    many of requester's inquiries answerer served since the last payout. Both
    sides of a pair key use the same ordering, so the pair that answers a lot
    is the pair whose budget to ask back grows.
    """

    def __init__(self, initial_budget: int = 10) -> None:
        if initial_budget < 0:
            raise ValueError("initial budget must be nonnegative")
        self.initial_budget = int(initial_budget)
        self._budget: dict[Pair, int] = {}
        self._answered: Counter[Pair] = Counter()

    def budget(self, asker: AgentId, provider: AgentId) -> int:
        return self._budget.get((asker, provider), self.initial_budget)

    def answered(self, answerer: AgentId, requester: AgentId) -> int:
        return self._answered.get((answerer, requester), 0)

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
        return self._budget[(asker, provider)]

    def record_answer(self, answerer: AgentId, requester: AgentId) -> int:
        """Tally one answer and return the pair's count this period: the
        one-element case of :meth:`tally`."""
        self.tally((answerer,), requester)
        return self._answered[(answerer, requester)]

    def spend(self, asker: AgentId, providers: Iterable[AgentId]) -> list[bool]:
        """Spend one inquiry toward each provider in turn, in one call.

        Returns, per provider, whether an inquiry was spent: ``False`` where
        the budget toward it is already 0. An exhausted pair is left as it is,
        so a lazy initial budget of 0 stays unwritten.
        """
        budget, initial = self._budget, self.initial_budget
        granted = []
        for provider in providers:
            key = (asker, provider)
            remaining = budget.get(key, initial)
            if remaining > 0:
                budget[key] = remaining - 1
            granted.append(remaining > 0)
        return granted

    def tally(self, answerers: Iterable[AgentId], requester: AgentId) -> None:
        """Count one answer of each answerer to ``requester``, in order; an
        answerer listed twice is counted twice."""
        self._answered.update(zip(answerers, repeat(requester)))

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
        specific ones regardless.
        """
        if pairs is not None:
            for asker, provider in pairs:
                self._budget.setdefault((asker, provider), self.initial_budget)
        keys = list(self._budget)
        keys.extend(k for k in self._answered if k not in self._budget)
        for key in keys:
            answerer = key[0]
            served = self._answered.get(key, 0)
            cred = float(Probability(credibility.get(answerer, default_credibility)))
            gain = served + math.ceil(served * cred) + 1
            self._budget[key] = self._budget.get(key, self.initial_budget) + gain
        self._answered.clear()

    def drop_agent(self, agent: AgentId) -> None:
        """Forget every pair involving ``agent`` (identity retirements)."""
        self._budget = {k: v for k, v in self._budget.items() if agent not in k}
        self._answered = Counter({k: v for k, v in self._answered.items() if agent not in k})

    def save(self, path: str | Path) -> None:
        """Flat three-column snapshot of budgets and open answer tallies."""
        lines = ["kind\tfrom\tto\tcount"]
        for kind, counts in (("budget", self._budget), ("answered", self._answered)):
            for a, b in sorted(counts):
                lines.append(f"{kind}\t{a.value}\t{b.value}\t{counts[(a, b)]}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path, initial_budget: int = 10) -> "InquiryLedger":
        ledger = cls(initial_budget)
        for line in Path(path).read_text(encoding="utf-8").splitlines()[1:]:
            if not line.strip():
                continue
            kind, raw_a, raw_b, raw_count = line.split("\t")
            key = (AgentId(int(raw_a)), AgentId(int(raw_b)))
            if kind == "budget":
                ledger._budget[key] = int(raw_count)
            elif kind == "answered":
                ledger._answered[key] = int(raw_count)
            else:
                raise ValueError(f"unknown snapshot row kind {kind!r}")
        return ledger

