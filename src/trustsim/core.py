"""Shared vocabulary for the trust engine: identities, verdicts, probabilities.

Everything here is an immutable value object, safe to share between threads
and to use as dictionary keys. Identity issuance goes through a single
:class:`IdentityIssuer` so that runs are reproducible.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Hashable, Iterable, NamedTuple

import numpy as np


class Probability(float):
    """A float constrained to [0, 1]; construction outside the range fails."""

    __slots__ = ()

    def __new__(cls, value: float) -> "Probability":
        v = float(value)
        if math.isnan(v) or not 0.0 <= v <= 1.0:
            raise ValueError(f"probability must lie in [0, 1], got {value!r}")
        return super().__new__(cls, v)


def as_probability(value: float) -> Probability:
    """``value`` itself when it is already a :class:`Probability`, else a
    validated one; values that were checked once are not checked again."""
    if isinstance(value, Probability):
        return value
    return Probability(value)


class Verdict(Enum):
    """Binary recommendation outcome.

    There is deliberately no third value: uncertainty is expressed inside
    mass functions, never at the level of an individual recommendation.
    """

    TRUSTWORTHY = "T"
    UNTRUSTWORTHY = "N"

    # Members are singletons compared by identity, so they hash by identity,
    # in C; ``Enum.__hash__`` hashes the name in Python, about fourteen times
    # slower on a round's tuple of answers.
    __hash__ = object.__hash__

    def inverted(self) -> "Verdict":
        return _UNTRUSTWORTHY if self is _TRUSTWORTHY else _TRUSTWORTHY


# read through the class, a member costs about ten times a module global
_TRUSTWORTHY, _UNTRUSTWORTHY = Verdict.TRUSTWORTHY, Verdict.UNTRUSTWORTHY


class AgentId(NamedTuple):
    """Opaque agent identity.

    It carries nothing but its number: attacks work precisely because the
    defender cannot see who controls which identity. A named tuple hashes and
    compares in C, and ``hash(AgentId(v)) == hash((v,))``.
    """

    value: int


class IdentityIssuer:
    """Issues unique agent ids from a monotone counter.

    Two runs that issue ids in the same order get the same sequence, which is
    what makes seeded simulations byte-reproducible.
    """

    def __init__(self) -> None:
        self._next = 0

    def fresh(self) -> AgentId:
        agent = AgentId(self._next)
        self._next += 1
        return agent


# ---------------------------------------------------------------------------
# slot vectors: the ledgers keep one entry per identity (or pair) in numpy
# vectors, indexed by a dense slot
# ---------------------------------------------------------------------------


def assign_slots(keys: Iterable[Hashable], slot: dict, known: list) -> np.ndarray:
    """Each key's slot in ``slot``, in order, as an int64 array; a key met for
    the first time gets the next slot, ``len(known)``, and joins ``known``."""
    found = []
    for key in keys:
        index = slot.get(key)
        if index is None:
            index = slot[key] = len(known)
            known.append(key)
        found.append(index)
    return np.array(found, dtype=np.int64)


def grown(vector: np.ndarray, size: int, fill: object) -> np.ndarray:
    """``vector`` if it holds ``size`` entries, else a copy at least twice as
    long whose new entries are ``fill``."""
    if size <= len(vector):
        return vector
    extra = max(size, 2 * len(vector)) - len(vector)
    return np.concatenate((vector, np.full(extra, fill, dtype=vector.dtype)))


def repeats(slots: np.ndarray) -> np.ndarray | None:
    """How many times each entry of ``slots`` already appeared before it, or
    None when no value appears twice.

    A fancy-index write that names a slot twice keeps only the last value, so
    a ledger applies a list that repeats a slot in waves: first every entry
    whose rank here is 0, then every entry ranked 1, and so on.
    """
    if len(slots) < 2 or np.bincount(slots).max() < 2:
        return None
    order = np.argsort(slots, kind="stable")
    ranked = slots[order]
    ranks = np.empty(len(slots), dtype=np.int64)
    ranks[order] = np.arange(len(slots)) - np.searchsorted(ranked, ranked)
    return ranks
