"""Evidence aggregation over the frame {trustworthy, untrustworthy, uncertain}.

Each collected recommendation becomes a mass function that puts the advisor's
credibility behind the reported verdict and the remainder on uncertainty.
Masses are fused with Dempster's rule of combination: agreeing evidence
reinforces, conflicting evidence is discarded, and the rest is renormalised.
The upshot is that a few highly credible advisors can outweigh a crowd of
barely credible ones, which is the whole point of weighting by credibility.

All functions here are pure and operate on immutable values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .core import _TRUSTWORTHY, _UNTRUSTWORTHY, Probability, Verdict, as_probability

# Tolerance for the "components sum to one" invariant.
SUM_TOLERANCE = 1e-9

# Credibility is clamped just below 1 so that two fully credible advisors who
# contradict each other cannot produce total conflict (normaliser of zero).
CREDIBILITY_CAP = 1.0 - 1e-6

# Below this, the normaliser is numerically meaningless and combination fails.
MIN_NORMALISER = 1e-12

# Denominators smaller than this are treated as "no directional evidence".
_TRUST_DENOM_FLOOR = 1e-12


class TotalConflict(ArithmeticError):
    """All combined evidence was mutually contradictory; nothing survives."""


class EmptyEvidence(ValueError):
    """Combination was requested over an empty collection of masses."""


@dataclass(frozen=True)
class MassFunction:
    """Basic probability assignment over the frame: one piece of evidence, or
    the fused beliefs that combining several of them yields.

    ``trust`` backs the trustworthy hypothesis, ``distrust`` the untrustworthy
    one, and ``uncertainty`` is the mass left on "either could be true".
    Components that are not a :class:`Probability` yet are wrapped in one;
    components that already are one are kept as they are.
    """

    trust: Probability
    distrust: Probability
    uncertainty: Probability

    def __post_init__(self) -> None:
        for name in ("trust", "distrust", "uncertainty"):
            object.__setattr__(self, name, as_probability(getattr(self, name)))
        total = self.trust + self.distrust + self.uncertainty
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"components must sum to 1, got {total!r}")


_ZERO = Probability(0.0)

#: Pure uncertainty: no evidence either way. A round in which every advisor
#: abstains reports it as its beliefs.
VACUOUS = MassFunction(_ZERO, _ZERO, Probability(1.0))


def mass_from_recommendation(verdict: Verdict, credibility: float) -> MassFunction:
    """Turn a single verdict into a mass function weighted by credibility.

    The advisor's credibility goes on the reported hypothesis and the rest on
    uncertainty, after clamping credibility to :data:`CREDIBILITY_CAP`.
    """
    lam = min(float(as_probability(credibility)), CREDIBILITY_CAP)
    backed, rest = Probability(lam), Probability(1.0 - lam)
    if verdict is _TRUSTWORTHY:
        return MassFunction(backed, _ZERO, rest)
    return MassFunction(_ZERO, backed, rest)


def _rescaled(
    trust: float, distrust: float, uncertainty: float
) -> tuple[float, float, float]:
    """The triple divided by its sum; a triple that sums to exactly 1 is
    returned as it is.

    Callers pass components in [0, 1] summing to within
    :data:`SUM_TOLERANCE` of 1. Each component is at most the float sum and
    division rounds monotonically, so every quotient stays in [0, 1] and the
    quotients sum to 1 within a few ulps: the result needs no check.
    """
    total = trust + distrust + uncertainty
    if total == 1.0:
        return trust, distrust, uncertainty
    return trust / total, distrust / total, uncertainty / total


def _fold(
    trust: float, distrust: float, uncertainty: float, masses: Iterable[MassFunction]
) -> tuple[float, float, float]:
    """Dempster's rule applied to a (trust, distrust, uncertainty) triple and
    each of ``masses`` in turn; the result of the last step is returned.

    Mass assigned to contradictory hypothesis pairs (one source says
    trustworthy, the other untrustworthy) is the conflict; the surviving mass
    is renormalised by one minus the conflict. Every step raises
    :class:`TotalConflict` when essentially everything conflicts, and
    ``ValueError`` when its result is not a distribution. The arithmetic is
    grouped so that swapping the two operands of a step gives a bitwise
    identical result.

    A step's result that does not sum to exactly 1 is rescaled for the next
    step (:func:`_rescaled`; the last step's rescaled copy goes unused):
    intermediate results drift from 1 by rounding noise, heavy conflict
    amplifies that drift through the small normaliser, and it compounds
    across steps if left in place. The rule is written out inline, so a step
    makes no function call unless it drifted.
    """
    t, d, u = trust, distrust, uncertainty
    for mass in masses:
        bt, bd, bu = mass.trust, mass.distrust, mass.uncertainty
        conflict = trust * bd + distrust * bt
        normaliser = 1.0 - conflict
        if normaliser <= MIN_NORMALISER:
            raise TotalConflict(f"conflict {conflict!r} leaves no usable evidence")
        t = (trust * bt + (trust * bu + uncertainty * bt)) / normaliser
        d = (distrust * bd + (distrust * bu + uncertainty * bd)) / normaliser
        u = (uncertainty * bu) / normaliser
        # min(1.0, x), spelled out to save three builtin calls a step
        t = t if t < 1.0 else 1.0
        d = d if d < 1.0 else 1.0
        u = u if u < 1.0 else 1.0
        if not (0.0 <= t <= 1.0 and 0.0 <= d <= 1.0 and 0.0 <= u <= 1.0):
            raise ValueError(f"probability must lie in [0, 1], got {(t, d, u)!r}")
        total = t + d + u
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"components must sum to 1, got {total!r}")
        if total == 1.0:
            trust, distrust, uncertainty = t, d, u
        else:
            trust, distrust, uncertainty = _rescaled(t, d, u)
    return t, d, u


def combine(a: MassFunction, b: MassFunction) -> MassFunction:
    """Fuse two mass functions with Dempster's rule (one step of :func:`_fold`).

    ``combine(a, b)`` and ``combine(b, a)`` are bitwise identical.
    """
    return MassFunction(*_fold(a.trust, a.distrust, a.uncertainty, (b,)))


def combine_all(masses: Iterable[MassFunction]) -> MassFunction:
    """Left-fold of pairwise combination over an ordered collection.

    Dempster's rule is associative and commutative on this frame, so the fold
    order does not change the result (beyond float noise); a singleton input
    is returned as it is.

    The fold runs on plain floats (:func:`_fold`) and builds one
    :class:`MassFunction` at the end. The first mass is rescaled like every
    later intermediate result before the first step, so the result is bit for
    bit that of ``combine`` applied pairwise to rescaled triples.
    """
    masses = list(masses)
    if not masses:
        raise EmptyEvidence("cannot combine an empty collection of masses")
    first = masses[0]
    if len(masses) == 1:
        return first
    trust, distrust, uncertainty = _rescaled(first.trust, first.distrust, first.uncertainty)
    return MassFunction(
        *_fold(trust, distrust, uncertainty, itertools.islice(masses, 1, None))
    )


def decide(beliefs: MassFunction) -> Verdict:
    """Final verdict: trustworthy only when belief in trust strictly wins.

    Ties fall to untrustworthy, the conservative outcome for a trust decision.
    """
    if beliefs.trust > beliefs.distrust:
        return _TRUSTWORTHY
    return _UNTRUSTWORTHY


def estimated_trust(beliefs: MassFunction) -> Probability:
    """Scalar trust estimate in [0, 1]: belief in trust renormalised against
    the directional evidence, with pure uncertainty mapping to 0.5."""
    denom = beliefs.trust + beliefs.distrust
    if denom > _TRUST_DENOM_FLOOR:
        return Probability(beliefs.trust / denom)
    return Probability(0.5)
