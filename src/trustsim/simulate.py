"""Multi-iteration attack scenarios over a synthetic or ingested population.

A scenario builds a population of advisors (a configured fraction of them
attack principals), then runs ``n_iterations`` passes in which the
recommending system asks every live identity about every evaluation item,
aggregates, decides, and settles the ledgers. The per-item error of the
estimated trust against ground truth is recorded both in the per-consulted
form (absolute error divided by the number of responders) and as the plain
absolute error; reports carry the two side by side since they answer
different questions.

Everything is a pure function of the scenario config: one seed drives data
synthesis, attacker placement and fold shuffling, so identical configs yield
byte-identical outputs.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import asdict, dataclass
from itertools import compress
from pathlib import Path
from types import NoneType
from typing import Callable, get_args, get_type_hints

import numpy as np

from .adversary import (
    AttackKind,
    camouflage_responder,
    inverting_responder,
    mark_attackers,
    sybil_expand,
    whitewash_maybe_reset,
)
from .advisor import (
    AdvisorDataset,
    AdvisorState,
    build_advisor,
    honest_responder,
)
from .core import AgentId, IdentityIssuer
from .credibility import CredibilityLedger
from .engine import (
    FusionMemo,
    Polls,
    RecommendationRequest,
    Responder,
    Roster,
    RoundOutcome,
    conclude_round,
    poll,
)
from .epinions import EpinionsData, ground_truth_trust, ingest_epinions
from .incentives import MAX_BUDGET, InquiryLedger

ATTACK_KINDS = tuple(kind.value for kind in AttackKind)

#: Ratings drawn per synthetic item to set its ground truth.
RATERS_PER_ITEM = 12


class ConfigError(ValueError):
    """A scenario configuration value is unusable; ``key`` names the culprit."""

    def __init__(self, key: str, message: str) -> None:
        super().__init__(f"{key}: {message}")
        self.key = key
        self.message = message


@dataclass
class ScenarioConfig:
    """Everything a scenario run depends on. ``seed`` is mandatory."""

    seed: int
    n_advisors: int = 20
    attacker_fraction: float = 0.3
    attack_kind: str = "none"
    sybil_count: int = 4
    switch_iteration: int = 5
    reset_period: int = 3
    n_items: int = 10
    n_iterations: int = 10
    participation_threshold: float = 0.7
    max_depth: int = 8
    min_leaf: int = 2
    k_folds: int = 10
    initial_credibility: float = 0.5
    # None = ample enough that the system's own polling never starves
    # mid-run; set explicitly to study budget exhaustion.
    initial_budget: int | None = None
    period_length: int = 1
    noise: float = 0.1
    records_per_advisor: int = 60
    n_features: int = 4
    ratings_path: str | None = None

    def validate(self) -> None:
        for name, kind in SETTING_TYPES.items():
            value = getattr(self, name)
            if kind is str or (value is None and NoneType in get_args(_HINTS[name])):
                continue
            if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
                raise ConfigError(name, f"must be an integer, got {value!r}")
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(name, f"must be a number, got {value!r}")
            if _HINTS[name] is int and name != "seed" and value < 1:
                raise ConfigError(name, "must be at least 1")
        path = self.ratings_path
        if path is not None and not isinstance(path, (str, os.PathLike)):
            raise ConfigError("ratings_path", f"must be a file path, got {path!r}")
        if self.attack_kind not in ATTACK_KINDS:
            raise ConfigError(
                "attack", f"must be one of {'|'.join(ATTACK_KINDS)}, got {self.attack_kind!r}"
            )
        if self.seed < 0:
            raise ConfigError("seed", "must be nonnegative")
        if not 0.0 <= self.attacker_fraction <= 1.0:
            raise ConfigError("attacker_fraction", "must lie in [0, 1]")
        if self.k_folds < 2:
            raise ConfigError("k_folds", "must be at least 2 (cross-validation needs two folds)")
        if self.records_per_advisor < 2:
            raise ConfigError(
                "records_per_advisor", "must be at least 2 (cross-validation needs two)"
            )
        if not 0.0 <= self.participation_threshold <= 1.0:
            raise ConfigError("participation_threshold", "must lie in [0, 1]")
        if not 0.0 <= self.initial_credibility <= 1.0:
            raise ConfigError("initial_credibility", "must lie in [0, 1]")
        if not 0.0 <= self.noise < 0.5:
            raise ConfigError("noise", "must lie in [0, 0.5)")
        if self.initial_budget is not None and self.initial_budget < 0:
            raise ConfigError("initial_budget", "must be nonnegative")
        if self.initial_budget is not None and self.initial_budget > MAX_BUDGET:
            raise ConfigError("initial_budget", "must be at most 2**62")

    def effective_budget(self) -> int:
        if self.initial_budget is not None:
            return self.initial_budget
        return self.n_items * self.n_iterations


def _setting_type(hint: object) -> type:
    """``int``, ``float`` or ``str``: a setting's annotation with ``| None`` dropped."""
    return next(t for t in get_args(hint) or (hint,) if t is not NoneType)


_HINTS = get_type_hints(ScenarioConfig)
#: Each setting's type, in field order, read from its ScenarioConfig annotation.
#: ``validate`` checks values against it and ``cli`` builds its flags from it.
SETTING_TYPES = {name: _setting_type(hint) for name, hint in _HINTS.items()}
#: The config keys that differ from the setting they set. Every other key is
#: its setting's name; ``cli`` makes each key a flag, and ``write_outputs``
#: echoes ``config.json`` under the keys, so ``--config`` reads it back.
KEY_OF_FIELD = {
    "attack_kind": "attack",
    "n_advisors": "advisors",
    "n_items": "items",
    "n_iterations": "iterations",
    "ratings_path": "ratings",
}


def mae(actual: float, estimated: float, n_advisors_consulted: int) -> float:
    """Per-consulted error: absolute difference divided by responder count."""
    if n_advisors_consulted < 1:
        raise ValueError("at least one consulted advisor is required")
    return abs(float(actual) - float(estimated)) / n_advisors_consulted


@dataclass(frozen=True)
class ItemSpec:
    """An evaluation subject: its feature vector and ground-truth trust."""

    features: tuple[float, ...]
    ground_truth: float


def synthesize_population(
    seed: int,
    n_advisors: int,
    n_items: int,
    noise: float,
    n_features: int = 4,
    records_per_advisor: int = 60,
) -> tuple[list[AdvisorDataset], list[ItemSpec]]:
    """Generate a desk-scale population with a known latent structure.

    Each record/item has a latent good-or-bad class; class-1 feature values
    land in [0.55, 0.95] and class-0 in [0.05, 0.45], so the classes are
    axis-separable at 0.5 on every dimension. Labels flip with probability
    ``noise``, which also drives dissatisfied ratings of good items (and vice
    versa), so at noise 0 every honest advisor can reach perfect accuracy.
    """
    if not 0.0 <= noise < 0.5:
        raise ValueError("noise must lie in [0, 0.5)")
    for name, n in (("n_advisors", n_advisors), ("n_items", n_items), ("n_features", n_features)):
        if n < 1:
            raise ValueError(f"{name} must be at least 1")
    if records_per_advisor < 2:
        raise ValueError("records_per_advisor must be at least 2 (cross-validation needs two)")
    rng = np.random.default_rng(seed)
    schema = tuple(f"f{i}" for i in range(n_features))

    datasets = []
    for _ in range(n_advisors):
        # Per record: class test, label-noise test, features as rng.uniform computes them.
        draw = rng.random((records_per_advisor, 2 + n_features))
        good = draw[:, 0] < 0.5
        observed = good == (draw[:, 1] >= noise)
        low = np.where(good, 0.55, 0.05)[:, None]
        features = low + ((low + 0.4) - low) * draw[:, 2:]
        datasets.append(AdvisorDataset(schema, features, observed))

    items = []
    for _ in range(n_items):
        good = bool(rng.random() < 0.5)
        ratings = []
        for _ in range(RATERS_PER_ITEM):
            satisfied = good if rng.random() >= noise else not good
            ratings.append(int(rng.integers(4, 6)) if satisfied else int(rng.integers(1, 4)))
        low = 0.55 if good else 0.05
        features = low + ((low + 0.4) - low) * rng.random(n_features)
        items.append(ItemSpec(tuple(features.tolist()), float(ground_truth_trust(ratings))))
    return datasets, items


def population_from_ratings(
    data: EpinionsData, n_advisors: int, n_items: int
) -> tuple[list[AdvisorDataset], list[ItemSpec]]:
    """Pick the best-covered users and items from ingested ratings."""
    users = sorted(data.datasets, key=lambda u: (-len(data.datasets[u]), u))
    usable = [u for u in users if len(data.datasets[u]) >= 2]
    if len(usable) < n_advisors:
        raise ConfigError(
            "advisors", f"ratings file offers {len(usable)} usable users, need {n_advisors}"
        )
    items = sorted(
        data.item_features, key=lambda i: (-data.item_features[i][1], i)
    )
    if len(items) < n_items:
        raise ConfigError(
            "items", f"ratings file offers {len(items)} items, need {n_items}"
        )
    datasets = [data.datasets[u] for u in usable[:n_advisors]]
    specs = [
        ItemSpec(data.item_features[i], data.item_truth[i]) for i in items[:n_items]
    ]
    return datasets, specs


@dataclass
class SimAgent:
    """Simulator-side bundle: the advisor plus whether it attacks. Every
    attacker of a scenario runs the scenario's attack kind."""

    state: AdvisorState
    is_attacker: bool


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    config: ScenarioConfig
    per_iteration_mae: list[tuple[int, float]]
    per_item_mae: np.ndarray
    per_item_error: np.ndarray
    summary: tuple[float, float]
    summary_plain: tuple[float, float]
    credibility_trajectories: dict[AgentId, list[float]]
    attacker_credibility: list[float]
    honest_credibility: list[float]
    skipped_cells: int
    retired_identities: list[AgentId]
    final_identities: list[AgentId]
    credibility_ledger: CredibilityLedger
    inquiry_ledger: InquiryLedger


def _responder_for(
    agent: SimAgent, kind: AttackKind, switch_iteration: int, iteration: int
) -> Responder:
    if not agent.is_attacker:
        return honest_responder(agent.state)
    if kind is AttackKind.CAMOUFLAGE:
        return camouflage_responder(agent.state, switch_iteration, iteration)
    return inverting_responder(agent.state)


def run_round(
    request: RecommendationRequest,
    roster: Roster,
    polls: Polls,
    credibility: CredibilityLedger,
    inquiries: InquiryLedger,
    trace: Callable[[str], None] | None = None,
    *,
    iteration: int,
    item: int,
    memo: FusionMemo | None = None,
) -> RoundOutcome:
    """One scenario round from the answers ``polls`` already holds.

    The system spends its inquiries toward every identity of ``roster``, as
    :func:`~trustsim.engine.run_round` does, and concludes from the answers
    of the identities it could ask: where an inquiry was refused, that
    identity is dropped from ``polls`` and listed as not polled. ``memo``
    goes to :func:`~trustsim.engine.conclude_round`. Given the same answers,
    the outcome, the ledgers and the trace line are those of
    :func:`~trustsim.engine.run_round`.
    """
    granted = inquiries.spend_distinct(roster.asks)
    if not granted.all():
        eligible = roster.eligible
        refused = {eligible[position] for position in np.flatnonzero(~granted).tolist()}
        kept = granted[polls.positions]
        keep = kept.tolist()
        polls = Polls(
            tuple(compress(polls.responders, keep)),
            tuple(compress(polls.answers, keep)),
            tuple(advisor for advisor in polls.abstainers if advisor not in refused),
            tuple(advisor for advisor in eligible if advisor in refused),
            polls.positions[kept],
            polls.trusting[kept],
        )
    return conclude_round(
        request, roster, polls, credibility, inquiries, trace,
        iteration=iteration, item=item, memo=memo,
    )


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else math.nan


def run_scenario(
    config: ScenarioConfig, trace: Callable[[str], None] | None = None
) -> ScenarioResult:
    """Run one full scenario; deterministic given the config.

    ``trace`` (if given) receives each round's trace line from ``run_round``,
    one JSON record without the newline that also holds the iteration and
    item indices.
    """
    config.validate()
    kind = AttackKind(config.attack_kind)
    rng = random.Random(config.seed)
    issuer = IdentityIssuer()
    system = issuer.fresh()

    if config.ratings_path:
        data = ingest_epinions(config.ratings_path)
        datasets, item_specs = population_from_ratings(
            data, config.n_advisors, config.n_items
        )
    else:
        datasets, item_specs = synthesize_population(
            config.seed,
            config.n_advisors,
            config.n_items,
            config.noise,
            n_features=config.n_features,
            records_per_advisor=config.records_per_advisor,
        )

    item_ids = [issuer.fresh() for _ in item_specs]

    attacker_indices = (
        mark_attackers(config.n_advisors, config.attacker_fraction, rng)
        if kind is not AttackKind.HONEST
        else set()
    )
    agents: list[SimAgent] = []
    for index, dataset in enumerate(datasets):
        state = build_advisor(
            issuer.fresh(),
            dataset,
            k=config.k_folds,
            threshold=config.participation_threshold,
            seed=rng.randrange(2**32),
            max_depth=config.max_depth,
            min_leaf=config.min_leaf,
        )
        agents.append(SimAgent(state, index in attacker_indices))

    if kind is AttackKind.SYBIL:
        for agent in [a for a in agents if a.is_attacker]:
            for fake in sybil_expand(agent.state, config.sybil_count, issuer):
                agents.append(SimAgent(fake, True))

    credibility = CredibilityLedger(config.initial_credibility)
    inquiries = InquiryLedger(config.effective_budget())

    n_items, n_iters = len(item_specs), config.n_iterations
    per_item_mae = np.full((n_items, n_iters), np.nan)
    per_item_error = np.full((n_items, n_iters), np.nan)
    trajectories: dict[AgentId, list[float]] = {}
    attacker_series: list[float] = []
    honest_series: list[float] = []
    retired: list[AgentId] = []
    skipped = 0

    for iteration in range(1, n_iters + 1):
        changed = iteration == 1 or kind is AttackKind.CAMOUFLAGE
        if kind is AttackKind.WHITEWASHING:
            for agent in agents:
                if not agent.is_attacker:
                    continue
                old = agent.state.identity
                agent.state = whitewash_maybe_reset(
                    agent.state, iteration, config.reset_period, issuer
                )
                if agent.state.identity != old:
                    credibility.drop(old)
                    inquiries.drop_agent(old)
                    retired.append(old)
                    changed = True

        # Each identity's answer to each item is polled once per population: a
        # population lasts until an identity changes (a whitewash reset) or
        # the policies do (camouflage, every iteration). Its rounds share one
        # roster and one fusion memo, which this call alone holds.
        if changed:
            memo: FusionMemo = {}
            eligible = tuple(agent.state.identity for agent in agents)
            roster = Roster.of(system, eligible, credibility, inquiries)
            policies = [
                _responder_for(agent, kind, config.switch_iteration, iteration)
                for agent in agents
            ]
            requests = [
                RecommendationRequest(system, item_id, spec.features, eligible)
                for spec, item_id in zip(item_specs, item_ids)
            ]
            polls = [
                poll(eligible, policies, request.subject, request.subject_features)
                for request in requests
            ]

        for item_index, (spec, request, item_polls) in enumerate(
            zip(item_specs, requests, polls)
        ):
            outcome = run_round(
                request, roster, item_polls, credibility, inquiries, trace,
                iteration=iteration, item=item_index, memo=memo,
            )
            if outcome.responders:
                error = abs(spec.ground_truth - float(outcome.estimated_trust))
                per_item_error[item_index, iteration - 1] = error
                per_item_mae[item_index, iteration - 1] = mae(
                    spec.ground_truth, outcome.estimated_trust, len(outcome.responders)
                )
            else:
                skipped += 1

        if iteration % config.period_length == 0:
            inquiries.replenish(
                credibility.as_map(), default_credibility=config.initial_credibility
            )

        # in agent order, so new trajectories start in issuance order (ascending id)
        scores = dict(zip(roster.eligible, credibility.scores(roster.slots).tolist()))
        for identity in scores:
            if identity not in trajectories:
                trajectories[identity] = [math.nan] * (iteration - 1)
        for identity, series in trajectories.items():
            series.append(scores.get(identity, math.nan))
        attackers = [scores[a.state.identity] for a in agents if a.is_attacker]
        honest = [scores[a.state.identity] for a in agents if not a.is_attacker]
        attacker_series.append(_mean(attackers))
        honest_series.append(_mean(honest))

    per_iteration = [
        (t + 1, float(np.nanmean(per_item_mae[:, t])) if not np.all(np.isnan(per_item_mae[:, t])) else math.nan)
        for t in range(n_iters)
    ]
    cells = per_item_mae[~np.isnan(per_item_mae)]
    plain = per_item_error[~np.isnan(per_item_error)]
    summary = (float(cells.mean()), float(cells.std())) if cells.size else (math.nan, math.nan)
    summary_plain = (
        (float(plain.mean()), float(plain.std())) if plain.size else (math.nan, math.nan)
    )
    return ScenarioResult(
        config=config,
        per_iteration_mae=per_iteration,
        per_item_mae=per_item_mae,
        per_item_error=per_item_error,
        summary=summary,
        summary_plain=summary_plain,
        credibility_trajectories=trajectories,
        attacker_credibility=attacker_series,
        honest_credibility=honest_series,
        skipped_cells=skipped,
        retired_identities=retired,
        final_identities=[agent.state.identity for agent in agents],
        credibility_ledger=credibility,
        inquiry_ledger=inquiries,
    )


def format_float(value: float) -> str:
    """A float as the run's text tables and ``trustsim report`` write it."""
    return format(value, ".10g")


def write_outputs(result: ScenarioResult, out_dir: str | Path) -> None:
    """Write the summary table, plotting series, and machine-readable summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def write(name: str, lines: list[str]) -> None:
        (out / name).write_text("\n".join(lines) + "\n", encoding="utf-8")

    config = result.config

    summary = {
        "attack": config.attack_kind,
        "seed": config.seed,
        "mae_mean": result.summary[0],
        "mae_std": result.summary[1],
        "mae_plain_mean": result.summary_plain[0],
        "mae_plain_std": result.summary_plain[1],
        "cells": int(result.per_item_mae.size - result.skipped_cells),
        "skipped": result.skipped_cells,
    }
    header = "# " + "  ".join(summary)
    row = "  ".join(
        format_float(v) if isinstance(v, float) else str(v) for v in summary.values()
    )
    write("summary.txt", [header, row])
    write("summary.json", [json.dumps(summary, indent=2, sort_keys=True)])

    series_lines = ["iteration,mean_mae,mean_attacker_credibility,mean_honest_credibility"]
    for (iteration, value), attacker, honest in zip(
        result.per_iteration_mae, result.attacker_credibility, result.honest_credibility
    ):
        series_lines.append(
            f"{iteration},{format_float(value)},{format_float(attacker)},"
            f"{format_float(honest)}"
        )
    write("series.csv", series_lines)

    matrix_lines = [
        "item," + ",".join(f"iter_{t + 1}" for t in range(result.per_item_mae.shape[1]))
    ]
    for index in range(result.per_item_mae.shape[0]):
        cells = ",".join(format_float(v) for v in result.per_item_mae[index])
        matrix_lines.append(f"{index},{cells}")
    write("per_item_mae.csv", matrix_lines)

    settings = {KEY_OF_FIELD.get(name, name): value for name, value in asdict(config).items()}
    write("config.json", [json.dumps(settings, indent=2, sort_keys=True)])
    result.credibility_ledger.save(out / "credibility.tsv")
    result.inquiry_ledger.save(out / "inquiries.tsv")
