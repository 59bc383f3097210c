"""Spans and counts recorded around trustsim's layers, from outside the package.

``instrument`` swaps the public functions each module calls across a layer
boundary (and the ledger methods) for wrappers that record a span: name,
start, end and the span open when it began. It puts every original back when
the block exits, so untraced runs in the same process run the bare package and
no file under ``src/`` changes. Spans stay in flat in-memory arrays until the
run ends. Exact counts (rows fitted, nodes grown, masses fused, ``Probability``
floats built, ...) are taken at the same boundaries.
"""

from __future__ import annotations

import contextlib
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from trustsim import adversary, advisor, cli, core, dst, engine, simulate
from trustsim.credibility import CredibilityLedger
from trustsim.incentives import InquiryLedger

#: Units of the per-layer metrics, by name. ``layer_metrics`` gives those
#: taken from spans and counts; the harness adds ``cli.*`` (from the files
#: the CLI wrote) and ``trace.*`` (traced against untraced scenario time).
LAYER_UNITS = {
    "tree.fit.calls": "count",
    "tree.fit.s": "s",
    "tree.fit.rows": "count",
    "tree.fit.nodes": "count",
    "tree.predict.calls": "count",
    "tree.predict.s": "s",
    "advisor.build_advisor.s": "s",
    "advisor.self_assess.s": "s",
    "advisor.participation_ratio": "ratio",
    "engine.run_round.calls": "count",
    "engine.run_round.s": "s",
    "engine.run_round.self_s": "s",
    "engine.responders": "count",
    "engine.abstainers": "count",
    "engine.not_polled": "count",
    "engine.round_failures": "count",
    "adversary.responder.calls": "count",
    "adversary.responder.s": "s",
    "dst.combine_all.calls": "count",
    "dst.combine_all.s": "s",
    "dst.combine.calls": "count",
    "dst.masses_fused": "count",
    "dst.mass_from_recommendation.s": "s",
    "core.probability.constructed": "count",
    "credibility.batch_update.s": "s",
    "credibility.updates": "count",
    "incentives.consume.calls": "count",
    "incentives.consume.s": "s",
    "incentives.budget_exhausted": "count",
    "incentives.record_answer.s": "s",
    "incentives.replenish.s": "s",
    "incentives.drop_agent.calls": "count",
    "epinions.ingest_epinions.s": "s",
    "epinions.reviews": "count",
    "epinions.max_item_raters": "count",
    "simulate.synthesize_population.s": "s",
    "simulate.population_from_ratings.s": "s",
    "simulate.write_outputs.s": "s",
    "simulate.scenario.self_s": "s",
    "cli.trace_bytes": "bytes",
    "cli.trace_records": "count",
    "cli.output_bytes": "bytes",
    "trace.scenario_s": "s",
    "trace.untraced_scenario_s": "s",
}

#: Span of the whole scenario; the harness opens it around the entry call.
SCENARIO = "simulate.scenario"


class SpanRecorder:
    """Spans in flat arrays (name id, parent index, start, end) plus exact counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` recording one span per call.

        ``after(result, args)`` runs once the span has closed, so the counts it
        takes are not charged to the span. An exception is counted under
        ``<name>.raised`` and re-raised.
        """
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        open_spans, counts = self._open, self.counts

        def wrapped(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0.0)
            open_spans.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[f"{name}.raised"] += 1
                raise
            finally:
                ends[index] = perf_counter()
                open_spans.pop()
            if after is not None:
                after(result, args)
            return result

        return wrapped

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        names = np.asarray(self.name, dtype=np.int64)
        parents = np.asarray(self.parent, dtype=np.int64)
        durations = np.asarray(self.end) - np.asarray(self.start)
        nested = parents >= 0
        children = np.bincount(parents[nested], weights=durations[nested], minlength=durations.size)
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        total = np.bincount(names, weights=durations, minlength=width)
        own = np.bincount(names, weights=durations - children, minlength=width)
        return {
            name: (int(calls[i]), float(total[i]), float(own[i]))
            for i, name in enumerate(self.names)
        }

    def save(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.asarray(self.name),
            parent=np.asarray(self.parent),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )


def _count_nodes(tree) -> int:
    stack, nodes = [tree.root], 0
    while stack:
        node = stack.pop()
        nodes += 1
        if hasattr(node, "left"):
            stack.extend((node.left, node.right))
    return nodes


@contextlib.contextmanager
def instrument(recorder: SpanRecorder):
    """Record spans and counts at trustsim's layer boundaries inside the block."""
    counts = recorder.counts
    saved: list[tuple[object, str, object]] = []

    def replace(owner, attr: str, value) -> None:
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def span(owner, attr: str, name: str, after=None) -> None:
        replace(owner, attr, recorder.wrap(name, vars(owner)[attr], after))

    def fitted(tree, args) -> None:
        counts["tree.fit.rows"] += len(args[0])
        counts["tree.fit.nodes"] += _count_nodes(tree)

    def built(state, args) -> None:
        counts["advisor.built"] += 1
        counts["advisor.participating"] += bool(state.assessment.participate)

    def settled(outcome, args) -> None:
        counts["engine.responders"] += len(outcome.responders)
        counts["engine.abstainers"] += len(outcome.abstainers)
        counts["engine.not_polled"] += len(outcome.not_polled)

    def ingested(data, args) -> None:
        counts["epinions.reviews"] += data.stats.reviews
        counts["epinions.max_item_raters"] = max(
            counts["epinions.max_item_raters"],
            max(int(features[1]) for features in data.item_features.values()),
        )

    def responders(factory):
        def make(*args, **kwargs):
            return recorder.wrap("adversary.responder", factory(*args, **kwargs))

        return make

    fuse = recorder.wrap("dst.combine_all", engine.combine_all)

    def combine_all(masses):
        if not hasattr(masses, "__len__"):
            masses = list(masses)
        counts["dst.masses_fused"] += len(masses)
        return fuse(masses)

    update = CredibilityLedger.update

    def counted_update(*args, **kwargs):
        counts["credibility.updates"] += 1
        return update(*args, **kwargs)

    built_probabilities = [0]
    new_probability = vars(core.Probability)["__new__"].__func__

    def counted_probability(cls, value):
        built_probabilities[0] += 1
        return new_probability(cls, value)

    span(simulate, "run_round", "engine.run_round", settled)
    span(simulate, "build_advisor", "advisor.build_advisor", built)
    span(simulate, "synthesize_population", "simulate.synthesize_population")
    span(simulate, "population_from_ratings", "simulate.population_from_ratings")
    span(simulate, "ingest_epinions", "epinions.ingest_epinions", ingested)
    for factory in ("honest_responder", "inverting_responder", "camouflage_responder"):
        replace(simulate, factory, responders(vars(simulate)[factory]))
    span(advisor, "fit", "tree.fit", fitted)
    span(advisor, "predict", "tree.predict")
    span(adversary, "predict", "tree.predict")
    span(advisor, "self_assess", "advisor.self_assess")
    replace(engine, "combine_all", combine_all)
    span(engine, "mass_from_recommendation", "dst.mass_from_recommendation")
    span(dst, "combine", "dst.combine")
    span(CredibilityLedger, "batch_update", "credibility.batch_update")
    replace(CredibilityLedger, "update", counted_update)
    for method in ("consume", "record_answer", "replenish", "drop_agent"):
        span(InquiryLedger, method, f"incentives.{method}")
    span(cli, "write_outputs", "simulate.write_outputs")
    replace(core.Probability, "__new__", staticmethod(counted_probability))
    try:
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        counts["core.probability.constructed"] += built_probabilities[0]


def layer_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """The span and count metrics of one traced scenario; 0 for layers not reached."""
    totals = recorder.totals()
    counts = recorder.counts

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def seconds(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2]

    built = counts["advisor.built"]
    return {
        "tree.fit.calls": calls("tree.fit"),
        "tree.fit.s": seconds("tree.fit"),
        "tree.fit.rows": counts["tree.fit.rows"],
        "tree.fit.nodes": counts["tree.fit.nodes"],
        "tree.predict.calls": calls("tree.predict"),
        "tree.predict.s": seconds("tree.predict"),
        "advisor.build_advisor.s": seconds("advisor.build_advisor"),
        "advisor.self_assess.s": seconds("advisor.self_assess"),
        "advisor.participation_ratio": counts["advisor.participating"] / built if built else 0.0,
        "engine.run_round.calls": calls("engine.run_round"),
        "engine.run_round.s": seconds("engine.run_round"),
        "engine.run_round.self_s": self_seconds("engine.run_round"),
        "engine.responders": counts["engine.responders"],
        "engine.abstainers": counts["engine.abstainers"],
        "engine.not_polled": counts["engine.not_polled"],
        "engine.round_failures": counts["engine.run_round.raised"],
        "adversary.responder.calls": calls("adversary.responder"),
        "adversary.responder.s": seconds("adversary.responder"),
        "dst.combine_all.calls": calls("dst.combine_all"),
        "dst.combine_all.s": seconds("dst.combine_all"),
        "dst.combine.calls": calls("dst.combine"),
        "dst.masses_fused": counts["dst.masses_fused"],
        "dst.mass_from_recommendation.s": seconds("dst.mass_from_recommendation"),
        "core.probability.constructed": counts["core.probability.constructed"],
        "credibility.batch_update.s": seconds("credibility.batch_update"),
        "credibility.updates": counts["credibility.updates"],
        "incentives.consume.calls": calls("incentives.consume"),
        "incentives.consume.s": seconds("incentives.consume"),
        "incentives.budget_exhausted": counts["incentives.consume.raised"],
        "incentives.record_answer.s": seconds("incentives.record_answer"),
        "incentives.replenish.s": seconds("incentives.replenish"),
        "incentives.drop_agent.calls": calls("incentives.drop_agent"),
        "epinions.ingest_epinions.s": seconds("epinions.ingest_epinions"),
        "epinions.reviews": counts["epinions.reviews"],
        "epinions.max_item_raters": counts["epinions.max_item_raters"],
        "simulate.synthesize_population.s": seconds("simulate.synthesize_population"),
        "simulate.population_from_ratings.s": seconds("simulate.population_from_ratings"),
        "simulate.write_outputs.s": seconds("simulate.write_outputs"),
        "simulate.scenario.self_s": self_seconds(SCENARIO),
    }


#: Phases of a scenario, each the span names whose total time it is.
PHASES = {
    "ingestion": ("epinions.ingest_epinions",),
    "build": (
        "simulate.synthesize_population",
        "simulate.population_from_ratings",
        "advisor.build_advisor",
    ),
    "rounds": ("engine.run_round",),
    "output": ("simulate.write_outputs",),
}


def breakdown(recorder: SpanRecorder) -> dict:
    """Share of the scenario per phase, and self time per layer (module)."""
    totals = recorder.totals()
    scenario = totals[SCENARIO][1]
    phases = {
        phase: sum(totals.get(name, (0, 0.0, 0.0))[1] for name in names) / scenario
        for phase, names in PHASES.items()
    }
    phases["other"] = 1.0 - sum(phases.values())
    layers: Counter = Counter()
    for name, (_, _, own) in totals.items():
        layers[name.split(".")[0]] += own / scenario
    return {"phase_share": phases, "layer_self_share": dict(layers.most_common())}
