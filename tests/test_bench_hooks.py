"""The names the benchmark harness looks up in trustsim, checked directly.

``perfbench/run.py`` times each call of its ``STEP_FUNCTIONS`` in
``trustsim.simulate``, and ``perfbench/spans.py`` ``instrument`` swaps the
module attributes and ledger methods below for recording wrappers, reading
each with ``vars(owner)[name]``. A renamed or dropped name would otherwise
show only as a bare ``KeyError`` in the harness's subprocess smoke test.
A wrapped name that no scenario calls any more shows as a per-layer metric
that reads 0 whatever the run does; the last test pins which ones those are.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from trustsim import adversary, advisor, cli, core, dst, engine, simulate
from trustsim.credibility import CredibilityLedger
from trustsim.incentives import InquiryLedger
from trustsim.simulate import ScenarioConfig, run_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RUN_PY = PERFBENCH / "run.py"

HOOKED = [
    (simulate, "run_round"),
    (simulate, "build_advisor"),
    (simulate, "synthesize_population"),
    (simulate, "population_from_ratings"),
    (simulate, "ingest_epinions"),
    (simulate, "honest_responder"),
    (simulate, "inverting_responder"),
    (simulate, "camouflage_responder"),
    (advisor, "fit"),
    (advisor, "predict"),
    (advisor, "self_assess"),
    (adversary, "predict"),
    (engine, "combine_all"),
    (engine, "mass_from_recommendation"),
    (dst, "combine"),
    (CredibilityLedger, "batch_update"),
    (CredibilityLedger, "update"),
    (InquiryLedger, "consume"),
    (InquiryLedger, "record_answer"),
    (InquiryLedger, "replenish"),
    (InquiryLedger, "drop_agent"),
    (cli, "write_outputs"),
    (core.Probability, "__new__"),
]


@pytest.mark.parametrize(
    "owner, name", HOOKED, ids=[f"{owner.__name__}.{name}" for owner, name in HOOKED]
)
def test_hooked_name_is_defined_on_its_owner(owner, name):
    assert name in vars(owner)


def test_step_functions_are_all_hooked():
    tree = ast.parse(RUN_PY.read_text())
    (steps,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "STEP_FUNCTIONS" for target in node.targets)
    ]
    assert set(steps) <= {name for owner, name in HOOKED if owner is simulate}


#: The per-layer metrics a traced desk sybil scenario leaves at 0: tree fits
#: and self-assessment go through ``fit_many``, the round through ``spend`` and
#: ``tally`` (and ``batch_update``, never ``update``); the rest belong to
#: ratings ingestion, the CLI, identity churn, starved budgets and failed
#: rounds, none of which the scenario reaches.
DEAD_ON_DESK_SYBIL = {
    "advisor.self_assess.s",
    "credibility.updates",
    "dst.combine.calls",
    "engine.not_polled",
    "engine.round_failures",
    "epinions.ingest_epinions.s",
    "epinions.max_item_raters",
    "epinions.reviews",
    "incentives.budget_exhausted",
    "incentives.consume.calls",
    "incentives.consume.s",
    "incentives.drop_agent.calls",
    "incentives.record_answer.s",
    "simulate.population_from_ratings.s",
    "simulate.write_outputs.s",
    "tree.fit.calls",
    "tree.fit.nodes",
    "tree.fit.rows",
    "tree.fit.s",
}


def test_traced_desk_sybil_run_reads_zero_on_exactly_the_dead_counters():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    recorder = spans.SpanRecorder()
    with spans.instrument(recorder):
        # the harness opens the scenario span around the entry call the same way
        recorder.wrap(spans.SCENARIO, run_scenario)(ScenarioConfig(seed=0, attack_kind="sybil"))
    metrics = spans.layer_metrics(recorder)
    assert {name for name, value in metrics.items() if value == 0} == DEAD_ON_DESK_SYBIL
