"""The names the benchmark harness looks up in trustsim, checked directly.

``perfbench/run.py`` times each call of its ``STEP_FUNCTIONS`` in
``trustsim.simulate``, and ``perfbench/spans.py`` ``instrument`` swaps the
module attributes and ledger methods below for recording wrappers, reading
each with ``vars(owner)[name]``. A renamed or dropped name would otherwise
show only as a bare ``KeyError`` in the harness's subprocess smoke test.
"""

import ast
from pathlib import Path

import pytest

from trustsim import adversary, advisor, cli, core, dst, engine, simulate
from trustsim.credibility import CredibilityLedger
from trustsim.incentives import InquiryLedger

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"

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
