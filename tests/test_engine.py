import json

import pytest

from trustsim.cli import main as cli_main
from trustsim.core import AgentId, Verdict
from trustsim.credibility import CredibilityLedger
from trustsim.engine import RecommendationRequest, run_round
from trustsim.incentives import InquiryLedger
from trustsim.simulate import ScenarioConfig, run_scenario

T, N = Verdict.TRUSTWORTHY, Verdict.UNTRUSTWORTHY


def const(verdict):
    return lambda subject, features: verdict


def absent(subject, features):
    return None


def make_request(eligible, requester=AgentId(100), subject=AgentId(200)):
    return RecommendationRequest(requester, subject, (0.5,), tuple(eligible))


def test_request_rejects_subject_or_requester_in_eligible():
    with pytest.raises(ValueError):
        make_request([AgentId(200)])
    with pytest.raises(ValueError):
        make_request([AgentId(100)])


@pytest.mark.parametrize("answer", [T, None], ids=["responder", "abstainer"])
def test_advisor_listed_twice_is_rejected_before_any_write(answer):
    a, b = AgentId(1), AgentId(2)
    ledger = CredibilityLedger()
    ledger.set(a, 0.8)
    inquiries = InquiryLedger(initial_budget=5)
    asked = []

    def respond(subject, features):
        asked.append(subject)
        return answer

    with pytest.raises(ValueError, match="twice"):
        run_round(
            make_request([a, b, AgentId(1)]), {a: respond, b: const(T)}, ledger, inquiries
        )
    assert asked == []
    assert inquiries.budget(AgentId(100), a) == 5
    assert inquiries.budget(AgentId(100), b) == 5
    assert inquiries.answered(a, AgentId(100)) == 0
    assert ledger.as_map() == {a: 0.8}


def test_three_advisor_round_matches_worked_numbers():
    a, b, c = AgentId(1), AgentId(2), AgentId(3)
    ledger = CredibilityLedger()
    ledger.set(a, 0.8)
    ledger.set(b, 0.6)
    ledger.set(c, 0.7)
    outcome = run_round(
        make_request([a, b, c]),
        {a: const(T), b: const(T), c: const(N)},
        ledger,
    )
    assert outcome.beliefs.trust == pytest.approx(0.7753, abs=1e-3)
    assert outcome.beliefs.distrust == pytest.approx(0.1573, abs=1e-3)
    assert outcome.beliefs.uncertainty == pytest.approx(0.0674, abs=1e-3)
    assert outcome.verdict is T
    assert ledger.get(a) == 1.0
    assert ledger.get(b) == 1.0
    assert ledger.get(c) == pytest.approx(0.5427, abs=1e-3)


def test_single_responder_round():
    a = AgentId(1)
    ledger = CredibilityLedger()
    ledger.set(a, 0.8)
    outcome = run_round(make_request([a]), {a: const(T)}, ledger)
    assert outcome.beliefs.trust == 0.8
    assert outcome.beliefs.distrust == 0.0
    assert outcome.verdict is T
    assert float(outcome.estimated_trust) == 1.0


def test_all_abstain_defaults_to_uncertainty():
    a, b = AgentId(1), AgentId(2)
    ledger = CredibilityLedger()
    outcome = run_round(make_request([a, b]), {a: absent, b: absent}, ledger)
    assert (
        outcome.beliefs.trust,
        outcome.beliefs.distrust,
        outcome.beliefs.uncertainty,
    ) == (0.0, 0.0, 1.0)
    assert outcome.verdict is N
    assert float(outcome.estimated_trust) == 0.5
    assert outcome.responders == ()
    assert set(outcome.abstainers) == {a, b}


def test_empty_eligible_rejected():
    with pytest.raises(ValueError):
        run_round(make_request([]), {}, CredibilityLedger())


def test_unknown_advisor_rejected():
    with pytest.raises(ValueError):
        run_round(make_request([AgentId(1)]), {}, CredibilityLedger())


def test_order_invariance():
    ids = [AgentId(i) for i in range(1, 6)]
    verdicts = [T, T, N, T, N]
    creds = [0.8, 0.3, 0.6, 0.5, 0.9]

    def run(order):
        ledger = CredibilityLedger()
        population = {}
        for agent, verdict, cred in zip(ids, verdicts, creds):
            ledger.set(agent, cred)
            population[agent] = const(verdict)
        return run_round(make_request(order), population, ledger)

    first = run(ids)
    second = run(list(reversed(ids)))
    assert first.beliefs.trust == pytest.approx(second.beliefs.trust, abs=1e-9)
    assert first.beliefs.distrust == pytest.approx(second.beliefs.distrust, abs=1e-9)
    assert first.verdict == second.verdict
    assert set(first.responders) == set(second.responders)


def test_non_responders_keep_ledgers_untouched():
    a, b = AgentId(1), AgentId(2)
    ledger = CredibilityLedger()
    ledger.set(a, 0.8)
    ledger.set(b, 0.654321)
    inquiries = InquiryLedger(initial_budget=5)
    run_round(
        make_request([a, b]), {a: const(T), b: absent}, ledger, inquiries
    )
    assert float(ledger.get(b)) == 0.654321
    assert inquiries.answered(b, AgentId(100)) == 0
    assert inquiries.answered(a, AgentId(100)) == 1


def test_masses_use_credibility_snapshot_from_collection_time():
    # the first advisor's update must not leak into any mass this round;
    # every weight equals the pre-round ledger value
    a, b = AgentId(1), AgentId(2)
    ledger = CredibilityLedger()
    ledger.set(a, 0.8)
    ledger.set(b, 0.6)
    outcome = run_round(make_request([a, b]), {a: const(T), b: const(T)}, ledger)
    assert [float(weight) for weight in outcome.weights] == [0.8, 0.6]
    assert ledger.get(a) == 1.0


def test_exhausted_budget_skips_without_abstaining():
    a, b = AgentId(1), AgentId(2)
    ledger = CredibilityLedger()
    inquiries = InquiryLedger(initial_budget=1)
    requester = AgentId(100)
    inquiries.consume(requester, b)  # spend the only inquiry toward b
    outcome = run_round(
        make_request([a, b], requester=requester),
        {a: const(T), b: const(T)},
        ledger,
        inquiries,
    )
    assert outcome.responders == (a,)
    assert outcome.not_polled == (b,)
    assert outcome.abstainers == ()


def test_round_consumes_budget_per_polled_advisor():
    a = AgentId(1)
    inquiries = InquiryLedger(initial_budget=3)
    requester = AgentId(100)
    run_round(
        make_request([a], requester=requester), {a: const(T)}, CredibilityLedger(), inquiries
    )
    assert inquiries.budget(requester, a) == 2


def test_trace_record_shape():
    a, b = AgentId(1), AgentId(2)
    ledger = CredibilityLedger()
    ledger.set(a, 0.8)
    records = []
    run_round(
        make_request([a, b]), {a: const(N), b: absent}, ledger,
        trace=lambda line: records.append(json.loads(line)),
    )
    assert len(records) == 1
    record = records[0]
    assert record["requester"] == 100
    assert record["subject"] == 200
    assert record["responders"] == [
        {"advisor": 1, "verdict": "N", "credibility": 0.8}
    ]
    assert record["abstainers"] == [2]
    assert record["verdict"] == "N"
    assert set(record["beliefs"]) == {"trust", "distrust", "uncertainty"}
    # the responder entry carries the pre-round score; it is not repeated
    assert "credibility_before" not in record
    assert record["responders"][0]["credibility"] == 0.8
    assert record["credibility_after"] == {"1": float(ledger.get(a))}
    assert ledger.get(a) != 0.8
    # information hiding: nothing in a trace mentions attacker metadata
    assert "lineage" not in str(record)


# ---------------------------------------------------------------------------
# the trace line: byte for byte json.dumps(record, sort_keys=True)
# ---------------------------------------------------------------------------


def dumped_record(request, outcome, ledger, **position):
    """The round's record as a dict, written by ``json.dumps``: the oracle
    for the line ``run_round`` hands its trace."""
    record = {
        **position,
        "requester": request.requester.value,
        "subject": request.subject.value,
        "responders": [
            {"advisor": advisor.value, "verdict": answer.value, "credibility": float(weight)}
            for advisor, answer, weight in zip(
                outcome.responders, outcome.answers, outcome.weights
            )
        ],
        "abstainers": [agent.value for agent in outcome.abstainers],
        "not_polled": [agent.value for agent in outcome.not_polled],
        "beliefs": {
            "trust": float(outcome.beliefs.trust),
            "distrust": float(outcome.beliefs.distrust),
            "uncertainty": float(outcome.beliefs.uncertainty),
        },
        "verdict": outcome.verdict.value,
        "estimated_trust": float(outcome.estimated_trust),
        "credibility_after": {
            str(advisor.value): float(ledger.get(advisor)) for advisor in outcome.responders
        },
    }
    return json.dumps(record, sort_keys=True)


def traced_round(request, population, ledger, inquiries=None, **position):
    """Run one round; return its trace line and the oracle's line."""
    lines = []
    outcome = run_round(request, population, ledger, inquiries, lines.append, **position)
    (line,) = lines
    return line, dumped_record(request, outcome, ledger, **position)


def test_trace_line_keeps_negative_zero_apart_from_zero():
    # -0.0 and 0.0 compare equal, yet json.dumps writes each as itself
    a, b = AgentId(1), AgentId(2)
    ledger = CredibilityLedger(-0.0)
    ledger.set(a, 0.0)
    line, expected = traced_round(make_request([a, b]), {a: const(T), b: const(T)}, ledger)
    assert line == expected
    assert '"credibility": 0.0' in line and '"credibility": -0.0' in line
    assert '"1": 0.0' in line and '"2": -0.0' in line


def test_trace_line_orders_credibility_after_as_strings():
    ids = [AgentId(9), AgentId(10), AgentId(100)]
    ledger = CredibilityLedger()
    ledger.set(AgentId(10), 0.7)
    answers = {AgentId(9): const(T), AgentId(10): const(N), AgentId(100): const(T)}
    line, expected = traced_round(make_request(ids, requester=AgentId(1)), answers, ledger)
    assert line == expected
    after = json.loads(line)["credibility_after"]
    assert list(after) == ["10", "100", "9"]


def test_trace_line_of_an_all_abstain_round():
    ids = [AgentId(1), AgentId(2)]
    line, expected = traced_round(
        make_request(ids), dict.fromkeys(ids, absent), CredibilityLedger()
    )
    assert line == expected
    record = json.loads(line)
    assert record["responders"] == [] and record["credibility_after"] == {}
    assert record["beliefs"] == {"trust": 0.0, "distrust": 0.0, "uncertainty": 1.0}


def test_trace_line_of_a_starved_round_with_position():
    a, b, c = AgentId(1), AgentId(2), AgentId(3)
    inquiries = InquiryLedger(initial_budget=1)
    inquiries.consume(AgentId(100), a)
    line, expected = traced_round(
        make_request([a, b, c]), {a: const(T), b: const(N), c: absent},
        CredibilityLedger(), inquiries, iteration=4, item=0,
    )
    assert line == expected
    record = json.loads(line)
    assert record["not_polled"] == [1]
    assert (record["iteration"], record["item"]) == (4, 0)


def test_scenario_trace_lines_are_the_cli_trace_file(tmp_path):
    config = ScenarioConfig(
        seed=3, n_advisors=6, n_items=3, n_iterations=4, attack_kind="sybil",
        records_per_advisor=24, initial_budget=3,
    )
    lines = []
    run_scenario(config, trace=lines.append)
    argv = [
        "simulate", "--seed", "3", "--advisors", "6", "--items", "3", "--iterations", "4",
        "--attack", "sybil", "--records-per-advisor", "24", "--initial-budget", "3",
        "--out", str(tmp_path),
    ]
    assert cli_main(argv) == 0
    assert ("\n".join(lines) + "\n").encode() == (tmp_path / "trace.jsonl").read_bytes()


def test_total_conflict_becomes_round_failure(monkeypatch):
    from trustsim import engine
    from trustsim.dst import TotalConflict
    from trustsim.engine import RoundFailure

    def explode(masses):
        raise TotalConflict("constructed")

    monkeypatch.setattr(engine, "combine_all", explode)
    a = AgentId(1)
    with pytest.raises(RoundFailure):
        run_round(make_request([a]), {a: const(T)}, CredibilityLedger())


def test_outcome_partitions_eligible():
    a, b, c = AgentId(1), AgentId(2), AgentId(3)
    inquiries = InquiryLedger(initial_budget=1)
    requester = AgentId(100)
    inquiries.consume(requester, c)
    outcome = run_round(
        make_request([a, b, c], requester=requester),
        {a: const(T), b: absent, c: const(T)},
        CredibilityLedger(),
        inquiries,
    )
    polled = set(outcome.responders) | set(outcome.abstainers)
    assert polled | set(outcome.not_polled) == {a, b, c}
    assert polled.isdisjoint(outcome.not_polled)
