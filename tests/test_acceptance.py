"""Acceptance suite: one test per release criterion, at pinned tolerances.

Criteria 1-4 check the aggregation, credibility and incentive formulas against
independent oracles on randomized inputs. Criterion 5 checks the decision
tree. Criteria 6-8 check qualitative attack trends at a fixed desk scale, 9
checks byte-level reproducibility, and 10 replays the worked three-advisor
round. Each test prints a PASS/FAIL line via conftest.
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from trustsim.advisor import AdvisorDataset, cv_folds, self_assess
from trustsim.cli import main as cli_main
from trustsim.core import AgentId, Verdict
from trustsim.credibility import CredibilityLedger
from trustsim.dst import VACUOUS, MassFunction, combine, combine_all
from trustsim.engine import RecommendationRequest, run_round
from trustsim.incentives import InquiryLedger
from trustsim.simulate import ScenarioConfig, run_scenario
from trustsim.tree import Leaf, Split, fit

from test_dst import oracle_combine, random_mass

T, N = Verdict.TRUSTWORTHY, Verdict.UNTRUSTWORTHY

DESK_SCALE = dict(
    n_advisors=20,
    attacker_fraction=0.3,
    sybil_count=4,
    n_items=10,
    n_iterations=10,
    noise=0.1,
)
SEED = 42


@pytest.fixture(scope="module")
def desk_runs():
    """Baseline and the three attacks at the pinned desk scale, plus wall time."""
    start = time.perf_counter()
    runs = {
        kind: run_scenario(ScenarioConfig(seed=SEED, attack_kind=kind, **DESK_SCALE))
        for kind in ("none", "sybil")
    }
    runs["elapsed_sybil"] = time.perf_counter() - start
    runs["camouflage"] = run_scenario(
        ScenarioConfig(seed=SEED, attack_kind="camouflage", switch_iteration=5, **DESK_SCALE)
    )
    runs["whitewashing"] = run_scenario(
        ScenarioConfig(seed=SEED, attack_kind="whitewashing", reset_period=3, **DESK_SCALE)
    )
    return runs


def test_c01_dst_oracle_equivalence():
    rng = random.Random(101)
    start = time.perf_counter()
    for _ in range(1000):
        a, b = random_mass(rng), random_mass(rng)
        if a.trust * b.distrust + a.distrust * b.trust >= 1.0 - 1e-9:
            continue
        got = combine(a, b)
        want = oracle_combine([a, b])
        assert abs(got.trust - want[0]) <= 1e-9
        assert abs(got.distrust - want[1]) <= 1e-9
        assert abs(got.uncertainty - want[2]) <= 1e-9
    for _ in range(200):
        batch = [random_mass(rng) for _ in range(3)]
        got = combine_all(batch)
        want = oracle_combine(batch)
        assert abs(got.trust - want[0]) <= 1e-9
        assert abs(got.distrust - want[1]) <= 1e-9
        assert abs(got.uncertainty - want[2]) <= 1e-9
    assert time.perf_counter() - start < 5.0


def test_c02_dst_algebra_suite():
    rng = random.Random(202)
    for _ in range(1000):
        a, b = random_mass(rng), random_mass(rng)
        if a.trust * b.distrust + a.distrust * b.trust >= 1.0 - 1e-9:
            continue
        left = combine(a, b)
        right = combine(b, a)
        # normalisation within 1e-9
        assert abs(left.trust + left.distrust + left.uncertainty - 1.0) <= 1e-9
        # exact commutativity
        assert (left.trust, left.distrust, left.uncertainty) == (
            right.trust,
            right.distrust,
            right.uncertainty,
        )
    for _ in range(1000):
        mass = random_mass(rng)
        got = combine(mass, VACUOUS)
        # exact neutral element
        assert (got.trust, got.distrust, got.uncertainty) == (
            mass.trust,
            mass.distrust,
            mass.uncertainty,
        )
    for _ in range(1000):
        batch = [random_mass(rng) for _ in range(rng.randrange(2, 6))]
        shuffled = batch[:]
        rng.shuffle(shuffled)
        reference = combine_all(batch)
        got = combine_all(shuffled)
        assert abs(got.trust - reference.trust) <= 1e-9
        assert abs(got.distrust - reference.distrust) <= 1e-9
        assert abs(got.uncertainty - reference.uncertainty) <= 1e-9


def test_c03_credibility_update_oracle():
    def oracle(score, said_trust, trust, distrust):
        bigger, smaller = max(trust, distrust), min(trust, distrust)
        if (said_trust and trust > distrust) or (not said_trust and distrust > trust):
            return min(1.0, score + bigger)
        if (said_trust and trust < distrust) or (not said_trust and distrust < trust):
            return abs(score - smaller)
        return score

    rng = random.Random(303)
    agent = AgentId(1)
    start = time.perf_counter()
    for case in range(10_000):
        score = rng.random()
        trust = rng.random()
        distrust = rng.random() * (1.0 - trust)
        if case % 10 == 0:
            distrust = trust = min(trust, 0.5)  # exact ties, forced regularly
        said_trust = rng.random() < 0.5
        ledger = CredibilityLedger()
        ledger.set(agent, score)
        verdict = T if said_trust else N
        got = ledger.update(agent, verdict, MassFunction(trust, distrust, 1.0 - trust - distrust))
        want = oracle(score, said_trust, trust, distrust)
        assert 0.0 <= got <= 1.0
        assert got == pytest.approx(want, abs=1e-12)
        if trust == distrust:
            assert got == score
    assert time.perf_counter() - start < 2.0


def test_c04_incentive_formula():
    x, s = AgentId(1), AgentId(2)
    worked = [(3, 0.5, 16), (0, 0.9, 11), (4, 1.0, 19)]
    for answers, cred, want in worked:
        ledger = InquiryLedger(initial_budget=10)
        for _ in range(answers):
            ledger.record_answer(x, s)
        ledger.replenish({x: cred}, pairs=[(x, s)])
        assert ledger.budget(x, s) == want

    rng = random.Random(404)
    for case in range(1000):
        answers = rng.randrange(0, 60)
        cred = rng.random()
        pair = (AgentId(10 + case), AgentId(5))
        ledger = InquiryLedger(initial_budget=0)
        for _ in range(answers):
            ledger.record_answer(*pair)
        ledger.replenish({pair[0]: cred}, pairs=[pair])
        want = answers + math.ceil(Fraction(answers) * Fraction(cred)) + 1
        assert ledger.budget(*pair) == want


def test_c05_decision_tree_correctness():
    # pure dataset collapses to a single leaf
    pure = fit(np.array([[0.1, 0.9], [0.4, 0.2], [0.8, 0.5]]), np.ones(3, dtype=np.uint8))
    assert isinstance(pure.root, Leaf)
    assert pure.root.verdict is T

    # the separable 1-d example splits at 0.5 with pure children
    tree = fit(np.array([[0.1], [0.2], [0.8], [0.9]]), np.array([0, 0, 1, 1], dtype=np.uint8))
    assert isinstance(tree.root, Split)
    assert tree.root.threshold == 0.5
    assert isinstance(tree.root.left, Leaf) and tree.root.left.counts == (2, 0)
    assert isinstance(tree.root.right, Leaf) and tree.root.right.counts == (0, 2)

    # k = 10 folds partition the records exactly
    for seed in range(10):
        folds = cv_folds(40, 10, seed=seed)
        flat = sorted(i for fold in folds for i in fold)
        assert flat == list(range(40))
        assert all(len(fold) == 4 for fold in folds)

    # depth-1 stump on replicated XOR: cross-validated accuracy over 10 seeds
    points = [((0.0, 0.0), N), ((0.0, 1.0), T), ((1.0, 0.0), T), ((1.0, 1.0), N)]
    dataset = AdvisorDataset(
        ("a", "b"), [f for f, _ in points * 10], [label is T for _, label in points * 10]
    )
    for seed in range(10):
        result = self_assess(dataset, k=10, seed=seed, max_depth=1)
        assert 0.4 <= result.accuracy <= 0.6, (
            f"seed {seed}: stump CV accuracy {float(result.accuracy)}"
        )


def test_c06_sybil_trend(desk_runs):
    assert desk_runs["elapsed_sybil"] < 60.0
    base = dict(desk_runs["none"].per_iteration_mae)
    sybil = dict(desk_runs["sybil"].per_iteration_mae)
    for iteration in range(3, 11):
        assert sybil[iteration] - base[iteration] <= 0.05, (
            f"iteration {iteration}: sybil {sybil[iteration]:.4f} vs base {base[iteration]:.4f}"
        )
    final_attacker_credibility = desk_runs["sybil"].attacker_credibility[-1]
    assert final_attacker_credibility < 0.3, (
        f"attacker mean credibility at iteration 10 is {final_attacker_credibility:.3f}"
    )


def test_c07_camouflage_trend(desk_runs):
    series = [value for _, value in desk_runs["camouflage"].per_iteration_mae]
    peak_iteration = 1 + max(range(10), key=lambda t: series[t])
    peak = max(series)
    assert 4 <= peak_iteration <= 6, f"peak at iteration {peak_iteration}"
    late = sum(series[7:10]) / 3
    assert late < 0.5 * peak, f"late mean {late:.4f} vs peak {peak:.4f}"
    cred = desk_runs["camouflage"].attacker_credibility
    for left, right in zip(cred[4:7], cred[5:8]):
        assert right <= left + 1e-12


def test_c08_whitewashing_trend(desk_runs):
    base = desk_runs["none"].summary[0]
    white = desk_runs["whitewashing"].summary[0]
    assert white - base <= 0.05

    # every post-reset identity re-enters at exactly the newcomer score
    config = ScenarioConfig(
        seed=SEED, attack_kind="whitewashing", reset_period=3, **DESK_SCALE
    )
    records = []
    result = run_scenario(config, trace=lambda line: records.append(json.loads(line)))
    assert result.retired_identities, "no resets happened"
    first_seen: dict[int, tuple[int, float]] = {}
    for record in records:
        for responder in record["responders"]:
            first_seen.setdefault(
                responder["advisor"], (record["iteration"], responder["credibility"])
            )
    reborn = [
        value for value, (iteration, _) in first_seen.items() if iteration > 1
    ]
    assert reborn, "reset identities never answered"
    for value in reborn:
        assert first_seen[value][1] == 0.5


def test_c09_end_to_end_determinism(tmp_path):
    args = [
        "simulate",
        "--attack", "sybil",
        "--seed", "11",
        "--advisors", "10",
        "--items", "5",
        "--iterations", "5",
        "--records-per-advisor", "30",
    ]
    first, second = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(first)]) == 0
    assert cli_main(args + ["--out", str(second)]) == 0
    assert (first / "summary.txt").read_bytes() == (second / "summary.txt").read_bytes()
    assert (first / "series.csv").read_bytes() == (second / "series.csv").read_bytes()


def test_c10_round_level_worked_example():
    a, b, c = AgentId(1), AgentId(2), AgentId(3)
    ledger = CredibilityLedger()
    ledger.set(a, 0.8)
    ledger.set(b, 0.6)
    ledger.set(c, 0.7)
    request = RecommendationRequest(AgentId(100), AgentId(200), (0.5,), (a, b, c))
    population = {
        a: lambda subject, features: T,
        b: lambda subject, features: T,
        c: lambda subject, features: N,
    }
    outcome = run_round(request, population, ledger)
    assert outcome.beliefs.trust == pytest.approx(0.7753, abs=1e-3)
    assert outcome.beliefs.distrust == pytest.approx(0.1573, abs=1e-3)
    assert outcome.beliefs.uncertainty == pytest.approx(0.0674, abs=1e-3)
    assert outcome.verdict is T
    assert ledger.get(c) == pytest.approx(0.5427, abs=1e-3)
