"""trustsim: credibility-weighted trust aggregation with an attack simulator.

The package has two halves. The engine side (identities, mass-function
aggregation, credibility and inquiry ledgers, the round runner) implements a
recommendation-based trust decision procedure that weighs every collected
verdict by its issuer's credibility. The simulator side wraps advisors in
adversarial behavior (sybil expansion, camouflage, whitewashing) and measures
how much damage each attack does to the engine's trust estimates.
"""

from .core import (
    AgentId,
    IdentityIssuer,
    Probability,
    Verdict,
)
from .dst import (
    EmptyEvidence,
    MassFunction,
    TotalConflict,
    combine,
    combine_all,
    decide,
    estimated_trust,
    mass_from_recommendation,
)
from .credibility import CredibilityLedger
from .incentives import BudgetExhausted, InquiryLedger
from .tree import SPLIT_BACKEND, DecisionTree, EmptyDataset
from .advisor import (
    AdvisorDataset,
    AdvisorState,
    SelfAssessment,
    self_assess,
)
from .adversary import (
    AttackKind,
    camouflage_verdict,
    sybil_expand,
    whitewash_maybe_reset,
)
from .engine import RecommendationRequest, RoundFailure, RoundOutcome, run_round
from .simulate import (
    ConfigError,
    ScenarioConfig,
    ScenarioResult,
    ground_truth_trust,
    mae,
    run_scenario,
    synthesize_population,
)
from .epinions import IngestError, ingest_epinions

__version__ = "0.1.0"

__all__ = [
    "AgentId",
    "AttackKind",
    "AdvisorDataset",
    "AdvisorState",
    "BudgetExhausted",
    "ConfigError",
    "CredibilityLedger",
    "DecisionTree",
    "EmptyDataset",
    "EmptyEvidence",
    "IdentityIssuer",
    "IngestError",
    "InquiryLedger",
    "MassFunction",
    "Probability",
    "RecommendationRequest",
    "RoundFailure",
    "RoundOutcome",
    "ScenarioConfig",
    "ScenarioResult",
    "SelfAssessment",
    "SPLIT_BACKEND",
    "TotalConflict",
    "Verdict",
    "camouflage_verdict",
    "combine",
    "combine_all",
    "decide",
    "estimated_trust",
    "ground_truth_trust",
    "ingest_epinions",
    "mae",
    "mass_from_recommendation",
    "run_round",
    "run_scenario",
    "self_assess",
    "sybil_expand",
    "synthesize_population",
    "whitewash_maybe_reset",
]
