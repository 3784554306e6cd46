"""Finite-domain structural causal models, actual-cause search, and
tree-shaped concurrent game structures with strategy play-out."""

from .bridge import (
    BridgeError,
    BridgeVerdict,
    StrategySide,
    causal_profile,
    check_prop_cause_iff_strategy,
    check_prop_superset_strategy,
    definition_choice,
    play_deviation,
)
from .builder import (
    BuilderError,
    CausalCgs,
    Origin,
    SizeBoundError,
    SizeReport,
    StateIndex,
    action_path,
    build_causal_cgs,
    check_leaf_correspondence,
    check_rank_stability,
    corresponds,
    size_report,
)
from .causality import (
    CandidateCause,
    CausalityError,
    CauseCertificate,
    Witness,
    check_cause,
    dependence_with_witness,
    enumerate_causes,
    subsets_by_size,
)
from .cgs import (
    NO_OP,
    Cgs,
    CgsError,
    Strategy,
    StrategyProfile,
    fixed_action_strategy,
    play,
)
from .cli import main
from .dsl import (
    ModelDocument,
    ParseError,
    document_diagnostics,
    outcome_formula,
    parse_model,
)
from .export import cgs_payload, export_dot, export_json
from .graph import (
    AgentRanking,
    CausalNetwork,
    GraphError,
    RankingError,
    agent_ranking,
    build_network,
    variable_levels,
)
from .model import (
    BOOL,
    FALSE,
    TRUE,
    And,
    CausalModel,
    Const,
    Diagnostic,
    EqTest,
    EventFormula,
    Expression,
    Ite,
    ModelError,
    Not,
    Or,
    Var,
    as_event_formula,
    evaluate,
    free_variables,
    intervened_model,
    make_model,
    satisfies,
    validate_context,
    validate_model,
)
from .randgen import GeneratorConfig, random_expression, random_model, random_true_event
