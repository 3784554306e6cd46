"""Strategies derived from a model, and cause/strategy equivalence checks.

The model-following profile lets every agent play exactly the value its
equation dictates given the actions taken so far. Deviations fix some
agents to constant actions and let everyone else follow the model; the
reached maximal-depth state then agrees with evaluating the model under the
fixed actions as an intervention.

The verdict checks relate counterfactual dependence to strategy existence:
a candidate set depends counterfactually on the outcome under a frozen
witness exactly when the candidate's agents can force an outcome-falsifying
state, either in the game built from the witness-frozen setting (the
candidate agents alone) or in the plain game (candidate plus witness agents
as one coalition, the witness agents pinned to their actual values).
agree records that equivalence; minimality of the candidate is a separate
question, answered by check_cause.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional

from .builder import CausalCgs, StateIndex, action_path, build_causal_cgs, corresponds
from .causality import CandidateCause, CauseCertificate, Witness, dependence_with_witness
from .cgs import NO_OP, Strategy, StrategyProfile, fixed_action_strategy, play
from .model import (
    CausalModel,
    Context,
    EventFormula,
    ModelError,
    Value,
    VariableId,
    evaluate,
    intervened_model,
    satisfies,
)


class BridgeError(ModelError):
    pass


def causal_profile(model: CausalModel, context: Context, cgs: CausalCgs) -> StrategyProfile:
    """The model-following profile: each agent plays its labeled value when
    its rank is up, NO_OP otherwise."""
    if cgs.origin.model != model or dict(cgs.origin.context) != dict(context):
        raise BridgeError("structure was not built from this model and context")
    rho = cgs.ranking.rho

    def strategy_for(agent: VariableId) -> Strategy:
        def choose(history: tuple[StateIndex, ...]):
            state = history[-1]
            if rho[agent] == state.i + 1:
                return cgs.assignments[state][agent]
            return NO_OP

        return Strategy(agent, choose)

    return StrategyProfile({a: strategy_for(a) for a in cgs.agents})


def definition_choice(cgs: CausalCgs, agent: VariableId, state: StateIndex) -> Value:
    """The defining value of the model-following choice: evaluate the origin
    setting with the state's path actions forced, and read off the agent.
    Computed through a separate path (parent walk + equation surgery) so it
    can cross-check the profile."""
    forced = dict(cgs.origin.intervention)
    forced.update(dict(action_path(cgs, state)))
    surgered = intervened_model(cgs.origin.model, forced)
    return evaluate(surgered, cgs.origin.context, {})[agent]


def _normalize_fixed(cgs: CausalCgs, fixed: Mapping[VariableId, Value]) -> dict[VariableId, Value]:
    out: dict[VariableId, Value] = {}
    for agent, value in fixed.items():
        if agent not in cgs.agents:
            raise BridgeError(f"{agent} is not an agent variable")
        if value not in cgs.origin.model.domain[agent]:
            raise BridgeError(f"fixed action {agent}={value!r} out of domain")
        out[agent] = value
    return out


def play_deviation(
    cgs: CausalCgs,
    model: CausalModel,
    context: Context,
    fixed: Mapping[VariableId, Value],
) -> StateIndex:
    """Play fixed actions for some agents, the model-following profile for
    the rest; returns the reached maximal-depth state.

    The reached state is asserted to agree with evaluating the model under
    the fixed actions (on top of the structure's generating intervention)."""
    return _play_fixed(
        cgs, model, context, _normalize_fixed(cgs, fixed), causal_profile(model, context, cgs)
    )


def _play_fixed(
    cgs: CausalCgs,
    model: CausalModel,
    context: Context,
    fixed_map: Mapping[VariableId, Value],
    base_profile: StrategyProfile,
) -> StateIndex:
    """play_deviation against a model-following profile the caller built."""
    deviating = StrategyProfile(
        {a: fixed_action_strategy(cgs.base, a, v) for a, v in fixed_map.items()}
    )
    history = play(cgs.base, cgs.root, deviating.compose(base_profile))
    leaf = history[-1]
    if leaf.i != cgs.n_max:
        raise BridgeError(f"play stopped early at {leaf}")
    forced = dict(cgs.origin.intervention)
    forced.update(fixed_map)
    if not corresponds(cgs.assignments[leaf], model, context, forced):
        raise BridgeError(f"reached {leaf} does not match the intervened setting")
    return leaf


@dataclass(frozen=True)
class StrategySide:
    coalition: tuple[VariableId, ...]
    positive: bool
    fixed_values: Optional[tuple[tuple[VariableId, Value], ...]] = None
    leaf: Optional[StateIndex] = None
    outcome_at_leaf: Optional[bool] = None


@dataclass(frozen=True)
class BridgeVerdict:
    kind: str  # "fixed-witness" or "superset-coalition"
    cause_side: Optional[CauseCertificate]
    strategy_side: StrategySide
    agree: bool


def _require_actual_candidate(
    model: CausalModel, context: Context, candidate: CandidateCause, witness: Witness, outcome: EventFormula
) -> dict[VariableId, Value]:
    actual = evaluate(model, context)
    if not satisfies(actual, outcome):
        raise BridgeError("outcome is false in the actual setting")
    if not candidate.vars:
        raise BridgeError("empty candidate")
    if set(candidate.vars) & set(witness.vars):
        raise BridgeError("candidate and witness overlap")
    for v, x in zip(candidate.vars, candidate.actual_values):
        if actual.get(v) != x:
            raise BridgeError(f"candidate value {v}={x!r} is not the actual value")
    endo = set(model.endo_names)
    for w, x in zip(witness.vars, witness.values):
        if w not in endo:
            raise BridgeError(f"witness variable {w} is not endogenous")
        if actual[w] != x:
            raise BridgeError(f"witness value {w}={x!r} is not the actual value")
    return actual


def _search_strategies(
    cgs: CausalCgs,
    model: CausalModel,
    context: Context,
    candidate: CandidateCause,
    pinned: Mapping[VariableId, Value],
    coalition: tuple[VariableId, ...],
    outcome: EventFormula,
) -> StrategySide:
    domains = [model.domain[v] for v in candidate.vars]
    profile = causal_profile(model, context, cgs)
    for alt in itertools.product(*domains):
        fixed = dict(zip(candidate.vars, alt))
        fixed.update(pinned)
        leaf = _play_fixed(cgs, model, context, _normalize_fixed(cgs, fixed), profile)
        if not satisfies(cgs.assignments[leaf], outcome):
            return StrategySide(
                coalition=coalition,
                positive=True,
                fixed_values=tuple(sorted(fixed.items())),
                leaf=leaf,
                outcome_at_leaf=False,
            )
    return StrategySide(coalition=coalition, positive=False)


def _verdict(
    kind: str,
    model: CausalModel,
    context: Context,
    candidate: CandidateCause,
    witness: Witness,
    outcome: EventFormula,
    members: tuple[VariableId, ...],
    generating: Mapping[VariableId, Value],
    pinned: Mapping[VariableId, Value],
) -> BridgeVerdict:
    """Dependence under the frozen witness against the coalition `members`
    in the game built under `generating`, with `pinned` held in every play."""
    _require_actual_candidate(model, context, candidate, witness, outcome)
    outside = [v for v in members if v not in model.agent_set]
    if outside:
        raise BridgeError(f"{outside[0]} is not an agent variable")
    cgs = build_causal_cgs(model, context, generating)
    alt = dependence_with_witness(model, context, candidate.vars, witness, outcome)
    cert = None if alt is None else CauseCertificate(candidate, witness, alt, outcome)
    coalition = tuple(v for v in model.agents_in_order if v in members)
    side = _search_strategies(cgs, model, context, candidate, pinned, coalition, outcome)
    return BridgeVerdict(
        kind=kind,
        cause_side=cert,
        strategy_side=side,
        agree=(cert is not None) == side.positive,
    )


def check_prop_cause_iff_strategy(
    model: CausalModel,
    context: Context,
    candidate: CandidateCause,
    witness: Witness,
    outcome: EventFormula,
) -> BridgeVerdict:
    """Counterfactual dependence under a frozen witness vs. a candidate-only
    coalition in the game built from the witness-frozen setting."""
    return _verdict(
        "fixed-witness", model, context, candidate, witness, outcome,
        candidate.vars, witness.as_mapping(), {},
    )


def check_prop_superset_strategy(
    model: CausalModel,
    context: Context,
    candidate: CandidateCause,
    witness: Witness,
    outcome: EventFormula,
) -> BridgeVerdict:
    """Same dependence question vs. the candidate plus witness agents acting
    as one coalition in the plain game, witness agents pinned to their
    actual values."""
    return _verdict(
        "superset-coalition", model, context, candidate, witness, outcome,
        (*candidate.vars, *witness.vars), {}, witness.as_mapping(),
    )
