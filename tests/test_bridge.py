import itertools
import re

import pytest
from hypothesis import given
import hypothesis.strategies as st

import oracle
from model_strategies import models_with_context, randgen_models_with_context, values
from causalcgs.bridge import (
    BridgeError,
    causal_profile,
    check_prop_cause_iff_strategy,
    check_prop_superset_strategy,
    definition_choice,
    play_deviation,
)
from causalcgs.builder import StateIndex, build_causal_cgs
from causalcgs.causality import CandidateCause, Witness, check_cause, subsets_by_size
from causalcgs.cgs import NO_OP, StrategyProfile, fixed_action_strategy, play
from causalcgs.model import EqTest, Not, evaluate, satisfies

NO_COLLISION = Not(EqTest("Col", "1"))


def q(i, j):
    return StateIndex(i, j)


def _choice(profile, agent, state):
    return profile.strategies[agent].choose((state,))


def test_causal_profile_choices(vehicle, vehicle_context, vehicle_cgs):
    profile = causal_profile(vehicle, vehicle_context, vehicle_cgs)
    assert _choice(profile, "HD", q(0, 0)) == "1"
    assert _choice(profile, "ODS", q(0, 0)) == "1"
    assert _choice(profile, "DA", q(0, 0)) is NO_OP
    # the driver acts only where handover happened without a detection signal
    assert _choice(profile, "DA", q(1, 0)) == "0"
    assert _choice(profile, "DA", q(1, 1)) == "0"
    assert _choice(profile, "DA", q(1, 2)) == "1"
    assert _choice(profile, "DA", q(1, 3)) == "0"
    assert _choice(profile, "HD", q(1, 2)) is NO_OP


def test_causal_profile_rejects_foreign_structure(vehicle, vehicle_context, vehicle_cgs):
    with pytest.raises(BridgeError):
        causal_profile(vehicle, {"U_O": "0", "U_Att": "0"}, vehicle_cgs)


def test_definition_choice_matches_profile(vehicle, vehicle_context, vehicle_cgs):
    profile = causal_profile(vehicle, vehicle_context, vehicle_cgs)
    rho = vehicle_cgs.ranking.rho
    for state in vehicle_cgs.states:
        for agent in vehicle_cgs.agents:
            if rho[agent] == state.i + 1:
                assert _choice(profile, agent, state) == definition_choice(
                    vehicle_cgs, agent, state
                )


def test_profile_play_reaches_actual_leaf(vehicle, vehicle_context, vehicle_cgs):
    profile = causal_profile(vehicle, vehicle_context, vehicle_cgs)
    history = play(vehicle_cgs.base, vehicle_cgs.root, profile)
    assert history == [q(0, 0), q(1, 3), q(2, 6)]


def test_play_deviation_vehicle(vehicle, vehicle_context, vehicle_cgs):
    leaf = play_deviation(vehicle_cgs, vehicle, vehicle_context, {"ODS": "0"})
    assert leaf == q(2, 5)
    assert vehicle_cgs.assignments[leaf]["Col"] == "1"
    leaf2 = play_deviation(vehicle_cgs, vehicle, vehicle_context, {"DA": "1"})
    assert leaf2 == q(2, 7)
    assert vehicle_cgs.assignments[leaf2]["Col"] == "1"
    # no deviation at all follows the model-following profile
    assert play_deviation(vehicle_cgs, vehicle, vehicle_context, {}) == q(2, 6)


def test_play_deviation_matches_intervened_evaluation(vehicle, vehicle_context, vehicle_cgs):
    leaf = play_deviation(vehicle_cgs, vehicle, vehicle_context, {"HD": "0", "DA": "1"})
    label = dict(vehicle_cgs.assignments[leaf])
    assert label == evaluate(vehicle, vehicle_context, {"HD": "0", "DA": "1"})


def test_play_deviation_input_errors(vehicle, vehicle_context, vehicle_cgs):
    with pytest.raises(BridgeError):
        play_deviation(vehicle_cgs, vehicle, vehicle_context, {"Col": "1"})
    with pytest.raises(BridgeError):
        play_deviation(vehicle_cgs, vehicle, vehicle_context, {"DA": "9"})


def _cand(model, context, *names):
    actual = evaluate(model, context)
    return CandidateCause(tuple(names), tuple(actual[v] for v in names))


def test_fixed_witness_verdicts_on_vehicle(vehicle, vehicle_context):
    actual = evaluate(vehicle, vehicle_context)
    empty = Witness((), ())

    v = check_prop_cause_iff_strategy(
        vehicle, vehicle_context, _cand(vehicle, vehicle_context, "ODS"), empty, NO_COLLISION
    )
    assert v.agree and v.cause_side is not None and v.strategy_side.positive
    assert v.strategy_side.leaf == q(2, 5)

    v = check_prop_cause_iff_strategy(
        vehicle, vehicle_context, _cand(vehicle, vehicle_context, "DA"), empty, NO_COLLISION
    )
    assert v.agree and v.cause_side is not None and v.strategy_side.positive

    # the handover is not counterfactually pivotal, and no fixed HD action
    # falsifies the outcome either
    v = check_prop_cause_iff_strategy(
        vehicle, vehicle_context, _cand(vehicle, vehicle_context, "HD"), empty, NO_COLLISION
    )
    assert v.agree and v.cause_side is None and not v.strategy_side.positive

    v = check_prop_cause_iff_strategy(
        vehicle,
        vehicle_context,
        _cand(vehicle, vehicle_context, "DA"),
        Witness(("HD",), ("1",)),
        NO_COLLISION,
    )
    assert v.agree and v.cause_side is not None and v.strategy_side.positive


def test_nonminimal_pair_is_positive_on_both_sides(vehicle, vehicle_context):
    pair = _cand(vehicle, vehicle_context, "ODS", "DA")
    v = check_prop_cause_iff_strategy(vehicle, vehicle_context, pair, Witness((), ()), NO_COLLISION)
    assert v.agree and v.cause_side is not None and v.strategy_side.positive
    # minimality is a separate question: the pair is not an actual cause
    assert check_cause(vehicle, vehicle_context, pair, NO_COLLISION) is None


def test_superset_coalition_verdicts(vehicle, vehicle_context):
    v = check_prop_superset_strategy(
        vehicle,
        vehicle_context,
        _cand(vehicle, vehicle_context, "DA"),
        Witness(("HD",), ("1",)),
        NO_COLLISION,
    )
    assert v.agree and v.cause_side is not None and v.strategy_side.positive
    assert v.strategy_side.coalition == ("HD", "DA")
    assert v.strategy_side.leaf == q(2, 7)


def _raises(message):
    return pytest.raises(BridgeError, match=f"^{re.escape(message)}$")


def test_bridge_preconditions(vehicle, vehicle_context):
    empty = Witness((), ())
    da = _cand(vehicle, vehicle_context, "DA")
    for verdict in (check_prop_cause_iff_strategy, check_prop_superset_strategy):
        with _raises("outcome is false in the actual setting"):
            verdict(vehicle, vehicle_context, da, empty, EqTest("Col", "1"))
        with _raises("candidate value DA='1' is not the actual value"):
            verdict(vehicle, vehicle_context, CandidateCause(("DA",), ("1",)), empty, NO_COLLISION)
        with _raises("Col is not an agent variable"):
            verdict(vehicle, vehicle_context, _cand(vehicle, vehicle_context, "Col"), empty, NO_COLLISION)
        with _raises("witness value HD='0' is not the actual value"):
            verdict(vehicle, vehicle_context, da, Witness(("HD",), ("0",)), NO_COLLISION)
        with _raises("witness variable U_O is not endogenous"):
            verdict(vehicle, vehicle_context, da, Witness(("U_O",), ("1",)), NO_COLLISION)
        with _raises("candidate and witness overlap"):
            verdict(vehicle, vehicle_context, da, Witness(("DA",), ("0",)), NO_COLLISION)
        with _raises("empty candidate"):
            verdict(vehicle, vehicle_context, CandidateCause((), ()), empty, NO_COLLISION)
    # only the superset check needs agent witnesses
    with _raises("O is not an agent variable"):
        check_prop_superset_strategy(vehicle, vehicle_context, da, Witness(("O",), ("1",)), NO_COLLISION)
    assert check_prop_cause_iff_strategy(
        vehicle, vehicle_context, da, Witness(("O",), ("1",)), NO_COLLISION
    ).agree


def _witness_sweep(model, context, candidate, outcome):
    """Fixed-witness verdicts for every witness set of the other endogenous
    variables (smallest first, then declaration order), frozen at actual
    values."""
    actual = evaluate(model, context)
    pool = [v for v in model.endo_names if v not in candidate.vars]
    out = []
    for vars_ in subsets_by_size(pool):
        witness = Witness(vars_, tuple(actual[w] for w in vars_))
        out.append(
            (witness, check_prop_cause_iff_strategy(model, context, candidate, witness, outcome))
        )
    return out


def test_witness_sweep_all_agree(vehicle, vehicle_context):
    results = _witness_sweep(
        vehicle, vehicle_context, _cand(vehicle, vehicle_context, "DA"), NO_COLLISION
    )
    assert results[0][0].vars == ()
    assert len(results) == 2 ** 5  # subsets of the other five endogenous variables
    assert all(verdict.agree for _, verdict in results)


@given(models_with_context(), st.data())
def test_random_verdicts_agree_and_match_oracle(mc, data):
    model, context = mc
    actual = evaluate(model, context)
    agents = list(model.agents_in_order)
    agent = data.draw(st.sampled_from(agents))
    candidate = CandidateCause((agent,), (actual[agent],))
    outcome_var = data.draw(st.sampled_from(list(model.endo_names)))
    outcome = EqTest(outcome_var, actual[outcome_var])
    pool = [v for v in model.endo_names if v != agent]
    size = data.draw(st.integers(min_value=0, max_value=min(2, len(pool))))
    w_vars = tuple(pool[:size])
    witness = Witness(w_vars, tuple(actual[w] for w in w_vars))

    verdict = check_prop_cause_iff_strategy(model, context, candidate, witness, outcome)
    assert verdict.agree
    from_oracle = oracle.literal_ac12(model, context, candidate.vars, witness.vars, outcome)
    assert (verdict.cause_side is not None) == (from_oracle is not None)

    agent_pool = [v for v in agents if v != agent]
    wa = tuple(agent_pool[: data.draw(st.integers(min_value=0, max_value=len(agent_pool)))])
    witness_a = Witness(wa, tuple(actual[w] for w in wa))
    verdict2 = check_prop_superset_strategy(model, context, candidate, witness_a, outcome)
    assert verdict2.agree


def _reference_leaf(cgs, model, context, fixed):
    """A deviation play built anew: a fresh model-following profile, with
    a fresh fixed-action strategy for each fixed agent."""
    strategies = dict(causal_profile(model, context, cgs).strategies)
    for agent, value in fixed.items():
        strategies[agent] = fixed_action_strategy(cgs.base, agent, value)
    return play(cgs.base, cgs.root, StrategyProfile(strategies))[-1]


def _reference_search(cgs, model, context, candidate, pinned, outcome):
    """The first alternative, in product order, whose reference play
    falsifies the outcome, as (sorted fixed values, leaf); None if none."""
    for alt in itertools.product(*(model.domain[v] for v in candidate.vars)):
        fixed = {**dict(zip(candidate.vars, alt)), **pinned}
        leaf = _reference_leaf(cgs, model, context, fixed)
        if not satisfies(cgs.assignments[leaf], outcome):
            return tuple(sorted(fixed.items())), leaf
    return None


def _found(verdict):
    side = verdict.strategy_side
    return (side.fixed_values, side.leaf) if side.positive else None


@given(randgen_models_with_context(), st.data())
def test_deviation_plays_match_reference_plays(mc, data):
    model, context = mc
    actual = evaluate(model, context)
    agents = list(model.agents_in_order)
    size = data.draw(st.integers(min_value=1, max_value=len(agents)))
    members = data.draw(st.lists(st.sampled_from(agents), min_size=size, max_size=size, unique=True))
    cand_vars = tuple(v for v in agents if v in members)
    candidate = CandidateCause(cand_vars, tuple(actual[v] for v in cand_vars))
    outcome_var = data.draw(st.sampled_from(list(model.endo_names)))
    outcome = EqTest(outcome_var, actual[outcome_var])

    # fixed-witness: the candidate alone, in the game built under the witness
    pool = [v for v in model.endo_names if v not in cand_vars]
    w_vars = tuple(v for v in pool if data.draw(st.booleans()))
    witness = Witness(w_vars, tuple(actual[w] for w in w_vars))
    cgs = build_causal_cgs(model, context, witness.as_mapping())
    for alt in itertools.product(*(model.domain[v] for v in cand_vars)):
        fixed = dict(zip(cand_vars, alt))
        assert play_deviation(cgs, model, context, fixed) == _reference_leaf(cgs, model, context, fixed)
    verdict = check_prop_cause_iff_strategy(model, context, candidate, witness, outcome)
    assert _found(verdict) == _reference_search(cgs, model, context, candidate, {}, outcome)

    # superset coalition: witness agents pinned at their actual values
    pinned = {v: actual[v] for v in agents if v not in cand_vars and data.draw(st.booleans())}
    plain = build_causal_cgs(model, context, {})
    for alt in itertools.product(*(model.domain[v] for v in cand_vars)):
        fixed = {**dict(zip(cand_vars, alt)), **pinned}
        assert play_deviation(plain, model, context, fixed) == _reference_leaf(plain, model, context, fixed)
    pinned_vars = tuple(v for v in model.endo_names if v in pinned)
    verdict = check_prop_superset_strategy(
        model, context, candidate, Witness(pinned_vars, tuple(pinned[v] for v in pinned_vars)), outcome
    )
    assert _found(verdict) == _reference_search(plain, model, context, candidate, pinned, outcome)
