import gc
import weakref

import pytest
from hypothesis import given
import hypothesis.strategies as st

import oracle
from conftest import VEHICLE_PATH, all_contexts, parse_checked, vehicle_model
from model_strategies import models, models_with_context, randgen_models_with_context, values
from causalcgs.graph import agent_ranking, build_network, variable_levels
from causalcgs.model import (
    BOOL,
    And,
    CausalModel,
    Const,
    EqTest,
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

B = BOOL


def test_vehicle_actual_setting(vehicle, vehicle_context):
    assert evaluate(vehicle, vehicle_context) == {
        "U_O": "1",
        "U_Att": "0",
        "O": "1",
        "Att": "0",
        "HD": "1",
        "ODS": "1",
        "DA": "0",
        "Col": "0",
    }


def test_vehicle_all_contexts(vehicle):
    results = {}
    for ctx in all_contexts(vehicle):
        key = (ctx["U_O"], ctx["U_Att"])
        out = evaluate(vehicle, ctx)
        results[key] = (out["HD"], out["Col"])
    # no context collides on its own; handover only stays off when an
    # attentive driver meets an obstacle
    assert results == {
        ("0", "0"): ("1", "0"),
        ("0", "1"): ("1", "0"),
        ("1", "0"): ("1", "0"),
        ("1", "1"): ("0", "0"),
    }


def test_validate_vehicle_clean(vehicle):
    assert validate_model(vehicle) == []


def test_evaluate_result_is_a_copy(vehicle, vehicle_context):
    first = evaluate(vehicle, vehicle_context)
    first["Col"] = "corrupted"
    assert evaluate(vehicle, vehicle_context)["Col"] == "0"


def test_intervention_replaces_equation(vehicle, vehicle_context):
    out = evaluate(vehicle, vehicle_context, {"ODS": "0"})
    assert out["ODS"] == "0"
    assert out["DA"] == "1"
    assert out["Col"] == "1"


def test_empty_intervention_is_same_model(vehicle):
    assert intervened_model(vehicle, {}) is vehicle


def test_intervened_model_constant_equation(vehicle, vehicle_context):
    forced = intervened_model(vehicle, {"Col": "1"})
    assert evaluate(forced, vehicle_context)["Col"] == "1"
    # upstream variables are untouched
    assert evaluate(forced, vehicle_context)["DA"] == "0"


def test_unknown_intervention_target_rejected(vehicle, vehicle_context):
    with pytest.raises(ModelError):
        evaluate(vehicle, vehicle_context, {"XX": "1"})
    with pytest.raises(ModelError):
        evaluate(vehicle, vehicle_context, {"U_O": "0"})


def test_out_of_domain_intervention_rejected(vehicle, vehicle_context):
    with pytest.raises(ModelError):
        evaluate(vehicle, vehicle_context, {"DA": "2"})


def test_bad_input_raises_after_a_memo_hit(vehicle, vehicle_context):
    evaluate(vehicle, vehicle_context, {"DA": "1"})  # warm the memo
    for context, intervention in [
        ({"U_O": "1"}, {}),
        ({"U_O": "1", "U_Att": "7"}, {"DA": "1"}),
        (vehicle_context, {"U_O": "0"}),
        (vehicle_context, {"DA": "2"}),
    ]:
        for _ in range(2):
            with pytest.raises(ModelError):
                evaluate(vehicle, context, intervention)


def test_evaluated_model_is_freed_once_dropped(vehicle_context):
    model = vehicle_model()
    evaluate(model, vehicle_context, {"DA": "1"})
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None


def test_context_must_be_total_and_in_domain(vehicle):
    assert validate_context(vehicle, {"U_O": "1", "U_Att": "0"}) == []
    assert validate_context(vehicle, {"U_O": "1"}) != []
    assert validate_context(vehicle, {"U_O": "1", "U_Att": "7"}) != []
    assert validate_context(vehicle, {"U_O": "1", "U_Att": "0", "O": "1"}) != []


@given(models_with_context())
def test_evaluate_matches_fixed_point_oracle(mc):
    model, context = mc
    assert evaluate(model, context) == oracle.solve_assignment(model, context)


@given(models_with_context(), st.data())
def test_intervention_composition(mc, data):
    model, context = mc
    endo = list(model.endo_names)
    first = data.draw(st.dictionaries(st.sampled_from(endo), values, max_size=2))
    second = data.draw(st.dictionaries(st.sampled_from(endo), values, max_size=2))
    combined = {**first, **second}
    via_surgery = evaluate(intervened_model(model, first), context, second)
    assert via_surgery == evaluate(model, context, combined)


@given(models_with_context(), st.data())
def test_intervention_effectiveness(mc, data):
    model, context = mc
    target = data.draw(st.sampled_from(list(model.endo_names)))
    value = data.draw(values)
    assert evaluate(model, context, {target: value})[target] == value


@given(randgen_models_with_context(), st.data())
def test_intervened_model_inherits_parent_sets(mc, data):
    model, _ = mc
    endo = list(model.endo_names)
    forced = data.draw(st.dictionaries(st.sampled_from(endo), values, max_size=len(endo)))
    source_parents = dict(model.endo_parents)
    surgered = intervened_model(model, forced)
    fresh = CausalModel(  # the same fields, nothing carried over
        exogenous=surgered.exogenous,
        endogenous=surgered.endogenous,
        equations=surgered.equations,
        agent_vars=surgered.agent_vars,
    )
    assert list(surgered.endo_parents.items()) == list(fresh.endo_parents.items())
    assert surgered.topo_order == fresh.topo_order
    assert build_network(surgered) == build_network(fresh)
    levels = variable_levels(build_network(fresh), fresh)
    assert variable_levels(build_network(surgered), surgered) == levels
    assert agent_ranking(surgered, levels) == agent_ranking(fresh, levels)
    assert model.endo_parents == source_parents


def test_cycle_detected():
    m = make_model(
        {"U": B},
        {"X": B, "Y": B},
        {"X": Var("Y"), "Y": Var("X")},
    )
    diags = validate_model(m)
    assert any(d.code == "cycle" for d in diags)
    with pytest.raises(ModelError):
        evaluate(m, {"U": "0"})


def test_missing_and_extra_equations():
    m = make_model({"U": B}, {"X": B}, {})
    assert any(d.code == "missing-equation" for d in validate_model(m))
    m2 = make_model({"U": B}, {"X": B}, {"X": Var("U"), "Z": Var("U")})
    assert any(d.code == "extra-equation" for d in validate_model(m2))


def test_duplicate_declarations_reported():
    m = CausalModel(
        exogenous=(("U", B),),
        endogenous=(("X", B), ("X", B)),
        equations=(("X", Var("U")), ("X", Var("U"))),
        agent_vars=(),
    )
    codes = {d.code for d in validate_model(m)}
    assert "duplicate-variable" in codes
    assert "duplicate-equation" in codes


def test_unknown_reference_reported():
    m = make_model({"U": B}, {"X": B}, {"X": Var("W")})
    assert any(d.code == "unknown-variable" for d in validate_model(m))


def test_non_boolean_condition_reported():
    m = make_model(
        {"U": ("a", "b")},
        {"X": B},
        {"X": Not(Var("U"))},
    )
    assert any(d.code == "not-boolean" for d in validate_model(m))


def test_range_mismatch_reported():
    m = make_model(
        {"U": B},
        {"X": ("a", "b")},
        {"X": Var("U")},
    )
    assert any(d.code == "range" for d in validate_model(m))
    # evaluate does not validate the model, but its solving loop still
    # refuses a value outside the variable's domain
    with pytest.raises(ModelError, match="internal error: equation for X produced '0', outside"):
        evaluate(m, {"U": "0"})


def test_ternary_domain_ite_evaluates():
    m = make_model(
        {"U": B},
        {"X": ("lo", "mid", "hi")},
        {"X": Ite(Var("U"), Const("hi"), Const("lo"))},
    )
    assert validate_model(m) == []
    assert evaluate(m, {"U": "1"})["X"] == "hi"
    assert evaluate(m, {"U": "0"})["X"] == "lo"
    assert evaluate(m, {"U": "0"}, {"X": "mid"})["X"] == "mid"


def test_agent_must_be_endogenous():
    m = make_model({"U": B}, {"X": B}, {"X": Var("U")}, agents=("U",))
    assert any(d.code == "agent-not-endogenous" for d in validate_model(m))


def test_bad_name_reported():
    m = make_model({"U U": B}, {"X": B}, {"X": Const("0")})
    assert any(d.code == "bad-name" for d in validate_model(m))


def test_empty_domain_reported():
    m = make_model({"U": ()}, {"X": B}, {"X": Const("0")})
    assert any(d.code == "empty-domain" for d in validate_model(m))


def test_model_equality_and_hash_survive_deep_expressions():
    def model(depth, leaf="U"):
        expr = Var(leaf)
        for _ in range(depth):
            expr = And(expr, Var("U"))
        return make_model({"U": B}, {"X": B}, {"X": expr}, agents=("X",))

    deep, twin = model(5000), model(5000)
    assert deep is not twin and deep == twin and hash(deep) == hash(twin)
    assert deep != model(4999)
    assert deep != model(5000, leaf="X")
    assert model(2) != intervened_model(model(2), {"X": "1"})


def test_separate_parses_hash_alike():
    with open(VEHICLE_PATH, "r", encoding="utf-8") as handle:
        source = handle.read()
    first, second = parse_checked(source).model, parse_checked(source).model
    assert first is not second and hash(first) == hash(second)


def test_free_variables():
    expr = Or(And(Var("A"), Not(Var("B"))), EqTest("C", "1"))
    assert free_variables(expr) == frozenset({"A", "B", "C"})


def test_satisfies_event_formulas(vehicle, vehicle_context):
    actual = evaluate(vehicle, vehicle_context)
    assert satisfies(actual, EqTest("Col", "0"))
    assert satisfies(actual, Not(EqTest("Col", "1")))
    assert satisfies(actual, And(EqTest("HD", "1"), Or(EqTest("DA", "1"), EqTest("ODS", "1"))))
    assert not satisfies(actual, EqTest("DA", "1"))
    with pytest.raises(ModelError):
        satisfies(actual, EqTest("nope", "1"))
    with pytest.raises(ModelError):
        satisfies(actual, Const("1"))


@given(models_with_context(), st.data())
def test_satisfies_matches_oracle(mc, data):
    model, context = mc
    actual = evaluate(model, context)
    name = data.draw(st.sampled_from(list(model.endo_names)))
    formula = Not(EqTest(name, data.draw(values)))
    assert satisfies(actual, formula) == oracle.formula_holds(actual, formula)


def test_as_event_formula_sugar(vehicle):
    # bare Boolean variable reads as var=1
    f = as_event_formula(Not(Var("Col")), vehicle)
    assert f == Not(EqTest("Col", "1"))


def test_as_event_formula_rejections(vehicle):
    with pytest.raises(ModelError):
        as_event_formula(Const("1"), vehicle)
    with pytest.raises(ModelError):
        as_event_formula(Ite(Var("Col"), Var("DA"), Var("HD")), vehicle)
    with pytest.raises(ModelError):
        as_event_formula(EqTest("U_O", "1"), vehicle)  # exogenous
    with pytest.raises(ModelError):
        as_event_formula(EqTest("Col", "5"), vehicle)  # out of domain
