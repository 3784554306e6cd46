import dataclasses
import os

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import parse_checked
from model_strategies import models_with_context, randgen_models_with_context, values
from tree_checks import (
    check_child_ranges,
    check_transition_injectivity,
    check_tree_shape,
    children,
    legal_move_vectors,
    reference_rank_stability,
)
from causalcgs import builder
from causalcgs.builder import (
    BuilderError,
    SizeBoundError,
    StateIndex,
    action_path,
    build_causal_cgs,
    check_leaf_correspondence,
    check_rank_stability,
    corresponds,
    size_report,
)
from causalcgs.cgs import NO_OP
from causalcgs.dsl import parse_model
from causalcgs.model import (
    BOOL,
    Const,
    EqTest,
    Ite,
    Var,
    evaluate,
    intervened_model,
    make_model,
)

B = BOOL

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def q(i, j):
    return StateIndex(i, j)


def _bools(assignment, names):
    return {v: assignment[v] for v in names}


ENDO = ("O", "Att", "HD", "ODS", "DA", "Col")


def test_state_index_naming():
    assert q(1, 2).name() == "q_1_2"
    assert str(q(1, 2)) == "q_{1,2}"
    assert q(0, 0) < q(1, 0) < q(1, 1) < q(2, 0)
    assert repr(q(1, 2)) == "StateIndex(i=1, j=2)"
    assert (q(1, 2).i, q(1, 2).j) == (1, 2)
    # a plain (i, j) tuple: C hashing and equality, no per-state __dict__
    assert q(1, 2) == (1, 2) and hash(q(1, 2)) == hash((1, 2))
    assert not hasattr(q(1, 2), "__dict__")
    assert sorted([q(2, 0), q(1, 3), q(1, 1), q(0, 0)]) == [q(0, 0), q(1, 1), q(1, 3), q(2, 0)]


def test_vehicle_state_set(vehicle_cgs):
    expected = [q(0, 0)] + [q(1, j) for j in range(4)] + [q(2, j) for j in range(8)]
    assert list(vehicle_cgs.states) == expected
    assert list(vehicle_cgs.states) == sorted(vehicle_cgs.states)


def test_vehicle_root_transitions(vehicle_cgs):
    # vector order (HD, ODS, DA); DA idles at the root
    t = vehicle_cgs.base.transition
    assert t[(q(0, 0), ("0", "0", NO_OP))] == q(1, 0)
    assert t[(q(0, 0), ("0", "1", NO_OP))] == q(1, 1)
    assert t[(q(0, 0), ("1", "0", NO_OP))] == q(1, 2)
    assert t[(q(0, 0), ("1", "1", NO_OP))] == q(1, 3)


def test_vehicle_mid_transitions(vehicle_cgs):
    t = vehicle_cgs.base.transition
    for j in range(4):
        assert t[(q(1, j), (NO_OP, NO_OP, "0"))] == q(2, 2 * j)
        assert t[(q(1, j), (NO_OP, NO_OP, "1"))] == q(2, 2 * j + 1)


def test_vehicle_leaf_self_loops(vehicle_cgs):
    t = vehicle_cgs.base.transition
    loop = (NO_OP, NO_OP, NO_OP)
    for j in range(8):
        assert t[(q(2, j), loop)] == q(2, j)
    assert len(t) == 20


def test_vehicle_root_label(vehicle_cgs):
    assert _bools(vehicle_cgs.assignments[q(0, 0)], ENDO) == {
        "O": "1", "Att": "0", "HD": "1", "ODS": "1", "DA": "0", "Col": "0",
    }


def test_vehicle_mid_labels(vehicle_cgs):
    a = vehicle_cgs.assignments
    assert _bools(a[q(1, 0)], ENDO) == {
        "O": "1", "Att": "0", "HD": "0", "ODS": "0", "DA": "0", "Col": "0",
    }
    assert _bools(a[q(1, 2)], ENDO) == {
        "O": "1", "Att": "0", "HD": "1", "ODS": "0", "DA": "1", "Col": "1",
    }
    assert _bools(a[q(2, 1)], ENDO) == {
        "O": "1", "Att": "0", "HD": "0", "ODS": "0", "DA": "1", "Col": "0",
    }


def test_vehicle_leaf_labels(vehicle_cgs):
    got = [
        tuple(vehicle_cgs.assignments[q(2, j)][v] for v in ("HD", "ODS", "DA", "Col"))
        for j in range(8)
    ]
    assert got == [
        ("0", "0", "0", "0"),
        ("0", "0", "1", "0"),
        ("0", "1", "0", "0"),
        ("0", "1", "1", "0"),
        ("1", "0", "0", "0"),
        ("1", "0", "1", "1"),
        ("1", "1", "0", "0"),
        ("1", "1", "1", "1"),
    ]
    for j in range(8):
        assert _bools(vehicle_cgs.assignments[q(2, j)], ("O", "Att")) == {"O": "1", "Att": "0"}


def test_vehicle_size_report(vehicle_cgs):
    rep = size_report(vehicle_cgs)
    assert dataclasses.asdict(rep) == {"states": 13, "transitions": 20, "leaves": 8, "bound": 16}


def test_vehicle_checks_clean(vehicle_cgs):
    assert check_rank_stability(vehicle_cgs) == []
    assert check_leaf_correspondence(vehicle_cgs) == []
    assert check_transition_injectivity(vehicle_cgs) == []
    assert check_child_ranges(vehicle_cgs) == []
    assert check_tree_shape(vehicle_cgs) == []


def test_action_path(vehicle_cgs):
    assert action_path(vehicle_cgs, q(0, 0)) == ()
    assert action_path(vehicle_cgs, q(1, 2)) == (("HD", "1"), ("ODS", "0"))
    assert action_path(vehicle_cgs, q(2, 5)) == (("HD", "1"), ("ODS", "0"), ("DA", "1"))


def test_corresponds(vehicle, vehicle_context, vehicle_cgs):
    label = vehicle_cgs.assignments[q(2, 6)]
    assert corresponds(label, vehicle, vehicle_context, {})
    label5 = vehicle_cgs.assignments[q(2, 5)]
    assert corresponds(label5, vehicle, vehicle_context, {"HD": "1", "ODS": "0", "DA": "1"})
    assert not corresponds(label5, vehicle, vehicle_context, {})


@given(models_with_context(), st.data())
def test_corresponds_matches_surgery(mc, data):
    model, context = mc
    endo = list(model.endo_names)
    forced = data.draw(st.dictionaries(st.sampled_from(endo), values, max_size=3))
    label = evaluate(intervened_model(model, forced), context)
    assert corresponds(label, model, context, forced)
    flipped = data.draw(st.sampled_from(endo))
    label[flipped] = "1" if label[flipped] == "0" else "0"
    assert not corresponds(label, model, context, forced)


def test_vehicle_moves(vehicle_cgs):
    moves = vehicle_cgs.base.moves
    assert moves[("HD", q(0, 0))] == ("0", "1")
    assert moves[("DA", q(0, 0))] == (NO_OP,)
    assert moves[("DA", q(1, 0))] == ("0", "1")
    assert moves[("DA", q(2, 0))] == (NO_OP,)


def test_generating_intervention_shapes_labels(vehicle, vehicle_context):
    frozen = build_causal_cgs(vehicle, vehicle_context, {"HD": "1"})
    # freezing HD pulls it to level 1, splitting the agents over three ranks
    assert frozen.n_max == 3
    assert frozen.ranking.rho["HD"] == 1
    assert frozen.ranking.rho["ODS"] == 2
    assert frozen.ranking.rho["DA"] == 3
    assert len(frozen.states) == 15
    # the accumulated action overrides the generating intervention
    label0 = frozen.assignments[frozen.base.transition[(frozen.root, ("0", NO_OP, NO_OP))]]
    assert label0["HD"] == "0"


def test_size_bound_error_on_singleton_chain():
    m = make_model(
        {"U": B},
        {"X1": ("a",), "X2": ("b",), "X3": ("c",)},
        {
            "X1": Const("a"),
            "X2": Ite(EqTest("X1", "a"), Const("b"), Const("b")),
            "X3": Ite(EqTest("X2", "b"), Const("c"), Const("c")),
        },
        agents=("X1", "X2", "X3"),
    )
    cgs = build_causal_cgs(m, {"U": "0"}, {})
    assert len(cgs.states) == 4
    with pytest.raises(SizeBoundError):
        size_report(cgs)


def test_build_rejects_invalid_inputs(vehicle):
    with pytest.raises(BuilderError):
        build_causal_cgs(vehicle, {"U_O": "1"}, {})
    with pytest.raises(BuilderError):
        build_causal_cgs(vehicle, {"U_O": "1", "U_Att": "0"}, {"U_O": "0"})


def test_invalid_model_is_never_cached():
    missing = make_model({"U": B}, {"X": B, "Y": B}, {"X": Var("U")}, agents=("X",))
    messages = []
    for _ in range(2):
        with pytest.raises(BuilderError) as err:
            build_causal_cgs(missing, {"U": "1"}, {})
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "endogenous variable Y has no equation" in messages[0]
    assert missing not in builder._CGS_CACHE


def test_built_model_still_checks_the_context(vehicle, vehicle_context, vehicle_cgs):
    assert vehicle in builder._CGS_CACHE
    with pytest.raises(BuilderError, match="no context value for exogenous U_Att"):
        build_causal_cgs(vehicle, {"U_O": "1"}, {})
    with pytest.raises(BuilderError, match="not in domain"):
        build_causal_cgs(vehicle, {**vehicle_context, "U_O": "2"}, {})


def test_build_is_memoized(vehicle, vehicle_context, vehicle_cgs):
    again = build_causal_cgs(vehicle, dict(vehicle_context), {})
    assert again is vehicle_cgs


@given(models_with_context())
def test_built_structures_satisfy_invariants(mc):
    model, context = mc
    cgs = build_causal_cgs(model, context, {})
    rep = size_report(cgs)
    assert rep.states == len(cgs.states)
    assert rep.states <= rep.bound + 1
    assert check_rank_stability(cgs) == []
    assert check_leaf_correspondence(cgs) == []
    assert check_transition_injectivity(cgs) == []
    assert check_child_ranges(cgs) == []
    assert check_tree_shape(cgs) == []


@given(models_with_context())
def test_root_label_is_plain_evaluation(mc):
    model, context = mc
    cgs = build_causal_cgs(model, context, {})
    assert cgs.assignments[cgs.root] == evaluate(model, context)


@given(models_with_context())
def test_legal_vectors_match_children(mc):
    model, context = mc
    cgs = build_causal_cgs(model, context, {})
    edges = children(cgs)
    for state in cgs.states:
        vectors = legal_move_vectors(cgs, state)
        if state.i == cgs.n_max:
            assert vectors == [tuple(NO_OP for _ in cgs.agents)]
        else:
            assert vectors == [vec for vec, _ in edges[state]]


@given(randgen_models_with_context(), st.data())
def test_tree_checks_catch_a_corrupted_label(mc, data):
    model, context = mc
    generating = {}
    if data.draw(st.booleans()):
        generating = {
            v: data.draw(st.sampled_from(model.domain[v]))
            for v in model.endo_names
            if data.draw(st.booleans())
        }
    cgs = build_causal_cgs(model, context, generating)
    assert check_rank_stability(cgs) == [] == reference_rank_stability(cgs)
    # every way of corrupting one label value, one at a time
    for state in cgs.states:
        for v in model.endo_names:
            for value in model.domain[v]:
                if value == cgs.assignments[state][v]:
                    continue
                label = {**cgs.assignments[state], v: value}
                broken = dataclasses.replace(cgs, assignments={**cgs.assignments, state: label})
                # the edge-by-edge check flags exactly the trees the
                # state-by-state one does
                assert bool(check_rank_stability(broken)) == bool(
                    reference_rank_stability(broken)
                ), (state, v)
                if state.i == cgs.n_max:
                    assert check_leaf_correspondence(broken) != [], (state, v)


def _path_label_problems(cgs, generating):
    """States whose label differs from a full evaluation under the generating
    intervention overridden by the state's path actions."""
    origin = cgs.origin
    return [
        state
        for state in cgs.states
        if cgs.assignments[state]
        != evaluate(origin.model, origin.context, {**generating, **dict(action_path(cgs, state))})
    ]


@given(randgen_models_with_context(), st.data())
def test_every_label_is_its_path_evaluation(mc, data):
    # Labels are built from the parent's by re-solving what the acting agents
    # reach; each must equal solving the whole setting from scratch. Agents
    # in the generating intervention act later and override it.
    model, context = mc
    generating = {
        v: data.draw(st.sampled_from(model.domain[v]))
        for v in model.endo_names
        if data.draw(st.booleans())
    }
    cgs = build_causal_cgs(model, context, generating)
    assert _path_label_problems(cgs, generating) == []


def _mixed():
    with open(os.path.join(GOLDEN, "mixed.scm"), "r", encoding="utf-8") as handle:
        doc = parse_checked(handle.read())
    return doc.model, doc.context


@pytest.mark.parametrize(
    "setting, generating",
    [
        ("vehicle", {"HD": "1"}),
        ("vehicle", {"HD": "1", "Col": "0"}),
        ("mixed", {}),
        ("mixed", {"Gear": "lo"}),
        ("mixed", {"Fast": "1", "Brake": "0"}),
    ],
)
def test_labels_under_a_generating_intervention(vehicle, vehicle_context, setting, generating):
    model, context = (vehicle, vehicle_context) if setting == "vehicle" else _mixed()
    cgs = build_causal_cgs(model, context, generating)
    assert _path_label_problems(cgs, generating) == []
    assert check_leaf_correspondence(cgs) == []


def _chain_text(n):
    """chain(n) in the model language: A1 copies U, each later agent gates the
    one before it (copy, negate, or V, and U, in turn), Out copies the last."""
    gates = ("{}", "!{}", "{} | V", "{} & U")
    lines = ["exogenous U in {0, 1}", "exogenous V in {0, 1}"]
    lines += [f"agent A{k} in {{0, 1}}" for k in range(1, n + 1)]
    lines += ["endogenous Out in {0, 1}", "eq A1 := U"]
    lines += [f"eq A{k} := " + gates[(k - 2) % 4].format(f"A{k - 1}") for k in range(2, n + 1)]
    lines += [f"eq Out := A{n}", "context U = 1, V = 0"]
    return "\n".join(lines) + "\n"


def test_a_build_solves_only_its_root_in_full(monkeypatch):
    # The root is the one full evaluation; every other label is derived from
    # its parent's and lives only in the tree, not in evaluate's memo too.
    calls = []
    original = builder.evaluate

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(builder, "evaluate", counting)
    doc = parse_model(_chain_text(7))
    cgs = build_causal_cgs(doc.model, doc.context, {})
    assert len(cgs.states) == 2**8 - 1
    assert len(calls) == 1
    assert len(doc.model._solved) == 1
