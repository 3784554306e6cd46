import json
import os

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import VEHICLE_PATH, parse_checked
from model_strategies import models_with_context, randgen_models_with_context, values
from reference_export import reference_export_dot
from causalcgs.builder import build_causal_cgs, size_report
from causalcgs.export import cgs_payload, dumps, export_dot, export_json
from causalcgs.model import BOOL, Var, make_model


def _node_lines(dot):
    return [l for l in dot.splitlines() if "[label=" in l and "->" not in l]


def _edge_lines(dot):
    return [l for l in dot.splitlines() if "->" in l]


def test_vehicle_dot_counts(vehicle_cgs):
    dot = export_dot(vehicle_cgs)
    assert len(_node_lines(dot)) == 13
    assert len(_edge_lines(dot)) == 12  # self-loops excluded
    assert dot.startswith("digraph causal_cgs {")


def test_vehicle_dot_content(vehicle_cgs):
    dot = export_dot(vehicle_cgs)
    assert 'q_0_0 [label="q_{0,0}\\n{U_O, !U_Att, O, !Att, HD, ODS, !DA, !Col}"];' in dot
    assert 'q_0_0 -> q_1_3 [label="<1,1,->"];' in dot
    assert 'q_1_3 -> q_2_6 [label="<-,-,0>"];' in dot


def test_single_agent_dot():
    m = make_model({"U": BOOL}, {"X": BOOL}, {"X": Var("U")}, agents=("X",))
    cgs = build_causal_cgs(m, {"U": "1"}, {})
    dot = export_dot(cgs)
    assert len(_node_lines(dot)) == 3
    assert len(_edge_lines(dot)) == 2


def test_vehicle_json_schema(vehicle_cgs):
    payload = json.loads(export_json(vehicle_cgs))
    assert set(payload) == {"states", "moves", "transitions", "ranks", "origin"}
    assert len(payload["states"]) == 13
    assert len(payload["transitions"]) == 20
    assert payload["states"][0] == {
        "i": 0,
        "j": 0,
        "label": {
            "U_O": "1", "U_Att": "0", "O": "1", "Att": "0",
            "HD": "1", "ODS": "1", "DA": "0", "Col": "0",
        },
    }
    assert payload["ranks"] == {"O": 0, "Att": 0, "HD": 1, "ODS": 1, "DA": 2, "Col": 2}
    assert payload["origin"] == {
        "context": {"U_O": "1", "U_Att": "0"},
        "intervention": {},
    }
    # NO_OP serializes as null
    assert payload["moves"]["DA"]["q_0_0"] == [None]
    assert payload["moves"]["DA"]["q_1_0"] == ["0", "1"]
    assert payload["moves"]["HD"]["q_0_0"] == ["0", "1"]
    loop = [t for t in payload["transitions"] if t["from"] == "q_2_0"]
    assert loop == [{"from": "q_2_0", "vector": [None, None, None], "to": "q_2_0"}]


def test_json_round_trip_equals_payload(vehicle_cgs):
    assert json.loads(export_json(vehicle_cgs)) == cgs_payload(vehicle_cgs)


def test_exports_are_deterministic(vehicle, vehicle_context, vehicle_cgs):
    rebuilt = build_causal_cgs(vehicle, dict(vehicle_context), {})
    assert export_dot(vehicle_cgs) == export_dot(rebuilt)
    assert export_json(vehicle_cgs) == export_json(rebuilt)


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


# mixed.scm holds a three-valued agent, singleton {1} domains and agents on
# two ranks, which the binary vehicle model does not.
SOURCES = {"vehicle": VEHICLE_PATH, "mixed": os.path.join(GOLDEN, "mixed.scm")}


@pytest.mark.parametrize(
    "name, generating",
    [
        ("vehicle", {}),
        ("vehicle_HD1", {"HD": "1"}),
        ("mixed", {}),
        ("mixed_Gearlo", {"Gear": "lo"}),
    ],
)
def test_exports_match_golden_bytes(name, generating):
    with open(SOURCES[name.split("_")[0]], "r", encoding="utf-8") as handle:
        doc = parse_checked(handle.read())
    cgs = build_causal_cgs(doc.model, doc.context, generating)
    for suffix, text in ((".dot", export_dot(cgs)), (".json", export_json(cgs))):
        with open(os.path.join(GOLDEN, name + suffix), "rb") as handle:
            assert text.encode("utf-8") == handle.read(), name + suffix


@given(models_with_context())
def test_node_count_matches_size_report(mc):
    model, context = mc
    cgs = build_causal_cgs(model, context, {})
    rep = size_report(cgs)
    dot = export_dot(cgs)
    assert len(_node_lines(dot)) == rep.states
    assert len(_edge_lines(dot)) == rep.transitions - rep.leaves
    payload = json.loads(export_json(cgs))
    assert len(payload["states"]) == rep.states
    assert len(payload["transitions"]) == rep.transitions


# Strings with JSON's escapes, control characters and non-ASCII text.
json_strings = st.text(
    st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\U0001f600'), st.characters())
)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | json_strings,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_strings, inner, max_size=4),
    max_leaves=25,
)


@given(json_values)
def test_dumps_writes_the_stdlib_indent_2_text(value):
    assert dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [1.5, (1, 2), {"a"}, {1: "a"}, [{"moves": ["0", (1,)]}], {"k": {None: 0}}],
    ids=["float", "tuple", "set", "int-key", "nested-tuple", "nested-none-key"],
)
def test_dumps_rejects_what_payloads_never_carry(value):
    with pytest.raises(TypeError):
        dumps(value)


@st.composite
def randgen_builds(draw):
    """A `randgen` structure, plain or under a random generating intervention."""
    model, context = draw(randgen_models_with_context())
    generating = draw(
        st.one_of(
            st.just({}),
            st.dictionaries(st.sampled_from(list(model.endo_names)), values, max_size=2),
        )
    )
    return build_causal_cgs(model, context, generating)


@given(randgen_builds())
def test_exports_match_references(cgs):
    assert export_json(cgs) == json.dumps(cgs_payload(cgs), indent=2) + "\n"
    assert export_dot(cgs) == reference_export_dot(cgs)
    payload = cgs_payload(cgs)
    lists = [moves for by_state in payload["moves"].values() for moves in by_state.values()]
    lists += [t["vector"] for t in payload["transitions"]]
    assert len({id(moves) for moves in lists}) == len(lists)  # no list is shared
