import json
import os

import pytest
from hypothesis import given

from model_strategies import models_with_context
from causalcgs.builder import build_causal_cgs, size_report
from causalcgs.export import cgs_payload, export_dot, export_json
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


@pytest.mark.parametrize("name, generating", [("vehicle", {}), ("vehicle_HD1", {"HD": "1"})])
def test_exports_match_golden_bytes(vehicle_doc, name, generating):
    cgs = build_causal_cgs(vehicle_doc.model, vehicle_doc.context, generating)
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
