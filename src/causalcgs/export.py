"""Renderers for built game structures: Graphviz DOT and JSON.

Both renderers are deterministic: states sort by (depth, index), agents and
variables keep declaration order, and the JSON text is byte-stable across
runs for equal structures. Transitions come in the order the builder stored
them: states by (depth, index), then move vectors in product order.
"""

from __future__ import annotations

import json

from .builder import CausalCgs, StateIndex
from .cgs import NO_OP
from .model import BOOL, Value, VariableId


def _is_boolean(domain: tuple[Value, ...]) -> bool:
    return set(domain) <= set(BOOL)


def _atom(var: VariableId, value: Value, boolean: bool) -> str:
    if boolean:
        return var if value == "1" else "!" + var
    return f"{var}={value}"


def _state_label_text(cgs: CausalCgs, state: StateIndex) -> str:
    model = cgs.origin.model
    assignment = cgs.assignments[state]
    parts = [
        _atom(v, assignment[v], _is_boolean(model.domain[v]))
        for v in (*model.exo_names, *model.endo_names)
    ]
    return "{" + ", ".join(parts) + "}"


def _vector_text(vector) -> str:
    return "<" + ",".join("-" if m is NO_OP else str(m) for m in vector) + ">"


def export_dot(cgs: CausalCgs) -> str:
    """One node per state with its label set; one edge per non-self-loop
    transition, annotated with the move vector."""
    lines = [
        "digraph causal_cgs {",
        "  rankdir=TB;",
        '  node [shape=box fontname="monospace"];',
    ]
    for state in sorted(cgs.states):
        lines.append(
            f'  {state.name()} [label="{state}\\n{_state_label_text(cgs, state)}"];'
        )
    for (state, vector), child in cgs.base.transition.items():
        if child != state:
            lines.append(
                f'  {state.name()} -> {child.name()} [label="{_vector_text(vector)}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _json_move(move) -> object:
    return None if move is NO_OP else move


def cgs_payload(cgs: CausalCgs) -> dict:
    """The JSON-ready dict form of a structure; export_json serializes it."""
    model = cgs.origin.model
    ordered = sorted(cgs.states)
    states = [
        {
            "i": s.i,
            "j": s.j,
            "label": {
                v: cgs.assignments[s][v] for v in (*model.exo_names, *model.endo_names)
            },
        }
        for s in ordered
    ]
    moves = {
        agent: {
            s.name(): [_json_move(m) for m in cgs.base.moves[(agent, s)]]
            for s in ordered
        }
        for agent in cgs.agents
    }
    transitions = [
        {
            "from": s.name(),
            "vector": [_json_move(m) for m in vector],
            "to": child.name(),
        }
        for (s, vector), child in cgs.base.transition.items()
    ]
    ranks = {v: cgs.ranking.rho[v] for v in model.endo_names}
    origin = {
        "context": {v: cgs.origin.context[v] for v in model.exo_names},
        "intervention": {
            v: cgs.origin.intervention[v]
            for v in model.endo_names
            if v in cgs.origin.intervention
        },
    }
    return {
        "states": states,
        "moves": moves,
        "transitions": transitions,
        "ranks": ranks,
        "origin": origin,
    }


def export_json(cgs: CausalCgs) -> str:
    return json.dumps(cgs_payload(cgs), indent=2) + "\n"
