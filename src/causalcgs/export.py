"""Renderers for built game structures: Graphviz DOT and JSON.

Both renderers are deterministic: states sort by (depth, index), agents and
variables keep declaration order, and the JSON text is byte-stable across
runs for equal structures. Transitions come in the order the builder stored
them: states by (depth, index), then move vectors in product order.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

from .builder import CausalCgs
from .cgs import NO_OP
from .model import BOOL, Value, VariableId


def dumps(payload: object) -> str:
    """The JSON text of ``payload``, byte for byte what the standard
    library's encoder writes with ``indent=2`` and its other defaults.

    Only what the payloads carry is accepted: dicts with ``str`` keys,
    lists, ``str``, ``int``, ``bool`` and ``None``; anything else raises
    ``TypeError``. Each distinct string is escaped once per call.
    """
    escaped: dict[str, str] = {}

    def texts(values, inner: str) -> list[str]:
        out = []
        for v in values:
            kind = type(v)
            if kind is str:
                text = escaped.get(v)
                if text is None:
                    text = escaped[v] = encode_basestring_ascii(v)
            elif kind is dict or kind is list:
                text = container(v, inner)
            elif v is None:
                text = "null"
            elif kind is bool:
                text = "true" if v else "false"
            elif kind is int:
                text = int.__repr__(v)
            else:
                raise TypeError(f"{kind.__name__} is not a JSON payload value")
            out.append(text)
        return out

    def container(value, newline: str) -> str:
        if not value:
            return "{}" if type(value) is dict else "[]"
        inner = newline + "  "
        separator = "," + inner
        if type(value) is list:
            return "[" + inner + separator.join(texts(value, inner)) + newline + "]"
        keys = []
        for k in value:
            text = escaped.get(k)
            if text is None:
                if type(k) is not str:
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
                text = escaped[k] = encode_basestring_ascii(k)
            keys.append(text)
        items = [k + ": " + v for k, v in zip(keys, texts(value.values(), inner))]
        return "{" + inner + separator.join(items) + newline + "}"

    return texts((payload,), "\n")[0]


def _is_boolean(domain: tuple[Value, ...]) -> bool:
    return set(domain) <= set(BOOL)


def _atom(var: VariableId, value: Value, boolean: bool) -> str:
    if boolean:
        return var if value == "1" else "!" + var
    return f"{var}={value}"


def _vector_text(vector) -> str:
    return "<" + ",".join("-" if m is NO_OP else str(m) for m in vector) + ">"


def export_dot(cgs: CausalCgs) -> str:
    """One node per state with its label set; one edge per non-self-loop
    transition, annotated with the move vector."""
    model = cgs.origin.model
    variables = [
        (v, _is_boolean(model.domain[v])) for v in (*model.exo_names, *model.endo_names)
    ]
    lines = [
        "digraph causal_cgs {",
        "  rankdir=TB;",
        '  node [shape=box fontname="monospace"];',
    ]
    names = {}
    for state in sorted(cgs.states):
        name = names[state] = state.name()
        assignment = cgs.assignments[state]
        label = ", ".join([_atom(v, assignment[v], boolean) for v, boolean in variables])
        lines.append(f'  {name} [label="{state}\\n{{{label}}}"];')
    vectors: dict[tuple, str] = {}
    for (state, vector), child in cgs.base.transition.items():
        if child != state:
            text = vectors.get(vector)
            if text is None:
                text = vectors[vector] = _vector_text(vector)
            lines.append(f'  {names[state]} -> {names[child]} [label="{text}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cgs_payload(cgs: CausalCgs) -> dict:
    """The JSON-ready dict form of a structure; export_json serializes it.

    Every list in it is a fresh object, even where two hold the same moves.
    """
    model = cgs.origin.model
    ordered = sorted(cgs.states)
    names = {s: s.name() for s in ordered}
    variables = (*model.exo_names, *model.endo_names)
    states = []
    for s in ordered:
        assignment = cgs.assignments[s]
        states.append({"i": s.i, "j": s.j, "label": {v: assignment[v] for v in variables}})
    json_moves: dict[tuple, list] = {}

    def move_list(moves: tuple) -> list:
        listed = json_moves.get(moves)
        if listed is None:
            listed = json_moves[moves] = [None if m is NO_OP else m for m in moves]
        return listed.copy()

    base_moves = cgs.base.moves
    moves = {
        agent: {names[s]: move_list(base_moves[(agent, s)]) for s in ordered}
        for agent in cgs.agents
    }
    transitions = [
        {"from": names[s], "vector": move_list(vector), "to": names[child]}
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
    return dumps(cgs_payload(cgs)) + "\n"
