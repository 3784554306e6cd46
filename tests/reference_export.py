"""The DOT renderer as it was before it cached per-export work: it decides
whether a variable is boolean for every state, and names every state and
renders every move vector wherever they appear. Tests compare
`causalcgs.export.export_dot` with it byte for byte."""

from causalcgs.cgs import NO_OP
from causalcgs.model import BOOL


def _is_boolean(domain):
    return set(domain) <= set(BOOL)


def _atom(var, value, boolean):
    if boolean:
        return var if value == "1" else "!" + var
    return f"{var}={value}"


def _state_label_text(cgs, state):
    model = cgs.origin.model
    assignment = cgs.assignments[state]
    parts = [
        _atom(v, assignment[v], _is_boolean(model.domain[v]))
        for v in (*model.exo_names, *model.endo_names)
    ]
    return "{" + ", ".join(parts) + "}"


def _vector_text(vector):
    return "<" + ",".join("-" if m is NO_OP else str(m) for m in vector) + ">"


def reference_export_dot(cgs):
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
