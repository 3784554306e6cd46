"""Tree-shape checks on built game structures, read off the transition table.

Only tests use these; each check returns a list of violation descriptions.
"""

import itertools

from causalcgs.builder import CausalCgs, StateIndex


def children(cgs: CausalCgs) -> dict[StateIndex, list[tuple[tuple, StateIndex]]]:
    """(vector, target) pairs per state, in the table's order."""
    out: dict[StateIndex, list[tuple[tuple, StateIndex]]] = {q: [] for q in cgs.states}
    for (state, vector), target in cgs.base.transition.items():
        out[state].append((vector, target))
    return out


def check_transition_injectivity(cgs: CausalCgs) -> list[str]:
    problems = []
    for state, edges in children(cgs).items():
        if state.i == cgs.n_max:
            continue
        targets = [child for _, child in edges]
        if len(targets) != len(set(targets)):
            problems.append(f"distinct vectors at {state} share a target")
    return problems


def check_child_ranges(cgs: CausalCgs) -> list[str]:
    problems = []
    for state, edges in children(cgs).items():
        if state.i == cgs.n_max:
            continue
        width = len(edges)
        low, high = state.j * width, state.j * width + width - 1
        for _, child in edges:
            if not (low <= child.j <= high):
                problems.append(f"child {child} of {state} outside [{low}, {high}]")
    return problems


def check_tree_shape(cgs: CausalCgs) -> list[str]:
    problems = []
    incoming = {q: 0 for q in cgs.states}
    for (state, _vec), target in cgs.base.transition.items():
        if target != state:
            incoming[target] = incoming.get(target, 0) + 1
    for q, count in incoming.items():
        if count == 0 and q != cgs.root:
            problems.append(f"{q} is unreachable")
        if count > 1:
            problems.append(f"{q} has {count} incoming edges")
    return problems


def legal_move_vectors(cgs: CausalCgs, state: StateIndex) -> list[tuple]:
    """The move-vector product at a state, agents most significant first."""
    return list(itertools.product(*(cgs.base.moves[(a, state)] for a in cgs.base.agents)))


def reference_rank_stability(cgs: CausalCgs) -> list[str]:
    """The rank check made state by state, quadratic in the states: each
    variable whose rank equals a state's depth keeps its value at every
    descendant of that state."""
    edges = children(cgs)
    rho = cgs.ranking.rho
    problems = []
    for state in cgs.states:
        settled = [v for v in cgs.origin.model.endo_names if rho[v] == state.i]
        below: set[StateIndex] = set()
        frontier = [state]
        while frontier:
            for _, child in edges[frontier.pop()]:
                if child not in below:
                    below.add(child)
                    frontier.append(child)
        here = cgs.assignments[state]
        for q in below:
            there = cgs.assignments[q]
            problems.extend(
                f"{v} is {here[v]} at {state} but {there[v]} at descendant {q}"
                for v in settled
                if there[v] != here[v]
            )
    return problems
