"""Tree-shaped game structures built from a causal setting.

Agents act in rank order: at depth i exactly the agents of rank i+1 pick a
value from their variable's domain while everyone else plays NO_OP. The
builder makes one pass, depth by depth: the k-th move vector at q_{i,j}
leads to q_{i+1, j*b_i+k}, where b_i counts the move vectors at depth i, and
maximal-depth states loop back to themselves. A state's label is its entry
in `CausalCgs.assignments`: the full assignment obtained by forcing the
actions on its root path as an intervention.

An optional generating intervention bakes extra forced values into every
label (and into the dependency structure used for ranking), so the game for
an already-intervened setting comes out of the same code path.

Only the root's label is solved in full, by one `evaluate` call. An
intervention changes only the variables downstream of it, so a child's label
is its parent's with the depth's actions set and, in topological order, only
the variables those acting agents reach re-solved; variables the generating
intervention or an earlier action fixes stay as they are. The re-solve list
is computed once per depth, and each label is stored once, in `assignments`.

A model is validated at its first build; the context, and the generating
intervention, at every build that misses the cache.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from typing import Mapping, NamedTuple, Optional
from weakref import WeakKeyDictionary

from .cgs import NO_OP, Cgs, Move
from .graph import AgentRanking, agent_ranking, build_network, variable_levels
from .model import (
    CausalModel,
    Context,
    Intervention,
    ModelError,
    Value,
    VariableId,
    evaluate,
    intervened_model,
    solve,
    validate_context,
    validate_model,
)


class BuilderError(ModelError):
    pass


class SizeBoundError(BuilderError):
    pass


class StateIndex(NamedTuple):
    """A state q_{i,j}; a plain tuple, so hashing, equality and the (i, j)
    ordering run in C on every transition lookup and play step."""

    i: int  # rank depth, 0 at the root
    j: int  # breadth index, 0 <= j < m_i

    def name(self) -> str:
        return f"q_{self.i}_{self.j}"

    def __str__(self) -> str:
        return f"q_{{{self.i},{self.j}}}"


ActionPath = tuple[tuple[VariableId, Value], ...]


@dataclass(frozen=True)
class Origin:
    model: CausalModel
    context: Mapping[VariableId, Value]
    intervention: Mapping[VariableId, Value]


@dataclass(frozen=True)
class CausalCgs:
    base: Cgs
    ranking: AgentRanking
    agents: tuple[VariableId, ...]
    origin: Origin
    parent: Mapping[StateIndex, tuple[StateIndex, tuple[Move, ...]]]
    assignments: Mapping[StateIndex, Mapping[VariableId, Value]]

    @property
    def root(self) -> StateIndex:
        return StateIndex(0, 0)

    @property
    def states(self) -> tuple[StateIndex, ...]:
        return self.base.states  # type: ignore[return-value]

    @property
    def n_max(self) -> int:
        return self.ranking.n_max

    @property
    def leaves(self) -> tuple[StateIndex, ...]:
        return tuple(q for q in self.states if q.i == self.n_max)


_CGS_CACHE: "WeakKeyDictionary[CausalModel, dict]" = WeakKeyDictionary()


def build_causal_cgs(
    model: CausalModel,
    context: Context,
    generating: Optional[Intervention] = None,
) -> CausalCgs:
    """Assemble states, moves, transitions, and labels for a setting."""
    generating = dict(generating or {})
    per_model = _CGS_CACHE.get(model)
    key = (tuple(sorted(context.items())), tuple(sorted(generating.items())))
    hit = per_model.get(key) if per_model is not None else None
    if hit is not None:
        return hit

    # A model gets its cache entry with its first finished build, so an entry
    # means the model passed validation; until then every build checks it.
    diags = [] if per_model is not None else validate_model(model)
    diags += validate_context(model, context)
    if diags:
        raise BuilderError("; ".join(str(d) for d in diags))
    try:
        structural = intervened_model(model, generating)
    except ModelError as exc:
        raise BuilderError(f"generating {exc}") from None
    levels = variable_levels(build_network(structural), structural)
    ranking = agent_ranking(structural, levels)
    agents = model.agents_in_order

    moves: dict[tuple[VariableId, StateIndex], tuple[Move, ...]] = {}
    # Exports walk this table in insertion order: states by (depth, index),
    # then move vectors in product order.
    transitions: dict[tuple[StateIndex, tuple[Move, ...]], StateIndex] = {}
    parent: dict[StateIndex, tuple[StateIndex, tuple[Move, ...]]] = {}
    assignments: dict[StateIndex, dict[VariableId, Value]] = {}
    # The current depth's states, by index j, each with its label.
    frontier = [(StateIndex(0, 0), evaluate(model, context, generating))]
    # Variables no later action can change: the generating intervention's and
    # every agent that has acted. A re-solve stops at them.
    fixed = set(generating)
    for depth in range(ranking.n_max + 1):
        acting = [a for a in agents if ranking.rho[a] == depth + 1]
        fixed.update(acting)
        resolve = _reached(model, acting, fixed)
        options = tuple(model.domain[a] if a in acting else (NO_OP,) for a in agents)
        vectors = list(itertools.product(*options))
        actions = [
            {a: m for a, m in zip(agents, vector) if m is not NO_OP} for vector in vectors
        ]
        next_frontier: list[tuple[StateIndex, dict[VariableId, Value]]] = []
        for state, label in frontier:
            assignments[state] = label
            for agent, opts in zip(agents, options):
                moves[(agent, state)] = opts
            if depth == ranking.n_max:  # a leaf: the all-NO_OP vector loops back
                transitions[(state, vectors[0])] = state
                continue
            for k, vector in enumerate(vectors):
                child = StateIndex(depth + 1, state.j * len(vectors) + k)
                transitions[(state, vector)] = child
                parent[child] = (state, vector)
                next_frontier.append((child, solve(model, {**label, **actions[k]}, resolve)))
        frontier = next_frontier

    built = CausalCgs(
        base=Cgs(
            agents=agents,
            states=tuple(assignments),
            moves=moves,
            transition=transitions,
        ),
        ranking=ranking,
        agents=agents,
        origin=Origin(model=model, context=dict(context), intervention=generating),
        parent=parent,
        assignments=assignments,
    )
    _CGS_CACHE.setdefault(model, {})[key] = built
    return built


def _reached(
    model: CausalModel, acting: list[VariableId], fixed: set[VariableId]
) -> tuple[VariableId, ...]:
    """The variables outside `fixed` that depend on an acting agent through
    variables outside `fixed`, in topological order."""
    reached = set(acting)
    order = []
    for v in model.topo_order:
        if v not in fixed and not model.endo_parents[v].isdisjoint(reached):
            reached.add(v)
            order.append(v)
    return tuple(order)


def action_path(cgs: CausalCgs, state: StateIndex) -> ActionPath:
    """All non-NO_OP actions along the unique root path, in acting order."""
    steps: list[tuple[VariableId, Value]] = []
    q = state
    while q != cgs.root:
        prev, vector = cgs.parent[q]
        taken = [
            (agent, move)
            for agent, move in zip(cgs.agents, vector)
            if move is not NO_OP
        ]
        steps = taken + steps
        q = prev
    return tuple(steps)


def corresponds(
    state_label: Mapping[VariableId, Value],
    model: CausalModel,
    context: Context,
    intervention: Intervention,
) -> bool:
    """Variable-by-variable agreement with the intervened setting's values:
    `evaluate` under the intervention, which sets the forced variables and
    solves the remaining equations; no equation surgery, no new model."""
    return dict(state_label) == evaluate(model, context, intervention)


@dataclass(frozen=True)
class SizeReport:
    states: int
    transitions: int
    leaves: int
    bound: int  # twice the product of the agent domain sizes


def size_report(cgs: CausalCgs) -> SizeReport:
    """Counts plus the state bound; raises SizeBoundError when the structure
    exceeds states <= bound + 1 (possible only with degenerate singleton
    domains spread over several ranks)."""
    model = cgs.origin.model
    bound = 2 * reduce(lambda acc, a: acc * len(model.domain[a]), cgs.agents, 1)
    report = SizeReport(
        states=len(cgs.states),
        transitions=len(cgs.base.transition),
        leaves=len(cgs.leaves),
        bound=bound,
    )
    if report.states > bound + 1:
        raise SizeBoundError(f"{report.states} states exceed the bound {bound} + 1")
    return report


# --- whole-structure checks (used by tests and the selftest command) -------

def check_rank_stability(cgs: CausalCgs) -> list[str]:
    """Once a variable's rank has been reached, its labeled value must agree
    across the whole subtree. A value that differs somewhere below a state
    changes on some edge of the path there, so one pass over the edges
    suffices: a variable whose rank is at most the parent's depth must keep
    its value into the child. Returns violation descriptions."""
    problems = []
    rho = cgs.ranking.rho
    names = cgs.origin.model.endo_names
    settled = [[v for v in names if rho[v] <= i] for i in range(cgs.n_max + 1)]
    for (state, _vector), child in cgs.base.transition.items():
        here, there = cgs.assignments[state], cgs.assignments[child]
        for v in settled[state.i]:
            if there[v] != here[v]:
                problems.append(f"{v} is {here[v]} at {state} but {there[v]} at child {child}")
    return problems


def check_leaf_correspondence(cgs: CausalCgs) -> list[str]:
    """Every maximal-depth state must agree with the setting intervened by
    its own action path (on top of the generating intervention). The builder
    derives each label from its parent's; this solves each leaf's setting
    afresh with `evaluate`, so it checks that derivation independently."""
    problems = []
    for leaf in cgs.leaves:
        forced = dict(cgs.origin.intervention)
        forced.update(dict(action_path(cgs, leaf)))
        if not corresponds(cgs.assignments[leaf], cgs.origin.model, cgs.origin.context, forced):
            problems.append(f"leaf {leaf} does not match its action-path intervention")
    return problems
