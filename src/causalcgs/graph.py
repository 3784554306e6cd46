"""Dependency structure of a model: network, variable levels, agent ranks.

The network has one node per endogenous variable and an edge X -> Y whenever
X occurs syntactically in Y's equation. Levels count dependency depth
(level 1 depends on exogenous input only). The ranking compresses the agent
variables' distinct levels into consecutive ranks 1..n_max and slots every
environment variable just below the first agent rank at or above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .model import CausalModel, ModelError, VariableId, find_cycle


class GraphError(ModelError):
    pass


@dataclass(frozen=True)
class CausalNetwork:
    nodes: tuple[VariableId, ...]
    edges: frozenset[tuple[VariableId, VariableId]]
    topo_order: tuple[VariableId, ...]  # acyclicity certificate

    def parents(self, node: VariableId) -> frozenset[VariableId]:
        return frozenset(x for x, y in self.edges if y == node)


def build_network(model: CausalModel) -> CausalNetwork:
    """Syntactic dependency graph over the endogenous variables.

    Raises GraphError naming one cycle when the equations are not recursive.
    """
    parents = model.endo_parents
    cycle = find_cycle(parents)
    if cycle is not None:
        raise GraphError("cyclic equations: " + " -> ".join(cycle))
    edges = frozenset(
        (p, v) for v in model.endo_names for p in parents.get(v, frozenset())
    )
    return CausalNetwork(
        nodes=model.endo_names,
        edges=edges,
        topo_order=model.topo_order,
    )


def variable_levels(network: CausalNetwork, model: CausalModel) -> dict[VariableId, int]:
    """level(X) = 1 with no endogenous parents, else 1 + max parent level."""
    levels: dict[VariableId, int] = {}
    for v in network.topo_order:
        ps = network.parents(v)
        levels[v] = 1 if not ps else 1 + max(levels[p] for p in ps)
    return {v: levels[v] for v in network.nodes}


@dataclass(frozen=True)
class AgentRanking:
    rho: Mapping[VariableId, int]
    n_max: int


class RankingError(ModelError):
    pass


def agent_ranking(model: CausalModel, levels: Mapping[VariableId, int]) -> AgentRanking:
    """Rank-compress agent levels to 1..n_max; slot environment variables.

    An environment variable X takes rank(A) - 1 for the minimal-level agent A
    with level(A) >= level(X), and n_max when no agent is that high.
    """
    agents = model.agents_in_order
    if not agents:
        raise RankingError("no agent variables declared")
    agent_levels = sorted({levels[a] for a in agents})
    rank_of_level = {lv: k + 1 for k, lv in enumerate(agent_levels)}
    n_max = len(agent_levels)

    rho: dict[VariableId, int] = {}
    for v in model.endo_names:
        if v in model.agent_set:
            rho[v] = rank_of_level[levels[v]]
        else:
            above = [lv for lv in agent_levels if lv >= levels[v]]
            rho[v] = rank_of_level[above[0]] - 1 if above else n_max
    return AgentRanking(rho=rho, n_max=n_max)
