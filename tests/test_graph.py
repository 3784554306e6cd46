import pytest
from hypothesis import given

from model_strategies import models
from causalcgs.graph import (
    GraphError,
    RankingError,
    agent_ranking,
    build_network,
    variable_levels,
)
from causalcgs.model import BOOL, Var, make_model

B = BOOL


def test_vehicle_network_edges(vehicle):
    net = build_network(vehicle)
    assert net.nodes == ("O", "Att", "HD", "ODS", "DA", "Col")
    assert ("O", "HD") in net.edges
    assert ("Att", "HD") in net.edges
    assert ("O", "ODS") in net.edges
    assert ("HD", "DA") in net.edges
    assert ("ODS", "DA") in net.edges
    assert {("DA", "Col"), ("HD", "Col"), ("O", "Col")} <= net.edges
    # no edge from an exogenous variable
    assert all(x in net.nodes for x, _ in net.edges)


def test_vehicle_levels(vehicle):
    net = build_network(vehicle)
    assert variable_levels(net, vehicle) == {
        "O": 1,
        "Att": 1,
        "HD": 2,
        "ODS": 2,
        "DA": 3,
        "Col": 4,
    }


def test_vehicle_ranking(vehicle):
    net = build_network(vehicle)
    ranking = agent_ranking(vehicle, variable_levels(net, vehicle))
    assert ranking.n_max == 2
    assert dict(ranking.rho) == {"O": 0, "Att": 0, "HD": 1, "ODS": 1, "DA": 2, "Col": 2}


def test_cyclic_model_raises():
    m = make_model({"U": B}, {"X": B, "Y": B}, {"X": Var("Y"), "Y": Var("X")})
    with pytest.raises(GraphError):
        build_network(m)


def test_no_agents_raises(vehicle):
    m = make_model({"U": B}, {"X": B}, {"X": Var("U")})
    net = build_network(m)
    with pytest.raises(RankingError):
        agent_ranking(m, variable_levels(net, m))


def test_environment_above_all_agents_gets_n_max():
    # X1 agent at level 1; X2 environment at level 2 sits above every agent
    m = make_model(
        {"U": B},
        {"X1": B, "X2": B},
        {"X1": Var("U"), "X2": Var("X1")},
        agents=("X1",),
    )
    ranking = agent_ranking(m, variable_levels(build_network(m), m))
    assert ranking.n_max == 1
    assert ranking.rho == {"X1": 1, "X2": 1}


def test_environment_below_first_agent_gets_zero():
    m = make_model(
        {"U": B},
        {"X1": B, "X2": B},
        {"X1": Var("U"), "X2": Var("X1")},
        agents=("X2",),
    )
    ranking = agent_ranking(m, variable_levels(build_network(m), m))
    assert ranking.rho == {"X1": 0, "X2": 1}


@given(models())
def test_levels_exceed_parent_levels(model):
    net = build_network(model)
    levels = variable_levels(net, model)
    for child in net.nodes:
        for parent in net.parents(child):
            assert levels[parent] < levels[child]


@given(models())
def test_rank_zero_means_no_agent_ancestors(model):
    net = build_network(model)
    levels = variable_levels(net, model)
    ranking = agent_ranking(model, levels)
    parents = {v: net.parents(v) for v in net.nodes}

    def ancestors(v):
        seen = set()
        stack = list(parents[v])
        while stack:
            p = stack.pop()
            if p not in seen:
                seen.add(p)
                stack.extend(parents[p])
        return seen

    for v in net.nodes:
        if ranking.rho[v] == 0:
            assert not (ancestors(v) & model.agent_set)


@given(models())
def test_agent_ranks_compress_to_contiguous_range(model):
    levels = variable_levels(build_network(model), model)
    ranking = agent_ranking(model, levels)
    agent_ranks = sorted({ranking.rho[a] for a in model.agent_set})
    assert agent_ranks == list(range(1, ranking.n_max + 1))
    # equal agent levels share a rank, higher levels get higher ranks
    for a in model.agent_set:
        for b in model.agent_set:
            if levels[a] < levels[b]:
                assert ranking.rho[a] < ranking.rho[b]
            elif levels[a] == levels[b]:
                assert ranking.rho[a] == ranking.rho[b]
