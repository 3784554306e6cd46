"""Generic concurrent game structures and strategies.

States, agents, and moves are opaque hashable values. Every agent has a
nonempty ordered move list at every state and the transition function is
total over the move-vector product. The distinguished NO_OP move stands for
"not this agent's turn"; it is a singleton object and therefore never equal
to any domain value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Mapping

AgentId = Hashable
State = Hashable


class CgsError(Exception):
    pass


class _NoOp:
    """Unique placeholder move, outside every variable domain."""

    __slots__ = ()
    _instance: "_NoOp | None" = None

    def __new__(cls) -> "_NoOp":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NO_OP"


NO_OP = _NoOp()

Move = Hashable  # a domain value (str) or NO_OP


@dataclass(frozen=True)
class Cgs:
    agents: tuple[AgentId, ...]
    states: tuple[State, ...]
    moves: Mapping[tuple[AgentId, State], tuple[Move, ...]]
    transition: Mapping[tuple[State, tuple[Move, ...]], State]


@dataclass(frozen=True)
class Strategy:
    """Per-agent move choice over finite state histories."""

    agent: AgentId
    choose: Callable[[tuple[State, ...]], Move]


@dataclass(frozen=True)
class StrategyProfile:
    """A coalition's strategies, keyed by agent."""

    strategies: Mapping[AgentId, Strategy]

    def compose(self, fallback: "StrategyProfile") -> "StrategyProfile":
        """This profile where defined, the fallback everywhere else."""
        merged = dict(fallback.strategies)
        merged.update(self.strategies)
        return StrategyProfile(merged)


def fixed_action_strategy(cgs: Cgs, agent: AgentId, value: Move) -> Strategy:
    """Play `value` wherever the agent really acts, NO_OP elsewhere."""
    if agent not in cgs.agents:
        raise CgsError(f"unknown agent {agent!r}")
    if not any(
        value in cgs.moves[(agent, state)] for state in cgs.states
    ):
        raise CgsError(f"value {value!r} is never a move of {agent!r}")

    def choose(history: tuple[State, ...]) -> Move:
        options = cgs.moves[(agent, history[-1])]
        if options == (NO_OP,):
            return NO_OP
        if value not in options:
            raise CgsError(f"value {value!r} is not a move of {agent!r} at {history[-1]!r}")
        return value

    return Strategy(agent, choose)


def play(cgs: Cgs, start: State, profile: StrategyProfile) -> list[State]:
    """Iterate the jointly chosen transitions from `start`.

    Stops when the chosen vector loops a state back to itself or after as
    many steps as there are states. The profile must cover every agent, and
    every chosen move must be legal.
    """
    missing = [a for a in cgs.agents if a not in profile.strategies]
    if missing:
        raise CgsError(f"profile does not cover agents {missing!r}")
    history: list[State] = [start]
    for _ in range(len(cgs.states)):
        state = history[-1]
        seen = tuple(history)
        vector = []
        for agent in cgs.agents:
            move = profile.strategies[agent].choose(seen)
            if move not in cgs.moves[(agent, state)]:
                raise CgsError(f"strategy of {agent!r} chose illegal move {move!r} at {state!r}")
            vector.append(move)
        target = cgs.transition[(state, tuple(vector))]
        if target == state:
            break
        history.append(target)
    return history
