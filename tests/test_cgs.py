import pytest

from conftest import profile_of
from causalcgs.cgs import NO_OP, Cgs, CgsError, Strategy, fixed_action_strategy, play


def two_step_game():
    """Two agents, a acts first then b; four leaves with self-loops."""
    states = ("r", "a0", "a1", "a0b0", "a0b1", "a1b0", "a1b1")
    moves = {}
    transition = {}
    for s in states:
        moves[("a", s)] = ("0", "1") if s == "r" else (NO_OP,)
        moves[("b", s)] = ("0", "1") if s in ("a0", "a1") else (NO_OP,)
    transition[("r", ("0", NO_OP))] = "a0"
    transition[("r", ("1", NO_OP))] = "a1"
    for mid in ("a0", "a1"):
        for v in ("0", "1"):
            transition[(mid, (NO_OP, v))] = mid + "b" + v
    for leaf in ("a0b0", "a0b1", "a1b0", "a1b1"):
        transition[(leaf, (NO_OP, NO_OP))] = leaf
    return Cgs(
        agents=("a", "b"),
        states=states,
        moves=moves,
        transition=transition,
    )


def test_no_op_is_identity_singleton():
    assert NO_OP is type(NO_OP)()
    assert NO_OP != "0"
    assert NO_OP != ""
    assert repr(NO_OP) == "NO_OP"


def test_play_follows_profile_until_self_loop():
    g = two_step_game()
    profile = profile_of(
        [fixed_action_strategy(g, "a", "1"), fixed_action_strategy(g, "b", "0")]
    )
    assert play(g, "r", profile) == ["r", "a1", "a1b0"]


def test_play_with_history_dependent_strategy():
    g = two_step_game()

    def mirror(history):
        state = history[-1]
        if state in ("a0", "a1"):
            return state[1]  # repeat a's choice
        return NO_OP

    profile = profile_of([fixed_action_strategy(g, "a", "0"), Strategy("b", mirror)])
    assert play(g, "r", profile)[-1] == "a0b0"


def test_fixed_action_strategy_rejects_illegal_value():
    g = two_step_game()
    with pytest.raises(CgsError):
        fixed_action_strategy(g, "a", "7")


def test_play_rejects_illegal_move():
    g = two_step_game()

    def bad(history):
        return "1" if history[-1] == "r" else "1"  # illegal off the root

    profile = profile_of([Strategy("a", bad), fixed_action_strategy(g, "b", "0")])
    with pytest.raises(CgsError):
        play(g, "r", profile)


def test_play_requires_every_agent():
    g = two_step_game()
    profile = profile_of([fixed_action_strategy(g, "a", "1")])
    with pytest.raises(CgsError):
        play(g, "r", profile)


def test_profile_composition_prefers_primary():
    g = two_step_game()
    base = profile_of(
        [fixed_action_strategy(g, "a", "0"), fixed_action_strategy(g, "b", "0")]
    )
    override = profile_of([fixed_action_strategy(g, "a", "1")])
    combined = override.compose(base)
    assert play(g, "r", combined) == ["r", "a1", "a1b0"]
