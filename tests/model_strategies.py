"""Hypothesis strategies for small binary causal models."""

import random

import hypothesis.strategies as st

from causalcgs.model import BOOL, And, Const, EqTest, Ite, Not, Or, Var, make_model
from causalcgs.randgen import random_model

values = st.sampled_from(BOOL)


@st.composite
def expressions(draw, available, depth=3):
    """A random Boolean expression over the given variable names."""
    if depth <= 0 or draw(st.booleans()):
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            return Const(draw(values))
        return Var(draw(st.sampled_from(available)))
    kind = draw(st.sampled_from(("not", "and", "or", "ite", "eqtest")))
    if kind == "not":
        return Not(draw(expressions(available, depth - 1)))
    if kind == "and":
        return And(draw(expressions(available, depth - 1)), draw(expressions(available, depth - 1)))
    if kind == "or":
        return Or(draw(expressions(available, depth - 1)), draw(expressions(available, depth - 1)))
    if kind == "ite":
        return Ite(
            draw(expressions(available, depth - 1)),
            draw(expressions(available, depth - 1)),
            draw(expressions(available, depth - 1)),
        )
    return EqTest(draw(st.sampled_from(available)), draw(values))


@st.composite
def models(draw, max_endogenous=4):
    """A valid acyclic binary model with at least one agent."""
    n_exo = draw(st.integers(min_value=1, max_value=2))
    n_endo = draw(st.integers(min_value=1, max_value=max_endogenous))
    exo = [f"U{k}" for k in range(1, n_exo + 1)]
    endo = [f"X{k}" for k in range(1, n_endo + 1)]
    equations = {}
    for k, name in enumerate(endo):
        equations[name] = draw(expressions(exo + endo[:k]))
    n_agents = draw(st.integers(min_value=1, max_value=n_endo))
    positions = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_endo - 1),
            min_size=n_agents,
            max_size=n_agents,
            unique=True,
        )
    )
    agents = [endo[k] for k in sorted(positions)]
    return make_model({u: BOOL for u in exo}, {x: BOOL for x in endo}, equations, agents)


@st.composite
def models_with_context(draw, max_endogenous=4):
    model = draw(models(max_endogenous=max_endogenous))
    context = {u: draw(values) for u in model.exo_names}
    return model, context


@st.composite
def randgen_models_with_context(draw):
    """A `randgen` model drawn from a hypothesis-chosen seed, with a context."""
    model = random_model(random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1))))
    context = {u: draw(values) for u in model.exo_names}
    return model, context
