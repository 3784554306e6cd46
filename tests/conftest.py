import os

import pytest
from hypothesis import settings

import itertools

from causalcgs import build_causal_cgs, check_cause, make_model
from causalcgs.cgs import StrategyProfile
from causalcgs.dsl import document_diagnostics, parse_model
from causalcgs.model import And, Not, Or, Var

settings.register_profile("default", deadline=None, max_examples=60)
settings.load_profile("default")

VEHICLE_PATH = os.path.join(os.path.dirname(__file__), "..", "models", "vehicle.scm")


def parse_checked(source):
    """A parsed document that has no diagnostics."""
    doc = parse_model(source)
    diags = document_diagnostics(doc)
    assert not diags, [str(d) for d in diags]
    return doc


def all_contexts(model):
    """Every total exogenous assignment, in declaration-lexicographic order."""
    names = model.exo_names
    return [dict(zip(names, combo)) for combo in itertools.product(*(model.domain[n] for n in names))]


def profile_of(strategies):
    """A profile holding each strategy under its agent."""
    return StrategyProfile({s.agent: s for s in strategies})


def is_butfor_cause(model, context, candidate, outcome):
    """The alternative of a cause whose canonical witness is empty, else None."""
    cert = check_cause(model, context, candidate, outcome)
    return cert.alternative if cert is not None and not cert.witness.vars else None


def vehicle_model():
    """The semi-automated vehicle model, built in code."""
    b = ("0", "1")
    return make_model(
        {"U_O": b, "U_Att": b},
        {"O": b, "Att": b, "HD": b, "ODS": b, "DA": b, "Col": b},
        {
            "O": Var("U_O"),
            "Att": Var("U_Att"),
            "HD": Or(Not(Var("O")), And(Var("O"), Not(Var("Att")))),
            "ODS": Var("O"),
            "DA": And(Var("HD"), Not(Var("ODS"))),
            "Col": And(And(Var("DA"), Var("HD")), Var("O")),
        },
        agents=("HD", "ODS", "DA"),
    )


VEHICLE_CONTEXT = {"U_O": "1", "U_Att": "0"}


@pytest.fixture(scope="session")
def vehicle():
    return vehicle_model()


@pytest.fixture(scope="session")
def vehicle_context():
    return dict(VEHICLE_CONTEXT)


@pytest.fixture(scope="session")
def vehicle_doc():
    with open(VEHICLE_PATH, "r", encoding="utf-8") as handle:
        return parse_checked(handle.read())


@pytest.fixture(scope="session")
def vehicle_cgs(vehicle):
    return build_causal_cgs(vehicle, VEHICLE_CONTEXT, {})
