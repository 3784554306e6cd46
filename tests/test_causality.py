import warnings

import pytest
from hypothesis import given
import hypothesis.strategies as st

import oracle
import reference_causes
from conftest import is_butfor_cause
from model_strategies import models_with_context, randgen_models_with_context
from causalcgs import causality
from causalcgs.causality import (
    CandidateCause,
    CausalityError,
    CauseCertificate,
    Witness,
    check_cause,
    dependence_with_witness,
    enumerate_causes,
    subsets_by_size,
)
from causalcgs.model import (
    BOOL,
    And,
    EqTest,
    Not,
    Or,
    Var,
    evaluate,
    make_model,
    satisfies,
)

B = BOOL
NO_COLLISION = Not(EqTest("Col", "1"))


def _candidate(model, context, *names):
    actual = evaluate(model, context)
    return CandidateCause(tuple(names), tuple(actual[v] for v in names))


def test_butfor_causes_of_no_collision(vehicle, vehicle_context):
    assert is_butfor_cause(vehicle, vehicle_context, _candidate(vehicle, vehicle_context, "ODS"), NO_COLLISION) == ("0",)
    assert is_butfor_cause(vehicle, vehicle_context, _candidate(vehicle, vehicle_context, "DA"), NO_COLLISION) == ("1",)
    assert is_butfor_cause(vehicle, vehicle_context, _candidate(vehicle, vehicle_context, "HD"), NO_COLLISION) is None
    assert is_butfor_cause(vehicle, vehicle_context, _candidate(vehicle, vehicle_context, "O"), NO_COLLISION) is None


def _falsifying_intervention(cert):
    """X at the certificate's alternative, W frozen at its actual values."""
    forced = dict(zip(cert.cause.vars, cert.alternative))
    forced.update(zip(cert.witness.vars, cert.witness.values))
    return forced


def test_check_cause_certificate_flips_outcome(vehicle, vehicle_context):
    cert = check_cause(vehicle, vehicle_context, _candidate(vehicle, vehicle_context, "ODS"), NO_COLLISION)
    assert cert is not None
    assert cert.witness.vars == ()
    flipped = evaluate(vehicle, vehicle_context, _falsifying_intervention(cert))
    assert not satisfies(flipped, NO_COLLISION)


def test_nonminimal_pair_rejected(vehicle, vehicle_context):
    pair = _candidate(vehicle, vehicle_context, "ODS", "DA")
    assert check_cause(vehicle, vehicle_context, pair, NO_COLLISION) is None
    # yet the pair does pass the dependence part on its own
    alt = dependence_with_witness(
        vehicle, vehicle_context, pair.vars, Witness((), ()), NO_COLLISION
    )
    assert alt is not None


def test_enumerate_agents_only(vehicle, vehicle_context):
    certs = enumerate_causes(vehicle, vehicle_context, NO_COLLISION, restrict_to_agents=True)
    found = [(c.cause.vars, c.cause.actual_values, c.alternative) for c in certs]
    assert found == [
        (("ODS",), ("1",), ("0",)),
        (("DA",), ("0",), ("1",)),
    ]
    assert all(c.witness.vars == () for c in certs)


def test_enumerate_all_includes_outcome_variable(vehicle, vehicle_context):
    certs = enumerate_causes(vehicle, vehicle_context, NO_COLLISION)
    assert (("Col",), ("0",)) in [(c.cause.vars, c.cause.actual_values) for c in certs]


def test_false_outcome_raises(vehicle, vehicle_context):
    with pytest.raises(CausalityError):
        enumerate_causes(vehicle, vehicle_context, EqTest("Col", "1"))
    # AC1 fails, so single checks return None instead
    cand = _candidate(vehicle, vehicle_context, "DA")
    assert check_cause(vehicle, vehicle_context, cand, EqTest("Col", "1")) is None


def test_tautological_outcome_has_no_causes(vehicle, vehicle_context):
    tautology = Or(EqTest("Col", "0"), Not(EqTest("Col", "0")))
    assert enumerate_causes(vehicle, vehicle_context, tautology) == []


def test_non_endogenous_candidate_rejected(vehicle, vehicle_context):
    with pytest.raises(CausalityError):
        check_cause(
            vehicle,
            vehicle_context,
            CandidateCause(("U_O",), ("1",)),
            NO_COLLISION,
        )


def test_non_actual_candidate_fails_ac1(vehicle, vehicle_context):
    cand = CandidateCause(("DA",), ("1",))  # actually 0
    assert check_cause(vehicle, vehicle_context, cand, NO_COLLISION) is None


def _preemption_model():
    """First thrower hits, blocking the second; the hit needs a witness."""
    return make_model(
        {"U1": B, "U2": B},
        {"ST": B, "BT": B, "SH": B, "BH": B, "BS": B},
        {
            "ST": Var("U1"),
            "BT": Var("U2"),
            "SH": Var("ST"),
            "BH": And(Var("BT"), Not(Var("SH"))),
            "BS": Or(Var("SH"), Var("BH")),
        },
    )


def test_witness_needed_when_backup_would_fire():
    m = _preemption_model()
    ctx = {"U1": "1", "U2": "1"}
    outcome = EqTest("BS", "1")
    cert = check_cause(m, ctx, CandidateCause(("ST",), ("1",)), outcome)
    assert cert is not None
    assert cert.witness.vars == ("BH",)
    assert cert.witness.values == ("0",)
    assert is_butfor_cause(m, ctx, CandidateCause(("ST",), ("1",)), outcome) is None
    # the unblocked thrower is not a cause at all
    assert check_cause(m, ctx, CandidateCause(("BT",), ("1",)), outcome) is None


def test_witness_size_cap_warns():
    m = _preemption_model()
    ctx = {"U1": "1", "U2": "1"}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cert = check_cause(
            m, ctx, CandidateCause(("ST",), ("1",)), EqTest("BS", "1"), max_witness_size=0
        )
    assert cert is None
    assert any("truncated" in str(w.message) for w in caught)


def test_enumeration_order_is_size_then_declaration():
    # two independent switches, conjunction outcome: both are singleton causes
    m = make_model(
        {"U": B},
        {"S1": B, "S2": B, "L": B},
        {"S1": Var("U"), "S2": Var("U"), "L": And(Var("S1"), Var("S2"))},
    )
    certs = enumerate_causes(m, {"U": "1"}, EqTest("L", "1"))
    assert [c.cause.vars for c in certs] == [("S1",), ("S2",), ("L",)]


def test_all_witnesses_variant(vehicle, vehicle_context):
    certs = enumerate_causes(
        vehicle, vehicle_context, NO_COLLISION, restrict_to_agents=True, all_witnesses=True
    )
    by_cause = {}
    for c in certs:
        by_cause.setdefault(c.cause.vars, []).append(c.witness.vars)
    # ODS=1 also works with any witness that keeps DA's inputs pinned
    assert () in by_cause[("ODS",)]
    assert len(by_cause[("ODS",)]) > 1


@given(models_with_context())
def test_enumeration_matches_literal_oracle(mc):
    model, context = mc
    actual = evaluate(model, context)
    name = model.endo_names[-1]
    outcome = EqTest(name, actual[name])
    got = {c.cause.vars for c in enumerate_causes(model, context, outcome)}
    want = {vars_ for vars_, _, _ in oracle.literal_causes(model, context, outcome)}
    assert got == want


@given(models_with_context(), st.data())
def test_certificates_verify_against_oracle(mc, data):
    model, context = mc
    actual = evaluate(model, context)
    name = data.draw(st.sampled_from(list(model.endo_names)))
    outcome = EqTest(name, actual[name])
    try:
        certs = enumerate_causes(model, context, outcome)
    except CausalityError:
        return
    for cert in certs:
        alt = oracle.literal_ac12(model, context, cert.cause.vars, cert.witness.vars, outcome)
        assert alt is not None


@given(randgen_models_with_context(), st.data())
def test_one_pass_search_matches_reference(mc, data):
    model, context = mc
    actual = evaluate(model, context)
    name = data.draw(st.sampled_from(model.endo_names))
    outcome = EqTest(name, actual[name])
    agents_only = data.draw(st.booleans())
    max_cause_size = data.draw(st.sampled_from((None, 1, 2)))
    max_witness_size = data.draw(st.sampled_from((None, 0, 1, 2)))
    options = (agents_only, False, max_cause_size, max_witness_size)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        certs = enumerate_causes(model, context, outcome, *options)
        assert certs == reference_causes.enumerate_causes(model, context, outcome, *options)
        listed = (agents_only, True, max_cause_size, max_witness_size)
        assert enumerate_causes(model, context, outcome, *listed) == reference_causes.enumerate_causes(
            model, context, outcome, *listed
        )
        # a single check certifies exactly the enumerated causes, alike
        by_cause = {c.cause.vars: c for c in certs}
        pool = model.agents_in_order if agents_only else model.endo_names
        for vars_ in subsets_by_size(pool, max_cause_size):
            if not vars_:
                continue
            candidate = CandidateCause(vars_, tuple(actual[v] for v in vars_))
            cert = check_cause(model, context, candidate, outcome, max_witness_size)
            assert cert == by_cause.get(vars_)
            assert cert == reference_causes.check_cause(model, context, candidate, outcome, max_witness_size)


def _chain_model(n):
    """chain(n): agent A1 copies U, each later agent gates the one before it
    (copy, negate, or V, and U, in turn), and Out copies the last agent."""
    gates = (lambda p: p, Not, lambda p: Or(p, Var("V")), lambda p: And(p, Var("U")))
    agents = [f"A{k}" for k in range(1, n + 1)]
    equations = {"A1": Var("U")}
    for k in range(1, n):
        equations[agents[k]] = gates[(k - 1) % len(gates)](Var(agents[k - 1]))
    equations["Out"] = Var(agents[-1])
    endogenous = {**{a: B for a in agents}, "Out": B}
    return make_model({"U": B, "V": B}, endogenous, equations, agents)


def test_enumeration_searches_each_witness_once(monkeypatch):
    model, context = _chain_model(6), {"U": "1", "V": "0"}
    searched = []
    original = causality.dependence_with_witness

    def recording(model, context, cause_vars, witness, outcome):
        searched.append((cause_vars, witness.vars))
        return original(model, context, cause_vars, witness, outcome)

    monkeypatch.setattr(causality, "dependence_with_witness", recording)
    actual = evaluate(model, context)
    for name in model.endo_names:
        for all_witnesses in (False, True):
            searched.clear()
            enumerate_causes(model, context, EqTest(name, actual[name]), all_witnesses=all_witnesses)
            assert searched and len(set(searched)) == len(searched), (name, all_witnesses)
