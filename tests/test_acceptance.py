"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line. Structures built by the population criteria are registered so the
stability and size-bound criteria run over exactly those structures."""

import itertools
import time
from contextlib import contextmanager

import pytest

import oracle
from conftest import VEHICLE_CONTEXT, VEHICLE_PATH, all_contexts, vehicle_model
from families import (
    bridge_cases,
    deviation_models,
    exhaustive_small_models,
    oracle_random_models,
)
from causalcgs.bridge import (
    causal_profile,
    check_prop_cause_iff_strategy,
    check_prop_superset_strategy,
    play_deviation,
)
from causalcgs.builder import (
    StateIndex,
    build_causal_cgs,
    check_rank_stability,
    corresponds,
    size_report,
)
from causalcgs.causality import CandidateCause, Witness, enumerate_causes
from causalcgs.cgs import NO_OP, play
from causalcgs.cli import main
from causalcgs.model import EqTest, Not, evaluate, intervened_model

NO_COLLISION = Not(EqTest("Col", "1"))

# every structure built while running criteria 1 through 5
BUILT = []


def _build(model, context, generating=None):
    cgs = build_causal_cgs(model, context, generating or {})
    BUILT.append(cgs)
    return cgs


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"CRITERION {number} FAIL: {summary}")
        raise
    print(f"CRITERION {number} PASS: {summary}")


def q(i, j):
    return StateIndex(i, j)


def test_criterion_1_vehicle_golden_structure():
    with criterion(1, "vehicle structure matches the worked example (< 1 s)"):
        start = time.perf_counter()
        model = vehicle_model()
        cgs = _build(model, VEHICLE_CONTEXT)

        root_label = {v: cgs.assignments[q(0, 0)][v] for v in model.endo_names}
        assert root_label == {
            "O": "1", "Att": "0", "HD": "1", "ODS": "1", "DA": "0", "Col": "0",
        }
        assert len(cgs.states) == 13

        # the full transition table: 12 internal arcs plus 8 leaf self-loops
        expected = {}
        expected[(q(0, 0), ("0", "0", NO_OP))] = q(1, 0)
        expected[(q(0, 0), ("0", "1", NO_OP))] = q(1, 1)
        expected[(q(0, 0), ("1", "0", NO_OP))] = q(1, 2)
        expected[(q(0, 0), ("1", "1", NO_OP))] = q(1, 3)
        for j in range(4):
            expected[(q(1, j), (NO_OP, NO_OP, "0"))] = q(2, 2 * j)
            expected[(q(1, j), (NO_OP, NO_OP, "1"))] = q(2, 2 * j + 1)
        for j in range(8):
            expected[(q(2, j), (NO_OP, NO_OP, NO_OP))] = q(2, j)
        assert dict(cgs.base.transition) == expected

        def endo(state):
            return {v: cgs.assignments[state][v] for v in model.endo_names}

        assert endo(q(1, 0)) == {
            "O": "1", "Att": "0", "HD": "0", "ODS": "0", "DA": "0", "Col": "0",
        }
        assert endo(q(2, 1)) == {
            "O": "1", "Att": "0", "HD": "0", "ODS": "0", "DA": "1", "Col": "0",
        }
        leaf_rows = [
            ("0", "0", "0", "0"),
            ("0", "0", "1", "0"),
            ("0", "1", "0", "0"),
            ("0", "1", "1", "0"),
            ("1", "0", "0", "0"),
            ("1", "0", "1", "1"),
            ("1", "1", "0", "0"),
            ("1", "1", "1", "1"),
        ]
        for j, row in enumerate(leaf_rows):
            label = endo(q(2, j))
            assert (label["HD"], label["ODS"], label["DA"], label["Col"]) == row
            assert (label["O"], label["Att"]) == ("1", "0")

        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_butfor_cause_reproduction(capsys):
    with criterion(2, "agent but-for causes of no_collision are ODS=1 and DA=0"):
        model = vehicle_model()
        certs = enumerate_causes(
            model, VEHICLE_CONTEXT, NO_COLLISION, restrict_to_agents=True
        )
        found = [
            (c.cause.vars, c.cause.actual_values, c.witness.vars, c.alternative)
            for c in certs
        ]
        assert found == [
            (("ODS",), ("1",), (), ("0",)),
            (("DA",), ("0",), (), ("1",)),
        ]
        # each intervention flips the collision variable
        assert evaluate(model, VEHICLE_CONTEXT, {"ODS": "0"})["Col"] == "1"
        assert evaluate(model, VEHICLE_CONTEXT, {"DA": "1"})["Col"] == "1"

        # the command-line path reports the same two causes
        code = main([
            "causes", VEHICLE_PATH,
            "--outcome", "no_collision", "--agents-only", "--butfor",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "cause {ODS=1}" in out and "cause {DA=0}" in out


def test_criterion_3_profile_reaches_corresponding_leaf():
    with criterion(3, "the model-following profile reaches q_{2,6}, matching (M,u)"):
        model = vehicle_model()
        cgs = _build(model, VEHICLE_CONTEXT)
        profile = causal_profile(model, VEHICLE_CONTEXT, cgs)
        history = play(cgs.base, cgs.root, profile)
        assert history[-1] == q(2, 6)
        assert corresponds(cgs.assignments[q(2, 6)], model, VEHICLE_CONTEXT, {})


def test_criterion_4_deviation_correspondence():
    with criterion(
        4, "500 models x contexts x agent subsets x assignments: deviations land on"
           " the intervened setting (< 60 s)"
    ):
        start = time.perf_counter()
        models = 0
        plays = 0
        for model in deviation_models():
            models += 1
            agents = model.agents_in_order
            for context in all_contexts(model):
                cgs = _build(model, context)
                for size in range(len(agents) + 1):
                    for subset in itertools.combinations(agents, size):
                        domains = [model.domain[a] for a in subset]
                        for combo in itertools.product(*domains):
                            fixed = dict(zip(subset, combo))
                            leaf = play_deviation(cgs, model, context, fixed)
                            assert corresponds(
                                cgs.assignments[leaf], model, context, fixed
                            )
                            expected = evaluate(
                                intervened_model(model, fixed), context, {}
                            )
                            assert dict(cgs.assignments[leaf]) == expected
                            plays += 1
        elapsed = time.perf_counter() - start
        assert models >= 500
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        print(f"  ({models} models, {plays} deviation plays, {elapsed:.1f}s)")


def test_criterion_5_bridge_equivalence_with_oracle():
    with criterion(
        5, "200 models, exhaustive candidate/witness/outcome tuples: both verdicts"
           " agree and match the literal-definition oracle"
    ):
        models = 0
        fixed_checked = 0
        superset_checked = 0
        for model, context in bridge_cases():
            models += 1
            BUILT.append(build_causal_cgs(model, context, {}))
            actual = evaluate(model, context)
            agents = model.agents_in_order
            outcomes = [EqTest(v, actual[v]) for v in model.endo_names]
            candidates = [
                CandidateCause(subset, tuple(actual[v] for v in subset))
                for size in range(1, len(agents) + 1)
                for subset in itertools.combinations(agents, size)
            ]
            for candidate in candidates:
                witness_pool = [v for v in model.endo_names if v not in candidate.vars]
                witnesses = [
                    Witness(ws, tuple(actual[w] for w in ws))
                    for size in range(len(witness_pool) + 1)
                    for ws in itertools.combinations(witness_pool, size)
                ]
                agent_pool = [v for v in agents if v not in candidate.vars]
                agent_witnesses = [
                    Witness(ws, tuple(actual[w] for w in ws))
                    for size in range(len(agent_pool) + 1)
                    for ws in itertools.combinations(agent_pool, size)
                ]
                for outcome in outcomes:
                    for witness in witnesses:
                        verdict = check_prop_cause_iff_strategy(
                            model, context, candidate, witness, outcome
                        )
                        BUILT.append(
                            build_causal_cgs(model, context, witness.as_mapping())
                        )
                        assert verdict.agree
                        from_oracle = oracle.literal_ac12(
                            model, context, candidate.vars, witness.vars, outcome
                        )
                        assert (verdict.cause_side is not None) == (
                            from_oracle is not None
                        )
                        fixed_checked += 1
                    for witness in agent_witnesses:
                        verdict = check_prop_superset_strategy(
                            model, context, candidate, witness, outcome
                        )
                        assert verdict.agree
                        superset_checked += 1
        assert models >= 200
        print(f"  ({models} models, {fixed_checked} fixed-witness and"
              f" {superset_checked} superset tuples)")


def test_criterion_6_rank_stability_everywhere():
    with criterion(6, "rank stability holds on every structure built so far"):
        structures = list(BUILT)
        if not structures:  # criterion run in isolation
            structures = [_build(vehicle_model(), VEHICLE_CONTEXT)]
        for cgs in structures:
            assert check_rank_stability(cgs) == []
        print(f"  ({len(structures)} structures checked)")


def test_criterion_7_size_bound_everywhere():
    with criterion(7, "|Q| stays within 1 + 2 * product of agent domain sizes"):
        structures = list(BUILT)
        if not structures:
            structures = [_build(vehicle_model(), VEHICLE_CONTEXT)]
        for cgs in structures:
            rep = size_report(cgs)
            assert rep.states <= rep.bound + 1
        print(f"  ({len(structures)} structures checked)")


def test_criterion_8_cause_enumeration_matches_oracle():
    with criterion(
        8, "cause enumeration agrees with the brute-force oracle on exhaustive"
           " small models and seeded random models (< 120 s)"
    ):
        start = time.perf_counter()
        checked = 0
        population = itertools.chain(exhaustive_small_models(), oracle_random_models())
        for model in population:
            for context in all_contexts(model):
                actual = evaluate(model, context)
                for name in model.endo_names:
                    outcome = EqTest(name, actual[name])
                    got = sorted(
                        (c.cause.vars, c.cause.actual_values)
                        for c in enumerate_causes(model, context, outcome)
                    )
                    want = sorted(
                        (vars_, tuple(actual[v] for v in vars_))
                        for vars_, _, _ in oracle.literal_causes(model, context, outcome)
                    )
                    assert got == want
                    checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"
        print(f"  ({checked} model/context/outcome triples, {elapsed:.1f}s)")
