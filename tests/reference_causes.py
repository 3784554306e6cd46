"""The cause search as first written, kept as the reference that the
library's one-pass search is compared against.

Every candidate gets a full single check: its own witness search, then a
witness search for each of its strict subsets (minimality). With
all_witnesses, the witness loop runs again for each cause to list every
admissible witness. It reuses the library's single-witness primitive,
`dependence_with_witness`, and differs only in how the candidate and witness
loops are driven. Truncation warnings are left out.
"""

from __future__ import annotations

from typing import Optional

from causalcgs.causality import (
    CandidateCause,
    CauseCertificate,
    Witness,
    dependence_with_witness,
    subsets_by_size,
)
from causalcgs.model import evaluate, satisfies


def _dependence_search(model, context, cause_vars, outcome, actual, max_witness_size):
    rest = [v for v in model.endo_names if v not in cause_vars]
    for witness_vars in subsets_by_size(rest, max_witness_size):
        witness = Witness(witness_vars, tuple(actual[w] for w in witness_vars))
        alt = dependence_with_witness(model, context, cause_vars, witness, outcome)
        if alt is not None:
            return witness, alt
    return None


def check_cause(model, context, candidate, outcome, max_witness_size=None) -> Optional[CauseCertificate]:
    if not candidate.vars:
        return None
    actual = evaluate(model, context)
    actually_x = all(actual[v] == x for v, x in zip(candidate.vars, candidate.actual_values))
    if not (actually_x and satisfies(actual, outcome)):
        return None
    found = _dependence_search(model, context, candidate.vars, outcome, actual, max_witness_size)
    if found is None:
        return None
    for sub in subsets_by_size(candidate.vars, len(candidate.vars) - 1):
        if sub and _dependence_search(model, context, sub, outcome, actual, max_witness_size) is not None:
            return None
    witness, alt = found
    return CauseCertificate(candidate, witness, alt, outcome)


def enumerate_causes(model, context, outcome, restrict_to_agents=False, all_witnesses=False,
                     max_cause_size=None, max_witness_size=None) -> list[CauseCertificate]:
    actual = evaluate(model, context)
    assert satisfies(actual, outcome), "the reference expects an outcome that holds"
    pool = model.agents_in_order if restrict_to_agents else model.endo_names
    certificates = []
    for cause_vars in subsets_by_size(pool, max_cause_size):
        if not cause_vars:
            continue
        candidate = CandidateCause(cause_vars, tuple(actual[v] for v in cause_vars))
        cert = check_cause(model, context, candidate, outcome, max_witness_size)
        if cert is None:
            continue
        if not all_witnesses:
            certificates.append(cert)
            continue
        rest = [v for v in model.endo_names if v not in cause_vars]
        for witness_vars in subsets_by_size(rest, max_witness_size):
            witness = Witness(witness_vars, tuple(actual[w] for w in witness_vars))
            alt = dependence_with_witness(model, context, cause_vars, witness, outcome)
            if alt is not None:
                certificates.append(CauseCertificate(candidate, witness, alt, outcome))
    return certificates
