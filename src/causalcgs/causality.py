"""Minimal-change actual causes with frozen witnesses.

A candidate X=x (at its actual values) is a cause of an outcome when the
outcome actually holds (actuality), some alternative setting of X falsifies
it while a witness set of other variables is frozen at its actual values
(counterfactual dependence), and no strict subset of X already suffices
(minimality). A but-for cause is one whose dependence needs no witness.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .model import (
    CausalModel,
    Context,
    EventFormula,
    ModelError,
    Value,
    VariableId,
    evaluate,
    satisfies,
)


class CausalityError(ModelError):
    pass


@dataclass(frozen=True)
class CandidateCause:
    """Variables X with their values x in the actual setting."""

    vars: tuple[VariableId, ...]
    actual_values: tuple[Value, ...]


@dataclass(frozen=True)
class Witness:
    """Variables W frozen at their actual values w*."""

    vars: tuple[VariableId, ...]
    values: tuple[Value, ...]

    def as_mapping(self) -> dict[VariableId, Value]:
        return dict(zip(self.vars, self.values))


@dataclass(frozen=True)
class CauseCertificate:
    cause: CandidateCause
    witness: Witness
    alternative: tuple[Value, ...]
    outcome: EventFormula


def subsets_by_size(names: Sequence[VariableId], max_size: Optional[int] = None) -> Iterable[tuple[VariableId, ...]]:
    """Every subset of names up to max_size elements, smallest first, each
    size in combination (declaration) order; the empty subset comes first."""
    top = len(names) if max_size is None else min(max_size, len(names))
    for size in range(top + 1):
        yield from itertools.combinations(names, size)


_Hit = tuple[Witness, tuple[Value, ...]]  # a witness and its first alternative


def _witness_hits(
    model: CausalModel,
    context: Context,
    cause_vars: tuple[VariableId, ...],
    outcome: EventFormula,
    actual: Mapping[VariableId, Value],
    max_witness_size: Optional[int],
) -> Iterator[_Hit]:
    """Every (witness, first alternative) making the outcome false.

    Witness subsets come smallest first (so the first hit is the canonical
    witness, the empty one when it suffices), each with its first
    alternative in domain-lexicographic order. Warns when there is no hit
    and the witness sets were capped.
    """
    rest = [v for v in model.endo_names if v not in cause_vars]
    hit = False
    for witness_vars in subsets_by_size(rest, max_witness_size):
        witness = Witness(witness_vars, tuple(actual[w] for w in witness_vars))
        alt = dependence_with_witness(model, context, cause_vars, witness, outcome)
        if alt is not None:
            hit = True
            yield witness, alt
    if not hit and max_witness_size is not None and max_witness_size < len(rest):
        warnings.warn(
            f"search truncated: witness sets capped at size {max_witness_size}",
            stacklevel=2,
        )


def _minimal_causes(
    model: CausalModel,
    context: Context,
    pool: Sequence[VariableId],
    max_size: Optional[int],
    outcome: EventFormula,
    actual: Mapping[VariableId, Value],
    max_witness_size: Optional[int],
) -> Iterator[tuple[tuple[VariableId, ...], Iterator[_Hit]]]:
    """Every minimal cause among the nonempty subsets of pool, with its
    witness hits (the first one is the canonical witness).

    Subsets come smallest first, so a subset that has counterfactual
    dependence is non-minimal iff it contains a cause yielded earlier; such
    a subset is skipped without a witness search.
    """
    found: list[frozenset[VariableId]] = []
    for cause_vars in subsets_by_size(pool, max_size):
        members = frozenset(cause_vars)
        if not members or any(cause <= members for cause in found):
            continue
        hits = _witness_hits(model, context, cause_vars, outcome, actual, max_witness_size)
        first = next(hits, None)
        if first is not None:
            found.append(members)
            yield cause_vars, itertools.chain((first,), hits)


def dependence_with_witness(
    model: CausalModel,
    context: Context,
    cause_vars: tuple[VariableId, ...],
    witness: Witness,
    outcome: EventFormula,
) -> Optional[tuple[Value, ...]]:
    """First alternative falsifying the outcome under one fixed witness."""
    domains = [model.domain[v] for v in cause_vars]
    frozen = witness.as_mapping()
    for alt in itertools.product(*domains):
        forced = dict(zip(cause_vars, alt))
        forced.update(frozen)
        if not satisfies(evaluate(model, context, forced), outcome):
            return alt
    return None


def check_cause(
    model: CausalModel,
    context: Context,
    candidate: CandidateCause,
    outcome: EventFormula,
    max_witness_size: Optional[int] = None,
) -> Optional[CauseCertificate]:
    """Certificate iff actuality, counterfactual dependence, and minimality
    all hold; None otherwise."""
    endo = set(model.endo_names)
    for v in candidate.vars:
        if v not in endo:
            raise CausalityError(f"candidate variable {v} is not endogenous")
    if not candidate.vars:
        return None
    actual = evaluate(model, context)
    actually_x = all(actual[v] == x for v, x in zip(candidate.vars, candidate.actual_values))
    if not (actually_x and satisfies(actual, outcome)):
        return None
    found = next(_witness_hits(model, context, candidate.vars, outcome, actual, max_witness_size), None)
    if found is None:
        return None
    smaller = _minimal_causes(
        model, context, candidate.vars, len(candidate.vars) - 1, outcome, actual, max_witness_size
    )
    if next(smaller, None) is not None:
        return None  # a strict subset already suffices
    witness, alt = found
    return CauseCertificate(candidate, witness, alt, outcome)


def enumerate_causes(
    model: CausalModel,
    context: Context,
    outcome: EventFormula,
    restrict_to_agents: bool = False,
    all_witnesses: bool = False,
    max_cause_size: Optional[int] = None,
    max_witness_size: Optional[int] = None,
) -> list[CauseCertificate]:
    """All minimal causes, in deterministic order (cause subsets smallest
    first, then by declaration order).

    With all_witnesses, each cause is reported once per admissible witness
    set; otherwise only with the first (canonical) witness. Raises when the
    outcome does not hold in the actual setting. A never-false outcome
    yields an empty list.
    """
    actual = evaluate(model, context)
    if not satisfies(actual, outcome):
        raise CausalityError("AC1 violated for every candidate: outcome is false in the actual setting")
    pool = model.agents_in_order if restrict_to_agents else model.endo_names
    if max_cause_size is not None and max_cause_size < len(pool):
        warnings.warn(f"search truncated: cause sets capped at size {max_cause_size}", stacklevel=2)
    certificates: list[CauseCertificate] = []
    causes = _minimal_causes(model, context, pool, max_cause_size, outcome, actual, max_witness_size)
    for cause_vars, hits in causes:
        candidate = CandidateCause(cause_vars, tuple(actual[v] for v in cause_vars))
        for witness, alt in hits if all_witnesses else itertools.islice(hits, 1):
            certificates.append(CauseCertificate(candidate, witness, alt, outcome))
    return certificates
