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
from typing import Iterable, Mapping, Optional, Sequence

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

    @staticmethod
    def at_actual(model: CausalModel, context: Context, vars: Sequence[VariableId]) -> "CandidateCause":
        actual = evaluate(model, context)
        return CandidateCause(tuple(vars), tuple(actual[v] for v in vars))

    def as_mapping(self) -> dict[VariableId, Value]:
        return dict(zip(self.vars, self.actual_values))


@dataclass(frozen=True)
class Witness:
    """Variables W frozen at their actual values w*."""

    vars: tuple[VariableId, ...]
    values: tuple[Value, ...]

    @staticmethod
    def empty() -> "Witness":
        return Witness((), ())

    @staticmethod
    def at_actual(model: CausalModel, context: Context, vars: Sequence[VariableId]) -> "Witness":
        actual = evaluate(model, context)
        return Witness(tuple(vars), tuple(actual[v] for v in vars))

    def as_mapping(self) -> dict[VariableId, Value]:
        return dict(zip(self.vars, self.values))


@dataclass(frozen=True)
class CauseCertificate:
    cause: CandidateCause
    witness: Witness
    alternative: tuple[Value, ...]
    outcome: EventFormula

    def intervention(self) -> dict[VariableId, Value]:
        """The falsifying intervention: X at the alternative, W frozen."""
        forced = dict(zip(self.cause.vars, self.alternative))
        forced.update(self.witness.as_mapping())
        return forced


def subsets_by_size(names: Sequence[VariableId], max_size: Optional[int] = None) -> Iterable[tuple[VariableId, ...]]:
    """Every subset of names up to max_size elements, smallest first, each
    size in combination (declaration) order; the empty subset comes first."""
    top = len(names) if max_size is None else min(max_size, len(names))
    for size in range(top + 1):
        yield from itertools.combinations(names, size)


def _dependence_search(
    model: CausalModel,
    context: Context,
    cause_vars: tuple[VariableId, ...],
    outcome: EventFormula,
    actual: Mapping[VariableId, Value],
    max_witness_size: Optional[int] = None,
) -> Optional[tuple[Witness, tuple[Value, ...]]]:
    """First (witness, alternative) making the outcome false, or None.

    Witness subsets are tried smallest first (so the empty witness wins when
    it suffices), alternatives in domain-lexicographic order.
    """
    rest = [v for v in model.endo_names if v not in cause_vars]
    truncated = max_witness_size is not None and max_witness_size < len(rest)
    for witness_vars in subsets_by_size(rest, max_witness_size):
        witness = Witness(witness_vars, tuple(actual[w] for w in witness_vars))
        alt = dependence_with_witness(model, context, cause_vars, witness, outcome)
        if alt is not None:
            return witness, alt
    if truncated:
        warnings.warn(
            f"search truncated: witness sets capped at size {max_witness_size}",
            stacklevel=2,
        )
    return None


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
    found = _dependence_search(model, context, candidate.vars, outcome, actual, max_witness_size)
    if found is None:
        return None
    for sub in subsets_by_size(candidate.vars, len(candidate.vars) - 1):
        if sub and _dependence_search(model, context, sub, outcome, actual, max_witness_size) is not None:
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


def is_butfor_cause(
    model: CausalModel,
    context: Context,
    candidate: CandidateCause,
    outcome: EventFormula,
) -> Optional[tuple[Value, ...]]:
    """Alternative values x' iff the candidate is a cause whose dependence
    needs no witness. The canonical search tries the empty witness first, so
    a certificate with a nonempty witness means no empty-witness alternative
    exists."""
    cert = check_cause(model, context, candidate, outcome)
    if cert is None or cert.witness.vars:
        return None
    return cert.alternative
