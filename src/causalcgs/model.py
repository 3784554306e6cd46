"""Finite-domain structural causal models.

A model splits its variables into exogenous ones (set from outside through a
context) and endogenous ones (each determined by a structural equation over
the other variables). All domains are finite and values are plain strings.
Boolean domains are the two-symbol domain {"0", "1"} with "1" meaning true.

The module provides model validation, evaluation under interventions,
event-formula satisfaction, and equation surgery (replacing equations with
constants).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Union, get_args

VariableId = str
Value = str

FALSE: Value = "0"
TRUE: Value = "1"
BOOL: tuple[Value, Value] = (FALSE, TRUE)

_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class ModelError(Exception):
    """An operation was applied to an ill-formed model or input."""


# --- structural equation expressions -------------------------------------

@dataclass(frozen=True)
class Const:
    value: Value


@dataclass(frozen=True)
class Var:
    name: VariableId


@dataclass(frozen=True)
class EqTest:
    """Equality test `name == value`; doubles as a primitive event."""

    name: VariableId
    value: Value


@dataclass(frozen=True)
class Not:
    arg: "Expression"


@dataclass(frozen=True)
class And:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Or:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Ite:
    cond: "Expression"
    then: "Expression"
    orelse: "Expression"


Expression = Union[Const, Var, EqTest, Not, And, Or, Ite]
_NODES = frozenset(get_args(Expression))

# Event formulas are the Boolean fragment: EqTest / Not / And / Or only.
EventFormula = Union[EqTest, Not, And, Or]


def free_variables(expr: Expression) -> frozenset[VariableId]:
    """All variable names referenced anywhere in the expression."""
    if isinstance(expr, Const):
        return frozenset()
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, EqTest):
        return frozenset((expr.name,))
    if isinstance(expr, Not):
        return free_variables(expr.arg)
    if isinstance(expr, (And, Or)):
        return free_variables(expr.left) | free_variables(expr.right)
    if isinstance(expr, Ite):
        return free_variables(expr.cond) | free_variables(expr.then) | free_variables(expr.orelse)
    raise TypeError(f"not an expression node: {expr!r}")


def _flatten(value: object) -> tuple:
    """Nested tuples and expression nodes as a flat token tuple, in pre-order
    and without recursion: two values are equal iff their tuples are."""
    tokens: list = []
    stack = [value]
    while stack:
        item = stack.pop()
        kind = item.__class__
        if kind is str:
            tokens.append(item)
            continue
        tokens.append(kind)
        if kind is tuple:
            tokens.append(len(item))
            stack.extend(reversed(item))
        elif kind in _NODES:
            stack.extend(reversed(item.__dict__.values()))
        else:
            tokens.append(item)
    return tuple(tokens)


def truth(value: Value) -> bool:
    if value == TRUE:
        return True
    if value == FALSE:
        return False
    raise ModelError(f"value {value!r} is not Boolean")


def eval_expr(expr: Expression, values: Mapping[VariableId, Value]) -> Value:
    """Evaluate an expression against a (partial) assignment of values."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        try:
            return values[expr.name]
        except KeyError:
            raise ModelError(f"internal error: undefined variable {expr.name!r}") from None
    if isinstance(expr, EqTest):
        try:
            return TRUE if values[expr.name] == expr.value else FALSE
        except KeyError:
            raise ModelError(f"internal error: undefined variable {expr.name!r}") from None
    if isinstance(expr, Not):
        return FALSE if truth(eval_expr(expr.arg, values)) else TRUE
    if isinstance(expr, And):
        if not truth(eval_expr(expr.left, values)):
            return FALSE
        return TRUE if truth(eval_expr(expr.right, values)) else FALSE
    if isinstance(expr, Or):
        if truth(eval_expr(expr.left, values)):
            return TRUE
        return TRUE if truth(eval_expr(expr.right, values)) else FALSE
    if isinstance(expr, Ite):
        branch = expr.then if truth(eval_expr(expr.cond, values)) else expr.orelse
        return eval_expr(branch, values)
    raise TypeError(f"not an expression node: {expr!r}")


# --- model ----------------------------------------------------------------

Context = Mapping[VariableId, Value]
Intervention = Mapping[VariableId, Value]
Assignment = dict  # total map VariableId -> Value over exogenous + endogenous


@dataclass(frozen=True)
class CausalModel:
    """Signature, equations, and the designated agent variables.

    Declaration order of the variable tuples is significant: it fixes the
    canonical agent order and the lexicographic indexing used downstream.
    """

    exogenous: tuple[tuple[VariableId, tuple[Value, ...]], ...]
    endogenous: tuple[tuple[VariableId, tuple[Value, ...]], ...]
    equations: tuple[tuple[VariableId, Expression], ...]
    agent_vars: tuple[VariableId, ...] = ()

    # The build cache hashes and compares models on every lookup. The generated
    # methods recurse through the expression trees, past the recursion limit
    # for deep ones; these use the equations' flat token tuple instead, and
    # hash it once per model.
    @cached_property
    def _key(self) -> tuple:
        return (self.exogenous, self.endogenous, self.agent_vars, _flatten(self.equations))

    @cached_property
    def _hash(self) -> int:
        return hash(self._key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self._key == other._key

    @cached_property
    def _solved(self) -> dict:
        """evaluate's memo: solved settings by sorted (context, intervention)
        items. It lives and dies with the model."""
        return {}

    @cached_property
    def exo_names(self) -> tuple[VariableId, ...]:
        return tuple(name for name, _ in self.exogenous)

    @cached_property
    def endo_names(self) -> tuple[VariableId, ...]:
        return tuple(name for name, _ in self.endogenous)

    @cached_property
    def domain(self) -> dict[VariableId, tuple[Value, ...]]:
        d: dict[VariableId, tuple[Value, ...]] = {}
        for name, dom in itertools.chain(self.exogenous, self.endogenous):
            d.setdefault(name, tuple(dom))
        return d

    @cached_property
    def equation(self) -> dict[VariableId, Expression]:
        return dict(self.equations)

    @cached_property
    def agent_set(self) -> frozenset[VariableId]:
        return frozenset(self.agent_vars)

    @cached_property
    def agents_in_order(self) -> tuple[VariableId, ...]:
        """Agent variables in endogenous declaration order."""
        return tuple(v for v in self.endo_names if v in self.agent_set)

    @cached_property
    def endo_parents(self) -> dict[VariableId, frozenset[VariableId]]:
        """Endogenous variables syntactically referenced by each equation."""
        endo = frozenset(self.endo_names)
        return {v: free_variables(e) & endo for v, e in self.equations if v in endo}

    @cached_property
    def topo_order(self) -> tuple[VariableId, ...]:
        """A topological order of the endogenous dependency graph.

        Raises ModelError when the equations are cyclic.
        """
        cycle = find_cycle(self.endo_parents)
        if cycle is not None:
            raise ModelError("cyclic equations: " + " -> ".join(cycle))
        order: list[VariableId] = []
        placed: set[VariableId] = set()
        pending = [v for v in self.endo_names if v in self.endo_parents]
        while pending:
            rest = []
            for v in pending:
                if self.endo_parents[v] <= placed:
                    order.append(v)
                    placed.add(v)
                else:
                    rest.append(v)
            pending = rest
        return tuple(order)


def make_model(
    exogenous: Mapping[VariableId, Iterable[Value]],
    endogenous: Mapping[VariableId, Iterable[Value]],
    equations: Mapping[VariableId, Expression],
    agents: Iterable[VariableId] = (),
) -> CausalModel:
    """Build a CausalModel from mappings, normalizing declaration order.

    Equations are ordered by endogenous declaration; equations for unknown
    targets are kept (appended) so validate_model can report them.
    """
    endo_order = list(endogenous)
    eq_items = [(v, equations[v]) for v in endo_order if v in equations]
    eq_items += [(v, e) for v, e in equations.items() if v not in endogenous]
    agent_list = list(agents)
    ordered_agents = [v for v in endo_order if v in agent_list]
    ordered_agents += [v for v in agent_list if v not in ordered_agents]
    return CausalModel(
        exogenous=tuple((v, tuple(d)) for v, d in exogenous.items()),
        endogenous=tuple((v, tuple(d)) for v, d in endogenous.items()),
        equations=tuple(eq_items),
        agent_vars=tuple(ordered_agents),
    )


# --- diagnostics ----------------------------------------------------------

@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    variable: Optional[VariableId] = None
    line: Optional[int] = None
    column: Optional[int] = None

    def __str__(self) -> str:
        where = f"{self.line}:{self.column}: " if self.line is not None else ""
        return f"{where}[{self.code}] {self.message}"


def find_cycle(parents: Mapping[VariableId, Iterable[VariableId]]) -> Optional[list[VariableId]]:
    """Return one cycle as a node list (first == last), or None if acyclic."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {v: WHITE for v in parents}
    for start in parents:
        if color[start] != WHITE:
            continue
        stack: list[tuple[VariableId, Iterable]] = [(start, iter(parents[start]))]
        path = [start]
        color[start] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in color:
                    continue  # reference to a non-node (unknown var), not a cycle edge
                if color[nxt] == GREY:
                    k = path.index(nxt)
                    return path[k:] + [nxt]
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    path.append(nxt)
                    stack.append((nxt, iter(parents[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return None


def possible_values(expr: Expression, domain: Mapping[VariableId, tuple[Value, ...]]) -> frozenset[Value]:
    """Over-approximation of the values an expression can produce."""
    if isinstance(expr, Const):
        return frozenset((expr.value,))
    if isinstance(expr, Var):
        return frozenset(domain.get(expr.name, ()))
    if isinstance(expr, (EqTest, Not, And, Or)):
        return frozenset(BOOL)
    if isinstance(expr, Ite):
        return possible_values(expr.then, domain) | possible_values(expr.orelse, domain)
    raise TypeError(f"not an expression node: {expr!r}")


def _expression_diagnostics(
    target: VariableId, expr: Expression, model: CausalModel
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    domain = model.domain

    def walk(e: Expression, boolean: bool) -> None:
        if isinstance(e, Const):
            if boolean and e.value not in BOOL:
                diags.append(Diagnostic(
                    "not-boolean",
                    f"equation for {target}: constant {e.value!r} used as a condition",
                    target,
                ))
        elif isinstance(e, Var):
            if e.name not in domain:
                diags.append(Diagnostic(
                    "unknown-variable",
                    f"equation for {target} references undeclared variable {e.name}",
                    target,
                ))
            elif boolean and not set(domain[e.name]) <= set(BOOL):
                diags.append(Diagnostic(
                    "not-boolean",
                    f"equation for {target}: variable {e.name} has a non-Boolean domain"
                    " but is used as a condition",
                    target,
                ))
        elif isinstance(e, EqTest):
            if e.name not in domain:
                diags.append(Diagnostic(
                    "unknown-variable",
                    f"equation for {target} references undeclared variable {e.name}",
                    target,
                ))
            elif e.value not in domain[e.name]:
                diags.append(Diagnostic(
                    "value-out-of-domain",
                    f"equation for {target} compares {e.name} with {e.value!r},"
                    f" not in its domain",
                    target,
                ))
        elif isinstance(e, Not):
            walk(e.arg, True)
        elif isinstance(e, (And, Or)):
            walk(e.left, True)
            walk(e.right, True)
        elif isinstance(e, Ite):
            walk(e.cond, True)
            walk(e.then, boolean)
            walk(e.orelse, boolean)
        else:
            diags.append(Diagnostic("bad-expression", f"equation for {target}: {e!r} is not an expression", target))

    walk(expr, False)
    if not diags and free_variables(expr) <= set(domain):
        produced = possible_values(expr, domain)
        allowed = set(domain.get(target, ()))
        if target in domain and not produced <= allowed:
            extra = ", ".join(sorted(produced - allowed))
            diags.append(Diagnostic(
                "range",
                f"equation for {target} may produce value(s) outside its domain: {extra}",
                target,
            ))
    return diags


def validate_model(model: CausalModel) -> list[Diagnostic]:
    """Check every structural invariant; an empty list means the model is valid."""
    diags: list[Diagnostic] = []
    seen: set[VariableId] = set()
    for name, dom in itertools.chain(model.exogenous, model.endogenous):
        if not name or not _NAME_RE.match(name):
            diags.append(Diagnostic("bad-name", f"variable name {name!r} is not [A-Za-z0-9_]+", name))
        if name in seen:
            diags.append(Diagnostic("duplicate-variable", f"variable {name} declared twice", name))
        seen.add(name)
        if len(dom) == 0:
            diags.append(Diagnostic("empty-domain", f"variable {name} has an empty domain", name))
        if len(set(dom)) != len(dom):
            diags.append(Diagnostic("duplicate-value", f"domain of {name} repeats a value", name))

    endo = set(model.endo_names)
    eq_targets = [v for v, _ in model.equations]
    for v in sorted({t for t in eq_targets if eq_targets.count(t) > 1}):
        diags.append(Diagnostic("duplicate-equation", f"variable {v} has more than one equation", v))
    for v in model.endo_names:
        if v not in model.equation:
            diags.append(Diagnostic("missing-equation", f"endogenous variable {v} has no equation", v))
    for v, _ in model.equations:
        if v not in endo:
            kind = "exogenous variable" if v in model.exo_names else "undeclared variable"
            diags.append(Diagnostic("extra-equation", f"equation given for {kind} {v}", v))

    for a in model.agent_vars:
        if a not in endo:
            diags.append(Diagnostic("agent-not-endogenous", f"agent variable {a} is not endogenous", a))
    if len(set(model.agent_vars)) != len(model.agent_vars):
        diags.append(Diagnostic("duplicate-agent", "an agent variable is listed twice"))

    for v, e in model.equations:
        diags.extend(_expression_diagnostics(v, e, model))

    cycle = find_cycle(model.endo_parents)
    if cycle is not None:
        diags.append(Diagnostic("cycle", "cyclic equations: " + " -> ".join(cycle), cycle[0]))
    return diags


def validate_context(model: CausalModel, context: Context) -> list[Diagnostic]:
    diags = []
    for name in model.exo_names:
        if name not in context:
            diags.append(Diagnostic("missing-context", f"no context value for exogenous {name}", name))
    for name, value in context.items():
        if name not in model.exo_names:
            diags.append(Diagnostic("not-exogenous", f"context sets {name}, which is not exogenous", name))
        elif value not in model.domain[name]:
            diags.append(Diagnostic("value-out-of-domain", f"context value {name}={value!r} not in domain", name))
    return diags


# --- evaluation -----------------------------------------------------------

def _check_intervention(model: CausalModel, intervention: Intervention) -> None:
    endo = set(model.endo_names)
    for name, value in intervention.items():
        if name not in endo:
            raise ModelError(f"intervention targets non-endogenous variable {name}")
        if value not in model.domain[name]:
            raise ModelError(f"intervention value {name}={value!r} out of domain")


def evaluate(model: CausalModel, context: Context, intervention: Intervention | None = None) -> Assignment:
    """Solve the setting: context values, forced intervention values, then
    every remaining equation in dependency order. Returns a total assignment
    over exogenous + endogenous variables.
    """
    intervention = dict(intervention or {})
    key = (tuple(sorted(context.items())), tuple(sorted(intervention.items())))
    hit = model._solved.get(key)
    if hit is None:
        # Validity depends only on the key, and a call that raises stores
        # nothing, so a memo hit needs no check.
        bad = validate_context(model, context)
        if bad:
            raise ModelError("; ".join(str(d) for d in bad))
        _check_intervention(model, intervention)
        values: dict[VariableId, Value] = dict(context)
        values.update(intervention)
        hit = solve(model, values, [v for v in model.topo_order if v not in intervention])
        model._solved[key] = hit
    return dict(hit)


def solve(
    model: CausalModel, values: dict[VariableId, Value], order: Iterable[VariableId]
) -> dict[VariableId, Value]:
    """Set each variable of `order`, a topological order, from its equation
    over `values`, in place; returns `values`. Every other variable an
    equation reads must already be set."""
    equation, domain = model.equation, model.domain
    for v in order:
        result = eval_expr(equation[v], values)
        if result not in domain[v]:
            raise ModelError(
                f"internal error: equation for {v} produced {result!r}, outside its domain"
            )
        values[v] = result
    return values


def satisfies(assignment: Mapping[VariableId, Value], formula: EventFormula) -> bool:
    """Standard Boolean evaluation; a primitive event X=x holds iff the
    assignment maps X to x."""
    if isinstance(formula, EqTest):
        try:
            return assignment[formula.name] == formula.value
        except KeyError:
            raise ModelError(f"formula references unknown variable {formula.name}") from None
    if isinstance(formula, Not):
        return not satisfies(assignment, formula.arg)
    if isinstance(formula, And):
        return satisfies(assignment, formula.left) and satisfies(assignment, formula.right)
    if isinstance(formula, Or):
        return satisfies(assignment, formula.left) or satisfies(assignment, formula.right)
    raise ModelError(f"{formula!r} is not an event formula")


def as_event_formula(expr: Expression, model: CausalModel) -> EventFormula:
    """Convert an expression into an event formula over endogenous variables.

    Bare references to Boolean variables become var=1. Constants and
    if-then-else have no primitive-event reading and are rejected.
    """
    def conv(e: Expression) -> EventFormula:
        if isinstance(e, Var):
            if e.name not in model.domain:
                raise ModelError(f"unknown variable {e.name} in event formula")
            if not set(model.domain[e.name]) <= set(BOOL):
                raise ModelError(f"bare reference to non-Boolean variable {e.name} in event formula")
            return EqTest(e.name, TRUE)
        if isinstance(e, EqTest):
            return e
        if isinstance(e, Not):
            return Not(conv(e.arg))
        if isinstance(e, And):
            return And(conv(e.left), conv(e.right))
        if isinstance(e, Or):
            return Or(conv(e.left), conv(e.right))
        raise ModelError(f"{type(e).__name__} node not allowed in an event formula")

    formula = conv(expr)
    endo = set(model.endo_names)
    for name in sorted(free_variables(formula)):
        if name not in model.domain:
            raise ModelError(f"event formula references unknown variable {name}")
        if name not in endo:
            raise ModelError(f"event formula references non-endogenous variable {name}")
    for e in _eqtests(formula):
        if e.name in model.domain and e.value not in model.domain[e.name]:
            raise ModelError(f"event formula compares {e.name} with out-of-domain value {e.value!r}")
    return formula


def _eqtests(formula: EventFormula) -> Iterable[EqTest]:
    if isinstance(formula, EqTest):
        yield formula
    elif isinstance(formula, Not):
        yield from _eqtests(formula.arg)
    elif isinstance(formula, (And, Or)):
        yield from _eqtests(formula.left)
        yield from _eqtests(formula.right)


def intervened_model(model: CausalModel, intervention: Intervention) -> CausalModel:
    """Replace each intervened variable's equation with the forced constant."""
    if not intervention:
        return model
    _check_intervention(model, intervention)
    new_eqs = tuple(
        (v, Const(intervention[v]) if v in intervention else e) for v, e in model.equations
    )
    new = CausalModel(
        exogenous=model.exogenous,
        endogenous=model.endogenous,
        equations=new_eqs,
        agent_vars=model.agent_vars,
    )
    # Fill the cached parent sets from the source's: a constant has no free
    # variables and every other equation is the source's, so the expressions
    # need no second walk.
    new.__dict__["endo_parents"] = {
        v: frozenset() if v in intervention else ps for v, ps in model.endo_parents.items()
    }
    return new
