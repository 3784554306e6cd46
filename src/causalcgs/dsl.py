"""Text format for causal models.

A document is a sequence of declarations, equations, an optional context,
and named outcome formulas:

    exogenous U_O in {0, 1}
    endogenous O in {0, 1}
    agent DA in {0, 1}
    eq O := U_O
    eq DA := HD & !ODS
    context U_O = 1, U_Att = 0
    outcome no_collision : !Col

'#' starts a comment that runs to end of line. Expression operators by
loosening precedence: ! binds tightest, then &, then |; & and | associate
left. 'if c then a else b' is an atom; its else-arm extends as far right
as possible. A bare identifier denotes a declared variable if one of that
name exists, otherwise a literal value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .model import (
    And,
    CausalModel,
    Const,
    Diagnostic,
    EqTest,
    EventFormula,
    Expression,
    Ite,
    ModelError,
    Not,
    Or,
    Value,
    Var,
    VariableId,
    as_event_formula,
    validate_context,
    validate_model,
)

KEYWORDS = frozenset(
    {"exogenous", "endogenous", "agent", "eq", "context", "outcome", "in", "if", "then", "else"}
)

_DECLARATIONS = ("exogenous", "endogenous", "agent")


class ParseError(ModelError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "value", "punct", "keyword", "eof"
    text: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_col = col
        two = source[i : i + 2]
        if two in (":=", "=="):
            tokens.append(Token("punct", two, line, start_col))
            i += 2
            col += 2
            continue
        if c in "{}(),=:!&|":
            tokens.append(Token("punct", c, line, start_col))
            i += 1
            col += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, start_col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("value", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, start_col)
    tokens.append(Token("eof", "", line, col))
    return tokens


@dataclass(frozen=True)
class ModelDocument:
    model: CausalModel
    context: Optional[dict[VariableId, Value]]
    outcomes: dict[str, Expression]
    outcome_positions: dict[str, tuple[int, int]] = field(default_factory=dict)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        # A declaration is the only place where these keywords are followed
        # by an identifier, so the declared names are known before parsing
        # and a bare identifier resolves where it stands.
        self.declared = frozenset(
            name.text
            for word, name in zip(tokens, tokens[1:])
            if word.kind == "keyword" and word.text in _DECLARATIONS and name.kind == "ident"
        )

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    def expect_punct(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.text != text:
            raise self.error(f"expected {text!r}")
        return self.next()

    def expect_ident(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind == "keyword":
            raise self.error(f"{tok.text!r} is a reserved word, not a {what}")
        if tok.kind != "ident":
            raise self.error(f"expected {what}")
        return self.next()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "keyword" and tok.text == word

    def take_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            raise self.error(f"expected {word!r}")
        return self.next()

    # value positions accept identifiers too: domains are arbitrary strings
    def expect_value(self) -> Token:
        tok = self.peek()
        if tok.kind not in ("value", "ident"):
            raise self.error("expected a value")
        return self.next()

    def parse_domain(self) -> list[Value]:
        self.expect_punct("{")
        values = [self.expect_value().text]
        while self.peek().kind == "punct" and self.peek().text == ",":
            self.next()
            values.append(self.expect_value().text)
        self.expect_punct("}")
        return values

    def parse_expr(self) -> Expression:
        return self.parse_or()

    def parse_or(self) -> Expression:
        left = self.parse_and()
        while self.peek().kind == "punct" and self.peek().text == "|":
            self.next()
            left = Or(left, self.parse_and())
        return left

    def parse_and(self) -> Expression:
        left = self.parse_not()
        while self.peek().kind == "punct" and self.peek().text == "&":
            self.next()
            left = And(left, self.parse_not())
        return left

    def parse_not(self) -> Expression:
        if self.peek().kind == "punct" and self.peek().text == "!":
            self.next()
            return Not(self.parse_not())
        return self.parse_atom()

    def parse_atom(self) -> Expression:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == "(":
            self.next()
            inner = self.parse_expr()
            self.expect_punct(")")
            return inner
        if self.at_keyword("if"):
            self.next()
            cond = self.parse_expr()
            self.take_keyword("then")
            then = self.parse_expr()
            self.take_keyword("else")
            orelse = self.parse_expr()
            return Ite(cond, then, orelse)
        if tok.kind == "value":
            self.next()
            return Const(tok.text)
        if tok.kind == "ident":
            self.next()
            if self.peek().kind == "punct" and self.peek().text == "==":
                self.next()
                # undeclared names on the left of '==' are a validate_model problem
                return EqTest(tok.text, self.expect_value().text)
            return Var(tok.text) if tok.text in self.declared else Const(tok.text)
        raise self.error("expected an expression")


def parse_model(source: str) -> ModelDocument:
    """Parse a model document. Raises ParseError on syntax errors; semantic
    problems are left for document_diagnostics."""
    p = _Parser(tokenize(source))
    exogenous: list[tuple[str, list[Value]]] = []
    endogenous: list[tuple[str, list[Value]]] = []
    agents: list[str] = []
    equations: list[tuple[str, Expression]] = []
    context: Optional[dict[str, Value]] = None
    parsed_outcomes: list[tuple[str, Expression, tuple[int, int]]] = []

    while p.peek().kind != "eof":
        tok = p.peek()
        if tok.kind != "keyword":
            raise p.error("expected a declaration, equation, context, or outcome")
        if tok.text in _DECLARATIONS:
            p.next()
            name = p.expect_ident("variable name").text
            p.take_keyword("in")
            domain = p.parse_domain()
            if tok.text == "exogenous":
                exogenous.append((name, domain))
            else:
                endogenous.append((name, domain))
                if tok.text == "agent":
                    agents.append(name)
        elif tok.text == "eq":
            p.next()
            name = p.expect_ident("equation target").text
            p.expect_punct(":=")
            equations.append((name, p.parse_expr()))
        elif tok.text == "context":
            if context is not None:
                raise p.error("a second context block")
            p.next()
            context = {}
            while True:
                name_tok = p.expect_ident("variable name")
                p.expect_punct("=")
                value = p.expect_value().text
                if name_tok.text in context:
                    raise ParseError(
                        f"{name_tok.text} assigned twice in context",
                        name_tok.line,
                        name_tok.column,
                    )
                context[name_tok.text] = value
                if p.peek().kind == "punct" and p.peek().text == ",":
                    p.next()
                    continue
                break
        elif tok.text == "outcome":
            p.next()
            name_tok = p.expect_ident("outcome name")
            p.expect_punct(":")
            parsed_outcomes.append(
                (name_tok.text, p.parse_expr(), (name_tok.line, name_tok.column))
            )
        else:
            raise p.error(f"unexpected {tok.text!r} here")

    outcomes: dict[str, Expression] = {}
    positions: dict[str, tuple[int, int]] = {}
    for name, expr, pos in parsed_outcomes:
        if name in outcomes:
            raise ParseError(f"outcome {name} defined twice", pos[0], pos[1])
        outcomes[name] = expr
        positions[name] = pos
    # built directly, not via make_model: duplicate declarations must survive
    # so document_diagnostics can report them
    model = CausalModel(
        exogenous=tuple((n, tuple(d)) for n, d in exogenous),
        endogenous=tuple((n, tuple(d)) for n, d in endogenous),
        equations=tuple(equations),
        agent_vars=tuple(agents),
    )
    return ModelDocument(model, context, outcomes, positions)


def document_diagnostics(doc: ModelDocument) -> list[Diagnostic]:
    """All semantic problems: model validation, context validation, and
    outcome formulas that fail to denote events over endogenous variables."""
    diags = list(validate_model(doc.model))
    if not diags and doc.context is not None:
        diags.extend(validate_context(doc.model, doc.context))
    if not diags:
        for name, expr in doc.outcomes.items():
            line, column = doc.outcome_positions.get(name, (None, None))
            try:
                as_event_formula(expr, doc.model)
            except ModelError as exc:
                diags.append(
                    Diagnostic(
                        "bad-outcome",
                        f"outcome {name}: {exc}",
                        variable=name,
                        line=line,
                        column=column,
                    )
                )
    return diags


def outcome_formula(doc: ModelDocument, name: str) -> EventFormula:
    if name not in doc.outcomes:
        known = ", ".join(sorted(doc.outcomes)) or "none defined"
        raise ModelError(f"unknown outcome {name!r} (known: {known})")
    return as_event_formula(doc.outcomes[name], doc.model)
