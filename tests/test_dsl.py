import pytest
from hypothesis import given
import hypothesis.strategies as st

from causalcgs.dsl import (
    ModelDocument,
    ParseError,
    document_diagnostics,
    outcome_formula,
    parse_model,
    tokenize,
)
from causalcgs.model import (
    And,
    Const,
    EqTest,
    Ite,
    ModelError,
    Not,
    Or,
    Var,
    evaluate,
    validate_model,
)

MINIMAL = """
exogenous U in {0, 1}
agent X in {0, 1}
eq X := U
context U = 1
outcome on : X
"""


def test_parse_minimal_document():
    doc = parse_model(MINIMAL)
    assert doc.model.exo_names == ("U",)
    assert doc.model.endo_names == ("X",)
    assert doc.model.agent_vars == ("X",)
    assert doc.context == {"U": "1"}
    assert document_diagnostics(doc) == []
    assert outcome_formula(doc, "on") == EqTest("X", "1")


def test_vehicle_file_parses_clean(vehicle_doc, vehicle):
    assert validate_model(vehicle_doc.model) == []
    assert vehicle_doc.model == vehicle
    assert vehicle_doc.context == {"U_O": "1", "U_Att": "0"}
    assert set(vehicle_doc.outcomes) == {"no_collision", "collision"}
    assert outcome_formula(vehicle_doc, "no_collision") == Not(EqTest("Col", "1"))


def test_comments_and_whitespace_ignored():
    doc = parse_model("# leading comment\nexogenous U in {0,1}  # trailing\nagent X in {0,1}\neq X := U\n")
    assert doc.model.endo_names == ("X",)


def test_operator_precedence():
    doc = parse_model(
        "exogenous U in {0,1}\n"
        "endogenous A in {0,1}\nendogenous B in {0,1}\nendogenous C in {0,1}\n"
        "agent Z in {0,1}\n"
        "eq A := U\neq B := U\neq C := U\n"
        "eq Z := !A & B | C\n"
    )
    eq = dict(doc.model.equations)["Z"]
    # ! binds before &, & before |
    assert eq == Or(And(Not(Var("A")), Var("B")), Var("C"))


def test_and_or_associate_left():
    doc = parse_model(
        "exogenous U in {0,1}\nendogenous A in {0,1}\nendogenous B in {0,1}\n"
        "endogenous C in {0,1}\nagent Z in {0,1}\n"
        "eq A := U\neq B := U\neq C := U\neq Z := A & B & C\n"
    )
    eq = dict(doc.model.equations)["Z"]
    assert eq == And(And(Var("A"), Var("B")), Var("C"))


def test_if_then_else_extends_right():
    doc = parse_model(
        "exogenous U in {0,1}\nendogenous A in {0,1}\nagent Z in {0,1}\n"
        "eq A := U\neq Z := if A then 0 else A | U\n"
    )
    eq = dict(doc.model.equations)["Z"]
    assert eq == Ite(Var("A"), Const("0"), Or(Var("A"), Var("U")))


def test_equality_test_and_nonboolean_values():
    doc = parse_model(
        "exogenous U in {lo, hi}\nagent X in {0,1}\neq X := U == hi\ncontext U = hi\n"
    )
    assert document_diagnostics(doc) == []
    assert evaluate(doc.model, doc.context)["X"] == "1"


def test_undeclared_identifier_reads_as_value():
    doc = parse_model("exogenous U in {red, blue}\nagent X in {0,1}\neq X := U == red\n")
    eq = dict(doc.model.equations)["X"]
    assert eq == EqTest("U", "red")
    # a bare undeclared word in expression position becomes a constant
    doc2 = parse_model("exogenous U in {red, blue}\nagent X in {red, blue}\neq X := red\n")
    assert dict(doc2.model.equations)["X"] == Const("red")


def test_name_declared_after_its_use_is_a_variable():
    doc = parse_model(
        "exogenous U in {0,1}\nagent X in {0,1}\neq X := !Y | Y == 1\n"
        "outcome late : Y\nendogenous Y in {0,1}\neq Y := U\n"
    )
    assert dict(doc.model.equations)["X"] == Or(Not(Var("Y")), EqTest("Y", "1"))
    assert doc.outcomes["late"] == Var("Y")


def test_syntax_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_model("exogenous U in {0,1}\neq X :=\n")
    assert exc.value.line == 3
    with pytest.raises(ParseError) as exc:
        parse_model("exogenous U in 0,1}\n")
    assert exc.value.line == 1
    assert exc.value.column == 16


def test_reserved_words_rejected_as_names():
    with pytest.raises(ParseError):
        parse_model("exogenous if in {0,1}\n")


def test_semantic_errors_deferred_to_diagnostics():
    # an undeclared identifier reads as a constant, caught by the range check
    doc = parse_model("exogenous U in {0,1}\nagent X in {0,1}\neq X := W\n")
    diags = document_diagnostics(doc)
    assert any("W" in d.message for d in diags) and diags[0].code == "range"
    # inside an equality test the name must be declared
    doc1 = parse_model("exogenous U in {0,1}\nagent X in {0,1}\neq X := W == 1\n")
    assert any(d.code == "unknown-variable" for d in document_diagnostics(doc1))
    doc2 = parse_model("exogenous U in {0,1}\nagent X in {0,1}\neq X := U\neq X := U\n")
    assert any(d.code == "duplicate-equation" for d in document_diagnostics(doc2))
    doc3 = parse_model(
        "exogenous U in {0,1}\nagent X in {0,1}\neq X := U\ncontext U = 5\n"
    )
    assert document_diagnostics(doc3) != []


def test_duplicate_declaration_survives_to_diagnostics():
    doc = parse_model(
        "exogenous U in {0,1}\nagent X in {0,1}\nendogenous X in {0,1}\neq X := U\n"
    )
    assert any(d.code == "duplicate-variable" for d in document_diagnostics(doc))


def test_bad_outcome_reported():
    doc = parse_model(
        "exogenous U in {0,1}\nagent X in {0,1}\neq X := U\noutcome w : 1\n"
    )
    diags = document_diagnostics(doc)
    assert any(d.code == "bad-outcome" for d in diags)


def test_second_context_block_rejected():
    with pytest.raises(ParseError):
        parse_model("exogenous U in {0,1}\nagent X in {0,1}\neq X := U\ncontext U = 0\ncontext U = 1\n")


def test_duplicate_outcome_rejected():
    with pytest.raises(ParseError):
        parse_model(
            "exogenous U in {0,1}\nagent X in {0,1}\neq X := U\n"
            "outcome a : X\noutcome a : !X\n"
        )


def test_unknown_outcome_lookup(vehicle_doc):
    with pytest.raises(ModelError):
        outcome_formula(vehicle_doc, "nope")


@given(st.text(max_size=200))
def test_parser_totality_on_arbitrary_text(text):
    # every input parses, raises a located ParseError, or fails validation;
    # nothing else escapes
    try:
        doc = parse_model(text)
    except ParseError as exc:
        assert exc.line >= 1 and exc.column >= 1
        return
    document_diagnostics(doc)


@given(st.binary(max_size=120))
def test_parser_totality_on_bytes(raw):
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return
    try:
        parse_model(text)
    except ParseError:
        pass
