"""Parsing, diagnostics, and canonical printing of `.rvm` files."""

import math
import random
import re
from pathlib import Path

import pytest

from redvote import compose, dsl, run_workflow
from redvote.errors import ValidationError

from oracles import random_workflow

MODELS = Path(__file__).resolve().parent.parent / "models"

INLINE_BAYES = """\
workflow "w" {
  bayes net {
    node A states (False, True) cpt (0.9, 0.1);
    node B states (False, True) parents (A) cpt (0.8, 0.2, 0.3, 0.7);
    node C states (Low, Mid, High) parents (A, B)
      cpt (0.5, 0.3, 0.2, 0.4, 0.4, 0.2, 0.3, 0.3, 0.4, 0.1, 0.2, 0.7);
  }
  instance n : net { }
  output pC = n.p_C_High;
}
"""


def parse_ok(text: str) -> compose.Workflow:
    result = dsl.parse(text)
    assert result.ok, [d.message for d in result.diagnostics]
    return result.workflow


def first_error(text: str) -> dsl.ParseDiagnostic:
    result = dsl.parse(text)
    assert not result.ok
    assert result.diagnostics, "rejection must carry at least one diagnostic"
    return result.diagnostics[0]


class TestParse:
    def test_empty_workflow(self):
        workflow = parse_ok('workflow "w" { }')
        assert workflow == compose.Workflow("w")

    def test_version_header_accepted(self):
        assert parse_ok('version 1;\nworkflow "w" { }').name == "w"

    def test_unsupported_version_rejected(self):
        diag = first_error('version 2;\nworkflow "w" { }')
        assert "version" in diag.message
        assert (diag.line, diag.column) == (1, 1)

    def test_case_study_file_solves_to_reference_value(self):
        text = (MODELS / "case-study.rvm").read_text()
        workflow = parse_ok(text)
        result = run_workflow(workflow)
        assert result.exports["HFR_2oo3"] == pytest.approx(3.33e-7, rel=1e-2)

    def test_self_loop_rate_diagnostic_with_position(self):
        text = 'workflow "w" {\n  ctmc c {\n    state S0 init;\n    rate S0 -> S0 : 1;\n  }\n}'
        diag = first_error(text)
        assert "self-loop transition" in diag.message
        assert diag.line == 4
        assert diag.column == 5

    def test_lexical_error_positioned(self):
        diag = first_error('workflow "w" { @ }')
        assert "unexpected character" in diag.message
        assert (diag.line, diag.column) == (1, 16)

    def test_syntax_error_positioned(self):
        diag = first_error('workflow "w" { instance }')
        assert diag.line == 1
        assert "expected" in diag.message

    def test_unterminated_string(self):
        diag = first_error('workflow "w { }')
        assert "unexpected character" in diag.message

    def test_duplicate_names_rejected(self):
        text = (
            'workflow "w" {\n'
            "  ctmc c { state S0 init; }\n"
            "  ctmc c { state S0 init; }\n"
            "}"
        )
        diag = first_error(text)
        assert "duplicate model name" in diag.message
        assert diag.line == 3

    def test_duplicate_binding_rejected(self):
        text = (
            'workflow "w" {\n'
            "  instance phi : builtin.failure2oo2 {\n"
            "    PAR_1 = 0.1;\n    PAR_1 = 0.2;\n    PAR_2 = 0.1;\n    PAR_3 = 0.1;\n"
            "  }\n}"
        )
        diag = first_error(text)
        assert "duplicate binding" in diag.message
        assert diag.line == 4

    def test_unknown_inline_model_rejected(self):
        diag = first_error('workflow "w" { instance x : nosuch { } }')
        assert "unknown model 'nosuch'" in diag.message

    def test_unknown_builtin_is_deferred_to_validation(self):
        # resolution of builtin names happens at validation, not parse
        workflow = parse_ok('workflow "w" { instance x : builtin.nosuch { } }')
        with pytest.raises(Exception, match="unknown model class"):
            compose.validate_workflow(workflow)

    def test_scientific_literals_exact(self):
        workflow = parse_ok(
            'workflow "w" {\n'
            "  instance phi : builtin.failure2oo2 {\n"
            "    PAR_1 = 1.666e-5;\n    PAR_2 = 1e-1;\n    PAR_3 = 0.1;\n"
            "  }\n}"
        )
        bindings = workflow.instances[0].bindings
        assert bindings["PAR_1"] == compose.Literal(float("1.666e-5"))
        assert bindings["PAR_2"] == compose.Literal(0.1)

    def test_operator_precedence(self):
        workflow = parse_ok(
            'workflow "w" {\n'
            "  ctmc c {\n    state A init;\n    state B;\n"
            "    rate A -> B : 2 * X - Y / 4 + 1;\n  }\n}"
        )
        (_, _, expr) = workflow.classes[0].template.rates[0]
        # ((2*X) - (Y/4)) + 1
        assert expr == compose.BinOp(
            "+",
            compose.BinOp(
                "-",
                compose.BinOp("*", compose.Literal(2.0), compose.Param("X")),
                compose.BinOp("/", compose.Param("Y"), compose.Literal(4.0)),
            ),
            compose.Literal(1.0),
        )

    def test_missing_init_rejected(self):
        diag = first_error('workflow "w" { ctmc c { state S0; } }')
        assert "init" in diag.message

    def test_bayes_cpt_arity_checked(self):
        text = (
            'workflow "w" {\n'
            "  bayes b {\n"
            "    node X states (False, True) cpt (0.5, 0.5);\n"
            "    node Y states (False, True) parents (X) cpt (0.5, 0.5);\n"
            "  }\n}"
        )
        diag = first_error(text)
        assert "4 table entries" in diag.message
        assert diag.line == 4

    def test_reserved_word_cannot_name_instance(self):
        diag = first_error('workflow "w" { instance rate : builtin.failure2oo2 { } }')
        assert "reserved word" in diag.message

    def test_corrupted_input_never_raises_and_always_diagnoses(self):
        # parse() must degrade to positioned diagnostics on arbitrary damage,
        # inline chains and networks included
        rng = random.Random(99)
        sources = [
            (MODELS / "case-study.rvm").read_text(),
            (MODELS / "inline-maintenance.rvm").read_text(),
            INLINE_BAYES,
        ]
        for source in sources:
            for _ in range(200):
                text = source
                for _ in range(rng.randint(1, 3)):
                    pos = rng.randrange(len(text))
                    action = rng.random()
                    if action < 0.4:
                        text = text[:pos] + text[pos + 1:]
                    elif action < 0.8:
                        text = text[:pos] + rng.choice("{}();:=.*#\"xyz0") + text[pos:]
                    else:
                        text = text[:pos] + text[pos:pos + 10] + text[pos:]
                result = dsl.parse(text)
                if not result.ok:
                    assert result.diagnostics
                    for diag in result.diagnostics:
                        assert diag.line >= 1 and diag.column >= 1

    def test_colliding_parameter_names_diagnosed(self):
        # the rate input pi_A and the output of state A share a name
        text = (
            'workflow "w" {\n'
            "  ctmc c {\n    state A init;\n    state B;\n"
            "    rate A -> B : pi_A;\n    rate B -> A : 1;\n  }\n}"
        )
        diag = first_error(text)
        assert "parameter 'pi_A' is declared twice" in diag.message
        assert (diag.line, diag.column) == (2, 3)


#: One row per semantic diagnostic: the workflow body, the diagnostic's
#: (line, column) and a part of its message.
SEMANTIC_DIAGNOSTICS = [
    ("  ctmc c { state A init; }\n  bayes c { node X states (a, b) cpt (0.5, 0.5); }",
     (3, 3), "duplicate model name 'c'"),
    ("  instance x : builtin.failure2oo2 { }\n  instance x : builtin.failure2oo2 { }",
     (3, 12), "duplicate instance name 'x'"),
    ("  instance x : nosuch { }",
     (2, 16), "unknown model 'nosuch'"),
    ("  instance x : builtin.failure2oo2 {\n    PAR_1 = 0.1;\n    PAR_1 = 0.2;\n  }",
     (4, 5), "duplicate binding for 'PAR_1'"),
    ("  output y = 1;\n  output y = 2;",
     (3, 10), "duplicate export name 'y'"),
    ("  ctmc c {\n    state A init;\n    state A;\n  }",
     (4, 11), "duplicate state 'A'"),
    ("  ctmc c {\n    state A init;\n    state B init;\n  }",
     (4, 11), "more than one state marked 'init'"),
    ("  ctmc c { }",
     (2, 3), "declares no states"),
    ("  ctmc c {\n    state A;\n  }",
     (2, 3), "no state marked 'init'"),
    ("  ctmc c {\n    state A init;\n    rate A -> Z : 1;\n  }",
     (4, 5), "undeclared state 'Z'"),
    ("  ctmc c {\n    state A init;\n    rate A -> A : 1;\n  }",
     (4, 5), "self-loop transition on 'A'"),
    ("  ctmc c {\n    state A init;\n    state B;\n    rate A -> B : 1;\n    rate A -> B : 2;\n  }",
     (6, 5), "duplicate transition"),
    ("  ctmc c {\n    state A init;\n    state B;\n    rate A -> B : x.y;\n  }",
     (5, 5), "rate expressions may only use"),
    ("  bayes b {\n    node X states (a, b) cpt (0.5, 0.5);\n"
     "    node X states (a, b) cpt (0.5, 0.5);\n  }",
     (4, 10), "duplicate node 'X'"),
    ("  bayes b {\n    node X states (a, a) cpt (0.5, 0.5);\n  }",
     (3, 10), "repeats a state label"),
    ("  bayes b {\n    node X states (a) cpt (1);\n  }",
     (3, 10), "needs at least two states"),
    ("  bayes b {\n    node X states (a, b) parents (Z) cpt (0.5, 0.5, 0.5, 0.5);\n  }",
     (3, 10), "references unknown parent 'Z'"),
    ("  bayes b {\n    node X states (a, b) cpt (0.5, 0.5);\n"
     "    node Y states (a, b) parents (X) cpt (0.5, 0.5);\n  }",
     (4, 10), "needs 4 table entries, got 2"),
    ("  bayes b {\n    node X states (a, b) cpt (1 - x.y, x.y);\n  }",
     (3, 10), "table entries may only use"),
]


@pytest.mark.parametrize("body, position, message", SEMANTIC_DIAGNOSTICS,
                         ids=[row[2] for row in SEMANTIC_DIAGNOSTICS])
def test_semantic_diagnostic_position_and_message(body, position, message):
    diag = first_error(f'workflow "w" {{\n{body}\n}}')
    assert (diag.line, diag.column) == position
    assert message in diag.message


class TestPrint:
    def test_empty_workflow_two_lines(self):
        text = dsl.print_workflow(compose.Workflow("w"))
        assert text == 'workflow "w" {\n}\n'

    def test_print_twice_byte_identical(self):
        workflow = parse_ok((MODELS / "inline-maintenance.rvm").read_text())
        assert dsl.print_workflow(workflow) == dsl.print_workflow(workflow)

    def test_round_trip_case_study(self):
        workflow = parse_ok((MODELS / "case-study.rvm").read_text())
        assert parse_ok(dsl.print_workflow(workflow)) == workflow

    def test_round_trip_inline_models(self):
        workflow = parse_ok((MODELS / "inline-maintenance.rvm").read_text())
        reparsed = parse_ok(dsl.print_workflow(workflow))
        assert reparsed == workflow
        assert (
            run_workflow(reparsed).exports["HFR_2oo3"]
            == run_workflow(workflow).exports["HFR_2oo3"]
        )

    def test_round_trip_structural_equality_randomized(self):
        rng = random.Random(20240817)
        for _ in range(100):
            workflow = random_workflow(rng)
            printed = dsl.print_workflow(workflow)
            reparsed = parse_ok(printed)
            assert reparsed == workflow, printed
        # -0.0 prints as 0.0, which parses; inf and nan would parse as names
        zero = compose.Workflow("w", exports=(compose.Export("z", compose.Literal(-0.0)),))
        assert dsl.print_workflow(zero).count("output z = 0.0;") == 1
        assert parse_ok(dsl.print_workflow(zero)) == zero
        for value in (math.inf, math.nan):
            literal = compose.Workflow("w", exports=(compose.Export("x", compose.Literal(value)),))
            with pytest.raises(ValidationError, match="non-finite literal"):
                dsl.print_workflow(literal)

    @pytest.mark.parametrize("workflow, message", [
        (compose.Workflow("w", exports=(compose.Export("x", compose.Literal(-1.5)),)),
         "cannot print negative literal -1.5"),
        (compose.Workflow('say "w"'), "workflow names cannot contain quotes or newlines"),
    ], ids=["negative literal", "quoted name"])
    def test_unprintable_workflow_rejected(self, workflow, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            dsl.print_workflow(workflow)

    @pytest.mark.parametrize("name", sorted(compose.builtin_classes()))
    def test_builtin_record_prints_as_inline_and_reparses_equal(self, name):
        # a builtin is a record like an inline model, with expressions in its tables
        builtin = compose.builtin_classes()[name]
        printed = dsl.print_workflow(compose.Workflow("w", (builtin,)))
        (reparsed,) = parse_ok(printed).classes
        assert reparsed.template == builtin.template
        # inputs are inferred from the expressions; maintenance4 never reads PAR_9
        assert {p.name for p in reparsed.inputs} <= {p.name for p in builtin.inputs}

    def test_expression_parentheses_preserve_structure(self):
        # right-nested subtraction must keep its parentheses
        expr = compose.BinOp(
            "-", compose.Literal(1.0),
            compose.BinOp("-", compose.Param("A"), compose.Param("B")),
        )
        assert dsl.format_expr(expr) == "1.0 - (A - B)"
        left = compose.BinOp(
            "-", compose.BinOp("-", compose.Literal(1.0), compose.Param("A")),
            compose.Param("B"),
        )
        assert dsl.format_expr(left) == "1.0 - A - B"
