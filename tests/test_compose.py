"""Workflow validation, execution, sweeps, and composition invariants."""

import copy
import math
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import redvote
from redvote import bayes, compose, ctmc, dsl, nmr
from redvote.errors import TINY, SolverError, ValidationError

from oracles import enum_marginal, random_net

SHIPPED = {path.name: dsl.parse(path.read_text()).workflow for path in
           sorted((Path(__file__).resolve().parent.parent / "models").glob("*.rvm"))}

MAINT_LITERALS = {
    "PAR_6": compose.Literal(1.0),
    "PAR_7": compose.Literal(1e-2),
    "PAR_8": compose.Literal(1e-4),
    "PAR_9": compose.Literal(3.0),
}


def case_study_workflow(par1=1.666e-5, par2=0.1, par3=0.1, maintenance="maintenance5"):
    phi = compose.ModelInstance(
        "phi", "failure2oo2",
        {
            "PAR_1": compose.Literal(par1),
            "PAR_2": compose.Literal(par2),
            "PAR_3": compose.Literal(par3),
        },
    )
    mu = compose.ModelInstance(
        "mu", maintenance,
        {
            "PAR_4": compose.Ref("phi", "PAR_4"),
            "PAR_5": compose.Ref("phi", "PAR_5"),
            **MAINT_LITERALS,
        },
    )
    export = compose.Export(
        "HFR_2oo3", compose.BinOp("*", compose.Literal(3.0), compose.Ref("mu", "PAR_10"))
    )
    return compose.Workflow("case-study", (), (phi, mu), (export,))


def inline_five_state_class() -> compose.ModelClass:
    def p(name):
        return compose.Param(name)

    two_par4_minus_par5 = compose.BinOp(
        "-", compose.BinOp("*", compose.Literal(2.0), p("PAR_4")), p("PAR_5")
    )
    rates = (
        ("S0", "S1", two_par4_minus_par5),
        ("S0", "S3", p("PAR_5")),
        ("S1", "S0", p("PAR_6")),
        ("S1", "S2", p("PAR_5")),
        ("S2", "S0", compose.BinOp("*", compose.BinOp("-", compose.Literal(1.0), p("PAR_7")), p("PAR_6"))),
        ("S2", "S3", compose.BinOp("*", p("PAR_7"), p("PAR_6"))),
        ("S2", "S4", p("PAR_8")),
        ("S3", "S2", two_par4_minus_par5),
        ("S3", "S4", p("PAR_8")),
        ("S4", "S3", p("PAR_9")),
    )
    template = compose.InlineCtmc("imm", ("S0", "S1", "S2", "S3", "S4"), "S0", rates)
    return compose.class_from_inline(template)


def test_records_are_immutable_values_compared_by_type():
    lit, param = compose.Literal(1.0), compose.Param("x")
    assert compose.Param("x") == param and hash(compose.Param("x")) == hash(param)
    assert compose.Literal("x") != param  # same fields, another type
    assert lit != (1.0,) and lit != compose.Literal(2.0)
    assert repr(compose.BinOp("+", lit, param)) == (
        "BinOp(op='+', left=Literal(value=1.0), right=Param(name='x'))"
    )
    with pytest.raises(TypeError):
        compose.Ref("phi")
    with pytest.raises(AttributeError):
        lit.value = 2.0
    workflow = case_study_workflow()
    assert pickle.loads(pickle.dumps(workflow)) == workflow == copy.deepcopy(workflow)
    # the benchmark keys its spans on the model classes and the failure inputs
    classes = (inline_five_state_class(),)
    assert hash(compose.Workflow("w", list(classes)).classes) == hash(classes)
    assert hash(nmr.FailureParams(1e-5, 0.1, 0.1)) == hash(nmr.FailureParams(1e-5, 0.1, 0.1))
    # every record the package exports is a tuple with named fields
    not_records = (Exception, redvote.BayesNet)
    for name in redvote.__all__:
        kind = getattr(redvote, name)
        if isinstance(kind, type) and not issubclass(kind, not_records):
            assert all(hasattr(kind, a) for a in ("_fields", "_asdict", "_replace")), name
    # and the records that coerce their fields coerce them in _replace and _make too
    phi = workflow.instances[0]
    pairs = list(phi.bindings.items())
    assert phi._replace(bindings=pairs).bindings == phi.bindings == dict(pairs)
    assert compose.ModelInstance._make(("phi", "failure2oo2", pairs)) == phi
    assert workflow._replace(classes=list(classes)).classes == classes
    assert compose.Workflow._make(("w", list(classes), [], [])) == compose.Workflow("w", classes)


class TestValidation:
    def test_case_study_order(self):
        validated = compose.validate_workflow(case_study_workflow())
        assert validated.order == ("phi", "mu")

    def test_solve_order_is_first_in_first_out(self):
        # X needs B and Y needs A: Y became ready first, so it runs first;
        # sorting each wave of ready instances would give A, B, X, Y
        def failure(name):
            return compose.ModelInstance(
                name, "failure2oo2",
                {p: compose.Literal(v) for p, v in (("PAR_1", 1e-5), ("PAR_2", 0.1), ("PAR_3", 0.1))},
            )

        def maintenance(name, upstream):
            return compose.ModelInstance(
                name, "maintenance5",
                {
                    "PAR_4": compose.Ref(upstream, "PAR_4"),
                    "PAR_5": compose.Ref(upstream, "PAR_5"),
                    **MAINT_LITERALS,
                },
            )

        instances = (failure("A"), failure("B"), maintenance("X", "B"), maintenance("Y", "A"))
        validated = compose.validate_workflow(compose.Workflow("w", (), instances, ()))
        assert validated.order == ("A", "B", "Y", "X")
        notes = compose.run_workflow(validated).provenance
        assert [note.split(":")[0] for note in notes] == ["A", "B", "Y", "X"]

    def test_empty_workflow_valid(self):
        validated = compose.validate_workflow(compose.Workflow("empty"))
        assert validated.order == ()

    def test_self_reference_is_a_cycle(self):
        inst = compose.ModelInstance(
            "mu", "maintenance5",
            {
                "PAR_4": compose.Ref("mu", "PAR_10"),
                "PAR_5": compose.Ref("mu", "PAR_10"),
                **MAINT_LITERALS,
            },
        )
        with pytest.raises(ValidationError, match="cycle"):
            compose.validate_workflow(compose.Workflow("w", (), (inst,), ()))

    def test_unbound_input_rejected(self):
        inst = compose.ModelInstance("phi", "failure2oo2", {"PAR_1": compose.Literal(0.1)})
        with pytest.raises(ValidationError, match="unbound"):
            compose.validate_workflow(compose.Workflow("w", (), (inst,), ()))

    def test_unknown_class_rejected(self):
        inst = compose.ModelInstance("phi", "nonesuch", {})
        with pytest.raises(ValidationError, match="unknown model class"):
            compose.validate_workflow(compose.Workflow("w", (), (inst,), ()))

    def test_unknown_binding_parameter_rejected(self):
        inst = compose.ModelInstance(
            "phi", "failure2oo2",
            {
                "PAR_1": compose.Literal(0.1),
                "PAR_2": compose.Literal(0.1),
                "PAR_3": compose.Literal(0.1),
                "PAR_9": compose.Literal(0.1),
            },
        )
        with pytest.raises(ValidationError, match="unknown input"):
            compose.validate_workflow(compose.Workflow("w", (), (inst,), ()))

    def test_kind_mismatch_rejected(self):
        # pi_S0 is a probability output; PAR_6 declares a rate input
        imm = inline_five_state_class()
        src = compose.ModelInstance(
            "src", "imm",
            {
                "PAR_4": compose.Literal(1e-4),
                "PAR_5": compose.Literal(1e-5),
                **MAINT_LITERALS,
            },
        )
        bad = compose.ModelInstance(
            "bad", "maintenance5",
            {
                "PAR_4": compose.Literal(1e-4),
                "PAR_5": compose.Literal(1e-5),
                "PAR_6": compose.Ref("src", "pi_S0"),
                "PAR_7": compose.Literal(1e-2),
                "PAR_8": compose.Literal(1e-4),
                "PAR_9": compose.Literal(3.0),
            },
        )
        workflow = compose.Workflow("w", (imm,), (src, bad), ())
        with pytest.raises(ValidationError, match="expects a rate"):
            compose.validate_workflow(workflow)

    def test_probability_literal_range_checked(self):
        workflow = case_study_workflow(par1=1.666e-5)
        bad_phi = compose.ModelInstance(
            "phi", "failure2oo2",
            {
                "PAR_1": compose.Literal(1.5),
                "PAR_2": compose.Literal(0.1),
                "PAR_3": compose.Literal(0.1),
            },
        )
        bad = compose.Workflow("w", (), (bad_phi, workflow.instances[1]), workflow.exports)
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            compose.validate_workflow(bad)

    def test_export_must_reference_known_output(self):
        workflow = case_study_workflow()
        bad = compose.Workflow(
            "w", (), workflow.instances,
            (compose.Export("x", compose.Ref("mu", "PAR_99")),),
        )
        with pytest.raises(ValidationError, match="no output"):
            compose.validate_workflow(bad)

    @pytest.mark.parametrize("where", ["binding", "export"])
    def test_missing_output_error_names_its_location(self, where):
        workflow = case_study_workflow()
        phi, mu = workflow.instances
        if where == "binding":
            mu = compose.ModelInstance("mu", mu.class_name,
                                       {**mu.bindings, "PAR_5": compose.Ref("phi", "PAR_9")})
            message = ("instance 'mu': binding for 'PAR_5' references phi.PAR_9, "
                       "but model class 'failure2oo2' has no output 'PAR_9'")
            exports = workflow.exports
        else:
            exports = (compose.Export("X", compose.Ref("mu", "PAR_99")),)
            message = ("export 'X' references mu.PAR_99, "
                       "but model class 'maintenance5' has no output 'PAR_99'")
        bad = compose.Workflow("w", (), (phi, mu), exports)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            compose.validate_workflow(bad)

    def test_duplicate_instance_rejected(self):
        inst = case_study_workflow().instances[0]
        with pytest.raises(ValidationError, match="duplicate instance"):
            compose.validate_workflow(compose.Workflow("w", (), (inst, inst), ()))

    def test_inline_shadowing_builtin_rejected(self):
        template = compose.InlineCtmc("maintenance5", ("S0",), "S0", ())
        cls = compose.class_from_inline(template)
        with pytest.raises(ValidationError, match="shadows"):
            compose.validate_workflow(compose.Workflow("w", (cls,), (), ()))

    def test_duplicate_inline_model_names_rejected(self):
        cls = compose.class_from_inline(compose.InlineCtmc("c", ("S0",), "S0", ()))
        with pytest.raises(ValidationError, match="duplicate model name 'c'") as info:
            compose.validate_workflow(compose.Workflow("w", (cls, cls), (), ()))
        assert info.value.element == ("classes", 1)

    @pytest.mark.parametrize("states, initial, rates, message, element", [
        (("A", "B"), "A", [("A", "B", 1.0), ("B", "A", 2.0), ("A", "A", 0.0)],
         "self-loop transition on 'A'", ("classes", 0, "rates", 2)),
        (("A", "B"), "A", [("A", "B", 1.0), ("B", "A", 2.0), ("A", "Z", 0.0)],
         "undeclared state 'Z'", ("classes", 0, "rates", 2)),
        (("A", "B"), "A", [("A", "B", 1.0), ("B", "A", 2.0), ("A", "B", 0.0)],
         "duplicate transition 'A' -> 'B'", ("classes", 0, "rates", 2)),
        (("A", "B"), "Z", [("A", "B", 1.0), ("B", "A", 2.0)],
         "initial state 'Z' is not a declared state", ("classes", 0)),
    ])
    def test_malformed_inline_chain_rejected(self, states, initial, rates, message, element):
        # each pair counts whatever its rate, so a zero rate hides nothing
        template = compose.InlineCtmc(
            "c", states, initial,
            tuple((src, dst, compose.Literal(rate)) for src, dst, rate in rates),
        )
        workflow = compose.Workflow(
            "w", (compose.class_from_inline(template),),
            (compose.ModelInstance("x", "c", {}),), (),
        )
        with pytest.raises(ValidationError, match=re.escape(message)) as info:
            compose.validate_workflow(workflow)
        assert info.value.element == element

    CHAIN = compose.InlineCtmc("c", ("A", "B"), "A",
                               (("A", "B", compose.Param("k")), ("B", "A", compose.Literal(1.0))))
    NET = compose.InlineBayes("c", (bayes.Node("N", ("F", "T"), (), (compose.Literal(0.5),) * 2),))

    @pytest.mark.parametrize("template, inputs, reads, requires, message, element", [
        (CHAIN, ("k",), (("Y", "A"), ("Z", "Q")), (),
         "output 'Z' reads 'Q', which is not a state of the template", ("reads", 1)),
        (NET, (), (("Y", "N", "X"),), (),
         "output 'Y' reads 'N=X', which is not a state of the template", ("reads", 0)),
        (NET, (), (("Y", "M", "T"),), (),
         "output 'Y' reads 'M=T', which is not a state of the template", ("reads", 0)),
        (CHAIN, (), (("Y", "A"),), (),
         "rate A -> B reads undeclared input 'k'", ("rates", 0)),
        (CHAIN, ("k",), (("Y", "A"),), (("x positive", compose.Param("x")),),
         "x positive reads undeclared input 'x'", ("requires", 0)),
        (CHAIN, ("k",), (("Y", "A"),), (("x positive", compose.Ref("x", "Y")),),
         "x positive references x.Y; requires facts may only use the model's own parameters",
         ("requires", 0)),
        (CHAIN, ("k", "Y"), (("Y", "A"),), (), "parameter 'Y' is declared twice", ()),
    ], ids=["chain-state", "net-state", "net-node", "template-input", "requires-input",
            "requires-ref", "input-is-output"])
    def test_class_interface_faults_rejected(self, template, inputs, reads, requires,
                                             message, element):
        # refused before any run, at the faulty row of the class
        cls = compose.ModelClass("c", tuple(map(compose.ParamDecl, inputs)), template, reads,
                                 requires, "library-built")
        instance = compose.ModelInstance("x", "c", dict.fromkeys(inputs, compose.Literal(1.0)))
        workflow = compose.Workflow("w", (cls,), (instance,))
        with pytest.raises(ValidationError, match=f"^model 'c': {re.escape(message)}$") as info:
            compose.validate_workflow(workflow)
        assert info.value.element == ("classes", 0, *element)

    @pytest.mark.parametrize("name", sorted(compose.builtin_classes()))
    def test_builtin_classes_pass_the_class_checks(self, name):
        compose._check_class(compose.builtin_classes()[name])

    def test_bare_name_in_binding_rejected(self):
        inst = compose.ModelInstance(
            "phi", "failure2oo2",
            {
                "PAR_1": compose.Param("PAR_1"),
                "PAR_2": compose.Literal(0.1),
                "PAR_3": compose.Literal(0.1),
            },
        )
        with pytest.raises(ValidationError, match="bare name"):
            compose.validate_workflow(compose.Workflow("w", (), (inst,), ()))

    def test_bare_name_in_export_rejected(self):
        workflow = case_study_workflow()
        bad = compose.Workflow(
            "w", (), workflow.instances,
            (compose.Export("x", compose.Param("loose")),),
        )
        with pytest.raises(ValidationError, match="bare name"):
            compose.validate_workflow(bad)


class TestRunWorkflow:
    def test_case_study_first_run(self):
        result = compose.run_workflow(case_study_workflow())
        assert result.exports["HFR_2oo3"] == pytest.approx(3.33e-7, rel=1e-2)
        assert result.instances["phi"]["PAR_4"] == pytest.approx(2.19e-6, rel=1e-2)
        assert len(result.provenance) == 2

    def test_single_instance_matches_direct_interface_bitwise(self):
        phi = compose.ModelInstance(
            "phi", "failure2oo2",
            {
                "PAR_1": compose.Literal(1.666e-5),
                "PAR_2": compose.Literal(0.1),
                "PAR_3": compose.Literal(0.1),
            },
        )
        exports = (
            compose.Export("par4", compose.Ref("phi", "PAR_4")),
            compose.Export("par5", compose.Ref("phi", "PAR_5")),
        )
        result = compose.run_workflow(compose.Workflow("solo", (), (phi,), exports))
        direct = nmr.failure_interface(nmr.FailureParams(1.666e-5, 0.1, 0.1))
        assert result.exports == {"par4": direct["PAR_4"], "par5": direct["PAR_5"]}

    def test_deterministic(self):
        workflow = case_study_workflow()
        first = compose.run_workflow(workflow)
        second = compose.run_workflow(workflow)
        assert first.exports == second.exports
        assert first.instances == second.instances

    def test_order_independence(self):
        phi_a = compose.ModelInstance(
            "a", "failure2oo2",
            {"PAR_1": compose.Literal(1e-5), "PAR_2": compose.Literal(0.1),
             "PAR_3": compose.Literal(0.1)},
        )
        phi_b = compose.ModelInstance(
            "b", "failure2oo2",
            {"PAR_1": compose.Literal(2e-5), "PAR_2": compose.Literal(0.1),
             "PAR_3": compose.Literal(0.1)},
        )
        exports = (
            compose.Export(
                "sum", compose.BinOp("+", compose.Ref("a", "PAR_4"), compose.Ref("b", "PAR_4"))
            ),
        )
        # the solve order follows declaration order
        ab = compose.validate_workflow(compose.Workflow("two", (), (phi_a, phi_b), exports))
        ba = compose.validate_workflow(compose.Workflow("two", (), (phi_b, phi_a), exports))
        assert (ab.order, ba.order) == (("a", "b"), ("b", "a"))
        forward = compose.run_workflow(ab)
        backward = compose.run_workflow(ba)
        assert forward.exports == backward.exports
        assert forward.instances == backward.instances

    def test_solver_error_names_the_instance(self):
        # par5 > 2*par4 violates the maintenance parameter invariant at solve time
        phi = compose.ModelInstance(
            "phi", "maintenance5",
            {
                "PAR_4": compose.Literal(1e-9),
                "PAR_5": compose.Literal(1e-5),
                **MAINT_LITERALS,
            },
        )
        with pytest.raises(SolverError, match="'phi'"):
            compose.run_workflow(compose.Workflow("w", (), (phi,), ()))

    def test_inline_chain_structure_error_names_the_instance(self):
        template = compose.InlineCtmc(
            "leaky", ("A", "B"), "A", (("A", "B", compose.Param("K")),)
        )
        cls = compose.class_from_inline(template)
        inst = compose.ModelInstance("x", "leaky", {"K": compose.Literal(2.0)})
        with pytest.raises(SolverError, match="'x'.*cannot return"):
            compose.run_workflow(compose.Workflow("w", (cls,), (inst,), ()))

    def test_division_by_zero_in_a_rate_names_the_rate(self):
        rate = compose.BinOp("/", compose.Literal(1.0), compose.Param("K"))
        template = compose.InlineCtmc("c", ("A", "B"), "A", (("A", "B", rate), ("B", "A", rate)))
        cls = compose.class_from_inline(template)
        inst = compose.ModelInstance("x", "c", {"K": compose.Literal(0.0)})
        with pytest.raises(SolverError, match="^instance 'x': rate A -> B: division by zero$"):
            compose.run_workflow(compose.Workflow("w", (cls,), (inst,), ()))

    def test_substitution_five_to_four_state(self):
        five = compose.run_workflow(case_study_workflow(maintenance="maintenance5"))
        four = compose.run_workflow(case_study_workflow(maintenance="maintenance4"))
        assert four.exports["HFR_2oo3"] == pytest.approx(
            five.exports["HFR_2oo3"], rel=0.2
        )

    def test_inline_chain_matches_builtin_bitwise(self):
        imm = inline_five_state_class()
        workflow = case_study_workflow()
        mu_inline = compose.ModelInstance("mu", "imm", dict(workflow.instances[1].bindings))
        export = compose.Export(
            "HFR_2oo3", compose.BinOp("*", compose.Literal(3.0), compose.Ref("mu", "pi_S3"))
        )
        inline_wf = compose.Workflow(
            "inline", (imm,), (workflow.instances[0], mu_inline), (export,)
        )
        assert (
            compose.run_workflow(inline_wf).exports["HFR_2oo3"]
            == compose.run_workflow(workflow).exports["HFR_2oo3"]
        )

    def test_inline_network_outputs_match_enumeration(self):
        # a three-state root, a 0/1 gate row, and a node outside the rest
        def literal_node(node_id, states, parents, cpt):
            return bayes.Node(node_id, states, parents, tuple(map(compose.Literal, cpt)))

        template = compose.InlineBayes("net", (
            literal_node("A", ("lo", "mid", "hi"), (), (0.2, 0.5, 0.3)),
            literal_node("B", ("F", "T"), ("A",), (0.9, 0.1, 0.4, 0.6, 0.0, 1.0)),
            literal_node("C", ("F", "T"), ("A", "B"), (
                0.7, 0.3, 1.0, 0.0, 0.25, 0.75, 0.5, 0.5, 0.95, 0.05, 0.1, 0.9,
            )),
            literal_node("D", ("F", "T"), (), (0.35, 0.65)),
        ))
        cls = compose.class_from_inline(template)
        inst = compose.ModelInstance("n", "net", {})
        outputs = compose.run_workflow(compose.Workflow("w", (cls,), (inst,), ())).instances["n"]
        net = compose.inline_bayes_net(template, {})
        for node in template.nodes:
            for state, want in zip(node.states, enum_marginal(net, node.id)):
                assert abs(outputs[f"p_{node.id}_{state}"] - want) <= 1e-12
            # reading every node, `solve` goes through `posteriors`, not one marginal per node
            for state, want in bayes.marginal(net, node.id).probabilities.items():
                assert outputs[f"p_{node.id}_{state}"] == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_parametric_network_matches_hand_value(self):
        # A is True with probability q, bound from another instance's output
        q = compose.Param("q")
        b_rows = tuple(map(compose.Literal, (0.9, 0.1, 0.2, 0.8)))
        template = compose.InlineBayes("net", (
            bayes.Node("A", ("F", "T"), (), (compose.BinOp("-", compose.Literal(1.0), q), q)),
            bayes.Node("B", ("F", "T"), ("A",), b_rows),
        ))
        cls = compose.class_from_inline(template)
        assert [p.name for p in cls.inputs] == ["q"]
        phi = case_study_workflow().instances[0]
        inst = compose.ModelInstance("n", "net", {"q": compose.BinOp(
            "*", compose.Literal(1e4), compose.Ref("phi", "PAR_4"))})
        result = compose.run_workflow(compose.Workflow("w", (cls,), (phi, inst), ()))
        p_a = 1e4 * result.instances["phi"]["PAR_4"]
        assert result.instances["n"]["p_A_T"] == pytest.approx(p_a, rel=1e-15)
        assert result.instances["n"]["p_B_T"] == pytest.approx(
            (1 - p_a) * 0.1 + p_a * 0.8, rel=1e-14)

    def test_export_scalar_identity(self):
        workflow = case_study_workflow()
        tripled = compose.Workflow(
            "w", (), workflow.instances,
            workflow.exports + (compose.Export("PAR_10", compose.Ref("mu", "PAR_10")),),
        )
        result = compose.run_workflow(tripled)
        assert result.exports["HFR_2oo3"] == 3.0 * result.exports["PAR_10"]

    def test_division_by_zero_is_solver_error(self):
        phi = case_study_workflow().instances[0]
        exports = (
            compose.Export(
                "bad", compose.BinOp("/", compose.Literal(1.0), compose.Literal(0.0))
            ),
        )
        with pytest.raises(SolverError, match="^export 'bad': division by zero$"):
            compose.run_workflow(compose.Workflow("w", (), (phi,), exports))

    def test_eval_expr_names_only_the_division(self):
        # each caller adds where the expression stands: a binding, a rate, a table entry
        with pytest.raises(SolverError, match="^division by zero$"):
            compose.eval_expr(compose.BinOp("/", compose.Literal(1.0), compose.Param("q")),
                              lambda leaf: 0.0)

    @pytest.mark.parametrize("op, left, right", [
        ("*", 1e-200, 1e-200), ("/", 1e-300, 1e10), ("*", -1e-300, 1e-10),
    ], ids=["to zero", "subnormal", "negative"])
    def test_eval_expr_refuses_a_nonzero_product_or_quotient_that_underflows(self, op, left,
                                                                              right):
        value = left * right if op == "*" else left / right
        assert -TINY < value < TINY
        message = f"{left!r} {op} {right!r} underflows to {value!r}"
        with pytest.raises(SolverError, match=f"^{re.escape(message)}$"):
            compose.eval_expr(compose.BinOp(op, compose.Literal(left), compose.Param("q")),
                              lambda leaf: right)
        # a zero operand makes an exact zero
        assert compose.eval_expr(compose.BinOp(op, compose.Literal(0.0), compose.Param("q")),
                                 lambda leaf: right) == 0.0


def test_eval_expr_refuses_an_unknown_operator():
    with pytest.raises(ValidationError, match="^unknown operator '\\^'$"):
        compose.eval_expr(compose.BinOp("^", compose.Literal(2.0), compose.Literal(3.0)),
                          lambda leaf: 0.0)


def test_class_from_inline_refuses_a_record_that_is_no_template():
    with pytest.raises(ValidationError, match="^unknown inline template "):
        compose.class_from_inline(compose.Literal(1.0))


#: A library-built class whose network reads input ``x``, a probability,
#: as ``pA = 1 - x / 8``: at ``x = 7.0`` every entry is in range.
_EIGHTHS = compose.InlineBayes("eighths", (bayes.Node("A", ("F", "T"), (), (
    compose.BinOp("-", compose.Literal(1.0),
                  compose.BinOp("/", compose.Param("x"), compose.Literal(8.0))),
    compose.BinOp("/", compose.Param("x"), compose.Literal(8.0)))),))
EIGHTHS = compose.ModelClass("eighths", (compose.ParamDecl("x", "probability"),), _EIGHTHS,
                             (("pA", "A", "F"),), (), "eighths via variable elimination")


class TestInstantiate:
    @pytest.mark.parametrize("name, values, message", [
        ("maintenance5", {"PAR_4": 5.0, "PAR_5": 3.0, "PAR_6": 1.0, "PAR_7": 0.01,
                          "PAR_8": 1e-4, "PAR_9": 3.0},
         "probability input 'PAR_4' must lie in [0, 1], got 5.0"),
        ("failure2oo2", {"PAR_1": 1.5, "PAR_2": 0.1, "PAR_3": 0.1},
         "probability input 'PAR_1' must lie in [0, 1], got 1.5"),
        ("eighths", {"x": 7.0}, "probability input 'x' must lie in [0, 1], got 7.0"),
    ], ids=["maintenance5", "failure2oo2", "library"])
    def test_out_of_range_kinded_input_refused(self, name, values, message):
        # every caller of solve and instantiate gets the check, not only run_workflow
        cls = {**compose.builtin_classes(), "eighths": EIGHTHS}[name]
        for call in (compose.solve, compose.instantiate):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                call(cls, values)

    @pytest.mark.parametrize("change, message", [
        ({"PAR_9": None}, "the value map leaves inputs unbound: PAR_9"),
        ({"PAR_99": 1.0},
         "the value map binds unknown input 'PAR_99' of class 'maintenance5'"),
    ], ids=["missing", "unknown"])
    def test_input_names_are_checked(self, change, message):
        values = {"PAR_4": 1e-6, "PAR_5": 1e-7, "PAR_6": 1.0, "PAR_7": 0.01,
                  "PAR_8": 1e-4, "PAR_9": 3.0, **change}
        values = {name: value for name, value in values.items() if value is not None}
        cls = compose.builtin_classes()["maintenance5"]
        for call in (compose.solve, compose.instantiate):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                call(cls, values)

    @pytest.mark.parametrize("rate", [math.nan, -1.0, math.inf], ids=["nan", "negative", "inf"])
    def test_a_chain_rate_is_checked_by_ctmc(self, rate):
        # the inline chain hands every nonzero rate on, so Ctmc's check names it
        template = compose.InlineCtmc("c", ("A", "B"), "A", (
            ("A", "B", compose.Param("x")), ("B", "A", compose.Literal(2.0))))
        with pytest.raises(ValidationError) as direct:
            ctmc.Ctmc(("A", "B"), "A", (ctmc.Transition("A", "B", rate),
                                        ctmc.Transition("B", "A", 2.0)))
        with pytest.raises(ValidationError) as inline:
            compose.instantiate(compose.class_from_inline(template), {"x": rate})
        assert type(inline.value) is type(direct.value)
        assert str(inline.value) == str(direct.value)

    def test_a_zero_rate_row_is_an_absent_transition(self):
        text = ('workflow "w" {{\n  ctmc c {{ state A init; state B; state C;\n'
                "    rate A -> B : 2; rate B -> C : 3 * Y; rate C -> A : 5;{rows} }}\n"
                "  instance m : c {{ Y = 0.7; }}\n  output P = m.pi_A;\n}}\n")
        # 0 * (0 - Y) is -0.0, which is zero too
        rows = " rate A -> C : 0; rate C -> B : 0 * (0 - Y);"
        with_rows, without = (dsl.parse(text.format(rows=r)).workflow for r in (rows, ""))
        assert len(with_rows.classes[0].template.rates) == 5
        assert repr(compose.run_workflow(with_rows)) == repr(compose.run_workflow(without))


def _parametric(net, rng):
    """A template of ``net``'s structure whose entries read inputs: a binary
    row is ``(1 - x, x)``, a wider row ``w_k / (w_0 + ... + w_{n-1})``.
    About a third of the nodes, drawn by ``rng``, keep ``net``'s table as
    literals instead."""
    nodes = []
    for var in net.variables:
        count, cpt = len(var.states), []
        if rng.random() < 1 / 3:
            cpt = list(map(compose.Literal, net.cpts[var.id].cpt))
        for r in range(0 if cpt else len(net.cpts[var.id].cpt) // count):
            if count == 2:
                x = compose.Param(f"{var.id}_{r}")
                cpt += [compose.BinOp("-", compose.Literal(1.0), x), x]
            else:
                names = [compose.Param(f"{var.id}_{r}_{k}") for k in range(count)]
                total = names[0]
                for name in names[1:]:
                    total = compose.BinOp("+", total, name)
                cpt += [compose.BinOp("/", name, total) for name in names]
        nodes.append(net.cpts[var.id]._replace(cpt=tuple(cpt)))
    return compose.InlineBayes("parametric", tuple(nodes))


def _draw(rng, cls):
    """Input values for ``_parametric``'s class; some binary rows are 0/1 gates."""
    return {p.name: float(rng.random() < 0.5)
            if p.name.count("_") == 1 and rng.random() < 0.2 else rng.uniform(0.01, 1.0)
            for p in cls.inputs}


def _retype(value, kind):
    """``value`` as a ``kind``: a Fraction exactly; an int where it is integral."""
    if kind is Fraction:
        return Fraction(value)
    return int(value) if kind is int and value == int(value) else value


def _retyped(expr, kind):
    """``expr`` with each literal's value retyped by :func:`_retype`."""
    if isinstance(expr, compose.BinOp):
        return expr._replace(left=_retyped(expr.left, kind), right=_retyped(expr.right, kind))
    return compose.Literal(_retype(expr.value, kind)) if type(expr) is compose.Literal else expr


def _bits(x):
    """A number's type and value, a float's to the bit."""
    return type(x), x.hex() if type(x) is float else x


def _cold(template, values):
    """A build of ``template`` that finds no cached structure."""
    compose._NETS.pop(id(template), None)
    return compose.inline_bayes_net(template, values)


def _cached(template):
    return compose._NETS.get(id(template), (None,))[0] is template


class TestStructureCache:
    """Each template's structure is built once; every build checks its entries."""

    def _assert_same_net(self, cached, cold, rng):
        assert cached.variables == cold.variables
        assert cached.signature == cold.signature
        assert cached.cpts == cold.cpts
        assert cached._tables == cold._tables
        for vid in cold.variable_ids:
            assert bayes.marginal(cached, vid) == bayes.marginal(cold, vid)
        evidence = {vid: rng.choice(cold.variable(vid).states)
                    for vid in rng.sample(cold.variable_ids, k=min(2, len(cold)))}
        try:
            want = bayes.posteriors(cold, evidence)
        except SolverError as exc:  # impossible evidence
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                bayes.posteriors(cached, evidence)
        else:
            assert bayes.posteriors(cached, evidence) == want

    def test_cached_build_equals_a_cold_build_on_the_failure_network(self):
        rng = random.Random(2011)
        cls = nmr.FAILURE_CLASS
        nmr.build_failure_bn(nmr.DEFAULT_FAILURE_PARAMS)
        for _ in range(20):
            values = {"PAR_1": 10 ** rng.uniform(-6, -4), "PAR_2": 10 ** rng.uniform(-2, -0.3),
                      "PAR_3": 10 ** rng.uniform(-4, -1)}
            cached = compose.instantiate(cls, values)
            assert cached.variables is nmr.build_failure_bn(nmr.DEFAULT_FAILURE_PARAMS).variables
            cold = _cold(cls.template, values)
            assert cold.variables is not cached.variables
            self._assert_same_net(cached, cold, rng)
        # an equal template of its own is built cold, to the same net
        twin = copy.deepcopy(cls.template)
        assert twin == cls.template and not _cached(twin)
        self._assert_same_net(compose.inline_bayes_net(twin, values), cold, rng)
        assert _cached(twin) and _cached(cls.template)

    def test_cached_build_equals_a_cold_build_on_random_parametric_networks(self):
        rng = random.Random(2012)
        for _ in range(30):
            template = _parametric(random_net(rng, max_nodes=6, gates=0.2, max_states=4), rng)
            cls = compose.class_from_inline(template)
            _cold(template, _draw(rng, cls))  # the structure, from other values
            values = _draw(rng, cls)
            cached = compose.inline_bayes_net(template, values)
            self._assert_same_net(cached, _cold(template, values), rng)

    #: ``A`` reads ``a``; ``B``'s first row divides by ``d``; ``C`` reads ``c0``, ``c1``.
    FAULTY = compose.InlineBayes("faulty", (
        bayes.Node("A", ("F", "T"), (), (
            compose.BinOp("-", compose.Literal(1.0), compose.Param("a")), compose.Param("a"))),
        bayes.Node("B", ("F", "T"), ("A",), (
            compose.BinOp("/", compose.Literal(0.5), compose.Param("d")), compose.Literal(0.5),
            compose.Literal(0.25), compose.Literal(0.75))),
        bayes.Node("C", ("lo", "hi"), (), (compose.Param("c0"), compose.Param("c1"))),
    ))
    GOOD = {"a": 0.25, "d": 1.0, "c0": 0.5, "c1": 0.5}

    @pytest.mark.parametrize("change, error, message", [
        ({"a": 1.5}, ValidationError,
         "CPT row () for 'A' has its entry for state 'F' at -0.5, outside [0, 1]"),
        ({"c1": 0.5 + 2**-28}, ValidationError,
         "CPT row () for 'C' sums to 1.0000000037252903, not 1"),
        ({"c0": math.nan}, ValidationError,
         "CPT row () for 'C' has its entry for state 'lo' at nan, outside [0, 1]"),
        ({"d": 0.0}, SolverError, "node 'B': division by zero in a table entry"),
        ({"d": 1e308}, SolverError, "node 'B': 0.5 / 1e+308 underflows to 5e-309 in a table entry"),
    ], ids=["range", "row-sum", "nan", "division", "underflow"])
    def test_entry_faults_on_first_and_cached_builds(self, change, error, message):
        values = {**self.GOOD, **change}
        compose._NETS.pop(id(self.FAULTY), None)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            compose.inline_bayes_net(self.FAULTY, values)
        assert not _cached(self.FAULTY)  # a failed first build is not kept
        compose.inline_bayes_net(self.FAULTY, self.GOOD)
        assert _cached(self.FAULTY)
        kept = compose._NETS[id(self.FAULTY)]
        if error is SolverError:  # the refill's zero divisor or underflow sends it to eval_expr
            with pytest.raises(ZeroDivisionError):
                kept[2](values)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            compose.inline_bayes_net(self.FAULTY, values)
        assert compose._NETS[id(self.FAULTY)] is kept

    def test_refill_is_eval_expr_in_bits_and_type(self):
        rng = random.Random(2013)
        failure = nmr.FAILURE_CLASS.template
        cases = [(failure, {"PAR_1": 10 ** rng.uniform(-6, -4), "PAR_2": rng.uniform(0, 1),
                            "PAR_3": rng.uniform(0, 1)}) for _ in range(5)]
        for kind in (float, int, Fraction) * 8:
            template = _parametric(random_net(rng, max_nodes=5, gates=0.3, max_states=4), rng)
            template = template._replace(nodes=tuple(node._replace(
                cpt=tuple(_retyped(e, kind) for e in node.cpt)) for node in template.nodes))
            cls = compose.class_from_inline(template)
            for _ in range(3):
                values = {name: _retype(value, kind)
                          for name, value in _draw(rng, cls).items()}
                cases.append((template, values))
        kinds = set()
        for template, values in cases:
            _cold(template, values)
            got = compose._NETS[id(template)][2](values)
            want = {j: [compose.eval_expr(e, lambda p: values[p.name]) for e in node.cpt]
                    for j, node in enumerate(template.nodes)
                    if any(type(e) is not compose.Literal for e in node.cpt)}
            assert {j: list(map(_bits, t)) for j, t in got.items()} == {
                j: list(map(_bits, t)) for j, t in want.items()}
            kinds.update(type(entry) for table in got.values() for entry in table)
            self._assert_same_net(compose.inline_bayes_net(template, values),
                                  _cold(template, values), rng)
        assert kinds == {float, int, Fraction}

    def test_refill_holds_no_text_of_the_template(self):
        class Loud(float):  # a literal value whose text would run in generated code
            def __repr__(self):
                return "__import__('os').system('exit 1')"

            __str__ = __repr__

        names = ["x') or __import__('os').system('exit 1') #", '"""\nraise SystemExit\n"""',
                 "v", "c0", "t0", "r", "sum"]
        x, y, v, c0, t0, r, total = map(compose.Param, names)
        half, one, two = compose.Literal(Loud(0.5)), compose.Literal(1), ("F", "T")
        template = compose.InlineBayes("hostile", (
            bayes.Node("A", two, (), (compose.BinOp("-", half, x), compose.BinOp("+", half, x))),
            bayes.Node("B", two, ("A",), (
                y, compose.BinOp("-", one, y),
                compose.BinOp("/", v, compose.BinOp("+", v, c0)),
                compose.BinOp("/", c0, compose.BinOp("+", v, c0)))),
            bayes.Node("C", two, ("B",), (t0, r, compose.BinOp("-", one, total), total)),
        ))
        values = dict(zip(names, (0.125, 0.5, 1.0, 3.0, 0.375, 0.625, 0.25)))
        first = _cold(template, values)
        refill = compose._NETS[id(template)][2]
        code = refill.__code__
        assert refill.__globals__ == {} and code.co_names == ()
        assert all(re.fullmatch(r"v|[ct]\d+", name) for name in code.co_varnames)
        for const in code.co_consts:
            assert type(const) in (int, type(None)) or {type(c) for c in const} == {int}
        assert refill(values) == {0: (0.375, 0.625), 1: (0.5, 0.5, 0.25, 0.75),
                                  2: (0.375, 0.625, 0.75, 0.25)}
        assert [type(p) for p in refill.__defaults__[:2]] == [Loud, str]
        later = compose.inline_bayes_net(template, {**values, names[0]: 0.25})
        assert later._tables[0] == (0.25, 0.75) and later._tables[1:] == first._tables[1:]

    def test_a_faulty_structure_is_never_cached(self):
        # B's table has one row too few for its parent
        template = self.FAULTY._replace(nodes=self.FAULTY.nodes[:1] + (
            self.FAULTY.nodes[1]._replace(cpt=self.FAULTY.nodes[1].cpt[:2]),))
        cls = compose.class_from_inline(template)
        for _ in range(3):
            with pytest.raises(ValidationError, match="^node 'B' needs 4 table entries, got 2$"):
                compose.solve(cls, {"a": 0.25, "d": 1.0})
            assert not _cached(template)

    def test_with_tables_refuses_tables_of_another_shape(self):
        net = compose.inline_bayes_net(self.FAULTY, self.GOOD)
        tables = dict(enumerate(map(list, net._tables)))
        for bad in ({3: [0.5, 0.5]}, {-1: tables[2]}, {"C": tables[2]}, {1: tables[1][:2]},
                    {0: tables[0] + [0.5, 0.5]}):
            with pytest.raises(ValidationError, match="table count and lengths"):
                bayes.with_tables(net, bad)
        assert bayes.with_tables(net, tables).cpts == net.cpts
        assert bayes.with_tables(net, {}).cpts == net.cpts

    def test_later_builds_evaluate_and_check_only_the_tables_that_read_an_input(
            self, monkeypatch):
        checked = []

        def check_entries(signature, tables, variable):
            checked.append(len(tables))
            return entry_check(signature, tables, variable)

        entry_check = bayes._check_entries
        monkeypatch.setattr(bayes, "_check_entries", check_entries)
        cls = nmr.FAILURE_CLASS
        first = _cold(cls.template, {"PAR_1": 1e-5, "PAR_2": 0.1, "PAR_3": 1e-3})
        later = compose.instantiate(cls, {"PAR_1": 2e-5, "PAR_2": 0.2, "PAR_3": 2e-3})
        assert checked == [24, 5]
        shared = [a is b for a, b in zip(first._tables, later._tables)]
        assert len(shared) == 24 and shared.count(True) == 19
        assert [later.variables[j].id for j, kept in enumerate(shared) if not kept] == [
            "Fault_A", "Fault_detectability_A", "Fault_B", "Fault_detectability_B",
            "Same_output_alterations"]

    def test_a_faulty_literal_table_fails_every_build_and_is_never_kept(self):
        # B's second row, all literals, sums to 0.75; A reads an input
        template = self.FAULTY._replace(nodes=(
            self.FAULTY.nodes[0],
            self.FAULTY.nodes[1]._replace(cpt=tuple(map(compose.Literal, (0.5, 0.5, 0.25, 0.5))))))
        for a in (0.25, 0.5, 0.25):
            with pytest.raises(ValidationError,
                               match=r"^CPT row \('T',\) for 'B' sums to 0.75, not 1$"):
                compose.inline_bayes_net(template, {"a": a})
            assert not _cached(template)

    def test_a_constant_expression_table_is_the_same_on_every_build(self):
        # C's entries are expressions that read no input
        template = self.FAULTY._replace(nodes=self.FAULTY.nodes[:2] + (
            self.FAULTY.nodes[2]._replace(cpt=(
                compose.BinOp("-", compose.Literal(1.0), compose.Literal(0.7)),
                compose.BinOp("/", compose.Literal(7.0), compose.Literal(10.0)))),))
        first = _cold(template, {"a": 0.25, "d": 1.0})
        assert first._tables[2] == (0.30000000000000004, 0.7)
        for a in (0.5, 0.125):
            later = compose.inline_bayes_net(template, {"a": a, "d": 1.0})
            assert _cached(template) and later._tables[2] == first._tables[2]

    def test_the_cache_is_bounded_and_an_evicted_template_rebuilds(self, monkeypatch):
        monkeypatch.setattr(compose, "_NETS", {})  # the entries other tests read stay
        templates = [self.FAULTY._replace(name=f"t{i}")
                     for i in range(bayes.PLAN_CACHE_SIZE + 1)]
        first = compose.inline_bayes_net(templates[0], self.GOOD)
        for template in templates[1:]:
            compose.inline_bayes_net(template, self.GOOD)
            assert len(compose._NETS) <= bayes.PLAN_CACHE_SIZE
        assert not _cached(templates[0])  # the last build cleared the full cache
        rebuilt = compose.inline_bayes_net(templates[0], self.GOOD)
        assert _cached(templates[0]) and rebuilt is not first
        self._assert_same_net(rebuilt, first, random.Random(2013))


class TestSweep:
    def test_par1_sweep_ratios(self):
        results = compose.sweep(case_study_workflow(), "phi.PAR_1", [1.0, 0.1])
        base, tenth = results
        assert tenth.instances["phi"]["PAR_4"] == pytest.approx(
            base.instances["phi"]["PAR_4"] / 10, rel=5e-2
        )
        assert tenth.instances["phi"]["PAR_5"] == pytest.approx(
            base.instances["phi"]["PAR_5"] / 100, rel=1e-1
        )

    def test_par3_sweep_leaves_par4_unchanged(self):
        results = compose.sweep(case_study_workflow(), "phi.PAR_3", [1.0, 0.1])
        base, tenth = results
        assert tenth.instances["phi"]["PAR_4"] == pytest.approx(
            base.instances["phi"]["PAR_4"], rel=1e-4
        )
        assert tenth.instances["phi"]["PAR_5"] == pytest.approx(
            base.instances["phi"]["PAR_5"] / 10, rel=1e-1
        )

    def test_identity_factor_equals_plain_run(self):
        workflow = case_study_workflow()
        swept = compose.sweep(workflow, "phi.PAR_1", [1.0])
        plain = compose.run_workflow(workflow)
        assert swept[0].exports == plain.exports
        assert swept[0].instances == plain.instances

    @pytest.mark.parametrize("model, instance, pname", [
        (model, inst.name, pname) for model, workflow in SHIPPED.items()
        for inst in workflow.instances for pname, expr in inst.bindings.items()
        if isinstance(expr, compose.Literal)
    ])
    def test_a_point_equals_a_run_with_the_scaled_literal(self, model, instance, pname):
        # each point swaps one instance of the validated workflow; here the
        # scaled workflow is built and validated from scratch instead
        workflow = SHIPPED[model]
        validated = compose.validate_workflow(workflow)
        for factor in (0.5, 2.0):
            scaled = workflow._replace(instances=[
                compose.ModelInstance(inst.name, inst.class_name, {
                    **inst.bindings,
                    pname: compose.Literal(inst.bindings[pname].value * factor),
                }) if inst.name == instance else inst
                for inst in workflow.instances
            ])
            try:
                plain = compose.run_workflow(scaled)
            except ValidationError:  # the scaled literal is outside its range
                continue
            (point,) = compose.sweep(validated, f"{instance}.{pname}", [factor])
            assert point.instances == plain.instances
            assert point.exports == plain.exports

    def test_a_scaled_literal_that_underflows_is_refused(self):
        # 1.666e-5 * 1e-320 is 0.0: a nonzero product may not underflow, here as in eval_expr
        with pytest.raises(ValidationError,
                           match="^instance 'phi': phi.PAR_1 scaled by 1e-320 underflows to 0.0$"):
            compose.sweep(case_study_workflow(), "phi.PAR_1", [1.0, 1e-320])

    def test_reference_bound_path_rejected(self):
        with pytest.raises(ValidationError, match="cannot be swept"):
            compose.sweep(case_study_workflow(), "mu.PAR_4", [1.0, 2.0])

    def test_unknown_paths_rejected(self):
        with pytest.raises(ValidationError, match="unknown instance"):
            compose.sweep(case_study_workflow(), "nope.PAR_1", [1.0])
        with pytest.raises(ValidationError, match="no binding"):
            compose.sweep(case_study_workflow(), "phi.PAR_9", [1.0])
        with pytest.raises(ValidationError, match="instance>.<input"):
            compose.sweep(case_study_workflow(), "PAR_1", [1.0])

    @pytest.mark.parametrize("path, factor, message", [
        ("phi.PAR_1", 1e5, "probability input 'PAR_1' must lie in [0, 1]"),
        ("mu.PAR_6", -1.0, "rate input 'PAR_6' must be non-negative"),
    ])
    def test_out_of_range_point_raises_the_validation_error(self, path, factor, message):
        # the sweep validates once, then re-checks only the scaled literal
        workflow = case_study_workflow()
        inst_name, pname = path.split(".")
        instances = tuple(
            compose.ModelInstance(i.name, i.class_name, {
                **i.bindings, pname: compose.Literal(i.bindings[pname].value * factor),
            }) if i.name == inst_name else i
            for i in workflow.instances
        )
        with pytest.raises(ValidationError, match=re.escape(message)) as direct:
            compose.validate_workflow(
                compose.Workflow(workflow.name, (), instances, workflow.exports)
            )
        with pytest.raises(ValidationError) as swept:
            compose.sweep(workflow, path, [1.0, factor])
        assert str(swept.value) == str(direct.value)
