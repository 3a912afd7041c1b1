"""Hazard-rate analysis of redundant voting architectures.

Three layers: exact inference over the two-unit failure network, steady
states of the imperfect-maintenance chains, and a workflow engine that
composes the two and exposes everything through `.rvm` files and a CLI.
"""

__version__ = "0.1.0"

from .bayes import (
    BayesNet,
    Cpt,
    Distribution,
    Evidence,
    Variable,
    build_net,
    elimination_order,
    marginal,
    posterior_report,
    posteriors,
)
from .compose import (
    BinOp,
    Export,
    InlineBayes,
    InlineCtmc,
    InlineNode,
    Literal,
    ModelClass,
    ModelInstance,
    Param,
    ParamDecl,
    Ref,
    SolveResult,
    Workflow,
    builtin_classes,
    run_workflow,
    sweep,
    validate_workflow,
)
from .ctmc import Ctmc, Transition, reachable_closed_class, steady_state
from .dsl import ParseDiagnostic, ParseResult, parse, print_workflow
from .errors import RedvoteError, SolverError, ValidationError, ZeroEvidenceError
from .nmr import FailureParams, build_failure_bn, build_maintenance_ctmc, failure_interface
from .report import AnalysisReport

__all__ = [
    "__version__",
    # bayes
    "BayesNet", "Cpt", "Distribution", "Evidence", "Variable", "build_net",
    "elimination_order", "marginal", "posterior_report", "posteriors",
    # ctmc
    "Ctmc", "Transition", "reachable_closed_class", "steady_state",
    # concrete models
    "FailureParams", "build_failure_bn", "build_maintenance_ctmc", "failure_interface",
    # composition
    "BinOp", "Export", "InlineBayes", "InlineCtmc", "InlineNode", "Literal",
    "ModelClass", "ModelInstance", "Param", "ParamDecl", "Ref", "SolveResult",
    "Workflow", "builtin_classes", "run_workflow", "sweep", "validate_workflow",
    # dsl
    "ParseDiagnostic", "ParseResult", "parse", "print_workflow",
    # reports and errors
    "AnalysisReport", "RedvoteError", "SolverError", "ValidationError",
    "ZeroEvidenceError",
]
