"""Identification and exact optimisation of sequential decision strategies
on staged influence diagrams with hidden variables."""

__version__ = "0.1.0"

from .diagram import (
    REGIME,
    StagedDiagram,
    StrategyParentSpec,
    VarKind,
    Variable,
    Violation,
    augment_with_regime,
    build_check_graph,
    build_pearl_robins_graph,
    full_history_spec,
    is_full_history,
    normalize_parents,
    parent_spec,
    staged_diagram,
    unconditional_spec,
    validate_diagram,
)
from .evaluate import (
    EvaluationResult,
    ObservationalConditionals,
    evaluate_decomposition,
    evaluate_g_recursion,
    evaluate_oracle,
    observational_conditionals,
)
from .graph import (
    Dag,
    SeparationVerdict,
    ancestors,
    build_dag,
    d_separated,
)
from .modelfile import (
    ModelFileError,
    ParsedModelFile,
    parse_model_file,
    serialize_model_file,
)
from .optimize import OptimizationResult, optimize_backward, optimize_bruteforce
from .prob import (
    DiscreteModel,
    JointTable,
    LossFunction,
    check_positivity,
    ci_deviation,
    expectation,
    joint,
    loss_function,
    marginal,
    validate_model,
)
from .stability import (
    CheckEntry,
    IdentifiabilityDecision,
    IdentifiabilityVerdict,
    IdentificationReport,
    check_assumptions,
    check_extended_stability,
    check_general,
    check_pearl_robins,
    check_simple_stability,
    check_theorem1_numeric,
    decide_identifiability,
)
from .strategy import (
    Strategy,
    StrategyEnumeration,
    enumerate_deterministic,
    kernel,
    make_deterministic,
    make_stochastic,
    make_unconditional,
    strategies_equal,
)
