"""Constructive satisfiability for ATL+ with certified model synthesis.

The pipeline: parse a formula, normalize it, build a pretableau by
alternating saturation and successor rules, eliminate unrealizable or
stuck states, and read off the verdict.  On SAT, a finite
concurrent game model is assembled from realization witnesses and certified
by an independent bounded model checker before it is ever emitted.
"""

from .cgm import CGM, ModelFormatError
from .checker import CheckError, CheckReport, ModelChecker, check_model
from .decomposition import (
    DEFAULT_CLOSURE_LIMIT,
    ClosureLimitError,
    DecPair,
    GammaComponent,
    closure,
    dec,
    full_expansions,
    gamma_components,
    holds_locally,
    realized_now,
)
from .enumeration import (
    enumerate_cgms,
    find_bounded_model,
    sample_cgm,
)
from .randgen import GenConfig, random_corpus, random_formula
from .syntax import (
    FALSE,
    TRUE,
    FormulaError,
    ParseError,
    PathFormula,
    StateFormula,
    boolean_depth,
    default_universe,
    formula_size,
    is_nnf,
    mentioned_agents,
    mentioned_props,
    negate,
    parse,
    to_nnf,
    to_text,
)
from .synthesis import (
    HintikkaStructure,
    SynthesisError,
    assemble,
    extract_cgm,
    move_cells,
    validate_hintikka,
)
from .tableau import (
    Decision,
    Tableau,
    build_pretableau,
    decide,
    eliminate_states,
    realization_fixpoint,
    tableau_dot,
)

__all__ = [
    "CGM",
    "CheckError",
    "CheckReport",
    "ClosureLimitError",
    "DEFAULT_CLOSURE_LIMIT",
    "DecPair",
    "Decision",
    "FALSE",
    "FormulaError",
    "GammaComponent",
    "GenConfig",
    "HintikkaStructure",
    "ModelChecker",
    "ModelFormatError",
    "ParseError",
    "PathFormula",
    "StateFormula",
    "SynthesisError",
    "TRUE",
    "Tableau",
    "assemble",
    "boolean_depth",
    "build_pretableau",
    "check_model",
    "closure",
    "dec",
    "decide",
    "default_universe",
    "eliminate_states",
    "enumerate_cgms",
    "extract_cgm",
    "find_bounded_model",
    "formula_size",
    "full_expansions",
    "gamma_components",
    "is_nnf",
    "mentioned_agents",
    "mentioned_props",
    "move_cells",
    "negate",
    "parse",
    "random_corpus",
    "random_formula",
    "realization_fixpoint",
    "holds_locally",
    "realized_now",
    "sample_cgm",
    "tableau_dot",
    "to_nnf",
    "to_text",
    "validate_hintikka",
]

__version__ = "0.1.0"
