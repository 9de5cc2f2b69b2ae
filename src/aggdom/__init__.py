"""Boolean judgment-aggregation domains: formula-class recognizers,
constraint synthesis from explicit domains, and aggregator classification
with a brute-force cross-validation oracle."""

from .formula import (
    Clause,
    ClauseKind,
    Formula,
    evaluate,
    flip_assignment,
    models,
    parse_formula,
    render_formula,
    rename,
)
from .domain import (
    DegeneracyReport,
    Domain,
    degeneracy,
    is_affine,
    is_closed_under,
    parse_domain,
    project,
    rename_domain,
    render_domain,
)
from .boolfn import BoolFn, named_fn, pr
from .errors import (
    CapExceededError,
    DegenerateDomainError,
    EmptyDomainError,
    ParseError,
    VerificationError,
)
from .recognize import (
    FormulaClassReport,
    LpicWitness,
    PicResult,
    RPHWitness,
    SeparabilityWitness,
    check_lpic,
    check_partially_horn,
    check_pic,
    check_renamable_horn,
    check_renamable_partially_horn,
    check_separable,
    check_syntactic_class,
    classify_formula,
    verify_lpic,
    verify_partially_horn,
)
from .synthesize import (
    PrimeFormula,
    SynthesisResult,
    affine_formula,
    lpic_for,
    pic_for,
    prime_cnf,
)
from .aggregate import (
    Aggregator,
    DomainClassification,
    Verdict,
    apply,
    classify_domain,
    diamond,
    is_aggregator,
    is_anonymous,
    is_dictatorial,
    is_generalized_dictatorship,
    is_locally_nondictatorial,
    is_monotone,
    is_projection_aggregator,
    is_strongdem,
    is_systematic,
    parse_aggregator,
    render_aggregator,
    star,
    superpose,
    systematic,
)
from .oracle import (
    CensusReport,
    brute_binary,
    brute_property,
    brute_ternary_commutative,
    census,
    oracle_verdicts,
)

__all__ = [name for name in dir() if not name.startswith("_")]
