"""Model checking and proof checking for intuitionistic temporal logics.

The package has three engines and a bundled corpus tying them together:

- `poset`: exact evaluation on finite dynamic posets (up-set topology);
- `realline`: evaluation on the real line with piecewise affine dynamics,
  exact rational interval arithmetic, and trust statuses;
- `hilbert`: a derivation checker for a family of forty axiom systems,
  with an embedded intuitionistic tautology decider;
- `search`: bounded countermodel search and the separation certificates
  relating the axiom systems.
"""

from .formula import (
    And,
    Atom,
    Bottom,
    Eventually,
    Formula,
    FRAGMENTS,
    Iff,
    Implies,
    InputError,
    LanguageFragment,
    Next,
    Not,
    Or,
    StrongBox,
    WeakBox,
    atoms,
    children,
    subformulas,
    translate_weak,
)
from .parser import (
    Derivation,
    DerivationLine,
    EdgeSpec,
    MalformedEncoding,
    ParseError,
    SourceSpan,
    parse_derivation,
    parse_edges,
    parse_formula,
    parse_interval_set,
    parse_poset_model,
    parse_real_system,
    print_formula,
    print_poset_model,
)
from .poset import (
    ContinuityRequired,
    DomainNotInvariant,
    DynamicPoset,
    MalformedOrder,
    MalformedStep,
    MalformedValuation,
    Valuation,
    check_morphism,
    eval_formula,
    interior,
    is_up_set,
    pull_back_valuation,
    validate_valuation,
)
from .realline import (
    EMPTY,
    EvalCaps,
    Interval,
    IntervalSet,
    MalformedMap,
    MalformedSystem,
    PiecewiseAffineMap,
    REALS,
    RealOutcome,
    RealSystem,
    Status,
    eval_real,
    interval,
    make_interval,
    point,
)
from .hilbert import (
    ALL_SCHEMAS,
    CheckResult,
    LOGICS,
    LogicSpec,
    MissingMetavariable,
    Rule,
    Schema,
    UnknownLogic,
    check,
    get_logic,
    instantiate,
    is_ipc_tautology,
)
from .search import (
    BoundTooLarge,
    Countermodel,
    EdgeReport,
    MAX_BOUND,
    SemanticClass,
    SOUND_STRUCTURES,
    Undetermined,
    ValidUpTo,
    build_separation_matrix,
    soundness_sweep,
    validity,
)
from .corpus import (
    Corpus,
    CorpusEntry,
    FACTS,
    Fact,
    FactResult,
    MalformedCorpus,
    UnknownEntry,
    paper_suite,
)

__version__ = "0.1.0"
