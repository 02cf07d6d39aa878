"""Signed local-hidden-variable analysis of 2x2x2 Bell-CHSH experiments.

The library models a two-party, two-setting, two-outcome correlation
experiment through signed weight vectors over the 16 deterministic local
strategies.  It validates probability sets, computes every CHSH sign
variant, constructs the full 7-parameter family of weight vectors
reproducing a consistent box, and gives the least total negativity of any
model of a box in closed form, max(0, (|delta| - 2) / 4), with a witness
model that attains it: negative weights are required exactly when CHSH is
violated.
"""

from .model import (
    CANONICAL_VARIANT,
    CHSH_MATRIX,
    CHSH_VARIANTS,
    DEFAULT_EPS,
    DEPENDENT_INDICES,
    FORWARD_MATRIX,
    INDEPENDENT_INDICES,
    MINUS,
    PLUS,
    PROB_EVENTS,
    PROB_LABELS,
    STRATEGY_OUTCOMES,
    STRATEGY_PATTERNS,
    BlockViolation,
    ChshReport,
    ChshVariant,
    ConsistencyError,
    MarginalViolation,
    RangeViolation,
    RelationViolation,
    as_measure_vector,
    as_probability_set,
    box_from_independent,
    check_consistency,
    chsh,
    chsh_report,
    correlation,
    deterministic_box,
    forward_map,
    pr_box,
    prob_index,
    require_consistent,
    sigma_minus,
    strategy_index,
    total_negativity,
    tsirelson_box,
    uniform_box,
)
from .solver import (
    FREE_INDICES,
    SOLVED_INDICES,
    perfect_correlation_solution,
    solve,
)
from .negativity import (
    NegativityResult,
    chsh_lower_bound,
    min_negativity,
)
from .quantum import (
    ChshSearchResult,
    MeasurementDirection,
    QubitScenario,
    TwoQubitState,
    flip_outcomes,
    generate_probability_set,
    maximize_chsh,
    singlet,
)
from .fileio import (
    ParseError,
    box_object,
    fixture_path,
    format_box,
    format_measures,
    measures_object,
    parse_box,
    parse_measures,
)

__version__ = "0.1.0"
