"""Newton maps for trinomial quintics: symbolic coding, kneading algebra,
Markov partitions, and topological entropy for the family x^5 - c*x + 1."""

__version__ = "0.1.0"

from .polynomials import IntPolynomial, smallest_root_in
from .words import (
    LAP_SIGN,
    SYMBOLS,
    SymbolWord,
    TAIL_A_INF,
    TAIL_PERIODIC,
    TAIL_UNRESOLVED,
    TreeNode,
    WordError,
    admissible_convergents,
    admissible_cycles,
    generate_tree,
    is_admissible,
    order_compare,
    parse_parent,
    transition_allowed,
)
from .kneading import (
    PolyTreeNode,
    StructureError,
    build_polynomial_tree,
    convergent_polynomial,
    cycle_polynomial,
    determinant_polynomial,
    invariant_coordinate,
    kneading_determinant,
    kneading_increment,
    kneading_numerator,
    shape_split,
    tree_polynomial_step,
)
from .dynamics import (
    C0,
    CriticalFrame,
    PoleError,
    critical_frame,
    critical_symbols,
    find_superstable_parameter,
    itinerary,
    newton_eval,
)
from .markov import (
    CurvePoint,
    EntropyResult,
    MarkovPartition,
    char_poly,
    critical_orbit,
    entropy_curve,
    entropy_from_charpoly,
    entropy_from_kneading,
    entropy_point,
    lap_growth_estimate,
    markov_partition,
    transition_matrix,
)
from .reduction import (
    BringJerrardQuintic,
    ConjugacyReport,
    ReducedQuintic,
    Regime,
    classify_regime,
    conjugacy_check,
    reduce_quintic,
)


class _DataclassView:
    """A record's ``__dataclass_fields__`` or ``__dataclass_params__``, taken
    on first use from a dataclass with the record's field names, so that
    ``dataclasses.replace``, ``fields`` and ``asdict`` take the records (the
    benchmark's self-test copies records with ``replace``), while importing
    the package does not import ``dataclasses``."""

    def __init__(self, name: str):
        self.name = name

    def __get__(self, obj, cls):
        import dataclasses
        twin = dataclasses.make_dataclass(cls.__name__, cls._fields)
        cls.__dataclass_fields__ = twin.__dataclass_fields__
        cls.__dataclass_params__ = twin.__dataclass_params__
        return getattr(twin, self.name)


for _record in (SymbolWord, TreeNode, PolyTreeNode, CriticalFrame, EntropyResult,
                MarkovPartition, CurvePoint, BringJerrardQuintic, ReducedQuintic,
                ConjugacyReport):
    _record.__dataclass_fields__ = _DataclassView("__dataclass_fields__")
    _record.__dataclass_params__ = _DataclassView("__dataclass_params__")
del _record

__all__ = [
    "__version__",
    "IntPolynomial", "smallest_root_in",
    "LAP_SIGN", "SYMBOLS", "SymbolWord",
    "TAIL_A_INF", "TAIL_PERIODIC", "TAIL_UNRESOLVED",
    "TreeNode", "WordError",
    "admissible_convergents", "admissible_cycles", "generate_tree",
    "is_admissible", "order_compare", "parse_parent", "transition_allowed",
    "PolyTreeNode", "StructureError",
    "build_polynomial_tree", "convergent_polynomial", "cycle_polynomial",
    "determinant_polynomial", "invariant_coordinate", "kneading_determinant",
    "kneading_increment", "kneading_numerator", "shape_split",
    "tree_polynomial_step",
    "C0", "CriticalFrame", "PoleError", "critical_frame", "critical_symbols",
    "find_superstable_parameter", "itinerary", "newton_eval",
    "CurvePoint", "EntropyResult", "MarkovPartition",
    "char_poly", "critical_orbit", "entropy_curve", "entropy_from_charpoly",
    "entropy_from_kneading", "entropy_point", "lap_growth_estimate",
    "markov_partition", "transition_matrix",
    "BringJerrardQuintic", "ConjugacyReport", "ReducedQuintic", "Regime",
    "classify_regime", "conjugacy_check", "reduce_quintic",
]
