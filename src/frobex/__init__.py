"""Prime-characteristic commutative algebra workbench.

Sparse polynomial arithmetic over F_p, Groebner bases, filter regular
sequences, Frobenius powers/closures/test exponents, truncated limit local
cohomology with Frobenius actions, and HSL numbers, plus report generators
comparing the test-exponent and HSL sides on bundled example rings.
"""

from .algebra import (
    AlgebraError,
    ExponentOverflowError,
    MonomialOrder,
    ParseError,
    PolyRing,
    Polynomial,
    PrimeField,
    RingMismatchError,
    format_poly,
    frobenius_raise,
    parse_poly,
)
from .corpus import (
    RingSpecError,
    corpus_labels,
    corpus_specs,
    load_corpus_ring,
    load_ring_spec,
    ring_from_spec,
)
from .filterreg import (
    FilterSequence,
    SearchExhausted,
    is_filter_regular_sequence,
    is_system_of_parameters,
    make_sequence,
    random_filter_regular_sop,
)
from .frobenius import (
    ClosureResult,
    FteScanReport,
    InconsistencyError,
    ScanSample,
    frobenius_closure,
    frobenius_power,
    fte_scan,
    power_family_ideal,
    qpower_preimage,
)
from .groebner import (
    DEFAULT_GB_CONFIG,
    GBConfig,
    GBStats,
    IdealHandle,
    ImproperIdealError,
    NotZeroDimensionalError,
    QuotientRing,
    ResourceCapExceeded,
    colon,
    dimension,
    ideal,
    intersect,
    ring_fingerprint,
    saturation,
    shared_bases,
    std_monomials,
)
from .localcoh import (
    HslReport,
    InequalityReport,
    LimitSystem,
    NilpotentReport,
    NsReport,
    Prop34Report,
    TorsionQuotientSnapshot,
    hsl_estimate,
    koszul_cohomology_table,
    limit_system,
    nilpotent_part,
    ns_consistency_check,
    prop34_check,
    scan_and_hsl,
    torsion_quotient,
    verify_inequality,
)
from .seeding import derive_seed

__version__ = "0.1.0"

__all__ = [
    "AlgebraError", "ExponentOverflowError", "MonomialOrder", "ParseError",
    "PolyRing", "Polynomial", "PrimeField", "RingMismatchError",
    "format_poly", "frobenius_raise", "parse_poly",
    "RingSpecError", "corpus_labels", "corpus_specs", "load_corpus_ring",
    "load_ring_spec", "ring_from_spec",
    "FilterSequence", "SearchExhausted", "is_filter_regular_sequence",
    "is_system_of_parameters", "make_sequence", "random_filter_regular_sop",
    "ClosureResult", "FteScanReport", "InconsistencyError", "ScanSample",
    "frobenius_closure", "frobenius_power", "fte_scan",
    "power_family_ideal", "qpower_preimage",
    "DEFAULT_GB_CONFIG", "GBConfig", "GBStats", "IdealHandle",
    "ImproperIdealError", "NotZeroDimensionalError", "QuotientRing",
    "ResourceCapExceeded", "colon", "dimension", "ideal", "intersect",
    "ring_fingerprint", "saturation", "shared_bases", "std_monomials",
    "HslReport", "InequalityReport", "LimitSystem", "NilpotentReport",
    "NsReport", "Prop34Report", "TorsionQuotientSnapshot",
    "hsl_estimate", "koszul_cohomology_table",
    "limit_system", "nilpotent_part", "ns_consistency_check", "prop34_check",
    "scan_and_hsl", "torsion_quotient", "verify_inequality",
    "derive_seed",
    "__version__",
]
