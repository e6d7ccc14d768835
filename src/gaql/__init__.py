"""Exact symbolic toolkit for additive group actions on affine space.

Core objects: sparse rational polynomials, derivations and their local
nilpotency certificates, exponentiated flows, Jacobian derivations built
from polynomial maps, and Groebner-based geometric probes (fiber emptiness,
singular loci, subalgebra membership).
"""

from .action import (
    GaAction,
    UncertifiedDerivationError,
    act,
    deg_function,
    exponentiate,
)
from .derivation import (
    DegreeExplosionError,
    Derivation,
    FixedLocus,
    NilpotencyCertificate,
    apply,
    certify_locally_nilpotent,
    fixed_locus,
    kernel_check,
)
from .exprs import PolyParseError, parse_polynomial
from .geometry import (
    FiberReport,
    GridSpec,
    SingularityReport,
    complement_scan,
    fiber_probe,
    singular_locus,
)
from .groebner import (
    GREVLEX,
    LEX,
    GroebnerBasis,
    MonomialOrder,
    block_order,
    buchberger_criterion_holds,
    eliminate,
    groebner_basis,
    reduce,
    subalgebra_membership,
)
from .poly import (
    NEG_INF,
    PolyMap,
    Polynomial,
    Ring,
    RingMismatchError,
    det,
    embed,
)
from .quotient import (
    LocalSlice,
    find_local_slice,
    jacobian_derivation,
    slice_coefficient_as_P,
    verify_localization_identity,
)

__all__ = [
    "DegreeExplosionError",
    "Derivation",
    "FiberReport",
    "FixedLocus",
    "GREVLEX",
    "GaAction",
    "GridSpec",
    "GroebnerBasis",
    "LEX",
    "LocalSlice",
    "MonomialOrder",
    "NEG_INF",
    "NilpotencyCertificate",
    "PolyMap",
    "PolyParseError",
    "Polynomial",
    "Ring",
    "RingMismatchError",
    "SingularityReport",
    "UncertifiedDerivationError",
    "act",
    "apply",
    "block_order",
    "buchberger_criterion_holds",
    "certify_locally_nilpotent",
    "complement_scan",
    "deg_function",
    "det",
    "eliminate",
    "embed",
    "exponentiate",
    "fiber_probe",
    "find_local_slice",
    "fixed_locus",
    "groebner_basis",
    "jacobian_derivation",
    "kernel_check",
    "parse_polynomial",
    "reduce",
    "singular_locus",
    "slice_coefficient_as_P",
    "subalgebra_membership",
    "verify_localization_identity",
]
