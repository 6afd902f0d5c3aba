"""Exact spectral invariants of action-filtered complexes over Novikov rings."""

from .chains import (
    FilteredComplex,
    Generator,
    NovikovChain,
    ValidationReport,
    level_and_peak,
)
from .dual import (
    BallSpec,
    Classification,
    DualFunctional,
    Ray,
    ball_intersection_radius,
    classify_functional,
    dual_boundary,
    dual_spectral_invariant,
    embed_class,
    in_ball,
    point_cochain_functional,
)
from .engine import (
    BoundReport,
    SpectralResult,
    action_spectrum,
    check_valuation_bounds,
    image_membership,
    oracle_rho,
    realize_flat,
    spectral_invariant,
    spectrality_check,
)
from .errors import (
    DomainError,
    FixtureError,
    IndeterminateError,
    InputError,
    InvalidComplexError,
    NovispecError,
    SpectralLevelError,
    StructuralError,
    WindowTooLargeError,
)
from .gamma import GammaGroup
from .maps import (
    ChainMap,
    ContinuityReport,
    HamiltonianData,
    MonodromyShift,
    ProductMapData,
    check_local_constancy,
    identity_map,
    monodromy_shift,
    pants_product,
    shift_bounds,
    verify_continuity,
)
from .morse import (
    MorseData,
    build_small_complex,
    cochain_differential,
)
from .quantum import (
    COHOMOLOGY,
    HOMOLOGY,
    ClassBasis,
    LeadingData,
    ProductFixture,
    QuantumClass,
    flat,
    leading_data,
    pairing,
    quantum_product,
    sharp,
    valuation_min,
)
from .scalars import DOWN, UP, NEG_INF, POS_INF, NovikovScalar

__version__ = "0.1.0"
