"""mutower: exact structure invariants (mu, rank, theta, elementary
representation) of finitely presented modules over Iwasawa algebras of
uniform pro-p groups, computed through towers of finite quotient group rings.
"""

from .chainring import (
    ChainRing,
    DiagonalForm,
    RingBase,
    cokernel_ordq,
    diagonalize,
)
from .compare import TowerSeries, Verdict, compare_modules, tower_compare
from .errors import (
    GridMismatch,
    InconsistentInput,
    InconsistentProfile,
    InvalidGarnish,
    InvalidInput,
    MutowerError,
    NonAbelianUnsupported,
    NotConverged,
    ProfileTooShort,
    SaturationWarning,
    SingularBlock,
    TooLarge,
)
from .groupring import (
    GroupLevel,
    GroupRingPoly,
    GroupSpec,
    group_level,
    poly_add,
    poly_gen,
    poly_int,
    poly_mul,
    poly_pi_pow,
    poly_sub,
    quotient_order,
    reduce_poly,
)
from .invariants import (
    ElementaryRep,
    MuProfile,
    default_m_range,
    mu_profile,
    recover_elementary,
    solve_multiplicities,
)
from .lambda_mod import (
    Presentation,
    coinvariants_ordq,
    koszul_homology_ordq,
    presentation,
    quotient_pi,
)
from .synth import Garnish, GroundTruth, alpha_multisets, brute_force_ordq, corrupt_presentation, make_module

__version__ = "0.1.0"

__all__ = [
    "ChainRing",
    "DiagonalForm",
    "ElementaryRep",
    "Garnish",
    "GridMismatch",
    "GroundTruth",
    "GroupLevel",
    "GroupRingPoly",
    "GroupSpec",
    "InconsistentInput",
    "InconsistentProfile",
    "InvalidGarnish",
    "InvalidInput",
    "MuProfile",
    "MutowerError",
    "NonAbelianUnsupported",
    "NotConverged",
    "Presentation",
    "ProfileTooShort",
    "RingBase",
    "SaturationWarning",
    "SingularBlock",
    "TooLarge",
    "TowerSeries",
    "Verdict",
    "alpha_multisets",
    "brute_force_ordq",
    "cokernel_ordq",
    "coinvariants_ordq",
    "compare_modules",
    "corrupt_presentation",
    "default_m_range",
    "diagonalize",
    "group_level",
    "koszul_homology_ordq",
    "make_module",
    "mu_profile",
    "poly_add",
    "poly_gen",
    "poly_int",
    "poly_mul",
    "poly_pi_pow",
    "poly_sub",
    "presentation",
    "quotient_order",
    "quotient_pi",
    "recover_elementary",
    "reduce_poly",
    "solve_multiplicities",
    "tower_compare",
]
