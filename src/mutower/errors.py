"""Exception and warning types shared across the package."""


class MutowerError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(MutowerError):
    """Malformed or incompatible input data (mixed rings, shape mismatch, ...)."""


class TooLarge(MutowerError):
    """A requested enumeration or dense expansion exceeds its safety bound."""


class SingularBlock(MutowerError):
    """A block taken as a unit pivot has no inverse over Z/p^K."""


class NonAbelianUnsupported(MutowerError):
    """Higher Koszul homology requested for a non-abelian group preset."""


class NotConverged(MutowerError):
    """A level-tower estimate did not certify convergence."""


class InconsistentProfile(MutowerError):
    """A mu-profile violates the guaranteed monotonicity of its differences."""


class ProfileTooShort(MutowerError):
    """The profile's difference sequence never stabilized within n_max."""


class InconsistentInput(MutowerError):
    """A multiplicity system has no admissible (nonnegative integer) solution."""


class InvalidGarnish(MutowerError):
    """A pseudo-null garnish descriptor is not valid for the given group."""


class GridMismatch(MutowerError):
    """Two tower series do not share the same (p, r) or (n, m) grid."""


class SaturationWarning(UserWarning):
    """A diagonal valuation saturated at the ring truncation N in a context
    where exactness of the computed order is not certified."""
