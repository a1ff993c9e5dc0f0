"""Exception taxonomy for the ebk package.

Every failure mode that callers are expected to handle gets its own class so
the CLI can map them to exit codes (config problems exit 2, numerical
failures exit 3) and tests can assert on the precise mode.
"""


class EbkError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(EbkError):
    """Invalid user-supplied configuration (CLI flags, profile specs)."""


# --- geometry ---

class DegenerateGradient(EbkError):
    """Gradient norm below threshold; the Gauss map is undefined there."""


class InsufficientResolution(EbkError):
    """Surface sampling too sparse for the requested derivative estimate."""


class TangentThroughOrigin(EbkError):
    """<p, n(p)> ~ 0: the pointwise dual map blows up at this point."""


class DirectionNotAttained(EbkError):
    """Requested normal direction lies outside the surface's normal cone."""


class ConvergenceFailure(EbkError):
    """An iterative solver ran out of iterations before reaching tolerance."""


# --- spectra ---

class UnsupportedSurface(EbkError):
    """Operation not defined for this surface (e.g. multivalued inversion
    with disagreeing actions on a non-convex curve)."""


class NonFiniteEnergy(EbkError):
    """A computed energy is inf or nan, as when hbar (m + mu) overflows."""


class EmptySpectrum(EbkError):
    """No marked-action entries available to extremize over."""


class DomainError(EbkError):
    """Argument left the mathematical domain of the operation."""


class InvalidOrbitClass(EbkError):
    """Billiard orbit class (k, ell) outside 0 < k/ell < 1."""


class NoQualifyingDirections(EbkError):
    """Certificate requested but no entry has all components >= 1."""


class RayMiss(EbkError):
    """Quantization ray does not intersect the reconstructed curve."""


# --- duality / reconstruction ---

class NotAttained(EbkError):
    """Convex conjugate sup is +inf: q lies outside the polar body of a
    1-homogeneous profile."""


class TooFewNicePoints(EbkError):
    """Fewer than the minimum usable points survive the nice-point filters."""


class InsufficientCloud(ConfigError):
    """Point cloud too small to fit a curve through: an input with too few
    entries, so a configuration error."""


class NonGraphical(EbkError):
    """Cloud is not a graph over polar angle (self-intersecting fit)."""
