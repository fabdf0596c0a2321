"""Exception types raised across the library."""


class LossfishError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatch(LossfishError):
    """Vector/matrix shapes are inconsistent or mode counts differ."""


class NonPhysical(LossfishError):
    """A covariance matrix violates the Heisenberg uncertainty relation."""


class NonPhysicalParams(LossfishError):
    """Channel parameters outside their physical domain."""


class DivergentNoise(LossfishError):
    """Constant-background noise N_B/(1-eta^2) diverges at eta = 1."""


class ProbeRangeError(LossfishError):
    """Probe parameter outside its allowed range (e.g. r not in [r_min, 1])."""


class NotPure(LossfishError):
    """Operation requires a pure state."""


class NotTwoMode(LossfishError):
    """Operation requires a two-mode state."""


class EtaTooClose(LossfishError):
    """eta is within the guard band of 1 where the QFI routes degenerate."""


class SingularSystem(LossfishError):
    """The SLD route cannot vouch for a QFI value to its 1e-8 tolerance."""
