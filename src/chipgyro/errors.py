"""Exception hierarchy for chipgyro.

Validation problems raise ``ConfigError`` (CLI exit code 1); situations where
the physics itself refuses (no trapping minimum, infeasible stability target)
raise subclasses of ``PhysicsError`` (CLI exit code 2).
"""


class ChipgyroError(Exception):
    """Base class for all chipgyro errors."""


class ConfigError(ChipgyroError):
    """Invalid input: bad field value, unknown PSD domain, unreadable input file."""


class PhysicsError(ChipgyroError):
    """The requested computation has no physical solution for these inputs."""


class SingularPointError(PhysicsError):
    """Field evaluation requested on (or too close to) a wire filament."""


class NoGuideMinimumError(PhysicsError):
    """The current configuration produces no trapping minimum in the search box."""


class NonSmoothPotentialError(PhysicsError):
    """No offset field (B0 = 0): the potential is a cone at the field zero,
    with no trap frequency."""


class DegenerateOrientationError(PhysicsError):
    """sin(latitude) = 0: the instrument senses no projection of the rotation."""


class InfeasibleTargetError(PhysicsError):
    """Stability target unreachable within the interrogation-time bracket."""


class DivergentIntegralError(PhysicsError):
    """Noise integral diverges within the declared frequency band."""
