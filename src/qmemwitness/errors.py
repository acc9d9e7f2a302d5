"""Exception types shared across the package."""


class QmemError(Exception):
    """Base class for all errors raised by qmemwitness."""


class InvalidDimensionError(QmemError, ValueError):
    """A Hilbert-space dimension is out of range (e.g. d < 2)."""


class InvalidSubsystemError(QmemError, ValueError):
    """Subsystem indices or dimension lists do not match the state."""


class InvalidStateError(QmemError, ValueError):
    """A matrix violates the density-matrix contract beyond tolerance."""


class DomainError(QmemError, ValueError):
    """A scalar argument lies outside the mathematical domain of a function."""


class UnphysicalStateError(QmemError, ValueError):
    """A covariance matrix violates the uncertainty bound beyond tolerance."""


class InvalidChannelError(QmemError, ValueError):
    """A Gaussian channel violates the complete-positivity condition."""


class AmplitudeVanishingError(QmemError, ArithmeticError):
    """The oscillator amplitude crossed (numerical) zero.

    The loss channel is singular there; `time` records the first grid
    time at which the amplitude fell below the cutoff.
    """

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class ExtremumNotFoundError(QmemError, RuntimeError):
    """No interior extremum was found on the sampled trajectory."""
