"""Exception types shared across the package."""


class QmemError(Exception):
    """Base class for all errors raised by qmemwitness."""


class DomainError(QmemError, ValueError):
    """An argument lies outside the domain of a function: a dimension, rate,
    time, shape, channel or loss curve the computation is not defined for."""


class InvalidStateError(QmemError, ValueError):
    """A density matrix or covariance is not a physical state within tolerance."""


class ExtremumNotFoundError(QmemError, RuntimeError):
    """No interior extremum was found on the sampled trajectory."""
