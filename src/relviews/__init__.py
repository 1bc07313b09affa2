"""Bounded linearizability checking and relational-view proof outlines."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    FaultReachable,
    ModelError,
    RelviewsError,
    StabilityViolation,
    UndefinedLocation,
    UniverseTooLarge,
)
