"""Exception types shared across the toolkit."""


class RelviewsError(Exception):
    """Base class for all toolkit errors."""


class ModelError(RelviewsError):
    """A model or outline file is malformed or internally inconsistent."""


class UndefinedLocation(RelviewsError):
    """An expression read a heap location that is absent from the state."""

    def __init__(self, loc):
        super().__init__(f"read of undefined location {loc!r}")
        self.loc = loc


class FaultReachable(RelviewsError):
    """A transformer produced the fault state.  `schedule` is the run that
    reaches it from the initial configuration, one move each: a call or
    return event, or (thread, primitive) for a step, the faulting one
    last."""

    def __init__(self, detail, schedule=None):
        super().__init__(detail)
        self.schedule = schedule or []


class UniverseTooLarge(RelviewsError):
    """An enumeration would exceed the configured state cap."""

    def __init__(self, size, cap, what="universe", unit="states"):
        """`size` is None where only "more than cap" is known.  `what`
        names the enumeration and `unit` the items it counted."""
        amount = f"of size {size}" if size is not None else \
            f"of more than {cap} {unit}"
        super().__init__(
            f"{what} {amount} exceeds cap {cap}; "
            f"raise --cap / RELVIEWS_CAP or restrict the model domains"
        )
        self.size = size
        self.cap = cap


class StabilityViolation(RelviewsError):
    """A view assertion's predicate is not closed under its rely."""

    def __init__(self, local, shared, shared2):
        super().__init__(
            "assertion is unstable: rely moves shared state "
            f"{shared} to {shared2} but the predicate does not cover the result"
        )
        self.witness = (local, shared, shared2)

