"""Exception types shared across the package."""


class MdpwfError(Exception):
    """Base class for all library errors."""


class FormatError(MdpwfError):
    """A model or strategy file could not be parsed or written.

    Attributes:
        location: human-readable position of the offending field.
    """

    def __init__(self, message, location=None):
        self.location = location
        if location is not None:
            message = f"{message} (at {location})"
        super().__init__(message)


class LoadError(MdpwfError):
    """A parsed file failed model validation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid model: " + "; ".join(self.violations))


class ConvergenceError(MdpwfError):
    """An iterative solver exceeded its iteration cap."""


class HorizonExceededError(MdpwfError):
    """The unrolling horizon scan reached max_kappa without stabilising."""

    def __init__(self, max_kappa, worst_pair=None):
        self.max_kappa = max_kappa
        self.worst_pair = worst_pair
        detail = f" (still unstable at {worst_pair})" if worst_pair else ""
        super().__init__(f"horizon exceeded max_kappa={max_kappa}{detail}")


class CapExceededError(MdpwfError):
    """A brute-force search space exceeds the configured cap."""

    def __init__(self, size, cap):
        self.size = size
        self.cap = cap
        super().__init__(f"search space of {size} candidates exceeds cap {cap}")


class DisabledActionError(MdpwfError):
    """A strategy picks an action that is not enabled in its state."""


class CertificationError(MdpwfError):
    """A quantity that must vanish (or decompose) failed its check,
    signalling solver tolerance misconfiguration."""
