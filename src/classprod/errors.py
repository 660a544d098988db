"""Exception types shared across the package."""


class UsageError(ValueError):
    """Malformed user input: bad partition/class string, flag value or
    library argument."""


class CapabilityError(ValueError):
    """Requested n is beyond the supported range for the chosen mode."""


class ConsistencyError(RuntimeError):
    """An exactness invariant failed; results cannot be trusted."""
