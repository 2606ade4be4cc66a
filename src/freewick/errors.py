"""Exception types shared across the package, and the integer check behind
every count a configuration sets."""


class FreewickError(Exception):
    """Base class for all package-specific errors."""


class CapacityError(FreewickError):
    """A raising step would push nonzero content past a vector's level
    budget, or past the slot depth ``L`` where that content is not null.

    Budgets are set up front, from the number of fields a caller applies;
    exceeding one is a caller bug, never something to truncate silently.
    """


class EnumerationBoundError(FreewickError, ValueError):
    """Requested enumeration size is outside the supported range."""


class DomainBoundError(FreewickError, ValueError):
    """Argument violates a convergence-radius bound, the series may diverge."""


class ConfigError(FreewickError, ValueError):
    """Invalid CLI/model configuration."""


def require_int(name: str, value, low: int, why: str = "") -> None:
    """Refuse ``value`` unless it is an integer of at least ``low``.

    A bool is an int to Python, but not a count; a float, even 8.0, is not
    one either.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"{name} must be an integer of at least {low}{why}")
