"""Exception types shared across the package."""


class CoagkinError(Exception):
    """Base class for package errors."""


class ConfigError(CoagkinError):
    """Invalid configuration; carries the offending field name."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")


def reject_unknown_keys(block: str, given, expected, owner: str = "") -> None:
    """Raise ConfigError at the first key of ``given`` not in ``expected``.

    The field is ``block.key`` (the bare key when block is empty); ``owner``
    says whose keys they are, as in "a monomer initial".
    """
    for key in given:
        if key not in expected:
            for_owner = f" for {owner}" if owner else ""
            raise ConfigError(f"{block}.{key}" if block else key,
                              f"unknown key{for_owner}; expected {', '.join(expected)}")


class NumericError(CoagkinError):
    """Non-finite values encountered during evaluation or integration.

    ``max_occupied_size`` and ``reach`` are set when ``integrate`` raises
    it: the largest occupied size of the initial and every accepted state
    of the run, and how many sizes past it a step of the run's tableau
    reaches.
    """

    max_occupied_size: int | None = None
    reach: int | None = None

    def __init__(self, message: str, time: float | None = None):
        self.time = time
        if time is not None:
            message = f"{message} (at t={time:.6g})"
        super().__init__(message)


class IntegrationStalledError(NumericError):
    """Step size underflowed; carries the last accepted state."""

    def __init__(self, message: str, time: float, last_state=None):
        self.last_state = last_state
        super().__init__(message, time=time)
