"""Exception hierarchy shared across the simulation engine: one class per
way a caller handles a failure.  A bad argument to a formula is a
ValueError."""


class BufferlaneError(Exception):
    """Base class for all engine errors."""


class ScenarioSyntaxError(BufferlaneError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ScenarioSemanticError(BufferlaneError):
    """An input value that cannot be run: a network, initial state or
    setting rejected before the first step."""


class InvariantViolation(BufferlaneError):
    """A step made a density off [0, 1] or a buffer load off [0, r_max]
    beyond round-off, which only a coupling bug can cause."""


class ZeroSpeedAtBoundary(BufferlaneError):
    pass


class HorizonExceeded(BufferlaneError):
    pass


class UnreachableDestination(BufferlaneError):
    pass
