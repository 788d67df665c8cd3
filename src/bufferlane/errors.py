"""Exception hierarchy shared across the simulation engine."""


class BufferlaneError(Exception):
    """Base class for all engine errors."""


class DensityOutOfRange(BufferlaneError):
    pass


class BufferOutOfRange(BufferlaneError):
    pass


class BufferOverflow(BufferOutOfRange):
    pass


class BufferUnderflow(BufferOutOfRange):
    pass


class NegativeInflow(BufferlaneError):
    pass


class DegreeMismatch(BufferlaneError):
    pass


class RateSumViolation(BufferlaneError):
    pass


class NonPositiveLength(BufferlaneError):
    pass


class NonFiniteValue(BufferlaneError):
    """A NaN or infinite number where the model needs a finite one."""


class DisconnectedGraph(BufferlaneError):
    pass


class CFLViolation(BufferlaneError):
    pass


class NotAShock(BufferlaneError):
    pass


class NotARarefaction(BufferlaneError):
    pass


class ZeroSpeedAtBoundary(BufferlaneError):
    pass


class RunTooLarge(BufferlaneError):
    """A run whose recorded history would exceed `solver.MAX_VALUES`."""


class HorizonExceeded(BufferlaneError):
    pass


class UnreachableDestination(BufferlaneError):
    pass


class OutOfDomain(BufferlaneError):
    pass


class GridMismatch(BufferlaneError):
    pass


class ScenarioSyntaxError(BufferlaneError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ScenarioSemanticError(BufferlaneError):
    pass
