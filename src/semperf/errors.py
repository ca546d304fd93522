"""Exception types shared across the toolkit."""


class SemperfError(Exception):
    """Base class for all toolkit-specific errors."""


class OverDecompositionError(SemperfError):
    """Raised when a partition asks for more ranks than there are elements."""


class CalibrationDegenerateError(SemperfError):
    """Raised when the interconnect calibration system is singular.

    Carries the names of the redundant input rows in ``inputs``.
    """

    def __init__(self, message, inputs=()):
        super().__init__(message)
        self.inputs = tuple(inputs)
