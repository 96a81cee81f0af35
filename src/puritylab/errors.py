"""Exception types raised across the package.

Every validation error names the violated condition and carries the measured
deviation in its message, so failures in sweeps and audits are diagnosable
from logs alone.
"""


class PurityLabError(Exception):
    """Base class for all errors raised by puritylab."""


class NotHermitian(PurityLabError):
    pass


class NegativeSpectrum(PurityLabError):
    pass


class DimMismatch(PurityLabError):
    pass


class ShapeMismatch(PurityLabError):
    pass


class TraceNotOne(PurityLabError):
    pass


class NotPositive(PurityLabError):
    pass


class BadRank(PurityLabError):
    pass


class BadInterval(PurityLabError):
    pass


class DomainError(PurityLabError):
    pass


class SpecError(PurityLabError):
    pass


class IoError(PurityLabError):
    pass


class ShapeUnsupported(PurityLabError):
    pass
