"""Exception hierarchy.

Three branches matter to callers: file/parse problems, input validation
problems, and numerical failures. The CLI maps them to exit codes 1, 2
and 3 respectively.
"""


class GraphScatterError(Exception):
    """Base class for all errors raised by this package."""


class SpecFileError(GraphScatterError):
    """A graph spec file could not be read or does not match the schema."""


class ValidationError(GraphScatterError):
    """Input data violates a documented precondition."""


class NumericalError(GraphScatterError):
    """A computation could not be completed to the requested accuracy."""


# -- validation -------------------------------------------------------------

class DisconnectedGraph(ValidationError):
    pass


class NonPositiveLength(ValidationError):
    pass


class DanglingVertexReference(ValidationError):
    pass


class SizeMismatch(ValidationError):
    pass


class MissingVertexMatrix(ValidationError):
    pass


class NotInvolutive(ValidationError):
    pass


class DegreeMismatch(ValidationError):
    pass


class InvalidCycle(ValidationError):
    """A permutation meant as a single cycle is not one."""


class NotCompact(ValidationError):
    pass


class EmptyInterval(ValidationError):
    pass


class IncommensurableLengths(ValidationError):
    pass


class NonConstantLocals(ValidationError):
    pass


class UnknownSolid(ValidationError):
    pass


class UnknownFixture(ValidationError):
    pass


class ReductionNotApplicable(ValidationError):
    """The factorization shortcut does not apply to the given data."""


class DegenerateConstantPolynomial(ValidationError):
    pass


# -- numerical --------------------------------------------------------------

class NearPole(NumericalError):
    """The resolvent matrix is numerically singular at the requested momentum."""

    def __init__(self, momentum, sigma_min, sigma_max):
        self.momentum = momentum
        self.sigma_min = sigma_min
        self.sigma_max = sigma_max
        super().__init__(
            "matrix is numerically singular at p=%r (sigma_min=%.3e, sigma_max=%.3e)"
            % (momentum, sigma_min, sigma_max)
        )


class SeriesDiverges(NumericalError):
    pass


class FitResidualTooLarge(NumericalError):
    pass
