"""Exception hierarchy with stable machine-readable error codes."""


class StarStringError(Exception):
    """Base class; every subclass carries a stable ``code`` string."""

    code = "E_INTERNAL"

    def __init__(self, message=""):
        super().__init__(message)
        self.message = message


class DivisionByZero(StarStringError):
    code = "E_DIV_ZERO"


class NotStieltjes(StarStringError):
    """Input is not a rational S0-function (positivity or degree pattern broke)."""

    code = "E_NOT_S0"


class RangeError(StarStringError):
    code = "E_RANGE"


class IrrationalPole(StarStringError):
    """Exact residue extraction refused: a pole is not a rational number."""

    code = "E_IRRATIONAL_POLE"


class BadShape(StarStringError):
    """Function does not have the -A0*z + sum A_i/(z - pole) + B shape."""

    code = "E_BAD_SHAPE"


class SchemaError(StarStringError):
    code = "E_SCHEMA"


class InvariantViolation(StarStringError):
    code = "E_INVARIANT"


class InvalidSpectra(InvariantViolation):
    """Spectral data that fails the solvability conditions; ``report`` is
    the failing validation report, and the message joins its issues."""

    def __init__(self, report):
        super().__init__("; ".join(i.message for i in report.issues))
        self.report = report

    def __reduce__(self):
        return InvalidSpectra, (self.report,)


class PlanInfeasible(StarStringError):
    code = "E_PLAN_INFEASIBLE"


class MainTooLong(StarStringError):
    """Main-string length is >= the value of the spectral quotient at zero."""

    code = "E_MAIN_TOO_LONG"


class RequiresPositiveCentralMass(StarStringError):
    code = "E_REQUIRES_POSITIVE_M"
