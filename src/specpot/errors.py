"""Exception hierarchy and result sentinels shared by all modules."""

from __future__ import annotations


class SpecpotError(Exception):
    """Base class for all library errors."""


# --- algebra -----------------------------------------------------------------

class ZeroDenominator(SpecpotError):
    pass


class PoleAtPoint(SpecpotError):
    """Substitution hit a non-removable pole of a coefficient fraction."""


class ZeroLeadingCoefficient(SpecpotError):
    """The E^0 coefficient of a series vanishes, so its log-derivative is undefined."""


class NonRationalCoefficient(SpecpotError):
    """A series log-derivative retains log or root terms and cannot be demoted
    to rational coefficients."""


# --- interp ------------------------------------------------------------------

class UnsolvableSystem(SpecpotError):
    """No rational interpolant / Pade form exists within the prescribed degrees."""


class DuplicateNode(SpecpotError):
    pass


# --- seeds -------------------------------------------------------------------

class SingularParameter(SpecpotError):
    """A hypergeometric parameter degenerates and regularization also fails."""


class NonElementary:
    """Sentinel result: the hyperexponential integral has no rational certificate.

    Not an exception -- returned, never raised.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NonElementary"


NON_ELEMENTARY = NonElementary()


# --- gauge -------------------------------------------------------------------

class MixedFactor(SpecpotError):
    """H's numerator has an irreducible factor mixing z and E: the gauge does
    not define a potential."""


class DegreeBoundViolated(SpecpotError):
    pass


class EDependentPotential(SpecpotError):
    """Candidate potential depends on E after reduction; carries the witness."""

    def __init__(self, witness, message="potential depends on E"):
        super().__init__(message)
        self.witness = witness


class InconsistentRatio(SpecpotError):
    """psi'' is not proportional to psi modulo the Whittaker ODE (internal error)."""


# --- families ----------------------------------------------------------------

class DegreeMismatch(SpecpotError):
    pass


# --- spectrum ----------------------------------------------------------------

class SymbolicNu(SpecpotError):
    """An operation requiring numeric nu received a symbolic value."""


class NoSolution(SpecpotError):
    """No eigenfunction at this candidate energy; ``reason`` says why."""

    NO_CLOSED_FORM = "no closed form"
    NOT_L2 = "closed form not L2 on any interval"

    def __init__(self, E0, reason):
        super().__init__("no eigenfunction at E = %s: %s" % (E0, reason))
        self.reason = reason


class DegreeCapExceeded(SpecpotError):
    pass


class NonzeroResidual(SpecpotError):
    """A closed-form eigenfunction does not solve psi'' + (V + E0) psi = 0."""


# --- cli ---------------------------------------------------------------------

class ExprSyntaxError(SpecpotError):
    def __init__(self, offset, expected, message=None):
        self.offset = offset
        self.expected = tuple(expected)
        if message is None:
            message = "syntax error at offset %d, expected one of: %s" % (
                offset, ", ".join(self.expected))
        super().__init__(message)


class UnboundParameter(SpecpotError):
    pass
