"""Exception hierarchy and the one verdict type shared by all modules.

Everything raised derives from :class:`BowError`.  Checks *report* failures
in a :class:`CheckResult` instead of raising: the six fixed-point checks,
tie-diagram validity, polynomiality and the opposite-order check.
Exceptions are reserved for malformed input and for internal inconsistencies
that should never occur on valid data.
"""

from dataclasses import dataclass, field


@dataclass
class CheckResult:
    """The verdict of one named check: ``ok`` until a failure is recorded,
    ``skipped`` when the check could not run."""

    name: str
    ok: bool = True
    skipped: bool = False
    messages: list = field(default_factory=list)

    def fail(self, msg):
        self.ok = False
        self.messages.append(msg)


class BowError(Exception):
    """Base class for all errors raised by this package."""


class SyntaxError(BowError):  # noqa: A001 - deliberate, namespaced shadow
    """Malformed textual input (diagram DSL or polynomial expression).

    Carries the 0-based position of the offending character when known.
    """

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownVariable(SyntaxError):
    """A variable t<i> with i outside 1..N appeared in an expression."""


class DegreeLimit(BowError):
    """A total degree past ``algebra.MAX_DEGREE``, the most a packed exponent field holds."""


class LabelLimit(BowError):
    """A black label of more than ``algebra.MAX_DIGITS`` digits, too long to write as text."""


class BoundaryNotZero(BowError):
    """A brane diagram whose first or last black label is nonzero."""


class UnknownLine(BowError, KeyError):
    """A colored-line name or index that does not exist in the diagram."""

    __str__ = BowError.__str__  # KeyError's __str__ would quote the message


class NotAdjacentOppositePair(BowError):
    """Hanany-Witten move requested at a same-colored or out-of-range spot."""


class NegativeLabel(BowError):
    """A Hanany-Witten move would create a negative black label."""


class EmptyVariety(NegativeLabel):
    """A variety without points: separating its diagram hits a negative label."""


class IllegalMove(BowError):
    """Fixed-point matching requested for an illegal Hanany-Witten move."""


class NotProportional(BowError):
    """modH(p) is not an integer multiple of modH(e)."""


class NonEffective(BowError):
    """A finished tangent character has a negative multiplicity."""


class BadWeightForm(BowError):
    """A tangent weight is not of the form t_i - t_j + m*h with i != j."""


class BrokenSymplecticInvolution(BowError):
    """A tangent character is not stable under w -> h - w."""


class InconsistentDimension(BowError):
    """Fixed points of one diagram disagree on the tangent dimension."""


class DegenerateWeight(BowError):
    """Chamber splitting hit a weight with zero A-part."""


class BadChamber(BowError):
    """A chamber that is not a permutation of 1..N."""


class SchemaError(BowError):
    """An attraction-data file does not match the JSON schema."""


class DiagonalMismatch(BowError):
    """R[p][p] disagrees with the computed Euler class e(T_p^-)."""


class TriangularityViolation(BowError):
    """R[p][q] != 0 for some q > p in the declared order."""


class HomogeneityViolation(BowError):
    """A restriction entry is not homogeneous of degree dim/2."""


class IntegralityFailure(BowError):
    """The envelope recursion produced a non-integer coefficient."""


class AxiomFailure(BowError):
    """A computed stable envelope violates one of the three axioms."""


class ChamberMismatch(BowError):
    """Paired attraction data sets do not belong to opposite chambers."""
