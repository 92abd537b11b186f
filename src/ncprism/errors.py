"""Exception hierarchy for ncprism.

All library errors derive from :class:`NcprismError` so callers can
distinguish domain failures from programming errors. The leaf classes mirror
the failure modes of the individual constructions (bad preconditions,
numerical certificates that do not verify, infeasible searches).
"""


class NcprismError(Exception):
    """Base class for all ncprism errors."""


class ShapeMismatchError(NcprismError):
    """Operands do not have compatible shapes."""


class NotHermitianError(NcprismError):
    """A matrix required to be Hermitian is not, within tolerance."""


class NotPSDError(NcprismError):
    """A matrix has an eigenvalue below the negative clamp threshold."""


class NotIsometryError(NcprismError):
    """Z*Z differs from the identity beyond tolerance."""


class NotSymmetryError(NcprismError):
    """A matrix is not a selfadjoint unitary within tolerance."""


class NormExceedsOneError(NcprismError):
    """An operator that must be a contraction has norm > 1."""


class InvalidPovmError(NcprismError):
    """Effects are not positive or do not sum to the identity."""


class InfeasibleError(NcprismError):
    """No feasible point was returned.

    The message says which case holds: a proof of infeasibility (a failed
    necessary condition such as numerical-range membership, or a re-checked
    primal certificate), or a search that ended undecided, which is not a
    proof.
    """


class NumericalRangeOutsideTriangleError(InfeasibleError):
    """The numerical range of the input leaves the target triangle, so no
    decomposition over its vertices exists."""


class OrderMismatchError(NcprismError):
    """Generator orders of two objects are incompatible."""


class LambdaOutOfRangeError(NcprismError):
    """The coupling parameter leaves its admissible interval."""


class IndexOutOfRangeError(NcprismError):
    """A vertex or root-of-unity index is out of range."""


class SizeBudgetExceededError(NcprismError):
    """The requested construction exceeds the allowed matrix size."""


class RelationCheckFailedError(NcprismError):
    """A build-time verification of group relations or irreducibility failed."""


class UnsupportedQError(NcprismError, ValueError):
    """q is not a prime power, or the prime power q admits no two-generator
    construction here."""


class NoIrreduciblePolynomialError(NcprismError):
    """No irreducible modulus of the requested degree was found."""


class AssemblyFailedError(NcprismError):
    """No tensor factorization into usable building blocks exists."""


class InvalidDensityError(NcprismError):
    """A density matrix is not positive with unit trace."""


class NotSelfadjointError(NcprismError):
    """A coefficient element fails the selfadjointness symmetry."""


class WrongLevelError(NcprismError):
    """An operation restricted to scalar level received a matrix level."""
