"""Exception hierarchy.

Three families matter to callers (and to the CLI exit-code contract):

* ``InputError`` -- malformed or non-conforming input (CLI exit 2),
* ``VerdictError`` -- the analysis reached a definite negative conclusion
  about the system, e.g. it cannot be rendered negative imaginary
  (CLI exit 1),
* ``NumericalError`` -- a computation failed numerically (CLI exit 3).
"""


class NisynthError(Exception):
    """Base class for all package errors."""


class InputError(NisynthError, ValueError):
    """Malformed input: bad shapes, non-finite entries, schema violations."""


class AsymmetricMatrixError(InputError):
    """A matrix required to be symmetric/Hermitian is not, beyond tolerance."""


class NotPositiveDefiniteError(InputError):
    """A matrix required to be positive definite is not."""


class IllPosedInterconnectionError(InputError):
    """Algebraic loop: the feedthrough product makes the loop ill posed."""


class VerdictError(NisynthError):
    """The system definitively fails a condition (negative verdict)."""


class NotControllableError(VerdictError):
    """A controllability hypothesis fails."""


class NoRdLeqTwoError(VerdictError):
    """No output transformation yields relative degrees all at most two."""


class NotWeaklyMinimumPhaseError(VerdictError):
    """Zero dynamics are not Lyapunov stable."""


class NotMinimumPhaseError(VerdictError):
    """Zero dynamics are not asymptotically stable."""


class RelativeDegreeNotOneError(VerdictError):
    """The system does not have relative degree vector {1,...,1}."""


class UnsupportedShapeError(VerdictError):
    """Output-strict synthesis is not constructible for this block shape."""


class PoleInForbiddenRegionError(VerdictError):
    """A pole violates the pole-location condition of the tested class."""

    def __init__(self, message, pole=None):
        super().__init__(message)
        self.pole = pole


class DcGainConditionError(VerdictError):
    """The DC-gain robustness condition is violated."""


class NumericalError(NisynthError):
    """A numerical computation failed or left an unacceptable residual."""


class EigNonConvergenceError(NumericalError):
    """The eigenvalue iteration failed to converge."""


class SingularLyapunovOperatorError(NumericalError):
    """The Lyapunov operator is singular (an eigenvalue pair sums to zero)."""


class PoleProximityError(NumericalError):
    """A transfer-function evaluation point is too close to a pole."""

    def __init__(self, message, pole=None):
        super().__init__(message)
        self.pole = pole


class SimulationDivergedError(NumericalError):
    """The simulated state left the finite range."""

    def __init__(self, message, t_bad=None):
        super().__init__(message)
        self.t_bad = t_bad


class RetryExhaustedError(NumericalError):
    """The free parameters ``H`` and ``K13``, pinned or drawn once, leave
    the closed loop non-minimal; ``witness`` is the eigenvalue of ``A00``
    at which an observability target fails."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
