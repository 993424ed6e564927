"""Exception types shared across the solver modules.

Every error derives from exactly one of InputError (malformed input; the
CLI exits 64) and SolverError (a solver failed; the CLI exits 1).
"""


class KcycleError(Exception):
    """Base class for all errors raised by this package."""


class InputError(KcycleError):
    """The input is malformed or inconsistent; nothing was solved."""


class SolverError(KcycleError):
    """A well-formed problem on which a solver or integrator failed."""


class DslError(InputError):
    """Syntax or validation error in a vector-field expression.

    Carries the character offset plus 1-based line/column of the offending
    token so front ends can point at the exact spot.
    """

    def __init__(self, message, offset=None, line=None, column=None):
        self.offset = offset
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class DomainError(SolverError):
    """Expression evaluation left its domain (division by zero, sqrt of a
    negative, overflow). `component` and `subexpression` identify where."""

    def __init__(self, message, subexpression=None, component=None):
        self.subexpression = subexpression
        self.component = component
        super().__init__(message)

    def __str__(self):
        msg = super().__str__()
        if self.component is not None:
            msg = f"component {self.component}: {msg}"
        if self.subexpression is not None:
            msg = f"{msg} in '{self.subexpression}'"
        return msg


class DimensionError(InputError):
    """Inconsistent dimensions between fields, weights, or points."""


class StepLimitError(SolverError):
    """The integrator ran out of steps (or the step size collapsed)."""


class FlowDomainError(SolverError):
    """Field evaluation failed somewhere along a trajectory."""

    def __init__(self, message, time=None):
        self.time = time
        super().__init__(message)


class NewtonDivergenceError(SolverError):
    """Newton iteration failed to reach the tolerance."""

    def __init__(self, message, residual_norm=None, iterations=None):
        self.residual_norm = residual_norm
        self.iterations = iterations
        super().__init__(message)


class SingularJacobianError(SolverError):
    """The Newton system matrix is numerically singular."""

    def __init__(self, message, sigma_min=None):
        self.sigma_min = sigma_min
        super().__init__(message)


class InfeasibleWeightsError(SolverError):
    """No probability weighting drives the residual below tolerance."""

    def __init__(self, message, residual=None):
        self.residual = residual
        super().__init__(message)


class BoundaryWeightError(SolverError):
    """The best weighting pins some weight at the positivity floor."""

    def __init__(self, message, pinned=()):
        self.pinned = tuple(pinned)
        super().__init__(message)


class ClosureError(SolverError):
    """A solved cycle failed the independent final-leg closure check."""


class BranchLostError(SolverError):
    """Continuation could not advance past the recorded delta."""

    def __init__(self, message, last_delta=None):
        self.last_delta = last_delta
        super().__init__(message)


class ScenarioError(InputError):
    """Malformed scenario file or inconsistent scenario contents."""


class RecordError(InputError):
    """Malformed or internally inconsistent cycle record file."""
