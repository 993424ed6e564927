"""Exception types shared across the solver modules, and the argument
rules that every entry checks by.

Every error derives from exactly one of InputError (malformed input; the
CLI exits 64) and SolverError (a solver failed; the CLI exits 1). Each
rule that an argument obeys is one function here: a finite, a positive
or a whole number, a sweep's delta_max, a point or points, a family's
shape with its weights, points and times, and the leg times delta*m_j.
A broken number rule raises ArgumentError, which is a ValueError as
well, so that library callers see a ValueError naming the argument and
the CLI exits 64. Numpy scalars are numbers; booleans are not.
"""

import math
import numbers
import sys

import numpy as np


class KcycleError(Exception):
    """Base class for all errors raised by this package."""


class InputError(KcycleError):
    """The input is malformed or inconsistent; nothing was solved."""


class SolverError(KcycleError):
    """A well-formed problem on which a solver or integrator failed."""


class ArgumentError(InputError, ValueError):
    """An argument breaks its rule: a number or a point's entry that is
    not a (finite, positive or whole) number as its entry requires."""


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
    negative, overflow). `component` and `subexpression` identify where,
    and `leg` the index of the leg, in the family of legs a compiled
    writer evaluates (a field's own writers are its family of one)."""

    def __init__(self, message, subexpression=None, component=None):
        self.subexpression = subexpression
        self.component = component
        self.leg = None
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


class ScenarioError(InputError):
    """Malformed scenario file or inconsistent scenario contents."""


class RecordError(InputError):
    """Malformed or internally inconsistent cycle record file."""


def _real(value):
    """value as a float if it is a real number, else None; a boolean is
    not one, and an integer past the float range is +-inf."""
    # float first: numbers.Real's ABC check is many times slower
    if isinstance(value, float) or (
            isinstance(value, numbers.Real) and not isinstance(value, bool)):
        try:
            return float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
    return None


def finite_number(value, label: str, minimum: float = -math.inf) -> float:
    """value as a float: a real number, finite and >= minimum."""
    number = value if type(value) is float else _real(value)
    if number is None or not (math.isfinite(number) and number >= minimum):
        floor = "" if minimum == -math.inf else f" >= {minimum!r}"
        raise ArgumentError(
            f"{label} must be a finite number{floor}, got {value!r}")
    return number


def positive_number(value, label: str) -> float:
    """value as a float: a finite real number > 0."""
    number = finite_number(value, label)
    if not number > 0:
        raise ArgumentError(f"{label} must be positive, got {value!r}")
    return number


def normal_number(value, label: str) -> float:
    """A sweep's delta_max as a float: finite and at least the smallest
    normal float, so that the ladder's foot delta_max/1024 is not 0."""
    return finite_number(value, label, sys.float_info.min)


def whole_number(value, label: str, minimum: int) -> int:
    """value as an int: an integer >= minimum; 2.5, True and "3" are not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < minimum:
        raise ArgumentError(f"{label} must be an integer >= {minimum}, "
                            f"got {value!r}")
    return int(value)


_FLOAT = np.dtype(float)  # a dtype compares with a dtype faster than float


def point_array(value, shape, label: str, finite=False) -> np.ndarray:
    """value, a point (n,) or the rows of points (k, n), as a float array
    of `shape` (None: any). DimensionError when value is ragged, has more
    than two axes or is of another shape, ArgumentError naming `label`
    when an entry is not a real number by finite_number's rule, or not
    finite when `finite`. A float64 ndarray is returned as it is."""
    if type(value) is not np.ndarray or value.dtype != _FLOAT:
        ragged = DimensionError(f"{label} has ragged rows")
        try:
            grid = np.array(value, dtype=object)
        except ValueError:  # arrays whose shapes do not stack
            raise ragged from None
        if grid.ndim > 2:  # before .flat, which takes at most 32 axes
            raise DimensionError(f"{label} has shape {grid.shape}, expected "
                                 f"{shape or 'at most two axes'}")
        reals = [_real(entry) for entry in grid.flat]
        if None in reals:
            entry = grid.flat[reals.index(None)]
            if isinstance(entry, (list, tuple)) or np.ndim(entry):
                raise ragged
            raise ArgumentError(
                f"{label} entries must be numbers, got {entry!r}")
        value = np.array(reals).reshape(grid.shape)
    if value.shape != shape and shape is not None:
        raise DimensionError(
            f"{label} has shape {value.shape}, expected {shape}")
    if finite and not np.isfinite(value).all():
        raise ArgumentError(f"{label} entries must be finite numbers, got "
                            f"{value.tolist()!r}")
    return value


def family(fields, weights=None, points=None, times=None):
    """(n, points, times) of a family of k >= 1 fields of one dimension n,
    checked against the k weights, the (k, n) points and the k times that
    are given: points as a float array (see `point_array`) and times as a
    list of finite floats, each None when not given. DimensionError or
    ArgumentError otherwise."""
    if len(fields) < 1:
        raise DimensionError("need at least one field")
    k, n = len(fields), fields[0].dimension
    for j, f in enumerate(fields):
        if f.dimension != n:
            raise DimensionError(
                f"field {j + 1} has dimension {f.dimension}, expected {n}")
    if weights is not None and len(weights) != k:
        raise DimensionError(f"{len(weights)} weights for {k} fields")
    if points is not None:
        points = point_array(points, (k, n), "points")
    if times is not None:
        times = [finite_number(t, "time") for t in times]
        if len(times) != k:
            raise DimensionError(f"{len(times)} times for {k} fields")
    return n, points, times


def leg_times(delta, weights) -> tuple:
    """The leg times delta*m_j of a cycle of total time delta, as every
    solve forms them; `verify` compares a record's with them exactly."""
    return tuple(delta * m for m in weights)
