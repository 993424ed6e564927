"""kcycle: stasis points and switching cycles of weighted vector fields.

Given k smooth vector fields on R^n, this package locates points where a
strictly positive probability weighting of the fields vanishes, certifies
that the matching weighting of the field Jacobians is non-singular, and
numerically continues the family of short switching cycles that such a
regular point carries: point tuples x_1..x_k closed up by flowing each
x_j along field j for time delta*m_j.
"""

from .errors import (ArgumentError, BoundaryWeightError, BranchLostError,
                     ClosureError, DimensionError, DomainError, DslError,
                     FlowDomainError, InfeasibleWeightsError, InputError,
                     KcycleError, NewtonDivergenceError, RecordError,
                     ScenarioError, SingularJacobianError, SolverError,
                     StepLimitError)
from .expr import (VectorField, eval_field, jacobian_field, parse_field,
                   unparse_field)
from .flow import FlowResult, IntegratorConfig, flow_endpoint, integrate_flow
from .stasis import (RegularityReport, StasisPoint, Weights,
                     check_regularity, find_stasis, find_weights,
                     stasis_residual, weight_hull_dimension,
                     weighted_jacobian)
from .cycle import (CycleCheck, CyclePoints, KCycle, SweepRecord,
                    SweepResult, average_velocity, cycle_jacobian,
                    cycle_residual, loglog_slope, solve_cycle, sweep_delta,
                    verify_cycle)
from .scenario import (Scenario, SweepSpec, load_scenario,
                       random_linear_scenario, random_nonlinear_scenario,
                       scenario_from_dict, scenario_to_dict)

__version__ = "0.1.0"

__all__ = [
    "ArgumentError", "BoundaryWeightError", "BranchLostError", "ClosureError",
    "CycleCheck", "CyclePoints", "DimensionError", "DomainError", "DslError",
    "FlowDomainError", "FlowResult", "InfeasibleWeightsError", "InputError",
    "IntegratorConfig", "KCycle", "KcycleError", "NewtonDivergenceError",
    "RecordError", "RegularityReport", "Scenario", "ScenarioError",
    "SingularJacobianError", "SolverError", "StasisPoint", "StepLimitError",
    "SweepRecord", "SweepResult", "SweepSpec", "VectorField", "Weights",
    "average_velocity", "check_regularity", "cycle_jacobian", "cycle_residual",
    "eval_field", "find_stasis", "find_weights", "flow_endpoint",
    "integrate_flow", "jacobian_field", "load_scenario", "loglog_slope",
    "parse_field", "random_linear_scenario", "random_nonlinear_scenario",
    "scenario_from_dict", "scenario_to_dict", "solve_cycle",
    "stasis_residual", "sweep_delta", "unparse_field", "verify_cycle",
    "weight_hull_dimension", "weighted_jacobian",
]
