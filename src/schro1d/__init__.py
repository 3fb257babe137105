"""Numerical verification toolkit for eigenfunction estimates of
one-dimensional Schrodinger operators with piecewise-constant potentials."""

__version__ = "0.1.0"

from .constants import EstimateConstants, constants_for, energy_of
from .errors import (
    ConfigError,
    DegenerateConstants,
    GridTooCoarse,
    InadmissibleWeight,
    NoEligiblePoints,
    NotRealSolution,
    OverflowAtX,
    PreconditionFailed,
    Schro1dError,
    TraceTooShort,
)
from .potential import PiecewisePotential, WindowIntegralProfile, c1_sup
from .solver import (
    InitialData,
    SolutionTrace,
    TransferMatrix,
    propagate_exact,
    transfer_matrix,
)
from .spectral import (
    PruferTrace,
    SimonStolzCurve,
    operator_norm_2x2,
    prufer_decompose,
    simon_stolz_curve,
)
from .verifier import (
    CheckOutcome,
    WeightSpec,
    analytic_trace,
    check_decay,
    check_derivative_bound,
    check_derivative_lp,
    check_local_lp,
    check_persistence,
    check_weighted,
    sample_lemma31,
)
from .harness import (
    Scenario,
    SuiteReport,
    default_suite_path,
    make_family,
    parse_potential,
    parse_scenario,
    random_sweep,
    run_scenario,
    run_scenarios,
    run_suite,
    sweep_document,
    sweep_scenarios,
)
