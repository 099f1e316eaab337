"""Spectral-edge toolkit for signal-plus-noise matrices.

Deterministic edge data (Stieltjes transform, edge location, Tracy-Widom
scaling constant), the type-1 Tracy-Widom law, and Monte Carlo verification
of the rescaled largest-eigenvalue convergence.
"""

__version__ = "0.1.0"

from .edge import EdgeSolution, edge_residuals, find_edge, gamma0, phi_family, solve_edge
from .errors import (
    DegenerateScalingError,
    EdgeNotFoundError,
    InvalidArgumentError,
    InvalidConfigError,
    NumericError,
    PoleError,
    SolverFailureError,
    SpectralEdgeError,
)
from .flow import FlowState, analytic_derivatives, flow_derivative_check, flow_derivative_checks, flow_state
from .identities import EdgeFunctionals, edge_functionals, identity_residuals
from .locallaw import LocalLawReport, build_linearization, locallaw_deviation, rigidity_scan
from .montecarlo import EnsembleResult, ks_distance, largest_eigenvalue, run_ensemble, sample_matrix
from .spectrum import SpectrumModel, load_spectrum, with_size
from .stieltjes import StieltjesValue, density, solve_stieltjes
from .tracywidom import f1_cdf, f1_pdf, tw_table

__all__ = [
    "__version__",
    "SpectrumModel", "load_spectrum", "with_size",
    "StieltjesValue", "solve_stieltjes", "density",
    "EdgeSolution", "phi_family", "find_edge", "gamma0", "solve_edge", "edge_residuals",
    "FlowState", "flow_state", "flow_derivative_check", "flow_derivative_checks", "analytic_derivatives",
    "EdgeFunctionals", "edge_functionals", "identity_residuals",
    "f1_cdf", "f1_pdf", "tw_table",
    "EnsembleResult", "sample_matrix", "largest_eigenvalue", "run_ensemble", "ks_distance",
    "LocalLawReport", "build_linearization", "locallaw_deviation", "rigidity_scan",
    "SpectralEdgeError", "InvalidConfigError", "InvalidArgumentError",
    "PoleError", "SolverFailureError", "EdgeNotFoundError", "DegenerateScalingError",
    "NumericError",
]
