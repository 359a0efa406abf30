"""Numerical laboratory for semilinear Klein-Gordon fields on FLRW backgrounds.

The package is organized around one pipeline: describe a cosmological
background (``cosmology``), compute the blow-up threshold quantities and
admissible exponent ranges for it (``thresholds``), integrate the extremal
comparison ODE (``comparison_ode``) or the full radial PDE
(``field_solver``), and verify the cutoff-based scaling machinery behind
the nonexistence argument (``testfn``).  ``cli`` and ``config`` expose the
same capabilities as a command line tool with CSV persistence.
"""

from .cosmology import (
    Background,
    ConeData,
    CosmologyParams,
    Regime,
    classify_regime,
    cone_radius,
    curved_mass_sq,
    horizon_time,
    scale_factor,
)
from .thresholds import (
    InitialDataSummary,
    ThresholdReport,
    admissible_p_range,
    check_hypotheses,
    compare_prior_conditions,
    critical_exponent_p0,
    damping_rate_N,
    threshold_S,
)
from .comparison_ode import OdeProblem, Trajectory, integrate_comparison
from .field_solver import FieldState, Diagnostics, init_field, run_until
from .testfn import build_cutoff, hypothesis_13_14, weak_identity_residual

__version__ = "0.1.0"
