"""Localize differences between two penalized-spline smooths with simultaneous
TDP lower bounds, plus the simulation and matrix diagnostics around the method."""

from .basis import (
    BasisSpec,
    DesignMatrix,
    PenaltyMatrix,
    design_matrix,
    difference_penalty,
    make_basis,
)
from .errors import DomainError, NumericalError, ParameterError
from .fitting import (
    StratumData,
    StratumFit,
    select_lambda,
)
from .simulate import (
    SimOutcome,
    SimScenario,
    clumped_indices,
    gen_coefficients,
    gen_stratum,
    run_replicate,
    run_scenario,
)
from .tdp import (
    PValueFamily,
    TdpReport,
    phi_alpha,
    threshold_regions,
)
from .toeplitz import (
    DecayDiagnostics,
    PentaParams,
    TridiagFactor,
    cov_quadratic_forms,
    diagnose_pentadiagonal,
)
from .windows import (
    SlidingInverses,
    WindowTestSeries,
    sliding_inverses,
    window_stat_correlation,
    window_statistics,
)

__version__ = "0.1.0"
