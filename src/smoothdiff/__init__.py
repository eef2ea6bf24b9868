"""Localize differences between two penalized-spline smooths with simultaneous
TDP lower bounds, plus the simulation and matrix diagnostics around the method."""

from .basis import (
    BasisSpec,
    DesignMatrix,
    PenaltyMatrix,
    design_matrix,
    difference_penalty,
    eval_basis,
    make_basis,
)
from .errors import DomainError, NumericalError, ParameterError
from .fitting import (
    StratumData,
    StratumFit,
    fit_stratum,
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
    closed_testing_oracle,
    phi_alpha,
    simes_test,
    threshold_regions,
)
from .toeplitz import (
    DecayDiagnostics,
    PentaParams,
    TridiagFactor,
    build_pentadiagonal,
    cov_quadratic_forms,
    decay_rate,
    factor_pentadiagonal,
)
from .windows import (
    SlidingInverses,
    WindowTestSeries,
    sliding_inverses,
    window_stat_correlation,
    window_statistics,
)

__version__ = "0.1.0"
