"""Winding numbers of prime geodesics on the modular orbifold.

Exact Rademacher/Dedekind symbols on SL(2,Z) by several independent routes,
enumeration of all oriented primitive closed geodesics up to a length bound,
numerical winding indices of the discriminant form, and the counting
statistics of the winding numbers.
"""

from .errors import (
    CapExceeded,
    DomainError,
    InsufficientData,
    ModwindError,
    NotHyperbolic,
    NotPrimitive,
    QuadratureFailure,
    ResourceError,
)
from .geodesics import (
    CyclicWord,
    EnumerationConfig,
    GeodesicRecord,
    canonical_form,
    enumerate_by_trace,
    enumerate_geodesics,
    is_primitive,
    li,
    matrix_to_word,
    trace_cap_for_length,
    word_to_matrix,
)
from .matrices import (
    IDENTITY,
    Mat2,
    S,
    T,
    dedekind_sum,
    geodesic_length,
    omega,
    sign0,
)
from .rademacher import (
    chi_r,
    phi_closed,
    phi_word,
    psi,
    psi_cf,
    psi_cocycle,
    s_symbol,
)
from .stats import (
    DistributionReport,
    TwistedSumReport,
    WindingHistogram,
    cauchy_compare,
    density_table,
    equidistribution,
    limiting_density,
    twisted_sum,
    twisted_sums,
    winding_histogram,
)
from .verify import run_all
from .winding import (
    WindingResult,
    axis_point,
    delta_eval,
    e2_completed,
    e2_period,
    winding_index,
)

__version__ = "0.1.0"
