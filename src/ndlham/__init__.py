"""Spectral certification of pseudo-random regular graphs and exact,
desk-scale verification of the Hamilton-cycle counting identities built on
permanents, 2-factors and rotation."""

from .errors import (
    GenerationTimeout,
    InconsistentTrace,
    InvalidParameters,
    InvariantViolation,
    NdlError,
    NotRegular,
    ParseError,
    TooLarge,
)
from .graph import (
    Graph,
    circulant,
    complete,
    cycle,
    from_edges,
    paley,
    petersen,
    random_regular,
    read_edge_list,
    write_edge_list,
)
from .spectral import NdlCertificate, certify, spectrum
from .mixing import (
    MixingReport,
    verify_mixing,
)
from .permanent import (
    LogBound,
    ZeroOneMatrix,
    adjacency_matrix_of,
    alon_friedland_upper,
    bregman_bound,
    permanent_exact,
    regular_upper,
    vdw_lower,
)
from .factors import (
    FactorHistogram,
    TwoFactor,
    enumerate_two_factors,
    factor_histogram,
    hamilton_count_exact,
    perfect_matching_count,
    phi,
)
from .hamiltonize import RotationTrace, replay, two_factor_to_hamilton
from .experiments import (
    BoundsReport,
    bounds_report,
    janson_expectation_gnm,
    janson_expectation_gnp,
    monte_carlo_gnp,
    theorem_trend,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
