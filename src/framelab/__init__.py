"""framelab: a numerical laboratory for analog coding of sources with
erasures — frame constructions, inverse-energy statistics over erasure
patterns, rate-distortion accounting, spectral limits, and MLIE search."""

__version__ = "0.1.0"

from .frames import (
    Frame,
    DifferenceSet,
    ETFReport,
    FrameError,
    build_bandlimited_dft,
    build_random_iid,
    build_dft_spectrum,
    quadratic_difference_set,
    build_dss,
    build_paley_etf,
    conference_matrix,
    welch_bound,
    verify_etf,
    save_frame,
    load_frame,
)
from .spectral import (
    EigenHistogram,
    gram_eigenvalues,
    inverse_energy,
    eta_from_eigenvalues,
    mp_edges,
    mp_density,
    mp_eta_limit,
    manova_edges,
    manova_density,
    manova_eta_limit,
    eigen_histogram,
    l1_density_distance,
)
from .rd import (
    rdf,
    wiener_distortion,
    wiener_alpha,
    scheme_rate,
    excess_rate,
    excess_rate_highres,
    si_benchmark,
    si_benchmark_finite,
    random_transform_excess,
    optimize_beta,
    high_sdr_asymptote,
    RDPoint,
    gamma_from_db,
    db_from_gamma,
)
from .patterns import (
    PatternGuardError,
    sample_pattern,
    pattern_set,
    IEStats,
    ie_statistics,
    SquareDivergence,
    square_random_divergence,
)
from .coder import SingularPatternError, encoder_matrix, CoderReport, simulate
from .optimize import (
    OptReport,
    project_rows,
    mlie_gradient,
    sampled_mlie,
    local_search,
    verify_local_min,
)
