"""Sparse sensor-array design and analysis toolkit.

Builds and analyzes integer sparse arrays through their difference
coarrays: fractal expansions of small generators, weight/beampattern and
robustness metrics, mutual-coupling leakage, an exhaustive minimum-sensor
design search, standard baseline geometries and Monte-Carlo DOA evaluation
with coarray MUSIC.
"""

from .core import (
    ArrayFormatError,
    CoarrayProfile,
    SensorArray,
    difference_coarray,
    dump_array,
    is_symmetric,
    load_array,
    parse_array,
    reversed_array,
)
from .fractal import cantor, expand
from .analysis import (
    Beampattern,
    EconomyReport,
    beampattern,
    economy,
    fractal_weight,
    product_beampattern,
)
from .coupling import (
    CouplingModel,
    coupling_matrix,
    leakage_from_profile,
    verify_leakage_preservation,
)
from .baselines import BaselineSpec, build_baseline, coprime, mha, mra, nested, ula
from .search import (
    APERTURE_GUARD,
    DesignConstraints,
    FeasibilityReport,
    SearchResult,
    check_constraints,
    solve_p1,
)
from .doa import (
    FAILURE_CAUSES,
    EstimationFailure,
    IdentifiabilityError,
    Scenario,
    SweepPoint,
    SweepResult,
    coarray_music,
    coarray_statistics,
    equally_spaced_thetas,
    run_sweep,
    run_trial,
    synthesize,
    trial_seed,
)

__version__ = "0.1.0"
