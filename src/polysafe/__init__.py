"""Data-driven synthesis and verification of safe controllers for
discrete-time nonlinear systems with polyhedral safe sets.

The toolkit collects excitation data from a dictionary-based plant,
parameterizes the closed loop directly through a right inverse of the
data regressor, solves LP feasibility programs that certify one-step
contraction of a polyhedral C-set, and independently verifies the
result by dense grid evaluation and Monte Carlo rollouts.
"""

from .datagen import (
    ExperimentData,
    collect,
    collect_informative,
    identification_rank,
    regressor_rank,
)
from .dynamics import (
    CosM1Term,
    Dictionary,
    Monomial,
    PlantModel,
    SinTerm,
    Trajectory,
)
from .lpcore import LinearProgram, LpOutcome, LpStatus
from .polytope import (
    Box,
    PolyhedralSet,
    enumerate_vertices,
    grid_blocks,
    interval_enclosure,
    sample_points,
)
from .synthesis import (
    Controller,
    SynthesisCertificate,
    baseline_search,
    synthesize_min_remainder,
    synthesize_noiseless,
    synthesize_robust,
)
from .verify import (
    VerificationReport,
    conservatism_report,
    disturbance_offsets,
    grid_reports,
    lumped_disturbance_bounds,
    monte_carlo_invariance,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "Controller",
    "CosM1Term",
    "Dictionary",
    "ExperimentData",
    "LinearProgram",
    "LpOutcome",
    "LpStatus",
    "Monomial",
    "PlantModel",
    "PolyhedralSet",
    "SinTerm",
    "SynthesisCertificate",
    "Trajectory",
    "VerificationReport",
    "baseline_search",
    "collect",
    "collect_informative",
    "conservatism_report",
    "disturbance_offsets",
    "enumerate_vertices",
    "grid_blocks",
    "grid_reports",
    "identification_rank",
    "interval_enclosure",
    "lumped_disturbance_bounds",
    "monte_carlo_invariance",
    "regressor_rank",
    "sample_points",
    "synthesize_min_remainder",
    "synthesize_noiseless",
    "synthesize_robust",
]
