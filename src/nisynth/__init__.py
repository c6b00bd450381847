"""Negative-imaginary analysis, synthesis and robust stabilization."""

__version__ = "0.1.0"

from . import certify, errors, linalg, statespace, structure, synth
from .certify import (
    Certificate,
    Verdict,
    classify_freq,
    verify_certificate,
)
from .linalg import (
    EigenResult,
    StabilityClass,
    definiteness,
    eig,
    pbh_witness,
    rank,
    solve_lyapunov,
    sqrtm_pd,
    stability_class,
)
from .statespace import (
    StateSpace,
    Trajectory,
    UncertainSystem,
    eval_tf,
    interconnect_positive_feedback,
    is_minimal,
    load_system,
    simulate,
)
from .structure import (
    NormalForm,
    RdKind,
    RelativeDegreeInfo,
    TransformSet,
    ZeroDynamicsSplit,
    find_output_transformation,
    relative_degree_vector,
    split_zero_dynamics,
    to_normal_form,
)
from .synth import (
    FeedbackLaw,
    GainSet,
    StabilizationResult,
    SynthesisConfig,
    compose_full_gain,
    robust_stabilize,
    synthesize_ni,
    synthesize_osni,
    synthesize_ssni,
)
