"""Secure and private source coding: rate regions, channel orderings, the
Gaussian closed form, and a desk-scale random-binning codec simulator."""

from .probability import (
    JointPmf,
    ModelError,
    DimensionError,
    Pmf,
    SourceModel,
    StochasticMatrix,
    bsc,
    build_joint,
)
from .regions import (
    AuxScheme,
    DistortionMetric,
    InfeasibleTargetError,
    RateTuple,
    RegimeReport,
    SearchConfig,
    TracePoint,
    convexify_trace,
    corollary_point,
    extend_with_auxiliaries,
    grid_minimum_storage,
    lossless_point,
    lossy_point,
    optimal_reconstruction,
    r_prime,
    reconstruction_distortion,
    trace_region,
)
from .channels import (
    DegradednessCertificate,
    LessNoisyVerdict,
    check_stochastic_degraded,
    less_noisy_falsify,
)
from .gaussian import (
    GaussianModel,
    discretize,
    gaussian_mmse_check,
    gaussian_point,
    gaussian_trace,
)
from .binning import (
    BinningCode,
    BinningRates,
    Message,
    SimulationReport,
    decode,
    design_code,
    encode,
    exact_leakage,
    message_source_mutual_information,
    padded_indices_mutual_information,
    run_experiment,
)

__version__ = "0.1.0"
