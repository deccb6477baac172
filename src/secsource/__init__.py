"""Secure and private source coding: rate regions, channel orderings, the
Gaussian closed form, and a desk-scale random-binning codec simulator.

``import secsource`` loads no layer (and so no numpy): each public name below
imports its owning module on first access (PEP 562) and is then cached here.
"""

from importlib import import_module

_LAYERS = {
    "probability": "JointPmf ModelError DimensionError Pmf SourceModel StochasticMatrix bsc "
                   "build_joint",
    "regions": "AuxScheme DistortionMetric InfeasibleTargetError RateTuple RegimeReport "
               "SearchConfig TracePoint corollary_point extend_with_auxiliaries "
               "grid_minimum_storage lossless_point lossy_point optimal_reconstruction r_prime "
               "trace_region",
    "channels": "DegradednessCertificate LessNoisyVerdict check_stochastic_degraded "
                "less_noisy_falsify",
    "gaussian": "GaussianModel discretize gaussian_mmse_check gaussian_point gaussian_trace",
    "binning": "BinningCode BinningRates Message SimulationReport decode design_code encode "
               "exact_leakage padded_indices_mutual_information run_experiment",
}
_OWNER = {name: module for module, names in _LAYERS.items() for name in names.split()}
__all__ = list(_OWNER)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
