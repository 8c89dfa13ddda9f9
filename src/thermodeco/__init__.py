"""thermodeco: fluctuating heat diffusion, influence action, and mode decoherence.

A numpy-based toolkit that evolves temperature-perturbation Fourier modes
under noise-balanced Langevin dynamics, verifies the fluctuation-dissipation
predictions statistically, evaluates the influence action on pairs of
thermal histories, and computes per-mode decoherence exponents showing that
long-wavelength (nearly conserved) modes decohere most efficiently.

Each exported name loads its submodule on first use (PEP 562), so importing
the package loads no numpy: `python -m thermodeco.cli` runs this file first,
and the command has to set up OpenBLAS before numpy loads.  The spellings of
the stepper and initial-value settings are defined here, so the command
parses and checks its arguments and config file, and prints its usage,
before numpy loads, or without loading it at all.
"""

from importlib import import_module

__version__ = "0.1.0"

# SimConfig's methods and its non-numeric initial value
METHOD_EXACT = "exact-ou"
METHOD_EULER = "euler-maruyama"
SAMPLE_EQUILIBRIUM = "sample-equilibrium"

_EXPORTS = {
    "errors": (
        "DimensionMismatchError",
        "GridMismatchError",
        "InsufficientDataError",
        "NonHermitianError",
        "SingularModeError",
    ),
    "medium": (
        "LatticeField",
        "MediumParams",
        "coupling_constant",
        "equilibrium_mode_variance",
        "free_energy_change",
        "free_energy_hessian",
        "noise_kernel_amplitude",
        "noise_strength",
        "relaxation_rate",
    ),
    "langevin": (
        "NoiseStream",
        "SimConfig",
        "deterministic_decay",
        "drift_residual",
        "simulate_mode",
        "step_euler_maruyama",
        "step_exact_ou",
    ),
    "stats": (
        "EnsembleStats",
        "sample_variance",
        "variance_stderr_correlated",
    ),
    "fieldspace": (
        "from_modes",
        "mean_free_energy",
        "parseval_check",
        "sample_equilibrium_field",
        "to_modes",
        "total_energy_change",
        "total_energy_fluctuation",
    ),
    "influence": (
        "DECO_DTYPE",
        "DecoherenceResult",
        "HistoryPair",
        "antisymmetry_residual",
        "decoherence_exponent",
        "decoherence_scan",
        "dissipation_kernel_apply",
        "influence_action",
        "static_free_energy_identity",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["METHOD_EULER", "METHOD_EXACT", "SAMPLE_EQUILIBRIUM", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
