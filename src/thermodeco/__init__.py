"""thermodeco: fluctuating heat diffusion, influence action, and mode decoherence.

A numpy-based toolkit that evolves temperature-perturbation Fourier modes
under noise-balanced Langevin dynamics, verifies the fluctuation-dissipation
predictions statistically, evaluates the influence action on pairs of
thermal histories, and computes per-mode decoherence exponents showing that
long-wavelength (nearly conserved) modes decohere most efficiently.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatchError,
    GridMismatchError,
    InsufficientDataError,
    NonHermitianError,
    SingularModeError,
)
from .medium import (
    LatticeField,
    MediumParams,
    coupling_constant,
    equilibrium_mode_variance,
    free_energy_change,
    free_energy_hessian,
    noise_strength,
    relaxation_rate,
)
from .langevin import (
    METHOD_EULER,
    METHOD_EXACT,
    SAMPLE_EQUILIBRIUM,
    ModeHistory,
    NoiseStream,
    SimConfig,
    deterministic_decay,
    drift_residual,
    simulate_ensemble,
    simulate_mode,
    step_euler_maruyama,
    step_exact_ou,
)
from .stats import (
    AcfEstimate,
    EnsembleStats,
    autocorrelation,
    fit_exponential_rate,
    sample_variance,
    variance_stderr_correlated,
)
from .fieldspace import (
    SpectralField,
    from_modes,
    mean_free_energy,
    parseval_check,
    sample_equilibrium_field,
    to_modes,
    total_energy_change,
    total_energy_fluctuation,
)
from .influence import (
    DECO_DTYPE,
    DecoherenceResult,
    HistoryPair,
    InfluenceValue,
    antisymmetry_residual,
    decoherence_exponent,
    decoherence_scan,
    dissipation_kernel_apply,
    influence_action,
    noise_kernel_amplitude,
    static_free_energy_identity,
)
