"""Qubit networks of antiferromagnetic rings coupled through a central ring.

The package covers the pipeline end to end: exact diagonalization of the
microscopic rings, extraction of effective two-level couplings, the analytic
single-excitation star model with its closed-form dynamics, the W-state and
block-transfer protocols, and an independent full-space cross-check.
"""
from .errors import (
    AnisotropyDivergenceError,
    ConfigError,
    ConstraintError,
    DimensionCapError,
    GroundDoubletError,
    InfeasibleError,
    RingStarError,
    ValidationError,
)
from .linalg import EigenSystem, hermitian_eigendecompose
from .rings import (
    QubitEncoding,
    RingSpec,
    SiteMatrixElements,
    build_ring_hamiltonian,
    doublet_matrix_elements,
    ground_doublet,
    regauge,
    ring_qubit_encoding,
    ring_qubit_encodings,
)
from .coupling import (
    DeltaTransition,
    EffectivePair,
    Linker,
    SweepRow,
    b_sweep_evaluator,
    effective_coupling,
    find_delta_transitions,
    ring_pair_coupling,
    star_from_rings,
    sweep_anisotropy_ad,
    sweep_anisotropy_b,
)
from .star import (
    StarNetwork,
    analytic_eigensystem,
    basis_state,
    build_effective_hamiltonian,
    propagate,
    uniform_star,
)
from .protocols import (
    FidelityCurve,
    TransferProgram,
    WGenerationPlan,
    apply_phase_correction,
    equal_population_ratio,
    fidelity_curve,
    fluctuation_sweep,
    generation_error,
    make_transfer_program,
    plan_w_from_center,
    plan_w_from_site,
)
from .oracle import (
    CheckResult,
    cross_validate,
    full_space_hamiltonian,
    single_excitation_indices,
)

__version__ = "0.1.0"

__all__ = [
    "AnisotropyDivergenceError",
    "CheckResult",
    "ConfigError",
    "ConstraintError",
    "DeltaTransition",
    "DimensionCapError",
    "EffectivePair",
    "EigenSystem",
    "FidelityCurve",
    "GroundDoubletError",
    "InfeasibleError",
    "Linker",
    "QubitEncoding",
    "RingSpec",
    "RingStarError",
    "SiteMatrixElements",
    "StarNetwork",
    "SweepRow",
    "TransferProgram",
    "ValidationError",
    "WGenerationPlan",
    "analytic_eigensystem",
    "apply_phase_correction",
    "b_sweep_evaluator",
    "basis_state",
    "build_effective_hamiltonian",
    "build_ring_hamiltonian",
    "cross_validate",
    "doublet_matrix_elements",
    "effective_coupling",
    "equal_population_ratio",
    "fidelity_curve",
    "find_delta_transitions",
    "fluctuation_sweep",
    "full_space_hamiltonian",
    "generation_error",
    "ground_doublet",
    "hermitian_eigendecompose",
    "make_transfer_program",
    "plan_w_from_center",
    "plan_w_from_site",
    "propagate",
    "ring_pair_coupling",
    "regauge",
    "ring_qubit_encoding",
    "ring_qubit_encodings",
    "single_excitation_indices",
    "star_from_rings",
    "sweep_anisotropy_ad",
    "sweep_anisotropy_b",
    "uniform_star",
]
