"""Entropy-based detection of quantum memory in open-system dynamics.

Given two snapshots of a reduced dynamics, the witness certifies (from
the reduced maps alone) when no classical-memory mechanism can realize
the pair. The package covers finite-dimensional qudit models driven by a
damped memory qubit as well as single-mode Gaussian dynamics, and ships
a CLI that exports the standard parameter studies as data files.

All entropies are natural-log (nats); Gaussian machinery uses hbar = 1
with vacuum covariance I/2.
"""

from .errors import (
    AmplitudeVanishingError,
    DomainError,
    ExtremumNotFoundError,
    InvalidChannelError,
    InvalidDimensionError,
    InvalidStateError,
    InvalidSubsystemError,
    QmemError,
    UnphysicalStateError,
)
from .gaussian import (
    DhoAmplitude,
    DhoParams,
    GaussianChannel,
    TwoModeBlocks,
    cp_check,
    delta_S_lossy,
    dho_amplitude,
    dho_channel,
    entropy_gaussian,
    first_loss_reversal,
    h,
    minimize_delta_S_over_r,
)
from .lindblad import (
    ChoiEvolution,
    LindbladModel,
    dense_choi,
    evolve_choi,
)
from .states import (
    CONVENTION_SPIN,
    CONVENTION_TRUNCATED,
    CONVENTIONS,
    DEFAULT_CONVENTION,
    DensityMatrix,
    choi_entropy_arrays,
    entropy_arrays,
    ladder_operators,
    max_entangled_state,
    partial_trace,
    von_neumann_entropy,
)
from .witness import (
    DETECTION_THRESHOLD,
    EntropyTrajectory,
    QuditScanRow,
    QuditWitnessResult,
    WitnessReport,
    evaluate_criterion,
    evaluate_criterion_gaussian,
    find_critical_ratio,
    find_witness_times,
    ordering_check,
    qudit_entropy_trajectory,
    scan_qudit,
    witness_from_trajectory,
    witness_qudit_model,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
