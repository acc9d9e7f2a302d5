"""Entropy-based detection of quantum memory in open-system dynamics.

Given two snapshots of a reduced dynamics, the witness certifies (from
the reduced maps alone) when no classical-memory mechanism can realize
the pair. The package covers finite-dimensional qudit models driven by a
damped memory qubit as well as single-mode Gaussian dynamics, and ships
a CLI that exports the standard parameter studies as data files.

All entropies are natural-log (nats); Gaussian machinery uses hbar = 1
with vacuum covariance I/2.
"""

from types import ModuleType as _ModuleType

from .errors import (
    DomainError,
    ExtremumNotFoundError,
    InvalidStateError,
    QmemError,
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
    CONVENTION_SPIN,
    CONVENTION_TRUNCATED,
    CONVENTIONS,
    DEFAULT_CONVENTION,
    ChoiEvolution,
    LindbladModel,
    dense_choi,
    evolve_choi,
)
from .states import (
    DensityMatrix,
    choi_entropy_arrays,
    entropy_arrays,
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

# the public names, without the submodules the imports above bind
__all__ = [name for name, obj in globals().items()
           if not name.startswith("_") and not isinstance(obj, _ModuleType)]
