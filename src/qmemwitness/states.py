"""Finite-dimensional state algebra: density matrices and their entropies.

All entropies are in nats (natural logarithm) throughout the package.

Tolerances follow a single policy: Hermiticity is required to 1e-10,
unit trace to 1e-9, and eigenvalues may undershoot zero by at most 1e-9
(eigensolver noise); anything worse, NaN and inf included, is rejected as
an invalid state. `_check_trace` and `_hermitian_spectra` hold these
checks; `DensityMatrix` and `entropy_arrays` both validate through them
(an `evaluate_criterion` snapshot is checked when built and again when its
entropies are taken), and `choi_entropy_arrays` checks the engine's Choi
states at the same tolerances, from their block diagonals and spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, InvalidStateError

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
EIGENVALUE_FLOOR = -1e-9
EIGENVALUE_CLIP = 1e-12


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix with an explicit subsystem split.

    Attributes
    ----------
    data : complex ndarray, shape (n, n)
        Hermitian, positive semidefinite, unit trace (within tolerance).
    dims : tuple of int
        Ordered subsystem dimensions; their product equals n.
    """

    data: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        arr = np.array(self.data, dtype=complex)
        dims = _integer_dims(self.dims)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidStateError(f"expected a square matrix, got shape {arr.shape}")
        if math.prod(dims) != arr.shape[0]:
            raise DomainError(
                f"subsystem dimensions {dims} do not factor a {arr.shape[0]}-dim space"
            )
        _check_trace(arr)
        _hermitian_spectra(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "dims", dims)


def _integer_dims(dims: Sequence) -> tuple[int, ...]:
    """`dims` as ints; DomainError unless every entry is a finite integer >= 1."""
    out = tuple(int(d) if math.isfinite(d) else 0 for d in dims)
    if out != tuple(dims) or min(out, default=1) < 1:
        raise DomainError(f"subsystem dimensions must be integers >= 1, got {tuple(dims)}")
    return out


def _check_entropies(s_sys, s_anc, s_joint) -> None:
    """Non-negativity, Araki-Lieb and subadditivity of entropy arrays; NaN fails."""
    lowest = np.minimum(np.minimum(s_sys, s_anc), s_joint)
    if not np.all(lowest >= -1e-9):
        raise InvalidStateError(f"negative or undefined entropy (min {np.min(lowest):.3e})")
    if not np.all(np.abs(s_sys - s_anc) <= s_joint + 1e-8):
        raise InvalidStateError("triangle (Araki-Lieb) inequality violated")
    if not np.all(s_joint <= s_sys + s_anc + 1e-8):
        raise InvalidStateError("subadditivity violated")


def _check_trace(stack: np.ndarray) -> None:
    """Rejects a matrix, or a stack of them, with non-finite entries or a
    trace off 1 by more than 1e-9."""
    if not np.isfinite(stack).all():
        raise InvalidStateError("matrix has non-finite entries")
    err = np.abs(np.trace(stack, axis1=-2, axis2=-1) - 1.0).max(initial=0.0)
    if not err <= TRACE_TOL:
        raise InvalidStateError(f"trace deviates from 1 by {err:.3e}")


def _hermitian_spectra(stack: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a matrix or a stack of (near-)Hermitian matrices.

    Rejects Hermiticity defects above 1e-10 and eigenvalues below -1e-9;
    the matrices are symmetrized before diagonalizing to absorb roundoff.
    """
    adj = stack.conj().swapaxes(-1, -2)
    herm = np.abs(stack - adj).max(initial=0.0)
    if not herm <= HERMITICITY_TOL:
        raise InvalidStateError(f"not Hermitian: max |A - A^dag| = {herm:.3e}")
    w = np.linalg.eigvalsh((stack + adj) / 2)
    lo = w[..., 0].min(initial=np.inf)
    if lo < EIGENVALUE_FLOOR:
        raise InvalidStateError(f"negative eigenvalue {lo:.3e} below tolerance")
    return w


def _entropies_from_spectra(w: np.ndarray) -> np.ndarray:
    keep = w > EIGENVALUE_CLIP
    return -np.where(keep, w * np.log(np.where(keep, w, 1.0)), 0.0).sum(axis=-1)


def von_neumann_entropy(rho: DensityMatrix | np.ndarray) -> float:
    """-sum_i lam_i ln(lam_i) in nats, with 0 ln 0 := 0.

    Eigenvalues in [-1e-9, 1e-12) are treated as exact zeros; anything
    more negative raises. The matrix is symmetrized before diagonalizing
    to absorb roundoff.
    """
    arr = rho.data if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    return float(_entropies_from_spectra(_hermitian_spectra(arr)))


def entropy_arrays(
    states: np.ndarray, dims: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entropies (s_system, s_ancilla, s_joint) of a stack of bipartite states.

    `states` has shape (T, n, n) with n = dims[0] * dims[1]. The whole
    stack is validated at once, through the checks of `DensityMatrix`:
    Hermiticity, unit trace and the eigenvalue floor for the joint state
    and both marginals, then non-negative entropies, Araki-Lieb and
    subadditivity. The joint eigenvalue floor comes from the spectrum the
    entropy needs, so each time point costs one eigensolve per subsystem.
    """
    arr = np.asarray(states, dtype=complex)
    if len(dims) != 2:
        raise DomainError(f"expected bipartite dims, got {tuple(dims)}")
    dS, dA = _integer_dims(dims)
    if arr.ndim != 3 or arr.shape[1:] != (dS * dA, dS * dA):
        raise DomainError(
            f"state stack shape {arr.shape} incompatible with dims ({dS}, {dA})"
        )
    _check_trace(arr)
    block = arr.reshape(-1, dS, dA, dS, dA)
    s_sys = _entropies_from_spectra(_hermitian_spectra(np.trace(block, axis1=2, axis2=4)))
    s_anc = _entropies_from_spectra(_hermitian_spectra(np.trace(block, axis1=1, axis2=3)))
    s_joint = _entropies_from_spectra(_hermitian_spectra(arr))
    _check_entropies(s_sys, s_anc, s_joint)
    return s_sys, s_anc, s_joint


def choi_entropy_arrays(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`entropy_arrays` for Choi states of trace-preserving, phase-covariant
    maps that never raise the excitation, as real blocks (T, d, d, d) laid
    out as in `lindblad` (lower triangles read); a complex or misshapen
    stack raises DomainError. The marginals are diagonal, so only the
    joint spectrum takes eigensolves: block m at its true size d - m, each
    a strided view stacked over T (no copy), and the 1x1 corner m = d - 1
    read from the diagonal; entries outside the true blocks (the padding)
    are read only for finiteness. Trace and rho_A = I/d are checked at the
    tolerances of `entropy_arrays`.
    """
    arr = np.asarray(blocks)
    d = arr.shape[-1] if arr.ndim == 4 else 0
    if d < 2 or arr.shape[1:] != (d, d, d) or arr.dtype.kind not in "iuf":
        raise DomainError(f"block stack of shape {arr.shape} and dtype {arr.dtype} "
                          "is not real (T, d, d, d)")
    if not np.isfinite(arr).all():
        raise InvalidStateError("matrix has non-finite entries")
    diag = arr.diagonal(axis1=-2, axis2=-1)
    a, i = np.triu_indices(d)
    probs = np.zeros((len(arr), d, d))   # [:, a, i] = <a, i| rho |a, i>, zero for a > i
    probs[:, a, i] = diag[:, i - a, a]
    p_sys, p_anc = probs.sum(axis=-1), probs.sum(axis=1)
    err = np.abs(p_sys.sum(axis=-1) - 1.0).max(initial=0.0)
    if not err <= TRACE_TOL:
        raise InvalidStateError(f"trace deviates from 1 by {err:.3e}")
    err = np.abs(p_anc - 1.0 / d).max(initial=0.0)
    if not err <= TRACE_TOL:
        raise InvalidStateError(f"ancilla marginal deviates from I/d by {err:.3e}")
    spectra = [diag[:, d - 1, :1]]
    for m in range(d - 1):
        spectra.append(np.linalg.eigvalsh(arr[:, m, :d - m, :d - m], UPLO="L"))
    w = np.concatenate(spectra, axis=1)
    lo = min(x.min(initial=np.inf) for x in (p_sys, p_anc, w))
    if lo < EIGENVALUE_FLOOR:
        raise InvalidStateError(f"negative eigenvalue {lo:.3e} below tolerance")
    s_sys, s_anc, s_joint = (_entropies_from_spectra(x) for x in (p_sys, p_anc, w))
    _check_entropies(s_sys, s_anc, s_joint)
    return s_sys, s_anc, s_joint

