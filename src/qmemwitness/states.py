"""Finite-dimensional state algebra: density matrices and their entropies.

All entropies are in nats (natural logarithm) throughout the package.

Tolerances follow a single policy: Hermiticity is required to 1e-10,
unit trace to 1e-9, and eigenvalues may undershoot zero by at most 1e-9
(eigensolver noise); anything worse, NaN and inf included, is rejected as
an invalid state. `_check_trace` and `_hermitian_spectra` hold these
checks; `DensityMatrix` and `entropy_arrays` both validate through them
(an `evaluate_criterion` snapshot is checked when built and again when its
entropies are taken), and `choi_entropy_arrays` checks the engine's Choi
states at the same tolerances: the marginals are the row and column sums
of the d x d population matrix <a, j| rho |a, j> (system a, ancilla j),
and the joint spectrum comes from LAPACK for the blocks larger than 2x2
and from closed forms for the 2x2 block and the 1x1 corner.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, InvalidStateError

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
EIGENVALUE_FLOOR = -1e-9
EIGENVALUE_CLIP = 1e-12


@dataclass(frozen=True, eq=False)   # identity ==: arrays compare elementwise
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
    """Non-negativity, Araki-Lieb and subadditivity of entropy arrays; NaN fails.
    The three tests share one mask; the failed one is named only after a failure."""
    lowest = np.minimum(np.minimum(s_sys, s_anc), s_joint)
    tests = (lowest >= -1e-9, np.abs(s_sys - s_anc) <= s_joint + 1e-8,
             s_joint <= s_sys + s_anc + 1e-8)
    if (tests[0] & tests[1] & tests[2]).all():
        return
    if not tests[0].all():
        raise InvalidStateError(f"negative or undefined entropy (min {np.min(lowest):.3e})")
    if not tests[1].all():
        raise InvalidStateError("triangle (Araki-Lieb) inequality violated")
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


def _entropy_terms(w: np.ndarray) -> np.ndarray:
    """lam ln(lam) for every eigenvalue, 0 where lam <= 1e-12 (0 ln 0 := 0)."""
    keep = w > EIGENVALUE_CLIP
    return np.where(keep, w * np.log(np.where(keep, w, 1.0)), 0.0)


def _entropies_from_spectra(w: np.ndarray) -> np.ndarray:
    return -_entropy_terms(w).sum(axis=-1)


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


@functools.lru_cache(maxsize=None)
def _populations(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, j, flat) over a <= j: <a, j| rho |a, j> sits on block j - a at
    level a, entry `flat` of a state's d^3."""
    a, j = np.triu_indices(d)
    index = a, j, (j - a) * d * d + a * (d + 1)
    for x in index:   # shared by every call at this d
        x.setflags(write=False)
    return index


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sum over axis 0 by halving, with elementwise adds only: the order in
    which a column's terms are added depends on len(x) alone, so a state's
    entropies do not depend on the stack it sits in (numpy's reduction of a
    short axis switches to pairwise order when the stack holds one state)."""
    while len(x) > 1:
        half = len(x) // 2
        s = x[:half] + x[half:2 * half]
        if len(x) % 2:
            s[-1] += x[-1]
        x = s
    return x[0]


def choi_entropy_arrays(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`entropy_arrays` for Choi states of trace-preserving, phase-covariant
    maps that never raise the excitation, as real blocks (T, d, d, d) laid
    out as in `lindblad` (lower triangles read); a complex or misshapen
    stack raises DomainError. The marginals are diagonal: the row and
    column sums of the populations pop[a, j] = <a, j| rho |a, j> (system
    a, ancilla j), block j - a at level a for a <= j and zero below. Only
    the joint spectrum takes eigensolves: block m < d - 2 goes to LAPACK
    at its true size d - m, a strided view stacked over T (no copy); the
    2x2 block d - 2 is solved in closed form, (p + q)/2 -+ hypot((p - q)/2,
    b), and the 1x1 corner d - 1 is read from the diagonal. The padding
    outside the true blocks is read only for finiteness. Trace and
    rho_A = I/d are checked at the tolerances of `entropy_arrays`.
    Marginals, spectrum and entropy terms are laid out one row per
    component over T and summed in a fixed order, so each state's
    entropies are the same whichever stack it is in.
    """
    arr = np.asarray(blocks)
    d = arr.shape[-1] if arr.ndim == 4 else 0
    if d < 2 or arr.shape[1:] != (d, d, d) or arr.dtype.kind not in "iuf":
        raise DomainError(f"block stack of shape {arr.shape} and dtype {arr.dtype} "
                          "is not real (T, d, d, d)")
    if not np.isfinite(arr).all():
        raise InvalidStateError("matrix has non-finite entries")
    n_t = len(arr)
    a, j, flat = _populations(d)
    pop = np.zeros((d, d, n_t))   # np.take: arr[:, j - a, a, a] gathers 2x slower at d = 16
    pop[a, j] = np.take(arr.reshape(n_t, d ** 3), flat, axis=1).T
    # rows: rho_S, rho_A, then the joint spectrum (corner, blocks 0 .. d - 2)
    w = np.empty((2 * d + d * (d + 1) // 2, n_t))
    w[:d] = _row_sums(pop.swapaxes(0, 1))
    w[d:2 * d] = _row_sums(pop)
    err = np.abs(_row_sums(w[:d]) - 1.0).max(initial=0.0)
    if not err <= TRACE_TOL:
        raise InvalidStateError(f"trace deviates from 1 by {err:.3e}")
    err = np.abs(w[d:2 * d] - 1.0 / d).max(initial=0.0)
    if not err <= TRACE_TOL:
        raise InvalidStateError(f"ancilla marginal deviates from I/d by {err:.3e}")
    w[2 * d] = pop[0, d - 1]
    row = 2 * d + 1
    for m in range(d - 2):
        w[row:row + d - m] = np.linalg.eigvalsh(arr[:, m, :d - m, :d - m], UPLO="L").T
        row += d - m
    p, q, b = pop[0, d - 2], pop[1, d - 1], arr[:, d - 2, 1, 0]
    mean, radius = (p + q) / 2, np.hypot((p - q) / 2, b)
    w[-2], w[-1] = mean - radius, mean + radius
    lo = w.min(initial=np.inf)
    if lo < EIGENVALUE_FLOOR:
        raise InvalidStateError(f"negative eigenvalue {lo:.3e} below tolerance")
    terms = _entropy_terms(w)
    s_sys, s_anc = -_row_sums(terms[:2 * d].reshape(2, d, n_t).swapaxes(0, 1))
    s_joint = -_row_sums(terms[2 * d:])
    _check_entropies(s_sys, s_anc, s_joint)
    return s_sys, s_anc, s_joint
