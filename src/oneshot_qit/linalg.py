"""Dense Hermitian linear algebra at small dimension (d <= ~64).

Operators are plain complex numpy arrays.  The public routines pull their
inputs through ``as_hermitian``, which symmetrizes and rejects anything
not finite or not (numerically) Hermitian; the private kernels (leading
underscore) take arrays that a caller has already validated.
``as_hermitian`` and ``mat_func`` also take (..., n, n) stacks of
diagonal blocks.  All functions are pure, hold no state, and are safe to
call concurrently.

One threshold rule serves every module: an eigenvalue counts as zero, and
the gap between two adjacent eigenvalues as none, when it is at most
``DEFAULT_CLUSTER_TOL`` times the largest |eigenvalue| of the spectra
compared (``_threshold``).  The rule is relative, so every divergence
keeps its shift identity D(rho||t sigma) = D(rho||sigma) - log2 t.  Input
checks for PSD operators of unit trace use the absolute ``_PSD_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NumericalError

# Eigenvalue-merge tolerance, relative to the spectral radius.  Controls
# spectrum clustering, support detection, and the projector conventions.
DEFAULT_CLUSTER_TOL = 1e-9

# Absolute tolerance of the PSD and unit-trace checks on input states.
_PSD_TOL = 1e-10

_HERMITICITY_TOL = 1e-12
_RECONSTRUCTION_TOL = 1e-10


def as_hermitian(entries) -> np.ndarray:
    """Return the Hermitian part (A + A†)/2 after validating near-symmetry."""
    a = np.asarray(entries, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.size < 1:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix has a non-finite entry")
    a_h = a.conj().swapaxes(-1, -2)
    scale = max(1.0, float(np.max(np.abs(a))))
    asym = float(np.max(np.abs(a - a_h)))
    if asym > _HERMITICITY_TOL * scale:
        raise DomainError(f"matrix is not Hermitian: max asymmetry {asym:.3e}")
    return (a + a_h) / 2


def _threshold(*spectra: np.ndarray) -> float:
    """``DEFAULT_CLUSTER_TOL`` times the largest |eigenvalue| in ``spectra``:
    the zero and equality threshold of every eigenvalue comparison."""
    return DEFAULT_CLUSTER_TOL * max(float(np.max(np.abs(lam))) for lam in spectra)


def _cluster_labels(eigenvalues: np.ndarray) -> np.ndarray:
    """Label ascending eigenvalues (each row of a stack), merging gaps at or
    below the threshold of the whole stack."""
    lam = np.asarray(eigenvalues, dtype=float)
    steps = np.diff(lam, axis=-1) > _threshold(lam)
    head = np.zeros(lam.shape[:-1] + (1,), dtype=int)
    return np.concatenate([head, np.cumsum(steps, axis=-1)], axis=-1)


@dataclass(frozen=True)
class EigenSystem:
    """Spectral decomposition of a Hermitian operator.

    ``eigenvalues`` ascend; column ``eigenvectors[:, i]`` belongs to
    ``eigenvalues[i]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _eigh_checked(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of a (..., n, n) stack of trusted Hermitian arrays.

    Every matrix must reconstruct from its eigenpairs to within
    ``_RECONSTRUCTION_TOL`` * max(1, its spectral radius).
    """
    try:
        lam, v = np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigensolver did not converge: {exc}") from exc
    recon = (v * lam[..., None, :]) @ v.conj().swapaxes(-1, -2)
    residual = np.abs(recon - stack).max(axis=(-2, -1))
    radius = np.abs(lam).max(axis=-1)
    if (residual > _RECONSTRUCTION_TOL * np.maximum(1.0, radius)).any():
        raise NumericalError(
            f"eigendecomposition residual {float(residual.max()):.3e} "
            "exceeds tolerance"
        )
    return lam, v


def eig_herm(a) -> EigenSystem:
    """Eigendecompose a Hermitian operator (ascending eigenvalues)."""
    return EigenSystem(*_eigh_checked(as_hermitian(a)))


def mat_func(a, f: Callable[[float], float], support_only: bool = False) -> np.ndarray:
    """Apply a scalar function to a Hermitian operator through its spectrum.

    With ``support_only`` the function acts on eigenvalues above the
    relative support threshold and the kernel maps to 0 (Moore-Penrose
    style); use it for inverses, logarithms, and negative powers of
    positive semi-definite operators.  A (..., n, n) stack is mapped block
    by block, with the support threshold relative to the whole stack.
    """
    return as_hermitian(_mat_func_raw(as_hermitian(a), f, support_only))


def _mat_func_raw(
    a: np.ndarray, f: Callable[[float], float], support_only: bool = False
) -> np.ndarray:
    """``mat_func`` of a trusted Hermitian array, without re-validation or
    output symmetrization; the residual and finiteness checks still run."""
    return _spectral_func(*_eigh_checked(a), f, support_only)


def _spectral_func(
    lam: np.ndarray,
    v: np.ndarray,
    f: Callable[[float], float],
    support_only: bool = False,
) -> np.ndarray:
    """``_mat_func_raw`` from an eigensystem (lam, v) that ``_eigh_checked``
    already computed, so a caller that needs it twice solves once."""
    out = np.zeros(lam.shape, dtype=float)
    if support_only:
        mask = lam > _threshold(lam)
    else:
        mask = np.ones(lam.shape, dtype=bool)
    try:
        with np.errstate(all="ignore"):
            out[mask] = [float(f(x)) for x in lam[mask]]
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise DomainError(
            f"function undefined on a retained eigenvalue ({exc}); "
            "pass support_only to restrict to the support"
        ) from exc
    if not np.all(np.isfinite(out)):
        raise DomainError(
            "function undefined on a retained eigenvalue; "
            "pass support_only to restrict to the support"
        )
    return (v * out[..., None, :]) @ v.conj().swapaxes(-1, -2)


def positive_part_trace(a) -> float:
    """Sum of the strictly positive eigenvalues."""
    return _positive_part_trace_raw(as_hermitian(a))


def _positive_part_trace_raw(a: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(a)
    return float(np.sum(lam[lam > 0]))


def trace_norm(a) -> float:
    """Schatten-1 norm: the sum of absolute eigenvalues."""
    lam = np.linalg.eigvalsh(as_hermitian(a))
    return float(np.sum(np.abs(lam)))


def pinch(h, l) -> np.ndarray:
    """Erase the blocks of ``l`` that connect distinct eigenvalue clusters of ``h``.

    The result commutes with ``h`` and has the same trace as ``l``.
    """
    h = as_hermitian(h)
    l = as_hermitian(l)
    if h.shape != l.shape:
        raise DomainError(f"dimension mismatch: {h.shape} vs {l.shape}")
    lam, v = _eigh_checked(h)
    labels = _cluster_labels(lam)
    m = v.conj().T @ l @ v
    mask = labels[:, None] == labels[None, :]
    return as_hermitian(v @ (m * mask) @ v.conj().T)


def spec_count(h) -> int:
    """Number of distinct eigenvalue clusters."""
    lam, _ = _eigh_checked(as_hermitian(h))
    return int(_cluster_labels(lam)[-1]) + 1


def quotient(k, l) -> np.ndarray:
    """Two-sided whitening L^{-1/2} K L^{-1/2} of a PSD numerator.

    ``l`` must be positive definite; a singular denominator is rejected
    with a hint to regularize (mix with a multiple of the identity).
    """
    k = as_hermitian(k)
    l = as_hermitian(l)
    if k.shape != l.shape:
        raise DomainError(f"dimension mismatch: {k.shape} vs {l.shape}")
    k_lam = np.linalg.eigvalsh(k)
    if k_lam[0] < -max(_PSD_TOL, _threshold(k_lam)):
        raise DomainError(f"numerator not PSD: min eigenvalue {k_lam[0]:.3e}")
    l_lam = np.linalg.eigvalsh(l)
    if l_lam[0] <= _threshold(l_lam):
        raise DomainError(
            f"denominator is singular (min eigenvalue {l_lam[0]:.3e}); "
            "regularize it, e.g. mix with eps * identity, before dividing"
        )
    inv_sqrt = _mat_func_raw(l, lambda x: x ** -0.5)
    return as_hermitian(inv_sqrt @ k @ inv_sqrt)


def projector_leq(a, b) -> np.ndarray:
    """Spectral projector for the event {a <= b}.

    Non-strict convention: eigenvectors of b - a with eigenvalue at or
    above minus the threshold are retained; the complement realizes {a > b}.
    """
    lam, v = _eigh_checked(as_hermitian(b) - as_hermitian(a))
    cols = v[:, lam >= -_threshold(lam)]
    return cols @ cols.conj().T

