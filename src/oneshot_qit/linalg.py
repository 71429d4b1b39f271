"""Dense Hermitian linear algebra at small dimension (d <= ~64).

Operators are plain complex numpy arrays.  The public routines pull their
inputs through ``as_hermitian``, which symmetrizes and rejects anything
not finite or not (numerically) Hermitian; the private kernels (leading
underscore) take arrays that a caller has already validated.  Only
``as_hermitian`` takes (..., n, n) stacks of diagonal blocks; the
single-operator routines refuse them.  All functions are pure, hold no
state, and are safe to call concurrently.

One threshold rule serves every module, and only ``_threshold`` reads its
tolerance: an eigenvalue counts as zero, and the gap between two adjacent
eigenvalues as none, when it is at most ``DEFAULT_CLUSTER_TOL`` times the
largest |eigenvalue| of its spectrum, row by row for the spectra of a
stack.  A caller that compares two spectra passes their elementwise
larger magnitudes as one.  The commutation flag of a divergence pair and
the direct bounds' exceedance test compare block by block; the D_s split
of the dual search passes the whole stack's eigenvalues as one spectrum.
The rule is relative, so every divergence keeps its shift identity
D(rho||t sigma) = D(rho||sigma) - log2 t, and a block of small weight
keeps its own support.  PSD and unit-trace input checks use the absolute
``_PSD_TOL``.
"""

from __future__ import annotations

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


def _as_operators(*entries) -> list[np.ndarray]:
    """``as_hermitian`` of each entry, all single (n, n) operators of one
    shape; a stack is refused."""
    ops = [as_hermitian(a) for a in entries]
    for a in ops:
        if a.ndim != 2:
            raise DomainError(f"expected a single (n, n) operator, got shape {a.shape}")
    if len({a.shape for a in ops}) > 1:
        raise DomainError(f"dimension mismatch: {ops[0].shape} vs {ops[-1].shape}")
    return ops


def _threshold(lam: np.ndarray) -> np.ndarray:
    """``DEFAULT_CLUSTER_TOL`` times the largest |eigenvalue| of each row
    (block) of ``lam``, on a trailing axis of length 1: the zero and
    equality threshold of every eigenvalue comparison."""
    return DEFAULT_CLUSTER_TOL * np.abs(lam).max(-1, keepdims=True)


def _cluster_labels(eigenvalues: np.ndarray) -> np.ndarray:
    """Label ascending eigenvalues (each row of a stack), merging gaps at or
    below the threshold of their row."""
    lam = np.asarray(eigenvalues, dtype=float)
    steps = np.diff(lam, axis=-1) > _threshold(lam)
    head = np.zeros(lam.shape[:-1] + (1,), dtype=int)
    return np.concatenate([head, np.cumsum(steps, axis=-1)], axis=-1)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _eigh_checked(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of a (..., n, n) stack of trusted Hermitian arrays.

    Every matrix must reconstruct from its eigenpairs to within
    ``_RECONSTRUCTION_TOL`` * max(1, its spectral radius).
    """
    try:
        lam, v = np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:
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


def _on_support(lam: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The elementwise f of the eigenvalues above ``_threshold(lam)``, of
    their row, and 0 on the kernel (Moore-Penrose style), so that logs and
    negative powers of PSD spectra are defined."""
    out = np.zeros(lam.shape, dtype=float)
    mask = lam > _threshold(lam)
    out[mask] = f(lam[mask])
    return out


def positive_part_trace(a) -> float:
    """Sum of the strictly positive eigenvalues."""
    lam = np.linalg.eigvalsh(as_hermitian(a))
    return float(np.sum(lam[lam > 0]))


def trace_norm(a) -> float:
    """Schatten-1 norm: the sum of absolute eigenvalues."""
    lam = np.linalg.eigvalsh(as_hermitian(a))
    return float(np.sum(np.abs(lam)))


def pinch(h, l) -> np.ndarray:
    """Erase the blocks of ``l`` that connect distinct eigenvalue clusters of ``h``.

    The result commutes with ``h`` and has the same trace as ``l``.
    """
    h, l = _as_operators(h, l)
    lam, v = _eigh_checked(h)
    labels = _cluster_labels(lam)
    m = v.conj().T @ l @ v
    mask = labels[:, None] == labels[None, :]
    return as_hermitian(v @ (m * mask) @ v.conj().T)


def spec_count(h) -> int:
    """Number of distinct eigenvalue clusters."""
    [h] = _as_operators(h)
    lam, _ = _eigh_checked(h)
    return int(_cluster_labels(lam)[-1]) + 1


def quotient(k, l) -> np.ndarray:
    """Two-sided whitening L^{-1/2} K L^{-1/2} of a PSD numerator.

    ``l`` must be positive definite; a singular denominator is rejected
    with a hint to regularize (mix with a multiple of the identity).
    """
    k, l = _as_operators(k, l)
    k_lam = np.linalg.eigvalsh(k)
    if k_lam[0] < -max(_PSD_TOL, _threshold(k_lam)[0]):
        raise DomainError(f"numerator not PSD: min eigenvalue {k_lam[0]:.3e}")
    l_lam, l_v = _eigh_checked(l)
    if l_lam[0] <= _threshold(l_lam)[0]:
        raise DomainError(
            f"denominator is singular (min eigenvalue {l_lam[0]:.3e}); "
            "regularize it, e.g. mix with eps * identity, before dividing"
        )
    inv_sqrt = (l_v * l_lam ** -0.5) @ l_v.conj().T
    return as_hermitian(inv_sqrt @ k @ inv_sqrt)


def projector_leq(a, b) -> np.ndarray:
    """Spectral projector for the event {a <= b}.

    Non-strict convention: eigenvectors of b - a with eigenvalue at or
    above minus the threshold are retained; the complement realizes {a > b}.
    """
    a, b = _as_operators(a, b)
    lam, v = _eigh_checked(b - a)
    cols = v[:, lam >= -_threshold(lam)]
    return cols @ cols.conj().T

