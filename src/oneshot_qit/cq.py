"""Classical-quantum states, hash-family and codebook descriptors, state-file
I/O, and exact type-class spectra of i.i.d. classical pairs.

A classical-quantum state couples a distribution ``p`` over a finite
alphabet to one density operator per symbol.  The JSON state-file format
accepted by :func:`load_state` is::

    {
      "alphabet_size": 2,
      "dim_b": 2,
      "p": [0.5, 0.5],
      "rhos": [[[[re, im], ...], ...], ...]
    }

where ``rhos[x][i][j]`` is entry (i, j) of the x-th density operator.
Writers must emit Hermitian data; the reader symmetrizes and validates.
Probabilities are renormalized when their sum is within 1e-9 of 1 and
rejected otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError
from .linalg import as_hermitian

_PSD_TOL = 1e-10
_PROB_SUM_TOL = 1e-9

# Feasibility caps for exhaustive enumeration and type-class generation;
# the type-class cap counts entries, classes x alphabet size.
ENUMERATION_CAP = 2_000_000
TYPE_CLASS_CAP = 5_000_000


@dataclass(frozen=True)
class CQState:
    """Distribution ``p`` over an alphabet plus one density operator per symbol.

    ``rhos`` has shape (alphabet_size, dim_b, dim_b).  Instances are
    validated and frozen at construction; treat the arrays as read-only.
    """

    p: np.ndarray
    rhos: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise DomainError("p must be a non-empty probability vector")
        if np.any(p < -1e-12):
            raise DomainError(f"negative probability {p.min():.3e}")
        p = np.clip(p, 0.0, None)
        total = float(p.sum())
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise DomainError(f"probability sum {total} is off by more than 1e-9")
        p = p / total

        rhos = np.asarray(self.rhos, dtype=complex)
        if rhos.ndim != 3 or rhos.shape[0] != p.size:
            raise DomainError(
                f"rhos must have shape (alphabet, d, d); got {rhos.shape}"
            )
        blocks = as_hermitian(rhos)
        lam_min = np.linalg.eigvalsh(blocks)[:, 0]
        traces = np.trace(blocks, axis1=1, axis2=2).real
        bad = np.flatnonzero((lam_min < -_PSD_TOL) | (np.abs(traces - 1.0) > _PSD_TOL))
        if bad.size:
            x = bad[0]
            if lam_min[x] < -_PSD_TOL:
                raise DomainError(
                    f"block {x} is not PSD: eigenvalue {lam_min[x]:.3e}"
                )
            raise DomainError(f"block {x} has trace {traces[x]}, expected 1")

        p.setflags(write=False)
        blocks.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rhos", blocks)

    @property
    def alphabet_size(self) -> int:
        return self.p.size

    @property
    def dim_b(self) -> int:
        return self.rhos.shape[-1]

    def marginal(self) -> np.ndarray:
        """Average output operator sum_x p(x) rho^x."""
        return as_hermitian(np.tensordot(self.p, self.rhos, axes=1))


@dataclass(frozen=True)
class JointEmbedding:
    """The block-diagonal operators derived from a CQState.

    Each is an (alphabet_size, d, d) stack of diagonal blocks indexed by
    the classical symbol: ``rho_xb`` holds p(x) * rho^x,
    ``rho_x_tensor_rho_b`` holds p(x) * rho_b, and ``one_x_tensor_rho_b``
    holds rho_b in every block (a read-only view).
    """

    rho_xb: np.ndarray
    rho_x_tensor_rho_b: np.ndarray
    one_x_tensor_rho_b: np.ndarray
    rho_b: np.ndarray


def joint_embed(state: CQState) -> JointEmbedding:
    """The joint operator and its two product references, as block stacks."""
    rho_b = state.marginal()
    weights = state.p[:, None, None]
    return JointEmbedding(
        weights * state.rhos,
        weights * rho_b,
        np.broadcast_to(rho_b, state.rhos.shape),
        rho_b,
    )


def regularize(state: CQState, eps: float) -> CQState:
    """Mix every block with the maximally mixed operator.

    Each block becomes (1 - eps) rho^x + eps * I / d, so all block
    eigenvalues are at least eps / d; ``p`` is unchanged.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    d = state.dim_b
    eye = np.eye(d, dtype=complex)
    blocks = (1.0 - eps) * state.rhos + (eps / d) * eye
    return CQState(state.p.copy(), blocks)


# ---------------------------------------------------------------------------
# Hash-family and codebook descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HashFamily:
    """The uniform random-function family h: [domain] -> [range].

    All range**domain function tables are equiprobable, which makes the
    outputs on any two distinct inputs uniform and pairwise independent.
    ``kind`` records whether estimates came from full enumeration or
    from sampled tables.
    """

    domain_size: int
    range_size: int
    kind: str  # "exhaustive-uniform-function" | "sampled-uniform-function"

    def __post_init__(self):
        if self.domain_size < 1 or self.range_size < 1:
            raise DomainError("hash family sizes must be positive")
        if self.kind not in ("exhaustive-uniform-function", "sampled-uniform-function"):
            raise DomainError(f"unknown hash family kind {self.kind!r}")

    @property
    def table_count(self) -> int:
        return self.range_size ** self.domain_size


@dataclass(frozen=True)
class Codebook:
    """An ordered list of codeword symbols (repetition allowed)."""

    codewords: np.ndarray
    alphabet_size: int

    def __post_init__(self):
        words = np.asarray(self.codewords, dtype=np.int64)
        if words.ndim != 1 or words.size < 1:
            raise DomainError("codebook must be a non-empty index vector")
        if words.min() < 0 or words.max() >= self.alphabet_size:
            raise DomainError("codeword index out of range")
        words.setflags(write=False)
        object.__setattr__(self, "codewords", words)

    @property
    def size(self) -> int:
        return self.codewords.size


def codebook_state(state: CQState, codebook: Codebook) -> np.ndarray:
    """Uniform average of the blocks selected by a codebook."""
    if codebook.alphabet_size != state.alphabet_size:
        raise DomainError("codebook alphabet does not match the state")
    return as_hermitian(state.rhos[codebook.codewords].mean(axis=0))


# ---------------------------------------------------------------------------
# State-file I/O
# ---------------------------------------------------------------------------

def state_from_document(doc: dict) -> CQState:
    """Validate a parsed state-file document into a CQState."""
    try:
        alphabet = int(doc["alphabet_size"])
        dim_b = int(doc["dim_b"])
        p = np.asarray(doc["p"], dtype=float)
        raw = doc["rhos"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed state document: {exc}") from exc
    if p.size != alphabet:
        raise DomainError(f"p has {p.size} entries but alphabet_size={alphabet}")
    rhos = np.asarray(raw, dtype=float)
    if rhos.shape != (alphabet, dim_b, dim_b, 2):
        raise DomainError(
            "rhos must be [alphabet][dim_b][dim_b][re, im]; "
            f"got shape {rhos.shape}"
        )
    blocks = rhos[..., 0] + 1j * rhos[..., 1]
    return CQState(p, blocks)


def state_to_document(state: CQState) -> dict:
    """Serialize a CQState into the JSON state-file structure."""
    rhos = np.stack([state.rhos.real, state.rhos.imag], axis=-1)
    return {
        "alphabet_size": state.alphabet_size,
        "dim_b": state.dim_b,
        "p": state.p.tolist(),
        "rhos": rhos.tolist(),
    }


def load_state(path) -> CQState:
    """Read and validate a JSON state file."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"state file {path} is not valid JSON: {exc}") from exc
    return state_from_document(doc)


def dump_state(state: CQState, path) -> None:
    """Write a CQState as a JSON state file."""
    Path(path).write_text(json.dumps(state_to_document(state)))


# ---------------------------------------------------------------------------
# Type-class spectra of i.i.d. classical pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypeClassSpectrum:
    """Per-type-class weights of p^(x)n against q^(x)n.

    One entry per type class of length-n strings: ``log_p_mass`` /
    ``log_q_mass`` are natural logs of the total class probabilities
    (``-inf`` allowed under p), ``llr`` is the per-sequence natural
    log-likelihood ratio (constant on the class), ``log_multiplicity``
    is the log of the number of sequences in the class.
    """

    log_p_mass: np.ndarray
    log_q_mass: np.ndarray
    llr: np.ndarray
    log_multiplicity: np.ndarray
    n: int

    @property
    def multiplicity(self) -> np.ndarray:
        return np.exp(self.log_multiplicity)

    def total_p_mass(self) -> float:
        finite = self.log_p_mass[np.isfinite(self.log_p_mass)]
        if finite.size == 0:
            return 0.0
        m = float(finite.max())
        return math.exp(m) * float(math.fsum(np.exp(finite - m)))


def _compositions(n: int, k: int) -> np.ndarray:
    """All length-k tuples of non-negative integers summing to n, in
    lexicographic order."""
    remaining = np.array([n], dtype=np.int64)
    levels = []
    for _ in range(k - 1):
        # each prefix branches into next coordinates 0..remaining
        counts = remaining + 1
        parent = np.repeat(np.arange(remaining.size), counts)
        head = np.arange(parent.size) - (np.cumsum(counts) - counts)[parent]
        remaining = remaining[parent] - head
        levels.append((head, parent))
    columns, index = [remaining], np.arange(remaining.size)
    for head, parent in reversed(levels):
        columns.append(head[index])
        index = parent[index]
    return np.column_stack(columns[::-1])


def _log_likelihood(types: np.ndarray, log_p: np.ndarray) -> np.ndarray:
    """Σ_x t_x log p_x for each type row t, with 0·log 0 = 0.

    A row that uses a symbol of log-probability −inf gets −inf.
    """
    with np.errstate(invalid="ignore"):
        return np.where(types > 0, types * log_p, 0.0).sum(axis=1)


def iid_type_spectrum(p, q, n: int) -> TypeClassSpectrum:
    """Exact per-type-class weights of the n-fold product of (p, q).

    Avoids materializing the k**n outcome space: the returned spectrum
    has one row per type class and carries everything needed to evaluate
    optimal tests at blocklength n.  Requires q > 0 entrywise.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise DomainError("p and q must be 1-D vectors of equal length")
    if np.any(q <= 0):
        raise DomainError("q must be strictly positive entrywise")
    if np.any(p < 0) or abs(p.sum() - 1.0) > _PROB_SUM_TOL:
        raise DomainError("p must be a probability vector")
    if abs(q.sum() - 1.0) > _PROB_SUM_TOL:
        raise DomainError("q must be a probability vector")
    if n < 1 or n > 10_000:
        raise DomainError(f"blocklength n={n} outside [1, 10^4]")
    k = p.size
    count = math.comb(n + k - 1, k - 1)
    if count * k > TYPE_CLASS_CAP:
        raise DomainError(
            f"{count} type classes of {k} entries exceed the cap of "
            f"{TYPE_CLASS_CAP} entries; reduce n or the alphabet size"
        )
    types = _compositions(n, k)

    # log multinomial coefficients via a lookup of log-factorials
    log_fact = np.array([math.lgamma(j + 1) for j in range(n + 1)])
    log_mult = log_fact[n] - log_fact[types].sum(axis=1)

    with np.errstate(divide="ignore"):
        log_p = np.log(p)
        log_q = np.log(q)
    p_contrib = _log_likelihood(types, log_p)
    q_contrib = _log_likelihood(types, log_q)

    return TypeClassSpectrum(
        log_p_mass=log_mult + p_contrib,
        log_q_mass=log_mult + q_contrib,
        llr=p_contrib - q_contrib,
        log_multiplicity=log_mult,
        n=n,
    )
