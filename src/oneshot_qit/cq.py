"""Classical-quantum states, the hash-family descriptor, state-file I/O,
and exact type-class spectra of i.i.d. classical pairs.

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
rejected otherwise.  :func:`load_state` validates each distinct file
content once per process and hands every later load of the same bytes
the same frozen state.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DomainError
from .linalg import _PSD_TOL, as_hermitian

_PROB_SUM_TOL = 1e-9

# Feasibility caps for exhaustive enumeration, Monte-Carlo samples (8
# bytes of per-sample values each) and type-class generation; the
# type-class cap counts entries, classes x alphabet size.
ENUMERATION_CAP = 2_000_000
MC_SAMPLE_CAP = 100_000_000
TYPE_CLASS_CAP = 5_000_000

# Bytes of state arrays that the memo of ``load_state`` may retain
_STATE_MEMO_BYTES = 64 * 2**20


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CQState:
    """Distribution ``p`` over an alphabet plus one density operator per symbol.

    ``rhos`` has shape (alphabet_size, dim_b, dim_b).  Instances are
    validated and frozen at construction, and every array they hold or
    hand out is read-only.  The marginal and the joint embedding are
    derived once per instance, on first use.
    """

    p: np.ndarray
    rhos: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise DomainError("p must be a non-empty probability vector")
        if not np.all(np.isfinite(p)):
            raise DomainError(f"non-finite probability {p[~np.isfinite(p)][0]}")
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
        """Average output operator sum_x p(x) rho^x.

        Computed once per state: every call returns the same read-only
        array.  The blocks were validated at construction, and a convex
        combination of Hermitian blocks is Hermitian, so only the
        Hermitian part is taken, without a check.
        """
        return self._marginal

    @cached_property
    def _marginal(self) -> np.ndarray:
        m = np.tensordot(self.p, self.rhos, axes=1)
        return _read_only((m + m.conj().T) / 2)

    @cached_property
    def _joint_embedding(self) -> JointEmbedding:
        rho_b = self._marginal
        weights = self.p[:, None, None]
        return JointEmbedding(
            _read_only(weights * self.rhos),
            _read_only(weights * rho_b),
            np.broadcast_to(rho_b, self.rhos.shape),
            rho_b,
        )


@dataclass(frozen=True)
class JointEmbedding:
    """The block-diagonal operators derived from a CQState.

    Each is an (alphabet_size, d, d) stack of diagonal blocks indexed by
    the classical symbol: ``rho_xb`` holds p(x) * rho^x,
    ``rho_x_tensor_rho_b`` holds p(x) * rho_b, and ``one_x_tensor_rho_b``
    holds rho_b in every block (a view).  All four arrays are read-only.
    """

    rho_xb: np.ndarray
    rho_x_tensor_rho_b: np.ndarray
    one_x_tensor_rho_b: np.ndarray
    rho_b: np.ndarray


def joint_embed(state: CQState) -> JointEmbedding:
    """The joint operator and its two product references, as block stacks.

    Built once per state: every call returns the same embedding, whose
    arrays are read-only and share ``rho_b`` with ``state.marginal()``.
    """
    return state._joint_embedding


# ---------------------------------------------------------------------------
# Hash-family descriptor
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


# ---------------------------------------------------------------------------
# State-file I/O
# ---------------------------------------------------------------------------

def state_from_document(doc: dict) -> CQState:
    """Validate a parsed state-file document into a CQState."""
    try:
        alphabet = _whole("alphabet_size", doc["alphabet_size"], 1)
        dim_b = _whole("dim_b", doc["dim_b"], 1)
        p = np.asarray(doc["p"], dtype=float)
        rhos = np.asarray(doc["rhos"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed state document: {exc}") from exc
    if p.size != alphabet:
        raise DomainError(f"p has {p.size} entries but alphabet_size={alphabet}")
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


def _held_bytes(state: CQState) -> int:
    """Bytes of a state's arrays once its marginal and joint embedding
    are derived: p, rhos, the marginal and two stacks the size of rhos
    (the third embedding stack is a view)."""
    return state.p.nbytes + 3 * state.rhos.nbytes + state.rhos[0].nbytes


class _StateMemo:
    """Validated states keyed by a digest of their file's bytes, evicted
    least recently used first so that their ``_held_bytes`` sum to at
    most ``limit``.  A state larger than ``limit`` is not kept."""

    def __init__(self, limit: int):
        self.limit = limit
        self.held = 0
        self._states: OrderedDict[bytes, tuple[CQState, int]] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: bytes) -> CQState | None:
        with self._lock:
            entry = self._states.get(key)
            if entry is None:
                return None
            self._states.move_to_end(key)
            return entry[0]

    def put(self, key: bytes, state: CQState) -> None:
        size = _held_bytes(state)
        with self._lock:
            if size > self.limit or key in self._states:
                return
            self._states[key] = (state, size)
            self.held += size
            while self.held > self.limit:
                _, (_, evicted) = self._states.popitem(last=False)
                self.held -= evicted

    def clear(self) -> None:
        with self._lock:
            self._states.clear()
            self.held = 0


_STATE_MEMO = _StateMemo(_STATE_MEMO_BYTES)


def load_state(path) -> CQState:
    """Read and validate a JSON state file, once per distinct content.

    The file is read as bytes on every call, so an edit is always seen.
    A state whose bytes were validated before is taken from a process-wide
    memo keyed by the blake2b digest of the bytes: the same bytes, from
    any path, give the same frozen ``CQState``, whose marginal and joint
    embedding are then derived once.  The memo keeps states whose arrays
    (``_held_bytes``) sum to at most ``_STATE_MEMO_BYTES``, evicting the
    least recently loaded; a larger state is validated on every load.
    Errors are never memoised: a file that is not UTF-8 JSON or not a
    valid state raises a ``DomainError`` that names the path, on every
    call.
    """
    data = Path(path).read_bytes()
    key = hashlib.blake2b(data).digest()
    state = _STATE_MEMO.get(key)
    if state is None:
        try:
            doc = json.loads(data.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            # not UTF-8, not JSON, or nested too deep to parse
            raise DomainError(f"state file {path} is not valid JSON: {exc}") from exc
        try:
            state = state_from_document(doc)
        except DomainError as exc:
            raise DomainError(f"state file {path}: {exc}") from exc
        _STATE_MEMO.put(key, state)
    return state


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


def _type_tables(n_max: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The tables behind the types of length n <= n_max over k symbols.

    ``counts[p - 1, u]`` = C(u + p - 1, p - 1) is the number of
    compositions of u into p parts: ``counts[0]`` is all ones and each
    further row is the running sum of the one before.  No entry exceeds
    C(n_max + k - 1, k - 1), the number of types of length n_max, so the
    int64 values are exact for any enumerable type count.
    ``log_fact[j]`` = log j!.
    """
    counts = np.ones((k, n_max + 1), dtype=np.int64)
    for p in range(1, k):
        np.cumsum(counts[p - 1], out=counts[p])
    log_fact = np.array([math.lgamma(j + 1) for j in range(n_max + 1)])
    return counts, log_fact


def _compositions(n: int, counts: np.ndarray, rows: int):
    """All length-k tuples of non-negative integers summing to n, in
    lexicographic order, as int64 chunks of at most ``rows`` rows.

    ``counts`` is the table of ``_type_tables(n_max, k)`` for an
    n_max >= n.  Each row is unranked on its own.  Of the compositions
    of r into p parts, those whose first entry is t take the ranks from
    counts[p-1, r] - counts[p-1, r-t] on, so for a rank j the remainder
    u = r - t is the least u with counts[p-1, u] >= counts[p-1, r] - j:
    one ``searchsorted`` per coordinate for the whole chunk.  With two
    parts left no search is needed: the first of them is the rank and
    the second is the remainder.

    Coordinates that are 0 in every row of a chunk are skipped, so a
    chunk of a large alphabet costs about as many steps as it has rows
    when n is small: the leading ones, because every rank lies below
    the count of compositions of n into fewer parts, and the trailing
    ones, once nothing is left to place.
    """
    k = counts.shape[0]
    total = int(counts[-1, n])
    for start in range(0, total, rows):
        rank = np.arange(start, min(start + rows, total))
        left = np.full(rank.size, n)
        chunk = np.zeros((rank.size, k), dtype=np.int64)
        lead = k - 1 - int(np.searchsorted(counts[:, n], rank[-1], side="right"))
        for i in range(lead, k - 2):
            if not left.any():
                break
            table = counts[k - 1 - i]
            above = table[left] - rank
            rest = np.searchsorted(table, above)
            chunk[:, i] = left - rest
            rank = table[rest] - above
            left = rest
        # with two parts left the rank is the first of them; with one
        # (k = 1) the rank is 0
        if k > 1:
            chunk[:, -2] = rank
        chunk[:, -1] = left - rank
        yield chunk


def _type_log_terms(types: np.ndarray, n: int, log_fact: np.ndarray,
                    log_p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two terms of each type row's multinomial log p-mass.

    For a row t summing to n these are its log multiplicity
    log n! - Σ_x log t_x!, read from ``log_fact`` (log j! for j <= n),
    and its log-likelihood Σ_x t_x log p_x, with 0·log 0 = 0; a row that
    uses a symbol of log-probability -inf gets -inf.  The log p-mass of
    the class is their sum.
    """
    log_mult = log_fact[n] - log_fact[types].sum(axis=1)
    zero = np.isneginf(log_p)
    log_like = types @ np.where(zero, 0.0, log_p)
    if zero.any():
        log_like[(types[:, zero] > 0).any(axis=1)] = -np.inf
    return log_mult, log_like


def _whole(name: str, value, least: int | None = None) -> int:
    """value as an int, refused unless it is an integer other than a bool
    (and >= least)."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value or isinstance(value, (bool, np.bool_)):
        raise DomainError(f"{name}={value!r} is not an integer")
    if least is not None and whole < least:
        raise DomainError(f"{name} must be >= {least}, got {whole}")
    return whole


def _check_pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    """The classical pair as float vectors; q must be strictly positive.
    Every check is one that a NaN entry fails."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise DomainError("p and q must be 1-D vectors of equal length")
    if not np.all(q > 0):
        raise DomainError("q must be strictly positive entrywise")
    if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= _PROB_SUM_TOL):
        raise DomainError("p must be a probability vector")
    if not abs(q.sum() - 1.0) <= _PROB_SUM_TOL:
        raise DomainError("q must be a probability vector")
    return p, q


def _check_blocklength(n, k: int) -> int:
    """n as an int, refused unless it is an integer in [1, 10^4] whose
    type classes over an alphabet of size k fit ``TYPE_CLASS_CAP``."""
    whole = _whole("blocklength n", n)
    if whole < 1 or whole > 10_000:
        raise DomainError(f"blocklength n={whole} outside [1, 10^4]")
    count = math.comb(whole + k - 1, k - 1)
    if count * k > TYPE_CLASS_CAP:
        raise DomainError(
            f"{count} type classes of {k} entries exceed the cap of "
            f"{TYPE_CLASS_CAP} entries; reduce n or the alphabet size"
        )
    return whole


def iid_type_spectrum(p, q, n: int) -> TypeClassSpectrum:
    """Exact per-type-class weights of the n-fold product of (p, q).

    Avoids materializing the k**n outcome space: the returned spectrum
    has one row per type class and carries everything needed to evaluate
    optimal tests at blocklength n.  Requires q > 0 entrywise.  The type
    classes are the rows of ``_compositions``, taken as one chunk, the
    enumerator that exact covering streams in smaller chunks.  Each log
    mass is a sum of k + 1 log-factorials and k log-likelihood terms, so
    its absolute rounding error is a few units in the last place of the
    largest term, log n! or n * |log p_x|: some 1e-11 nats at n = 10^4.
    """
    p, q = _check_pair(p, q)
    n = _check_blocklength(n, p.size)
    counts, log_fact = _type_tables(n, p.size)
    [types] = _compositions(n, counts, int(counts[-1, n]))

    with np.errstate(divide="ignore"):
        log_p = np.log(p)
    log_mult, p_contrib = _type_log_terms(types, n, log_fact, log_p)
    q_contrib = types @ np.log(q)  # q > 0, so no 0·log 0 terms

    return TypeClassSpectrum(
        log_p_mass=log_mult + p_contrib,
        log_q_mass=log_mult + q_contrib,
        llr=p_contrib - q_contrib,
        log_multiplicity=log_mult,
        n=n,
    )
