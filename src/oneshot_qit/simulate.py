"""Exact and Monte-Carlo evaluation of the two protocol distances, plus
certified searches for the operational sizes.

Extraction distance: average over uniformly random function tables
h: X -> Z of half the trace distance between the hashed state and the
uniform target.  Covering distance: average over i.i.d. p-distributed
codebooks of half the trace distance between the codebook average and
the marginal.  Trace norms of block-diagonal operators are taken block
by block.

Exact mode never enumerates tables or codebooks.  A uniformly random
function sends each x to a given output block independently with
probability 1/z, and the trace norm adds up over the blocks, so the
extraction average is z times an average over the 2^|X| preimages S of
one block.  The covering average depends on a codebook only through its
type, so it is an average over the C(m+|X|-1, |X|-1) types.  Both go
through one kernel, ``_exact_average``, and the enumeration cap counts
these subsets and types.

Monte-Carlo extraction costs O(|X|) per table plus one eigensolve per
output block with two or more preimages, whatever z is: empty blocks
and single-preimage blocks have closed-form or precomputed distances.
Monte-Carlo covering counts each sampled codebook into its type and
evaluates the types with the kernel exact covering uses, so covering in
both modes goes through ``_row_distances``; a chunk holds a (4096, |X|)
count array.

Determinism: Monte-Carlo draws come from a counter-based generator
keyed by (seed, chunk index) over fixed-size sample chunks, and
per-sample values are aggregated in sample order, so results are
bit-identical for any worker count.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cq import ENUMERATION_CAP, CQState, HashFamily, _log_likelihood
from .errors import DomainError

_CHUNK = 4096
_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class SimulationEstimate:
    """An estimated protocol distance.

    ``half_width`` is a 95% normal-approximation confidence half-width
    (0 in exact mode).  In exact mode ``samples`` is the number of
    function tables (z^|X|) or codebooks (|X|^m) the value averages over,
    not the number of subsets or types the computation enumerates.
    """

    value: float
    method: str  # "exact" | "monte-carlo"
    samples: int
    seed: int
    half_width: float


def uniform_function_family(domain_size: int, range_size: int, method: str) -> HashFamily:
    """Descriptor of the hash family behind an estimate."""
    kind = "exhaustive-uniform-function" if method == "exact" else "sampled-uniform-function"
    return HashFamily(domain_size, range_size, kind)


def _check_run(method: str, workers: int) -> None:
    if method not in ("exact", "mc", "monte-carlo"):
        raise DomainError(f"method must be 'exact' or 'mc', got {method!r}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")


def _distances(stack: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """½‖stack[i] − reference‖₁ for each (d, d) operator of a (batch, d, d) stack."""
    return 0.5 * np.abs(np.linalg.eigvalsh(stack - reference)).sum(axis=1)


def _row_distances(rows: np.ndarray, blocks: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """½‖Σ_x r_x blocks[x] − reference‖₁ for each coefficient row r."""
    return _distances(np.tensordot(rows, blocks, axes=1), reference)


def _hash_values(tables: np.ndarray, weights: np.ndarray, z_size: int,
                 target: np.ndarray, singles: np.ndarray) -> np.ndarray:
    """Evaluate the extraction distance for a batch of function tables.

    Only occupied output blocks cost work.  Each of the z − #outputs
    empty blocks adds ½Tr(target); a block with the single preimage x
    adds ``singles[x]`` = ½‖weights[x] − target‖₁; the blocks with two or
    more preimages are assembled and solved in one stacked eigensolve.
    """
    batch, x_size = tables.shape
    # group each row's inputs by output value: sorted runs are the blocks
    order = np.argsort(tables, axis=1, kind="stable")
    ordered = np.take_along_axis(tables, order, axis=1)
    starts = np.ones((batch, x_size), dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    first = np.flatnonzero(starts)  # flat position of each block's first preimage
    sizes = np.diff(first, append=batch * x_size)
    rows = first // x_size
    preimages = order.ravel()

    empty = z_size - starts.sum(axis=1)
    values = empty * (0.5 * np.trace(target).real)
    single = sizes == 1
    values += np.bincount(rows[single], weights=singles[preimages[first[single]]],
                          minlength=batch)

    first, sizes, rows = first[~single], sizes[~single], rows[~single]
    if first.size:
        acc = weights[preimages[first]]
        for k in range(1, sizes.max()):
            live = sizes > k
            acc[live] += weights[preimages[first[live] + k]]
        values += np.bincount(rows, weights=_distances(acc, target), minlength=batch)
    return values


def _exact_average(rows, weights, blocks: np.ndarray, reference: np.ndarray) -> float:
    """Weighted sum over coefficient rows r of ½‖Σ_x r_x blocks[x] − reference‖₁.

    ``rows`` yields batches of at most ``_CHUNK`` rows, and ``weights``
    maps a batch to the weights of its rows.  The terms are streamed
    into one exactly rounded ``math.fsum``.
    """
    return math.fsum(itertools.chain.from_iterable(
        (weights(batch) * _row_distances(batch, blocks, reference)).tolist()
        for batch in rows
    ))


def _subset_rows(x_size: int):
    """Indicator rows of all subsets of range(x_size), one chunk at a time."""
    bits = np.arange(x_size)
    total = 1 << x_size
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total))
        yield ((idx[:, None] >> bits) & 1).astype(float)


def _type_rows(m: int, x_size: int):
    """All codebook types (counts over range(x_size) summing to m), one
    chunk at a time.

    Stars and bars: each choice of x_size − 1 bar positions among
    m + x_size − 1 slots is one type, whose counts are the gaps between
    consecutive bars.
    """
    slots = m + x_size - 1
    bars = itertools.combinations(range(slots), x_size - 1)
    for batch in iter(lambda: list(itertools.islice(bars, _CHUNK)), []):
        edges = np.pad(np.array(batch, dtype=np.int64), ((0, 0), (1, 1)),
                       constant_values=((0, 0), (-1, slots)))
        yield np.diff(edges, axis=1) - 1


def _run_chunks(n_items: int, workers: int, job) -> np.ndarray:
    """Fill a value array chunk by chunk; chunk boundaries are fixed, so
    the result does not depend on the worker count."""
    values = np.empty(n_items, dtype=float)
    spans = [
        (j, start, min(start + _CHUNK, n_items))
        for j, start in enumerate(range(0, n_items, _CHUNK))
    ]
    workers = min(workers, len(spans))
    if workers == 1:
        for span in spans:
            job(values, *span)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda s: job(values, *s), spans))
    return values


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([seed & _SEED_MASK, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mc_summary(values: np.ndarray) -> tuple[float, float]:
    value = float(np.mean(values))
    if values.size < 2:
        return value, math.inf
    half = 1.96 * float(np.std(values, ddof=1)) / math.sqrt(values.size)
    return value, half


def simulate_pa(state: CQState, z_size: int, method: str = "exact",
                samples: int = 100_000, seed: int = 0,
                workers: int = 1) -> SimulationEstimate:
    """Expected extraction distance for output alphabet size z_size.

    Exact mode averages over all z_size**alphabet function tables as z
    times a weighted sum over the 2**alphabet preimages of one output
    block, a subset S having weight z^-|S| (1-1/z)^(|X|-|S|); it is
    rejected when the subsets exceed the enumeration cap, and it ignores
    ``workers``.  Monte-Carlo mode draws tables uniformly and reports an
    unbiased mean with its confidence half-width.
    """
    if z_size < 1:
        raise DomainError(f"z_size must be >= 1, got {z_size}")
    _check_run(method, workers)
    x_size = state.alphabet_size
    weights = state.p[:, None, None] * state.rhos
    target = state.marginal() / z_size

    if method == "exact":
        if 2 ** x_size > ENUMERATION_CAP:
            raise DomainError(
                f"{2 ** x_size} subsets exceed the enumeration cap "
                f"{ENUMERATION_CAP}; use method='mc'"
            )
        z = float(z_size)

        def subset_weights(rows):
            size = rows.sum(axis=1)
            return z ** (1.0 - size) * (1.0 - 1.0 / z) ** (x_size - size)

        value = _exact_average(_subset_rows(x_size), subset_weights, weights, target)
        return SimulationEstimate(value, "exact", z_size ** x_size, seed, 0.0)

    if samples < 2:
        raise DomainError("monte-carlo needs at least 2 samples")
    singles = _distances(weights, target)

    def job(values, j, start, stop):
        rng = _chunk_rng(seed, j)
        tables = rng.integers(0, z_size, size=(stop - start, x_size), dtype=np.int64)
        values[start:stop] = _hash_values(tables, weights, z_size, target, singles)

    values = _run_chunks(samples, workers, job)
    value, half = _mc_summary(values)
    return SimulationEstimate(value, "monte-carlo", samples, seed, half)


def simulate_covering(state: CQState, m: int, method: str = "exact",
                      samples: int = 100_000, seed: int = 0,
                      workers: int = 1) -> SimulationEstimate:
    """Expected covering distance for codebook size m.

    Exact mode computes the p^(x)m-weighted average over all alphabet**m
    codebooks.  The average depends on a codebook only through its
    symbol histogram, so it is a multinomially weighted sum over the
    C(m+alphabet-1, alphabet-1) types; it is rejected when the types
    exceed the enumeration cap, and it ignores ``workers``.  The
    reported sample count remains the full codebook count.  Monte-Carlo
    mode draws codebooks i.i.d. from p and evaluates each through its
    type, with the same kernel.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    _check_run(method, workers)
    rho_b = state.marginal()
    x_size = state.alphabet_size
    blocks = state.rhos / m

    if method == "exact":
        n_types = math.comb(m + x_size - 1, x_size - 1)
        if n_types > ENUMERATION_CAP:
            raise DomainError(
                f"{n_types} codebook types exceed the enumeration cap "
                f"{ENUMERATION_CAP}; use method='mc'"
            )
        log_fact = np.array([math.lgamma(j + 1) for j in range(m + 1)])
        with np.errstate(divide="ignore"):
            log_p = np.log(state.p)

        def type_weights(counts):
            # a type using a zero-probability symbol gets weight 0
            return np.exp(log_fact[m] - log_fact[counts].sum(axis=1)
                          + _log_likelihood(counts, log_p))

        value = _exact_average(_type_rows(m, x_size), type_weights, blocks, rho_b)
        return SimulationEstimate(value, "exact", x_size ** m, seed, 0.0)

    if samples < 2:
        raise DomainError("monte-carlo needs at least 2 samples")

    def job(values, j, start, stop):
        rng = _chunk_rng(seed, j)
        batch = stop - start
        tables = rng.choice(x_size, size=(batch, m), p=state.p)
        # count each codebook's symbols into a row of its own: its type
        cells = tables + x_size * np.arange(batch)[:, None]
        counts = np.bincount(cells.ravel(), minlength=batch * x_size)
        values[start:stop] = _row_distances(counts.reshape(batch, x_size), blocks, rho_b)

    values = _run_chunks(samples, workers, job)
    value, half = _mc_summary(values)
    return SimulationEstimate(value, "monte-carlo", samples, seed, half)


# ---------------------------------------------------------------------------
# Certified searches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchResult:
    """Outcome of an exact size search.

    ``found`` is the certified size (None when no size up to the cap
    qualifies); ``curve`` lists (size, estimate) for every size tried;
    ``cap_limited`` signals that the certified answer may lie beyond the
    cap (for extraction: the distance at the cap still qualified; for
    covering: nothing qualified).
    """

    found: int | None
    curve: list[tuple[int, SimulationEstimate]]
    cap_limited: bool
    family: HashFamily | None = None


def search_max_extractable(state: CQState, eps: float, z_cap: int) -> SearchResult:
    """Largest output size up to z_cap whose extraction distance stays <= eps.

    Runs in exact mode only: a Monte-Carlo curve cannot certify the
    answer.  The curve costs z_cap * 2**alphabet subset evaluations, and
    a search whose total exceeds the enumeration cap is rejected up
    front.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    if z_cap < 1:
        raise DomainError(f"z_cap must be >= 1, got {z_cap}")
    work = z_cap * 2 ** state.alphabet_size
    if work > ENUMERATION_CAP:
        raise DomainError(
            f"exact enumeration infeasible up to z={z_cap} "
            f"({work} subsets); lower the cap — the "
            "search refuses monte-carlo estimates for certification"
        )
    curve = [(z, simulate_pa(state, z, "exact")) for z in range(1, z_cap + 1)]
    qualifying = [z for z, est in curve if est.value <= eps + 1e-12]
    found = max(qualifying)  # z=1 gives distance 0, so this is never empty
    cap_limited = curve[-1][1].value <= eps + 1e-12
    return SearchResult(
        found, curve, cap_limited,
        family=uniform_function_family(state.alphabet_size, found, "exact"),
    )


def search_min_codebook(state: CQState, eps: float, m_cap: int) -> SearchResult:
    """Smallest codebook size up to m_cap whose covering distance is <= eps.

    Runs in exact mode only.  The curve costs sum_{m<=m_cap}
    C(m+alphabet-1, alphabet-1) = C(m_cap+alphabet, alphabet) type
    evaluations, and a search whose total exceeds the enumeration cap is
    rejected up front.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    if m_cap < 1:
        raise DomainError(f"m_cap must be >= 1, got {m_cap}")
    work = math.comb(m_cap + state.alphabet_size, state.alphabet_size)
    if work > ENUMERATION_CAP:
        raise DomainError(
            f"exact enumeration infeasible up to m={m_cap} "
            f"({work} codebook types); lower the cap — the "
            "search refuses monte-carlo estimates for certification"
        )
    curve = [(m, simulate_covering(state, m, "exact")) for m in range(1, m_cap + 1)]
    qualifying = [m for m, est in curve if est.value <= eps + 1e-12]
    found = min(qualifying) if qualifying else None
    return SearchResult(found, curve, cap_limited=found is None)
