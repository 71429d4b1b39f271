"""Exact and Monte-Carlo evaluation of the two protocol distances, plus
certified searches for the operational sizes.

Extraction distance: average over uniformly random function tables
h: X -> Z of half the trace distance between the hashed state and the
uniform target.  Covering distance: average over i.i.d. p-distributed
codebooks of half the trace distance between the codebook average and
the marginal.  Every batch of trace norms, exact or Monte-Carlo, goes
through ``_half_norms``, whose one rule reads the block dimension d and
the batch size alone: a closed form for d <= 2, the guarded
characteristic-polynomial closed form (``_charpoly_half_norms``) across
the whole stack for d = 3 or 4 in a batch of at least ``_CHARPOLY_BATCH``
operators, and a stacked ``eigvalsh`` otherwise and for what the guard
flags.  So two batches agree to the bit on an operator when they take
the same kernel, and to about 1e-15 relative when they do not.

Exact mode never enumerates tables or codebooks.  A uniformly random
function sends each x to a given output block independently with
probability 1/z, and the trace norm adds up over the blocks, so the
extraction average is z times an average over the 2^|X| preimages S of
one block.  Its subset sums, formed from the state's ρ_XB, do not
depend on z, so consecutive chunks that need the same subsets reuse
them.  The covering average depends on a codebook only through its
type.  The types of every m <= m_cap are the compositions of m_cap into
|X|+1 parts, the slack m_cap − m first, from ``cq._compositions``, the
enumerator of ``cq.iid_type_spectrum``, weighted by the same type
log-mass helper.  Each protocol has one curve function,
``_extraction_curve`` and ``_covering_curve``, which evaluates a range of
sizes in one streamed pass of ``_exact_curve``: a single exact call is
the curve of one size, a search the curve over 1..cap.  The rows come in
stacked chunks of at most ``_CHUNK`` operators, each one trace-norm
batch, whose terms join one lazy stream; each size is the next run of
its row count, read by ``islice`` into one exactly rounded
``math.fsum``, so memory stays one chunk.  Each curve function counts
the subsets or types it is about to stream, and covering its type-table
columns, and ``_within_cap`` refuses a count beyond ``ENUMERATION_CAP``
before any table, draw or eigensolve, so every exact call and search
refuses with one message.

Monte-Carlo extraction costs O(|X|) per table plus one trace norm per
output block whose preimage set is not in the run's set table, whatever
z is.  An occupied block's distance depends only on its preimage set,
so each call solves, in one batch, the sets it expects to meet: every
single input, and each size k >= 2 that samples·z^(1−k)·(1−1/z)^(|X|−k)
>= 1 expects in at least one block, up to max(4096, |X|) sets, each
size built from the one below in colex order.  A chunk reads every
occupied block through one lookup.  Empty blocks have a closed form.
Both covering modes form a type n of m codewords one way, as
Σ_x (n_x/m)·ρ_x − ρ_B with one ``_contract`` per chunk.  A Monte-Carlo
chunk's codebooks are those ``Generator.choice`` draws from the
chunk's generator: ``_codebook_types`` reads the same uniforms in row
blocks and counts each codebook into its type under choice's inverse-CDF
rule, from each uniform's cell, and ``_type_distances`` finds the
chunk's distinct types with one sort of their exact keys and solves each
once.  A chunk holds a (4096, |X|) float64 count array and one row
block of draws.

Determinism: ``_monte_carlo`` runs the chunks one after another.  Its
draws come from a counter-based generator keyed by (seed, chunk index)
over fixed-size sample chunks, a chunk's kernel depends on its own types
alone, and per-sample values are aggregated in sample order, so a result
depends on (seed, samples) alone.  ``workers`` is validated but changes
neither the value nor the work.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cq import (
    ENUMERATION_CAP,
    MC_SAMPLE_CAP,
    CQState,
    _compositions,
    _type_log_terms,
    _type_tables,
    _whole,
    joint_embed,
)
from .errors import DomainError, _check_eps

_CHUNK = 4096
_CHARPOLY_BATCH = 256  # see _half_norms
_CHARPOLY_K_EPS = 4.0 * np.finfo(float).eps  # the guard of _charpoly_half_norms
_CHARPOLY_BOUND = 3e-14
_TINY = np.finfo(float).tiny
# One row block of Monte-Carlo covering draws.  Freeing a 2 MB block raises glibc's
# dynamic mmap threshold, so later blocks reuse the heap; at 1 << 17 each covering call
# took about 1,500 minor page faults and protocol-mc ran about 24% slower.
_DRAW_BYTES = 1 << 21


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


def _check_run(method: str, samples, seed, workers) -> tuple[int, int]:
    """The run arguments (samples, seed) as ints, validated along with
    ``workers``, which must be at least 1."""
    if method not in ("exact", "mc", "monte-carlo"):
        raise DomainError(f"method must be 'exact' or 'mc', got {method!r}")
    samples, seed = _whole("samples", samples), _whole("seed", seed)
    _whole("workers", workers, 1)
    if not 0 <= seed < 1 << 64:
        raise DomainError(f"seed must be in [0, 2**64), got {seed}")
    if method != "exact" and not 2 <= samples <= MC_SAMPLE_CAP:
        raise DomainError(
            f"monte-carlo needs between 2 and {MC_SAMPLE_CAP} samples, got {samples}")
    return samples, seed


def _half_norms(stack: np.ndarray) -> np.ndarray:
    """½‖stack[i]‖₁ for each Hermitian (d, d) operator of a (batch, d, d)
    stack, by the simulators' one kernel rule, which reads (d, batch) alone.

    Like ``eigvalsh``, every kernel reads only the real diagonal and the
    lower triangle.  Blocks with d <= 2 take a closed form, which avoids
    the per-matrix LAPACK dispatch that dominates at that size.  For d = 1
    the value is ½|a₁₁|.  For d = 2 the eigenvalues are (t ± r)/2 with
    t = a₁₁ + a₂₂ and r = hypot(a₁₁ − a₂₂, 2|a₂₁|), so the trace norm is
    |t| when they share a sign and r when they do not: max(|t|, r).
    Blocks with d = 3 or 4 in a batch of at least ``_CHARPOLY_BATCH`` take
    ``_charpoly_half_norms``, and those its guard flags a stacked
    ``eigvalsh``, which takes a smaller batch or a larger d whole (README
    has the timings).  An operator's value depends on it and its kernel
    only: two batches that take different kernels agree on it to about
    1e-15 relative.
    """
    d = stack.shape[-1]
    if d == 1:
        return 0.5 * np.abs(stack[:, 0, 0].real)
    if d == 2:
        a, c = stack[:, 0, 0].real, stack[:, 1, 1].real
        spread = np.hypot(a - c, 2.0 * np.abs(stack[:, 1, 0]))
        return 0.5 * np.maximum(np.abs(a + c), spread)
    if d > 4 or len(stack) < _CHARPOLY_BATCH:
        return 0.5 * np.abs(np.linalg.eigvalsh(stack)).sum(axis=1)
    norms, flagged = _charpoly_half_norms(stack)
    if flagged.any():
        norms[flagged] = 0.5 * np.abs(np.linalg.eigvalsh(stack[flagged])).sum(axis=1)
    return norms


def _charpoly_half_norms(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """½‖A‖₁ for each Hermitian A of a (batch, d, d) stack, d = 3 or 4,
    in closed form, and a flag per operator where the guard below does not
    trust that value.

    Only the real diagonal and the lower triangle are read.  A is scaled
    by the power of two of its largest |entry|, undone exactly at the end.
    With B = A − tI, t = Tr A/d, the power sums p_k = Tr B^k, k = 2, 3, 4,
    come from B², formed once from the lower triangle.  At d = 3 the
    eigenvalues of B solve λ³ − (p₂/2)λ − p₃/3 by the trigonometric cubic
    (Smith 1961).  At d = 4 the roots of the Ferrari resolvent s³ − p₂s² +
    (p₄ − p₂²/4)s − p₃²/9 are the squared pair sums (λ_i + λ_j)²: the
    largest, s₁, by the same formula, s₂ by Vieta from s₂ + s₃ = p₂ − s₁
    and s₂s₃ = (p₃/3)²/s₁, and √s₃ = (p₃/3)/√(s₁s₂) with its sign, so a
    small root keeps its relative accuracy.  The eigenvalues are
    (±√s₁ ± √s₂ ± √s₃)/2 with an even number of minus signs.

    The guard is a first-order a-posteriori bound, as Kopp (2008) checks
    the analytic 3×3 method: under the rounding of the power sums a root
    λ_i moves by at most K·ε·‖A‖_F^d / |Π_j (λ_i − λ_j)|, K = 4.  The trace
    norm sums each sign's eigenvalues, and the sum of a close same-sign
    cluster is well conditioned, so there a same-sign neighbour counts as
    ‖A‖_F.  The sign of λ_i is settled when |λ_i| exceeds the product with
    every gap floored at |λ_i| (a cluster at c moves its k members by at
    most the k-th root of its perturbation, below |c| exactly when this
    bound is below |λ_i|); an unsettled sign adds twice that bound.  An
    operator is flagged when the sum exceeds ``_CHARPOLY_BOUND``·‖A‖_F.
    """
    n, d = stack.shape[:2]
    rows, cols = np.tril_indices(d, -1)
    diag, low = stack[:, range(d), range(d)].real.T, stack[:, rows, cols].T
    exponent = np.frexp(np.maximum(np.abs(diag).max(axis=0), np.abs(low).max(axis=0)))[1]
    exponent = np.maximum(exponent, -1021)  # a finite scale for subnormal entries
    diag, low = (np.multiply(x, np.ldexp(1.0, -exponent), order="C") for x in (diag, low))
    t = diag.sum(axis=0) / d
    b = diag - t
    entry = {**dict(zip(zip(rows, cols), low)), **dict(zip(zip(cols, rows), low.conj()))}
    square = b * b  # the diagonal of B², then its lower triangle into p₃ and p₄
    for i, j, a in zip(rows, cols, low):
        square[[i, j]] += (a * a.conj()).real
    p2, p3, p4 = square.sum(axis=0), (b * square).sum(axis=0), (square * square).sum(axis=0)
    for i, j, a in zip(rows, cols, low):
        c = (b[i] + b[j]) * a + sum(entry[i, k] * entry[k, j] for k in range(d) if k not in (i, j))
        p3 += 2.0 * (a.conj() * c).real
        p4 += 2.0 * (c * c.conj()).real
    if d == 3:
        root = np.sqrt(p2 / 6.0)
        phi = np.arccos(np.clip(p3 / (p2 * root + _TINY), -1.0, 1.0)) / 3.0
        top, bottom = 2.0 * root * np.cos(phi), 2.0 * root * np.cos(phi + 2.0 * np.pi / 3.0)
        lam = np.stack([top, -top - bottom, bottom]) + t
    else:
        # the resolvent, depressed by s = y + p₂/3: y³ − 3a·y + 2h
        a = np.maximum(7.0 / 36.0 * p2 * p2 - p4 / 3.0, 0.0)
        h = p2 * p4 / 6.0 - 17.0 / 216.0 * p2 ** 3 - p3 * p3 / 18.0
        root = np.sqrt(a)
        phi = np.arccos(np.clip(-h / (a * root + _TINY), -1.0, 1.0)) / 3.0
        s1 = p2 / 3.0 + 2.0 * root * np.cos(phi)
        e3, rest = p3 / 3.0, np.maximum(p2 - s1, 0.0)
        s2 = 0.5 * (rest + np.sqrt(np.maximum(rest * rest - 4.0 * e3 * e3 / (s1 + _TINY), 0.0)))
        u, v = np.sqrt(s1), np.sqrt(s2)
        w = np.clip(e3 / (u * v + _TINY), -v, v)  # |√s₃| <= √s₂ also under rounding
        lam = 0.5 * np.stack([u + v + w, u - v - w, v - u - w, w - u - v]) + t
    norm_f, mag = np.sqrt(p2 + d * t * t), np.abs(lam)
    group, own = np.ones((2, d, n))
    floor = norm_f / (mag + _TINY)
    with np.errstate(over="ignore"):  # an infinite bound flags
        for i, j in itertools.combinations(range(d), 2):
            ratio = norm_f / (np.abs(lam[i] - lam[j]) + _TINY)
            group[[i, j]] *= np.where((lam[i] < 0) != (lam[j] < 0), ratio, 1.0)
            own[[i, j]] *= np.minimum(ratio, floor[[i, j]])
        group, own = _CHARPOLY_K_EPS * norm_f * group, _CHARPOLY_K_EPS * norm_f * own
        bound = (group + 2.0 * own * (mag <= own)).sum(axis=0)
    return np.ldexp(0.5 * mag.sum(axis=0), exponent), bound > _CHARPOLY_BOUND * norm_f


def _contract(rows: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Σ_x r_x blocks[x] for each real coefficient row r, as a (batch, d, d)
    stack, in one product.

    The rows are contracted against a real (|X|, 2·d·d) view of the
    blocks' interleaved real and imaginary parts, so they are never
    copied to complex.  Both covering modes form a type n of m codewords
    as ``_contract(n / m, state.rhos)`` − ρ_B.
    """
    x_size, d, _ = blocks.shape
    flat = np.ascontiguousarray(blocks).view(float).reshape(x_size, 2 * d * d)
    return (rows @ flat).view(complex).reshape(-1, d, d)


def _within_cap(count: int, what: str) -> None:
    """Refuse an exact curve, before any table, draw or eigensolve, when
    the ``count`` ``what`` it is about to build exceed the enumeration cap."""
    if count > ENUMERATION_CAP:
        raise DomainError(
            f"{count} {what} exceed the enumeration cap {ENUMERATION_CAP}; use "
            "method='mc' for one size, or lower the cap of a search, which "
            "refuses monte-carlo estimates for certification")


def _block_sums(weights: np.ndarray, preimages: np.ndarray, first: np.ndarray,
                sizes: np.ndarray) -> np.ndarray:
    """Σ_i weights[preimages[f + i]] over i < s for each block (f, s) of
    (first, sizes), summed in that order, as a (blocks, d, d) stack."""
    acc = weights[preimages[first]]
    for i in range(1, sizes.max(initial=0)):
        live = sizes > i
        acc[live] += weights[preimages[first[live] + i]]
    return acc


def _set_ranks(preimages: np.ndarray, first: np.ndarray, sizes: np.ndarray,
               start: np.ndarray, binom: np.ndarray) -> np.ndarray:
    """Index in the set table (see ``_set_table``) of each block (f, s),
    whose increasing preimages are preimages[f : f + s]."""
    ranks = start[sizes] + binom[:, 1][preimages[first]]  # one column's gather beats a 2-D index
    live = np.flatnonzero(sizes > 1)
    for i in range(1, sizes.max(initial=0)):
        live = live[sizes[live] > i]  # the blocks with an (i+1)-th preimage
        ranks[live] += binom[:, i + 1][preimages[first[live] + i]]
    return ranks


def _set_table(weights: np.ndarray, target: np.ndarray, z_size: int, samples: int):
    """Distances ½‖Σ_{x∈S} weights[x] − target‖₁ of the preimage sets S
    that a Monte-Carlo extraction run of ``samples`` tables expects to
    meet, solved in one ``_half_norms`` batch.

    Every single input is listed.  A size k >= 2 is listed when each
    k-set is expected in at least one block over the run,
    samples·z^(1−k)·(1−1/z)^(|X|−k) >= 1; sizes are taken in increasing
    order, stopping at the first that fails this or would take the table
    past max(``_CHUNK``, |X|) sets.  The rule reads (|X|, z, samples)
    alone, never the drawn tables.

    Returns (distances, start, binom).  The set {x₀ < … < x_{k−1}} sits
    at start[k] + Σᵢ binom[xᵢ, i+1], its colex rank, so the single x sits
    at x; binom[x, j] = C(x, j), clipped at the table size so that it
    fits int64, which no listed rank reaches.  The k-sets whose largest
    input is x follow the C(x, k) sets below x: they are the first
    C(x, k−1) sets of size k−1, each plus weights[x], added last, as
    ``_block_sums`` assembles a block, so a listed distance has the bits
    of a solved one when the table and the chunk's batch of solved blocks
    take the same ``_half_norms`` kernel, and agrees with it to about
    1e-15 relative when they do not.
    """
    x_size = len(weights)
    z = float(z_size)
    counts = [x_size]  # number of sets of each listed size, from size 1
    for k in range(2, x_size + 1):
        count = math.comb(x_size, k)
        if (sum(counts) + count > max(_CHUNK, x_size)
                or samples * z ** (1 - k) * (1.0 - 1.0 / z) ** (x_size - k) < 1):
            break
        counts.append(count)
    top, total = len(counts), sum(counts)

    binom = np.ones((x_size, top + 1), dtype=np.int64)
    for j in range(1, top + 1):
        # C(x, j) = Σ_{y<x} C(y, j−1)
        binom[:, j] = np.minimum(np.cumsum(binom[:, j - 1]) - binom[:, j - 1], total)
    start = np.cumsum([0, 0, *counts[:-1]])

    levels = [weights]  # the sums of each listed size, in colex order
    for k in range(2, top + 1):
        levels.append(np.concatenate(
            [levels[-1][:math.comb(x, k - 1)] + weights[x] for x in range(k - 1, x_size)]))
    return _half_norms(np.concatenate(levels) - target), start, binom


def _hash_values(tables: np.ndarray, weights: np.ndarray, z_size: int,
                 target: np.ndarray, table) -> np.ndarray:
    """Evaluate the extraction distance for a batch of function tables.

    Only occupied output blocks cost work.  Each of the z − #outputs
    empty blocks adds ½Tr(target).  Every occupied block reads ``table``
    (``_set_table``) once: a listed preimage set S finds ½‖Σ_{x∈S}
    weights[x] − target‖₁ at its colex rank, a single preimage x at x.
    The other blocks, all larger than the table's sets, are assembled and
    solved in one stacked batch.  Empty, single and larger blocks are
    added in that order, each in block order, by two ``bincount`` passes
    over the one distance array.
    """
    set_distances, start, binom = table
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

    # a block larger than any listed set reads that of its first preimages until solved
    distances = set_distances[
        _set_ranks(preimages, first, np.minimum(sizes, len(start) - 1), start, binom)]
    solve = sizes >= len(start)
    if solve.any():
        distances[solve] = _half_norms(
            _block_sums(weights, preimages, first[solve], sizes[solve]) - target)
    values = (z_size - starts.sum(axis=1)) * (0.5 * np.trace(target).real)
    single = sizes == 1
    for part in (single, ~single):  # adding the other part's zeros keeps the bits
        values += np.bincount(rows, weights=np.where(part, distances, 0.0), minlength=batch)
    return values


def _exact_curve(lengths, chunks) -> list[float]:
    """Exact distance at each size of a curve, in stream order.

    ``chunks`` yields (stack, weights): a (k, d, d) stack of operators
    A_i and their k weights, worth w_i·½‖A_i‖₁ each.  The rows run through
    the sizes in order, ``lengths`` giving each size's row count, so a
    size is one contiguous run of rows, which may straddle chunks.  The
    terms form one lazy stream, each chunk one ``_half_norms`` batch and
    one ``tolist``, and each size is the next run of its row count in
    it, read by ``islice`` into one exactly rounded ``math.fsum``.  A
    chunk is solved only when a size reaches it, so nothing but one
    chunk's terms and each size's value is held.
    """
    terms = itertools.chain.from_iterable(
        (weights * _half_norms(stack)).tolist() for stack, weights in chunks)
    return [math.fsum(itertools.islice(terms, n)) for n in lengths]


def _extraction_curve(state: CQState, sizes: range) -> list[float]:
    """Exact extraction distance at each z of ``sizes``, a range of step 1,
    in increasing z: z times the average over the preimages S of one
    output block, a subset S having weight z^-|S| (1-1/z)^(|X|-|S|).

    The rows of ``_exact_curve`` are the pairs (z, S) in order, S running
    over all 2^|X| subsets at each z, and a chunk holds ``_CHUNK``
    consecutive rows; a curve of more than ``ENUMERATION_CAP`` rows is
    refused before any is built.  The subset sums Σ_{x∈S} p_x ρ_x do not
    depend on z.  A chunk within one size sums exactly the subsets it
    holds, a chunk that spans sizes all 2^|X| (fewer than ``_CHUNK`` when
    that is a power of two), and the next chunk that needs the same
    subsets reuses them.  A chunk tables ρ_B/z and the subset weights of
    the sizes it spans.
    """
    x_size = state.alphabet_size
    subsets = 1 << x_size
    # from the endpoints: len() of a range longer than 2**63 - 1 overflows
    _within_cap((sizes.stop - sizes.start) * subsets, "preimage subsets")
    blocks = joint_embed(state).rho_xb
    rho_b = state.marginal()
    ks = np.arange(x_size + 1, dtype=float)

    @functools.lru_cache(maxsize=1)
    def subset_sums(lo, hi):  # of subsets lo..hi−1, as real rows, and their sizes
        members = (np.arange(lo, hi)[:, None] >> np.arange(x_size)) & 1
        sums = _contract(members.astype(float), blocks)
        return sums.view(float).reshape(hi - lo, -1), members.sum(axis=1)

    def chunks():
        total = len(sizes) * subsets
        for start in range(0, total, _CHUNK):
            stop = min(start + _CHUNK, total)
            first, last = start // subsets, (stop - 1) // subsets
            offset = first * subsets
            lo, hi = (start - offset, stop - offset) if first == last else (0, subsets)
            sums, count = subset_sums(lo, hi)
            z_sizes = np.arange(sizes[first], sizes[last] + 1)
            z = z_sizes[:, None].astype(float)
            weight = z ** (1.0 - ks) * (1.0 - 1.0 / z) ** (x_size - ks)
            target = rho_b / z_sizes[:, None, None]
            # real and imaginary parts subtract apart: a complex
            # subtraction broadcast over the sizes is several times slower
            parts = sums - target.view(float).reshape(len(z_sizes), 1, -1)
            rows = slice(start - offset - lo, stop - offset - lo)
            yield (parts.view(complex).reshape(-1, *rho_b.shape)[rows],
                   weight[:, count].ravel()[rows])

    return _exact_curve([subsets] * len(sizes), chunks())


def _covering_curve(state: CQState, sizes: range) -> list[float]:
    """Exact covering distance at each m >= 1 of ``sizes``, a range of
    step 1, in increasing m: the types of the codebooks of each size,
    each with its multinomial p-weight.

    The types of every m <= m_cap, the last size, are the compositions
    of m_cap into |X| + 1 parts whose first part is the slack m_cap − m.
    Their lexicographic order runs the slack up from 0, so m runs down
    from m_cap, and within one m it is the order of the |X|-part
    compositions of m.  The stream stops after the last type of the
    first size, and the values are reversed into increasing m.  So a
    single size is the slack-0 prefix, whose leading zero
    ``_compositions`` skips.  A curve streams C(m_cap+|X|, |X|) −
    C(m_min−1+|X|, |X|) types and builds m_cap + 1 type-table columns;
    either count beyond ``ENUMERATION_CAP`` is refused before the tables.
    A chunk divides its types by their m and is contracted against ρ_x in
    one product.  It has fewer than ``_CHUNK`` rows when |X| > 64, so
    that its memory does not grow with the alphabet.
    """
    x_size = state.alphabet_size
    m_cap = sizes[-1]
    _within_cap(math.comb(m_cap + x_size, x_size) - math.comb(sizes[0] - 1 + x_size, x_size),
                "codebook types")
    _within_cap(m_cap + 1, "type-table columns")
    rho_b = state.marginal()
    counts, log_fact = _type_tables(m_cap, x_size + 1)
    # counts[x_size - 1, m] is the number of types of size m
    lengths = [int(counts[x_size - 1, m]) for m in reversed(sizes)]
    rows = max(1, _CHUNK * 64 // max(x_size, 64))
    with np.errstate(divide="ignore"):
        log_p = np.log(state.p)

    def chunks():
        for chunk in _compositions(m_cap, counts, rows, sum(lengths)):
            # one contiguous copy: both readers below are slower on the view
            m, types = m_cap - chunk[:, 0], chunk[:, 1:].copy()
            log_mult, log_like = _type_log_terms(types, m, log_fact, log_p)
            stack = _contract(types / m[:, None], state.rhos)
            stack -= rho_b
            # a type using a zero-probability symbol gets weight 0
            yield stack, np.exp(log_mult + log_like)

    return _exact_curve(lengths, chunks())[::-1]


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([seed, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _monte_carlo(samples: int, seed: int, chunk) -> SimulationEstimate:
    """Monte-Carlo estimate of the mean of the per-sample values that
    ``chunk(rng, rows)`` returns for ``rows`` samples drawn from ``rng``.

    The samples are split into fixed spans of ``_CHUNK``; span j draws
    from ``_chunk_rng(seed, j)``, and the values are aggregated in sample
    order.
    """
    values = np.concatenate([
        chunk(_chunk_rng(seed, j), min(_CHUNK, samples - start))
        for j, start in enumerate(range(0, samples, _CHUNK))
    ])
    half = 1.96 * float(np.std(values, ddof=1)) / math.sqrt(samples)
    return SimulationEstimate(float(np.mean(values)), "monte-carlo", samples, seed, half)


def _codebook_types(rng: np.random.Generator, cdf: np.ndarray, rows: int,
                    m: int) -> np.ndarray:
    """Types of ``rows`` codebooks of m codewords, as a (rows, |X|) float64
    count array, the codewords being those of
    ``rng.choice(|X|, (rows, m), p=p)`` for ``cdf`` = cumsum(p)/Σp.

    The same uniforms are drawn in row blocks of at most ``_DRAW_BYTES``
    (one row when a row alone is larger); consecutive draws read the
    stream in the same order as one call, so the types do not depend on
    the blocking.  A uniform u is codeword #{edges of cdf <= u}, choice's
    rule.  That count, the uniform's cell, is found by one pass per edge
    that adds u >= edge into a uint8 array while |X| <= 256, so that the
    uint8 holds it, and by ``searchsorted`` beyond; the cells, offset by
    row, are counted by one ``bincount``.  A block also holds at most
    ``_DRAW_BYTES`` of counts, so memory is the count array plus one
    block's draws, cells and counts.
    """
    x_size = len(cdf)
    types = np.empty((rows, x_size))

    def count(draws, out):
        if x_size <= 256:
            cells = np.zeros(draws.shape, dtype=np.uint8)
            for edge in cdf[:-1]:  # cdf[-1] is 1 > u
                cells += draws >= edge
        else:
            cells = cdf.searchsorted(draws, side="right")
        # the draws are read: their buffer takes the row-offset cells
        cells = np.add(cells, x_size * np.arange(len(draws))[:, None], out=draws.view(np.int64))
        out[...] = np.bincount(cells.ravel(), minlength=out.size).reshape(out.shape)

    step = max(1, _DRAW_BYTES // (8 * max(m, x_size)))
    for lo in range(0, rows, step):
        count(rng.random((min(step, rows - lo), m)), types[lo:lo + step])
    return types


def _type_distances(types: np.ndarray, m: int, rhos: np.ndarray,
                    reference: np.ndarray) -> np.ndarray:
    """½‖Σ_x (n_x/m)·rhos[x] − reference‖₁ for each float64 type row n of
    m codewords, solving each distinct type once.  The distinct rows are
    divided by m in place (``types`` is the caller's scratch), contracted
    in one ``_contract``, as exact mode forms a type, and solved in one
    ``_half_norms`` batch.

    A type is keyed exactly by the float64 dot product Σ_x n_x·(m+1)^x
    while (m+1)^|X| <= 2^53, since every partial sum is then an integer
    below 2^53; past that bound every row is solved.  Equal keys are
    equal type rows, so one ``argsort`` of the keys finds them: one row
    of each run of equal sorted keys is solved, and a running count of
    the runs' heads maps every row to its run's value.
    """
    x_size = types.shape[1]
    inverse = slice(None)
    if (m + 1) ** x_size <= 2 ** 53:
        keys = types @ np.array([float((m + 1) ** x) for x in range(x_size)])
        order = keys.argsort()
        head = np.diff(keys[order], prepend=-1.0) != 0  # keys are >= 0
        inverse = np.empty_like(order)
        inverse[order] = head.cumsum() - 1
        types = types[order[head]]
    types /= m
    return _half_norms(_contract(types, rhos) - reference)[inverse]


def simulate_pa(state: CQState, z_size: int, method: str = "exact",
                samples: int = 100_000, seed: int = 0,
                workers: int = 1) -> SimulationEstimate:
    """Expected extraction distance for output alphabet size z_size.

    Exact mode averages over all z_size**alphabet function tables as z
    times a weighted sum over the 2**alphabet preimages of one output
    block, a subset S having weight z^-|S| (1-1/z)^(|X|-|S|); it is
    refused, before any work, when the subsets exceed the enumeration
    cap.  Monte-Carlo mode draws tables uniformly and reports an unbiased
    mean with its confidence half-width; it takes at most
    ``MC_SAMPLE_CAP`` samples.  Both modes refuse z_size > 2**63 - 1.
    The seed must lie in [0, 2**64).  ``workers`` must be at least 1 and
    changes neither the value nor the work in either mode.
    """
    z_size = _whole("z_size", z_size, 1)
    if z_size >= 1 << 63:  # Monte-Carlo tables are drawn as int64
        raise DomainError(f"z_size must be at most 2**63 - 1, got {z_size}")
    samples, seed = _check_run(method, samples, seed, workers)
    x_size = state.alphabet_size

    if method == "exact":
        [value] = _extraction_curve(state, range(z_size, z_size + 1))
        return SimulationEstimate(value, "exact", z_size ** x_size, seed, 0.0)

    weights = joint_embed(state).rho_xb
    target = state.marginal() / z_size
    table = _set_table(weights, target, z_size, samples)

    def chunk(rng, rows):
        tables = rng.integers(0, z_size, size=(rows, x_size), dtype=np.int64)
        return _hash_values(tables, weights, z_size, target, table)

    return _monte_carlo(samples, seed, chunk)


def simulate_covering(state: CQState, m: int, method: str = "exact",
                      samples: int = 100_000, seed: int = 0,
                      workers: int = 1) -> SimulationEstimate:
    """Expected covering distance for codebook size m.

    Exact mode computes the p^(x)m-weighted average over all alphabet**m
    codebooks.  The average depends on a codebook only through its
    symbol histogram, so it is a multinomially weighted sum over the
    C(m+alphabet-1, alphabet-1) types; it is refused, before any work,
    when the types or the m + 1 type-table columns exceed the enumeration
    cap.  The reported sample count remains the full codebook count.
    Monte-Carlo mode draws codebooks i.i.d. from p, those of
    ``Generator.choice`` on each chunk's generator, counts each into its
    type, and evaluates each distinct type of a chunk once by the same
    kernel rule; both the samples and m are at most ``MC_SAMPLE_CAP``.
    The seed must lie in [0, 2**64).  ``workers`` must be at least 1 and
    changes neither the value nor the work in either mode.
    """
    m = _whole("m", m, 1)
    samples, seed = _check_run(method, samples, seed, workers)
    x_size = state.alphabet_size

    if method == "exact":
        [value] = _covering_curve(state, range(m, m + 1))
        return SimulationEstimate(value, "exact", x_size ** m, seed, 0.0)
    if m > MC_SAMPLE_CAP:
        raise DomainError(f"monte-carlo covering draws a codebook's m codewords at once; "
                          f"m must be at most {MC_SAMPLE_CAP}, got {m}")

    rho_b = state.marginal()
    # normalised as Generator.choice normalises it
    cdf = state.p.cumsum()
    cdf /= cdf[-1]

    def chunk(rng, rows):
        return _type_distances(_codebook_types(rng, cdf, rows, m), m, state.rhos, rho_b)

    return _monte_carlo(samples, seed, chunk)


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


def search_max_extractable(state: CQState, eps: float, z_cap: int) -> SearchResult:
    """Largest output size up to z_cap whose extraction distance stays <= eps.

    Runs in exact mode only: a Monte-Carlo curve cannot certify the
    answer.  The curve streams z_cap * 2**alphabet subsets; a total
    beyond the enumeration cap is refused before any work.
    """
    _check_eps(eps)
    z_cap = _whole("z_cap", z_cap, 1)
    values = _extraction_curve(state, range(1, z_cap + 1))
    curve = [(z, SimulationEstimate(value, "exact", z ** state.alphabet_size, 0, 0.0))
             for z, value in enumerate(values, 1)]
    qualifying = [z for z, est in curve if est.value <= eps + 1e-12]
    found = max(qualifying)  # z=1 gives distance 0, so this is never empty
    cap_limited = curve[-1][1].value <= eps + 1e-12
    return SearchResult(found, curve, cap_limited)


def search_min_codebook(state: CQState, eps: float, m_cap: int) -> SearchResult:
    """Smallest codebook size up to m_cap whose covering distance is <= eps.

    Runs in exact mode only.  The curve streams sum_{1<=m<=m_cap}
    C(m+alphabet-1, alphabet-1) = C(m_cap+alphabet, alphabet) − 1 types
    and builds m_cap + 1 type-table columns; either count beyond the
    enumeration cap is refused before any work.
    """
    _check_eps(eps)
    m_cap = _whole("m_cap", m_cap, 1)
    values = _covering_curve(state, range(1, m_cap + 1))
    curve = [(m, SimulationEstimate(value, "exact", state.alphabet_size ** m, 0, 0.0))
             for m, value in enumerate(values, 1)]
    qualifying = [m for m, est in curve if est.value <= eps + 1e-12]
    found = min(qualifying) if qualifying else None
    return SearchResult(found, curve, cap_limited=found is None)
