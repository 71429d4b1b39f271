"""Protocol simulators and certified size searches."""

import contextlib
import itertools
import math
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from oneshot_qit import (
    CQState,
    DomainError,
    search_max_extractable,
    search_min_codebook,
    simulate,
    simulate_covering,
    simulate_pa,
    uniform_function_family,
)

from conftest import (
    binary_antipodal,
    bit_pair_trivial_side,
    brute_force_covering,
    brute_force_pa,
    counting_eigensolves,
    counting_half_norm_batches,
    random_cq_state,
    svd_trace_norm,
)


# ---------------------------------------------------------------------------
# Extraction simulator
# ---------------------------------------------------------------------------

def test_pa_single_output_is_exactly_zero(corpus):
    for state in corpus[:5]:
        est = simulate_pa(state, 1, "exact")
        assert est.value == pytest.approx(0.0, abs=1e-12)
        assert est.method == "exact"
        assert est.half_width == 0.0


def test_pa_bit_pair_four_function_average():
    est = simulate_pa(bit_pair_trivial_side(), 2, "exact")
    assert est.value == pytest.approx(0.25, abs=1e-12)
    assert est.samples == 4


def _oracle_state(seed, alphabet, dim, zero_p):
    state = random_cq_state(np.random.default_rng(seed), alphabet, dim)
    if not zero_p:
        return state
    p = state.p.copy()
    p[0] = 0.0
    return CQState(p / p.sum(), state.rhos)


def test_pa_exact_matches_manual_enumeration():
    # (|X|, z, d, zero entry in p)
    for alphabet, z, dim, zero_p in [
        (2, 2, 2, False),
        (3, 3, 2, False),
        (4, 2, 3, False),
        (3, 1, 2, False),
        (3, 3, 1, False),
        (1, 4, 2, False),
        (3, 2, 2, True),
    ]:
        state = _oracle_state(71, alphabet, dim, zero_p)
        est = simulate_pa(state, z, "exact")
        assert est.value == pytest.approx(brute_force_pa(state, z), abs=1e-12)
        assert est.samples == z ** alphabet


def test_pa_deterministic_source_large_output():
    # 2^14 subsets; the 1000^14 function tables are never enumerated
    z = 1000
    state = CQState([1.0] + [0.0] * 13, [[[1.0]]] * 14)
    est = simulate_pa(state, z, "exact")
    assert est.value == pytest.approx(1.0 - 1.0 / z, abs=1e-12)
    assert est.samples == z ** 14


def test_pa_rejects_oversized_enumeration_and_zero_output():
    state = CQState([1.0 / 30] * 30, [[[1.0]]] * 30)
    with pytest.raises(DomainError, match="cap"):
        simulate_pa(state, 4, "exact")
    with pytest.raises(DomainError):
        simulate_pa(state, 0, "exact")


def test_exact_refusals_precede_any_eigensolver_call(monkeypatch):
    state = CQState([1.0 / 30] * 30, [np.eye(2) / 2] * 30)

    def no_eigensolver(*args, **kwargs):
        raise AssertionError("eigensolver called before the refusal")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolver)
    monkeypatch.setattr(np.linalg, "eigh", no_eigensolver)
    monkeypatch.setattr(simulate, "_half_norms", no_eigensolver)
    with pytest.raises(DomainError, match="cap"):
        simulate_pa(state, 2, "exact")
    with pytest.raises(DomainError, match="cap"):
        simulate_covering(state, 10, "exact")
    with pytest.raises(DomainError, match="certific"):
        search_max_extractable(state, 0.3, 2)
    with pytest.raises(DomainError, match="certific"):
        search_min_codebook(state, 0.3, 10)


def test_pa_monte_carlo_matches_exact_within_half_width():
    state = bit_pair_trivial_side()
    exact = simulate_pa(state, 2, "exact").value
    hits = 0
    for seed in range(100):
        est = simulate_pa(state, 2, "mc", samples=100_000, seed=seed)
        if abs(est.value - exact) <= est.half_width:
            hits += 1
    assert hits >= 93


def test_pa_monte_carlo_deterministic_across_workers():
    state = bit_pair_trivial_side()
    runs = [
        simulate_pa(state, 2, "mc", samples=100_000, seed=11, workers=w)
        for w in (1, 4, 8)
    ]
    assert runs[0].value == runs[1].value == runs[2].value
    assert runs[0].half_width == runs[1].half_width == runs[2].half_width


def _dense_table_value(state, z, table):
    """Extraction distance of one function table, all z blocks assembled."""
    rho_b = np.einsum("x,xij->ij", state.p, state.rhos)
    blocks = np.repeat(-rho_b[None] / z, z, axis=0)
    for x, h in enumerate(table):
        blocks[h] += state.p[x] * state.rhos[x]
    return 0.5 * svd_trace_norm(blocks)


def _recorded_mc(monkeypatch, state, z, samples, seed):
    """A Monte-Carlo extraction estimate with the tables, per-table values
    and largest listed set size of every chunk."""
    chunks = []
    kernel = simulate._hash_values

    def recording(tables, weights, z_size, target, table):
        values = kernel(tables, weights, z_size, target, table)
        _, start, _ = table
        chunks.append((tables, values, len(start) - 1))
        return values

    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_hash_values", recording)
        est = simulate_pa(state, z, "mc", samples=samples, seed=seed)
    return est, chunks


def test_pa_monte_carlo_tables_match_dense_oracle(monkeypatch):
    # (|X|, z, d, zero entry in p): z below, at and above |X|
    for alphabet, z, dim, zero_p in [
        (5, 3, 2, False),
        (4, 4, 3, False),
        (4, 9, 2, False),
        (3, 40, 2, True),
        (5, 7, 1, False),
        (1, 3, 2, False),
        (6, 3, 2, False),
    ]:
        state = _oracle_state(76, alphabet, dim, zero_p)
        est, chunks = _recorded_mc(monkeypatch, state, z, 48, seed=9)
        [(tables, values, top)] = chunks
        assert tables.shape == (48, alphabet)
        assert est.value == np.mean(values)
        for table, value in zip(tables, values):
            assert value == pytest.approx(_dense_table_value(state, z, table), abs=1e-12)
        # the tables hit empty, singleton and (for |X| > 1) colliding blocks
        counts = np.stack([np.bincount(t, minlength=z) for t in tables])
        assert (counts == 0).any() and (counts == 1).any()
        assert (counts >= 2).any() == (alphabet > 1)
        if alphabet == 6:
            # sets of up to 3 inputs are read from the set table, larger
            # blocks are solved, in the same chunk
            assert top == 3
            assert ((counts >= 2) & (counts <= 3)).any() and (counts >= 4).any()


def test_pa_monte_carlo_set_table_and_solves_agree_to_the_bit(monkeypatch):
    # a longer run lists larger preimage sets, so blocks that the short
    # run solves are read from the long run's table
    for dim in (2, 4):
        state = _oracle_state(79, 8, dim, False)
        _, [(tables, values, short_top)] = _recorded_mc(monkeypatch, state, 16, 48, seed=21)
        _, chunks = _recorded_mc(monkeypatch, state, 16, 3 * simulate._CHUNK, seed=21)
        long_tables, long_values, long_top = chunks[0]
        assert (short_top, long_top) == (2, 4)
        assert np.array_equal(long_tables[:48], tables)
        counts = np.stack([np.bincount(t, minlength=16) for t in tables])
        assert ((counts > short_top) & (counts <= long_top)).any()
        assert long_values[:48].tobytes() == values.tobytes()


def test_pa_monte_carlo_set_table_is_one_batch_per_call(monkeypatch):
    # at z = 2 every set of the 8 inputs is expected over the run, so the
    # table holds all 255 non-empty sets and no chunk solves a block
    state = _oracle_state(80, 8, 2, False)
    with counting_half_norm_batches(monkeypatch) as matrices_per_batch:
        simulate_pa(state, 2, "mc", samples=3 * simulate._CHUNK, seed=4)
    assert matrices_per_batch == [255]


def test_pa_monte_carlo_deterministic_across_workers_large_output():
    state = _oracle_state(77, 4, 2, False)
    runs = [
        simulate_pa(state, 16, "mc", samples=10_000, seed=12, workers=w)
        for w in (1, 2)
    ]
    assert runs[0].value == runs[1].value
    assert runs[0].half_width == runs[1].half_width


def test_pa_monte_carlo_memory_does_not_grow_with_output_size(monkeypatch):
    state = _oracle_state(78, 8, 8, False)
    tracemalloc.start()
    try:
        est = simulate_pa(state, 1024, "mc", samples=4096, seed=13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one dense (4096, 1024, 8, 8) complex chunk would take 4.3 GB
    assert peak < 64e6
    again, [(tables, values, _)] = _recorded_mc(monkeypatch, state, 1024, 4096, 13)
    assert again.value == est.value
    for table, value in zip(tables[:3], values[:3]):
        assert value == pytest.approx(_dense_table_value(state, 1024, table), abs=1e-12)


def test_mc_workers_below_one_refused():
    state = bit_pair_trivial_side()
    for workers in (0, -3):
        for runner, method in itertools.product(
                (simulate_pa, simulate_covering), ("mc", "exact")):
            with pytest.raises(DomainError, match="workers"):
                runner(state, 2, method, samples=100, workers=workers)


def test_mc_chunks_start_no_thread(monkeypatch):
    # three chunks at eight workers run in the caller's thread, with the
    # values of one worker
    def refuse(self):
        raise AssertionError("a Monte-Carlo run started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    state = _oracle_state(81, 3, 2, False)
    three_chunks = 3 * simulate._CHUNK
    for runner in (simulate_pa, simulate_covering):
        serial, many = (runner(state, 4, "mc", samples=three_chunks, seed=1, workers=w)
                        for w in (1, 8))
        assert many.value.hex() == serial.value.hex()
        assert many.half_width.hex() == serial.half_width.hex()


def test_mc_seed_outside_64_bits_refused():
    # the generator keys on 64 bits, so -1 and 2**64 would repeat the
    # draws of 2**64 - 1 and 0 under another reported seed
    state = bit_pair_trivial_side()
    for runner, method in itertools.product(
            (simulate_pa, simulate_covering), ("mc", "exact")):
        for seed in (-1, 2 ** 64, 2 ** 70):
            with pytest.raises(DomainError, match="seed"):
                runner(state, 2, method, samples=100, seed=seed)
        top = runner(state, 2, method, samples=100, seed=2 ** 64 - 1)
        assert top.seed == 2 ** 64 - 1


def test_mc_samples_above_cap_refused_before_any_draw(monkeypatch):
    def refuse(seed, chunk_index):
        raise AssertionError("a chunk was drawn")

    monkeypatch.setattr(simulate, "_chunk_rng", refuse)
    state = bit_pair_trivial_side()
    for runner in (simulate_pa, simulate_covering):
        with pytest.raises(DomainError, match="samples"):
            runner(state, 2, "mc", samples=simulate.MC_SAMPLE_CAP + 1)
        # exact mode reads no sample count
        assert runner(state, 2, "exact", samples=simulate.MC_SAMPLE_CAP + 1).method == "exact"


def test_pa_estimates_in_range(corpus):
    for state in corpus[:5]:
        for z in (1, 2, 3):
            est = simulate_pa(state, z, "exact")
            assert -1e-9 <= est.value <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# Covering simulator
# ---------------------------------------------------------------------------

def test_covering_product_state_is_zero():
    rng = np.random.default_rng(72)
    rho = rng.dirichlet(np.ones(2))
    state = CQState([0.4, 0.6], [np.diag(rho).astype(complex)] * 2)
    for m in (1, 2, 5):
        assert simulate_covering(state, m, "exact").value == pytest.approx(
            0.0, abs=1e-12
        )


def test_covering_antipodal_exact_values():
    state = binary_antipodal()
    assert simulate_covering(state, 1, "exact").value == pytest.approx(0.5, abs=1e-12)
    assert simulate_covering(state, 2, "exact").value == pytest.approx(0.25, abs=1e-12)
    # reported sample count is the full codebook count
    assert simulate_covering(state, 2, "exact").samples == 4


def test_covering_exact_matches_manual_enumeration():
    # (|X|, m, d, zero entry in p)
    for alphabet, m, dim, zero_p in [
        (3, 2, 2, False),
        (2, 5, 3, False),
        (3, 3, 1, False),
        (1, 3, 2, False),
        (4, 3, 2, True),
    ]:
        state = _oracle_state(73, alphabet, dim, zero_p)
        est = simulate_covering(state, m, "exact")
        assert est.value == pytest.approx(brute_force_covering(state, m), abs=1e-12)
        assert est.samples == alphabet ** m


def test_covering_antipodal_binomial_closed_form():
    # 51 types stand in for 2^50 codebooks
    m = 50
    expected = math.fsum(
        math.comb(m, k) * 2.0 ** -m * abs(k / m - 0.5) for k in range(m + 1)
    )
    est = simulate_covering(binary_antipodal(), m, "exact")
    assert est.value == pytest.approx(expected, abs=1e-12)
    assert est.samples == 2 ** m


def test_covering_exact_streams_types_of_a_large_alphabet():
    # |X| types at m=1, generated without recursion, in chunks whose
    # memory does not grow with |X|: 4096 rows of 5,000 counts would
    # take 164 MB per array
    for alphabet in (1200, 5000):
        state = random_cq_state(np.random.default_rng(79), alphabet, 2)
        rho_b = np.einsum("x,xij->ij", state.p, state.rhos)
        expected = math.fsum(
            px * 0.5 * svd_trace_norm(rho - rho_b) for px, rho in zip(state.p, state.rhos)
        )
        tracemalloc.start()
        try:
            est = simulate_covering(state, 1, "exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.value == pytest.approx(expected, abs=1e-12)
        assert est.samples == alphabet
        assert peak < 64e6


def test_covering_monte_carlo_scaling_sanity():
    state = binary_antipodal()
    est = simulate_covering(state, 10_000, "mc", samples=4000, seed=5)
    assert est.value <= 3.0 / math.sqrt(10_000)
    assert est.method == "monte-carlo"


def test_covering_monte_carlo_deterministic_across_workers():
    rng = np.random.default_rng(74)
    # (|X|, m, samples, zero last entry in p, d): types counted per edge;
    # looked up; per edge over several row blocks, the last chunk partial;
    # at d = 4 the full chunks hold over _CHARPOLY_BATCH distinct types
    for alphabet, m, samples, zero_p, dim in [(3, 8, 20_000, False, 2),
                                               (5, 4, 3 * 4096, True, 2),
                                               (2, 2000, 2 * 4096 + 50, False, 2),
                                               (8, 16, 2 * 4096 + 50, False, 4)]:
        state = random_cq_state(rng, alphabet, dim)
        if zero_p:
            state = CQState(np.append(state.p[:-1], 0.0) / state.p[:-1].sum(), state.rhos)
        runs = [
            simulate_covering(state, m, "mc", samples=samples, seed=3, workers=w)
            for w in (1, 2, 4)
        ]
        assert runs[0] == runs[1] == runs[2]


def _dense_codebook_values(state, m, samples, seed):
    """Covering distance of every sampled codebook, each chunk's codebooks
    redrawn from its generator and averaged codeword by codeword."""
    rho_b = np.einsum("x,xij->ij", state.p, state.rhos)
    values = []
    for j, start in enumerate(range(0, samples, 4096)):
        rng = simulate._chunk_rng(seed, j)
        books = rng.choice(state.alphabet_size, size=(min(4096, samples - start), m),
                           p=state.p)
        values += [0.5 * svd_trace_norm(state.rhos[book].mean(axis=0) - rho_b)
                   for book in books]
    return np.array(values)


def test_covering_monte_carlo_matches_dense_codebook_oracle():
    # (|X|, m, d, zero entry in p, samples): m = 1, below and above |X|;
    # types looked up (|X| > m/2) and counted per edge (|X| <= m/2, from
    # (3, 9) on); m = 20000 draws in several row blocks; (40, 3) and
    # (20, 64) are past the exact type key, (m+1)^|X| > 2^53; the
    # 3-chunk cases end in a partial chunk, and at d = 3 and 4 their full
    # chunks hold over _CHARPOLY_BATCH distinct types
    for alphabet, m, dim, zero_p, samples in [
        (4, 1, 2, False, 64),
        (5, 3, 2, False, 64),
        (3, 9, 3, False, 64),
        (4, 6, 2, True, 64),
        (3, 4, 1, False, 64),
        (1, 5, 2, False, 64),
        (3, 5, 2, False, 2 * 4096 + 100),
        (6, 12, 2, True, 64),
        (8, 16, 3, False, 2 * 4096 + 100),
        (8, 16, 4, True, 2 * 4096 + 100),
        (3, 20_000, 2, True, 64),
        (40, 3, 2, False, 64),
        (20, 64, 2, True, 64),
    ]:
        state = _oracle_state(80, alphabet, dim, zero_p)
        est = simulate_covering(state, m, "mc", samples=samples, seed=14, workers=2)
        values = _dense_codebook_values(state, m, samples, seed=14)
        half = 1.96 * np.std(values, ddof=1) / math.sqrt(samples)
        assert est.samples == samples
        assert est.value == pytest.approx(np.mean(values), abs=1e-12)
        assert est.half_width == pytest.approx(half, abs=1e-12)


def test_codebook_types_count_the_codewords_choice_draws():
    # (|X|, m, rows, zero entries in p): the uint8 cell pass up to
    # |X| = 256 and searchsorted beyond, small and large m on each side;
    # zero entries repeat a CDF edge, first, inside or last; m = 2|X| at
    # |X| = 255 to 300 spans several row blocks of draws, and |X| = 1200
    # at m = 2 several row blocks of counts
    rng = np.random.default_rng(90)
    for x_size, m, rows, zeros in [
        (1, 1, 5, ()), (1, 5, 5, ()),
        (2, 5, 300, ()), (2, 6, 300, (0,)), (3, 8, 300, (1,)), (3, 9, 300, (2,)),
        (6, 17, 300, (0, 3)), (6, 18, 300, (5,)), (7, 21, 300, (6,)),
        (8, 16, 4096, ()), (8, 64, 4096, (2, 3)),
        (64, 3, 300, (0, 63)), (64, 200, 300, (10,)), (65, 3, 300, (64,)),
        (255, 510, 600, (0, 254)), (256, 2, 300, (0,)), (256, 512, 600, (255,)),
        (257, 2, 300, (256,)), (257, 514, 600, (3,)), (300, 600, 600, (7, 8, 9)),
        (1200, 2, 1000, (0, 1199)),
    ]:
        p = rng.dirichlet(np.ones(x_size))
        p[list(zeros)] = 0.0
        p /= p.sum()
        cdf = p.cumsum()
        cdf /= cdf[-1]
        types = simulate._codebook_types(simulate._chunk_rng(9, 1), cdf, rows, m)
        books = simulate._chunk_rng(9, 1).choice(x_size, size=(rows, m), p=p)
        expected = np.array([np.bincount(book, minlength=x_size) for book in books])
        assert types.dtype == np.float64
        assert np.array_equal(types, expected), (x_size, m)


def test_covering_monte_carlo_memory_is_one_count_array_per_chunk():
    state = random_cq_state(np.random.default_rng(81), 1200, 2)
    tracemalloc.start()
    try:
        simulate_covering(state, 4, "mc", samples=4096, seed=15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (4096, 1200) float64 counts take 39 MB and are contracted
    # without a complex copy
    assert peak < 64e6


def test_covering_monte_carlo_draw_memory_does_not_grow_with_m():
    state = random_cq_state(np.random.default_rng(82), 2, 2)
    tracemalloc.start()
    try:
        simulate_covering(state, 2000, "mc", samples=4096, seed=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # all 4096 codebooks' 2000 codewords at once would take 66 MB per array
    assert peak < 16e6


def test_covering_monte_carlo_solves_each_distinct_type_once(monkeypatch):
    # |X| = 2, m = 3: 4 possible types, so at most 4 operators per chunk
    state = random_cq_state(np.random.default_rng(83), 2, 3)
    with counting_half_norm_batches(monkeypatch) as matrices_per_batch:
        est = simulate_covering(state, 3, "mc", samples=3 * 4096, seed=17)
    assert len(matrices_per_batch) == 3
    assert max(matrices_per_batch) <= 4
    dense = _dense_codebook_values(state, 3, 3 * 4096, seed=17)
    assert est.value == pytest.approx(np.mean(dense), abs=1e-12)


@contextlib.contextmanager
def _counting_flags(monkeypatch):
    """Record, per ``_charpoly_half_norms`` call, (operators, flagged)."""
    calls, kernel = [], simulate._charpoly_half_norms

    def wrapped(stack):
        norms, flagged = kernel(stack)
        calls.append((len(stack), int(flagged.sum())))
        return norms, flagged

    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_charpoly_half_norms", wrapped)
        yield calls


def test_covering_monte_carlo_large_chunks_skip_lapack_at_d_3_and_4(monkeypatch):
    for dim in (3, 4):
        state = _oracle_state(84, 8, dim, False)
        with _counting_flags(monkeypatch) as calls, \
                counting_eigensolves(monkeypatch) as matrices_per_call:
            simulate_covering(state, 16, "mc", samples=2 * 4096 + 100, seed=18, workers=2)
        # each full chunk holds over _CHARPOLY_BATCH distinct types and
        # takes the closed form, whose flagged operators alone reach LAPACK;
        # the last chunk, 100 codebooks, stays on eigvalsh
        assert len(calls) == 2 and all(size >= simulate._CHARPOLY_BATCH for size, _ in calls)
        assert matrices_per_call[:-1] == [flagged for _, flagged in calls if flagged]
        assert 1 <= matrices_per_call[-1] <= 100 < simulate._CHARPOLY_BATCH


def test_covering_monte_carlo_fallback_budget(monkeypatch):
    # the benchmark's Monte-Carlo covering shape: |X| = 8, d = 4, m = 16
    # and 64, two full chunks per run; a guard that quietly sends its
    # operators to LAPACK fails here
    for seed, m in itertools.product((7, 8, 9), (16, 64)):
        state = random_cq_state(np.random.default_rng(seed), 8, 4)
        with _counting_flags(monkeypatch) as calls, \
                counting_eigensolves(monkeypatch) as matrices_per_call:
            simulate_covering(state, m, "mc", samples=2 * 4096, seed=seed)
        distinct = sum(size for size, _ in calls)
        assert len(calls) == 2 and distinct > 2 * simulate._CHARPOLY_BATCH
        assert sum(matrices_per_call) == sum(flagged for _, flagged in calls)
        assert sum(matrices_per_call) < 0.01 * distinct, (seed, m, matrices_per_call)


def test_covering_monotone_curve_flagged_not_asserted(corpus):
    # empirical monotonicity; report violations as warnings only
    for state in corpus[:5]:
        values = [simulate_covering(state, m, "exact").value for m in range(1, 6)]
        for m, (a, b) in enumerate(zip(values, values[1:]), start=1):
            if b > a + 1e-9:
                warnings.warn(
                    f"covering distance increased from size {m} to {m + 1}: "
                    f"{a:.6f} -> {b:.6f}"
                )
        assert all(0.0 <= v <= 1.0 + 1e-9 for v in values)


# ---------------------------------------------------------------------------
# Searches
# ---------------------------------------------------------------------------

def test_search_extractable_bit_pair():
    result = search_max_extractable(bit_pair_trivial_side(), 0.25, 3)
    assert result.found == 2
    assert not result.cap_limited
    curve = dict((z, est.value) for z, est in result.curve)
    assert curve[1] == pytest.approx(0.0, abs=1e-12)
    assert curve[2] == pytest.approx(0.25, abs=1e-12)
    assert curve[3] > 0.25
    assert result.family is not None
    assert result.family.kind == "exhaustive-uniform-function"


def test_search_extractable_always_at_least_one(corpus):
    for state in corpus[:5]:
        result = search_max_extractable(state, 0.05, 3)
        assert result.found >= 1


def test_search_extractable_deterministic_source():
    state = CQState([1.0, 0.0], [[[1.0]], [[1.0]]])
    result = search_max_extractable(state, 0.1, 4)
    assert result.found == 1
    # any larger output alphabet parks mass 1 on a single symbol
    for z, est in result.curve[1:]:
        assert est.value == pytest.approx(1.0 - 1.0 / z, abs=1e-12)


def test_search_min_codebook_cases():
    state = binary_antipodal()
    result = search_min_codebook(state, 0.25, 4)
    assert result.found == 2
    none_found = search_min_codebook(state, 0.1, 4)
    assert none_found.found is None
    assert none_found.cap_limited
    assert none_found.curve[-1][1].value == pytest.approx(3.0 / 16.0, abs=1e-12)

    rng = np.random.default_rng(75)
    rho = rng.dirichlet(np.ones(2))
    product = CQState([0.5, 0.5], [np.diag(rho).astype(complex)] * 2)
    assert search_min_codebook(product, 0.2, 3).found == 1


def test_search_refuses_infeasible_enumeration():
    state = CQState([1.0 / 30] * 30, [[[1.0]]] * 30)
    with pytest.raises(DomainError, match="certific"):
        search_max_extractable(state, 0.3, 4)
    # C(40, 30) ~ 8.5e8 codebook types over the curve up to m=10
    with pytest.raises(DomainError, match="certific"):
        search_min_codebook(state, 0.3, 10)


def test_family_descriptor_kinds():
    fam = uniform_function_family(3, 2, "exact")
    assert fam.kind == "exhaustive-uniform-function"
    assert fam.table_count == 8
    fam = uniform_function_family(3, 2, "mc")
    assert fam.kind == "sampled-uniform-function"


def test_refuses_non_integral_sizes_before_any_work(monkeypatch):
    state = _oracle_state(82, 3, 2, False)

    def no_eigensolver(*args, **kwargs):
        raise AssertionError("eigensolver called before the refusal")

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", no_eigensolver)
        patch.setattr(np.linalg, "eigh", no_eigensolver)
        patch.setattr(simulate, "_half_norms", no_eigensolver)
        for runner, method in itertools.product(
                (simulate_pa, simulate_covering), ("exact", "mc")):
            for bad in (2.5, "2", None, math.nan, math.inf):
                with pytest.raises(DomainError, match="not an integer"):
                    runner(state, bad, method, samples=100)
            for name, bad in (("samples", 100.5), ("workers", 1.5), ("seed", 0.5)):
                with pytest.raises(DomainError, match=f"{name}=.* not an integer"):
                    runner(state, 2, method, **{name: bad})
        for search in (search_max_extractable, search_min_codebook):
            for bad in (2.5, "3", None):
                with pytest.raises(DomainError, match="not an integer"):
                    search(state, 0.3, bad)
    # integral values of other types are used as ints
    exact = simulate_pa(state, 2.0, "exact", seed=np.int64(4))
    assert exact == simulate_pa(state, 2, "exact", seed=4)
    assert type(exact.samples) is int and type(exact.seed) is int
    mc = simulate_covering(state, np.int64(3), "mc", samples=300.0, workers=2.0)
    assert mc == simulate_covering(state, 3, "mc", samples=300)
    assert type(mc.samples) is int
    assert search_min_codebook(state, 0.3, 4.0) == search_min_codebook(state, 0.3, 4)


def test_small_block_half_norms_match_eigvalsh(monkeypatch):
    rng = np.random.default_rng(88)
    for dim in (1, 2):
        h = rng.normal(size=(64, dim, dim)) + 1j * rng.normal(size=(64, dim, dim))
        v = rng.normal(size=(64, dim)) + 1j * rng.normal(size=(64, dim))
        herm = h + h.conj().swapaxes(1, 2)
        rank_one = v[:, :, None] * v[:, None, :].conj()
        trace = np.trace(rank_one, axis1=1, axis2=2)[:, None, None]
        stacks = [
            herm,
            rank_one,
            rank_one - 0.5 * trace * np.eye(dim),  # traceless for d = 2
            -(h @ h.conj().swapaxes(1, 2)),
            np.eye(dim) + 1e-13 * herm,
            np.zeros((3, dim, dim), dtype=complex),
        ]
        for stack, scale in itertools.product(stacks, (1e-150, 1e-8, 1.0, 1e8, 1e150)):
            stack = scale * stack
            with counting_eigensolves(monkeypatch) as matrices_per_call:
                half = simulate._half_norms(stack)
            assert matrices_per_call == []
            expected = 0.5 * np.abs(np.linalg.eigvalsh(stack)).sum(axis=1)
            np.testing.assert_allclose(half, expected, rtol=1e-14, atol=0.0)
    # the upper triangle is not read, as by eigvalsh
    assert np.array_equal(simulate._half_norms(np.tril(herm)), simulate._half_norms(herm))
    # larger blocks go to the stacked eigensolver in a small batch, and to
    # the closed form in a batch of _CHARPOLY_BATCH at d = 3
    stack = np.stack([random_cq_state(rng, 1, 3).rhos[0] - np.eye(3) / 3 for _ in range(5)])
    with counting_eigensolves(monkeypatch) as matrices_per_call:
        half = simulate._half_norms(stack)
    assert matrices_per_call == [5]
    assert half == pytest.approx([0.5 * svd_trace_norm(a) for a in stack], rel=1e-14)
    h = rng.normal(size=(simulate._CHARPOLY_BATCH, 3, 3)) + 1j * rng.normal(
        size=(simulate._CHARPOLY_BATCH, 3, 3))
    stack = h + h.conj().swapaxes(1, 2)
    with counting_eigensolves(monkeypatch) as matrices_per_call:
        half = simulate._half_norms(stack)
    assert matrices_per_call == []
    expected = 0.5 * np.abs(np.linalg.eigvalsh(stack)).sum(axis=1)
    np.testing.assert_allclose(half, expected, rtol=1e-14, atol=0.0)


def _lapack_half_norms(stack):
    return 0.5 * np.abs(np.linalg.eigvalsh(stack)).sum(axis=1)


def test_charpoly_half_norms_match_eigvalsh(monkeypatch):
    rng = np.random.default_rng(89)
    # every batch takes the closed form, and its flagged operators LAPACK
    monkeypatch.setattr(simulate, "_CHARPOLY_BATCH", 1)
    for dim in (3, 4):
        h = rng.normal(size=(64, dim, dim)) + 1j * rng.normal(size=(64, dim, dim))
        v = rng.normal(size=(64, dim)) + 1j * rng.normal(size=(64, dim))
        herm = h + h.conj().swapaxes(1, 2)
        rank_one = v[:, :, None] * v[:, None, :].conj()
        trace = np.trace(rank_one, axis1=1, axis2=2)[:, None, None]
        stacks = [
            herm,
            rank_one,
            rank_one - trace * np.eye(dim) / dim,  # traceless
            -(h @ h.conj().swapaxes(1, 2)),
            np.eye(dim) + 1e-13 * herm,
            np.zeros((3, dim, dim), dtype=complex),
        ]
        for stack, scale in itertools.product(stacks, (1e-150, 1e-8, 1.0, 1e8, 1e150)):
            stack = scale * stack
            with counting_eigensolves(monkeypatch) as matrices_per_call:
                closed, flagged = simulate._charpoly_half_norms(stack)
            assert matrices_per_call == []
            expected = _lapack_half_norms(stack)
            # the closed form meets the tolerance wherever the guard trusts it
            np.testing.assert_allclose(closed[~flagged], expected[~flagged], rtol=1e-14, atol=0.0)
            with counting_eigensolves(monkeypatch) as matrices_per_call:
                half = simulate._half_norms(stack)
            assert matrices_per_call == ([int(flagged.sum())] if flagged.any() else [])
            np.testing.assert_allclose(half, expected, rtol=1e-14, atol=0.0)
        # neither the upper triangle nor the diagonal's imaginary part is read
        poisoned = herm.copy()
        rows, cols = np.triu_indices(dim, 1)
        poisoned[:, rows, cols] = np.nan
        poisoned.imag[:, range(dim), range(dim)] = np.nan
        for got, want in zip(simulate._charpoly_half_norms(poisoned),
                             simulate._charpoly_half_norms(herm)):
            assert np.array_equal(got, want)


def test_charpoly_half_norms_of_subnormal_operators(monkeypatch):
    # a largest |entry| below 2^-1022 must not overflow the power-of-two
    # scale; the values are subnormal, so they agree with eigvalsh of the
    # stack scaled up by 2^1100 to 1e-14 relative plus a few spacings
    rng = np.random.default_rng(97)
    monkeypatch.setattr(simulate, "_CHARPOLY_BATCH", 1)
    for dim, scale in itertools.product((3, 4), (1e-310, 5e-324)):
        h = rng.normal(size=(64, dim, dim)) + 1j * rng.normal(size=(64, dim, dim))
        stack = scale * (h + h.conj().swapaxes(1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            closed, flagged = simulate._charpoly_half_norms(stack)
            half = simulate._half_norms(stack)
        scaled_up = np.ldexp(stack.real, 1100) + 1j * np.ldexp(stack.imag, 1100)
        expected = np.ldexp(_lapack_half_norms(scaled_up), -1100)
        assert np.isfinite(closed).all() and expected.min() > 0.0
        np.testing.assert_allclose(half, expected, rtol=1e-14, atol=4 * 2.0 ** -1074)
        np.testing.assert_allclose(closed[~flagged], expected[~flagged],
                                   rtol=1e-14, atol=4 * 2.0 ** -1074)


def test_charpoly_operators_give_their_own_bits_in_a_mixed_batch(monkeypatch):
    rng = np.random.default_rng(91)
    monkeypatch.setattr(simulate, "_CHARPOLY_BATCH", 1)
    for dim in (3, 4):
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        generic = h + h.conj().T
        diagonal = np.diag(rng.normal(size=dim)).astype(complex)
        zero = np.zeros((dim, dim), dtype=complex)
        # entries of 1e-170, whose squares underflow, beside entries of 1
        underflow = np.zeros((dim, dim), dtype=complex)
        underflow[1, 1] = 1e-170
        underflow[1, 0] = underflow[0, 1] = 1e-170
        underflow[2, 0] = underflow[0, 2] = 1.0
        underflow[-1, -1] += 0.25
        # a double zero eigenvalue: the guard sends it to LAPACK
        v = h[0]
        rank_one = np.outer(v, v.conj())
        batch = np.stack([diagonal, zero, generic, underflow, rank_one])
        flagged = simulate._charpoly_half_norms(batch)[1]
        assert flagged[-1] and not flagged[:3].any(), dim
        together = simulate._half_norms(batch)
        for i, operator in enumerate(batch):
            alone = simulate._half_norms(operator[None])
            assert np.array_equal(alone, together[i:i + 1]), (dim, i)
        np.testing.assert_allclose(together, _lapack_half_norms(batch), rtol=1e-14, atol=0.0)


def _in_random_bases(rng, spectra):
    """U diag(λ) U† for each row λ of ``spectra``, U Haar-random unitary."""
    n, dim = spectra.shape
    q, r = np.linalg.qr(rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim)))
    u = q * (np.diagonal(r, axis1=1, axis2=2) / np.abs(np.diagonal(r, axis1=1, axis2=2)))[:, None]
    return (u * spectra[:, None, :]) @ u.conj().swapaxes(1, 2)


def test_charpoly_degenerate_spectra_match_svd(monkeypatch):
    # spectra where the closed form's roots are ill conditioned: a double
    # zero, a ±1e-4 pair straddling zero, a 3e-9/-1e-9 pair whose roots
    # move by more than their gap, a triple eigenvalue, rank-2 PSD and one
    # exact zero, each in random bases; the guard must send the operators
    # whose values it cannot trust to LAPACK, and only those
    rng = np.random.default_rng(95)
    n = simulate._CHARPOLY_BATCH
    for dim in (3, 4):
        rest = rng.normal(size=(n, dim))
        double_zero, straddle, close, triple, rank_two, one_zero = (
            rest.copy() for _ in range(6))
        double_zero[:, :2] = 0.0
        straddle[:, :2] = 1e-4, -1e-4
        close[:, :2] = 3e-9, -1e-9
        triple[:, 1:] = triple[:, :1]
        rank_two[:] = np.abs(rank_two)
        rank_two[:, 2:] = 0.0
        one_zero[:, 0] = 0.0
        for spectra in (double_zero, straddle, close, triple, rank_two, one_zero):
            stack = _in_random_bases(rng, spectra)
            flagged = simulate._charpoly_half_norms(stack)[1]
            solved = []
            with counting_eigensolves(monkeypatch, solved) as matrices_per_call:
                half = simulate._half_norms(stack)
            assert matrices_per_call == ([int(flagged.sum())] if flagged.any() else [])
            assert all(np.array_equal(a, stack[flagged]) for a in solved)
            oracle = [0.5 * svd_trace_norm(a) for a in stack]
            np.testing.assert_allclose(half, oracle, rtol=1e-14, atol=0.0)


# (|X|, d, zero entry in p); every curve below is a single batch that
# mixes all of its sizes
_CURVE_STATES = [
    (1, 1, False),
    (1, 2, False),
    (2, 1, False),
    (2, 2, False),
    (3, 1, False),
    (3, 2, False),
    (3, 2, True),
]


def test_exact_curves_match_brute_force_and_single_size_calls(monkeypatch):
    cap = 5
    for alphabet, dim, zero_p in _CURVE_STATES:
        state = _oracle_state(83, alphabet, dim, zero_p)
        with counting_half_norm_batches(monkeypatch) as matrices_per_call:
            pa = search_max_extractable(state, 0.3, cap)
            cov = search_min_codebook(state, 0.3, cap)
        assert matrices_per_call == [cap * 2 ** alphabet,
                                     math.comb(cap + alphabet, alphabet) - 1]
        assert [z for z, _ in pa.curve] == [m for m, _ in cov.curve] == list(range(1, cap + 1))
        for (z, est), (m, cov_est) in zip(pa.curve, cov.curve):
            case = (alphabet, dim, zero_p, z)
            assert est.value == pytest.approx(brute_force_pa(state, z), abs=1e-12), case
            assert cov_est.value == pytest.approx(brute_force_covering(state, m), abs=1e-12), case
            # a curve's rows have the bits of a one-size call's, and each
            # size's sum is exactly rounded
            single = simulate_pa(state, z, "exact")
            assert est.value == single.value, case
            assert (est.samples, est.method, est.half_width) == (single.samples, "exact", 0.0)
            single = simulate_covering(state, m, "exact")
            assert cov_est.value == single.value, case
            assert cov_est.samples == single.samples


def test_exact_curve_reads_each_size_from_one_term_stream(monkeypatch):
    # sizes of 3, 1, 9, 4 and 7 rows over chunks of 4, 6, 3, 4 and 7:
    # a one-row size, a 9-row size longer than the chunk it starts in,
    # and sizes ending at chunk ends (rows 4, 13, 17, 24) and inside one
    rng = np.random.default_rng(95)
    lengths, rows = [3, 1, 9, 4, 7], [4, 6, 3, 4, 7]
    chunks = []
    for k in rows:
        a = rng.normal(size=(k, 2, 2)) + 1j * rng.normal(size=(k, 2, 2))
        # weights over 40 orders of magnitude, so a naive sum rounds otherwise
        chunks.append((a + a.conj().transpose(0, 2, 1), 10.0 ** rng.uniform(-20, 20, k)))
    terms = np.concatenate([w * simulate._half_norms(s) for s, w in chunks]).tolist()
    ends = list(itertools.accumulate(lengths))
    expected = [math.fsum(terms[end - n:end]) for n, end in zip(lengths, ends)]
    # the exact rational sum, rounded once, is an independent oracle
    assert expected == [float(sum(map(Fraction, terms[end - n:end])))
                        for n, end in zip(lengths, ends)]
    assert expected != [sum(terms[end - n:end]) for n, end in zip(lengths, ends)]

    def stream():
        yield from chunks
        raise AssertionError("a chunk past the last size was pulled")

    with counting_half_norm_batches(monkeypatch) as matrices_per_batch:
        values = simulate._exact_curve(lengths, stream())
    assert values == expected
    assert matrices_per_batch == rows


def test_exact_curve_splits_sizes_across_batches(monkeypatch):
    # batches of 7 operators: sizes straddle batch boundaries and a
    # batch can hold the tail of one size, whole sizes and the head of
    # another
    for alphabet, dim, zero_p in _CURVE_STATES[3:]:
        state = _oracle_state(84, alphabet, dim, zero_p)
        whole_pa = search_max_extractable(state, 0.3, 6).curve
        whole_cov = search_min_codebook(state, 0.3, 6).curve
        monkeypatch.setattr(simulate, "_CHUNK", 7)
        with counting_half_norm_batches(monkeypatch) as matrices_per_call:
            split_pa = search_max_extractable(state, 0.3, 6).curve
        assert matrices_per_call == [7] * (6 * 2 ** alphabet // 7) + [6 * 2 ** alphabet % 7]
        with counting_half_norm_batches(monkeypatch) as matrices_per_call:
            split_cov = search_min_codebook(state, 0.3, 6).curve
        types = math.comb(6 + alphabet, alphabet) - 1
        assert sum(matrices_per_call) == types
        assert len(matrices_per_call) == math.ceil(types / 7)
        monkeypatch.undo()
        for (z, whole), (z_split, split) in zip(whole_pa + whole_cov, split_pa + split_cov):
            assert z == z_split
            assert split.value == pytest.approx(whole.value, abs=1e-14)


# (search, |X|, d, cap, trace-norm batches): curves whose chunks reach
# _CHARPOLY_BATCH at d = 3 and 4; the covering search streams
# C(43, 3) - 1 = 12,340 types, three full chunks and a 52-type tail,
# the extraction search 3 * 2^10 subsets in one chunk
_CLOSED_FORM_CURVES = [
    (search_min_codebook, 3, 3, 40, [4096] * 3 + [52]),
    (search_min_codebook, 3, 4, 40, [4096] * 3 + [52]),
    (search_max_extractable, 10, 3, 3, [3072]),
]


def test_exact_curves_take_the_closed_form_in_large_batches_at_d_3_and_4(monkeypatch):
    for search, alphabet, dim, cap, batches in _CLOSED_FORM_CURVES:
        state = _oracle_state(93, alphabet, dim, False)
        with counting_half_norm_batches(monkeypatch) as matrices_per_batch:
            with counting_eigensolves(monkeypatch) as matrices_per_call:
                curve = search(state, 0.3, cap).curve
        # the guard flags none of these operators: only the covering
        # search's tail chunk reaches LAPACK
        assert matrices_per_batch == batches
        assert matrices_per_call == [b for b in batches if b < simulate._CHARPOLY_BATCH]
        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_CHARPOLY_BATCH", simulate._CHUNK + 1)
            with counting_eigensolves(monkeypatch) as matrices_per_call:
                lapack = search(state, 0.3, cap).curve
        assert matrices_per_call == batches
        np.testing.assert_allclose([est.value for _, est in curve],
                                   [est.value for _, est in lapack], rtol=1e-14, atol=0.0)


def test_a_curve_row_and_its_one_size_call_agree_across_kernels(monkeypatch):
    # a covering size of the |X| = 3 curves holds C(m + 2, 2) types, fewer
    # than _CHARPOLY_BATCH up to m = 21, so its one-size call takes LAPACK
    # there and the closed form beyond, while its curve row sits in a
    # closed-form chunk (m >= 6), straddles the closed-form and LAPACK
    # chunks (m = 5) or sits in the LAPACK tail (m <= 4): the rows agree to
    # about 1e-15 relative, the declared relaxation of bit-identity across
    # kernels
    for search, alphabet, dim, cap, _ in _CLOSED_FORM_CURVES[:2]:
        state = _oracle_state(93, alphabet, dim, False)
        curve = search(state, 0.3, cap).curve
        for m, est in curve:
            with counting_eigensolves(monkeypatch) as matrices_per_call:
                single = simulate_covering(state, m, "exact").value
            types = math.comb(m + alphabet - 1, alphabet - 1)
            assert matrices_per_call == ([types] if types < simulate._CHARPOLY_BATCH else [])
            np.testing.assert_allclose(est.value, single, rtol=1e-14, atol=0.0)
        assert curve[5][1].value == pytest.approx(brute_force_covering(state, 6), abs=1e-12)
    # each extraction size's 1024 subsets are a closed-form batch of their own:
    # the same kernel, the same bits, and the brute-force value over all
    # 2^10 tables at z = 2
    search, alphabet, dim, cap, _ = _CLOSED_FORM_CURVES[2]
    state = _oracle_state(93, alphabet, dim, False)
    for z, est in search(state, 0.3, cap).curve:
        with counting_eigensolves(monkeypatch) as matrices_per_call:
            single = simulate_pa(state, z, "exact").value
        assert matrices_per_call == []
        assert est.value == single
    assert simulate_pa(state, 2, "exact").value == pytest.approx(brute_force_pa(state, 2),
                                                                 abs=1e-12)


def test_search_eigensolve_budget(monkeypatch):
    chunk = simulate._CHUNK
    # (search, |X|, cap, evaluations): subsets z_cap * 2^|X| for
    # extraction, all types up to m_cap for covering
    for search, alphabet, cap, work in [
        (search_min_codebook, 4, 8, math.comb(12, 4) - 1),
        (search_min_codebook, 3, 40, math.comb(43, 3) - 1),
        (search_max_extractable, 4, 8, 8 * 2 ** 4),
        (search_max_extractable, 10, 10, 10 * 2 ** 10),
        (search_max_extractable, 13, 3, 3 * 2 ** 13),
    ]:
        state = _oracle_state(85, alphabet, 2, False)
        with counting_half_norm_batches(monkeypatch) as matrices_per_call:
            search(state, 0.3, cap)
        assert sum(matrices_per_call) == work
        assert len(matrices_per_call) == math.ceil(work / chunk)
        assert max(matrices_per_call) <= chunk
    # a 4-symbol covering search up to 8: 494 types in one batch,
    # not one per codebook size
    state = _oracle_state(86, 4, 2, False)
    with counting_half_norm_batches(monkeypatch) as matrices_per_call:
        search_min_codebook(state, 0.25, 8)
    assert matrices_per_call == [494]


def test_covering_curve_is_one_composition_stream(monkeypatch):
    # the types of every m <= m_cap are the compositions of m_cap into
    # |X| + 1 parts, the slack m_cap - m first: one enumeration per curve,
    # stopped after the last type of the smallest size, and a single size
    # m is the slack-0 prefix of C(m+|X|-1, |X|-1) ranks of that stream
    calls = []
    compositions = simulate._compositions

    def recording(n, counts, rows, ranks=None):
        calls.append((n, counts.shape[0], ranks))
        return compositions(n, counts, rows, ranks)

    monkeypatch.setattr(simulate, "_compositions", recording)
    state = _oracle_state(86, 4, 2, False)
    with counting_half_norm_batches(monkeypatch) as matrices_per_call:
        search_min_codebook(state, 0.25, 8)
    assert calls == [(8, 5, 494)]
    assert matrices_per_call == [494]
    # a single size's values equal its curve row to the bit: a zero-probability
    # symbol, whose types weigh 0 in the same stream; one symbol, one type
    # per size; and |X| > 64, whose chunks are shorter than _CHUNK
    for state, cap in [(_oracle_state(88, 3, 2, True), 6),
                       (_oracle_state(89, 1, 2, False), 6),
                       (_oracle_state(90, 70, 2, False), 3)]:
        alphabet = state.alphabet_size
        calls.clear()
        curve = search_min_codebook(state, 0.3, cap).curve
        assert calls == [(cap, alphabet + 1, math.comb(cap + alphabet, alphabet) - 1)]
        for m, est in curve:
            if alphabet < 70:
                assert est.value == pytest.approx(brute_force_covering(state, m), abs=1e-12), m
            assert est.value == simulate_covering(state, m, "exact").value, m
        assert calls[1:] == [(m, alphabet + 1, math.comb(m + alphabet - 1, alphabet - 1))
                             for m in range(1, cap + 1)]


def test_covering_refusals_precede_any_type_table_or_draw(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a type table or a codebook was built")

    monkeypatch.setattr(simulate, "_type_tables", refuse)
    monkeypatch.setattr(simulate, "_codebook_types", refuse)
    # one symbol has one type at every m, but its type tables have m + 1 columns
    one = CQState([1.0], [np.eye(2) / 2])
    with pytest.raises(DomainError, match="enumeration cap"):
        simulate_covering(one, simulate.ENUMERATION_CAP, "exact")
    # a Monte-Carlo codebook's m uniforms are drawn at once
    with pytest.raises(DomainError, match="m must be at most"):
        simulate_covering(binary_antipodal(), simulate.MC_SAMPLE_CAP + 1, "mc", samples=2)


def test_extraction_refuses_output_sizes_beyond_int64_before_any_work(monkeypatch):
    state = bit_pair_trivial_side()
    # the largest size runs in both modes: every table is all but surely
    # injective, so the distance is 1 to within 2^-62
    top = 2 ** 63 - 1
    for method in ("exact", "mc"):
        assert simulate_pa(state, top, method, samples=64).value == pytest.approx(1.0)

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the refusal")

    for name in ("_extraction_curve", "_set_table", "_chunk_rng", "_half_norms"):
        monkeypatch.setattr(simulate, name, refuse)
    for z in (2 ** 63, 2 ** 64, 10 ** 30):
        for method in ("exact", "mc"):
            with pytest.raises(DomainError, match=r"at most 2\*\*63 - 1"):
                simulate_pa(state, z, method, samples=64)
    monkeypatch.undo()
    # a search counts its rows from the cap itself, not len() of the range
    monkeypatch.setattr(simulate, "_half_norms", refuse)
    with pytest.raises(DomainError, match=f"{2 ** 65} preimage subsets exceed the enumeration"):
        search_max_extractable(state, 0.3, 2 ** 63)


def _streamed_rows(monkeypatch):
    """Patch ``simulate._exact_curve`` to count the rows its chunks
    stream; returns the list that each call appends its count to."""
    rows = []
    exact_curve = simulate._exact_curve

    def counting(lengths, chunks):
        rows.append(0)

        def counted():
            for stack, weights in chunks:
                rows[-1] += len(stack)
                yield stack, weights

        return exact_curve(lengths, counted())

    monkeypatch.setattr(simulate, "_exact_curve", counting)
    return rows


def test_each_curve_runs_at_the_cap_and_refuses_one_row_more(monkeypatch):
    # (call, rows streamed, what bounds the work, its count): every
    # exact call and search counts the rows its own curve streams, and a
    # covering curve also its m_cap + 1 type-table columns; a covering
    # search streams C(m_cap+|X|, |X|) - 1 types, the m = 0 type never
    three, one = _oracle_state(91, 3, 2, False), CQState([1.0], [np.eye(2) / 2])
    cases = [
        (lambda: simulate_pa(three, 4, "exact"), 8, "preimage subsets", 8),
        (lambda: search_max_extractable(three, 0.3, 5), 40, "preimage subsets", 40),
        (lambda: simulate_covering(three, 4, "exact"), 15, "codebook types", 15),
        (lambda: search_min_codebook(three, 0.3, 4), math.comb(7, 3) - 1, "codebook types",
         math.comb(7, 3) - 1),
        (lambda: simulate_covering(one, 6, "exact"), 1, "type-table columns", 7),
        (lambda: search_min_codebook(one, 0.3, 6), 6, "type-table columns", 7),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the refusal")

    for call, rows, what, count in cases:
        with monkeypatch.context() as patch:
            streamed = _streamed_rows(patch)
            patch.setattr(simulate, "ENUMERATION_CAP", count)
            call()
        assert streamed == [rows], what
        with monkeypatch.context() as patch:
            patch.setattr(simulate, "ENUMERATION_CAP", count - 1)
            for name in ("_type_tables", "_codebook_types", "_contract", "_half_norms"):
                patch.setattr(simulate, name, refuse)
            patch.setattr(np.linalg, "eigvalsh", refuse)
            patch.setattr(np.linalg, "eigh", refuse)
            with pytest.raises(DomainError) as refusal:
                call()
        # one message: the count, what was counted, the cap, both remedies
        message = str(refusal.value)
        assert f"{count} {what} exceed the enumeration cap {count - 1}" in message
        assert "method='mc'" in message and "lower the cap" in message
        assert "certific" in message
    # the Monte-Carlo remedy of a refused single size runs
    monkeypatch.setattr(simulate, "ENUMERATION_CAP", 0)
    assert simulate_pa(three, 4, "mc", samples=64).method == "monte-carlo"
    assert simulate_covering(three, 4, "mc", samples=64).method == "monte-carlo"


def test_exact_covering_contracts_each_chunk_once(monkeypatch):
    # a one-symbol curve 1..5000 holds one type per size: 5000 rows in two
    # chunks of at most _CHUNK, each one product whatever its sizes
    calls = []
    contract = simulate._contract

    def counting(rows, blocks):
        calls.append(len(rows))
        return contract(rows, blocks)

    monkeypatch.setattr(simulate, "_contract", counting)
    one = _oracle_state(92, 1, 2, False)
    curve = search_min_codebook(one, 0.3, 5000).curve
    assert calls == [simulate._CHUNK, 5000 - simulate._CHUNK]
    assert [m for m, _ in curve] == list(range(1, 5001))
    calls.clear()
    search_min_codebook(_oracle_state(86, 4, 2, False), 0.25, 8)
    assert calls == [494]


def test_near_cap_search_memory_is_one_batch():
    # 1953 * 2^10 = 1,999,872 subset evaluations, just under the cap
    state = _oracle_state(87, 10, 1, False)
    tracemalloc.start()
    try:
        result = search_max_extractable(state, 0.3, 1953)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.curve) == 1953
    assert result.curve[-1][1].value == simulate_pa(state, 1953, "exact").value
    # a stacked batch of 4096 complex 1x1 operators takes 66 kB
    assert peak < 16e6
