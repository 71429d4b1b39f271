"""Protocol simulators and certified size searches."""

import itertools
import math
import tracemalloc
import warnings

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
    """A Monte-Carlo extraction estimate with the tables and per-table
    values of every chunk."""
    chunks = []
    kernel = simulate._hash_values

    def recording(tables, *args):
        values = kernel(tables, *args)
        chunks.append((tables, values))
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
    ]:
        state = _oracle_state(76, alphabet, dim, zero_p)
        est, chunks = _recorded_mc(monkeypatch, state, z, 48, seed=9)
        [(tables, values)] = chunks
        assert tables.shape == (48, alphabet)
        assert est.value == np.mean(values)
        for table, value in zip(tables, values):
            assert value == pytest.approx(_dense_table_value(state, z, table), abs=1e-12)
        # the tables hit empty, singleton and (for |X| > 1) colliding blocks
        counts = np.stack([np.bincount(t, minlength=z) for t in tables])
        assert (counts == 0).any() and (counts == 1).any()
        assert (counts >= 2).any() == (alphabet > 1)


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
    again, [(tables, values)] = _recorded_mc(monkeypatch, state, 1024, 4096, 13)
    assert again.value == est.value
    for table, value in zip(tables[:3], values[:3]):
        assert value == pytest.approx(_dense_table_value(state, 1024, table), abs=1e-12)


def test_mc_workers_validated_and_pool_sized_by_chunks(monkeypatch):
    pool_sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", SerialPool)
    state = bit_pair_trivial_side()
    three_chunks = 3 * simulate._CHUNK
    serial = simulate_pa(state, 2, "mc", samples=three_chunks, seed=1)
    assert pool_sizes == []
    pooled = simulate_pa(state, 2, "mc", samples=three_chunks, seed=1, workers=8)
    assert pool_sizes == [3]
    assert pooled.value == serial.value
    simulate_covering(state, 2, "mc", samples=three_chunks, seed=1, workers=2)
    assert pool_sizes == [3, 2]
    simulate_pa(state, 2, "mc", samples=100, seed=1, workers=8)  # one chunk
    assert pool_sizes == [3, 2]
    for workers in (0, -3):
        for runner, method in itertools.product(
                (simulate_pa, simulate_covering), ("mc", "exact")):
            with pytest.raises(DomainError, match="workers"):
                runner(state, 2, method, samples=100, workers=workers)
    assert pool_sizes == [3, 2]


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
    # 1,200 types at m=1, generated without recursion
    state = random_cq_state(np.random.default_rng(79), 1200, 2)
    rho_b = np.einsum("x,xij->ij", state.p, state.rhos)
    expected = math.fsum(
        px * 0.5 * svd_trace_norm(rho - rho_b) for px, rho in zip(state.p, state.rhos)
    )
    est = simulate_covering(state, 1, "exact")
    assert est.value == pytest.approx(expected, abs=1e-12)
    assert est.samples == 1200


def test_covering_monte_carlo_scaling_sanity():
    state = binary_antipodal()
    est = simulate_covering(state, 10_000, "mc", samples=4000, seed=5)
    assert est.value <= 3.0 / math.sqrt(10_000)
    assert est.method == "monte-carlo"


def test_covering_monte_carlo_deterministic_across_workers():
    rng = np.random.default_rng(74)
    state = random_cq_state(rng, 3, 2)
    runs = [
        simulate_covering(state, 8, "mc", samples=20_000, seed=3, workers=w)
        for w in (1, 4)
    ]
    assert runs[0].value == runs[1].value


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
    # the last case spans three chunks, the third one partial
    for alphabet, m, dim, zero_p, samples in [
        (4, 1, 2, False, 64),
        (5, 3, 2, False, 64),
        (3, 9, 3, False, 64),
        (4, 6, 2, True, 64),
        (3, 4, 1, False, 64),
        (1, 5, 2, False, 64),
        (3, 5, 2, False, 2 * 4096 + 100),
    ]:
        state = _oracle_state(80, alphabet, dim, zero_p)
        est = simulate_covering(state, m, "mc", samples=samples, seed=14, workers=2)
        values = _dense_codebook_values(state, m, samples, seed=14)
        half = 1.96 * np.std(values, ddof=1) / math.sqrt(samples)
        assert est.samples == samples
        assert est.value == pytest.approx(np.mean(values), abs=1e-12)
        assert est.half_width == pytest.approx(half, abs=1e-12)


def test_covering_monte_carlo_memory_is_one_count_array_per_chunk():
    state = random_cq_state(np.random.default_rng(81), 1200, 2)
    tracemalloc.start()
    try:
        simulate_covering(state, 4, "mc", samples=4096, seed=15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # (4096, 1200) integer counts and their complex copy take 118 MB
    assert peak < 160e6


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
