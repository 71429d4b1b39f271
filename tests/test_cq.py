"""Classical-quantum state construction, I/O, and type spectra."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest

from oneshot_qit import (
    Codebook,
    CQState,
    DomainError,
    HashFamily,
    codebook_state,
    dump_state,
    iid_type_spectrum,
    joint_embed,
    load_state,
    regularize,
    state_from_document,
    state_to_document,
)

from oneshot_qit import cq
from oneshot_qit.cq import _compositions

from conftest import binary_antipodal, bit_pair_trivial_side, random_cq_state


def test_valid_classical_bit_pair():
    state = binary_antipodal()
    assert state.alphabet_size == 2
    assert state.dim_b == 2
    assert np.allclose(state.marginal(), np.eye(2) / 2)


def test_probability_sum_rejected():
    with pytest.raises(DomainError, match="probability sum"):
        CQState(p=[0.6, 0.6], rhos=[[[1.0]], [[1.0]]])


def test_non_psd_block_rejected_with_eigenvalue():
    block = [[0.505, 0.51], [0.51, 0.505]]  # eigenvalues 1.015, -0.005
    with pytest.raises(DomainError, match="not PSD.*-5"):
        CQState(p=[1.0], rhos=[block])


def test_first_failing_block_is_named():
    good = np.eye(2) / 2
    not_psd = [[0.505, 0.51], [0.51, 0.505]]
    bad_trace = np.eye(2)
    with pytest.raises(DomainError, match="block 1 is not PSD"):
        CQState(p=[0.3, 0.3, 0.4], rhos=[good, not_psd, bad_trace])
    with pytest.raises(DomainError, match="block 1 has trace 2"):
        CQState(p=[0.3, 0.3, 0.4], rhos=[good, bad_trace, not_psd])
    with pytest.raises(DomainError, match="not Hermitian"):
        CQState(p=[0.5, 0.5], rhos=[good, [[0.5, 0.1], [0.0, 0.5]]])


def test_probability_renormalized_within_tolerance():
    state = CQState(p=[0.5 + 2e-10, 0.5], rhos=[[[1.0]], [[1.0]]])
    assert state.p.sum() == pytest.approx(1.0, abs=1e-15)


def test_total_mass_invariant(corpus):
    for state in corpus:
        total = sum(
            state.p[x] * np.trace(state.rhos[x]).real
            for x in range(state.alphabet_size)
        )
        assert total == pytest.approx(1.0, abs=1e-10)


def test_joint_embed_blocks_and_marginal():
    state = binary_antipodal()
    emb = joint_embed(state)
    assert np.allclose(emb.rho_b, np.eye(2) / 2)
    for x in range(state.alphabet_size):
        assert np.max(np.abs(emb.rho_xb[x] - state.p[x] * state.rhos[x])) <= 1e-12
        assert np.max(np.abs(emb.one_x_tensor_rho_b[x] - emb.rho_b)) <= 1e-12


def test_joint_embed_singleton_alphabet():
    rho = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
    state = CQState(p=[1.0], rhos=[rho])
    emb = joint_embed(state)
    assert np.max(np.abs(emb.rho_xb - rho)) <= 1e-12
    assert np.max(np.abs(emb.rho_x_tensor_rho_b - rho)) <= 1e-12


def test_joint_embed_partial_trace_consistency():
    rng = np.random.default_rng(21)
    state = random_cq_state(rng, 3, 2)
    emb = joint_embed(state)
    partial = sum(emb.rho_xb[x] for x in range(state.alphabet_size))
    direct = sum(state.p[x] * state.rhos[x] for x in range(state.alphabet_size))
    assert np.max(np.abs(partial - direct)) <= 1e-12
    assert np.max(np.abs(emb.rho_b - direct)) <= 1e-12


def test_regularize_closed_form_and_trace():
    state = CQState(p=[1.0], rhos=[[[1.0, 0.0], [0.0, 0.0]]])
    out = regularize(state, 0.1)
    lam = np.linalg.eigvalsh(out.rhos[0])
    assert np.allclose(sorted(lam), [0.05, 0.95])
    rng = np.random.default_rng(22)
    state = random_cq_state(rng, 3, 3)
    out = regularize(state, 0.2)
    for x in range(3):
        assert np.trace(out.rhos[x]).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(out.rhos[x])[0] >= 0.2 / 3 - 1e-12
    with pytest.raises(DomainError):
        regularize(state, 1.5)


def test_regularize_twice_floor():
    state = binary_antipodal()
    out = regularize(regularize(state, 0.3), 0.1)
    for x in range(2):
        assert np.linalg.eigvalsh(out.rhos[x])[0] >= 0.1 / 2 - 1e-12


def test_regularize_small_eps_close_in_trace_norm():
    state = binary_antipodal()
    eps = 1e-4
    out = regularize(state, eps)
    for x in range(2):
        diff = np.linalg.eigvalsh(out.rhos[x] - state.rhos[x])
        assert np.sum(np.abs(diff)) <= 2 * eps


# ---------------------------------------------------------------------------
# State files
# ---------------------------------------------------------------------------

def test_state_file_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    state = random_cq_state(rng, 3, 2)
    path = tmp_path / "state.json"
    dump_state(state, path)
    loaded = load_state(path)
    assert np.max(np.abs(loaded.rhos - state.rhos)) <= 1e-15
    assert np.max(np.abs(loaded.p - state.p)) <= 1e-15


def test_state_document_validation():
    doc = state_to_document(bit_pair_trivial_side())
    state = state_from_document(doc)
    assert state.alphabet_size == 2
    bad = dict(doc)
    bad["p"] = [0.6, 0.6]
    with pytest.raises(DomainError):
        state_from_document(bad)
    bad = dict(doc)
    del bad["rhos"]
    with pytest.raises(DomainError, match="malformed"):
        state_from_document(bad)


def test_state_file_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DomainError, match="JSON"):
        load_state(path)


def test_state_file_reader_symmetrizes(tmp_path):
    doc = {
        "alphabet_size": 1,
        "dim_b": 2,
        "p": [1.0],
        "rhos": [[[[0.5, 0.0], [0.1, 1e-13]], [[0.1, -1e-13], [0.5, 0.0]]]],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    state = load_state(path)
    assert np.max(np.abs(state.rhos[0] - state.rhos[0].conj().T)) == 0.0


# ---------------------------------------------------------------------------
# Hash family and codebook descriptors
# ---------------------------------------------------------------------------

def test_uniform_function_family_pairwise_uniform():
    domain, rng_size = 3, 2
    family = HashFamily(domain, rng_size, "exhaustive-uniform-function")
    tables = [
        [(idx // rng_size ** pos) % rng_size for pos in range(domain)]
        for idx in range(family.table_count)
    ]
    for x in range(domain):
        for x2 in range(domain):
            if x == x2:
                continue
            for z in range(rng_size):
                for z2 in range(rng_size):
                    hits = sum(1 for t in tables if t[x] == z and t[x2] == z2)
                    assert hits * rng_size ** 2 == family.table_count


def test_codebook_validation_and_state():
    state = binary_antipodal()
    book = Codebook(codewords=[0, 1], alphabet_size=2)
    assert book.size == 2
    assert np.allclose(codebook_state(state, book), np.eye(2) / 2)
    with pytest.raises(DomainError):
        Codebook(codewords=[0, 2], alphabet_size=2)


# ---------------------------------------------------------------------------
# Type spectra
# ---------------------------------------------------------------------------

def test_type_spectrum_blocklength_one():
    p, q = [1.0 / 3.0, 2.0 / 3.0], [0.5, 0.5]
    spec = iid_type_spectrum(p, q, 1)
    assert np.allclose(sorted(np.exp(spec.log_p_mass)), sorted(p))
    assert np.allclose(sorted(spec.llr), sorted(np.log(np.array(p) / np.array(q))))
    assert np.allclose(spec.multiplicity, 1.0)


def test_type_spectrum_equal_distributions():
    spec = iid_type_spectrum([0.5, 0.5], [0.5, 0.5], 8)
    assert np.max(np.abs(spec.llr)) <= 1e-12
    assert spec.total_p_mass() == pytest.approx(1.0, abs=1e-12)


def test_type_spectrum_n2_multiplicities_by_enumeration():
    p, q = np.array([1.0 / 3.0, 2.0 / 3.0]), np.array([0.5, 0.5])
    spec = iid_type_spectrum(p, q, 2)
    assert np.allclose(sorted(spec.multiplicity), [1.0, 1.0, 2.0])
    # brute force over the 4 outcomes
    outcome_mass: dict[float, float] = {}
    for i in range(2):
        for j in range(2):
            ratio = round(math.log(p[i] / q[i]) + math.log(p[j] / q[j]), 12)
            outcome_mass[ratio] = outcome_mass.get(ratio, 0.0) + p[i] * p[j]
    got = {
        round(float(l), 12): float(np.exp(m))
        for l, m in zip(spec.llr, spec.log_p_mass)
    }
    assert set(got) == set(outcome_mass)
    for key, mass in outcome_mass.items():
        assert got[key] == pytest.approx(mass, abs=1e-12)


def test_type_spectrum_mass_sums_to_one_various_n():
    p, q = [0.2, 0.5, 0.3], [0.4, 0.4, 0.2]
    for n in (1, 3, 10, 50):
        spec = iid_type_spectrum(p, q, n)
        assert spec.total_p_mass() == pytest.approx(1.0, abs=1e-12)


def test_type_spectrum_zero_probability_symbol_without_warnings():
    p, q = [0.5, 0.5, 0.0], [0.3, 0.3, 0.4]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = iid_type_spectrum(p, q, 3)
    types = _compositions(3, 3)
    uses_zero = types[:, 2] > 0
    assert np.all(spec.log_p_mass[uses_zero] == -np.inf)
    assert np.all(np.isfinite(spec.log_p_mass[~uses_zero]))
    assert spec.total_p_mass() == pytest.approx(1.0, abs=1e-12)


def test_compositions_in_lexicographic_order():
    for n, k in ((0, 1), (4, 1), (0, 3), (1, 4), (5, 2), (5, 3), (4, 4), (3, 6)):
        expected = sorted(
            t for t in itertools.product(range(n + 1), repeat=k) if sum(t) == n
        )
        assert _compositions(n, k).tolist() == [list(t) for t in expected]
    # one coordinate per symbol, with no recursion on the alphabet size
    assert _compositions(1, 1200).tolist() == np.eye(1200, dtype=int)[::-1].tolist()


def test_type_spectrum_rejects_bad_inputs():
    with pytest.raises(DomainError):
        iid_type_spectrum([0.5, 0.5], [1.0, 0.0], 2)
    with pytest.raises(DomainError):
        iid_type_spectrum([0.5, 0.5], [0.5, 0.5], 0)
    with pytest.raises(DomainError):
        iid_type_spectrum([0.7, 0.3], [0.5, 0.5], 20_000)


def test_type_spectrum_caps_entries_before_building_them(monkeypatch):
    def no_compositions(*args, **kwargs):
        raise AssertionError("type classes built before the refusal")

    monkeypatch.setattr(cq, "_compositions", no_compositions)
    # 720,600 classes pass a cap on classes alone, but hold 864.7M entries
    k = 1200
    uniform = np.full(k, 1.0 / k)
    with pytest.raises(DomainError, match="cap"):
        iid_type_spectrum(uniform, uniform, 2)
