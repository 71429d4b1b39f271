"""Classical-quantum state construction, I/O, and type spectra."""

import dataclasses
import itertools
import json
import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest

from oneshot_qit import (
    CQState,
    DomainError,
    dump_state,
    iid_type_spectrum,
    joint_embed,
    load_state,
    state_from_document,
    state_to_document,
)

from oneshot_qit import cq
from oneshot_qit.cli import run
from oneshot_qit.cq import _compositions, _type_tables

from conftest import (
    binary_antipodal,
    bit_pair_trivial_side,
    counting_eigensolves,
    random_cq_state,
)


def test_valid_classical_bit_pair():
    state = binary_antipodal()
    assert state.alphabet_size == 2
    assert state.dim_b == 2
    assert np.allclose(state.marginal(), np.eye(2) / 2)


def test_probability_sum_rejected():
    with pytest.raises(DomainError, match="probability sum"):
        CQState(p=[0.6, 0.6], rhos=[[[1.0]], [[1.0]]])


def test_non_finite_probability_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="non-finite"):
            CQState(p=[bad], rhos=[[[1.0]]])
        with pytest.raises(DomainError, match="non-finite"):
            CQState(p=[0.5, bad], rhos=[[[1.0]], [[1.0]]])


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
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="non-finite"):
            CQState(p=[0.5, 0.5], rhos=[good, [[0.5, bad], [bad, 0.5]]])


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


@pytest.mark.parametrize("field", ["alphabet_size", "dim_b"])
@pytest.mark.parametrize("value", [True, 1.5, 1.9, "2"])
def test_state_document_refuses_non_integral_sizes(field, value):
    # int() would read True, 1.5 and 1.9 as a valid 1x1 state
    doc = {"alphabet_size": 1, "dim_b": 1, "p": [1.0], "rhos": [[[[1.0, 0.0]]]]}
    state_from_document(doc)
    doc[field] = value
    with pytest.raises(DomainError, match=f"{field}=.* is not an integer"):
        state_from_document(doc)


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


def test_marginal_and_joint_embedding_are_derived_once_read_only():
    state = random_cq_state(np.random.default_rng(24), 3, 2)
    p, rhos = state.p[:, None, None], state.rhos
    marginal = state.marginal()
    emb = joint_embed(state)
    assert state.marginal() is marginal and joint_embed(state) is emb
    assert emb.rho_b is marginal
    direct = sum(state.p[x] * rhos[x] for x in range(state.alphabet_size))
    assert np.max(np.abs(marginal - direct)) <= 1e-15
    assert np.array_equal(emb.rho_xb, p * rhos)
    assert np.array_equal(emb.rho_x_tensor_rho_b, p * marginal)
    assert np.array_equal(emb.one_x_tensor_rho_b, np.stack([marginal] * 3))
    for array in (marginal, *vars(emb).values()):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0


def test_held_bytes_count_every_derived_array():
    # what a memoised state holds once its pairs and bounds have derived
    # everything, each distinct array once: the eigensystems of the four
    # joint operators come from the rho_x stack's and the marginal's, and
    # count toward the memo's bound; broadcast views hold nothing of their own
    state = random_cq_state(np.random.default_rng(29), 3, 2)
    emb = joint_embed(state)
    eigensystems = state._eigensystems
    assert list(eigensystems) == [f.name for f in dataclasses.fields(emb)]
    for name, (lam, v) in eigensystems.items():
        op = getattr(emb, name)
        assert lam.shape == op.shape[:-1] and v.shape == op.shape
        assert np.max(np.abs((v * lam[..., None, :]) @ v.conj().swapaxes(-1, -2) - op)) <= 1e-15
    assert eigensystems["rho_xb"][1] is state._rhos_eig[1]
    assert eigensystems["one_x_tensor_rho_b"][1] is eigensystems["rho_x_tensor_rho_b"][1]
    # the third embedding stack is a view of the marginal
    assert np.shares_memory(emb.one_x_tensor_rho_b, state.marginal())
    # owners before the views of them
    arrays = [state.p, state.rhos, *state._rhos_eig, state.marginal(), *eigensystems["rho_b"],
              *(getattr(emb, f.name) for f in dataclasses.fields(emb)),
              *(array for eig in eigensystems.values() for array in eig)]
    distinct = []
    for array in arrays:
        assert not array.flags.writeable
        if not any(np.shares_memory(array, seen) for seen in distinct):
            distinct.append(array)
    assert len(distinct) == 11
    assert cq._held_bytes(state) == sum(a.nbytes for a in distinct)


def _state_file(path, state):
    dump_state(state, path)
    return path


def test_load_state_sees_a_rewritten_file(tmp_path):
    rng = np.random.default_rng(25)
    first, second = random_cq_state(rng, 2, 2), random_cq_state(rng, 2, 2)
    path = _state_file(tmp_path / "s.json", first)
    assert np.max(np.abs(load_state(path).rhos - first.rhos)) <= 1e-15
    loaded = load_state(_state_file(path, second))
    assert np.max(np.abs(loaded.rhos - second.rhos)) <= 1e-15
    assert np.max(np.abs(loaded.p - second.p)) <= 1e-15


def test_same_bytes_at_two_paths_are_validated_once(tmp_path, monkeypatch,
                                                    cold_state_memo):
    state = random_cq_state(np.random.default_rng(26), 3, 2)
    a = _state_file(tmp_path / "a.json", state)
    b = _state_file(tmp_path / "b.json", state)
    with counting_eigensolves(monkeypatch) as calls:
        loaded = [load_state(a), load_state(str(b)), load_state(a)]
    assert calls == [3]  # the eigvalsh of the PSD check, once
    assert loaded[0] is loaded[1] is loaded[2]
    assert not loaded[0].p.flags.writeable and not loaded[0].rhos.flags.writeable


def test_bad_state_files_raise_on_every_load(tmp_path, cold_state_memo):
    doc = state_to_document(binary_antipodal())
    not_psd = dict(doc, rhos=[[[[0.505, 0.0], [0.51, 0.0]], [[0.51, 0.0], [0.505, 0.0]]]],
                   p=[1.0], alphabet_size=1)
    bad = {
        b"{not json": "not valid JSON",
        b"\xff\xfe\x00binary": "not valid JSON.*utf-8",
        b"[" * 100_000 + b"]" * 100_000: "not valid JSON.*recursion",
        json.dumps(dict(doc, p=[0.6, 0.6])).encode(): "probability sum",
        json.dumps(not_psd).encode(): "block 0 is not PSD",
    }
    path = tmp_path / "s.json"
    other = tmp_path / "other.json"
    for data, message in bad.items():
        path.write_text(json.dumps(doc))
        good = load_state(path)
        for target in (path, other, path):
            target.write_bytes(data)
            with pytest.raises(DomainError, match=message) as caught:
                load_state(target)
            assert str(target) in str(caught.value)
        path.write_text(json.dumps(doc))
        assert load_state(path) is good
    assert len(cold_state_memo._states) == 1


def test_state_memo_bound_evicts_least_recently_loaded(tmp_path, monkeypatch,
                                                       cold_state_memo):
    rng = np.random.default_rng(27)
    small = [random_cq_state(rng, 2, 2) for _ in range(3)]
    size = cq._held_bytes(small[0])
    # p; rhos, its eigenvectors and two embedding stacks; the eigenvalues
    # of rhos, rho_xb and rho_x_tensor_rho_b; the marginal and its
    # eigenvectors; and the marginal's eigenvalues
    assert size == (2 * 8 + 4 * (2 * 4 * 16) + 3 * (2 * 2 * 8)
                    + 2 * (4 * 16) + 2 * 8)
    monkeypatch.setattr(cold_state_memo, "limit", 2 * size + size // 2)
    a, b, c = (_state_file(tmp_path / f"{name}.json", s)
               for name, s in zip("abc", small))

    def validations(*paths):
        with counting_eigensolves(monkeypatch) as calls:
            for path in paths:
                load_state(path)
        return len(calls)

    assert validations(a, b, a) == 2
    assert validations(c) == 1  # evicts b, the least recently loaded
    assert cold_state_memo.held == 2 * size <= cold_state_memo.limit
    assert validations(a, c) == 0
    assert validations(b) == 1  # evicts a
    assert validations(c, b) == 0
    assert validations(a) == 1

    # a state larger than the bound is validated on every load and
    # evicts nothing
    large = _state_file(tmp_path / "large.json", random_cq_state(rng, 3, 4))
    assert cq._held_bytes(load_state(large)) > cold_state_memo.limit
    assert validations(large, large) == 2
    assert validations(b, a) == 0
    assert cold_state_memo.held == sum(size for _, size in cold_state_memo._states.values())


def test_state_memo_under_concurrent_loads(tmp_path, monkeypatch, cold_state_memo):
    rng = np.random.default_rng(28)
    states = [random_cq_state(rng, 2, 2) for _ in range(6)]
    paths = [_state_file(tmp_path / f"{i}.json", s) for i, s in enumerate(states)]
    monkeypatch.setattr(cold_state_memo, "limit", 3 * cq._held_bytes(states[0]))
    failures = []

    def worker(offset):
        try:
            for k in range(60):
                i = (offset + k * (offset + 1)) % len(paths)
                loaded = load_state(paths[i])
                if np.max(np.abs(loaded.rhos - states[i].rhos)) > 1e-15:
                    failures.append(i)
        except Exception as exc:  # reported by the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    retained = cold_state_memo._states.values()
    assert cold_state_memo.held == sum(size for _, size in retained) <= cold_state_memo.limit
    assert len(retained) == 3


# ---------------------------------------------------------------------------
# Type spectra
# ---------------------------------------------------------------------------

def _total_p_mass(spec):
    return math.fsum(np.exp(spec.log_p_mass))


def _all_compositions(n, k, rows, n_max=None):
    counts, _ = _type_tables(n if n_max is None else n_max, k)
    return np.concatenate(list(_compositions(n, counts, rows))).tolist()


def test_type_spectrum_blocklength_one():
    p, q = [1.0 / 3.0, 2.0 / 3.0], [0.5, 0.5]
    spec = iid_type_spectrum(p, q, 1)
    assert np.allclose(sorted(np.exp(spec.log_p_mass)), sorted(p))
    assert np.allclose(sorted(spec.llr), sorted(np.log(np.array(p) / np.array(q))))
    assert np.allclose(np.exp(spec.log_multiplicity), 1.0)


def test_type_spectrum_equal_distributions():
    spec = iid_type_spectrum([0.5, 0.5], [0.5, 0.5], 8)
    assert np.max(np.abs(spec.llr)) <= 1e-12
    assert _total_p_mass(spec) == pytest.approx(1.0, abs=1e-12)


def test_type_spectrum_n2_multiplicities_by_enumeration():
    p, q = np.array([1.0 / 3.0, 2.0 / 3.0]), np.array([0.5, 0.5])
    spec = iid_type_spectrum(p, q, 2)
    assert np.allclose(sorted(np.exp(spec.log_multiplicity)), [1.0, 1.0, 2.0])
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
        assert _total_p_mass(spec) == pytest.approx(1.0, abs=1e-12)


def test_type_spectrum_zero_probability_symbol_without_warnings():
    p, q = [0.5, 0.5, 0.0], [0.3, 0.3, 0.4]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = iid_type_spectrum(p, q, 3)
    types = np.array(_all_compositions(3, 3, 10))
    uses_zero = types[:, 2] > 0
    assert np.all(spec.log_p_mass[uses_zero] == -np.inf)
    assert np.all(np.isfinite(spec.log_p_mass[~uses_zero]))
    assert _total_p_mass(spec) == pytest.approx(1.0, abs=1e-12)


def test_compositions_in_lexicographic_order():
    cases = ((0, 1), (4, 1), (0, 3), (1, 4), (5, 2), (5, 3), (4, 4), (3, 6))
    # in one chunk and in chunks of 1, 2 and 5 rows, whose boundaries cut
    # runs of rows that share a prefix, from tables built for n and for
    # a larger n
    for (n, k), rows, spare in itertools.product(cases, (10**6, 1, 2, 5), (0, 3)):
        expected = sorted(
            t for t in itertools.product(range(n + 1), repeat=k) if sum(t) == n
        )
        got = _all_compositions(n, k, rows, n + spare)
        assert got == [list(t) for t in expected], (n, k, rows, spare)
    # one coordinate per symbol, with no recursion on the alphabet size
    assert _all_compositions(1, 1200, 10**6) == np.eye(1200, dtype=int)[::-1].tolist()
    assert _all_compositions(1, 1200, 7) == np.eye(1200, dtype=int)[::-1].tolist()


def test_type_spectrum_rejects_bad_inputs():
    with pytest.raises(DomainError):
        iid_type_spectrum([0.5, 0.5], [1.0, 0.0], 2)
    with pytest.raises(DomainError):
        iid_type_spectrum([0.5, 0.5], [0.5, 0.5], 0)
    with pytest.raises(DomainError):
        iid_type_spectrum([0.7, 0.3], [0.5, 0.5], 20_000)
    with pytest.raises(DomainError, match="not an integer"):
        iid_type_spectrum([0.7, 0.3], [0.5, 0.5], 2.5)


def test_type_spectrum_caps_entries_before_building_them(monkeypatch):
    def no_compositions(*args, **kwargs):
        raise AssertionError("type classes built before the refusal")

    monkeypatch.setattr(cq, "_compositions", no_compositions)
    # 720,600 classes pass a cap on classes alone, but hold 864.7M entries
    k = 1200
    uniform = np.full(k, 1.0 / k)
    with pytest.raises(DomainError, match="cap"):
        iid_type_spectrum(uniform, uniform, 2)


def _antipodal_document(**changes) -> dict:
    return {**state_to_document(binary_antipodal()), **changes}


@pytest.mark.parametrize("refused, message", [
    (lambda: CQState(p=[], rhos=np.zeros((0, 1, 1))), "p must be a non-empty probability vector"),
    (_antipodal_document(p=[[0.5, 0.5]]), "p must be a non-empty probability vector"),
    (_antipodal_document(p=[1.5, -0.5]), "negative probability -5.000e-01"),
    (lambda: CQState(p=[0.5, 0.5], rhos=np.eye(2) / 2),
     "rhos must have shape (alphabet, d, d); got (2, 2)"),
    (_antipodal_document(p=[0.5, 0.25, 0.25]), "p has 3 entries but alphabet_size=2"),
    (_antipodal_document(dim_b=1), "rhos must be [alphabet][dim_b][dim_b][re, im]; "
                                   "got shape (2, 2, 2, 2)"),
    (([0.5, 0.5], [0.3, 0.3]), "q must be a probability vector"),
], ids=["p-empty", "p-2d", "p-negative", "rhos-shape", "document-p-size", "document-rhos-shape",
        "q-sum"])
def test_boundary_refusals(capsys, tmp_path, refused, message):
    # a state document is refused by load_state and, through a state file, by
    # the CLI with exit code 2; a classical pair by iid_type_spectrum and sweep
    if callable(refused):
        with pytest.raises(DomainError, match=re.escape(message)):
            refused()
        return
    if isinstance(refused, dict):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(refused))
        with pytest.raises(DomainError, match=re.escape(message)):
            load_state(path)
        argv = ["simulate", "--task", "pa", "--state", str(path), "--size", "2",
                "--method", "exact"]
    else:
        p, q = refused
        with pytest.raises(DomainError, match=re.escape(message)):
            iid_type_spectrum(p, q, 4)
        argv = ["sweep", "--regime", "second", "--p", ",".join(map(str, p)),
                "--q", ",".join(map(str, q)), "--eps", "0.2", "--n-list", "4"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
