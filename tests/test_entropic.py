"""Entropic quantities on classical-quantum states and rate formulas."""

import math
import sys
import threading

import numpy as np
import pytest

from oneshot_qit import (
    CQState,
    DivergencePair,
    DomainError,
    RateExpansion,
    collision_divergence,
    conditional_entropy_with_variance,
    conditional_test_entropy,
    gaussian_cdf,
    hypothesis_test_divergence,
    hypothesis_test_information,
    info_spectrum_divergence_bracket,
    joint_embed,
    moderate_rate,
    mutual_information_with_variance,
    normal_quantile,
    relative_entropy,
    relative_entropy_variance,
    second_order_value,
)
from oneshot_qit.entropic import _joint_pair

from conftest import (
    binary_antipodal,
    bit_pair_trivial_side,
    counting_eigensolves,
    dense_divergence_oracle,
    random_cq_state,
    random_density,
    scalar_test_oracle,
)


def product_state(rng, alphabet, dim):
    rho = random_density(rng, dim)
    return CQState(rng.dirichlet(np.ones(alphabet)), [rho] * alphabet)


# ---------------------------------------------------------------------------
# One-shot information
# ---------------------------------------------------------------------------

def test_information_product_state():
    rng = np.random.default_rng(51)
    state = product_state(rng, 3, 2)
    for eps in (0.2, 0.5, 0.8):
        assert hypothesis_test_information(state, eps) == pytest.approx(
            -math.log2(1.0 - eps), abs=1e-8
        )


def test_information_singleton_alphabet():
    rng = np.random.default_rng(52)
    state = CQState([1.0], [random_density(rng, 3)])
    assert hypothesis_test_information(state, 0.3) == pytest.approx(
        -math.log2(0.7), abs=1e-9
    )


def test_information_classical_bit_pair_lp_oracle():
    state = binary_antipodal()
    # joint distribution diag(1/2,0,0,1/2) against product diag(1/4,...)
    p = [0.5, 0.0, 0.0, 0.5]
    q = [0.25, 0.25, 0.25, 0.25]
    for eps in (0.25, 0.5, 0.7):
        expected = -math.log2(scalar_test_oracle(p, q, eps))
        assert hypothesis_test_information(state, eps) == pytest.approx(
            expected, abs=1e-9
        )


def test_conditional_entropy_trivial_side_closed_form():
    for m in (2, 4, 8):
        state = CQState([1.0 / m] * m, [[[1.0]]] * m)
        for eps in (0.25, 0.5):
            expected = math.log2(m) + math.log2(1.0 - eps)
            assert conditional_test_entropy(state, eps) == pytest.approx(
                expected, abs=1e-9
            )


def test_conditional_entropy_deterministic_source():
    state = CQState([1.0, 0.0, 0.0], [[[1.0]]] * 3)
    assert conditional_test_entropy(state, 0.3) == pytest.approx(
        math.log2(0.7), abs=1e-9
    )


def test_conditional_entropy_correlated_lp_oracle():
    state = binary_antipodal()
    # joint diag(1/2,0,0,1/2) against identity-weighted marginal diag(1/2,...)
    p = [0.5, 0.0, 0.0, 0.5]
    q = [0.5, 0.5, 0.5, 0.5]
    for eps in (0.3, 0.6):
        expected = math.log2(scalar_test_oracle(p, q, eps))
        assert conditional_test_entropy(state, eps) == pytest.approx(
            expected, abs=1e-9
        )


def test_one_shot_quantities_monotone_in_eps():
    # the information grows with the tolerated error; the conditional
    # entropy is its negation and shrinks (cf. the log m + log(1-eps)
    # closed form for trivial side information)
    rng = np.random.default_rng(53)
    for _ in range(5):
        state = random_cq_state(rng, 3, 2)
        grid = (0.1, 0.3, 0.5, 0.7, 0.9)
        info = [hypothesis_test_information(state, eps) for eps in grid]
        cond = [conditional_test_entropy(state, eps) for eps in grid]
        assert all(a <= b + 1e-9 for a, b in zip(info, info[1:]))
        assert all(a >= b - 1e-9 for a, b in zip(cond, cond[1:]))


# ---------------------------------------------------------------------------
# Information / entropy with variance
# ---------------------------------------------------------------------------

def test_mutual_information_product_and_bit_pair():
    rng = np.random.default_rng(54)
    state = product_state(rng, 3, 2)
    info, var = mutual_information_with_variance(state)
    assert info == pytest.approx(0.0, abs=1e-10)
    assert var == pytest.approx(0.0, abs=1e-10)
    info, var = mutual_information_with_variance(binary_antipodal())
    assert info == pytest.approx(1.0, abs=1e-10)
    assert var == pytest.approx(0.0, abs=1e-10)


def test_mutual_information_spectral_oracle():
    rng = np.random.default_rng(55)
    state = random_cq_state(rng, 3, 2)
    # summation oracle in the eigenbasis of each p(x) rho^x vs p(x) rho_b
    rho_b = state.marginal()
    log_rho_b = None
    lam_b, v_b = np.linalg.eigh(rho_b)
    log_rho_b = (v_b * np.log(lam_b)) @ v_b.conj().T
    d_nats = 0.0
    second = 0.0
    for x in range(3):
        lam, v = np.linalg.eigh(state.rhos[x])
        log_block = (v * np.log(lam)) @ v.conj().T
        delta = log_block - log_rho_b  # the log p(x) pieces cancel
        block = state.p[x] * state.rhos[x]
        d_nats += float(np.trace(block @ delta).real)
        second += float(np.trace(block @ delta @ delta).real)
    expected_info = d_nats / math.log(2)
    expected_var = (second - d_nats ** 2) / math.log(2) ** 2
    info, var = mutual_information_with_variance(state)
    assert info == pytest.approx(expected_info, abs=1e-9)
    assert var == pytest.approx(expected_var, abs=1e-9)


def test_conditional_entropy_cases():
    state = CQState([0.25] * 4, [[[1.0]]] * 4)
    ent, var = conditional_entropy_with_variance(state)
    assert ent == pytest.approx(2.0, abs=1e-10)
    assert var == pytest.approx(0.0, abs=1e-10)
    ent, var = conditional_entropy_with_variance(binary_antipodal())
    assert ent == pytest.approx(0.0, abs=1e-10)
    assert var == pytest.approx(0.0, abs=1e-10)


def test_conditional_entropy_spectral_oracle():
    rng = np.random.default_rng(56)
    state = random_cq_state(rng, 2, 3)
    rho_b = state.marginal()
    lam_b, v_b = np.linalg.eigh(rho_b)
    log_rho_b = (v_b * np.log(lam_b)) @ v_b.conj().T
    d_nats = 0.0
    second = 0.0
    for x in range(2):
        block = state.p[x] * state.rhos[x]
        lam, v = np.linalg.eigh(block)
        keep = lam > 1e-12
        log_block = (v[:, keep] * np.log(lam[keep])) @ v[:, keep].conj().T
        delta = log_block - log_rho_b
        d_nats += float(np.trace(block @ delta).real)
        second += float(np.trace(block @ delta @ delta).real)
    expected_ent = -d_nats / math.log(2)
    expected_var = (second - d_nats ** 2) / math.log(2) ** 2
    ent, var = conditional_entropy_with_variance(state)
    assert ent == pytest.approx(expected_ent, abs=1e-9)
    assert var == pytest.approx(expected_var, abs=1e-9)


def test_entropy_identity_regression(corpus):
    # conditional quantity is exactly the negated divergence by construction
    for state in corpus[:4]:
        got = conditional_test_entropy(state, 0.4)
        info = hypothesis_test_information(state, 0.4)
        assert math.isfinite(got) and math.isfinite(info)


def test_cq_pairs_are_validated_once(corpus, monkeypatch):
    # pairs built from validated states skip DivergencePair.of's two
    # validation eigensolves: D_h, from the same dual points, gives its
    # values to the bit, at the cost of one d x d solve of the marginal on
    # a fresh state; the relative entropy and its variance then solve
    # nothing, as the state's two eigensystems give the pair's, and match
    # the public pair's to rounding
    for corpus_state in corpus:
        for weighted, info, spectral, sign in (
            (True, hypothesis_test_information, mutual_information_with_variance, 1.0),
            (False, conditional_test_entropy, conditional_entropy_with_variance, -1.0),
        ):
            state = CQState(corpus_state.p, corpus_state.rhos)
            emb = joint_embed(state)
            reference = emb.rho_x_tensor_rho_b if weighted else emb.one_x_tensor_rho_b
            with counting_eigensolves(monkeypatch) as public_calls:
                public = DivergencePair.of(emb.rho_xb, reference)
                want = sign * hypothesis_test_divergence(public, 0.3)
            inputs = []
            with counting_eigensolves(monkeypatch, inputs) as calls:
                assert info(state, 0.3) == want
            assert len(calls) == len(public_calls) - 1
            assert np.array_equal(inputs[0], state.marginal())
            want = (sign * relative_entropy(public), relative_entropy_variance(public))
            for _ in range(2):
                with counting_eigensolves(monkeypatch) as calls:
                    got = spectral(state)
                assert calls == []
                assert got == pytest.approx(want, rel=1e-14, abs=1e-14)


def _states_with_degenerate_references(rng):
    """A state whose marginal has a kernel (every rho_x on one plane of
    C^3), and one with a symbol of probability 0."""
    u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0][:, :2]
    planar = CQState(rng.dirichlet(np.ones(3)),
                     [u @ random_density(rng, 2) @ u.conj().T for _ in range(3)])
    p = rng.dirichlet(np.ones(4))
    p[1] = 0.0
    unused = CQState(p / p.sum(), random_cq_state(rng, 4, 2).rhos)
    return [planar, unused]


def test_state_pairs_match_public_pairs_and_the_dense_oracle(corpus):
    # a joint pair reads eigensystems scaled and broadcast from the state's
    # two solves; D2, D and V match a pair that solves the same arrays
    # itself, and the dense block-diagonal formulas, and D_s matches the
    # public pair's
    states = [*corpus, *_states_with_degenerate_references(np.random.default_rng(57))]
    assert np.linalg.matrix_rank(states[-2].marginal(), tol=1e-9) == 2
    for state in states:
        for weighted in (True, False):
            pair = _joint_pair(state, weighted)
            public = DivergencePair.of(pair.rho, pair.sigma)
            kernels = (collision_divergence, relative_entropy, relative_entropy_variance)
            for fn, dense in zip(kernels, dense_divergence_oracle(pair.rho, pair.sigma),
                                 strict=True):
                got, want = fn(pair), fn(public)
                assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), fn.__name__
                assert abs(got - dense) <= 1e-12 * (1.0 + abs(dense)), fn.__name__
            for eps in (0.1, 0.3):
                got = info_spectrum_divergence_bracket(pair, eps)
                want = info_spectrum_divergence_bracket(public, eps)
                assert all(a == b or abs(a - b) <= 1e-12 * (1.0 + abs(b))
                           for a, b in zip(got, want, strict=True)), (got, want)


def test_small_probability_symbol_keeps_its_support():
    # block x of rho_X (x) rho_B is p(x) rho_B: its kernel is decided
    # against its own largest eigenvalue, not the whole stack's, so a
    # symbol of probability 1e-5 is no support violation; I = h(q) and
    # V = q (1 - q) log2^2((1 - q) / q) for orthogonal outputs
    q = 1e-5
    state = CQState([1 - q, q], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    info, variance = mutual_information_with_variance(state)
    assert info == pytest.approx(-q * math.log2(q) - (1 - q) * math.log2(1 - q), rel=1e-14)
    assert variance == pytest.approx(q * (1 - q) * math.log2((1 - q) / q) ** 2, rel=1e-14)


def test_state_eigensystems_under_concurrent_reads():
    # threads that read one state's eigensystems at once, each solving it
    # if none is stored yet, all get the serial values to the bit
    rng = np.random.default_rng(46)
    source = random_cq_state(rng, 6, 4)
    serial = CQState(source.p, source.rhos)
    want = (mutual_information_with_variance(serial),
            conditional_entropy_with_variance(serial))
    results, failures = [], []

    def worker(state, parity):
        try:
            for k in range(6):
                conditional = (parity + k) % 2 == 1
                spectral = (conditional_entropy_with_variance if conditional
                            else mutual_information_with_variance)
                results.append((conditional, spectral(state)))
        except Exception as exc:  # reported by the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            state = CQState(source.p, source.rhos)
            threads = [threading.Thread(target=worker, args=(state, t)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert len(results) == 5 * 8 * 6
    assert all(value == want[conditional] for conditional, value in results)


# ---------------------------------------------------------------------------
# Gaussian quantile
# ---------------------------------------------------------------------------

def test_quantile_median_and_symmetry():
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert normal_quantile(0.1) == pytest.approx(-normal_quantile(0.9), abs=1e-10)


def test_quantile_round_trip():
    for eps in (1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-6):
        assert abs(gaussian_cdf(normal_quantile(eps)) - eps) <= 1e-10


def test_quantile_rejects_boundaries():
    for eps in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(DomainError):
            normal_quantile(eps)


# ---------------------------------------------------------------------------
# Rate expansions
# ---------------------------------------------------------------------------

def test_second_order_value_median_and_zero_variance():
    exp = second_order_value(2.0, 1.0, 0.5, 100)
    assert exp.value_at_n == pytest.approx(200.0, abs=1e-12)
    exp = second_order_value(2.0, 0.0, 0.2, 100)
    assert exp.value_at_n == pytest.approx(200.0, abs=1e-12)
    for v in (-1.0, math.nan):
        with pytest.raises(DomainError):
            second_order_value(2.0, v, 0.2, 100)


def test_rate_expansion_container_identity():
    exp = RateExpansion.assemble(1.5, -0.7, 0.2, 49)
    assert exp.value_at_n == 49 * 1.5 + 7.0 * (-0.7)


def test_rate_expansion_refuses_non_integral_blocklength():
    for n in (2.5, math.nan, True, 0):
        with pytest.raises(DomainError):
            second_order_value(2.0, 1.0, 0.2, n)
        with pytest.raises(DomainError):
            RateExpansion.assemble(1.5, -0.7, 0.2, n)
    assert second_order_value(2.0, 1.0, 0.5, 100.0).value_at_n == 200.0


def test_moderate_rate_signs():
    assert moderate_rate(1.0, 0.0, 0.1, 1) == pytest.approx(1.0)
    up = moderate_rate(1.0, 2.0, 0.1, 1)
    down = moderate_rate(1.0, 2.0, 0.1, -1)
    assert up - 1.0 == pytest.approx(1.0 - down, abs=1e-15)
    with pytest.raises(DomainError):
        moderate_rate(1.0, 2.0, 0.1, 0)
    with pytest.raises(DomainError, match="variance"):
        moderate_rate(1.0, math.nan, 0.1, 1)
    with pytest.raises(DomainError, match="a_n"):
        moderate_rate(1.0, 2.0, math.nan, 1)
