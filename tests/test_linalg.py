"""Hermitian linear-algebra layer."""

import math

import numpy as np
import pytest

from oneshot_qit import (
    DomainError,
    NumericalError,
    as_hermitian,
    pinch,
    positive_part_trace,
    projector_leq,
    quotient,
    spec_count,
    trace_norm,
)
from oneshot_qit.divergences import (
    collision_divergence,
    DivergencePair,
    _commuting_pairs,
    _sigma_frame,
    info_spectrum_divergence,
    info_spectrum_divergence_bracket,
)
from oneshot_qit.linalg import DEFAULT_CLUSTER_TOL, _cluster_labels, _eigh_checked, _on_support

from conftest import (
    counting_eigensolves,
    random_density,
    random_hermitian,
    random_psd,
    random_projector,
)


def spectral_func(a, f):
    """f of a Hermitian operator on its support, through the library's
    support map of its eigenvalues."""
    lam, v = _eigh_checked(as_hermitian(a))
    return (v * _on_support(lam, f)) @ v.conj().T


def test_as_hermitian_symmetrizes_and_rejects():
    a = np.array([[1.0, 1.0 + 1e-14j], [1.0 - 1e-14j, 2.0]])
    h = as_hermitian(a)
    assert np.allclose(h, h.conj().T)
    with pytest.raises(DomainError):
        as_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DomainError):
        as_hermitian(np.ones((2, 3)))
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="non-finite"):
            as_hermitian(np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(DomainError, match="non-finite"):
            DivergencePair.of(np.diag([bad, 0.5]), np.eye(2) / 2)


def test_eig_identity_and_pauli_x():
    lam, _ = _eigh_checked(as_hermitian(np.eye(3)))
    assert np.allclose(lam, [1.0, 1.0, 1.0])
    lam, _ = _eigh_checked(as_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert np.allclose(lam, [-1.0, 1.0])


def test_eig_reconstruction_residual():
    rng = np.random.default_rng(1)
    a = random_hermitian(rng, 6)
    lam, v = _eigh_checked(as_hermitian(a))
    reconstructed = (v * lam) @ v.conj().T
    assert np.max(np.abs(reconstructed - as_hermitian(a))) <= 1e-10
    assert np.max(np.abs(v.conj().T @ v - np.eye(6))) <= 1e-10
    assert np.all(np.diff(lam) >= 0)


def test_reconstruction_residual_check_fires(monkeypatch):
    rng = np.random.default_rng(2)
    a = random_hermitian(rng, 4)
    # a (2, 3, 3) pair of cq blocks, so that D_s solves stacks
    rho = np.array([w * random_density(rng, 3) for w in (0.4, 0.6)])
    sigma = np.array([w * (random_density(rng, 3) + 0.1 * np.eye(3)) for w in (0.5, 0.5)])
    pair = DivergencePair.of(rho, sigma / np.trace(sigma, axis1=1, axis2=2).real.sum())
    assert not pair.commuting
    eigh = np.linalg.eigh

    def perturbed_eigh(stack, fires):
        lam, v = eigh(stack)
        if fires(stack, lam):
            v = v + 1e-6
        return lam, v

    a = as_hermitian(a)
    # a single matrix
    monkeypatch.setattr(np.linalg, "eigh", lambda s: perturbed_eigh(s, lambda s, lam: True))
    with pytest.raises(NumericalError, match="residual"):
        _eigh_checked(a)
    # only the indefinite stacks of the D_s search, mu rho - sigma, see
    # perturbed eigenvectors; sigma's own stack does not
    monkeypatch.setattr(np.linalg, "eigh", lambda s: perturbed_eigh(
        s, lambda s, lam: np.ndim(s) == 3 and lam.min() < 0.0 < lam.max()))
    _eigh_checked(a)
    _eigh_checked(pair.sigma)
    with pytest.raises(NumericalError, match="residual"):
        info_spectrum_divergence_bracket(pair, 0.3)


def test_mat_func_diagonal_and_identity():
    assert np.allclose(spectral_func(np.diag([1.0, 4.0]), np.sqrt), np.diag([1.0, 2.0]))
    rng = np.random.default_rng(2)
    rho = random_density(rng, 4)
    assert np.max(np.abs(spectral_func(rho, lambda x: x) - rho)) <= 1e-12


def test_mat_func_support_restricted_inverse():
    out = spectral_func(np.diag([2.0, 0.0]), lambda x: 1.0 / x)
    assert np.allclose(out, np.diag([0.5, 0.0]))


def test_mat_func_idempotent_on_projectors():
    rng = np.random.default_rng(3)
    for _ in range(10):
        proj = random_projector(rng, 5)
        out = spectral_func(proj, lambda x: x * x)
        assert np.max(np.abs(out - proj)) <= 1e-12


def test_positive_part_trace_cases():
    assert positive_part_trace(np.diag([1.0, -2.0])) == pytest.approx(1.0)
    rng = np.random.default_rng(4)
    a = random_hermitian(rng, 3)
    assert positive_part_trace(a - a) == pytest.approx(0.0, abs=1e-12)


def test_positive_part_trace_matches_trace_norm_identity():
    # independent route: Tr[A_+] = (Tr A + ||A||_1) / 2 with ||.||_1 from SVD
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = random_hermitian(rng, 4)
        svd_norm = float(np.linalg.svd(a, compute_uv=False).sum())
        expected = 0.5 * (float(np.trace(a).real) + svd_norm)
        assert positive_part_trace(a) == pytest.approx(expected, abs=1e-10)


def test_trace_norm_cases():
    assert trace_norm(np.diag([1.0, -2.0])) == pytest.approx(3.0)
    rng = np.random.default_rng(6)
    rho = random_density(rng, 3)
    assert trace_norm(rho) == pytest.approx(1.0, abs=1e-12)
    ket0 = np.diag([1.0, 0.0])
    ket1 = np.diag([0.0, 1.0])
    assert trace_norm(ket0 - ket1) == pytest.approx(2.0)


def test_pinch_trivial_and_offdiagonal():
    rng = np.random.default_rng(7)
    l = random_hermitian(rng, 3)
    assert np.max(np.abs(pinch(np.eye(3), l) - l)) <= 1e-12
    out = pinch(np.diag([1.0, 2.0]), np.ones((2, 2)))
    assert np.allclose(out, np.diag([1.0, 1.0]))


def test_pinch_commuting_preserved_and_properties():
    rng = np.random.default_rng(8)
    h = random_hermitian(rng, 4)
    system = np.linalg.eigh(h)
    # l commuting with h: same eigenbasis, fresh eigenvalues
    l = (system[1] * rng.normal(size=4)) @ system[1].conj().T
    out = pinch(h, l)
    assert np.max(np.abs(out - as_hermitian(l))) <= 1e-12
    # generic l: trace preserved, result commutes with h
    l = random_psd(rng, 4)
    out = pinch(h, l)
    assert np.trace(out).real == pytest.approx(np.trace(l).real, abs=1e-12)
    assert np.max(np.abs(out @ h - h @ out)) <= 1e-10


def test_pinching_inequality():
    rng = np.random.default_rng(9)
    for _ in range(25):
        d = int(rng.integers(2, 7))
        h = random_hermitian(rng, d)
        l = random_psd(rng, d)
        residual = pinch(h, l) - l / spec_count(h)
        assert np.linalg.eigvalsh(residual)[0] >= -1e-10


def test_spec_count_cases_and_tensor_growth():
    assert spec_count(np.eye(5)) == 1
    assert spec_count(np.diag([1.0, 2.0, 2.0])) == 2
    base = np.diag([1.0, 2.0])
    power = base
    for _ in range(2):
        power = np.kron(power, base)
    assert spec_count(power) == 4
    assert 4 <= (3 + 1) ** (2 - 1)


def test_spec_count_tensor_bound_randomized():
    rng = np.random.default_rng(10)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        h = random_hermitian(rng, d)
        power = h
        for n in range(2, 6):
            power = np.kron(power, h)
            assert spec_count(power) <= (n + 1) ** (d - 1)


def test_quotient_identity_denominator_and_singular():
    rng = np.random.default_rng(11)
    a = random_psd(rng, 3)
    assert np.max(np.abs(quotient(a, np.eye(3)) - a)) <= 1e-12
    with pytest.raises(DomainError, match="regularize"):
        quotient(a, np.diag([1.0, 1.0, 0.0]))


def test_quotient_solves_each_operator_once(monkeypatch):
    # one eigvalsh of the numerator; one eigh of the denominator both
    # decides that it is definite and gives its inverse square root
    rng = np.random.default_rng(14)
    a = random_psd(rng, 3)
    c = random_psd(rng, 3) + 0.1 * np.eye(3)
    with counting_eigensolves(monkeypatch) as calls:
        quotient(a, c)
    assert calls == [1, 1]


@pytest.mark.parametrize("fn", [
    spec_count,
    lambda s: quotient(s, s),
    lambda s: pinch(s, s),
    lambda s: projector_leq(s, s),
], ids=["spec_count", "quotient", "pinch", "projector_leq"])
def test_single_operator_routines_refuse_stacks(fn):
    stack = np.stack([np.eye(2), np.diag([1.0, 2.0])])
    with pytest.raises(DomainError, match="single"):
        fn(stack)


@pytest.mark.parametrize("fn", [quotient, pinch, projector_leq])
@pytest.mark.parametrize("small", [np.eye(1), np.eye(3)])
def test_operator_pairs_refuse_different_shapes(fn, small):
    # a (1, 1) operator would broadcast against a (2, 2) one
    for a, b in ((small, np.eye(2)), (np.eye(2), small)):
        with pytest.raises(DomainError, match="dimension mismatch"):
            fn(a, b)


def test_quotient_properties():
    rng = np.random.default_rng(12)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        a = random_psd(rng, d)
        b = random_psd(rng, d)
        c = random_psd(rng, d) + 0.1 * np.eye(d)
        # PSD output
        assert np.linalg.eigvalsh(quotient(a, c))[0] >= -1e-10
        # additivity in the numerator
        lhs = quotient(a + b, c)
        rhs = quotient(a, c) + quotient(b, c)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10
        # trace symmetry
        t1 = np.trace(a @ quotient(b, c)).real
        t2 = np.trace(b @ quotient(a, c)).real
        assert t1 == pytest.approx(t2, abs=1e-10)
        # contraction when the denominator dominates
        top = np.linalg.eigvalsh(quotient(a, a + c))[-1]
        assert top <= 1.0 + 1e-10
        # collision-overlap identity
        overlap = np.trace(a @ quotient(a, c)).real
        d2 = collision_divergence(DivergencePair.of(a, c, normalized=False))
        assert overlap == pytest.approx(2.0 ** d2, rel=1e-10)


def test_variational_formula_for_trace_distance():
    rng = np.random.default_rng(13)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        rho = random_density(rng, d)
        sigma = random_density(rng, d)
        half_dist = 0.5 * trace_norm(rho - sigma)
        assert half_dist == pytest.approx(positive_part_trace(rho - sigma), abs=1e-10)
        for _ in range(10):
            proj = random_projector(rng, d)
            assert np.trace(proj @ (rho - sigma)).real <= half_dist + 1e-10


def test_projector_leq_convention():
    # non-strict: equality stays inside the event
    proj = projector_leq(np.diag([1.0, 2.0]), np.diag([1.0, 1.0]))
    assert np.allclose(proj, np.diag([1.0, 0.0]))


@pytest.mark.parametrize("scale", [1.0, 1e-4])
def test_threshold_rule_is_shared_at_its_boundary(scale):
    """A gap or an eigenvalue at half the threshold, DEFAULT_CLUSTER_TOL
    times the radius, merges or vanishes in every routine; at twice the
    threshold it stays."""
    rho = np.diag([0.5, 0.5]).astype(complex)
    flat = np.full((2, 2), 0.5, dtype=complex)
    for factor, kept in ((0.5, False), (2.0, True)):
        small = factor * DEFAULT_CLUSTER_TOL * scale
        gapped = np.diag([scale - small, scale])
        assert spec_count(gapped) == (2 if kept else 1)
        assert abs(pinch(gapped, flat)[0, 1]) == pytest.approx(0.0 if kept else 0.5)
        r, _ = _commuting_pairs(DivergencePair.of(flat, gapped))
        assert np.sort(r) == pytest.approx([0.5, 0.5] if kept else [0.0, 1.0], abs=1e-12)
        leq = projector_leq(np.diag([0.0, small]), np.diag([scale, 0.0]))
        assert np.trace(leq).real == pytest.approx(1.0 if kept else 2.0)

        sigma = np.diag([scale, small])
        inverse = spectral_func(sigma, lambda x: 1.0 / x)
        assert inverse[1, 1].real == pytest.approx(1.0 / small if kept else 0.0)
        pair = DivergencePair.of(rho, sigma)
        if kept:
            _sigma_frame(pair)
            assert info_spectrum_divergence(pair, 0.3) == pytest.approx(
                math.log2(0.5 / scale), abs=1e-12)
        else:
            for fn in (_sigma_frame, lambda p: info_spectrum_divergence(p, 0.3)):
                with pytest.raises(DomainError, match="support"):
                    fn(pair)


def test_threshold_rule_is_per_block_in_a_stack():
    # each row of a stack's spectra is compared against its own largest
    # |eigenvalue|: a block scaled by 1e-7 keeps the zeros and gaps it has
    # alone, where the whole stack's radius would erase them
    block = np.array([0.0, 1e-6, 1.0])
    stack = np.array([block, 1e-7 * block])
    assert _cluster_labels(stack).tolist() == [[0, 1, 2]] * 2
    support = _on_support(stack, np.log)
    assert support[1].tolist() == [0.0, *np.log(1e-7 * block[1:])]
    assert (support[0] == _on_support(block, np.log)).all()


def test_quotient_refuses_a_numerator_that_is_not_psd():
    with pytest.raises(DomainError, match="numerator not PSD: min eigenvalue -5.000e-01"):
        quotient(np.diag([1.0, -0.5]), np.eye(2))
