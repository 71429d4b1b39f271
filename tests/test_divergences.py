"""Divergence definitions, dual optimality, and operator inequalities."""

import math

import numpy as np
import pytest

from oneshot_qit import (
    CQState,
    DivergencePair,
    DomainError,
    collision_divergence,
    conditional_entropy_with_variance,
    conditional_test_entropy,
    hypothesis_test_divergence,
    hypothesis_test_information,
    info_spectrum_divergence,
    info_spectrum_divergence_bracket,
    joint_embed,
    mutual_information_with_variance,
    pinch,
    relative_entropy,
    relative_entropy_variance,
    spec_count,
)
from oneshot_qit.divergences import _ds_event_masses, dual_test_objective
from oneshot_qit.linalg import projector_leq

from conftest import (
    block_diagonal,
    counting_eigensolves,
    ds_crossing_oracle,
    operator_test_oracle,
    random_commuting_pair,
    random_cq_state,
    random_density,
    random_psd,
    random_unitary,
    scalar_test_oracle,
)

LN2 = math.log(2.0)


def classical_pair(p, q):
    return DivergencePair.of(np.diag(p).astype(complex), np.diag(q).astype(complex))


# ---------------------------------------------------------------------------
# Information-spectrum divergence
# ---------------------------------------------------------------------------

def test_ds_self_is_zero():
    rng = np.random.default_rng(31)
    for eps in (0.1, 0.5, 0.9):
        rho = random_density(rng, 3) + 0.05 * np.eye(3)
        rho /= np.trace(rho).real
        pair = DivergencePair.of(rho, rho)
        assert info_spectrum_divergence(pair, eps) == pytest.approx(0.0, abs=1e-12)


def test_ds_classical_threshold_value():
    # mass 1/3 at ratio 2/3 stays below eps=0.4; adding ratio 4/3 crosses
    pair = classical_pair([1 / 3, 2 / 3], [0.5, 0.5])
    expected = math.log2(4.0 / 3.0)
    assert info_spectrum_divergence(pair, 0.4) == pytest.approx(expected, abs=1e-12)
    # brute force over both threshold positions
    masses = [(2 / 3, 1 / 3), (4 / 3, 2 / 3)]
    best = -math.inf
    for c, _ in masses:
        mass = sum(m for r, m in masses if r <= c)
        if mass <= 0.4:
            best = max(best, math.log2(c))
    # supremum is the left limit at the next jump
    assert best == pytest.approx(math.log2(2 / 3))
    assert expected > best


def test_ds_scaling_identity_commuting():
    rng = np.random.default_rng(32)
    for lam in (0.5, 2.0, 3.0):
        rho, sigma = random_commuting_pair(rng, 4)
        pair = DivergencePair.of(rho, sigma)
        shifted = DivergencePair.of(rho, lam * sigma)
        for eps in (0.25, 0.6):
            base = info_spectrum_divergence(pair, eps)
            assert info_spectrum_divergence(shifted, eps) == pytest.approx(
                base - math.log2(lam), abs=1e-9
            )


def test_ds_noncommuting_bracket_and_scaling():
    rng = np.random.default_rng(33)
    rho = random_density(rng, 3)
    sigma = random_density(rng, 3) + 0.1 * np.eye(3)
    sigma /= np.trace(sigma).real
    pair = DivergencePair.of(rho, sigma)
    assert not pair.commuting
    value, lower, upper = info_spectrum_divergence_bracket(pair, 0.3)
    assert lower <= value <= upper
    assert upper - lower <= 1e-9
    shifted = DivergencePair.of(rho, 2.0 * sigma)
    assert info_spectrum_divergence(shifted, 0.3) == pytest.approx(
        value - 1.0, abs=1e-9
    )


def test_ds_rejects_bad_eps_and_support():
    pair = classical_pair([0.5, 0.5], [0.5, 0.5])
    with pytest.raises(DomainError):
        info_spectrum_divergence(pair, 0.0)
    bad = DivergencePair.of(np.diag([0.5, 0.5]), np.diag([1.0, 0.0]))
    with pytest.raises(DomainError, match="support"):
        info_spectrum_divergence(bad, 0.3)


def random_noncommuting_pair(rng, d, k=0):
    """A non-commuting (d, d) pair, or a pair of (k, d, d) cq stacks if k > 0."""
    if k == 0:
        rho = random_density(rng, d)
        sigma = random_density(rng, d) + 0.1 * np.eye(d)
        pair = DivergencePair.of(rho, sigma / np.trace(sigma).real)
    else:
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k)) + 0.05
        rho = np.array([w * random_density(rng, d) for w in p])
        sigma = np.array([w * (random_density(rng, d) + 0.1 * np.eye(d)) for w in q])
        pair = DivergencePair.of(rho, sigma / np.trace(sigma, axis1=1, axis2=2).real.sum())
    assert not pair.commuting
    return pair


def test_ds_event_masses_match_projector_oracle():
    rng = np.random.default_rng(49)
    for d in (2, 3, 4, 8):
        for _ in range(3):
            pair = random_noncommuting_pair(rng, d)
            rho, sigma = pair.rho, pair.sigma
            # the pencil eigenvalues put a zero eigenvalue into c sigma - rho,
            # where the non-strict convention decides membership
            pencil = np.sort(np.linalg.eigvals(np.linalg.solve(sigma, rho)).real)
            cs = np.concatenate([
                pencil,
                np.geomspace(pencil[0] / 4, pencil[-1] * 4, 40),
                [0.0],
            ])
            masses = _ds_event_masses(rho, sigma, cs)
            oracle = [np.trace(rho @ projector_leq(rho, c * sigma)).real for c in cs]
            assert np.max(np.abs(masses - oracle)) <= 1e-12


# (d, k): single (d, d) operators when k == 0, else (k, d, d) stacks
_DS_CASES = [(2, 0), (2, 4), (3, 0), (3, 3), (4, 0), (4, 2), (8, 0), (8, 2),
             (16, 0), (16, 2)]


def test_ds_bracket_matches_dense_scan_oracle():
    rng = np.random.default_rng(50)
    for d, k in _DS_CASES:
        pair = random_noncommuting_pair(rng, d, k)
        mass, crossing = ds_crossing_oracle(pair.rho, pair.sigma)
        for eps in (0.05, 0.2, 0.5, 0.8):
            value, lower, upper = info_spectrum_divergence_bracket(pair, eps)
            assert mass(2.0 ** lower) <= eps + 1e-12 < mass(2.0 ** upper)
            assert abs(value - crossing(eps)) <= 1e-9, (d, k, eps)


def test_ds_event_mass_non_decreasing_in_threshold():
    rng = np.random.default_rng(51)
    for d, k in _DS_CASES * 2:
        pair = random_noncommuting_pair(rng, d, k)
        pencil = np.sort(
            np.linalg.eigvals(np.linalg.solve(pair.sigma, pair.rho)).real.ravel())
        cs = np.empty(2 * pencil.size - 1)
        cs[0::2] = pencil
        cs[1::2] = np.sqrt(pencil[:-1] * pencil[1:])
        masses = _ds_event_masses(pair.rho, pair.sigma, cs)
        assert np.all(np.diff(masses) >= -1e-12), (d, k)


def test_ds_eigensolve_budget(monkeypatch):
    rng = np.random.default_rng(52)
    for d, k in ((16, 0), (4, 4)):
        pair = random_noncommuting_pair(rng, d, k)
        for eps in (0.05, 0.2, 0.5, 0.8):
            with counting_eigensolves(monkeypatch) as matrices_per_call:
                info_spectrum_divergence_bracket(pair, eps)
            assert 0 < len(matrices_per_call) <= 64, (d, k, eps)
            assert max(matrices_per_call) <= max(k, 1), (d, k, eps)


# ---------------------------------------------------------------------------
# Hypothesis-testing divergence
# ---------------------------------------------------------------------------

def test_dh_self_identity():
    rng = np.random.default_rng(34)
    for eps in (0.1, 0.5, 0.9):
        rho = random_density(rng, 4)
        pair = DivergencePair.of(rho, rho)
        assert hypothesis_test_divergence(pair, eps) == pytest.approx(
            -math.log2(1.0 - eps), abs=1e-9
        )
    # one-dimensional, large and stacked pairs, eps near 0 and 1: to rounding
    for d, k in ((1, 0), (16, 0), (3, 4)):
        if k:
            p = rng.dirichlet(np.ones(k))
            rho = np.array([w * random_density(rng, d) for w in p])
        else:
            rho = random_density(rng, d)
        pair = DivergencePair.of(rho, rho)
        for eps in (0.05, 0.5, 0.97):
            assert hypothesis_test_divergence(pair, eps) == pytest.approx(
                -math.log2(1.0 - eps), abs=1e-12), (d, k, eps)


def test_dh_pure_state_against_maximally_mixed():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.eye(2) / 2.0
    pair = DivergencePair.of(rho, sigma)
    # best test accepts the support with weight 1 - eps: beta = (1-eps)/2
    assert hypothesis_test_divergence(pair, 0.5) == pytest.approx(2.0, abs=1e-9)


def test_dh_matches_scalar_oracle_on_classical_pairs():
    rng = np.random.default_rng(35)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(d))
        q = rng.dirichlet(np.ones(d)) + 0.02
        q /= q.sum()
        eps = float(rng.uniform(0.05, 0.9))
        expected = -math.log2(scalar_test_oracle(p, q, eps))
        got = hypothesis_test_divergence(classical_pair(p, q), eps)
        assert got == pytest.approx(expected, abs=1e-9)


def test_dh_matches_primal_oracle_noncommuting():
    rng = np.random.default_rng(36)
    for _ in range(3):
        rho = random_density(rng, 2)
        sigma = random_density(rng, 2) + 0.05 * np.eye(2)
        sigma /= np.trace(sigma).real
        pair = DivergencePair.of(rho, sigma)
        beta_oracle = operator_test_oracle(rho, sigma, 0.3)
        got = hypothesis_test_divergence(pair, 0.3)
        assert got == pytest.approx(-math.log2(beta_oracle), abs=1e-6)


def test_dh_scaling_identity():
    rng = np.random.default_rng(37)
    rho = random_density(rng, 3)
    sigma = random_psd(rng, 3) + 0.1 * np.eye(3)
    for lam in (0.5, 2.0, 3.0):
        base = hypothesis_test_divergence(DivergencePair.of(rho, sigma), 0.3)
        shifted = hypothesis_test_divergence(
            DivergencePair.of(rho, lam * sigma), 0.3
        )
        assert shifted == pytest.approx(base - math.log2(lam), abs=1e-9)


def test_dh_scaling_identity_at_extreme_scales():
    # D_h(rho, lam sigma) = D_h(rho, sigma) - log2 lam also when the optimal
    # dual point mu* scales far from 1; the search stops on relative tests
    rng = np.random.default_rng(71)
    for _ in range(30):
        d = int(rng.integers(2, 7))
        rho = random_density(rng, d)
        sigma = random_density(rng, d) + 0.1 * np.eye(d)
        sigma /= np.trace(sigma).real
        for eps in (0.1, 0.5, 0.9):
            base = hypothesis_test_divergence(DivergencePair.of(rho, sigma), eps)
            for lam in (1e-4, 1e-3, 1e3):
                shifted = hypothesis_test_divergence(
                    DivergencePair.of(rho, lam * sigma), eps)
                assert abs(shifted - (base - math.log2(lam))) <= 1e-9, (d, eps, lam)


def test_dh_eigensolve_budget(monkeypatch):
    rng = np.random.default_rng(72)
    for d, k in ((16, 0), (4, 4), (8, 8)):
        pair = random_noncommuting_pair(rng, d, k)
        for scale in (1e-3, 1.0, 1e3):
            scaled = DivergencePair.of(pair.rho, scale * pair.sigma)
            for eps in (0.05, 0.5, 0.97):
                with counting_eigensolves(monkeypatch) as matrices_per_call:
                    hypothesis_test_divergence(scaled, eps)
                assert 0 < len(matrices_per_call) <= 32, (d, k, scale, eps)
                assert max(matrices_per_call) <= max(k, 1), (d, k, scale, eps)


def test_dh_orthogonal_supports_are_infinite_at_once(monkeypatch):
    single = (np.diag([0.6, 0.4, 0.0]), np.diag([0.0, 0.0, 1.0]))
    stack = (
        np.array([np.diag([0.5, 0.0]), np.diag([0.0, 0.0]), np.diag([0.0, 0.5])]),
        np.array([np.diag([0.0, 0.3]), np.diag([0.2, 0.1]), np.diag([0.4, 0.0])]),
    )
    for rho, sigma in (single, stack):
        pair = DivergencePair.of(rho, sigma)
        for eps in (0.05, 0.5, 0.97):
            with counting_eigensolves(monkeypatch) as matrices_per_call:
                value = hypothesis_test_divergence(pair, eps)
            assert value == math.inf
            assert len(matrices_per_call) <= 2


def test_dh_matches_scalar_oracle_tightly_on_commuting_pairs():
    # commuting pairs make the dual piecewise linear, so the search must
    # land on a kink and match the greedy fill to near rounding
    rng = np.random.default_rng(74)
    for _ in range(30):
        d = int(rng.integers(2, 9))
        eps = float(rng.uniform(0.02, 0.98))
        u = random_unitary(rng, d)
        r = rng.dirichlet(np.ones(d))
        s = rng.dirichlet(np.ones(d)) + 0.01
        rho, sigma = u @ np.diag(r) @ u.conj().T, u @ np.diag(s) @ u.conj().T
        want = -math.log2(scalar_test_oracle(r, s, eps))
        got = hypothesis_test_divergence(DivergencePair.of(rho, sigma), eps)
        assert abs(got - want) <= 1e-10, (d, eps)
        k = int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(k * d))
        q = rng.dirichlet(np.ones(k * d)) + 0.01
        q /= q.sum()
        stack = DivergencePair.of(
            np.array([np.diag(row) for row in p.reshape(k, d)]),
            np.array([np.diag(row) for row in q.reshape(k, d)]))
        want = -math.log2(scalar_test_oracle(p, q, eps))
        assert abs(hypothesis_test_divergence(stack, eps) - want) <= 1e-10, (k, d, eps)


def test_dh_monotone_in_eps():
    rng = np.random.default_rng(38)
    for _ in range(10):
        rho = random_density(rng, 3)
        sigma = random_density(rng, 3) + 0.05 * np.eye(3)
        sigma /= np.trace(sigma).real
        pair = DivergencePair.of(rho, sigma)
        values = [
            hypothesis_test_divergence(pair, eps)
            for eps in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))


def test_dual_objective_concavity():
    rng = np.random.default_rng(39)
    for _ in range(10):
        rho = random_density(rng, 3)
        sigma = random_density(rng, 3) + 0.05 * np.eye(3)
        pair = DivergencePair.of(rho, sigma)
        mus = sorted(rng.uniform(0.0, 4.0, size=3))
        if mus[2] - mus[0] < 1e-9:
            continue
        w = (mus[1] - mus[0]) / (mus[2] - mus[0])
        g = [dual_test_objective(pair, 0.3, mu) for mu in mus]
        assert g[1] >= (1 - w) * g[0] + w * g[2] - 1e-9


# ---------------------------------------------------------------------------
# Collision divergence
# ---------------------------------------------------------------------------

def test_collision_self_is_zero():
    rng = np.random.default_rng(40)
    rho = random_density(rng, 3) + 0.05 * np.eye(3)
    rho /= np.trace(rho).real
    pair = DivergencePair.of(rho, rho)
    assert collision_divergence(pair) == pytest.approx(0.0, abs=1e-10)


def test_collision_classical_closed_form():
    pair = classical_pair([0.5, 0.5], [0.25, 0.75])
    assert collision_divergence(pair) == pytest.approx(math.log2(4.0 / 3.0), abs=1e-12)


def test_collision_homogeneity_in_numerator():
    rng = np.random.default_rng(41)
    rho = random_psd(rng, 3)
    sigma = random_psd(rng, 3) + 0.1 * np.eye(3)
    base = collision_divergence(DivergencePair.of(rho, sigma, normalized=False))
    for t in (0.5, 3.0):
        scaled = collision_divergence(
            DivergencePair.of(t * rho, sigma, normalized=False)
        )
        assert scaled == pytest.approx(base + 2.0 * math.log2(t), abs=1e-10)


# ---------------------------------------------------------------------------
# Relative entropy and variance
# ---------------------------------------------------------------------------

def test_relative_entropy_cases():
    rng = np.random.default_rng(42)
    rho = random_density(rng, 3)
    assert relative_entropy(DivergencePair.of(rho, rho)) == pytest.approx(0.0, abs=1e-10)
    pair = classical_pair([0.5, 0.5], [0.25, 0.75])
    expected = 0.5 * math.log2(2.0) + 0.5 * math.log2(2.0 / 3.0)
    assert relative_entropy(pair) == pytest.approx(expected, abs=1e-12)


def test_relative_entropy_scaling_and_variance_invariance():
    rng = np.random.default_rng(43)
    rho = random_density(rng, 3)
    sigma = random_psd(rng, 3) + 0.1 * np.eye(3)
    base_d = relative_entropy(DivergencePair.of(rho, sigma))
    base_v = relative_entropy_variance(DivergencePair.of(rho, sigma))
    for lam in (0.5, 2.0, 3.0):
        pair = DivergencePair.of(rho, lam * sigma)
        assert relative_entropy(pair) == pytest.approx(
            base_d - math.log2(lam), abs=1e-10
        )
        assert relative_entropy_variance(pair) == pytest.approx(base_v, abs=1e-9)


def test_variance_scalar_oracle():
    p, q = np.array([0.5, 0.5]), np.array([0.25, 0.75])
    llr = np.log2(p / q)
    d = float(np.sum(p * llr))
    expected = float(np.sum(p * llr ** 2)) - d * d
    pair = classical_pair(p, q)
    assert relative_entropy_variance(pair) == pytest.approx(expected, abs=1e-12)
    assert relative_entropy_variance(DivergencePair.of(np.diag(p), np.diag(p)))\
        == pytest.approx(0.0, abs=1e-12)


def test_support_violation_rejected():
    rho = np.diag([0.5, 0.5]).astype(complex)
    sigma = np.diag([1.0, 0.0]).astype(complex)
    for fn in (relative_entropy, relative_entropy_variance, collision_divergence):
        with pytest.raises(DomainError, match="support"):
            fn(DivergencePair.of(rho, sigma))


# ---------------------------------------------------------------------------
# Cross-divergence relations on commuting pairs
# ---------------------------------------------------------------------------

def test_divergence_relations_commuting():
    rng = np.random.default_rng(44)
    eps = 0.3
    for _ in range(50):
        d = int(rng.integers(2, 5))
        rho, sigma = random_commuting_pair(rng, d)
        pair = DivergencePair.of(rho, sigma)
        assert pair.commuting
        for delta in (0.05, 0.1):
            dh = hypothesis_test_divergence(pair, eps)
            ds_hi = info_spectrum_divergence(pair, eps + delta)
            assert dh <= ds_hi - math.log2(delta) + 1e-9
            pinched = pinch(sigma, rho)
            ppair = DivergencePair.of(pinched, sigma)
            ds_lo = info_spectrum_divergence(ppair, eps - delta)
            dh_hi = hypothesis_test_divergence(pair, eps + delta)
            nu = spec_count(sigma)
            assert ds_lo <= dh_hi + math.log2(nu) - 2.0 * math.log2(delta) + 1e-9


def test_collision_lower_bound_via_threshold_divergence():
    rng = np.random.default_rng(45)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        rho, sigma = random_commuting_pair(rng, d)
        for eta in (0.2, 0.5):
            ds = info_spectrum_divergence(DivergencePair.of(rho, sigma), eta)
            for lam1 in (0.3, 1.0):
                for lam2 in (0.3, 1.0):
                    mix = lam1 * rho + lam2 * sigma
                    lhs = 2.0 ** collision_divergence(
                        DivergencePair.of(rho, mix, normalized=False)
                    )
                    rhs = (1.0 - eta) / (lam1 + lam2 * 2.0 ** (-ds))
                    assert lhs >= rhs - 1e-9


def test_collision_joint_convexity():
    rng = np.random.default_rng(46)
    for _ in range(50):
        d = int(rng.integers(2, 4))
        r1 = abs(rng.normal()) * random_density(rng, d)
        r2 = abs(rng.normal()) * random_density(rng, d)
        s1 = random_density(rng, d) + 0.1 * np.eye(d)
        s2 = random_density(rng, d) + 0.1 * np.eye(d)
        for lam in (0.25, 0.5):
            mixed = collision_divergence(DivergencePair.of(
                lam * r1 + (1 - lam) * r2, lam * s1 + (1 - lam) * s2,
                normalized=False,
            ))
            split = lam * 2.0 ** collision_divergence(
                DivergencePair.of(r1, s1, normalized=False)
            ) + (1 - lam) * 2.0 ** collision_divergence(
                DivergencePair.of(r2, s2, normalized=False)
            )
            assert 2.0 ** mixed <= split + 1e-9


def test_commuting_path_matches_scalar_closed_forms():
    rng = np.random.default_rng(47)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(d))
        q = rng.dirichlet(np.ones(d)) + 0.05
        q /= q.sum()
        pair = classical_pair(p, q)
        eps = 0.35
        # scalar closed forms
        ds_scalar = -math.inf
        ratios = sorted(zip(p / q, p))
        cum = 0.0
        for ratio, mass in ratios:
            cum += mass
            if cum > eps:
                ds_scalar = math.log2(ratio)
                break
        assert info_spectrum_divergence(pair, eps) == pytest.approx(ds_scalar, abs=1e-9)
        assert hypothesis_test_divergence(pair, eps) == pytest.approx(
            -math.log2(scalar_test_oracle(p, q, eps)), abs=1e-9
        )
        assert collision_divergence(pair) == pytest.approx(
            math.log2(float(np.sum(p * p / q))), abs=1e-9
        )
        llr = np.log2(p / q)
        d_scalar = float(np.sum(p * llr))
        v_scalar = float(np.sum(p * llr ** 2)) - d_scalar ** 2
        assert relative_entropy(pair) == pytest.approx(d_scalar, abs=1e-9)
        assert relative_entropy_variance(pair) == pytest.approx(v_scalar, abs=1e-9)


# ---------------------------------------------------------------------------
# Block stacks against the dense block-diagonal operator
# ---------------------------------------------------------------------------

def _all_divergences(pair):
    values = list(info_spectrum_divergence_bracket(pair, 0.2))
    values += [hypothesis_test_divergence(pair, eps) for eps in (0.1, 0.4)]
    values += [
        collision_divergence(pair),
        relative_entropy(pair),
        relative_entropy_variance(pair),
    ]
    return values


def _assert_same(stack_values, dense_values):
    for got, want in zip(stack_values, dense_values, strict=True):
        assert got == want or abs(got - want) <= 1e-10, (got, want)


def _check_stack_against_dense(rho, sigma):
    stacked = DivergencePair.of(rho, sigma)
    dense = DivergencePair.of(block_diagonal(rho), block_diagonal(sigma))
    assert stacked.commuting == dense.commuting
    _assert_same(_all_divergences(stacked), _all_divergences(dense))
    return stacked


def _commuting_cq_pair(rng, p, q, d):
    """Block stacks p(x) r_x and q(x) s_x with each block pair commuting."""
    blocks = [random_commuting_pair(rng, d) for _ in p]
    rho = np.array([w * r for w, (r, _) in zip(p, blocks)])
    sigma = np.array([w * s for w, (_, s) in zip(q, blocks)])
    return rho, sigma


def test_block_stacks_match_dense_block_diagonal_operators():
    rng = np.random.default_rng(93)
    # (|X|, d, index of a zero-probability symbol or None)
    cases = [(1, 3, None), (4, 1, None), (3, 1, 1), (3, 2, None), (4, 2, 2),
             (2, 4, None), (5, 3, 0), (6, 2, None)]
    for alphabet, d, zero in cases:
        state_a = random_cq_state(rng, alphabet, d)
        state_b = random_cq_state(rng, alphabet, d)
        if zero is not None:
            p = state_a.p.copy()
            p[zero] = 0.0
            state_a = CQState(p / p.sum(), state_a.rhos)

        # two joint states, as the CLI divergence compares them
        pair = _check_stack_against_dense(
            joint_embed(state_a).rho_xb, joint_embed(state_b).rho_xb
        )
        assert pair.commuting == (d == 1)

        # the entropic quantities against dense operators built here
        emb = joint_embed(state_a)
        p = state_a.p[:, None, None]
        rho_b = np.sum(p * state_a.rhos, axis=0)
        rho = block_diagonal(p * state_a.rhos)
        product = DivergencePair.of(rho, block_diagonal(p * rho_b))
        one_x = DivergencePair.of(rho, block_diagonal([rho_b] * alphabet))
        _check_stack_against_dense(emb.rho_xb, emb.rho_x_tensor_rho_b)
        _check_stack_against_dense(emb.rho_xb, emb.one_x_tensor_rho_b)
        for eps in (0.1, 0.4):
            _assert_same(
                [hypothesis_test_information(state_a, eps),
                 conditional_test_entropy(state_a, eps)],
                [hypothesis_test_divergence(product, eps),
                 -hypothesis_test_divergence(one_x, eps)],
            )
        _assert_same(
            [*mutual_information_with_variance(state_a),
             *conditional_entropy_with_variance(state_a)],
            [relative_entropy(product), relative_entropy_variance(product),
             -relative_entropy(one_x), relative_entropy_variance(one_x)],
        )

        # a commuting cq pair: D_s stays exact, block by block
        p = state_a.p
        q = rng.dirichlet(np.ones(alphabet)) + 0.05
        rho, sigma = _commuting_cq_pair(rng, p, q / q.sum(), d)
        pair = _check_stack_against_dense(rho, sigma)
        assert pair.commuting
        value, lower, upper = info_spectrum_divergence_bracket(pair, 0.3)
        assert lower == value == upper
