"""Divergence definitions, dual optimality, and operator inequalities."""

import math
import re

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
from oneshot_qit.divergences import (
    _dual_point,
    _hypothesis_test_divergences,
    _model_step,
    dual_test_objective,
)
from oneshot_qit.entropic import _joint_pair
from oneshot_qit.linalg import projector_leq
from oneshot_qit.rates import (
    classical_relative_entropy,
    classical_relative_entropy_variance,
)

from conftest import (
    block_diagonal,
    counting_eigensolves,
    counting_dual_points,
    dense_divergence_oracle,
    ds_bisection_oracle,
    ds_crossing_oracle,
    operator_test_oracle,
    random_commuting_pair,
    random_cq_state,
    random_density,
    random_psd,
    random_unitary,
    scalar_test_oracle,
)


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


def test_ds_exact_keeps_a_small_block_of_the_reference():
    # the covering pair of p = (1 - q, q) with orthogonal outputs commutes;
    # block 1 of rho_X (x) rho_B has eigenvalues q (1 - q) and q^2 = 1e-10,
    # and the second carries rho's mass q at ratio 1/q: above every level
    # 1 - q + q/2 it is the ratio that crosses, on the support of its block
    q = 1e-5
    state = CQState([1 - q, q], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    pair = _joint_pair(state, True)
    assert pair.commuting
    value, lower, upper = info_spectrum_divergence_bracket(pair, 1.0 - q / 2)
    assert lower == value == upper == pytest.approx(math.log2(1.0 / q), rel=1e-14)


def test_ds_of_a_small_non_commuting_block_matches_the_oracle():
    # blocks 1 and 2 of 1_X (x) rho_B do not commute with |0><0| and |+><+|;
    # a commutator rule over the whole stack missed them at weight 3e-6 and
    # gave the pinched value -17.5751 bits as exact
    q = 3e-6
    state = CQState([1 - 2 * q, q, q], [np.eye(2) / 2, np.diag([1.0, 0.0]), np.full((2, 2), 0.5)])
    pair = _joint_pair(state, False)
    assert not pair.commuting
    value, lower, upper = info_spectrum_divergence_bracket(pair, 1e-6)
    want = ds_bisection_oracle(pair.rho, pair.sigma, 1e-6)
    assert lower <= value <= upper and max(abs(value - want), abs(lower - want)) <= 1e-9


def test_ds_of_sigma_clusters_a_hair_apart_matches_the_oracle():
    # sigma's eigenvalues are 2e-9 apart, two clusters, so pinching drops
    # rho's off-diagonal entry; the commutator, 2e-11, passed a 1e-10 rule
    # and D_s read -2.9e-9 bits as exact
    pair = DivergencePair.of([[0.5, 0.01], [0.01, 0.5]], np.diag([0.5 - 1e-9, 0.5 + 1e-9]))
    assert not pair.commuting
    value, lower, upper = info_spectrum_divergence_bracket(pair, 0.3)
    want = ds_bisection_oracle(pair.rho, pair.sigma, 0.3)
    assert lower <= value <= upper and max(abs(value - want), abs(lower - want)) <= 1e-9


def test_classical_state_with_a_tiny_block_stays_commuting():
    # the per-block rule reads each block against its own rho, so a
    # diagonal block of weight 1e-12 keeps the exact path: D_s is the
    # classical sorted-ratio crossing, bit for bit
    q = 1e-12
    a = np.array([[0.05, 0.1, 0.85], [0.5, 0.45, 0.05]])
    state = CQState([1 - q, q], [np.diag(row) for row in a])
    mu = np.linalg.eigvalsh(state.marginal())
    for weighted in (False, True):
        pair = _joint_pair(state, weighted)
        assert pair.commuting
        r = state.p[:, None] * a  # the marginal's diagonal is ascending
        s = state.p[:, None] * mu if weighted else np.array([mu, mu])
        ratios = sorted(zip((r / s).ravel(), r.ravel()))
        for eps in (0.01, 0.3, 0.5, 0.99):
            mass = 0.0
            for ratio, weight in ratios:
                mass += weight
                if mass > eps + 1e-12:
                    break
            value, lower, upper = info_spectrum_divergence_bracket(pair, eps)
            assert lower == value == upper == math.log2(ratio), (weighted, eps)


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
    # a sigma eigenvalue far below rho's radius stays in sigma's support
    rho, sigma = np.diag([0.6, 0.4]), np.diag([1.0, 1e-6])
    pair = DivergencePair.of(rho, sigma)
    for lam in (1e-2, 1e-4):
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


def test_commutation_flag_and_ds_bracket_do_not_change_with_the_scale_of_sigma():
    # the flag is relative to the operators' size: an absolute 1e-10 once
    # flagged this non-commuting pair commuting at sigma x 1e-12, and the
    # commuting one non-commuting at sigma x 1e12; a relative rule over the
    # whole stack flagged the cq stack, whose 1e-9-weight block does not
    # commute, commuting at every scale
    rng = np.random.default_rng(35)
    p = np.array([0.6, 0.4 - 1e-9, 1e-9])
    blocks = [np.diag([0.7, 0.3]), np.diag([0.2, 0.8]), np.array([[0.5, 0.1], [0.1, 0.5]])]
    stack = DivergencePair.of(p[:, None, None] * np.array(blocks),
                              np.array([np.diag([0.6, 0.4]) / 3] * 3))
    pairs = [(False, random_noncommuting_pair(rng, 4)),
             (True, DivergencePair.of(*random_commuting_pair(rng, 4))),
             (False, stack)]
    for commuting, base in pairs:
        want = info_spectrum_divergence_bracket(base, 0.2)
        for t in 10.0 ** np.arange(-12, 13, 3):
            pair = DivergencePair.of(base.rho, t * base.sigma)
            assert pair.commuting == commuting, t
            got = np.array(info_spectrum_divergence_bracket(pair, 0.2)) + math.log2(t)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


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


def test_ds_point_mass_matches_projector_oracle():
    rng = np.random.default_rng(49)
    for d in (2, 3, 4, 8):
        for _ in range(3):
            pair = random_noncommuting_pair(rng, d)
            rho, sigma = pair.rho, pair.sigma
            # the pencil eigenvalues put a zero eigenvalue into c sigma - rho,
            # where the non-strict convention decides membership
            pencil = np.sort(np.linalg.eigvals(np.linalg.solve(sigma, rho)).real)
            cs = np.concatenate([pencil, np.geomspace(pencil[0] / 4, pencil[-1] * 4, 40)])
            for c in cs:
                # with target Tr rho, the slope of a D_s point is the event mass
                mass = _dual_point(rho, sigma, 1.0, 1.0 / c, True)[1]
                oracle = np.trace(rho @ projector_leq(rho, c * sigma)).real
                assert abs(mass - oracle) <= 1e-12, (d, c)


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
            assert abs(value - crossing(eps)) <= 2e-12, (d, k, eps)


def test_ds_point_mass_non_decreasing_in_threshold():
    rng = np.random.default_rng(51)
    for d, k in _DS_CASES * 2:
        pair = random_noncommuting_pair(rng, d, k)
        pencil = np.sort(
            np.linalg.eigvals(np.linalg.solve(pair.sigma, pair.rho)).real.ravel())
        cs = np.empty(2 * pencil.size - 1)
        cs[0::2] = pencil
        cs[1::2] = np.sqrt(pencil[:-1] * pencil[1:])
        masses = [_dual_point(pair.rho, pair.sigma, 1.0, 1.0 / c, True)[1]
                  for c in cs]
        assert np.all(np.diff(masses) >= -1e-12), (d, k)


def _pencil_points(rho, sigma):
    """Sorted eigenvalues of the pencil sigma^-1 rho, dense for stacks."""
    if rho.ndim == 3:
        rho, sigma = block_diagonal(rho), block_diagonal(sigma)
    return np.sort(np.linalg.eigvals(np.linalg.solve(sigma, rho)).real)


def _nearest_crossing(mu, point):
    """(estimate, weight, above) of the branch of a ``_dual_point`` output
    nearest the split: where it crosses, to first order, its slope, and
    whether it lies above the split."""
    branches, weights = point[3], point[4]
    i = int(np.abs(branches).argmin())
    return mu - branches[i] / weights[i], weights[i], bool(branches[i] > 0.0)


def test_dual_point_curvature_matches_central_differences():
    # the curvature is the derivative of the slope in mu while no eigenvalue
    # crosses the split, and past the crossing of the nearest branch the
    # slope is the one with that branch's weight moved across the split
    rng = np.random.default_rng(53)
    for d, k in ((2, 0), (3, 0), (8, 0), (16, 0), (2, 4), (4, 2), (8, 2)):
        pair = random_noncommuting_pair(rng, d, k)
        rho, sigma = pair.rho, pair.sigma
        crossings = 1.0 / _pencil_points(rho, sigma)
        for split in (False, True):
            for mu in np.sqrt(crossings[:-1] * crossings[1:]):
                h = 1e-6 * mu
                curvature = _dual_point(rho, sigma, 0.7, mu, split)[2]
                up = _dual_point(rho, sigma, 0.7, mu + h, split)[1]
                down = _dual_point(rho, sigma, 0.7, mu - h, split)[1]
                central = (up - down) / (2.0 * h)
                assert curvature < 0.0
                assert abs(curvature - central) <= 1e-5 * abs(curvature), (d, k, mu)
            for mu in np.concatenate([crossings * (1.0 + 1e-4), crossings * (1.0 - 1e-4)]):
                point = _dual_point(rho, sigma, 0.7, mu, split)
                root, weight, above = _nearest_crossing(mu, point)
                slope_x = point[1] + (weight if above else -weight)
                beyond = root + 0.5 * (root - mu)
                far = _dual_point(rho, sigma, 0.7, beyond, split)[1]
                expected = slope_x + point[2] * (beyond - mu)
                assert abs(far - expected) <= 1e-3 * weight, (d, k, mu)


def test_dual_point_crossing_matches_dense_scan_oracle():
    # near each pencil eigenvalue c, the crossing estimate of the nearest
    # branch of a D_s point converges, by re-evaluation at the estimate, to
    # the jump of the event mass that the dense threshold scan finds for an
    # eps inside it, and the model step of the search takes that crossing
    rng = np.random.default_rng(54)
    for d, k in ((2, 0), (4, 0), (8, 0), (3, 3), (4, 2)):
        pair = random_noncommuting_pair(rng, d, k)
        rho, sigma = pair.rho, pair.sigma
        mass, crossing = ds_crossing_oracle(rho, sigma)
        for c in _pencil_points(rho, sigma)[1:-1]:
            before, after = mass(c * (1.0 - 1e-6)), mass(c)
            eps = 0.5 * (before + after)
            mu = (1.0 + 1e-3) / c
            for _ in range(4):
                mu = _nearest_crossing(mu, _dual_point(rho, sigma, 1.0 - eps, mu, True))[0]
            assert abs(-math.log2(mu) - crossing(eps)) <= 2e-12, (d, k, c)
            # one estimate from 1e-7 away already lies within the bracket width
            near = mu * (1.0 + 1e-7)
            point = _dual_point(rho, sigma, 1.0 - eps, near, True)
            assert abs(math.log2(_nearest_crossing(near, point)[0] / mu)) <= 1e-12, (d, k, c)
            step = _model_step(near, point[1], point[2], point[3], point[4])
            assert abs(math.log2(step / mu)) <= 1e-12, (d, k, c)


@pytest.mark.parametrize("slope, curvature, branches, weights", [
    (0.5, -2.0, [0.3, 0.1], [1.0, 1.0]),
    (0.5, -2.0, [0.3, -0.1], [1.0, 0.0]),
    (-0.5, -2.0, [-0.3, 0.0], [1.0, 1.0]),
    (1.0, -0.1, [-0.1, -0.2], [0.1, 0.1]),
    (-1.0, -0.1, [0.1, 0.2], [0.1, 0.1]),
], ids=["up-none-below", "up-only-weightless", "down-none-above", "up-short", "down-short"])
def test_model_step_is_the_newton_step_without_a_modelled_kink(slope, curvature, branches,
                                                               weights):
    # no branch crosses the split in the direction of the slope, or the
    # crossings ahead (at mu +- 1 and 2) take 0.2 off a slope of 1 and the
    # Newton step lands past both
    mu = 1.0
    step = _model_step(mu, slope, curvature, np.array(branches), np.array(weights))
    assert step == mu - slope / curvature


def test_ds_eigensolve_budget(monkeypatch):
    rng = np.random.default_rng(52)
    for d, k in ((16, 0), (4, 4)):
        pair = random_noncommuting_pair(rng, d, k)
        for eps in (0.05, 0.2, 0.5, 0.8):
            with counting_eigensolves(monkeypatch) as matrices_per_call:
                info_spectrum_divergence_bracket(pair, eps)
            assert 0 < len(matrices_per_call) <= 16, (d, k, eps)
            assert max(matrices_per_call) <= max(k, 1), (d, k, eps)


def _bisection_count(calls):
    """Event-mass evaluations that bisection makes from the same doubling
    start: the doubling phase, replayed from the recorded calls, then one
    per halving of its bracket on mu, steered by the search's final end of
    non-positive slope, down to the D_s stop rule b - a <= (1 - 2^-1e-12) b.  Returns (count, doubling-phase
    evaluations)."""
    n = 1
    while calls[n - 1].slope > 0.0:
        n += 1
    lo, hi = (calls[n - 2].mu if n > 1 else 0.0), calls[n - 1].mu
    assert all(lo < call.mu < hi for call in calls[n:])
    crossing = min(call.mu for call in calls if call.slope <= 0.0)
    doubling_phase = n
    while hi - lo > (1.0 - 2.0 ** -1e-12) * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if mid >= crossing else (mid, hi)
        n += 1
    return n, doubling_phase


def test_ds_narrowing_costs_less_than_bisection(monkeypatch):
    # every call stays within bisection + 2 evaluations, which nothing in
    # the search enforces, and the mean falls far below bisection's
    for seed in (52, 58):
        rng = np.random.default_rng(seed)
        made, bisection = [], []
        for d, k in _DS_CASES:
            pair = random_noncommuting_pair(rng, d, k)
            for eps in (0.05, 0.2, 0.5, 0.8):
                with counting_dual_points(monkeypatch) as calls:
                    info_spectrum_divergence_bracket(pair, eps)
                count, doubling_phase = _bisection_count(calls)
                assert doubling_phase < len(calls) <= count + 2, (seed, d, k, eps)
                made.append(len(calls))
                bisection.append(count)
        assert sum(made) <= 0.25 * sum(bisection), (seed, sum(made), sum(bisection))


def test_ds_crossings_take_few_points_after_the_pencil_phase(monkeypatch):
    # no pencil phase precedes the narrowing now, only the doubling start.
    # After it, a crossing inside the jump just below a pencil eigenvalue
    # and one between pencil eigenvalues each take at most 12 points, the
    # bound that crossings between pencil eigenvalues met after the pencil
    # phase; neither falls back to bisection's 40 or so.  Whole calls of
    # either kind take no more points on average than the pencil phase and
    # its narrowing did on these seeds: 7.33 in a jump, 11.02 between.
    most = {True: 0, False: 0}
    made = {True: [], False: []}
    for seed in range(52, 59):
        rng = np.random.default_rng(seed)
        for d, k in _DS_CASES:
            pair = random_noncommuting_pair(rng, d, k)
            pencil = _pencil_points(pair.rho, pair.sigma)
            for eps in (0.05, 0.2, 0.5, 0.8):
                with counting_dual_points(monkeypatch) as calls:
                    upper = info_spectrum_divergence_bracket(pair, eps)[2]
                _, doubling_phase = _bisection_count(calls)
                gap = np.min(np.abs(np.log2(pencil) - upper))
                in_jump = bool(gap <= 1e-6)
                most[in_jump] = max(most[in_jump], len(calls) - doubling_phase)
                made[in_jump].append(len(calls))
    assert most[True] <= 12 and most[False] <= 12, most
    assert made[True] and made[False], made
    assert np.mean(made[True]) <= 7.33 and np.mean(made[False]) <= 11.02, made


def test_ds_search_point_budget(monkeypatch):
    # one doubling start and the narrowing take at most 13 points per call
    # and 8.14 on average, the figures of the pencil-eigenvalue bisection
    # this search replaced
    made = []
    for seed in range(52, 59):
        rng = np.random.default_rng(seed)
        for d, k in _DS_CASES:
            pair = random_noncommuting_pair(rng, d, k)
            for eps in (0.05, 0.2, 0.5, 0.8):
                with counting_dual_points(monkeypatch) as calls:
                    info_spectrum_divergence_bracket(pair, eps)
                assert 0 < len(calls) <= 13, (seed, d, k, eps, len(calls))
                made.append(len(calls))
    assert sum(made) <= 8.14 * len(made), sum(made) / len(made)


def _ket(angle):
    return np.array([math.cos(angle), math.sin(angle)], dtype=complex)


def test_ds_rank_deficient_rho_matches_bisection_oracle():
    # the mass of {rho <= c sigma} rises continuously from c = 0 when rho
    # has a kernel, so no pencil eigenvalue bounds the crossing from below
    pure = [np.outer(v, v.conj()) for v in (_ket(0.0), _ket(math.pi / 6))]
    rho = 0.5 * np.array(pure)  # cq state of two pure qubits 30 degrees apart
    sigma = np.array([0.5 * rho.sum(axis=0)] * 2)  # rho_X (x) rho_B
    pair = DivergencePair.of(rho, sigma)
    assert not pair.commuting
    values = []
    for eps in (0.01, 0.05, 0.1):
        value = info_spectrum_divergence(pair, eps)
        assert abs(value - ds_bisection_oracle(rho, sigma, eps)) <= 1e-9, eps
        values.append(value)
    assert all(map(math.isfinite, values))
    assert all(lo < hi for lo, hi in zip(values, values[1:])), values
    rho, sigma = pure[1], np.diag([0.25, 0.75]).astype(complex)
    pair = DivergencePair.of(rho, sigma)
    assert not pair.commuting
    value = info_spectrum_divergence(pair, 0.05)
    assert abs(value - ds_bisection_oracle(rho, sigma, 0.05)) <= 1e-9


def test_ds_saturates_alike_for_commuting_and_non_commuting_pairs():
    # at Tr rho <= eps + 1e-12 every threshold is feasible
    rng = np.random.default_rng(59)
    eps = 1.0 - 1e-13
    for pair in (random_noncommuting_pair(rng, 3), classical_pair([0.3, 0.7], [0.6, 0.4])):
        assert info_spectrum_divergence_bracket(pair, eps) == (math.inf,) * 3
        assert info_spectrum_divergence_bracket(pair, 0.5)[2] < math.inf


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
                assert 0 < len(matrices_per_call) <= 24, (d, k, scale, eps)
                assert max(matrices_per_call) <= max(k, 1), (d, k, scale, eps)


def test_dh_dual_points_do_not_grow_with_the_scale_of_sigma(monkeypatch):
    # the doubling starts at mu = Tr sigma / Tr rho; from mu = 1 it took
    # about 16 points at sigma x 1e3 where it takes 7 at sigma as given
    rng = np.random.default_rng(73)
    for d, k in ((2, 0), (3, 0), (4, 0), (8, 0), (2, 3), (4, 4)):
        pair = random_noncommuting_pair(rng, d, k)
        for eps in (0.05, 0.3, 0.8):
            counts = []
            for scale in (1.0, 1e3, 1e-3):
                scaled = DivergencePair.of(pair.rho, scale * pair.sigma)
                with counting_dual_points(monkeypatch) as calls:
                    hypothesis_test_divergence(scaled, eps)
                counts.append(len(calls))
            assert counts[1] == counts[0] == counts[2], (d, k, eps, counts)


def _cq_stack_pairs(rng, alphabet, d):
    """The joint stack of a random cq state against its two references,
    1_X (x) rho_B and rho_X (x) rho_B."""
    state = random_cq_state(rng, alphabet, d)
    return [_joint_pair(state, weighted) for weighted in (False, True)]


def _stall_trials(*indices):
    """The trials ``indices`` of a stream of random D_h calls from
    default_rng(3), as (pair, eps): |X| and d in {2, 4, 8}, p Dirichlet,
    each rho_x = G G^dagger / Tr with G complex Gaussian, eps uniform in
    (0.01, 0.99), against 1_X (x) rho_B on even trials and rho_X (x) rho_B
    on odd ones."""
    rng = np.random.default_rng(3)
    trials = []
    for trial in range(max(indices) + 1):
        alphabet, d = int(rng.choice([2, 4, 8])), int(rng.choice([2, 4, 8]))
        p = rng.dirichlet(np.ones(alphabet))
        rhos = []
        for _ in range(alphabet):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            gram = g @ g.conj().T
            rhos.append(gram / np.trace(gram).real)
        eps = float(rng.uniform(0.01, 0.99))
        if trial in indices:
            trials.append((_joint_pair(CQState(p, rhos), trial % 2 == 1), eps))
    return trials


def test_dh_search_does_not_stall_between_the_ends(monkeypatch):
    # trial 1016 once took 75 points: the Newton step from b landed just
    # above a, the nearest crossing from a just below b, and the bracket
    # shrank by about 1e-4 per pair of steps; the kink that ends the search
    # lies where another branch crosses.  Trial 2512 takes 20 points unless
    # the search steps to the tangent meet after two steps without progress
    (stall, eps), (slow, slow_eps) = _stall_trials(1016, 2512)
    assert stall.rho.shape == (2, 4, 4) and eps == 0.9580657641816538
    for pair, level, want in ((stall, eps, 4.572678805667473),
                              (slow, slow_eps, -0.6857764961217415)):
        with counting_dual_points(monkeypatch) as calls:
            value = hypothesis_test_divergence(pair, level)
        assert len(calls) <= 16, (level, len(calls))
        assert abs(value - want) <= 1e-9, level


def test_dh_search_point_budget(monkeypatch):
    # cq stacks against both references, eps from 0.02 to 0.98: at most 16
    # points per call and 6.5 on average (the search before the model step
    # and the safeguard took 7.5 on average here, and 68 at most)
    made = []
    for seed in range(80, 87):
        rng = np.random.default_rng(seed)
        for alphabet in (2, 4, 8):
            for d in (2, 4, 8):
                for pair in _cq_stack_pairs(rng, alphabet, d):
                    for eps in (0.02, 0.2, 0.5, 0.8, 0.98):
                        with counting_dual_points(monkeypatch) as calls:
                            hypothesis_test_divergence(pair, eps)
                        assert 0 < len(calls) <= 16, (seed, alphabet, d, eps, len(calls))
                        made.append(len(calls))
    assert sum(made) <= 6.5 * len(made), sum(made) / len(made)


def test_memo_seeded_dh_matches_the_fresh_search(monkeypatch):
    # a search seeded with the points of earlier levels certifies the same
    # value as one from scratch, to the 1e-12 relative of either certificate
    rng = np.random.default_rng(88)
    level_sets = ((0.97, 0.52), (0.52, 0.97), (0.1, 0.3), (0.3, 0.1),
                  (0.05, 0.5, 0.95), (0.6, 0.6))
    for alphabet, d in ((2, 2), (2, 4), (4, 4), (8, 2), (4, 8)):
        for pair in _cq_stack_pairs(rng, alphabet, d):
            for levels in level_sets:
                with counting_dual_points(monkeypatch) as calls:
                    shared = _hypothesis_test_divergences(pair, levels)
                fresh = [hypothesis_test_divergence(pair, eps) for eps in levels]
                for got, want in zip(shared, fresh):
                    assert abs(got - want) <= 1.5e-12, (alphabet, d, levels)
                assert {call.target for call in calls} <= {1.0 - eps for eps in levels}
            # a repeated level is certified from the memo without a point
            with counting_dual_points(monkeypatch) as calls:
                _hypothesis_test_divergences(pair, (0.6, 0.6))
            with counting_dual_points(monkeypatch) as fresh_calls:
                hypothesis_test_divergence(pair, 0.6)
            assert len(calls) == len(fresh_calls)


def test_dh_orthogonal_supports_are_infinite_at_once(monkeypatch):
    single = (np.diag([0.6, 0.4, 0.0]), np.diag([0.0, 0.0, 1.0]))
    stack = (
        np.array([np.diag([0.5, 0.0]), np.diag([0.0, 0.0]), np.diag([0.0, 0.5])]),
        np.array([np.diag([0.0, 0.3]), np.diag([0.2, 0.1]), np.diag([0.4, 0.0])]),
    )
    # the same supports in a rotated basis, where rounding leaves a dual
    # value near 1e-17 rather than 0
    rng = np.random.default_rng(80)
    rotated = []
    for d in (2, 4) * 10:
        u = random_unitary(rng, d)
        k = int(rng.integers(1, d))
        r = np.concatenate([rng.dirichlet(np.ones(k)), np.zeros(d - k)])
        s = np.concatenate([np.zeros(k), rng.dirichlet(np.ones(d - k))])
        rotated.append((u @ np.diag(r) @ u.conj().T, u @ np.diag(s) @ u.conj().T))
    for rho, sigma in (single, stack, *rotated):
        pair = DivergencePair.of(rho, sigma)
        for eps in (0.05, 0.5, 0.97):
            with counting_eigensolves(monkeypatch) as matrices_per_call:
                value = hypothesis_test_divergence(pair, eps)
            assert value == math.inf
            assert len(matrices_per_call) <= 2
    # an overlap of 1e-6 is far above the rounding floor: finite, and
    # equal to the commuting value -log2((1 - eps)·1e-6) up to the
    # rotation's rounding, about 1e-16 / 1e-6 relative in the mass
    u = random_unitary(rng, 2)
    pair = DivergencePair.of(u @ np.diag([1.0, 0.0]) @ u.conj().T,
                             u @ np.diag([1e-6, 1.0 - 1e-6]) @ u.conj().T)
    for eps in (0.05, 0.5, 0.97):
        assert hypothesis_test_divergence(pair, eps) == pytest.approx(
            -math.log2((1.0 - eps) * 1e-6), abs=1e-8)


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


def test_ds_bracket_locates_the_maximum_of_the_dh_dual():
    # 2^-D_s is where the slope of the D_h dual changes sign, so the dual at
    # the ends of the D_s bracket reaches 2^-D_h; the split at the threshold
    # of the whole stack's spectrum moves jump crossings by up to 2e-7
    # bits, about 1e-7 bits in the dual
    for seed in (60, 61):
        rng = np.random.default_rng(seed)
        for d, k in _DS_CASES:
            pair = random_noncommuting_pair(rng, d, k)
            for eps in (0.05, 0.2, 0.5, 0.8):
                _, lower, upper = info_spectrum_divergence_bracket(pair, eps)
                dual = max(dual_test_objective(pair, eps, 2.0 ** -lower),
                           dual_test_objective(pair, eps, 2.0 ** -upper))
                gap = abs(hypothesis_test_divergence(pair, eps) + math.log2(dual))
                assert gap <= 1e-6, (seed, d, k, eps, gap)


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


def test_dual_objective_refuses_negative_or_nan_mu():
    pair = DivergencePair.of(np.eye(2) / 2, np.eye(2) / 2)
    for mu in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="mu must be non-negative"):
            dual_test_objective(pair, 0.3, mu)


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


def _close(got, want, tol=1e-12):
    return abs(got - want) <= tol * (1.0 + abs(want))


def test_divergence_kernels_solve_each_operator_once(corpus, monkeypatch):
    # D2, D and V read sigma's frame and the two eigensystems that the
    # support check and DivergencePair.of's PSD check already solved, and
    # match the dense operator formulas to 1e-12; building a pair and
    # running a kernel solve each operator once, and a warm pair solves
    # nothing
    for state in corpus:
        emb = joint_embed(state)
        for reference in (emb.rho_x_tensor_rho_b, emb.one_x_tensor_rho_b):
            pair = DivergencePair.of(emb.rho_xb, reference)
            rho, sigma = pair.rho, pair.sigma
            wants = dense_divergence_oracle(rho, sigma)
            for fn, want in zip(
                    (collision_divergence, relative_entropy, relative_entropy_variance), wants):
                inputs = []
                with counting_eigensolves(monkeypatch, inputs) as calls:
                    pair = DivergencePair.of(rho, sigma)
                    assert _close(fn(pair), want), fn.__name__
                assert len(calls) == 2, fn.__name__
                assert all(map(np.array_equal, inputs, (rho, sigma))), fn.__name__
                with counting_eigensolves(monkeypatch) as calls:
                    assert _close(fn(pair), want), fn.__name__
                assert calls == [], fn.__name__


def test_d_v_d2_match_the_dense_operator_oracle():
    rng = np.random.default_rng(48)
    cases = []
    for d in (2, 3, 4):
        u = random_unitary(rng, d)
        sigma = random_psd(rng, d) + 0.05 * np.eye(d)
        # rank-deficient rho
        low = rng.normal(size=(d, d - 1)) + 1j * rng.normal(size=(d, d - 1))
        rank_deficient = low @ low.conj().T
        cases.append((rank_deficient / np.trace(rank_deficient).real, sigma, True))
        # sigma with a kernel, rho leaking 1e-10 < _SUPPORT_TOL into it
        mu = rng.dirichlet(np.ones(d))
        mu[0] = 0.0
        inside = u[:, 1:] @ np.diag(rng.dirichlet(np.ones(d - 1))) @ u[:, 1:].conj().T
        leak = 1e-10 * np.outer(u[:, 0], u[:, 0].conj())
        cases.append(((1 - 1e-10) * inside + leak, (u * mu) @ u.conj().T, True))
        # unnormalized rho
        cases.append((2.5 * random_density(rng, d), sigma, False))
    # cq stacks: the joint pairs of random states and pairs of their blocks
    for alphabet, dim in ((3, 4), (5, 2)):
        state = random_cq_state(rng, alphabet, dim)
        cases += [(pair.rho, pair.sigma, True)
                  for pair in (_joint_pair(state, weighted) for weighted in (False, True))]
        other = random_cq_state(rng, alphabet, dim)
        cases.append((state.rhos, 0.5 * other.rhos + 0.1 * state.rhos, False))
    for rho, sigma, normalized in cases:
        pair = DivergencePair.of(rho, sigma, normalized=normalized)
        got = (collision_divergence(pair), relative_entropy(pair),
               relative_entropy_variance(pair))
        for value, want in zip(got, dense_divergence_oracle(rho, sigma), strict=True):
            assert _close(value, want), (value, want)


def test_diagonal_pair_d_and_v_are_the_classical_moments():
    rng = np.random.default_rng(49)
    for d in (1, 2, 3, 5, 8):
        p, q = rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d))
        if d > 1:
            p[0] = 0.0  # an outcome off the support of rho
            p /= p.sum()
        pair = classical_pair(p, q)
        # one moment kernel, the same terms: equal up to summation order
        assert relative_entropy(pair) == pytest.approx(
            classical_relative_entropy(p, q), rel=1e-14, abs=1e-15)
        assert relative_entropy_variance(pair) == pytest.approx(
            classical_relative_entropy_variance(p, q), rel=1e-14, abs=1e-15)


def test_lazy_commutation_flag_matches_the_eager_one(corpus):
    # the flag the pair computes on first read is the one a block-by-block
    # pinch gives (each block of rho unchanged, to 1e-9 of its radius, by
    # pinching it to its sigma block's clusters), and it is formed once
    def eager(rho, sigma):
        d = rho.shape[-1]
        for r, s in zip(rho.reshape(-1, d, d), sigma.reshape(-1, d, d)):
            radius = np.abs(np.linalg.eigvalsh(r)).max()
            if np.abs(r - pinch(s, r)).max() > 1e-9 * radius:
                return False
        return True

    pairs = [_joint_pair(state, weighted) for state in corpus for weighted in (False, True)]
    pairs += [DivergencePair.of(a.rhos, b.rhos, normalized=False)
              for a in corpus for b in corpus
              if a is not b and a.rhos.shape == b.rhos.shape and a.dim_b > 1]
    rng = np.random.default_rng(45)
    pairs += [DivergencePair.of(*random_commuting_pair(rng, d)) for d in (2, 3, 4)]
    flags = []
    for pair in pairs:
        assert "commuting" not in vars(pair)
        flags.append(pair.commuting)
        assert flags[-1] == eager(pair.rho, pair.sigma) and vars(pair)["commuting"] is flags[-1]
    assert True in flags and False in flags


def test_pair_refuses_operators_of_different_shape():
    with pytest.raises(DomainError, match="dimension mismatch"):
        DivergencePair.of(np.eye(2) / 2, np.eye(3) / 3)
    # direct construction, as from two states' eigensystems, checks the
    # shapes too: (2, 2) against (3, 3), and (2, d, d) against (3, d, d)
    for rho, sigma in ((np.eye(2) / 2, np.eye(3) / 3),
                       (np.stack([np.eye(2) / 4] * 2), np.stack([np.eye(2) / 6] * 3))):
        eigs = [np.linalg.eigh(op) for op in (rho, sigma)]
        with pytest.raises(DomainError, match="dimension mismatch"):
            DivergencePair(rho, sigma, *eigs)


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


def _ds_scalar(p, q, eps):
    """D_s of diagonal p against q in bits: log2 of the first ratio p/q, in
    increasing order over q's support, at which the running p-mass
    exceeds eps."""
    cum = 0.0
    for ratio, mass in sorted((a / b, a) for a, b in zip(p, q) if b > 0):
        cum += mass
        if cum > eps:
            return math.log2(ratio)
    return math.inf


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
        ds_scalar = _ds_scalar(p, q, eps)
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
    # tied ratios (2, 2 and 1, 1), a zero-mass ratio 0 and a sigma kernel
    # entry, at levels whose crossing falls on either member of a tie group
    for p, q in [([0.2, 0.2, 0.3, 0.3, 0.0], [0.1, 0.1, 0.3, 0.3, 0.2]),
                 ([0.25, 0.25, 0.5, 0.0, 0.0], [0.125, 0.125, 0.5, 0.25, 0.0])]:
        pair = classical_pair(p, q)
        for eps in (0.05, 0.2, 0.35, 0.45, 0.65, 0.9):
            assert info_spectrum_divergence(pair, eps) == pytest.approx(
                _ds_scalar(p, q, eps), abs=1e-12), (p, eps)


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


@pytest.mark.parametrize("rho, sigma, message", [
    (np.diag([1.2, -0.2]), np.eye(2) / 2, "rho is not PSD: eigenvalue -2.000e-01"),
    (np.eye(2) / 2, np.diag([1.2, -0.2]), "sigma is not PSD: eigenvalue -2.000e-01"),
    (np.diag([0.75, 0.5]), np.eye(2) / 2, "rho has trace 1.25, expected 1"),
], ids=["rho-not-psd", "sigma-not-psd", "rho-trace"])
def test_pair_boundary_refusals(rho, sigma, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        DivergencePair.of(rho, sigma)
