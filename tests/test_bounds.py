"""Direct distance bounds and size sandwiches."""

import math

import numpy as np
import pytest

from oneshot_qit import (
    CQState,
    bounds,
    conditional_test_entropy,
    DomainError,
    covering_direct_bound,
    covering_size_bounds,
    dump_state,
    hypothesis_test_information,
    joint_embed,
    pa_direct_bound,
    pa_size_bounds,
    pinch,
    projector_leq,
    simulate_covering,
    simulate_pa,
    spec_count,
    validate_sandwich_params,
)
from oneshot_qit.cli import run
from oneshot_qit.divergences import _commuting_pairs
from oneshot_qit.linalg import _cluster_labels, _eigh_checked

from conftest import (
    binary_antipodal,
    bit_pair_trivial_side,
    block_diagonal,
    counting_dual_points,
    counting_eigensolves,
    random_cq_state,
)


def test_pa_direct_bound_uniform_four():
    state = CQState([0.25] * 4, [[[1.0]]] * 4)
    # threshold mass vanishes: p(x) never strictly exceeds c
    assert pa_direct_bound(state, 0.25, 2) == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_pa_direct_bound_large_c_mass_vanishes():
    rng = np.random.default_rng(61)
    state = random_cq_state(rng, 3, 2)
    nu = spec_count(state.marginal())
    c = 1e6
    assert pa_direct_bound(state, c, 4) == pytest.approx(
        math.sqrt(c * nu * 4), abs=1e-9
    )


def test_pa_direct_bound_dominates_exact_distance():
    state = bit_pair_trivial_side()
    for c in (0.4, 0.6, 1.0):
        bound = pa_direct_bound(state, c, 2)
        exact = simulate_pa(state, 2, "exact").value
        assert exact == pytest.approx(0.25, abs=1e-12)
        assert bound >= exact - 1e-9


def test_covering_direct_bound_product_state():
    rng = np.random.default_rng(62)
    rho = np.diag(rng.dirichlet(np.ones(2))).astype(complex)
    state = CQState([0.3, 0.7], [rho, rho])
    nu = spec_count(state.marginal())
    for m in (1, 2, 4):
        bound = covering_direct_bound(state, 1.001, m)
        assert bound == pytest.approx(math.sqrt(nu * 1.001 / m), abs=1e-9)


def test_covering_direct_bound_antipodal():
    state = binary_antipodal()
    # pinched ratio is 2, below c=2.5, so only the overshoot term remains
    bound = covering_direct_bound(state, 2.5, 2)
    assert bound == pytest.approx(math.sqrt(1 * 2.5 / 2), abs=1e-12)
    assert bound >= simulate_covering(state, 2, "exact").value - 1e-9


def test_covering_direct_bound_m_limit():
    state = binary_antipodal()
    tail_only = covering_direct_bound(state, 0.5, 10 ** 12)
    small_m = covering_direct_bound(state, 0.5, 1)
    assert small_m > tail_only
    assert tail_only == pytest.approx(
        covering_direct_bound(state, 0.5, 10 ** 15), abs=1e-6
    )


def test_direct_bounds_dominate_on_corpus(corpus):
    c_grid = (0.02, 0.1, 0.5, 1.0, 2.5)
    for state in corpus:
        for size in (1, 2, 4):
            pa_exact = simulate_pa(state, size, "exact").value
            cov_exact = simulate_covering(state, size, "exact").value
            for c in c_grid:
                assert pa_direct_bound(state, c, size) >= pa_exact - 1e-9
                assert covering_direct_bound(state, c, size) >= cov_exact - 1e-9


def dense_direct_bound(state, c, size, covering):
    """The direct bound from dense (|X|d)x(|X|d) operators: the joint state
    pinched to the reference's eigenvalue clusters, its mass where it
    exceeds c times the reference by more than 1e-9 of their radius, plus
    the overshoot term."""
    rho_b = np.tensordot(state.p, state.rhos, axes=1)
    weights = state.p if covering else np.ones(state.alphabet_size)
    rho = block_diagonal(state.p[:, None, None] * state.rhos)
    reference = c * block_diagonal(weights[:, None, None] * rho_b)
    pinched = pinch(reference, rho)
    eye = np.eye(rho.shape[0])
    atol = 1e-9 * max(np.linalg.norm(pinched, 2), np.linalg.norm(reference, 2))
    above = eye - projector_leq(pinched, reference + atol * eye)
    tail = float(np.trace(pinched @ above).real)
    nu = spec_count(rho_b)
    return tail + math.sqrt(c * nu / size if covering else c * nu * size)


def test_direct_bounds_match_dense_oracle():
    rng = np.random.default_rng(64)
    states = [random_cq_state(rng, x, d) for x, d in ((1, 3), (3, 1), (3, 2), (4, 3), (6, 2))]
    uniform = random_cq_state(rng, 4, 2)
    states.append(CQState(np.full(4, 0.25), uniform.rhos))
    zero = random_cq_state(rng, 4, 3)
    states.append(CQState([0.5, 0.0, 0.3, 0.2], zero.rhos))
    # a maximally mixed marginal: one eigenvalue cluster, nothing to pinch
    rho = random_cq_state(rng, 1, 3).rhos[0]
    states.append(CQState([1 / 3, 2 / 3], [rho, (np.eye(3) - rho) / 2]))
    for state in states:
        for c in (0.05, 0.3, 1.0, 2.5):
            assert pa_direct_bound(state, c, 3) == pytest.approx(
                dense_direct_bound(state, c, 3, covering=False), abs=1e-10)
            assert covering_direct_bound(state, c, 3) == pytest.approx(
                dense_direct_bound(state, c, 3, covering=True), abs=1e-10)


def _commuting_pairs_loop(rho, sigma):
    """The joint spectrum with one ``eigvalsh`` per block and cluster."""
    d = sigma.shape[-1]
    lam, v = _eigh_checked(sigma.reshape(-1, d, d))
    m = v.conj().swapaxes(-1, -2) @ rho.reshape(-1, d, d) @ v
    labels = _cluster_labels(lam)
    r_parts, s_parts = [], []
    for lam_x, m_x, labels_x in zip(lam, m, labels):
        for label in range(labels_x[-1] + 1):
            idx = np.flatnonzero(labels_x == label)
            r_parts.append(np.linalg.eigvalsh(m_x[np.ix_(idx, idx)]))
            s_parts.append(np.full(idx.size, np.mean(lam_x[idx])))
    return np.concatenate(r_parts), np.concatenate(s_parts)


def test_commuting_pairs_solve_only_multi_entry_clusters(corpus, monkeypatch):
    # singleton clusters come from the diagonal, bit for bit as the loop's
    # 1x1 solves, in the loop's order; one eigvalsh per larger cluster
    big = random_cq_state(np.random.default_rng(66), 1200, 2)
    clustered = 0
    for state in [*corpus, big]:
        emb = joint_embed(state)
        for reference in (emb.rho_x_tensor_rho_b, emb.one_x_tensor_rho_b):
            for c in (0.5, 2.0):
                with counting_eigensolves(monkeypatch) as calls:
                    r, s = _commuting_pairs(emb.rho_xb, c * reference)
                want_r, want_s = _commuting_pairs_loop(emb.rho_xb, c * reference)
                assert np.array_equal(r, want_r) and np.array_equal(s, want_s)
                clustered += len(calls) > 1
    assert clustered > 0
    # the direct bounds at |X| = 1200: the loop's values, from one stacked
    # eigh and the marginal's cluster count instead of 1,200+ solves
    for bound in (pa_direct_bound, covering_direct_bound):
        for c in (0.3, 1.0):
            with counting_eigensolves(monkeypatch) as calls:
                got = bound(big, c, 4)
            assert len(calls) == 2
            with monkeypatch.context() as patch:
                patch.setattr(bounds, "_commuting_pairs", _commuting_pairs_loop)
                assert got == bound(big, c, 4)


def test_cq_paths_solve_only_block_sized_matrices(monkeypatch, tmp_path, capsys,
                                                 cold_state_memo):
    rng = np.random.default_rng(65)
    state, other = random_cq_state(rng, 16, 2), random_cq_state(rng, 16, 2)
    path_a, path_b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    dump_state(state, path_a)
    dump_state(other, path_b)
    sizes = []
    for name in ("eigh", "eigvalsh"):
        def recording(a, *args, _solve=getattr(np.linalg, name), **kwargs):
            sizes.append(np.shape(a)[-1])
            return _solve(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recording)

    pa_direct_bound(state, 0.3, 4)
    covering_direct_bound(state, 0.3, 4)
    sandwich = ("--eps", "0.3", "--delta", "0.09", "--c", "0.04")
    argvs = [("bounds", "--task", task, "--state", path_a, *sandwich)
             for task in ("pa", "covering")]
    argvs += [("rates", "--task", task, "--state", path_a, "--eps", "0.2", "--n", "100")
              for task in ("pa", "covering")]
    argvs += [("divergence", "--kind", kind, "--state-a", path_a, "--state-b", path_b,
               "--eps", "0.2", "--grid", "64")
              for kind in ("ds", "dh", "d2", "kl", "var")]
    for argv in argvs:
        assert run(list(argv)) == 0, capsys.readouterr().err
    capsys.readouterr()
    assert sizes and max(sizes) == 2


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------

def test_parameter_domain_messages():
    with pytest.raises(DomainError, match="eps/3"):
        validate_sandwich_params(0.3, 0.11, 0.05)
    with pytest.raises(DomainError, match="c must be < delta"):
        validate_sandwich_params(0.4, 0.05, 0.06)
    with pytest.raises(DomainError, match="c must be > 0"):
        validate_sandwich_params(0.4, 0.1, 0.0)
    with pytest.raises(DomainError, match=r"\(1-eps\)/2"):
        validate_sandwich_params(0.9, 0.06, 0.01)
    # NaN fails every comparison, so each check must be one that NaN fails
    with pytest.raises(DomainError, match="c must be > 0"):
        validate_sandwich_params(0.4, 0.1, math.nan)
    with pytest.raises(DomainError, match="c must be < delta"):
        validate_sandwich_params(0.4, math.nan, 0.05)
    # the full admissible region is accepted
    validate_sandwich_params(0.4, 0.1, 0.05)
    validate_sandwich_params(0.3, 0.09, 0.04)


def test_direct_bounds_refuse_nan_and_non_integral_sizes():
    state = binary_antipodal()
    for bound in (pa_direct_bound, covering_direct_bound):
        for c in (0.0, math.nan):
            with pytest.raises(DomainError, match="c must be > 0"):
                bound(state, c, 2)
        for size in (2.5, True, math.nan):
            with pytest.raises(DomainError, match="not an integer"):
                bound(state, 0.5, size)
        with pytest.raises(DomainError, match="must be >= 1"):
            bound(state, 0.5, 0)


def test_pa_bounds_trivial_side_closed_form():
    state = CQState([1.0 / 8.0] * 8, [[[1.0]]] * 8)
    eps, delta, c = 0.4, 0.1, 0.05
    report = pa_size_bounds(state, eps, delta, c)
    eps_low = 1.0 - eps + 3.0 * delta
    expected_lower = math.log2(8) + math.log2(1.0 - eps_low) - math.log2(1.0 / delta ** 4)
    assert report.nu == 1
    assert report.lower_bits == pytest.approx(expected_lower, abs=1e-9)
    eps_high = 1.0 - eps - 2.0 * delta
    expected_upper = (
        math.log2(8) + math.log2(1.0 - eps_high)
        + math.log2((1 + c) / (c * delta)) + math.log2((eps + c) / (delta - c))
    )
    assert report.upper_bits == pytest.approx(expected_upper, abs=1e-9)


def test_covering_bounds_product_state_covering_free():
    rng = np.random.default_rng(63)
    rho = np.diag(rng.dirichlet(np.ones(2))).astype(complex)
    state = CQState([0.5, 0.5], [rho, rho])
    report = covering_size_bounds(state, 0.4, 0.1, 0.05)
    assert report.lower_bits <= 0.0


def test_covering_lower_diverges_as_delta_meets_c():
    state = binary_antipodal()
    values = [
        covering_size_bounds(state, 0.4, 0.1, c).lower_bits
        for c in (0.05, 0.09, 0.0999, 0.099999)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < -15


def test_sandwich_coherence_on_corpus(corpus):
    for state in corpus[:6]:
        for eps, delta, c in ((0.4, 0.1, 0.05), (0.3, 0.09, 0.04)):
            pa = pa_size_bounds(state, eps, delta, c)
            cov = covering_size_bounds(state, eps, delta, c)
            assert pa.lower_bits <= pa.upper_bits + 1e-9
            assert cov.lower_bits <= cov.upper_bits + 1e-9
            assert math.isfinite(pa.lower_bits) and math.isfinite(pa.upper_bits)
            assert math.isfinite(cov.lower_bits) and math.isfinite(cov.upper_bits)


# (eps, delta, c) of the benchmark's sandwiches and one further inside
_SANDWICHES = ((0.3, 0.09, 0.04), (0.4, 0.1, 0.05), (0.6, 0.15, 0.1))


def _sandwich_levels(eps, delta):
    """The bound functions, their per-level entropic function and sign, and
    their two levels, in the order the bound searches them."""
    return ((pa_size_bounds, conditional_test_entropy,
             ("entropy_low_bits", "entropy_high_bits"),
             (1.0 - eps + 3.0 * delta, 1.0 - eps - 2.0 * delta)),
            (covering_size_bounds, hypothesis_test_information,
             ("information_low_bits", "information_high_bits"),
             (1.0 - eps - 2.0 * delta, 1.0 - eps + 3.0 * delta)))


def test_size_bounds_match_per_level_searches():
    # the two levels of a sandwich, read from one memo of dual points, give
    # the values of a fresh search per level to 1.5e-12 bits
    rng = np.random.default_rng(89)
    for alphabet in (2, 4, 8):
        for d in (2, 4, 8):
            state = random_cq_state(rng, alphabet, d)
            for eps, delta, c in _SANDWICHES:
                for bound, per_level, keys, levels in _sandwich_levels(eps, delta):
                    report = bound(state, eps, delta, c)
                    for key, level in zip(keys, levels):
                        got = report.intermediate[key]
                        assert abs(got - per_level(state, level)) <= 1.5e-12, (
                            alphabet, d, eps, key)


def test_second_sandwich_level_costs_fewer_points_than_a_fresh_search(monkeypatch):
    # the second search starts from the bracket the first leaves: it never
    # takes more points than the same level searched alone, and over these
    # states it takes at most 0.85 as many (0.78 when measured)
    second, fresh = [], []
    for seed in (90, 91):
        rng = np.random.default_rng(seed)
        for alphabet in (2, 4, 8):
            for d in (2, 4, 8):
                state = random_cq_state(rng, alphabet, d)
                for eps, delta, c in _SANDWICHES:
                    for bound, per_level, _, levels in _sandwich_levels(eps, delta):
                        with counting_dual_points(monkeypatch) as calls:
                            bound(state, eps, delta, c)
                        targets = {call.target for call in calls}
                        assert targets <= {1.0 - level for level in levels}
                        shared = sum(call.target == 1.0 - levels[1] for call in calls)
                        with counting_dual_points(monkeypatch) as calls:
                            per_level(state, levels[1])
                        assert shared <= len(calls), (seed, alphabet, d, eps)
                        second.append(shared)
                        fresh.append(len(calls))
    assert sum(second) <= 0.85 * sum(fresh), (sum(second), sum(fresh))
