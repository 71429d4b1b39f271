"""Shared generators, named states, and independent oracles.

Oracles here deliberately avoid the library's computation paths: the
scalar test oracle is a greedy ratio fill, the operator test oracle is a
primal grid search, the D_s oracles are a dense threshold scan and a
bisection on the event mass, the D, V and D2 oracle forms the dense log
and sigma^{-1/4} operators, the protocol oracles enumerate every function
table or codebook, and trace norms are cross-checked through singular
values.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from typing import NamedTuple

import numpy as np
import pytest

from oneshot_qit import CQState, cq, divergences, simulate
from oneshot_qit.linalg import DEFAULT_CLUSTER_TOL, projector_leq


# ---------------------------------------------------------------------------
# Random operator generators
# ---------------------------------------------------------------------------

def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_psd(rng, d, scale=1.0):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (g @ g.conj().T) / d


def random_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_commuting_pair(rng, d, sigma_floor=0.05):
    """A density and a positive-definite density sharing an eigenbasis."""
    u = random_unitary(rng, d)
    r = rng.dirichlet(np.ones(d))
    s = rng.dirichlet(np.ones(d)) + sigma_floor
    s /= s.sum()
    return u @ np.diag(r) @ u.conj().T, u @ np.diag(s) @ u.conj().T


def random_projector(rng, d):
    u = random_unitary(rng, d)
    k = int(rng.integers(1, d + 1))
    cols = u[:, :k]
    return cols @ cols.conj().T


def random_cq_state(rng, alphabet, dim):
    p = rng.dirichlet(np.ones(alphabet))
    return CQState(p, [random_density(rng, dim) for _ in range(alphabet)])


def block_diagonal(blocks):
    """The dense operator with the (k, d, d) blocks on its diagonal."""
    blocks = np.asarray(blocks)
    k, d = blocks.shape[0], blocks.shape[-1]
    dense = np.zeros((k * d, k * d), dtype=complex)
    for x in range(k):
        dense[x * d:(x + 1) * d, x * d:(x + 1) * d] = blocks[x]
    return dense


# ---------------------------------------------------------------------------
# Named states
# ---------------------------------------------------------------------------

def bit_pair_trivial_side():
    """Uniform bit with no side information (blocks of dimension 1)."""
    return CQState(p=[0.5, 0.5], rhos=[[[1.0]], [[1.0]]])


def binary_antipodal():
    """Uniform bit mapped to orthogonal pure states."""
    return CQState(
        p=[0.5, 0.5],
        rhos=[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],
    )


def classical_diagonal_state(rng, alphabet, dim):
    p = rng.dirichlet(np.ones(alphabet))
    rhos = [np.diag(rng.dirichlet(np.ones(dim))).astype(complex) for _ in range(alphabet)]
    return CQState(p, rhos)


def corpus_states():
    """Ten seeded states, |X| <= 4 and d <= 3, mixing generic, classical,
    trivial-side, and degenerate-spectrum cases."""
    rng = np.random.default_rng(20240917)
    states = [
        bit_pair_trivial_side(),
        binary_antipodal(),
        random_cq_state(rng, 2, 2),
        random_cq_state(rng, 3, 2),
        random_cq_state(rng, 4, 2),
        random_cq_state(rng, 2, 3),
        random_cq_state(rng, 3, 3),
        random_cq_state(rng, 4, 3),
        classical_diagonal_state(rng, 3, 2),
        CQState(p=[0.25] * 4, rhos=[[[1.0]]] * 4),
    ]
    return states


@pytest.fixture(scope="session")
def corpus():
    return corpus_states()


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def scalar_test_oracle(p, q, eps):
    """Optimal q-mass over tests with p-acceptance >= 1 - eps.

    Greedy ratio fill with a fractional boundary outcome; independent of
    the library's dual-optimization path.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    order = sorted(range(p.size), key=lambda i: -(p[i] / q[i]))
    need = 1.0 - eps
    beta = 0.0
    for i in order:
        if need <= 0.0:
            break
        if p[i] <= 0.0:
            continue
        weight = min(1.0, need / p[i])
        beta += weight * q[i]
        need -= weight * p[i]
    return beta


def operator_test_oracle(rho, sigma, eps, n_grid=4000, mu_max=50.0):
    """Primal grid search over likelihood-ratio tests plus boundary mixing.

    Scans projectors onto the positive part of mu*rho - sigma and mixes
    consecutive tests to hit the acceptance constraint exactly.  Returns
    an upper bound on the optimal q-mass that converges from above as the
    grid refines.
    """
    rho = np.asarray(rho)
    sigma = np.asarray(sigma)
    points = []
    for mu in np.geomspace(1e-4, mu_max, n_grid):
        lam, v = np.linalg.eigh(mu * rho - sigma)
        cols = v[:, lam > 0]
        proj = cols @ cols.conj().T
        alpha = float(np.trace(rho @ proj).real)
        beta = float(np.trace(sigma @ proj).real)
        points.append((alpha, beta))
    points.append((1.0, float(np.trace(sigma).real)))  # the full test
    target = 1.0 - eps
    best = math.inf
    for alpha, beta in points:
        if alpha >= target:
            best = min(best, beta)
    points.sort()
    for (a1, b1), (a2, b2) in zip(points, points[1:]):
        if a1 < target <= a2 and a2 > a1:
            w = (target - a1) / (a2 - a1)
            best = min(best, (1 - w) * b1 + w * b2)
    return best


def dense_event_mass(rho, sigma, c):
    """Tr[rho {rho <= c sigma}] on dense operators, via ``projector_leq``."""
    return float(np.trace(rho @ projector_leq(rho, c * sigma)).real)


def exact_event_mass(rho, sigma, c):
    """Tr[rho {rho <= c sigma}] block by block, keeping the eigenvalues of
    c sigma - rho at or above 0: the event without a tolerance, as the
    sorted ratios of a commuting pair read it."""
    d = rho.shape[-1]
    mass = 0.0
    for r, s in zip(rho.reshape(-1, d, d), sigma.reshape(-1, d, d)):
        lam, v = np.linalg.eigh(c * s - r)
        cols = v[:, lam >= 0.0]
        mass += float(np.trace(cols.conj().T @ r @ cols).real)
    return mass


def ds_bisection_oracle(rho, sigma, eps, exact=False):
    """D_s in bits by bisection in log c on ``dense_event_mass``, or on
    ``exact_event_mass`` if ``exact``.

    It starts from c = 2^-64, where the mass is near 0 whatever the rank
    of rho, and doubles from c = 1 to the first infeasible threshold; it
    assumes the mass is non-decreasing in c and returns log2 of the
    infeasible end once the bracket is at most 1e-12 bits wide.
    """
    if exact:
        mass = exact_event_mass
    else:
        mass = dense_event_mass
        if np.ndim(rho) == 3:
            rho, sigma = block_diagonal(rho), block_diagonal(sigma)

    def feasible(c):
        return mass(rho, sigma, c) <= eps + 1e-12

    c_lo, c_hi = 2.0 ** -64, 1.0
    assert feasible(c_lo)
    while feasible(c_hi):
        c_lo, c_hi = c_hi, 2.0 * c_hi
    while math.log2(c_hi / c_lo) > 1e-12:
        mid = math.sqrt(c_lo * c_hi)
        c_lo, c_hi = (mid, c_hi) if feasible(mid) else (c_lo, mid)
    return math.log2(c_hi)


def ds_crossing_oracle(rho, sigma, grid=2048):
    """A dense threshold scan for the D_s crossing, reusable across eps.

    (rho, sigma) are (d, d) or (k, d, d) block stacks; both are made
    dense.  The event mass is evaluated at every eigenvalue of the pencil
    sigma^-1 rho (a dense generalized eigenproblem) and on a ``grid``-point
    log grid spanning them.  ``crossing(eps)`` takes the largest feasible
    scanned point, which assumes no monotonicity, and bisects in log
    space towards the next scanned point; it returns log2 of the
    infeasible end (the supremum as a left limit), in bits.
    """
    if np.ndim(rho) == 3:
        rho, sigma = block_diagonal(rho), block_diagonal(sigma)
    pencil = np.linalg.eigvals(np.linalg.solve(sigma, rho)).real
    pencil = pencil[pencil > 1e-12 * pencil.max()]
    points = np.unique(np.concatenate([
        pencil, np.geomspace(pencil.min() / 4, pencil.max() * 4, grid)]))
    masses = np.array([dense_event_mass(rho, sigma, c) for c in points])

    def mass(c):
        return dense_event_mass(rho, sigma, c)

    def crossing(eps):
        feasible = np.flatnonzero(masses <= eps + 1e-12)
        assert feasible.size and feasible[-1] + 1 < points.size
        c_lo, c_hi = points[feasible[-1]], points[feasible[-1] + 1]
        while math.log2(c_hi / c_lo) > 1e-12:
            mid = math.sqrt(c_lo * c_hi)
            if mass(mid) <= eps + 1e-12:
                c_lo = mid
            else:
                c_hi = mid
        return math.log2(c_hi)

    return mass, crossing


def dense_divergence_oracle(rho, sigma):
    """(D2, D, V) in bits and bits^2 from the dense operator formulas:
    log2 Tr[(sigma^{-1/4} rho sigma^{-1/4})^2], and Tr[rho delta] and
    Tr[rho delta^2] - Tr[rho delta]^2 for delta = log rho - log sigma.
    Each function of an operator maps its eigenvalues above
    DEFAULT_CLUSTER_TOL times its radius and sends the rest to 0; (k, d, d)
    stacks are made dense first, so the radius is the whole stack's."""
    if np.ndim(rho) == 3:
        rho, sigma = block_diagonal(rho), block_diagonal(sigma)

    def func(a, f):
        lam, v = np.linalg.eigh(a)
        keep = lam > DEFAULT_CLUSTER_TOL * np.abs(lam).max()
        mapped = np.zeros(lam.shape)
        mapped[keep] = f(lam[keep])
        return (v * mapped) @ v.conj().T

    quarter = func(sigma, lambda x: x ** -0.25)
    w = quarter @ rho @ quarter
    delta = func(rho, np.log) - func(sigma, np.log)
    mean = np.trace(rho @ delta).real
    second = np.trace(rho @ delta @ delta).real
    ln2 = math.log(2.0)
    return (math.log2(np.trace(w @ w).real), mean / ln2,
            max(second - mean * mean, 0.0) / (ln2 * ln2))


@contextlib.contextmanager
def counting_eigensolves(monkeypatch, inputs=None):
    """Patch numpy's ``eigh`` and ``eigvalsh`` to record, per call, the
    number of matrices solved; yields the list of those counts.  When
    ``inputs`` is a list, each solved array is appended to it as well
    (see ``solves_of``)."""
    matrices_per_call = []

    def counting(solver):
        def wrapped(a, *args, **kwargs):
            a = np.asarray(a)
            matrices_per_call.append(int(np.prod(a.shape[:-2])))
            if inputs is not None:
                inputs.append(a)
            return solver(a, *args, **kwargs)
        return wrapped

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
        patch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
        yield matrices_per_call


def solves_of(inputs, operator) -> int:
    """How many of the arrays that ``counting_eigensolves`` recorded in
    ``inputs`` equal ``operator``, shape included: the solves of that
    operator, told apart from the solves of the dual's mu rho - sigma."""
    return sum(np.array_equal(a, operator) for a in inputs)


@pytest.fixture()
def cold_state_memo():
    """Empty the process-wide state memo of ``cq.load_state`` before and
    after the test, so that the test parses and validates every state
    file it loads afresh, whatever tests ran before it; yields the memo.
    For tests that count eigensolves or validations across a load."""
    cq._STATE_MEMO.clear()
    yield cq._STATE_MEMO
    cq._STATE_MEMO.clear()


@contextlib.contextmanager
def counting_half_norm_batches(monkeypatch):
    """Patch ``simulate._half_norms``, the one trace-norm helper of the
    simulators, to record, per batch, the number of operators it
    receives; yields the list of those counts.  It sees every simulator
    batch: the exact curves' chunks, Monte-Carlo extraction's set table
    (one batch per call) and the blocks each chunk solves, and each
    Monte-Carlo covering chunk's distinct types, whichever kernel
    ``_half_norms`` then picks, the closed form at d = 3, 4 included.

    It counts batches whatever the block dimension, whereas
    ``counting_eigensolves`` sees only the blocks that reach LAPACK."""
    matrices_per_batch = []
    half_norms = simulate._half_norms

    def wrapped(stack):
        matrices_per_batch.append(len(stack))
        return half_norms(stack)

    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_half_norms", wrapped)
        yield matrices_per_batch


class DualCall(NamedTuple):
    """One ``divergences._dual_point`` call: where it was taken, its slope,
    and the target and split it was taken at."""

    mu: float
    slope: float
    target: float
    split: bool


@contextlib.contextmanager
def counting_dual_points(monkeypatch):
    """Patch ``divergences._dual_point``, the one eigensolve of every D_s
    and D_h search step, to record each call as a ``DualCall``; yields the
    list of calls.  A D_s point at threshold c has mu = 1/c, and its slope
    is the excess mass at c.  The target tells apart the levels of
    searches that share points, as the two of a size sandwich do."""
    calls = []
    dual_point = divergences._dual_point

    def wrapped(rho, sigma, target, mu, split=False):
        out = dual_point(rho, sigma, target, mu, split)
        calls.append(DualCall(mu, out[1], target, split))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(divergences, "_dual_point", wrapped)
        yield calls


def svd_trace_norm(a):
    return float(np.linalg.svd(np.asarray(a), compute_uv=False).sum())


def brute_force_pa(state, z):
    """Extraction distance averaged over all z**|X| function tables."""
    p, rhos = state.p, state.rhos
    rho_b = sum(px * rho for px, rho in zip(p, rhos))
    values = []
    for table in itertools.product(range(z), repeat=len(p)):
        for out in range(z):
            block = -rho_b / z
            for x, h in enumerate(table):
                if h == out:
                    block = block + p[x] * rhos[x]
            values.append(0.5 * svd_trace_norm(block))
    return math.fsum(values) / z ** len(p)


def brute_force_covering(state, m):
    """Covering distance averaged over all |X|**m codebooks, p-weighted."""
    p, rhos = state.p, state.rhos
    rho_b = sum(px * rho for px, rho in zip(p, rhos))
    values = []
    for book in itertools.product(range(len(p)), repeat=m):
        weight = math.prod(p[c] for c in book)
        avg = sum(rhos[c] for c in book) / m
        values.append(weight * 0.5 * svd_trace_norm(avg - rho_b))
    return math.fsum(values)
