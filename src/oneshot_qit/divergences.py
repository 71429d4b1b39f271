"""Divergences between an operator pair (rho, sigma).

Five quantities: the information-spectrum divergence, the hypothesis-
testing divergence, the collision (order-2 sandwiched Renyi) divergence,
the relative entropy, and the relative entropy variance.  All public
values are reported in bits; natural logarithms are used internally.

``sigma`` may be any PSD operator (not necessarily normalized); shifting
it by a positive factor shifts the first four quantities by -log2 of the
factor and leaves the variance unchanged.

A pair may also be two (k, d, d) stacks of diagonal blocks (cq joint
operators); kernels work block by block with tolerances relative to the
whole stack, so a stack gives the values of the dense block-diagonal pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .linalg import (
    DEFAULT_CLUSTER_TOL,
    _cluster_labels,
    _eigh_checked,
    _mat_func_raw,
    _positive_part_trace_raw,
    _radius,
    as_hermitian,
)

LN2 = math.log(2.0)

_COMMUTATOR_TOL = 1e-10
_SUPPORT_TOL = 1e-8


@dataclass(frozen=True)
class DivergencePair:
    """A validated (rho, sigma) pair with a cached commutation flag.

    ``rho`` is a density operator (unit trace unless constructed with
    ``normalized=False``, which only relaxes the trace check); ``sigma``
    is PSD and may be unnormalized.  Both are (d, d), or both are
    (k, d, d) stacks of diagonal blocks.
    """

    rho: np.ndarray
    sigma: np.ndarray
    commuting: bool

    @classmethod
    def of(cls, rho, sigma, normalized: bool = True) -> "DivergencePair":
        rho = as_hermitian(rho)
        sigma = as_hermitian(sigma)
        if rho.shape != sigma.shape:
            raise DomainError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
        for name, op in (("rho", rho), ("sigma", sigma)):
            lam_min = float(np.linalg.eigvalsh(op).min())
            if lam_min < -1e-10:
                raise DomainError(f"{name} is not PSD: eigenvalue {lam_min:.3e}")
        if normalized:
            tr = _trace(rho)
            if abs(tr - 1.0) > 1e-10:
                raise DomainError(f"rho has trace {tr}, expected 1")
        comm = rho @ sigma - sigma @ rho
        commuting = float(np.max(np.abs(comm))) <= _COMMUTATOR_TOL
        return cls(rho, sigma, commuting)


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")


def _trace(a: np.ndarray) -> float:
    """Real trace of an operator, summed over the blocks of a stack."""
    return float(np.trace(a, axis1=-2, axis2=-1).real.sum())


def _weights(rho: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Re(v_i^dagger rho v_i) for every eigenvector column i of v."""
    return np.sum(v.conj() * (rho @ v), axis=-2).real


def _check_support(pair: DivergencePair) -> None:
    """Require the support of rho to sit inside the support of sigma."""
    lam, v = _eigh_checked(pair.sigma)
    kernel = lam <= DEFAULT_CLUSTER_TOL * _radius(lam)
    leak = float(np.sum(_weights(pair.rho, v)[kernel]))
    if leak > _SUPPORT_TOL:
        raise DomainError(
            f"support violation: rho carries mass {leak:.3e} outside the "
            "support of sigma"
        )


# ---------------------------------------------------------------------------
# Information-spectrum divergence
# ---------------------------------------------------------------------------

def _commuting_pairs(rho: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint spectrum (r_i, s_i) of a commuting pair in a common eigenbasis.

    Block by block, rho is diagonalized within each eigenvalue cluster of
    sigma; for a non-commuting pair this pinches rho to those clusters.
    """
    d = sigma.shape[-1]
    lam, v = _eigh_checked(sigma.reshape(-1, d, d))
    m = v.conj().swapaxes(-1, -2) @ rho.reshape(-1, d, d) @ v
    labels = _cluster_labels(lam, DEFAULT_CLUSTER_TOL)
    r_parts, s_parts = [], []
    for lam_x, m_x, labels_x in zip(lam, m, labels):
        for label in range(labels_x[-1] + 1):
            idx = np.flatnonzero(labels_x == label)
            r_parts.append(np.linalg.eigvalsh(m_x[np.ix_(idx, idx)]))
            s_parts.append(np.full(idx.size, np.mean(lam_x[idx])))
    return np.concatenate(r_parts), np.concatenate(s_parts)


def _ds_exact_bits(rho: np.ndarray, sigma: np.ndarray, eps: float) -> float:
    r, s = _commuting_pairs(rho, sigma)
    atol = DEFAULT_CLUSTER_TOL * max(_radius(r), _radius(s))
    keep = s > atol
    mass_off_support = float(np.sum(np.clip(r[~keep], 0.0, None)))
    if mass_off_support > _SUPPORT_TOL:
        raise DomainError(
            f"support violation: rho carries mass {mass_off_support:.3e} where "
            "sigma vanishes"
        )
    r = np.clip(r[keep], 0.0, None)
    s = s[keep]
    ratios = r / s
    order = np.argsort(ratios)
    ratios, r = ratios[order], r[order]
    # accumulate the event mass ratio value by ratio value (ties together)
    values, starts = np.unique(ratios, return_index=True)
    cum = np.cumsum(r)
    bounds = np.append(starts[1:], r.size) - 1
    for value, mass in zip(values, cum[bounds]):
        if mass > eps + 1e-12:
            if value <= 0.0:
                return -math.inf
            return math.log2(value)
    return math.inf  # event mass never exceeds eps (unreachable for densities)


def _ds_event_masses(rho: np.ndarray, sigma: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """Tr[rho {rho <= c sigma}] for every threshold c, in one stacked eigensolve.

    Same non-strict convention as ``projector_leq``: eigenvectors of
    c sigma - rho with eigenvalue >= -DEFAULT_CLUSTER_TOL * radius count.
    """
    lam, v = _eigh_checked(np.multiply.outer(cs, sigma) - rho)
    lam = lam.reshape(cs.size, -1)
    weights = _weights(rho, v).reshape(cs.size, -1)
    atol = DEFAULT_CLUSTER_TOL * np.max(np.abs(lam), axis=-1, keepdims=True)
    return np.sum(weights, axis=-1, where=lam >= -atol)


def _ds_pencil_bracket(
    rho: np.ndarray, sigma: np.ndarray, eps: float
) -> tuple[float, float, float]:
    """Certified bracket for the non-commuting supremum (values in bits).

    The event mass is 1 - f'_-(1/c) for the convex f(mu) = Tr[(mu rho -
    sigma)_+], so it is non-decreasing in c and can jump only at a pencil
    eigenvalue: bisection over the sorted pencil eigenvalues finds the
    adjacent feasible/infeasible pair, and log-space bisection narrows it.
    """
    inv_sqrt = _mat_func_raw(sigma, lambda x: x ** -0.5, support_only=True)
    pencil = np.linalg.eigvalsh(inv_sqrt @ rho @ inv_sqrt).ravel()
    atol = DEFAULT_CLUSTER_TOL * _radius(pencil)
    pencil = np.unique(pencil[pencil > atol])
    if pencil.size == 0:
        return -math.inf, -math.inf, -math.inf

    def feasible(c: float) -> bool:
        return _ds_event_masses(rho, sigma, np.array([c]))[0] <= eps + 1e-12

    candidates = np.concatenate([[pencil[0] * 0.5], pencil, [pencil[-1] * 2.0]])
    lo, hi = 0, candidates.size - 1
    if not feasible(candidates[lo]):
        return -math.inf, -math.inf, -math.inf
    if feasible(candidates[hi]):
        # no infeasible threshold above the pencil; report saturation
        c_lo = float(candidates[hi])
        return math.log2(c_lo), math.log2(c_lo), math.inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(candidates[mid]):
            lo = mid
        else:
            hi = mid
    c_lo, c_hi = float(candidates[lo]), float(candidates[hi])
    # bisect in log space down to a fixed relative width
    while math.log2(c_hi) - math.log2(c_lo) > 1e-12:
        mid = math.sqrt(c_lo * c_hi)
        if feasible(mid):
            c_lo = mid
        else:
            c_hi = mid
    return math.log2(c_hi), math.log2(c_lo), math.log2(c_hi)


def info_spectrum_divergence_bracket(
    pair: DivergencePair, eps: float
) -> tuple[float, float, float]:
    """(value, lower, upper) in bits; exact collapses the bracket to a point.

    The value is the largest log-threshold c (base 2) at which the mass
    of the event {rho <= 2^c sigma} under rho still stays at or below
    eps; the supremum itself is a left limit and is not attained.  For
    non-commuting pairs the mass, non-decreasing in the threshold, is
    bisected over the sorted pencil eigenvalues and then in log space to
    a bracket of width at most 1e-12 bits.
    """
    _check_eps(eps)
    if pair.commuting:
        value = _ds_exact_bits(pair.rho, pair.sigma, eps)
        return value, value, value
    _check_support(pair)
    return _ds_pencil_bracket(pair.rho, pair.sigma, eps)


def info_spectrum_divergence(pair: DivergencePair, eps: float) -> float:
    """Largest feasible log-threshold, in bits.

    Exact for commuting pairs (sorted eigenvalue ratios).  For
    non-commuting pairs a bisection over the pencil eigenvalues, refined
    in log space, locates the threshold; the certified bracket is
    available from :func:`info_spectrum_divergence_bracket`.
    """
    return info_spectrum_divergence_bracket(pair, eps)[0]


# ---------------------------------------------------------------------------
# Hypothesis-testing divergence
# ---------------------------------------------------------------------------

def _dual_point(
    rho: np.ndarray, sigma: np.ndarray, target: float, mu: float
) -> tuple[float, float]:
    """g(mu) and a supergradient of g at mu, from one eigensolve.

    With mu rho - sigma = sum_i lam_i v_i v_i^dagger, the slope is
    target - sum_{lam_i > 0} v_i^dagger rho v_i (Hellmann-Feynman); at a
    kink the zero eigenvectors may fall on either side, and either choice
    is a supergradient.
    """
    lam, v = _eigh_checked(mu * rho - sigma)
    positive = lam > 0
    value = mu * target - float(np.sum(lam[positive]))
    slope = target - float(np.sum(_weights(rho, v)[positive]))
    return value, slope


def _optimal_test_mass(rho: np.ndarray, sigma: np.ndarray, eps: float) -> float:
    """min Tr[sigma T] over tests 0 <= T <= 1 with Tr[rho T] >= 1 - eps.

    Evaluated through the concave one-dimensional dual
    g(mu) = mu (1 - eps) - Tr[(mu rho - sigma)_+], whose maximum equals
    the primal optimum (randomized tests included).  Each eigensolve gives
    g and a supergradient (``_dual_point``).  The maximum lies between a
    point a of positive slope (first mu = 0, where g = 0 and 1 - eps is a
    supergradient) and a point b of non-positive slope, found by doubling
    from mu = 1.  Steps alternate between the meeting point of the
    tangents at a and b, which lands on the kink of a piecewise-linear g,
    and a secant step on the slope, superlinear where g is smooth; a step
    that leaves (a, b) is replaced by bisection.  By concavity the two
    tangents meet above the maximum, so the search stops once that upper
    bound exceeds the best value seen by at most a relative 1e-12, or
    once b - a <= 1e-13 b, and returns the best value seen.  A dozen or
    so eigensolves is typical.
    """
    target = 1.0 - eps
    a, g_a, s_a = 0.0, 0.0, target
    b = 1.0
    g_b, s_b = _dual_point(rho, sigma, target, b)
    doublings = 0
    while s_b > 0.0:
        a, g_a, s_a = b, g_b, s_b
        b *= 2.0
        doublings += 1
        if doublings > 60:
            raise NumericalError(
                "dual bracket failed to enclose a maximum after 60 doublings"
            )
        g_b, s_b = _dual_point(rho, sigma, target, b)
    best = max(g_a, g_b)
    prev, s_prev, last, s_last = a, s_a, b, s_b
    for step in range(200):
        meet = (g_b - g_a + s_a * a - s_b * b) / (s_a - s_b)
        upper = g_a + s_a * (meet - a)
        if upper - best <= 1e-12 * best or b - a <= 1e-13 * b:
            return best
        if step % 2 == 0 or s_last == s_prev:
            mu = meet
        else:
            mu = last - s_last * (last - prev) / (s_last - s_prev)
        if not a < mu < b:
            mu = 0.5 * (a + b)
        g_mu, s_mu = _dual_point(rho, sigma, target, mu)
        best = max(best, g_mu)
        prev, s_prev, last, s_last = last, s_last, mu, s_mu
        if s_mu > 0.0:
            a, g_a, s_a = mu, g_mu, s_mu
        else:
            b, g_b, s_b = mu, g_mu, s_mu
    raise NumericalError("dual search did not certify its maximum in 200 steps")


def hypothesis_test_divergence(pair: DivergencePair, eps: float) -> float:
    """-log2 of the least sigma-mass of a test accepting rho with prob >= 1-eps.

    The mass is the maximum of the concave dual ``dual_test_objective``,
    found by a tangent-and-secant search that certifies it to a relative
    1e-12 (about 1.4e-12 bits); +inf when the mass is 0, as for rho and
    sigma with orthogonal supports.
    """
    _check_eps(eps)
    beta = _optimal_test_mass(pair.rho, pair.sigma, eps)
    if beta <= 0.0:
        return math.inf
    return -math.log2(beta)


def dual_test_objective(pair: DivergencePair, eps: float, mu: float) -> float:
    """The concave dual g(mu) = mu (1 - eps) - Tr[(mu rho - sigma)_+].

    Its maximum over mu >= 0 is the optimal test mass; every value is a
    lower bound on it.  ``hypothesis_test_divergence`` evaluates g together
    with its slope, one eigensolve per point.
    """
    _check_eps(eps)
    if mu < 0.0:
        raise DomainError("mu must be non-negative")
    return mu * (1.0 - eps) - _positive_part_trace_raw(mu * pair.rho - pair.sigma)


# ---------------------------------------------------------------------------
# Collision divergence, relative entropy, relative entropy variance
# ---------------------------------------------------------------------------

def collision_divergence(pair: DivergencePair) -> float:
    """log2 of the collision overlap Tr[(sigma^{-1/4} rho sigma^{-1/4})^2].

    Homogeneous of degree 2 in rho, so unnormalized PSD numerators are
    meaningful; requires sigma positive definite on the support of rho.
    """
    _check_support(pair)
    quarter = _mat_func_raw(pair.sigma, lambda x: x ** -0.25, support_only=True)
    w = quarter @ pair.rho @ quarter
    value = _trace(w @ w)
    if value <= 0.0:
        return -math.inf
    return math.log2(value)


def _log_operators(pair: DivergencePair) -> np.ndarray:
    log_rho = _mat_func_raw(pair.rho, math.log, support_only=True)
    log_sigma = _mat_func_raw(pair.sigma, math.log, support_only=True)
    return log_rho - log_sigma


def relative_entropy(pair: DivergencePair) -> float:
    """Tr[rho (log rho - log sigma)] in bits, support-restricted logs."""
    _check_support(pair)
    delta = _log_operators(pair)
    return _trace(pair.rho @ delta) / LN2


def relative_entropy_variance(pair: DivergencePair) -> float:
    """Second central moment of the log-likelihood operator, in bits^2."""
    _check_support(pair)
    delta = _log_operators(pair)
    mean = _trace(pair.rho @ delta)
    second = _trace(pair.rho @ delta @ delta)
    return max(second - mean * mean, 0.0) / (LN2 * LN2)
