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

from .errors import DomainError, NumericalError, _check_eps
from .linalg import (
    _PSD_TOL,
    DEFAULT_CLUSTER_TOL,
    _cluster_labels,
    _eigh_checked,
    _spectral_func,
    _threshold,
    as_hermitian,
)

LN2 = math.log(2.0)

_COMMUTATOR_TOL = 1e-10
_SUPPORT_TOL = 1e-8
_DUAL_FLOOR = 64 * np.finfo(float).eps
_DS_WIDTH_BITS = 1e-12
# The event predicate counts eigenvalues of c sigma - rho down to
# -_DS_EVENT_TOL times their radius, which puts a crossing inside a jump
# of the mass about 1e-9 to 2e-7 bits below the pencil eigenvalue; the
# root-find's first probe sits just outside that range, at the power of
# two below 1000 times the tolerance (2^-20 bits).  A change to the
# predicate's tolerance moves the probe with it.
_DS_EVENT_TOL = DEFAULT_CLUSTER_TOL
_DS_JUMP_PROBE_BITS = 2.0 ** math.floor(math.log2(1000.0 * _DS_EVENT_TOL))


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
        for name, op in (("rho", rho), ("sigma", sigma)):
            lam_min = float(np.linalg.eigvalsh(op).min())
            if lam_min < -_PSD_TOL:
                raise DomainError(f"{name} is not PSD: eigenvalue {lam_min:.3e}")
        if normalized:
            tr = _trace(rho)
            if abs(tr - 1.0) > _PSD_TOL:
                raise DomainError(f"rho has trace {tr}, expected 1")
        return cls._trusted(rho, sigma)

    @classmethod
    def _trusted(cls, rho: np.ndarray, sigma: np.ndarray) -> "DivergencePair":
        """A pair of Hermitian PSD arrays, rho of unit trace, such as the
        joint operators of validated ``CQState``s: only the shapes are
        checked (two states may differ in d or |X|) and the commutation
        flag computed."""
        if rho.shape != sigma.shape:
            raise DomainError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
        comm = rho @ sigma - sigma @ rho
        commuting = float(np.max(np.abs(comm))) <= _COMMUTATOR_TOL
        return cls(rho, sigma, commuting)


def _trace(a: np.ndarray) -> float:
    """Real trace of an operator, summed over the blocks of a stack."""
    return float(np.trace(a, axis1=-2, axis2=-1).real.sum())


def _weights(rho: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Re(v_i^dagger rho v_i) for every eigenvector column i of v."""
    return np.sum(v.conj() * (rho @ v), axis=-2).real


def _check_support(pair: DivergencePair) -> tuple[np.ndarray, np.ndarray]:
    """Require the support of rho to sit inside the support of sigma.

    Returns sigma's eigensystem (lam, v), from which callers take their
    functions of sigma without a second eigensolve.
    """
    lam, v = _eigh_checked(pair.sigma)
    kernel = lam <= _threshold(lam)
    leak = float(np.sum(_weights(pair.rho, v)[kernel]))
    if leak > _SUPPORT_TOL:
        raise DomainError(
            f"support violation: rho carries mass {leak:.3e} outside the "
            "support of sigma"
        )
    return lam, v


# ---------------------------------------------------------------------------
# Information-spectrum divergence
# ---------------------------------------------------------------------------

def _commuting_pairs(rho: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint spectrum (r_i, s_i) of a commuting pair in a common eigenbasis.

    Block by block, rho is diagonalized within each eigenvalue cluster of
    sigma; for a non-commuting pair this pinches rho to those clusters.
    Clusters are contiguous runs of sigma's ascending eigenvalues, and
    the output lists them block by block in that order.  A singleton
    cluster contributes its diagonal entry (what a 1x1 ``eigvalsh``
    returns), so only clusters of two or more entries are solved.
    """
    d = sigma.shape[-1]
    lam, v = _eigh_checked(sigma.reshape(-1, d, d))
    m = v.conj().swapaxes(-1, -2) @ rho.reshape(-1, d, d) @ v
    labels = _cluster_labels(lam)
    r = np.diagonal(m, axis1=-2, axis2=-1).real.copy()
    s = lam.copy()
    # cluster ids unique across blocks, non-decreasing in row-major order
    ids = (labels + d * np.arange(lam.shape[0])[:, None]).ravel()
    _, starts, sizes = np.unique(ids, return_index=True, return_counts=True)
    for start, size in zip(starts[sizes > 1], sizes[sizes > 1]):
        x, cols = divmod(int(start), d)
        cols = slice(cols, cols + int(size))
        r[x, cols] = np.linalg.eigvalsh(m[x, cols, cols])
        s[x, cols] = np.mean(lam[x, cols])
    return r.ravel(), s.ravel()


def _ds_exact_bits(rho: np.ndarray, sigma: np.ndarray, eps: float) -> float:
    """Exact D_s of a commuting pair whose support ``_check_support`` passed:
    the sorted ratios r/s over the joint spectrum where s is non-zero."""
    r, s = _commuting_pairs(rho, sigma)
    keep = s > _threshold(s)
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
    c sigma - rho with eigenvalue >= -_DS_EVENT_TOL * radius count.
    """
    lam, v = _eigh_checked(np.multiply.outer(cs, sigma) - rho)
    lam = lam.reshape(cs.size, -1)
    weights = _weights(rho, v).reshape(cs.size, -1)
    atol = _DS_EVENT_TOL * np.max(np.abs(lam), axis=-1, keepdims=True)
    return np.sum(weights, axis=-1, where=lam >= -atol)


def _itp_log_crossing(excess, c_lo: float, y_lo: float, c_hi: float, y_hi: float
                      ) -> tuple[float, float]:
    """Narrow c_lo < c_hi, with excess(c_lo) = y_lo <= 0 < y_hi =
    excess(c_hi), to log2 ends at most ``_DS_WIDTH_BITS`` apart.

    ITP root-finding (Oliveira and Takahashi, ACM TOMS 47, 2021) on
    t = log2 c, with kappa1 = 0.2 / (initial width), kappa2 = 2 and
    n0 = 1.  Each step takes an estimate of the crossing, projects it
    into the ball around the midpoint that keeps the remaining steps
    within ceil(log2(width / tol)) + 1, the count of log-space bisection
    plus one, and keeps it tol/4 inside the bracket.  Rounding in t can
    leave the last width a hair above tol, which costs one step more.

    The first estimate is ``_DS_JUMP_PROBE_BITS`` below the upper end, a
    pencil eigenvalue: where eps falls inside a jump of the mass, the
    event predicate's tolerance puts the crossing just below that pencil
    eigenvalue, and the first step shrinks the bracket to 2^-20 bits.
    Later estimates interpolate between the ends (regula falsi, truncated
    towards the midpoint by kappa1 w^2), with the end excesses as
    weights, halved Illinois-style whenever the same end is kept twice in
    a row; a smooth crossing converges superlinearly.
    Returns (lower, upper), log2 of the last feasible and infeasible
    thresholds evaluated.
    """
    tol = _DS_WIDTH_BITS
    a, b = math.log2(c_lo), math.log2(c_hi)
    w_a, w_b = y_lo, y_hi
    kappa1 = 0.2 / (b - a)
    steps_left = max(math.ceil(math.log2((b - a) / tol)), 0) + 1
    kept = None
    x = max(b - _DS_JUMP_PROBE_BITS, 0.5 * (a + b))
    while b - a > tol:
        width, mid = b - a, 0.5 * (a + b)
        if x is None:
            falsi = a - w_a * width / (w_b - w_a)
            shift = math.copysign(kappa1 * width * width, mid - falsi)
            x = mid if abs(shift) > abs(mid - falsi) else falsi + shift
        radius = tol * 2.0 ** (steps_left - 1) - 0.5 * width
        x = mid + min(max(x - mid, -radius), radius)
        c = 2.0 ** min(max(x, a + 0.25 * tol), b - 0.25 * tol)
        y = excess(c)
        if y <= 0.0:
            a, w_a = math.log2(c), y
            if kept == "b":
                w_b *= 0.5
            kept = "b"
        else:
            b, w_b = math.log2(c), y
            if kept == "a":
                w_a *= 0.5
            kept = "a"
        steps_left -= 1
        x = None
    return a, b


def _ds_pencil_bracket(
    rho: np.ndarray, sigma: np.ndarray, sigma_eig: tuple[np.ndarray, np.ndarray],
    eps: float,
) -> tuple[float, float, float]:
    """Certified bracket for the non-commuting supremum (values in bits).

    The event mass is 1 - f'_-(1/c) for the convex f(mu) = Tr[(mu rho -
    sigma)_+], so it is non-decreasing in c and can jump only at a pencil
    eigenvalue: bisection over the sorted pencil eigenvalues finds the
    adjacent feasible/infeasible pair, and an ITP root-find on the excess
    mass(c) - (eps + 1e-12) in log2 c narrows it (``_itp_log_crossing``).
    ``sigma_eig`` is sigma's eigensystem from ``_check_support``.
    """
    inv_sqrt = _spectral_func(*sigma_eig, lambda x: x ** -0.5)
    pencil = np.linalg.eigvalsh(inv_sqrt @ rho @ inv_sqrt).ravel()
    pencil = np.unique(pencil[pencil > _threshold(pencil)])
    if pencil.size == 0:
        return -math.inf, -math.inf, -math.inf

    def excess(c: float) -> float:
        return _ds_event_masses(rho, sigma, np.array([c]))[0] - (eps + 1e-12)

    candidates = np.concatenate([[pencil[0] * 0.5], pencil, [pencil[-1] * 2.0]])
    lo, hi = 0, candidates.size - 1
    y_lo = excess(candidates[lo])
    if y_lo > 0.0:
        return -math.inf, -math.inf, -math.inf
    y_hi = excess(candidates[hi])
    if y_hi <= 0.0:
        # no infeasible threshold above the pencil; report saturation
        c_lo = float(candidates[hi])
        return math.log2(c_lo), math.log2(c_lo), math.inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        y = excess(candidates[mid])
        if y <= 0.0:
            lo, y_lo = mid, y
        else:
            hi, y_hi = mid, y
    lower, upper = _itp_log_crossing(
        excess, float(candidates[lo]), float(y_lo), float(candidates[hi]), float(y_hi))
    return upper, lower, upper


def info_spectrum_divergence_bracket(
    pair: DivergencePair, eps: float
) -> tuple[float, float, float]:
    """(value, lower, upper) in bits; exact collapses the bracket to a point.

    The value is the largest log-threshold c (base 2) at which the mass
    of the event {rho <= 2^c sigma} under rho still stays at or below
    eps; the supremum itself is a left limit and is not attained.  For
    non-commuting pairs the mass, non-decreasing in the threshold, is
    bisected over the sorted pencil eigenvalues, and an ITP root-find in
    log space narrows the crossing to a bracket of width at most 1e-12
    bits, in at most two evaluations more than log-space bisection.
    """
    _check_eps(eps)
    sigma_eig = _check_support(pair)
    if pair.commuting:
        value = _ds_exact_bits(pair.rho, pair.sigma, eps)
        return value, value, value
    return _ds_pencil_bracket(pair.rho, pair.sigma, sigma_eig, eps)


def info_spectrum_divergence(pair: DivergencePair, eps: float) -> float:
    """Largest feasible log-threshold, in bits.

    Exact for commuting pairs (sorted eigenvalue ratios).  For
    non-commuting pairs a bisection over the pencil eigenvalues, refined
    by an ITP root-find in log space, locates the threshold; the
    certified bracket is available from
    :func:`info_spectrum_divergence_bracket`.
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

    g is only known to rounding, about eps_mach·‖mu rho − sigma‖₁ <=
    eps_mach·(Tr sigma + mu Tr rho).  Once the tangents meet at or below
    ``_DUAL_FLOOR`` times that scale, the maximum is indistinguishable
    from 0 and the mass is 0, as for supports that are orthogonal in any
    basis.  The floor scales with sigma, so the scaling identity holds.
    """
    target = 1.0 - eps
    tr_rho, tr_sigma = _trace(rho), _trace(sigma)
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
        if upper <= _DUAL_FLOOR * (tr_sigma + meet * tr_rho):
            return 0.0
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
    1e-12 (about 1.4e-12 bits); +inf when the mass is 0 to rounding, as
    for rho and sigma with orthogonal supports in any basis.
    """
    _check_eps(eps)
    beta = _optimal_test_mass(pair.rho, pair.sigma, eps)
    if beta <= 0.0:
        return math.inf
    return -math.log2(beta)


def dual_test_objective(pair: DivergencePair, eps: float, mu: float) -> float:
    """The concave dual g(mu) = mu (1 - eps) - Tr[(mu rho - sigma)_+].

    Its maximum over mu >= 0 is the optimal test mass; every value is a
    lower bound on it.  This is the g, from the same eigensolve, that
    ``hypothesis_test_divergence`` maximizes.
    """
    _check_eps(eps)
    if not mu >= 0.0:
        raise DomainError(f"mu must be non-negative, got {mu}")
    return _dual_point(pair.rho, pair.sigma, 1.0 - eps, mu)[0]


# ---------------------------------------------------------------------------
# Collision divergence, relative entropy, relative entropy variance
# ---------------------------------------------------------------------------

def collision_divergence(pair: DivergencePair) -> float:
    """log2 of the collision overlap Tr[(sigma^{-1/4} rho sigma^{-1/4})^2].

    Homogeneous of degree 2 in rho, so unnormalized PSD numerators are
    meaningful; requires sigma positive definite on the support of rho.
    """
    sigma_eig = _check_support(pair)
    quarter = _spectral_func(*sigma_eig, lambda x: x ** -0.25)
    w = quarter @ pair.rho @ quarter
    value = _trace(w @ w)
    if value <= 0.0:
        return -math.inf
    return math.log2(value)


def _log_likelihood(pair: DivergencePair) -> tuple[np.ndarray, np.ndarray]:
    """(rho delta, delta) for the log-likelihood operator delta = log rho -
    log sigma (support-restricted), from one eigensolve of each operator."""
    sigma_eig = _check_support(pair)
    log_rho = _spectral_func(*_eigh_checked(pair.rho), math.log)
    log_sigma = _spectral_func(*sigma_eig, math.log)
    delta = log_rho - log_sigma
    return pair.rho @ delta, delta


def _relative_entropy_with_variance(pair: DivergencePair) -> tuple[float, float]:
    """(relative entropy, relative entropy variance), in bits and bits^2:
    the mean and central second moment of the log-likelihood operator
    under rho."""
    rho_delta, delta = _log_likelihood(pair)
    mean, second = _trace(rho_delta), _trace(rho_delta @ delta)
    return mean / LN2, max(second - mean * mean, 0.0) / (LN2 * LN2)


def relative_entropy(pair: DivergencePair) -> float:
    """Tr[rho (log rho - log sigma)] in bits, support-restricted logs."""
    return _trace(_log_likelihood(pair)[0]) / LN2


def relative_entropy_variance(pair: DivergencePair) -> float:
    """Second central moment of the log-likelihood operator, in bits^2."""
    return _relative_entropy_with_variance(pair)[1]
