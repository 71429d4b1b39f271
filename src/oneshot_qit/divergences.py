"""Divergences between an operator pair (rho, sigma).

Five quantities: the information-spectrum divergence, the hypothesis-
testing divergence, the collision (order-2 sandwiched Renyi) divergence,
the relative entropy, and the relative entropy variance.  All public
values are reported in bits; natural logarithms are used internally.

``sigma`` may be any PSD operator (not necessarily normalized); shifting
it by a positive factor shifts the first four quantities by -log2 of the
factor and leaves the variance unchanged.

A pair may also be two (k, d, d) stacks of diagonal blocks (cq joint
operators); kernels work block by block and tell eigenvalues zero or
equal by ``linalg._threshold`` of each block, so a stack gives the
values of the dense block-diagonal pair except for eigenvalues only the
per-block rule resolves.  The one comparison made over the whole stack
is the dual's D_s split, which asks the same rule for the threshold of
all the stack's eigenvalues taken as one spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NumericalError, _check_eps
from .linalg import (
    _PSD_TOL,
    _cluster_labels,
    _eigh_checked,
    _on_support,
    _read_only,
    _threshold,
    as_hermitian,
)

LN2 = math.log(2.0)

_SUPPORT_TOL = 1e-8
_DUAL_FLOOR = 64 * np.finfo(float).eps
_DS_WIDTH_BITS = 1e-12
_DS_WIDTH = -math.expm1(-_DS_WIDTH_BITS * LN2)  # 1 - 2^-1e-12, relative


@dataclass(frozen=True, eq=False)
class DivergencePair:
    """A validated (rho, sigma) pair with the read-only eigensystems
    (eigenvalues, eigenvectors) of both, set at construction; the
    commutation flag is derived on first use.

    ``rho`` is a density operator (unit trace unless constructed with
    ``normalized=False``, which only relaxes the trace check); ``sigma``
    is PSD and may be unnormalized.  Both are (d, d), or both are
    (k, d, d) stacks of diagonal blocks.  ``of`` validates the operators
    and keeps the eigensystems its PSD check solves; a pair of validated
    states' joint operators is built directly from the states'
    (``CQState._eigensystems``), and construction checks only that the
    shapes agree, as two states may differ in d or |X|.
    """

    rho: np.ndarray
    sigma: np.ndarray
    rho_eig: tuple[np.ndarray, np.ndarray]
    sigma_eig: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        if self.rho.shape != self.sigma.shape:
            raise DomainError(f"dimension mismatch: {self.rho.shape} vs {self.sigma.shape}")

    @cached_property
    def commuting(self) -> bool:
        """Whether, in every block, each entry of the ``_frame``'s m that
        joins two different eigenvalue clusters of sigma is at most the
        ``_threshold`` of that block's rho eigenvalues: then pinching rho
        to sigma's clusters (``_commuting_pairs``) changes it by no more,
        and exact D_s holds.  Both sides are relative, so scaling either
        operator does not change it.  Computed on first read: only D_s,
        and the CLI's ``exact`` field beside it, read it."""
        mu, m = self._frame
        labels = _cluster_labels(mu)
        across = labels[:, :, None] != labels[:, None, :]
        bound = _threshold(self.rho_eig[0].reshape(mu.shape))[:, :, None]
        return not (across & (np.abs(m) > bound)).any()

    @cached_property
    def _frame(self) -> tuple[np.ndarray, np.ndarray]:
        """(mu, m): sigma's (k, d) eigenvalues and m = W^dagger rho W in its
        eigenbasis W, read-only (k, d, d); the divergences read it through
        the support check of ``_sigma_frame``, ``bounds`` without it."""
        d = self.sigma.shape[-1]
        mu, w = self.sigma_eig
        mu, w = mu.reshape(-1, d), w.reshape(-1, d, d)
        m = w.conj().swapaxes(-1, -2) @ self.rho.reshape(-1, d, d) @ w
        m.setflags(write=False)
        return mu, m

    @classmethod
    def of(cls, rho, sigma, normalized: bool = True) -> "DivergencePair":
        rho, sigma = as_hermitian(rho), as_hermitian(sigma)
        # the PSD check reads the eigensystems the pair keeps for its kernels
        eigs = [tuple(map(_read_only, _eigh_checked(op))) for op in (rho, sigma)]
        for name, (lam, _) in zip(("rho", "sigma"), eigs):
            if lam.min() < -_PSD_TOL:
                raise DomainError(f"{name} is not PSD: eigenvalue {lam.min():.3e}")
        if normalized:
            tr = _trace(rho)
            if abs(tr - 1.0) > _PSD_TOL:
                raise DomainError(f"rho has trace {tr}, expected 1")
        return cls(rho, sigma, *eigs)


def _trace(a: np.ndarray) -> float:
    """Real trace of an operator, summed over the blocks of a stack."""
    return float(np.trace(a, axis1=-2, axis2=-1).real.sum())


def _sigma_frame(pair: DivergencePair) -> tuple[np.ndarray, np.ndarray]:
    """The pair's ``_frame`` (mu, m) once rho's mass on sigma's kernel,
    sum m_jj over mu_j <= ``_threshold(mu)`` of mu_j's block, is at most
    ``_SUPPORT_TOL``."""
    mu, m = pair._frame
    leak = float(np.sum(m.diagonal(0, -2, -1).real[mu <= _threshold(mu)]))
    if leak > _SUPPORT_TOL:
        raise DomainError(f"support violation: rho carries mass {leak:.3e} "
                          "outside the support of sigma")
    return mu, m


def _dual_point(
    rho: np.ndarray, sigma: np.ndarray, target: float, mu: float, split: bool = False
) -> tuple[float, float, float, np.ndarray, np.ndarray]:
    """(g, slope, curvature, branches, branch slopes) at mu.

    From one eigensolve mu rho - sigma = V diag(lam) V^dagger, with r =
    V^dagger rho V and P the eigenvalues above the split: 0 for D_h, and
    with ``split`` (D_s) the ``_threshold`` of all of lam as one spectrum,
    relative to the whole stack, so that the event {rho <= c sigma} keeps
    the eigenvalues that rule counts as zero.  Then g = mu target -
    sum_P lam_i, its slope target - sum_P r_ii (Hellmann-Feynman; at a
    kink, either side is a supergradient) and, while P holds, its
    curvature -2 sum_{i in P, j not in P} |r_ij|^2 / (lam_i - lam_j).
    The branches are the lam_i minus the split, with their slopes w_i =
    r_ii >= 0, flat over the blocks: branch i crosses the split near mu -
    (lam_i - split) / w_i, and the slope of g falls by w_i where a branch
    crosses upwards.  Only g and the slope depend on the target: the
    point re-targets to t exactly by adding mu (t - target) to g and
    t - target to the slope.
    """
    lam, v = _eigh_checked(mu * rho - sigma)
    d = lam.shape[-1]
    r = (v.conj().swapaxes(-1, -2) @ rho @ v).reshape(-1, d, d)
    lam = lam.reshape(-1, d)
    w = r.diagonal(0, 1, 2).real.ravel()
    split = float(_threshold(lam.ravel())[0]) if split else 0.0
    above = lam > split
    cross = above[:, :, None] > above[:, None, :]  # i above, j not
    gap = np.where(cross, lam[:, :, None] - lam[:, None, :], np.inf)
    curvature = -2.0 * float(((r * r.conj()).real / gap).sum())
    lam, above = lam.ravel(), above.ravel()
    return (mu * target - float(lam @ above), target - float(w @ above), curvature,
            lam - split, w)


def _model_step(mu: float, slope: float, curvature: float, branches: np.ndarray,
                weights: np.ndarray) -> float:
    """The step the branches of a point model: walking from mu in the
    direction of the slope, the first crossing where the modelled slope
    changes sign (a kink of g), unless the Newton step on the slope lands
    before it; nan when there is neither.

    Going up in mu, each branch at or below the split crosses it at mu -
    branch / weight and takes its weight off the slope; going down, each
    branch above it gives its weight back.
    """
    step = mu - slope / curvature if curvature < 0.0 else math.nan
    up = slope > 0.0
    moving = branches <= 0.0 if up else branches > 0.0
    moving &= weights > 0.0
    weights = weights[moving]
    distances = branches[moving] / weights  # a branch crosses at mu - distance
    if not distances.size:
        return step
    first = mu - float(distances.max() if up else distances.min())
    if min(mu, first) < step < max(mu, first):
        return step  # the Newton step lands before the first crossing
    order = (-distances if up else distances).argsort()
    change = weights[order].cumsum()
    k = int(change.searchsorted(abs(slope), "left" if up else "right"))
    if k == change.size:
        return step
    kink = mu - float(distances[order[k]])
    return step if min(mu, kink) < step < max(mu, kink) else kink


class _DualMemo:
    """The dual points taken on one pair, with the D_s split (``split``) or
    without it (D_h), each kept with the target it was taken at.  f(mu) =
    Tr[(mu rho - sigma)_+] and its branches do not depend on the target,
    so every point serves a search at any target, re-targeted exactly
    (see ``_dual_point``)."""

    def __init__(self, rho: np.ndarray, sigma: np.ndarray, split: bool = False):
        self.rho, self.sigma, self.split = rho, sigma, split
        self.points: list[tuple[float, tuple]] = []

    def point(self, target: float, mu: float) -> tuple:
        """(mu, *``_dual_point``(mu)) at target, kept for later searches."""
        point = (mu, *_dual_point(self.rho, self.sigma, target, mu, self.split))
        self.points.append((target, point))
        return point

    def at(self, target: float) -> list[tuple]:
        """Every point taken so far, re-targeted to target, by increasing mu."""
        return sorted(((mu, g + mu * (target - t), slope + (target - t), *rest)
                       for t, (mu, g, slope, *rest) in self.points),
                      key=lambda point: point[0])


def _dual_search(memo: _DualMemo, target: float, stop):
    """Narrow a bracket on the concave dual g(mu) = mu target - Tr[(mu rho -
    sigma)_+], target > 0, until ``stop(a, b, meet, best)`` returns a result.

    Points are tuples (mu, *``_dual_point``(mu)) taken through ``memo``.
    The ends a, of positive slope, and b, of non-positive slope, enclose
    the maximum of g, and only their mu, g and slope are read.  They start
    as the tightest such pair among the memo's points at this target, a = 0
    (g = 0, and target is a supergradient) when none has positive slope.
    When none has non-positive slope, b doubles from mu = Tr sigma / Tr rho
    (1 when either trace is 0), or from twice a if that is larger, so the
    count does not grow with the scale of sigma; past 2^60 times the start
    it gives up.  meet is where the tangents at a and b meet, above the
    maximum by concavity, and best the largest g seen, memo points
    included.  Each step is the ``_model_step`` of the last point taken (b
    at first), or if that leaves (a, b) of the other end, failing that the
    tangent meet, failing that the midpoint.  While the last two steps made
    no progress, that is, neither halved b - a nor moved less than half as
    far as the step before, the search takes the tangent meet or the
    midpoint (a safeguard as in Brent's method, which also reads step
    lengths, so that Newton steps converging from one side do not trip
    it).  The next point lies 0.45e-12 bits past the step, away from the
    nearer end, so that a converged estimate ends with two points, one on
    each side; it is kept a quarter of that inside (a, b).
    """
    seen = memo.at(target)
    a, b = (0.0, 0.0, target), None
    for point in seen:
        if point[2] > 0.0:
            a = point
        else:
            b = point
            break
    best = max([0.0, *(point[1] for point in seen)])
    if b is None:
        tr_rho, tr_sigma = _trace(memo.rho), _trace(memo.sigma)
        start = tr_sigma / tr_rho if tr_sigma > 0.0 and tr_rho > 0.0 else 1.0
        b = memo.point(target, max(start, 2.0 * a[0]))
        while b[2] > 0.0 and b[0] < start * 2.0 ** 60:
            a, b = b, memo.point(target, 2.0 * b[0])
        if b[2] > 0.0:
            raise NumericalError(
                "dual bracket failed to enclose a maximum after 60 doublings")
        best = max(best, a[1], b[1])
    last = b
    hair = 0.45 * _DS_WIDTH_BITS * LN2  # two points astride fit in a D_s bracket
    stalls, move = 0, math.inf
    for _ in range(200):
        (mu_a, g_a, s_a), (mu_b, g_b, s_b) = a[:3], b[:3]
        meet = (g_b - g_a + s_a * mu_a - s_b * mu_b) / (s_a - s_b)
        result = stop(a, b, meet, best)
        if result is not None:
            return result
        step = math.nan
        if stalls < 2:
            for end in (last, a if last is b else b):  # a = 0 has no branches
                if len(end) > 3 and not mu_a < step < mu_b:
                    mu, _, slope, curvature, branches, weights = end
                    step = _model_step(mu, slope, curvature, branches, weights)
        if not mu_a < step < mu_b:
            step = meet if mu_a < meet < mu_b else 0.5 * (mu_a + mu_b)
        mu = step * (1.0 + hair if step - mu_a < mu_b - step else 1.0 - hair)
        mu = min(max(mu, mu_a * (1.0 + 0.25 * hair)), mu_b * (1.0 - 0.25 * hair))
        moved = abs(mu - last[0])
        last = memo.point(target, mu)
        best = max(best, last[1])
        a, b = (last, b) if last[2] > 0.0 else (a, last)
        halved = b[0] - a[0] <= 0.5 * (mu_b - mu_a)
        stalls = 0 if halved or moved <= 0.5 * move else stalls + 1
        move = moved
    raise NumericalError("dual search did not meet its stop rule in 200 steps")


# ---------------------------------------------------------------------------
# Information-spectrum divergence
# ---------------------------------------------------------------------------

def _commuting_pairs(pair: DivergencePair) -> tuple[np.ndarray, np.ndarray]:
    """Joint spectrum (r_i, s_i) of a commuting pair in a common eigenbasis.

    Block by block, rho is diagonalized within each eigenvalue cluster of
    sigma, in the pair's ``_frame``; for a non-commuting pair
    this pinches rho to those clusters.
    Clusters are contiguous runs of sigma's ascending eigenvalues, and
    the output lists them block by block in that order.  A singleton
    cluster contributes its diagonal entry (what a 1x1 ``eigvalsh``
    returns), so only clusters of two or more entries are solved.
    """
    lam, m = pair._frame
    d = lam.shape[-1]
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


def _ds_exact_bits(pair: DivergencePair, eps: float) -> float:
    """Exact D_s of a commuting pair whose support ``_sigma_frame`` passed:
    the sorted ratios r/s over the joint spectrum where s is non-zero to
    its block's threshold."""
    r, s = _commuting_pairs(pair)
    blocks = s.reshape(-1, pair.sigma.shape[-1])
    keep = (blocks > _threshold(blocks)).ravel()
    r = np.clip(r[keep], 0.0, None)
    s = s[keep]
    ratios = r / s
    order = np.argsort(ratios)
    # the first ratio whose running mass exceeds eps; every member of a
    # tie group has the group's ratio, so ties need no grouping
    i = int(np.searchsorted(np.cumsum(r[order]), eps + 1e-12, "right"))
    if i == r.size:
        return math.inf  # event mass never exceeds eps (unreachable for densities)
    value = ratios[order[i]]
    return -math.inf if value <= 0.0 else math.log2(value)


def info_spectrum_divergence_bracket(
    pair: DivergencePair, eps: float
) -> tuple[float, float, float]:
    """(value, lower, upper) in bits; exact collapses the bracket to a point.

    The value is the largest log-threshold c (base 2) at which the mass
    of the event {rho <= 2^c sigma} under rho still stays at or below
    eps; the supremum itself is a left limit and is not attained.  The
    mass is 1 - f'_-(2^-c) for the convex f(mu) = Tr[(mu rho - sigma)_+],
    so it is non-decreasing in c.  For non-commuting pairs it is the
    slope at mu = 2^-c of the D_h dual with target Tr rho - (eps + 1e-12),
    split at the threshold of the whole stack's spectrum (``_dual_point``
    with ``split``), and the search that maximizes that dual, from the
    same doubling start, narrows the sign change of the slope until
    b - a <= (1 - 2^-1e-12) b: a bracket at most 1e-12 bits wide.  When
    Tr rho <= eps + 1e-12 every threshold is feasible and all three values
    are +inf.
    """
    _check_eps(eps)
    _sigma_frame(pair)
    if pair.commuting:
        value = _ds_exact_bits(pair, eps)
        return value, value, value
    target = _trace(pair.rho) - (eps + 1e-12)
    if target <= 0.0:
        return math.inf, math.inf, math.inf

    def narrow(a, b, meet, best):
        return (a[0], b[0]) if b[0] - a[0] <= _DS_WIDTH * b[0] else None

    memo = _DualMemo(pair.rho, pair.sigma, split=True)
    mu_a, mu_b = _dual_search(memo, target, narrow)
    return -math.log2(mu_a), -math.log2(mu_b), -math.log2(mu_a)


def info_spectrum_divergence(pair: DivergencePair, eps: float) -> float:
    """Largest feasible log-threshold, in bits.

    Exact for commuting pairs (sorted eigenvalue ratios).  For
    non-commuting pairs the search of the D_h dual locates the threshold
    where the dual's slope changes sign; the certified bracket is
    :func:`info_spectrum_divergence_bracket`.
    """
    return info_spectrum_divergence_bracket(pair, eps)[0]


# ---------------------------------------------------------------------------
# Hypothesis-testing divergence
# ---------------------------------------------------------------------------

def _hypothesis_test_divergences(pair: DivergencePair, levels) -> list[float]:
    """``hypothesis_test_divergence`` at each eps in ``levels``, in order:
    -log2 of min Tr[sigma T] over tests 0 <= T <= 1 with Tr[rho T] >= 1 - eps.

    The mass is the maximum of the concave one-dimensional dual
    g(mu) = mu (1 - eps) - Tr[(mu rho - sigma)_+], which equals the primal
    optimum (randomized tests included).  ``_dual_search`` stops once g at
    the tangent meet, an upper bound, exceeds the best value seen by at
    most a relative 1e-12, or once b - a <= 1e-13 b, and returns the best
    value seen; about six eigensolves is typical.  The levels share one
    ``_DualMemo``, so each search after the first starts from the
    tightest bracket the earlier points give at its level.

    g is only known to rounding, about eps_mach·‖mu rho − sigma‖₁ <=
    eps_mach·(Tr sigma + mu Tr rho).  Once the tangents meet at or below
    ``_DUAL_FLOOR`` times that scale, the maximum is indistinguishable
    from 0 and the mass is 0, as for supports that are orthogonal in any
    basis: the value is +inf.  The floor scales with sigma, so the scaling
    identity holds.
    """
    for eps in levels:
        _check_eps(eps)
    tr_rho, tr_sigma = _trace(pair.rho), _trace(pair.sigma)

    def certify(a, b, meet, best):
        upper = a[1] + a[2] * (meet - a[0])
        if upper <= _DUAL_FLOOR * (tr_sigma + meet * tr_rho):
            return 0.0
        if upper - best <= 1e-12 * best or b[0] - a[0] <= 1e-13 * b[0]:
            return best
        return None

    memo = _DualMemo(pair.rho, pair.sigma)
    masses = [_dual_search(memo, 1.0 - eps, certify) for eps in levels]
    return [-math.log2(beta) if beta > 0.0 else math.inf for beta in masses]


def hypothesis_test_divergence(pair: DivergencePair, eps: float) -> float:
    """-log2 of the least sigma-mass of a test accepting rho with prob >= 1-eps.

    The mass is the maximum of the concave dual ``dual_test_objective``,
    found by the search that also narrows D_s, which certifies it to a
    relative 1e-12 (about 1.4e-12 bits); +inf when the mass is 0 to
    rounding, as for rho and sigma with orthogonal supports in any basis.
    """
    return _hypothesis_test_divergences(pair, (eps,))[0]


def dual_test_objective(pair: DivergencePair, eps: float, mu: float) -> float:
    """The concave dual g(mu) = mu (1 - eps) - Tr[(mu rho - sigma)_+].

    Its maximum over mu >= 0 is the optimal test mass; every value is a
    lower bound on it.  This is the g, from the same eigensolve, that
    ``hypothesis_test_divergence`` maximizes.
    """
    _check_eps(eps)
    if not 0.0 <= mu < math.inf:
        raise DomainError(f"mu must be non-negative and finite, got {mu}")
    return _dual_point(pair.rho, pair.sigma, 1.0 - eps, mu)[0]


# ---------------------------------------------------------------------------
# Collision divergence, relative entropy, relative entropy variance
# ---------------------------------------------------------------------------

def collision_divergence(pair: DivergencePair) -> float:
    """log2 of the collision overlap Tr[(sigma^{-1/4} rho sigma^{-1/4})^2]
    = sum_jk |m_jk|^2 / sqrt(mu_j mu_k) in sigma's frame, over its support.

    Homogeneous of degree 2 in rho, so unnormalized PSD numerators are
    meaningful; requires sigma positive definite on the support of rho.
    """
    mu, m = _sigma_frame(pair)
    root = _on_support(mu, lambda x: x ** -0.5)
    value = float(np.sum((m * m.conj()).real * root[:, :, None] * root[:, None, :]))
    return math.log2(value) if value > 0.0 else -math.inf


def _log_ratio_moments(weights, a, b) -> tuple[float, float]:
    """Mean and variance (bits, bits^2) of the natural log-ratio a - b under
    ``weights``, broadcast together, for D and V here and in ``rates``; the
    variance is second moment less squared mean, also for unnormalized rho."""
    llr = a - b
    mean = float(np.sum(weights * llr))
    second = float(np.sum(weights * llr * llr))
    return mean / LN2, max(second - mean * mean, 0.0) / (LN2 * LN2)


def _relative_entropy_with_variance(pair: DivergencePair) -> tuple[float, float]:
    """(relative entropy, relative entropy variance), in bits and bits^2:
    the moments of log lam_i - log mu_j, logs 0 on each kernel, under the
    Nussbaum-Szkola weights lam_i |<v_i|w_j>|^2 of the pair's eigensystems
    rho = sum lam_i |v_i><v_i| and sigma = sum mu_j |w_j><w_j|, block by
    block.  They equal those of delta = log rho - log sigma under rho."""
    _sigma_frame(pair)
    (lam, v), (mu, w) = pair.rho_eig, pair.sigma_eig
    overlap = v.conj().swapaxes(-1, -2) @ w
    weights = lam[..., :, None] * (overlap * overlap.conj()).real
    return _log_ratio_moments(weights, _on_support(lam, np.log)[..., :, None],
                              _on_support(mu, np.log)[..., None, :])


def relative_entropy(pair: DivergencePair) -> float:
    """Tr[rho (log rho - log sigma)] in bits, support-restricted logs."""
    return _relative_entropy_with_variance(pair)[0]


def relative_entropy_variance(pair: DivergencePair) -> float:
    """Second central moment of the log-likelihood operator, in bits^2."""
    return _relative_entropy_with_variance(pair)[1]
