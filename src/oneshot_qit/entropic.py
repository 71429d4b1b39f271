"""Entropic quantities of classical-quantum states and asymptotic rate
formulas (Gaussian quantile, second-order expansions, moderate-deviation
rates).  All values are in bits; variances in bits^2.

The second argument of the one-shot information/entropy quantities is
fixed to the p-weighted marginal (respectively the marginal repeated in
every block), not optimized over.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from .cq import CQState, _whole, joint_embed
from .divergences import (
    DivergencePair,
    _hypothesis_test_divergences,
    _relative_entropy_with_variance,
)
from .errors import DomainError, _check_eps


def _joint_pair(state: CQState, weighted: bool) -> DivergencePair:
    """The joint state against the p(x)-weighted marginals when
    ``weighted``, else against the marginal in every block; the pair
    shares the state's operators and their eigensystems."""
    emb, eigs = joint_embed(state), state._eigensystems
    reference = "rho_x_tensor_rho_b" if weighted else "one_x_tensor_rho_b"
    return DivergencePair(emb.rho_xb, getattr(emb, reference),
                          eigs["rho_xb"], eigs[reference])


def hypothesis_test_information(state: CQState, eps: float) -> float:
    """One-shot information of the joint state against p(x)-weighted marginals."""
    return _hypothesis_test_divergences(_joint_pair(state, True), (eps,))[0]


def conditional_test_entropy(state: CQState, eps: float) -> float:
    """One-shot conditional entropy of the classical register given the rest."""
    return -_hypothesis_test_divergences(_joint_pair(state, False), (eps,))[0]


def mutual_information_with_variance(state: CQState) -> tuple[float, float]:
    """(information, information variance) of the joint state, in bits / bits^2."""
    return _relative_entropy_with_variance(_joint_pair(state, True))


def conditional_entropy_with_variance(state: CQState) -> tuple[float, float]:
    """(conditional entropy, conditional variance), in bits / bits^2."""
    entropy, variance = _relative_entropy_with_variance(_joint_pair(state, False))
    return -entropy, variance


# ---------------------------------------------------------------------------
# Gaussian quantile
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)
_STANDARD_NORMAL = statistics.NormalDist()


def gaussian_cdf(u: float) -> float:
    """Standard normal cumulative distribution."""
    return 0.5 * math.erfc(-u / _SQRT2)


def normal_quantile(eps: float) -> float:
    """Inverse of the standard normal CDF."""
    _check_eps(eps)
    return _STANDARD_NORMAL.inv_cdf(eps)


# ---------------------------------------------------------------------------
# Rate expansions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateExpansion:
    """A first-plus-square-root rate expansion evaluated at blocklength n.

    ``value_at_n`` always equals n * first_order + sqrt(n) *
    second_order_coeff; units are bits (per copy for first_order, per
    sqrt-copy for the coefficient).
    """

    first_order: float
    second_order_coeff: float
    epsilon: float
    n: int
    value_at_n: float

    @classmethod
    def assemble(cls, first_order: float, second_order_coeff: float,
                 epsilon: float, n: int) -> "RateExpansion":
        n = _whole("blocklength n", n, 1)
        value = n * first_order + math.sqrt(n) * second_order_coeff
        return cls(first_order, second_order_coeff, epsilon, n, value)


def second_order_value(d: float, v: float, eps: float, n: int) -> RateExpansion:
    """n*d + sqrt(n*v) * quantile(eps), packaged with its coefficients.

    The sign convention is the extraction one (+ quantile); callers that
    need the covering sign flip the coefficient (equivalently evaluate at
    1 - eps) when assembling their expansion.
    """
    if not v >= 0.0:
        raise DomainError(f"variance must be non-negative, got {v}")
    coeff = math.sqrt(v) * normal_quantile(eps)
    return RateExpansion.assemble(d, coeff, eps, n)


def moderate_rate(d: float, v: float, a_n: float, direction: int) -> float:
    """Per-copy rate d + direction * sqrt(2 v) * a_n for a deviation scale a_n."""
    if not v >= 0.0:
        raise DomainError(f"variance must be non-negative, got {v}")
    if not a_n > 0.0:
        raise DomainError(f"a_n must be positive, got {a_n}")
    if direction not in (-1, 1):
        raise DomainError(f"direction must be +1 or -1, got {direction}")
    return d + direction * math.sqrt(2.0 * v) * a_n
