"""Explicit one-shot bounds for randomness extraction and soft covering.

Two levels are provided.  The direct bounds upper-bound the expected
trace distance of a single protocol run (a pinched tail mass plus a
square-root overshoot term).  The size bounds sandwich the log of the
operational size (extractable randomness / minimal codebook size)
between one-shot entropic terms with explicit logarithmic corrections.
All logs are base 2, matching the entropic modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cq import CQState, _whole
from .divergences import _commuting_pairs, _hypothesis_test_divergences
from .entropic import _joint_pair
from .errors import DomainError, _check_eps
from .linalg import _cluster_labels, _threshold


@dataclass(frozen=True)
class BoundReport:
    """Evaluated sandwich on the log-size of a protocol, with its inputs.

    ``lower_bits <= log2(operational size) <= upper_bits`` for states
    whose exact operational size is certified; ``intermediate`` keeps the
    entropic terms and correction terms that built the two bounds.
    """

    task: str  # "pa" | "covering"
    eps: float
    delta: float
    c: float
    nu: int
    lower_bits: float
    upper_bits: float
    intermediate: dict = field(default_factory=dict)


def validate_sandwich_params(eps: float, delta: float, c: float) -> None:
    """Enforce 0 < c < delta < min(eps/3, (1-eps)/2), naming the violation;
    every check is one that NaN fails."""
    _check_eps(eps)
    if not c > 0.0:
        raise DomainError(f"c must be > 0, got {c}")
    if not c < delta:
        raise DomainError(f"c must be < delta, got c={c}, delta={delta}")
    if not delta < eps / 3.0:
        raise DomainError(f"delta must be < eps/3, got delta={delta}, eps={eps}")
    if not delta < (1.0 - eps) / 2.0:
        raise DomainError(
            f"delta must be < (1-eps)/2, got delta={delta}, eps={eps}"
        )


def _pinched_exceedance_mass(
    state: CQState, c: float, weight_threshold: bool
) -> float:
    """Mass of the joint state where its reference-pinched version exceeds
    c times the reference.

    The reference is the identity-weighted marginal when
    ``weight_threshold`` is False (extraction) and the p(x)-weighted
    marginal when True (covering).  Both are block-diagonal multiples of
    the marginal, so the comparison is exact in their joint spectrum,
    which the state's own pair (``entropic._joint_pair``) solves once.
    Exceeding means by more than the cluster tolerance, relative to the
    larger of the two operators in each block, so exact ties never count.
    """
    pair = _joint_pair(state, weight_threshold)
    masses, reference = (a.reshape(-1, state.dim_b) for a in _commuting_pairs(pair))
    thresholds = c * reference
    scale = np.maximum(np.abs(masses), np.abs(thresholds))
    return float(np.sum(masses[masses - thresholds > _threshold(scale)]))


def _marginal_spec_count(state: CQState) -> int:
    """nu, the number of distinct eigenvalue clusters of the marginal, as
    ``spec_count`` counts them, from its eigensystem solved once per state."""
    lam, _ = state._eigensystems["rho_b"]
    return int(_cluster_labels(lam)[-1]) + 1


def pa_direct_bound(state: CQState, c: float, z_size: int) -> float:
    """Upper bound on the expected extraction distance at output size z_size.

    Pinched tail mass plus sqrt(c * nu * z_size), where nu counts the
    distinct eigenvalues of the marginal.  Valid for every c > 0 under
    the uniform random-function family.
    """
    if not c > 0.0:
        raise DomainError(f"c must be > 0, got {c}")
    z_size = _whole("z_size", z_size, 1)
    tail = _pinched_exceedance_mass(state, c, weight_threshold=False)
    nu = _marginal_spec_count(state)
    return tail + math.sqrt(c * nu * z_size)


def covering_direct_bound(state: CQState, c: float, m: int) -> float:
    """Upper bound on the expected covering distance at codebook size m.

    Pinched tail mass plus sqrt(nu * c / m); valid for every c > 0 when
    codewords are drawn i.i.d. from p.
    """
    if not c > 0.0:
        raise DomainError(f"c must be > 0, got {c}")
    m = _whole("m", m, 1)
    tail = _pinched_exceedance_mass(state, c, weight_threshold=True)
    nu = _marginal_spec_count(state)
    return tail + math.sqrt(nu * c / m)


def _log_corrections(nu: int, eps: float, delta: float, c: float) -> tuple[float, float]:
    """(log2(nu^2 / delta^4), log2((1 + c) / (c delta)) + log2((eps + c) /
    (delta - c))), the corrections of both size sandwiches, as sums of logs
    so that no power or product of a tiny delta or c underflows."""
    penalty = 2.0 * math.log2(nu) - 4.0 * math.log2(delta)
    slack = (math.log2(1.0 + c) - math.log2(c) - math.log2(delta)
             + math.log2(eps + c) - math.log2(delta - c))
    return penalty, slack


def pa_size_bounds(state: CQState, eps: float, delta: float, c: float) -> BoundReport:
    """Sandwich on the log of the maximal extractable randomness.

    The conditional entropies at 1 - eps + 3 delta and 1 - eps - 2 delta
    come from one pair (rho_XB, 1_X x rho_B) and one memo of dual points:
    the second search starts from the tightest bracket the first leaves.
    """
    validate_sandwich_params(eps, delta, c)
    nu = _marginal_spec_count(state)
    h_low, h_high = (-value for value in _hypothesis_test_divergences(
        _joint_pair(state, False), (1.0 - eps + 3.0 * delta, 1.0 - eps - 2.0 * delta)))
    penalty, slack = _log_corrections(nu, eps, delta, c)
    return BoundReport(
        task="pa",
        eps=eps,
        delta=delta,
        c=c,
        nu=nu,
        lower_bits=h_low - penalty,
        upper_bits=h_high + slack,
        intermediate={
            "entropy_low_bits": h_low,
            "entropy_high_bits": h_high,
            "spectrum_penalty_bits": penalty,
            "correction_bits": slack,
        },
    )


def covering_size_bounds(
    state: CQState, eps: float, delta: float, c: float
) -> BoundReport:
    """Sandwich on the log of the minimal random codebook size.

    The informations at 1 - eps - 2 delta and 1 - eps + 3 delta come from
    one pair (rho_XB, rho_X x rho_B) and one memo of dual points: the
    second search starts from the tightest bracket the first leaves.
    """
    validate_sandwich_params(eps, delta, c)
    nu = _marginal_spec_count(state)
    i_low, i_high = _hypothesis_test_divergences(
        _joint_pair(state, True), (1.0 - eps - 2.0 * delta, 1.0 - eps + 3.0 * delta))
    penalty, slack = _log_corrections(nu, eps, delta, c)
    return BoundReport(
        task="covering",
        eps=eps,
        delta=delta,
        c=c,
        nu=nu,
        lower_bits=i_low - slack,
        upper_bits=i_high + penalty,
        intermediate={
            "information_low_bits": i_low,
            "information_high_bits": i_high,
            "spectrum_penalty_bits": penalty,
            "correction_bits": slack,
        },
    )
