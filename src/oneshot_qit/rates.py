"""Blocklength sweeps on classical pairs: exact finite-n optimal-test
values against their second-order and moderate-deviation predictions.

Only commuting (classical) pairs admit exact finite-n evaluation at
useful blocklengths; the type-class spectrum keeps the cost polynomial
in n.  Each blocklength's type classes are sorted by likelihood ratio
once, and every level eps is read off that sorted spectrum with one
vectorised sum, exact up to rounding: the accepted q-mass carries a
relative error of about log2(classes) roundings on top of the log-mass
error of ``iid_type_spectrum``.  Values are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cq import _check_blocklength, _check_pair, iid_type_spectrum
from .divergences import LN2, _log_ratio_moments
from .entropic import moderate_rate, second_order_value
from .errors import DomainError, _check_eps


@dataclass(frozen=True)
class SweepRow:
    """One blocklength of an exact-vs-prediction comparison (bits)."""

    n: int
    exact_bits: float
    prediction_bits: float
    residual: float
    regime: str  # "second-order" | "moderate"
    direction: int | None = None


def classical_relative_entropy(p, q) -> float:
    """sum p log2(p/q) for strictly positive q."""
    return _llr_moments(*_check_pair(p, q))[0]


def classical_relative_entropy_variance(p, q) -> float:
    """Variance of log2(p/q) under p."""
    return _llr_moments(*_check_pair(p, q))[1]


def _llr_moments(p: np.ndarray, q: np.ndarray) -> tuple[float, float]:
    """Mean and variance of log2(p/q) under p, for a checked pair."""
    mask = p > 0
    return _log_ratio_moments(p[mask], np.log(p[mask]), np.log(q[mask]))


def _sorted_tests(p, q, n: int):
    """The type classes of the n-fold pair in decreasing likelihood ratio.

    Returns their log q-masses, their p-masses and the running sum of
    the p-masses: every optimal test at blocklength n is read off these.
    """
    spectrum = iid_type_spectrum(p, q, n)
    order = np.argsort(spectrum.llr)[::-1]
    p_mass = np.exp(spectrum.log_p_mass[order])
    return spectrum.log_q_mass[order], p_mass, np.cumsum(p_mass)


def _test_bits(tests, eps: float) -> float:
    """-log2 of the q-mass accepted by the optimal test at level eps.

    The test accepts classes in decreasing likelihood ratio until their
    p-mass reaches 1 - eps, with a fractional weight on the boundary
    class, so its acceptance probability under p is 1 - eps by
    construction.  The boundary fraction is positive and every log
    q-mass is finite (q > 0), so the accepted q-mass is a sum of positive
    terms; scaled by the largest and added pairwise, it carries a
    relative error of about log2(classes) roundings, well below 1e-14.
    """
    log_q, p_mass, cum = tests
    target = 1.0 - eps
    boundary = int(np.searchsorted(cum, target, side="left"))
    if boundary == cum.size:
        return 0.0  # the whole space is accepted; unit q-mass
    prior = cum[boundary - 1] if boundary > 0 else 0.0
    head = log_q[:boundary + 1]
    peak = float(head.max())
    terms = np.exp(head - peak)
    terms[boundary] *= (target - prior) / p_mass[boundary]
    return -(peak + math.log(terms.sum())) / LN2


def iid_test_divergence(p, q, n: int, eps: float) -> float:
    """Exact optimal-test divergence of the n-fold classical pair, in bits.

    Sorts type classes by likelihood ratio, fills the acceptance mass to
    1 - eps with a fractional weight on the boundary class, and returns
    -log2 of the q-mass accepted.  The acceptance probability under p
    equals 1 - eps exactly by construction.
    """
    _check_eps(eps)
    return _test_bits(_sorted_tests(p, q, n), eps)


def _sweep_inputs(p, q, n_list) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The checked pair and sorted blocklengths, all refused or accepted
    before any spectrum is built; an empty ``n_list`` is refused."""
    p, q = _check_pair(p, q)
    n_values = sorted(_check_blocklength(n, p.size) for n in n_list)
    if not n_values:
        raise DomainError("n_list names no blocklength")
    return p, q, n_values


def second_order_sweep(p, q, eps: float, n_list) -> list[SweepRow]:
    """Exact values against n*D + sqrt(n*V) * quantile(eps) per blocklength."""
    _check_eps(eps)
    p, q, n_values = _sweep_inputs(p, q, n_list)
    d, v = _llr_moments(p, q)
    rows = []
    for n in n_values:
        exact = _test_bits(_sorted_tests(p, q, n), eps)
        prediction = second_order_value(d, v, eps, n).value_at_n
        rows.append(SweepRow(n, exact, prediction, exact - prediction, "second-order"))
    return rows


def moderate_sweep(p, q, t: float, n_list, direction: int) -> list[SweepRow]:
    """Per-copy exact values against D + direction * sqrt(2V) * n^{-t}.

    The deviation scale a_n = n^{-t} needs t in (0, 1/2) so that a_n
    vanishes while n * a_n^2 grows.  direction=-1 evaluates at the
    vanishing branch eps_n = exp(-n * a_n^2); direction=+1 at 1 - eps_n.
    A blocklength at which that branch rounds to 0 or 1 is refused.
    """
    return _moderate_rows(p, q, t, n_list, (direction,))


def _moderate_rows(p, q, t: float, n_list, directions) -> list[SweepRow]:
    """The rows of ``moderate_sweep`` for each direction in turn.

    Every blocklength's sorted tests are built once and evaluated at
    the levels of all directions.
    """
    if not 0.0 < t < 0.5:
        raise DomainError(
            f"t must lie in (0, 1/2) so the deviation sequence is moderate, got {t}"
        )
    for direction in directions:
        if direction not in (-1, 1):
            raise DomainError(f"direction must be +1 or -1, got {direction}")
    p, q, n_values = _sweep_inputs(p, q, n_list)
    levels = []
    for n in n_values:
        a_n = n ** (-t)
        eps_n = math.exp(-n * a_n * a_n)
        branches = [eps_n if direction == -1 else 1.0 - eps_n for direction in directions]
        for direction, eps in zip(directions, branches):
            if not 0.0 < eps < 1.0:
                raise DomainError(
                    f"at n={n}, t={t} the level eps_n = exp(-n^(1-2t)) = "
                    f"{eps_n:.3g} leaves the direction {direction:+d} branch "
                    f"at {eps!r} in double precision; raise t or lower n"
                )
        levels.append((n, a_n, branches))

    d, v = _llr_moments(p, q)
    rows = [[] for _ in directions]
    for n, a_n, branches in levels:
        tests = _sorted_tests(p, q, n)
        for out, direction, eps in zip(rows, directions, branches):
            exact = _test_bits(tests, eps) / n
            prediction = moderate_rate(d, v, a_n, direction)
            out.append(
                SweepRow(n, exact, prediction, exact - prediction, "moderate", direction)
            )
    return [row for out in rows for row in out]
