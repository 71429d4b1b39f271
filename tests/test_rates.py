"""Exact blocklength values against asymptotic predictions."""

import itertools
import json
import math

import numpy as np
import pytest

from oneshot_qit import (
    DivergencePair,
    DomainError,
    classical_relative_entropy,
    classical_relative_entropy_variance,
    hypothesis_test_divergence,
    iid_test_divergence,
    moderate_sweep,
    relative_entropy,
    relative_entropy_variance,
    second_order_sweep,
)
from oneshot_qit import rates
from oneshot_qit.cli import run

from conftest import scalar_test_oracle

P = [1.0 / 3.0, 2.0 / 3.0]
Q = [0.5, 0.5]


def test_blocklength_one_matches_single_copy_divergence():
    pair = DivergencePair.of(np.diag(P).astype(complex), np.diag(Q).astype(complex))
    for eps in (0.2, 0.5, 0.8):
        assert iid_test_divergence(P, Q, 1, eps) == pytest.approx(
            hypothesis_test_divergence(pair, eps), abs=1e-10
        )


def test_equal_distributions_any_blocklength():
    for n in (1, 4, 32, 200):
        for eps in (0.25, 0.6):
            assert iid_test_divergence(Q, Q, n, eps) == pytest.approx(
                -math.log2(1.0 - eps), abs=1e-10
            )


def test_blocklength_two_brute_force():
    # enumerate all 4 outcomes with a randomized boundary
    eps = 0.3
    p2, q2 = [], []
    for i in range(2):
        for j in range(2):
            p2.append(P[i] * P[j])
            q2.append(Q[i] * Q[j])
    expected = -math.log2(scalar_test_oracle(p2, q2, eps))
    assert iid_test_divergence(P, Q, 2, eps) == pytest.approx(expected, abs=1e-10)


def test_blocklengths_to_seven_with_a_null_symbol_brute_force():
    # all 3^n strings, with a symbol that p never emits
    p = [0.55, 0.45, 0.0]
    q = [0.2, 0.3, 0.5]
    for n in range(1, 8):
        strings = list(itertools.product(range(3), repeat=n))
        pn = [math.prod(p[x] for x in s) for s in strings]
        qn = [math.prod(q[x] for x in s) for s in strings]
        for eps in (1e-6, 0.05, 0.5, 1.0 - 1e-6):
            expected = -math.log2(scalar_test_oracle(pn, qn, eps))
            assert iid_test_divergence(p, q, n, eps) == pytest.approx(
                expected, abs=1e-10
            ), (n, eps)


def _fsum_test_bits(tests, eps):
    """The optimal test read off sorted type classes, its q-mass added
    with exactly rounded sums."""
    log_q, p_mass, cum = tests
    target = 1.0 - eps
    boundary = int(np.searchsorted(cum, target, side="left"))
    prior = cum[boundary - 1] if boundary > 0 else 0.0
    fraction = (target - prior) / p_mass[boundary]
    peak = float(log_q[:boundary + 1].max())
    total = math.fsum(math.exp(v - peak) for v in log_q[:boundary].tolist())
    total += fraction * math.exp(log_q[boundary] - peak)
    return -(peak + math.log(total)) / math.log(2.0)


def test_vectorised_sum_matches_exactly_rounded_sum():
    p = [0.2, 0.3, 0.5]
    q = [0.45, 0.35, 0.2]
    tests = rates._sorted_tests(p, q, 256)
    assert tests[0].size == math.comb(258, 2)
    for eps in (1e-6, 0.05, 0.5, 1.0 - 1e-6):
        value = iid_test_divergence(p, q, 256, eps)
        expected = _fsum_test_bits(tests, eps)
        assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))


@pytest.fixture
def spectrum_calls(monkeypatch):
    calls = []
    build = rates.iid_type_spectrum

    def counted(p, q, n):
        calls.append(n)
        return build(p, q, n)

    monkeypatch.setattr(rates, "iid_type_spectrum", counted)
    return calls


def test_cli_moderate_sweep_builds_each_spectrum_once(capsys, spectrum_calls):
    p, q, t, n_list = [0.3, 0.7], [0.5, 0.5], 0.33, [16, 64, 256]
    code = run([
        "sweep", "--regime", "moderate", "--p", "0.3,0.7", "--q", "0.5,0.5",
        "--t", str(t), "--n-list", "256,16,64",
    ])
    assert code == 0
    assert sorted(spectrum_calls) == n_list
    expected = moderate_sweep(p, q, t, n_list, -1) + moderate_sweep(p, q, t, n_list, +1)
    rows = json.loads(capsys.readouterr().out)["results"]["rows"]
    assert [
        (r["n"], r["exact_bits"], r["prediction_bits"], r["residual_bits"], r["direction"])
        for r in rows
    ] == [
        (r.n, r.exact_bits, r.prediction_bits, r.residual, r.direction)
        for r in expected
    ]


def test_sweeps_refuse_bad_blocklengths_before_any_spectrum(spectrum_calls):
    uniform = np.full(1200, 1.0 / 1200)
    for p, q, n_list, match in (
        (P, Q, [2.5], "not an integer"),
        (P, Q, [64, 20_000], r"outside \[1, 10\^4\]"),
        (P, Q, [64, 0], r"outside \[1, 10\^4\]"),
        (uniform, uniform, [1, 3], "cap"),
    ):
        with pytest.raises(DomainError, match=match):
            second_order_sweep(p, q, 0.2, n_list)
        with pytest.raises(DomainError, match=match):
            moderate_sweep(p, q, 1.0 / 3.0, n_list, +1)
    assert spectrum_calls == []


def test_sweeps_refuse_an_empty_blocklength_list(spectrum_calls):
    for n_list in ([], ()):
        with pytest.raises(DomainError, match="n_list names no blocklength"):
            second_order_sweep(P, Q, 0.2, n_list)
        for direction in (-1, +1):
            with pytest.raises(DomainError, match="n_list names no blocklength"):
                moderate_sweep(P, Q, 1.0 / 3.0, n_list, direction)
    assert spectrum_calls == []


def test_classical_entropies_refuse_bad_pairs():
    for f in (classical_relative_entropy, classical_relative_entropy_variance):
        with pytest.raises(DomainError, match="strictly positive"):
            f([0.5, 0.5], [1.0, 0.0])
        with pytest.raises(DomainError, match="equal length"):
            f([0.5, 0.5], [0.2, 0.3, 0.5])
        with pytest.raises(DomainError, match="p must be a probability vector"):
            f([0.5, 0.7], [0.5, 0.5])
        with pytest.raises(DomainError, match="p must be a probability vector"):
            f([math.nan, 0.5, 0.5], [0.2, 0.3, 0.5])
        with pytest.raises(DomainError, match="strictly positive"):
            f([0.5, 0.5], [math.nan, 0.5])
    with pytest.raises(DomainError, match="p must be a probability vector"):
        iid_test_divergence([math.nan, 0.5, 0.5], [0.2, 0.3, 0.5], 3, 0.2)


def test_acceptance_mass_construction():
    # the boundary fraction makes the p-acceptance exact, so the value is
    # reproducible bit for bit
    first = iid_test_divergence(P, Q, 100, 0.37)
    second = iid_test_divergence(P, Q, 100, 0.37)
    assert first == second


def test_nondecreasing_in_eps_and_per_copy_convergence():
    values = [iid_test_divergence(P, Q, 50, eps) for eps in (0.1, 0.3, 0.5, 0.7)]
    assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))
    d = classical_relative_entropy(P, Q)
    v = classical_relative_entropy_variance(P, Q)
    for n in (400, 1600):
        per_copy = iid_test_divergence(P, Q, n, 0.5) / n
        assert abs(per_copy - d) <= 4 * math.sqrt(v / n)


def test_large_blocklength_binary_tails():
    value = iid_test_divergence(P, Q, 10_000, 0.2)
    assert math.isfinite(value)
    d = classical_relative_entropy(P, Q)
    assert value / 10_000 == pytest.approx(d, rel=0.05)


def test_scalar_entropies_match_operator_route():
    pair = DivergencePair.of(np.diag(P).astype(complex), np.diag(Q).astype(complex))
    assert classical_relative_entropy(P, Q) == pytest.approx(
        relative_entropy(pair), abs=1e-12
    )
    assert classical_relative_entropy_variance(P, Q) == pytest.approx(
        relative_entropy_variance(pair), abs=1e-12
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_second_order_sweep_median_eps():
    rows = second_order_sweep(P, Q, 0.5, [10, 40])
    d = classical_relative_entropy(P, Q)
    for row in rows:
        assert row.prediction_bits == pytest.approx(row.n * d, abs=1e-12)
        assert row.residual == pytest.approx(row.exact_bits - row.n * d, abs=1e-12)


def test_second_order_sweep_identical_distributions():
    rows = second_order_sweep(Q, Q, 0.3, [5, 20, 80])
    for row in rows:
        assert row.prediction_bits == pytest.approx(0.0, abs=1e-12)
        assert row.residual == pytest.approx(-math.log2(0.7), abs=1e-9)


def test_second_order_sweep_budget_and_trend():
    rows = second_order_sweep(P, Q, 0.2, [25, 100, 400])
    ln2 = math.log(2.0)
    normalized = []
    for row in rows:
        residual_nats = abs(row.residual) * ln2
        assert residual_nats <= 10 + 5 * math.log(row.n)
        normalized.append(residual_nats / math.sqrt(row.n))
    assert normalized[0] > normalized[1] > normalized[2]


def test_moderate_sweep_validation():
    with pytest.raises(DomainError, match="moderate"):
        moderate_sweep(P, Q, 0.5, [16, 64], -1)
    with pytest.raises(DomainError):
        moderate_sweep(P, Q, 0.0, [16, 64], -1)
    with pytest.raises(DomainError):
        moderate_sweep(P, Q, 1.0 / 3.0, [16, 64], 2)


def test_moderate_sweep_refuses_levels_that_round_off(spectrum_calls):
    # eps_n = exp(-2000^0.98) underflows to 0, so both branches are lost;
    # n = 64 comes first but is refused with it, before its spectrum is built
    for direction in (-1, +1):
        with pytest.raises(DomainError, match=r"n=2000, t=0\.01"):
            moderate_sweep(P, Q, 0.01, [2000], direction)
    with pytest.raises(DomainError, match=r"n=2000, t=0\.01"):
        moderate_sweep(P, Q, 0.01, [64, 2000], -1)
    # eps_n = exp(-40) is positive, but 1 - eps_n rounds to 1
    with pytest.raises(DomainError, match=r"n=1600, t=0\.25"):
        moderate_sweep(P, Q, 0.25, [1600], +1)
    assert spectrum_calls == []
    (row,) = moderate_sweep(P, Q, 0.25, [1600], -1)
    assert math.isfinite(row.exact_bits)


def test_cli_sweep_refuses_nan_probability(capsys):
    code = run([
        "sweep", "--regime", "second", "--p", "nan,0.5,0.5", "--q", "0.2,0.3,0.5",
        "--eps", "0.2", "--n-list", "4",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "p must be a probability vector" in captured.err
    assert captured.out == ""


def test_cli_moderate_sweep_level_round_off_exit_code(capsys):
    code = run([
        "sweep", "--regime", "moderate", "--p", "0.3,0.7", "--q", "0.5,0.5",
        "--t", "0.01", "--n-list", "2000",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "n=2000, t=0.01" in captured.err
    assert captured.out == ""


def test_moderate_sweep_identical_distributions():
    rows = moderate_sweep(Q, Q, 1.0 / 3.0, [64, 512], -1)
    for row in rows:
        assert row.prediction_bits == pytest.approx(0.0, abs=1e-12)
        # exact per-copy value is -log2(1 - eps_n)/n, tiny but positive
        assert 0.0 <= row.exact_bits <= 0.1


def test_moderate_sweep_direction_flip_antisymmetry():
    down = moderate_sweep(P, Q, 1.0 / 3.0, [64], -1)[0]
    up = moderate_sweep(P, Q, 1.0 / 3.0, [64], +1)[0]
    d = classical_relative_entropy(P, Q)
    assert up.prediction_bits - d == pytest.approx(d - down.prediction_bits, abs=1e-12)


def test_moderate_sweep_trend_both_branches():
    for direction in (-1, +1):
        rows = moderate_sweep(P, Q, 1.0 / 3.0, [64, 512, 4096], direction)
        ratios = [abs(r.residual) / (r.n ** (-1.0 / 3.0)) for r in rows]
        assert ratios[0] > ratios[1] > ratios[2]
