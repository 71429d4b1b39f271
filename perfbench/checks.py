"""Correctness checks of job outputs.

Every job's ``results`` document is compared with the reference output
recorded for its input variant (``references.json``), under the
tolerance of its kind.  Jobs that name an oracle are also checked
against a computation that shares no code path with the library.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# (absolute, relative) tolerance per output kind; numbers in bits or as
# plain distances.  Integers, booleans and strings must match exactly.
TOLERANCE = {
    "divergence:dh": (1e-7, 1e-9),   # golden-section dual, relative width 1e-12 in mu
    "divergence:d2": (1e-9, 1e-12),
    "divergence:kl": (1e-9, 1e-12),
    "divergence:var": (1e-9, 1e-12),
    "bounds": (1e-7, 1e-9),          # built from D_h values
    "rates": (1e-9, 1e-12),
    "sweep": (1e-9, 1e-10),          # exact type-class sums, up to ~10^2 bits
    "simulate": (1e-10, 0.0),        # protocol distances lie in [0, 1]
    "search": (1e-10, 0.0),
}
# a D_s value must lie inside the recorded certified bracket, widened by this
DS_SLACK_BITS = 1e-9
ORACLE_TOLERANCE = 1e-8


def _close(got: float, want: float, tol: tuple[float, float]) -> bool:
    if math.isinf(want) or math.isnan(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= tol[0] + tol[1] * abs(want)


def _diff(got, want, tol, path: str) -> str | None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}"
        for key in want:
            reason = _diff(got[key], want[key], tol, f"{path}.{key}")
            if reason:
                return reason
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            reason = _diff(g, w, tol, f"{path}[{i}]")
            if reason:
                return reason
        return None
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        return None if _close(float(got), want, tol) else f"{path}: {got!r} != {want!r}"
    return None if got == want and type(got) is type(want) else f"{path}: {got!r} != {want!r}"


def against_reference(kind: str, got: dict, want: dict) -> str | None:
    """None when ``got`` matches the reference, else the first difference."""
    if kind == "divergence:ds":
        value = got.get("value_bits")
        if got.get("exact") != want["exact"] or not isinstance(value, float):
            return f"ds output {got!r} does not match the schema of {want!r}"
        lo = want["bracket_lower_bits"] - DS_SLACK_BITS
        hi = want["bracket_upper_bits"] + DS_SLACK_BITS
        if not lo <= value <= hi:
            return f"ds value {value!r} outside the recorded bracket [{lo!r}, {hi!r}]"
        if not got["bracket_lower_bits"] <= value <= got["bracket_upper_bits"]:
            return f"ds value {value!r} outside its own bracket"
        return None
    return _diff(got, want, TOLERANCE[kind], "results")


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def _greedy_test_mass(p: np.ndarray, q: np.ndarray, eps: float) -> float:
    """Least q-mass of a test accepting p-mass 1 - eps: fill outcomes in
    decreasing order of p/q, the boundary outcome fractionally."""
    need, beta = 1.0 - eps, 0.0
    for i in sorted(range(p.size), key=lambda i: -p[i] / q[i]):
        if need <= 0.0:
            break
        if p[i] > 0.0:
            weight = min(1.0, need / p[i])
            beta += weight * q[i]
            need -= weight * p[i]
    return beta


def _greedy_dh(results: dict, args: dict) -> str | None:
    beta = _greedy_test_mass(np.asarray(args["r"]), np.asarray(args["s"]), args["eps"])
    want = -math.log2(beta)
    got = results["value_bits"]
    if abs(got - want) > ORACLE_TOLERANCE:
        return f"D_h {got!r} differs from the greedy fill {want!r}"
    return None


def _brute_iid(results: dict, args: dict) -> str | None:
    p = np.array([float(x) for x in args["p"].split(",")])
    q = np.array([float(x) for x in args["q"].split(",")])
    for row in results["rows"]:
        n = row["n"]
        strings = np.array(list(itertools.product(range(p.size), repeat=n)))
        pn = np.prod(p[strings], axis=1)
        qn = np.prod(q[strings], axis=1)
        want = -math.log2(_greedy_test_mass(pn, qn, args["eps"]))
        if abs(row["exact_bits"] - want) > ORACLE_TOLERANCE * max(1.0, abs(want)):
            return f"n={n}: exact {row['exact_bits']!r} differs from brute force {want!r}"
    return None


def _constant(results: dict, args: dict) -> str | None:
    if abs(results["value"] - args["value"]) > 1e-12:
        return f"value {results['value']!r} differs from {args['value']!r}"
    return None


ORACLES = {"greedy_dh": _greedy_dh, "brute_iid": _brute_iid, "constant": _constant}


def same_as(results: dict, partner: dict) -> str | None:
    """Monte-Carlo results must be bit-identical across worker counts."""
    if results != partner:
        return f"{results!r} differs from the one-worker run {partner!r}"
    return None
