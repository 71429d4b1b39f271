"""Command-line front door.

Parses state files, dispatches computations, and emits machine-readable
documents: JSON (default) or CSV on standard output, diagnostics on
standard error.  Exit codes: 0 success, 2 domain/usage errors, 3
numerical failures.  All entropic outputs are in bits (``log_base`` 2).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

from . import __version__
from .bounds import covering_size_bounds, pa_size_bounds, validate_sandwich_params
from .cq import ENUMERATION_CAP, joint_embed, load_state
from .divergences import (
    DivergencePair,
    collision_divergence,
    hypothesis_test_divergence,
    info_spectrum_divergence_bracket,
    relative_entropy,
    relative_entropy_variance,
)
from .entropic import (
    RateExpansion,
    conditional_entropy_with_variance,
    mutual_information_with_variance,
    normal_quantile,
)
from .errors import DomainError, NumericalError
from .rates import _moderate_rows, second_order_sweep
from .simulate import (
    search_max_extractable,
    search_min_codebook,
    simulate_covering,
    simulate_pa,
    uniform_function_family,
)

SCHEMA = "oneshot-qit/1"

_CSV_HELP = (
    "CSV output: row-shaped results (rates, search curves, sweeps) are "
    "emitted as a table whose first line names the columns; scalar "
    "results are emitted as key,value lines.  JSON output carries the "
    "same data under 'results'."
)


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {exc}")


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints: {exc}")


def _grid(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if not 2 <= value <= ENUMERATION_CAP:
        raise argparse.ArgumentTypeError(
            f"must be an integer in [2, {ENUMERATION_CAP}], got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--quiet", action="store_true",
                        help="suppress informational notes on stderr")

    parser = argparse.ArgumentParser(
        prog="oneshot-qit",
        description="One-shot quantities, bounds, simulators, and sweeps "
                    "for classical-quantum states (all outputs in bits).",
        epilog=_CSV_HELP,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("divergence", parents=[common],
                       help="divergence between the joint states of two files")
    p.add_argument("--kind", required=True, choices=("ds", "dh", "d2", "kl", "var"))
    p.add_argument("--state-a", required=True)
    p.add_argument("--state-b", required=True)
    p.add_argument("--eps", type=float)
    p.add_argument("--grid", type=_grid, default=2048,
                   help="integer in [2, 2e6], only range-checked: ds has no "
                        "grid (it searches the dual of dh)")

    p = sub.add_parser("rates", parents=[common],
                       help="first/second-order rate expansions of a state")
    p.add_argument("--task", required=True, choices=("pa", "covering"))
    p.add_argument("--state", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--n-list", type=_int_list)

    p = sub.add_parser("bounds", parents=[common],
                       help="explicit sandwich on the log operational size")
    p.add_argument("--task", required=True, choices=("pa", "covering"))
    p.add_argument("--state", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--c", type=float, required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="exact or monte-carlo protocol distance")
    p.add_argument("--task", required=True, choices=("pa", "covering"))
    p.add_argument("--state", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--method", required=True, choices=("exact", "mc"))
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("search", parents=[common],
                       help="certified operational-size search (exact only)")
    p.add_argument("--task", required=True, choices=("pa", "covering"))
    p.add_argument("--state", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--cap", type=int, required=True)

    p = sub.add_parser("sweep", parents=[common],
                       help="exact-vs-prediction blocklength sweep on a classical pair")
    p.add_argument("--regime", required=True, choices=("second", "moderate"))
    p.add_argument("--p", type=_float_list, required=True)
    p.add_argument("--q", type=_float_list, required=True)
    p.add_argument("--eps", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--n-list", type=_int_list, required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``run`` reuses; parsing leaves it unchanged."""
    return build_parser()


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_divergence(args) -> dict:
    state_a = load_state(args.state_a)
    state_b = load_state(args.state_b)
    rho = joint_embed(state_a).rho_xb
    sigma = joint_embed(state_b).rho_xb
    pair = DivergencePair._trusted(rho, sigma)
    kind = args.kind
    if kind in ("ds", "dh") and args.eps is None:
        raise DomainError(f"--eps is required for kind {kind}")
    if kind == "ds":
        value, lower, upper = info_spectrum_divergence_bracket(pair, args.eps)
        return {
            "value_bits": value,
            "bracket_lower_bits": lower,
            "bracket_upper_bits": upper,
            "exact": pair.commuting,
        }
    if kind == "dh":
        return {"value_bits": hypothesis_test_divergence(pair, args.eps)}
    if kind == "d2":
        return {"value_bits": collision_divergence(pair)}
    if kind == "kl":
        return {"value_bits": relative_entropy(pair)}
    return {"value_bits": relative_entropy_variance(pair)}


def _cmd_rates(args) -> dict:
    state = load_state(args.state)
    if (args.n is None) == (args.n_list is None):
        raise DomainError("pass exactly one of --n or --n-list")
    n_values = [args.n] if args.n is not None else list(args.n_list)
    if any(n < 1 for n in n_values):
        raise DomainError("blocklengths must be positive")
    if args.task == "pa":
        first, variance = conditional_entropy_with_variance(state)
        sign = 1.0
    else:
        first, variance = mutual_information_with_variance(state)
        sign = -1.0
    coeff = sign * math.sqrt(variance) * normal_quantile(args.eps)
    rows = []
    for n in n_values:
        exp = RateExpansion.assemble(first, coeff, args.eps, n)
        rows.append({
            "n": n,
            "first_order_bits": exp.first_order,
            "second_order_coeff_bits": exp.second_order_coeff,
            "value_bits": exp.value_at_n,
        })
    return {
        "first_order_bits": first,
        "variance_bits2": variance,
        "quantile": normal_quantile(args.eps),
        "rows": rows,
    }


def _cmd_bounds(args) -> dict:
    validate_sandwich_params(args.eps, args.delta, args.c)
    state = load_state(args.state)
    builder = pa_size_bounds if args.task == "pa" else covering_size_bounds
    report = builder(state, args.eps, args.delta, args.c)
    return {
        "lower_bits": report.lower_bits,
        "upper_bits": report.upper_bits,
        "nu": report.nu,
        "intermediate": report.intermediate,
    }


def _cmd_simulate(args) -> dict:
    state = load_state(args.state)
    runner = simulate_pa if args.task == "pa" else simulate_covering
    est = runner(state, args.size, args.method, samples=args.samples,
                 seed=args.seed, workers=args.workers)
    out = {
        "value": est.value,
        "method": est.method,
        "samples": est.samples,
        "seed": est.seed,
        "half_width": est.half_width,
    }
    if args.task == "pa":
        out["hash_family"] = uniform_function_family(
            state.alphabet_size, args.size, est.method).kind
    return out


def _cmd_search(args, quiet: bool) -> dict:
    state = load_state(args.state)
    if args.task == "pa":
        result = search_max_extractable(state, args.eps, args.cap)
    else:
        result = search_min_codebook(state, args.eps, args.cap)
    if result.cap_limited and not quiet:
        print(
            f"note: search is cap-limited at {args.cap}; the certified "
            "answer may lie beyond the cap",
            file=sys.stderr,
        )
    rows = [
        {"size": size, "value": est.value, "samples": est.samples}
        for size, est in result.curve
    ]
    out = {
        "found": result.found,
        "cap_limited": result.cap_limited,
        "rows": rows,
    }
    if result.family is not None:
        out["hash_family"] = result.family.kind
    return out


def _cmd_sweep(args) -> dict:
    if args.regime == "second":
        if args.eps is None:
            raise DomainError("--eps is required for the second-order regime")
        sweeps = second_order_sweep(args.p, args.q, args.eps, args.n_list)
    else:
        if args.t is None:
            raise DomainError("--t is required for the moderate regime")
        sweeps = _moderate_rows(args.p, args.q, args.t, args.n_list, (-1, +1))
    rows = [
        {
            "n": row.n,
            "exact_bits": row.exact_bits,
            "prediction_bits": row.prediction_bits,
            "residual_bits": row.residual,
            "regime": row.regime,
            "direction": row.direction if row.direction is not None else "",
        }
        for row in sweeps
    ]
    return {"rows": rows}


# ---------------------------------------------------------------------------
# Emission and entry point
# ---------------------------------------------------------------------------

def _params_of(args) -> dict:
    skip = {"subcommand", "format", "quiet"}
    return {
        key: value for key, value in sorted(vars(args).items())
        if key not in skip and value is not None
    }


def _flatten(prefix: str, value, into: list) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, into)
    elif isinstance(value, list):
        into.append((prefix, json.dumps(value)))
    else:
        into.append((prefix, value))


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    rows = payload["results"].get("rows")
    if rows:
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[column] for column in header])
    else:
        pairs: list = []
        _flatten("", {k: v for k, v in payload.items() if k != "results"}, pairs)
        _flatten("results", payload["results"], pairs)
        writer.writerow(["key", "value"])
        for key, value in pairs:
            writer.writerow([key, value])
    sys.stdout.write(buffer.getvalue())


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse has already reported on stderr
        return 2 if exc.code not in (0, None) else 0

    handlers = {
        "divergence": lambda: _cmd_divergence(args),
        "rates": lambda: _cmd_rates(args),
        "bounds": lambda: _cmd_bounds(args),
        "simulate": lambda: _cmd_simulate(args),
        "search": lambda: _cmd_search(args, args.quiet),
        "sweep": lambda: _cmd_sweep(args),
    }
    try:
        results = handlers[args.subcommand]()
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    payload = {
        "schema": SCHEMA,
        "command": args.subcommand,
        "library_version": __version__,
        "log_base": 2,
        "params": _params_of(args),
        "results": results,
    }
    _emit(payload, args.format)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
