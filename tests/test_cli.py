"""Command-line interface: dispatch, formats, exit codes, channels."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import oneshot_qit
from oneshot_qit import CQState, DivergencePair, dump_state, joint_embed, load_state
from oneshot_qit import cli
from oneshot_qit.cli import run

from conftest import (
    binary_antipodal,
    bit_pair_trivial_side,
    counting_eigensolves,
    random_cq_state,
    solves_of,
)


@pytest.fixture()
def bitpair_file(tmp_path):
    path = tmp_path / "bitpair.json"
    dump_state(bit_pair_trivial_side(), path)
    return str(path)


@pytest.fixture()
def antipodal_file(tmp_path):
    path = tmp_path / "antipodal.json"
    dump_state(binary_antipodal(), path)
    return str(path)


def _refuse_nan(constant):
    """``parse_constant`` hook: +-Infinity is a legitimate value (D_h of
    orthogonal supports, D_s saturation); NaN never is."""
    if constant == "NaN":
        raise AssertionError("NaN in the JSON output")
    return float(constant)


def run_json(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out, parse_constant=_refuse_nan), captured.err


def test_simulate_pa_exact_value(capsys, bitpair_file):
    payload, _ = run_json(capsys, [
        "simulate", "--task", "pa", "--state", bitpair_file,
        "--size", "2", "--method", "exact",
    ])
    assert payload["schema"] == "oneshot-qit/1"
    assert payload["log_base"] == 2
    assert payload["results"]["value"] == pytest.approx(0.25, abs=1e-12)
    assert payload["results"]["hash_family"] == "exhaustive-uniform-function"
    assert payload["params"]["size"] == 2


def test_divergence_identical_states(capsys, bitpair_file):
    payload, _ = run_json(capsys, [
        "divergence", "--kind", "dh", "--state-a", bitpair_file,
        "--state-b", bitpair_file, "--eps", "0.3",
    ])
    assert payload["results"]["value_bits"] == pytest.approx(
        -math.log2(0.7), abs=1e-9
    )


@pytest.mark.parametrize("kind", ["ds", "dh", "d2", "kl", "var"])
def test_divergence_refuses_states_of_different_shape(capsys, tmp_path, kind,
                                                      bitpair_file, antipodal_file):
    # d differs, or |X| differs with one alphabet of size 1 (whose (1, d, d)
    # joint operator would broadcast against the other's blocks)
    single = tmp_path / "single.json"
    dump_state(CQState(p=[1.0], rhos=[np.eye(2) / 2]), single)
    for state_a, state_b in ((bitpair_file, antipodal_file),
                             (str(single), antipodal_file)):
        code = run([
            "divergence", "--kind", kind, "--state-a", state_a,
            "--state-b", state_b, "--eps", "0.3",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "dimension mismatch" in captured.err
        assert captured.out == ""


def test_divergence_requires_eps(capsys, bitpair_file):
    code = run([
        "divergence", "--kind", "ds", "--state-a", bitpair_file,
        "--state-b", bitpair_file,
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "eps" in captured.err
    assert captured.out == ""


def test_divergence_refuses_bad_grid(capsys, bitpair_file):
    for grid in ("0", "1", "2000001"):
        code = run([
            "divergence", "--kind", "ds", "--state-a", bitpair_file,
            "--state-b", bitpair_file, "--eps", "0.3", "--grid", grid,
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "grid" in captured.err
        assert captured.out == ""


def test_divergence_ds_saturation_is_infinite_for_any_pair(capsys, tmp_path):
    # at eps within 1e-12 of 1 every threshold is feasible, commuting or not
    files = {}
    for name, op in (("diag", np.diag([0.3, 0.7])), ("plus", np.full((2, 2), 0.5)),
                     ("sigma", np.diag([0.6, 0.4]))):
        files[name] = str(tmp_path / f"{name}.json")
        dump_state(CQState(p=[1.0], rhos=[op]), files[name])
    for rho in ("diag", "plus"):
        code = run(["divergence", "--kind", "ds", "--state-a", files[rho],
                    "--state-b", files["sigma"], "--eps", repr(1.0 - 1e-13)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert '"value_bits": Infinity' in captured.out
        results = json.loads(captured.out, parse_constant=_refuse_nan)["results"]
        assert results["exact"] == (rho == "diag")
        assert [results[f"{key}_bits"] for key in (
            "value", "bracket_lower", "bracket_upper")] == [math.inf] * 3


def test_simulate_refuses_non_positive_workers(capsys, bitpair_file):
    for method in ("mc", "exact"):
        code = run([
            "simulate", "--task", "pa", "--state", bitpair_file, "--size", "2",
            "--method", method, "--samples", "100", "--workers", "0",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "workers" in captured.err
        assert captured.out == ""


def test_simulate_refuses_seed_outside_64_bits(capsys, bitpair_file):
    for method, seed in (("mc", "-1"), ("exact", "-1"), ("mc", str(2 ** 64))):
        code = run([
            "simulate", "--task", "covering", "--state", bitpair_file, "--size", "2",
            "--method", method, "--samples", "100", "--seed", seed,
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "seed" in captured.err
        assert captured.out == ""


def test_simulate_refuses_samples_above_cap_before_any_draw(capsys, monkeypatch, bitpair_file):
    def refuse(seed, chunk_index):
        raise AssertionError("a chunk was drawn")

    monkeypatch.setattr(oneshot_qit.simulate, "_chunk_rng", refuse)
    for task in ("pa", "covering"):
        code = run([
            "simulate", "--task", task, "--state", bitpair_file, "--size", "2",
            "--method", "mc", "--samples", str(oneshot_qit.simulate.MC_SAMPLE_CAP + 1),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "samples" in captured.err
        assert captured.out == ""


def test_simulate_refuses_covering_sizes_that_do_not_bound_the_work(capsys, monkeypatch,
                                                                   tmp_path, bitpair_file):
    def refuse(*args, **kwargs):
        raise AssertionError("a type table or a codebook was built")

    monkeypatch.setattr(oneshot_qit.simulate, "_type_tables", refuse)
    monkeypatch.setattr(oneshot_qit.simulate, "_codebook_types", refuse)
    one_symbol = str(tmp_path / "one.json")
    dump_state(CQState([1.0], [np.eye(2) / 2]), one_symbol)
    for state, method, size in (
            (one_symbol, "exact", oneshot_qit.simulate.ENUMERATION_CAP),
            (bitpair_file, "mc", oneshot_qit.simulate.MC_SAMPLE_CAP + 1)):
        code = run([
            "simulate", "--task", "covering", "--state", state, "--size", str(size),
            "--method", method, "--samples", "100",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "cap" in captured.err or "at most" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("size", [2 ** 63 - 1, 2 ** 63, 2 ** 64, 10 ** 30])
def test_output_sizes_beyond_int64_exit_2_not_a_traceback(capsys, bitpair_file, size):
    # the largest int64 size simulates; larger ones, and every search to
    # these caps, are refused with exit code 2
    calls = [(["simulate", "--task", "pa", "--size", str(size), "--method", method,
               "--samples", "64"], size < 2 ** 63) for method in ("exact", "mc")]
    calls += [(["search", "--task", task, "--eps", "0.3", "--cap", str(size)], False)
              for task in ("pa", "covering")]
    for argv, runs in calls:
        code = run([*argv, "--state", bitpair_file])
        captured = capsys.readouterr()
        assert code == (0 if runs else 2), (argv, captured.err)
        assert (captured.out == "") != runs
        assert runs or "error:" in captured.err


def test_bounds_domain_error_exit_code(capsys, antipodal_file):
    code = run([
        "bounds", "--task", "covering", "--state", antipodal_file,
        "--eps", "0.3", "--delta", "0.12", "--c", "0.05",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "delta must be < eps/3" in captured.err
    assert captured.out == ""
    code = run([
        "bounds", "--task", "pa", "--state", antipodal_file,
        "--eps", "0.3", "--delta", "0.09", "--c", "nan",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "c must be > 0" in captured.err
    assert captured.out == ""


def test_state_file_with_non_integral_sizes_exit_code(capsys, tmp_path):
    path = tmp_path / "sizes.json"
    path.write_text(json.dumps({
        "alphabet_size": True, "dim_b": 1.9, "p": [1.0], "rhos": [[[[1.0, 0.0]]]],
    }))
    code = run([
        "simulate", "--task", "pa", "--state", str(path),
        "--size", "1", "--method", "exact",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "alphabet_size=True is not an integer" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("rhos", [
    [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]],  # ragged: rows of unequal length
    [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], ["zero", 0.0]]]],  # a non-numeric entry
])
def test_state_file_with_malformed_rhos_exit_code(capsys, tmp_path, rhos):
    path = tmp_path / "rhos.json"
    path.write_text(json.dumps({"alphabet_size": 1, "dim_b": 2, "p": [1.0], "rhos": rhos}))
    code = run([
        "simulate", "--task", "pa", "--state", str(path),
        "--size", "1", "--method", "exact",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "malformed state document" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_state_file_not_utf8_exit_code(capsys, tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00\x01binary")
    code = run([
        "simulate", "--task", "pa", "--state", str(path),
        "--size", "2", "--method", "exact",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert f"state file {path} is not valid JSON" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


_COLD_WARM_ARGVS = [
    *[["divergence", "--kind", kind, "--state-a", "{a}", "--state-b", "{b}", "--eps", "0.2"]
      for kind in ("ds", "dh", "d2", "kl", "var")],
    *[["bounds", "--task", task, "--state", "{a}", "--eps", "0.3", "--delta", "0.09",
       "--c", "0.04"] for task in ("pa", "covering")],
    ["rates", "--task", "covering", "--state", "{a}", "--eps", "0.2", "--n-list", "10,100"],
    ["simulate", "--task", "pa", "--state", "{a}", "--size", "2", "--method", "exact"],
    ["simulate", "--task", "covering", "--state", "{a}", "--size", "3", "--method", "mc",
     "--samples", "300", "--seed", "5"],
    ["search", "--task", "covering", "--state", "{a}", "--eps", "0.5", "--cap", "4"],
]


@pytest.mark.parametrize("argv", _COLD_WARM_ARGVS, ids=lambda argv: "-".join(argv[:3]))
def test_cold_and_warm_loads_print_the_same(capsys, tmp_path, argv, cold_state_memo):
    rng = np.random.default_rng(31)
    paths = {}
    for name in ("a", "b"):
        paths[name] = str(tmp_path / f"{name}.json")
        dump_state(random_cq_state(rng, 3, 2), paths[name])
    argv = [arg.format(**paths) for arg in argv]
    outputs = []
    for _ in range(2):
        assert run(argv) == 0
        outputs.append(capsys.readouterr().out)
        assert cold_state_memo.held > 0
    assert outputs[0] == outputs[1]


def _two_state_files(tmp_path, seed):
    rng = np.random.default_rng(seed)
    paths = [str(tmp_path / f"{name}.json") for name in ("a", "b")]
    for path in paths:
        dump_state(random_cq_state(rng, 3, 2), path)
    return paths


def test_divergences_solve_each_state_operator_once(capsys, tmp_path, monkeypatch,
                                                    cold_state_memo):
    # ds at two eps, d2, kl and var on one pair of loaded states: each
    # state's rho_x stack is solved once, by its validation, and its
    # marginal once; the joint operators are never solved
    a, b = _two_state_files(tmp_path, 32)
    argvs = [["divergence", "--kind", "ds", "--state-a", a, "--state-b", b, "--eps", eps]
             for eps in ("0.1", "0.3")]
    argvs += [["divergence", "--kind", kind, "--state-a", a, "--state-b", b]
              for kind in ("d2", "kl", "var")]
    solved = []
    with counting_eigensolves(monkeypatch, solved):
        for argv in argvs:
            assert run(argv) == 0, capsys.readouterr().err
    capsys.readouterr()
    states = [load_state(a), load_state(b)]
    rho, sigma = (joint_embed(state).rho_xb for state in states)
    assert not DivergencePair.of(rho, sigma).commuting
    assert [solves_of(solved, op) for state in states
            for op in (state.rhos, state.marginal(), joint_embed(state).rho_xb)] == [1, 1, 0] * 2


def test_bounds_and_rates_solve_each_state_operator_once(capsys, tmp_path, monkeypatch,
                                                         cold_state_memo):
    # both tasks of bounds and rates on one loaded state read the marginal
    # (nu), the joint operator and its two references: the rho_x stack is
    # solved once, by validation, the marginal once, and the joint
    # operator and its references never
    [path, _] = _two_state_files(tmp_path, 33)
    argvs = [["bounds", "--task", task, "--state", path, "--eps", "0.3", "--delta", "0.09",
              "--c", "0.04"] for task in ("pa", "covering")]
    argvs += [["rates", "--task", task, "--state", path, "--eps", "0.2", "--n", "100"]
              for task in ("pa", "covering")]
    solved = []
    with counting_eigensolves(monkeypatch, solved):
        for argv in argvs:
            assert run(argv) == 0, capsys.readouterr().err
    capsys.readouterr()
    state = load_state(path)
    emb = joint_embed(state)
    assert [solves_of(solved, op) for op in (state.rhos, emb.rho_b, emb.rho_xb,
                                             emb.rho_x_tensor_rho_b,
                                             emb.one_x_tensor_rho_b)] == [1, 1, 0, 0, 0]


def test_rates_refuses_a_bad_level_before_any_solve(capsys, tmp_path, monkeypatch,
                                                    cold_state_memo):
    [path, _] = _two_state_files(tmp_path, 35)
    for task in ("pa", "covering"):
        for eps in ("1.5", "0"):
            with counting_eigensolves(monkeypatch) as matrices_per_call:
                code = run(["rates", "--task", task, "--state", path, "--eps", eps,
                            "--n", "100"])
            captured = capsys.readouterr()
            assert (code, captured.out, matrices_per_call) == (2, "", []), (task, eps)
            assert "eps" in captured.err


def test_only_ds_forms_the_commutator(capsys, tmp_path, monkeypatch, cold_state_memo):
    # the commutation flag is computed on first read, and only D_s reads it
    a, b = _two_state_files(tmp_path, 34)
    argvs = [["divergence", "--kind", kind, "--state-a", a, "--state-b", b, "--eps", "0.2"]
             for kind in ("dh", "d2", "kl", "var")]
    argvs += [["bounds", "--task", task, "--state", a, "--eps", "0.3", "--delta", "0.09",
               "--c", "0.04"] for task in ("pa", "covering")]
    argvs += [["rates", "--task", task, "--state", a, "--eps", "0.2", "--n-list", "10,100"]
              for task in ("pa", "covering")]

    formed = []
    flag = DivergencePair.commuting.func

    def forming(pair):
        formed.append(pair)
        return flag(pair)

    with monkeypatch.context() as patch:
        patch.setattr(DivergencePair, "commuting", property(forming))
        for argv in argvs:
            assert run(argv) == 0, capsys.readouterr().err
        assert formed == []
        assert run(["divergence", "--kind", "ds", "--state-a", a, "--state-b", b,
                    "--eps", "0.2"]) == 0
    assert len(formed) == 2  # the D_s kernel, then the "exact" field
    capsys.readouterr()


@pytest.mark.parametrize("argv, option", [
    (["rates", "--task", "pa", "--state", "{state}", "--eps", "0.2", "--n-list", ","],
     "--n-list"),
    (["rates", "--task", "covering", "--state", "{state}", "--eps", "0.2", "--n-list", ""],
     "--n-list"),
    (["sweep", "--regime", "second", "--p", "0.5,0.5", "--q", "0.5,0.5", "--eps", "0.2",
      "--n-list", ""], "n_list"),
    (["sweep", "--regime", "moderate", "--p", "0.3,0.7", "--q", "0.5,0.5", "--t", "0.3",
      "--n-list", ","], "n_list"),
], ids=["rates-pa", "rates-covering", "sweep-second", "sweep-moderate"])
def test_empty_blocklength_list_exit_code(capsys, antipodal_file, argv, option):
    code = run([arg.format(state=antipodal_file) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"{option} names no blocklength" in captured.err


def test_bounds_success(capsys, antipodal_file):
    payload, _ = run_json(capsys, [
        "bounds", "--task", "covering", "--state", antipodal_file,
        "--eps", "0.3", "--delta", "0.09", "--c", "0.04",
    ])
    res = payload["results"]
    assert res["lower_bits"] <= res["upper_bits"]
    assert res["nu"] == 1


def test_unreadable_state_file(capsys):
    code = run([
        "simulate", "--task", "pa", "--state", "/nonexistent.json",
        "--size", "2", "--method", "exact",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""


def test_unknown_flag_exit_code(capsys):
    code = run(["simulate", "--task", "pa", "--no-such-flag", "1"])
    assert code == 2


def test_search_emits_note_on_stderr_not_stdout(capsys, antipodal_file):
    payload, err = run_json(capsys, [
        "search", "--task", "pa", "--state", antipodal_file,
        "--eps", "0.9", "--cap", "3",
    ])
    assert payload["results"]["cap_limited"] is True
    assert "cap-limited" in err
    # and --quiet silences the note
    payload, err = run_json(capsys, [
        "search", "--task", "pa", "--state", antipodal_file,
        "--eps", "0.9", "--cap", "3", "--quiet",
    ])
    assert err == ""


def test_search_covering(capsys, antipodal_file):
    payload, _ = run_json(capsys, [
        "search", "--task", "covering", "--state", antipodal_file,
        "--eps", "0.25", "--cap", "4",
    ])
    assert payload["results"]["found"] == 2
    assert payload["results"]["rows"][0]["value"] == pytest.approx(0.5)


def test_rates_covering_sign(capsys, antipodal_file):
    payload, _ = run_json(capsys, [
        "rates", "--task", "covering", "--state", antipodal_file,
        "--eps", "0.2", "--n", "100",
    ])
    res = payload["results"]
    # information 1 bit, zero variance: value is exactly n
    assert res["first_order_bits"] == pytest.approx(1.0, abs=1e-9)
    assert res["rows"][0]["value_bits"] == pytest.approx(100.0, abs=1e-6)


def test_rates_requires_exactly_one_blocklength(capsys, antipodal_file):
    code = run([
        "rates", "--task", "pa", "--state", antipodal_file, "--eps", "0.2",
    ])
    assert code == 2
    capsys.readouterr()


def test_sweep_second_order_csv(capsys):
    code = run([
        "sweep", "--regime", "second", "--p", "0.333333333333,0.666666666667",
        "--q", "0.5,0.5", "--eps", "0.2", "--n-list", "4,16", "--format", "csv",
    ])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0].split(",")[:3] == ["n", "exact_bits", "prediction_bits"]
    assert len(lines) == 3


def test_sweep_zero_probability_symbol_writes_no_warning(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([
            "sweep", "--regime", "second", "--p", "0.5,0.5,0", "--q", "0.3,0.3,0.4",
            "--eps", "0.2", "--n-list", "3",
        ])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""


def test_sweep_large_alphabet_at_blocklength_one(capsys):
    uniform = ",".join([repr(1.0 / 1200)] * 1200)
    payload, _ = run_json(capsys, [
        "sweep", "--regime", "second", "--p", uniform, "--q", uniform,
        "--eps", "0.2", "--n-list", "1",
    ])
    (row,) = payload["results"]["rows"]
    assert row["exact_bits"] == pytest.approx(-math.log2(0.8), abs=1e-12)


def test_sweep_moderate_has_both_branches(capsys):
    payload, _ = run_json(capsys, [
        "sweep", "--regime", "moderate", "--p", "0.3,0.7", "--q", "0.5,0.5",
        "--t", "0.33", "--n-list", "16,64",
    ])
    directions = {row["direction"] for row in payload["results"]["rows"]}
    assert directions == {-1, 1}


def test_json_round_trip_reproducibility(capsys, bitpair_file):
    argv = [
        "simulate", "--task", "pa", "--state", bitpair_file,
        "--size", "2", "--method", "mc", "--samples", "5000", "--seed", "9",
    ]
    first, _ = run_json(capsys, argv)
    # re-run with the parameters embedded in the emitted document
    params = first["params"]
    argv2 = [
        "simulate", "--task", params["task"], "--state", params["state"],
        "--size", str(params["size"]), "--method", params["method"],
        "--samples", str(params["samples"]), "--seed", str(params["seed"]),
        "--workers", str(params["workers"]),
    ]
    second, _ = run_json(capsys, argv2)
    assert first == second


def test_csv_scalar_output(capsys, bitpair_file):
    code = run([
        "divergence", "--kind", "kl", "--state-a", bitpair_file,
        "--state-b", bitpair_file, "--format", "csv",
    ])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("results.value_bits,") for line in lines)


def test_cached_parser_matches_fresh_parsers(capsys, monkeypatch, bitpair_file,
                                             antipodal_file):
    sequence = [
        ["simulate", "--task", "pa", "--state", bitpair_file, "--size", "2",
         "--method", "exact"],
        ["divergence", "--kind", "ds", "--state-a", bitpair_file,
         "--state-b", bitpair_file, "--eps", "0.3", "--format", "csv"],
        ["rates", "--task", "covering", "--state", antipodal_file, "--eps", "0.2",
         "--n-list", "10,100"],
        ["divergence", "--kind", "ds", "--state-a", bitpair_file],  # usage error
        ["bounds", "--task", "pa", "--state", antipodal_file, "--eps", "0.3",
         "--delta", "0.09", "--c", "0.04", "--quiet"],
        ["sweep", "--regime", "second", "--p", "0.3,0.7", "--q", "0.5,0.5",
         "--eps", "0.2", "--n-list", "4"],
        ["simulate", "--task", "pa", "--state", bitpair_file, "--size", "2",
         "--method", "exact", "--workers", "x"],  # usage error
        ["bounds", "--help"],
        ["divergence", "--kind", "kl", "--state-a", bitpair_file,
         "--state-b", bitpair_file],
    ]

    def outcomes():
        results = []
        for argv in sequence:
            code = run(argv)
            results.append((code, capsys.readouterr().out))
        return results

    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    cached = outcomes()
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parser", cli.build_parser)
        fresh = outcomes()
    assert cached == fresh
    assert [code for code, _ in cached] == [0, 0, 0, 2, 0, 0, 2, 0, 0]


def test_console_entry_point_subprocess(bitpair_file):
    # the child imports the same package as the tests, installed or not
    package_root = str(Path(oneshot_qit.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "oneshot_qit.cli", "simulate", "--task", "pa",
         "--state", bitpair_file, "--size", "2", "--method", "exact"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["results"]["value"] == pytest.approx(0.25, abs=1e-12)


_SIMULATE = ["simulate", "--task", "pa", "--state", "s.json", "--size", "2", "--method", "exact"]
_DIVERGENCE = ["divergence", "--kind", "ds", "--state-a", "a.json", "--state-b", "b.json",
               "--eps", "0.3"]


@pytest.mark.parametrize("argv", [
    _SIMULATE,
    _SIMULATE + ["--samples", "10", "--seed", "3", "--workers", "2", "--format", "csv"],
    _DIVERGENCE,
    ["rates", "--task", "covering", "--state", "s.json", "--eps", "0.2", "--n-list", "10,100"],
    ["bounds", "--task", "pa", "--state", "s.json", "--eps=0.3", "--delta", "0.09",
     "--c", "0.04", "--quiet"],
    ["search", "--task", "covering", "--state", "s.json", "--eps", "0.25", "--cap", "8",
     "--quiet"],
    ["sweep", "--regime", "second", "--p", "0.3,0.7", "--q", "0.5,0.5", "--eps", "0.2",
     "--n-list", "4"],
    ["simulate", "--tas", "pa", "--state", "s.json", "--size", "2", "--method", "exact"],
    [],
    ["-h"],
    ["divergence", "-h"],
    ["bounds", "--help"],
    ["frobnicate", "--eps", "0.3"],
    ["--", *_SIMULATE],
    _SIMULATE + ["--bogus"],
    _SIMULATE + ["extra"],
    ["simulate", "--task", "pa", "--state", "s.json", "--size", "two", "--method", "exact"],
    ["simulate", "--task", "pa"],
    _DIVERGENCE + ["--grid", "1"],
    _DIVERGENCE + ["--kind", "nope"],
])
def test_subcommand_dispatch_parses_as_the_full_parser(capsys, argv):
    # run() parses a subcommand with its own subparser; the namespace, the
    # exit code and both streams are those of the full parser
    def outcome(parse):
        try:
            namespace, code = vars(parse(list(argv))), None
        except SystemExit as exc:
            namespace, code = None, exc.code
        captured = capsys.readouterr()
        return namespace, code, captured.out, captured.err

    want = outcome(cli.build_parser().parse_args)
    assert outcome(cli._parse) == want
    if want[1] is not None:  # run() reports the full parser's exit as its own
        assert run(list(argv)) == (0 if want[1] == 0 else 2)
        assert capsys.readouterr()[:] == want[2:]
