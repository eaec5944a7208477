"""The command-line front end: exit codes, output formats, file round trips."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import markovscale
from markovscale import analyze, load_chain, parse_report, position
from markovscale import cli
from markovscale.cli import main
from markovscale.oracle import convergence_sweep

from helpers import fixture

EIGHT = fixture("eightstate.json")
UNIT = fixture("twostate_unit.json")
SWITCH = fixture("game_switch.json")


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


# ------------------------------------------------------------ dispatching


def test_no_subcommand_prints_usage(capsys):
    rc, out, err = run(capsys)
    assert rc == 1
    assert "usage" in err.lower()


def test_unknown_subcommand(capsys):
    rc, _, err = run(capsys, "frobnicate", EIGHT)
    assert rc == 1
    assert "error" in err


def test_unknown_flag(capsys):
    rc, _, err = run(capsys, "analyze", EIGHT, "--frobnicate")
    assert rc == 1
    assert "error" in err


def test_missing_chain_file(capsys):
    rc, _, err = run(capsys, "analyze", "/nonexistent/chain.json")
    assert rc == 1
    assert "cannot read" in err


def _ring13(tmp_path) -> str:
    n = 13
    doc = {
        "states": [f"c{i}" for i in range(n)],
        "transitions": [
            {"from": f"c{i}", "to": f"c{(i + 1) % n}", "coeff": 1.0, "exp": "0"}
            for i in range(n)
        ],
    }
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_resource_limit_exits_two(capsys, tmp_path):
    # t / lambda = 1e19 steps is past the oracle's power cap of about 2^49
    rc, _, err = run(capsys, "verify", _ring13(tmp_path), "--t", "1", "--lambdas", "1e-19")
    assert rc == 2
    assert "power cap" in err
    # t / lambda overflows a float: the same one line, no traceback
    doc = {"states": ["a", "b"],
           "transitions": [{"from": "a", "to": "b", "coeff": 0.5, "exp": "0"},
                           {"from": "b", "to": "a", "coeff": 0.5, "exp": "0"}]}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    # and 1 / lam = 1e17 steps is past the cap, where 1 - lam == 1.0 would
    # make the resolvent system singular
    for t, lam in (("1e300", "1e-10"), ("1", "5e-324"), ("1", "1e-17")):
        rc, out, err = run(capsys, "verify", str(path), "--t", t, "--lambdas", lam)
        assert rc == 2
        assert out == ""
        assert err.startswith("internal error: ") and err.count("\n") == 1
        assert "power cap" in err


def test_running_out_of_memory_prints_one_internal_error_line(capsys, monkeypatch):
    # a patched allocator stands in for an n x n result too large for memory
    take = np.take

    def no_memory(a, indices, *args, **kwargs):
        if len(indices) == 8:
            raise MemoryError("Unable to allocate")
        return take(a, indices, *args, **kwargs)

    monkeypatch.setattr(np, "take", no_memory)
    rc, out, err = run(capsys, "position", EIGHT, "--t", "1")
    assert rc == 2
    assert out == ""
    assert err == "internal error: out of memory for a 8x8 float array\n"


def test_thirteen_state_ring_analyzes(capsys, tmp_path):
    rc, out, _ = run(capsys, "analyze", _ring13(tmp_path))
    assert rc == 0
    assert "thresholds: 0, inf" in out
    assert "N = 13" in out
    assert "class 0: " + " ".join(f"c{i}" for i in range(13)) in out


# ---------------------------------------------------------------- analyze


def test_analyze_human_output(capsys):
    rc, out, _ = run(capsys, "analyze", EIGHT)
    assert rc == 0
    assert "thresholds: 0, 1/5, 2/5, 3/5, 1" in out
    assert "N = 2" in out
    assert "class 0: 1 2 3" in out
    assert "mu (state x class):" in out


def test_analyze_json_is_deterministic_and_valid(capsys):
    rc1, out1, _ = run(capsys, "analyze", EIGHT, "--json")
    rc2, out2, _ = run(capsys, "analyze", EIGHT, "--json")
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = parse_report(out1)
    assert doc["N"] == 2


def test_analyze_out_writes_a_loadable_report(capsys, tmp_path):
    target = tmp_path / "report.json"
    rc, out, _ = run(capsys, "analyze", EIGHT, "--out", str(target))
    assert rc == 0
    assert f"report written to {target}" in out
    doc = parse_report(target.read_text())
    assert doc["classes"] == [["1", "2", "3"], ["4"], ["7", "8"]]


# --------------------------------------------------------------- position


def test_position_json_at_time_zero(capsys):
    rc, out, _ = run(capsys, "position", EIGHT, "--t", "0", "--json")
    assert rc == 0
    doc = json.loads(out)
    model = analyze(load_chain(EIGHT))
    np.testing.assert_allclose(doc["position"], model.mu @ model.M, atol=1e-15)
    assert doc["t"] == 0.0
    assert doc["states"] == list(model.chain.states)


def test_position_fraction_maps_to_log_time(capsys):
    rc1, out1, _ = run(capsys, "position", UNIT, "--fraction", "0.5", "--json")
    rc2, out2, _ = run(capsys, "position", UNIT, "--t", repr(math.log(2)), "--json")
    assert rc1 == rc2 == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    assert d1["t"] == pytest.approx(math.log(2), rel=1e-15)
    np.testing.assert_allclose(d1["position"], d2["position"], atol=1e-15)


def test_position_single_row(capsys):
    rc, out, _ = run(capsys, "position", EIGHT, "--t", "1", "--from", "5", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["from"] == "5"
    row = np.array(doc["position"])
    assert row.shape == (8,)
    assert row.sum() == pytest.approx(1.0, abs=1e-10)
    model = analyze(load_chain(EIGHT))
    np.testing.assert_allclose(row, position(model, t=1.0)[model.chain.index["5"]], atol=0)


def test_position_rejects_bad_combinations(capsys):
    assert run(capsys, "position", EIGHT)[0] == 1
    assert run(capsys, "position", EIGHT, "--t", "1", "--fraction", "0.5")[0] == 1
    assert run(capsys, "position", EIGHT, "--t", "-1")[0] == 1
    rc, _, err = run(capsys, "position", EIGHT, "--t", "1", "--from", "zz")
    assert rc == 1
    assert "unknown state" in err


def test_position_from_an_unknown_state_fails_before_any_analysis(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the chain was analyzed for a state it does not have")

    monkeypatch.setattr(cli, "analyze", refuse)
    monkeypatch.setattr(cli, "position", refuse)
    rc, out, err = run(capsys, "position", EIGHT, "--t", "1", "--from", "zz")
    assert (rc, out, err) == (1, "", "error: unknown state 'zz'\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("position", UNIT, "--t", "inf"),
        ("position", UNIT, "--t", "nan"),
        ("position", UNIT, "--t", "1e15", "--json"),
        ("position", UNIT, "--t", "1e20"),
        ("occupation", UNIT, "--t", "inf"),
        ("occupation", UNIT, "--t", "nan", "--json"),
        ("verify", UNIT, "--t", "inf", "--lambdas", "1e-2"),
        ("verify", UNIT, "--t", "nan", "--lambdas", "1e-2"),
    ],
    ids=lambda argv: " ".join(a for a in argv if a != UNIT),
)
def test_a_bad_horizon_is_one_input_error_naming_t(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: t ")


# ------------------------------------------------------------- occupation


def test_occupation_total_json(capsys):
    rc, out, _ = run(capsys, "occupation", UNIT, "--total", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["horizon"] is None
    np.testing.assert_allclose(doc["occupation"], [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-12)


def test_occupation_finite_horizon(capsys):
    rc, out, _ = run(capsys, "occupation", UNIT, "--t", "1", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["horizon"] == 1.0
    np.testing.assert_allclose(
        np.array(doc["occupation"]).sum(axis=1), np.full(2, 1 - math.exp(-1)), atol=1e-10
    )


def test_occupation_rejects_bad_combinations(capsys):
    assert run(capsys, "occupation", UNIT)[0] == 1
    assert run(capsys, "occupation", UNIT, "--t", "1", "--total")[0] == 1
    assert run(capsys, "occupation", UNIT, "--t", "0")[0] == 1


# ----------------------------------------------------------------- payoff


def test_payoff_reads_a_gfile(capsys, tmp_path):
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps({"1": 1.0, "2": 0.0}))
    rc, out, _ = run(capsys, "payoff", UNIT, "--g", str(gfile), "--json")
    assert rc == 0
    doc = json.loads(out)
    np.testing.assert_allclose(doc["payoff"], [2 / 3, 1 / 3], atol=1e-12)
    rc, out, _ = run(capsys, "payoff", UNIT, "--g", str(gfile))
    assert rc == 0
    assert len(out.strip().splitlines()) == 2


def test_payoff_gfile_errors(capsys, tmp_path):
    assert run(capsys, "payoff", UNIT, "--g", "/nonexistent/g.json")[0] == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run(capsys, "payoff", UNIT, "--g", str(bad))[0] == 1
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"1": 1.0}))  # state 2 missing
    rc, _, err = run(capsys, "payoff", UNIT, "--g", str(wrong))
    assert rc == 1
    assert "missing" in err
    # values must be JSON numbers that a float can hold
    for value, problem in [
        ("1" + "0" * 400, "is too large for a float"),
        ('"0.5"', "must be a number"),
        ("true", "must be a number"),
    ]:
        wrong.write_text('{"1": %s, "2": 0.0}' % value)
        rc, _, err = run(capsys, "payoff", UNIT, "--g", str(wrong))
        assert (rc, err) == (1, f"error: payoff vector entry '1' {problem}\n")


# ----------------------------------------------------------------- verify


def test_verify_json_entries(capsys):
    rc, out, _ = run(capsys, "verify", UNIT, "--t", "1", "--lambdas", "1e-2,1e-4", "--json")
    assert rc == 0
    entries = json.loads(out)
    assert [e["lambda"] for e in entries] == [1e-2, 1e-4]
    assert all(
        set(e) == {"lambda", "position_err", "occupation_t_err", "total_err"} for e in entries
    )
    assert entries[-1]["position_err"] <= entries[0]["position_err"]


def test_verify_human_output_summarizes_monotonicity(capsys):
    rc, out, _ = run(capsys, "verify", UNIT, "--t", "1", "--lambdas", "1e-2,1e-4")
    assert rc == 0
    assert "non-increasing" in out


def test_verify_rejects_malformed_lambdas(capsys):
    assert run(capsys, "verify", UNIT, "--t", "1", "--lambdas", "abc")[0] == 1
    assert run(capsys, "verify", UNIT, "--t", "1", "--lambdas", ",")[0] == 1
    assert run(capsys, "verify", UNIT, "--t", "1", "--lambdas", "1e-4,1e-2")[0] == 1
    assert run(capsys, "verify", UNIT, "--lambdas", "1e-2")[0] == 1  # --t required


# ----------------------------------------------------------- game-compile


def test_game_compile_prints_the_chain(capsys):
    rc, out, _ = run(capsys, "game-compile", SWITCH)
    assert rc == 0
    doc = json.loads(out)
    chain = load_chain(doc)
    assert set(chain.states) == {"s", "t"}


def test_game_compile_composes_with_analyze(capsys, tmp_path):
    chain_file = tmp_path / "chain.json"
    payoff_file = tmp_path / "g.json"
    rc, out, _ = run(
        capsys,
        "game-compile",
        SWITCH,
        "--out",
        str(chain_file),
        "--payoff-out",
        str(payoff_file),
    )
    assert rc == 0
    assert "chain written" in out and "payoff vector written" in out
    rc, out, _ = run(capsys, "analyze", str(chain_file), "--json")
    assert rc == 0
    assert parse_report(out)["classes"] == [["s", "t"]]
    rc, out, _ = run(capsys, "payoff", str(chain_file), "--g", str(payoff_file), "--json")
    assert rc == 0
    np.testing.assert_allclose(json.loads(out)["payoff"], [0.3, 0.3], atol=1e-12)


def test_game_compile_json_bundle(capsys):
    rc, out, _ = run(capsys, "game-compile", SWITCH, "--json")
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == {"chain", "payoff"}
    assert doc["payoff"]["s"] == pytest.approx(0.3, abs=1e-12)
    assert doc["payoff"]["t"] == pytest.approx(0.3, abs=1e-12)
    load_chain(doc["chain"])


def test_game_compile_missing_file(capsys):
    rc, _, err = run(capsys, "game-compile", "/nonexistent/game.json")
    assert rc == 1
    assert "cannot read" in err


# ------------------------------------------------ text and JSON agreement

CHAIN_FIXTURES = [
    "eightstate.json",
    "eightstate_primes.json",
    "funnel_delayed.json",
    "funnel_instant.json",
    "twostate_half.json",
    "twostate_heavy.json",
    "twostate_swap.json",
    "twostate_unit.json",
]


def text_and_json(capsys, *argv):
    rc_text, text, _ = run(capsys, *argv)
    rc_json, out, _ = run(capsys, *argv, "--json")
    assert rc_text == rc_json == 0
    return text.splitlines(), json.loads(out)


def assert_rows(lines, labels, mat):
    """Each line is its row's label, right-aligned, then two spaces and the
    row's numbers at 12 significant digits, two spaces apart."""
    assert len(lines) == len(labels) == len(mat)
    for line, label, row in zip(lines, labels, mat):
        cells = "  ".join(f"{v:.12g}" for v in row)
        assert line.endswith("  " + cells), (line, cells)
        assert line[: -len(cells) - 2].strip() == label


@pytest.mark.parametrize("name", CHAIN_FIXTURES)
def test_text_output_shows_the_labels_and_numbers_of_the_json_output(capsys, tmp_path, name):
    path = fixture(name)
    chain = load_chain(path)
    states = list(chain.states)

    lines, doc = text_and_json(capsys, "analyze", path)
    names = [" ".join(cls) for cls in doc["classes"]]
    k = len(names)
    assert lines[:2] == ["thresholds: " + ", ".join(doc["alphas"]), f"N = {doc['N']}"]
    assert lines[2 : 2 + k] == [f"class {i}: {c}" for i, c in enumerate(names)]
    blocks = [
        ("mu (state x class):", states, doc["mu"]),
        ("A (class x class):", names, doc["A"]),
        ("M (class x state):", names, doc["M"]),
    ]
    at = 2 + k
    for title, labels, mat in blocks:
        assert lines[at] == title
        assert_rows(lines[at + 1 : at + 1 + len(labels)], labels, mat)
        at += 1 + len(labels)
    assert at == len(lines)

    lines, doc = text_and_json(capsys, "position", path, "--t", "1")
    assert doc["states"] == states
    assert_rows(lines, states, doc["position"])
    lines, doc = text_and_json(capsys, "position", path, "--fraction", "0.5", "--from", states[-1])
    assert doc["from"] == states[-1]
    assert_rows(lines, [states[-1]], [doc["position"]])

    lines, doc = text_and_json(capsys, "occupation", path, "--t", "2")
    assert lines[0] == f"occupation (t = {doc['horizon']:.12g}):"
    assert_rows(lines[1:], doc["states"], doc["occupation"])
    lines, doc = text_and_json(capsys, "occupation", path, "--total")
    assert doc["horizon"] is None
    assert lines[0] == "occupation (total):"
    assert_rows(lines[1:], doc["states"], doc["occupation"])

    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps({s: (i + 1) / (len(states) + 1) for i, s in enumerate(states)}))
    lines, doc = text_and_json(capsys, "payoff", path, "--g", str(gfile))
    assert_rows(lines, doc["states"], [[v] for v in doc["payoff"]])

    top = min(1e-2, chain.lambda_max)
    lambdas = [top, top / 10]
    lines, entries = text_and_json(capsys, "verify", path, "--t", "1", "--lambdas", f"{top!r},{top / 10!r}")
    keys = ["lambda", "position_err", "occupation_t_err", "total_err"]
    assert lines[0].split() == keys
    assert [line.split() for line in lines[1:-3]] == [[f"{e[key]:.12g}" for key in keys] for e in entries]
    diag = convergence_sweep(chain, analyze(chain), 1.0, lambdas)
    flags = [diag.position_non_increasing, diag.occupation_non_increasing, diag.total_non_increasing]
    for line, metric, flag in zip(lines[-3:], ["position", "occupation_t", "total"], flags):
        label, verdict = line.split(":")
        assert (label, verdict.strip()) == (f"{metric} error", "non-increasing" if flag else "NOT non-increasing")


# -------------------------------------------------------- the entry point


def test_an_oversized_exponent_is_an_input_error(capsys, tmp_path):
    chain = tmp_path / "big.json"
    chain.write_text(
        '{"states": ["1", "2"], "transitions": '
        '[{"from": "1", "to": "2", "coeff": 0.5, "exp": "1%s"}]}' % ("0" * 400)
    )
    rc, out, err = run(capsys, "analyze", str(chain))
    assert (rc, out) == (1, "")
    assert err == "error: transition '1' -> '2': exponent is too large for a float\n"


def test_a_row_without_a_feasible_float_lambda_fails_only_verify(capsys, tmp_path):
    # 1e300 * lam**(1/4) reaches 1 at lam = 1e-1200, below every float > 0:
    # the limit model needs no concrete lambda, the oracle does
    chain = tmp_path / "tiny_root.json"
    chain.write_text(json.dumps({"states": ["a", "b"], "transitions": [
        {"from": "a", "to": "b", "coeff": 1e300, "exp": "1/4"},
        {"from": "b", "to": "a", "coeff": 0.5, "exp": "1"}]}))
    rc, out, err = run(capsys, "analyze", str(chain))
    assert (rc, err) == (0, "") and out
    rc, out, err = run(capsys, "verify", str(chain), "--t", "1", "--lambdas", "1e-300")
    assert (rc, out) == (1, "")
    assert err == "error: row 'a': no float lambda > 0 keeps its implied diagonal nonnegative\n"


def _switch_with(mutate):
    doc = json.load(open(SWITCH))
    mutate(doc)
    return doc


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("game-compile", _switch_with(lambda d: d["actions1"].update(s=[["stay"], "move"])),
         "actions1['s'][0] must be an action name, got ['stay']"),
        ("game-compile", _switch_with(lambda d: d.update(states=[["s"], "t"])),
         "'states'[0] must be a nonempty name, got ['s']"),
        ("game-compile", _switch_with(lambda d: d["actions2"].update(t=["L", {"R": 1}])),
         "actions2['t'][1] must be an action name, got {'R': 1}"),
        ("analyze", {"states": ["1", "2"],
                     "transitions": [{"from": ["1"], "to": "2", "coeff": 1.0, "exp": "1"}]},
         "transitions[0]: 'from' must be a state name, got ['1']"),
    ],
)
def test_a_name_that_is_not_a_string_is_an_input_error(capsys, tmp_path, command, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, command, str(path))
    assert (rc, out, err) == (1, "", f"error: {message}\n")


def test_entry_point_reports_an_oversized_coefficient_as_an_input_error(tmp_path):
    chain = tmp_path / "big.json"
    chain.write_text(
        '{"states": ["1", "2"], "transitions": '
        '[{"from": "1", "to": "2", "coeff": 1%s, "exp": "1"}]}' % ("0" * 400)
    )
    src = str(Path(markovscale.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "markovscale.cli", "analyze", str(chain)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: transitions[0]: 'coeff' is too large")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
