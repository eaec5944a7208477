"""Compiling two-player discounted games under fixed strategy families."""

import copy
import json

import numpy as np
import pytest

from fractions import Fraction

from markovscale import ChainFormatError, analyze, limit_payoff, monomial
from markovscale.games import compile_game, limit_game_payoff, load_game

from helpers import fixture


def switch_doc():
    return json.load(open(fixture("game_switch.json")))


@pytest.fixture
def switch():
    return load_game(fixture("game_switch.json"))


@pytest.fixture
def pure():
    return load_game(fixture("game_pure.json"))


# --------------------------------------------------------------- loading


def test_load_game_reads_the_fixture(switch):
    game, x, y = switch
    assert game.states == ("s", "t")
    assert game.actions1["s"] == ("stay", "move")
    assert game.payoff["t"][0][0] == 1.0
    assert x["s"]["move"] == monomial(1.0, Fraction(1, 2))
    assert y["t"]["R"] == monomial(1.0, 1)


def test_load_game_accepts_a_parsed_document():
    game, x, y = load_game(switch_doc())
    assert game.states == ("s", "t")


def broken(mutate):
    doc = switch_doc()
    mutate(doc)
    return doc


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(extra=1), "unknown game keys"),
        (lambda d: d.pop("payoff"), "missing keys"),
        (lambda d: d.update(states=[]), "'states'"),
        (lambda d: d.update(states=["s", "s"]), "'states'"),
        (lambda d: d["actions1"].pop("t"), "every state"),
        (lambda d: d["actions1"].update(s=[]), "nonempty"),
        (lambda d: d["actions1"].update(s=["stay", "stay"]), "duplicate"),
        (lambda d: d["payoff"].pop("s"), "payoff is missing"),
        (lambda d: d["payoff"].update(s=[[0.2, 0.4]]), "payoff"),
        (lambda d: d["payoff"]["s"][0].__setitem__(0, 1.5), "lie in"),
        (lambda d: d["payoff"]["s"][0].__setitem__(0, -0.1), "lie in"),
        (lambda d: d["transition"]["s"].pop("move"), "every action"),
        (lambda d: d["transition"]["s"]["move"].pop("L"), "player 2"),
        (
            lambda d: d["transition"]["s"]["move"]["L"].update(t=0.7),
            "sums to",
        ),
        (
            lambda d: d["transition"]["s"]["move"]["L"].update(zz=0.0),
            "unknown state",
        ),
        (
            lambda d: d["transition"]["s"]["move"]["L"].update(t=-1.0),
            "probability",
        ),
        (lambda d: d["strategy1"].pop("s"), "every state"),
        (lambda d: d["strategy1"].update(s={}), "nonempty"),
        (
            lambda d: d["strategy1"]["s"].update(jump={"coeff": 1.0, "exp": "0"}),
            "unknown action",
        ),
        (
            lambda d: d["strategy1"]["s"]["stay"].update(coeff=0.4),
            "exponent-0 weights",
        ),
        (
            lambda d: d["strategy1"]["s"]["move"].update(exp="-1/2"),
            "exponent",
        ),
        (
            lambda d: d["strategy2"]["s"]["L"].update(coeff=-0.5),
            "strategy2",
        ),
        (
            lambda d: d["strategy2"]["s"]["L"].update(coeff="0.5"),
            "'coeff' must be a number",
        ),
        (
            lambda d: d["strategy1"]["s"]["stay"].update(coeff=True),
            "'coeff' must be a number",
        ),
        (
            lambda d: d["strategy2"]["s"]["L"].update(coeff=10**401),
            r"strategy2\['s'\]\['L'\]: 'coeff' is too large",
        ),
        (
            lambda d: d["transition"]["s"]["move"]["L"].update(t=10**401),
            r"transition\['s'\]\['move'\]\['L'\]\['t'\] is too large",
        ),
        (
            lambda d: d["payoff"]["s"][0].__setitem__(0, 10**401),
            r"payoff\['s'\]\[0\]\[0\] is too large",
        ),
        (
            lambda d: d["payoff"]["s"][1].__setitem__(0, "0.5"),
            r"payoff\['s'\]\[1\]\[0\] must be a number",
        ),
        (
            lambda d: d["payoff"]["t"][0].__setitem__(1, True),
            r"payoff\['t'\]\[0\]\[1\] must be a number",
        ),
        (
            lambda d: d["payoff"].update(s=[[0.2], [0.6, 0.8]]),
            r"payoff\['s'\] must be a list of 2 rows of 2 numbers",
        ),
    ],
)
def test_load_game_rejects_malformed_documents(mutate, message):
    with pytest.raises(ChainFormatError, match=message):
        load_game(broken(mutate))


def test_load_game_file_errors():
    with pytest.raises(ChainFormatError, match="cannot read"):
        load_game("/nonexistent/game.json")
    with pytest.raises(ChainFormatError, match="not valid JSON"):
        load_game(fixture("../helpers.py"))


# ------------------------------------------------------------- compiling


def test_compile_keeps_leading_orders_and_drops_self_moves(switch):
    chain, g = compile_game(*switch)
    assert set(chain.entries) == {("s", "t"), ("t", "s")}
    assert chain.entries[("s", "t")] == monomial(0.75, Fraction(1, 2))
    assert chain.entries[("t", "s")] == monomial(1.0, 0)
    np.testing.assert_allclose(g, [0.3, 0.3], atol=1e-15)


def test_compiled_chain_passes_chain_validation(switch):
    chain, _ = compile_game(*switch)
    assert chain.states == ("s", "t")
    assert 0 < chain.lambda_max <= 1


def test_pure_strategies_compile_to_the_underlying_kernel(pure):
    chain, g = compile_game(*pure)
    assert chain.entries[("s", "t")] == monomial(1.0, 0)
    assert chain.entries[("t", "s")] == monomial(1.0, 0)
    np.testing.assert_allclose(g, [0.6, 0.3], atol=0)


# --------------------------------------------------------------- payoffs


def test_switch_game_payoff(switch):
    np.testing.assert_allclose(limit_game_payoff(*switch), [0.3, 0.3], atol=1e-12)


def test_pure_game_payoff_averages_over_the_swap_cycle(pure):
    np.testing.assert_allclose(limit_game_payoff(*pure), [0.45, 0.45], atol=1e-12)


def test_game_payoff_is_the_compiled_chain_payoff(switch):
    game, x, y = switch
    chain, g = compile_game(game, x, y)
    via_chain = limit_payoff(analyze(chain), g)
    np.testing.assert_allclose(limit_game_payoff(game, x, y), via_chain, atol=0)


def test_constant_payoff_game_is_flat():
    doc = switch_doc()
    doc["payoff"] = {s: [[0.37, 0.37], [0.37, 0.37]] for s in doc["states"]}
    np.testing.assert_allclose(limit_game_payoff(*load_game(doc)), [0.37, 0.37], atol=1e-12)


def test_payoffs_respect_the_unit_interval(pure, switch):
    for triple in (pure, switch):
        v = limit_game_payoff(*triple)
        assert np.all(v >= -1e-12) and np.all(v <= 1 + 1e-12)
