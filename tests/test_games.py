"""Compiling two-player discounted games under fixed strategy families."""

import copy
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from markovscale import ChainFormatError, Monomial, analyze, limit_payoff, monomial
from markovscale.games import compile_game, limit_game_payoff, load_game

from helpers import (GAME_FIXTURES, _frozen_load_game, assert_same_loaded_game, bench_jobs, fixture,
                     frozen_compile_game, random_game_doc)


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


# malformed documents, each with a pattern of its message
MALFORMED = [
    (lambda d: d.update(extra=1), "unknown game keys"),
    (lambda d: d.pop("payoff"), "missing keys"),
    (lambda d: d.update(states=[]), "'states'"),
    (lambda d: d.update(states=["s", "s"]), "'states'"),
    (lambda d: d["actions1"].pop("t"), "every state"),
    (lambda d: d["actions1"].update(s=[]), "nonempty"),
    (lambda d: d["actions1"].update(s=["stay", "stay"]), "duplicate"),
    (lambda d: d["payoff"].pop("s"), "payoff is missing"),
    (lambda d: d["payoff"].update(zz=[[0.5]]), "payoff names unknown state 'zz'"),
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
    (
        lambda d: d["transition"]["s"]["move"]["L"].update(t=math.nan),
        r"transition\['s'\]\['move'\]\['L'\]\['t'\] must be a probability",
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
        lambda d: d["payoff"]["t"][1].__setitem__(0, math.nan),
        r"payoff\['t'\] values must lie in \[0, 1\]",
    ),
    (
        lambda d: d["payoff"]["s"][0].__setitem__(1, -0.1),
        r"payoff\['s'\] values must lie in \[0, 1\]",
    ),
    (
        lambda d: d["payoff"].update(s=[[0.2], [0.6, 0.8]]),
        r"payoff\['s'\] must be a list of 2 rows of 2 numbers",
    ),
    (
        lambda d: d["actions1"].update(s=[["stay"], "move"]),
        r"actions1\['s'\]\[0\] must be an action name, got \['stay'\]",
    ),
    (
        lambda d: d.update(states=[["s"], "t"]),
        r"'states'\[0\] must be a nonempty name, got \['s'\]",
    ),
    (
        lambda d: d["actions2"].update(t=["L", {"R": 1}]),
        r"actions2\['t'\]\[1\] must be an action name, got \{'R': 1\}",
    ),
]


@pytest.mark.parametrize("mutate, message", MALFORMED)
def test_load_game_rejects_malformed_documents(mutate, message):
    with pytest.raises(ChainFormatError, match=message):
        load_game(broken(mutate))


# the rules of a strategy family, each with its full message
STRATEGY_RULES = [
    (
        lambda d: d["strategy1"]["s"].update(jump={"coeff": 1.0, "exp": "0"}),
        "strategy1['s'] uses unknown action 'jump'",
    ),
    (
        lambda d: d["strategy1"]["s"]["move"].update(coeff=0.0),
        "strategy1['s']['move'] must have positive weight and exponent >= 0",
    ),
    (
        lambda d: d["strategy2"]["t"]["R"].update(exp="-1/2"),
        "strategy2['t']['R'] must have positive weight and exponent >= 0",
    ),
    (
        lambda d: d["strategy1"]["t"]["move"].update(coeff=0.9),
        "strategy1['t']: exponent-0 weights sum to 0.9, not 1",
    ),
    (
        lambda d: d["strategy2"]["s"]["R"].update(coeff=0.6),
        "strategy2['s']: exponent-0 weights sum to 1.1, not 1",
    ),
    (
        lambda d: d["strategy1"]["s"]["move"].update(coeff=math.inf),
        "strategy1['s']['move'] must have a finite weight, got inf",
    ),
]


@pytest.mark.parametrize("mutate, message", STRATEGY_RULES)
def test_load_game_applies_the_strategy_rules(mutate, message):
    with pytest.raises(ChainFormatError) as info:
        load_game(broken(mutate))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "player, state, action, weight, message",
    [
        (1, "s", "jump", monomial(1.0, 0), "strategy1['s'] uses unknown action 'jump'"),
        (1, "s", "move", Monomial(0.0, Fraction(1, 2)),
         "strategy1['s']['move'] must have positive weight and exponent >= 0"),
        (1, "s", "move", Monomial(-1.0, Fraction(1, 2)),
         "strategy1['s']['move'] must have positive weight and exponent >= 0"),
        (2, "t", "R", Monomial(1.0, Fraction(-1, 2)),
         "strategy2['t']['R'] must have positive weight and exponent >= 0"),
        (1, "t", "move", monomial(0.9, 0), "strategy1['t']: exponent-0 weights sum to 0.9, not 1"),
        (2, "t", "L", monomial(1.1, 0), "strategy2['t']: exponent-0 weights sum to 1.1, not 1"),
        (1, "s", "move", Monomial(1.0, math.inf),
         "strategy1['s']['move'] must have a finite rational exponent, got inf"),
        (1, "s", "move", Monomial(0.5, 0.5),
         "strategy1['s']['move'] must have a finite rational exponent, got 0.5"),
        (1, "s", "move", Monomial(math.inf, Fraction(1, 2)),
         "strategy1['s']['move'] must have a finite weight, got inf"),
        (2, "s", "R", Monomial(math.nan, Fraction(1, 2)),
         "strategy2['s']['R'] must have positive weight and exponent >= 0"),
    ],
)
def test_compile_game_applies_the_strategy_rules_to_built_strategies(
    switch, player, state, action, weight, message
):
    game, x, y = switch
    (x if player == 1 else y)[state][action] = weight
    with pytest.raises(ChainFormatError) as info:
        compile_game(game, x, y)
    assert str(info.value) == message


def test_compile_game_needs_a_strategy_for_every_state(switch):
    game, x, y = switch
    del y["t"]
    with pytest.raises(ChainFormatError, match="strategy2 must map every state"):
        compile_game(game, x, y)


def test_load_game_file_errors():
    with pytest.raises(ChainFormatError, match="cannot read"):
        load_game("/nonexistent/game.json")
    with pytest.raises(ChainFormatError, match="not valid JSON"):
        load_game(fixture("../helpers.py"))


def _loader_docs() -> list:
    """The game fixtures, 420 `random_game_doc` games and the first 8
    `game_verify` jobs at seeds 11 and 2027."""
    docs = [json.load(open(fixture(f"{name}.json"))) for name in GAME_FIXTURES]
    rng = np.random.default_rng(20)
    docs += [random_game_doc(rng) for _ in range(420)]
    docs += [json.loads(job.text) for seed in (11, 2027) for job in bench_jobs("game_verify", seed)[:8]]
    return docs


def _overwrite_numbers(value) -> None:
    """Set every number in a document to -1.0, in place."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in list(items):
        if isinstance(child, (dict, list)):
            _overwrite_numbers(child)
        elif type(child) is float:
            value[key] = -1.0


def test_load_game_matches_the_frozen_loader():
    docs = _loader_docs()
    assert len(docs) == 438
    for doc in docs:
        before = copy.deepcopy(doc)
        got, want = load_game(doc), _frozen_load_game(doc)
        assert_same_loaded_game(got, want)
        assert doc == before  # the document is read, not changed
        _overwrite_numbers(doc)  # and the game holds copies of its numbers
        assert_same_loaded_game(got, want)


def _outcome(load, doc):
    try:
        return "ok", load(doc)
    except Exception as exc:  # the type and the message must match
        return "error", (type(exc), str(exc))


#: what a number of a game document is replaced by (a function of it)
NUMBER_CORRUPTIONS = {
    "string": lambda v: "0.5",
    "bool": lambda v: bool(v),
    "none": lambda v: None,
    "nan": lambda v: math.nan,
    "inf": lambda v: math.inf,
    "huge int": lambda v: 10**400,
    "integral int": lambda v: round(v),
    "negated": lambda v: -v if v else -0.5,
}
SECTIONS = ("payoff", "transition", "strategy")


def _paths(value, path=()):
    """(path, value) of every container and every number below `value`."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        if isinstance(child, (dict, list)) or type(child) is float:
            yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _corrupt(doc: dict, section: str, kind: str, rng) -> dict:
    """A copy of `doc` with one corruption of `kind` in `section`: a number
    replaced (`NUMBER_CORRUPTIONS`), or, in a map or list, an entry dropped,
    added (a copy of a sibling), renamed (in a map) or replaced by a value
    of another type, or every entry dropped."""
    doc = copy.deepcopy(doc)
    root = ("strategy1", "strategy2")[int(rng.integers(2))] if section == "strategy" else section
    found = list(_paths(doc[root], (root,)))
    if kind in NUMBER_CORRUPTIONS:
        numbers = [path for path, v in found if type(v) is float]
        path = numbers[int(rng.integers(len(numbers)))]
        parent = _at(doc, path[:-1])
        parent[path[-1]] = NUMBER_CORRUPTIONS[kind](parent[path[-1]])
        return doc
    shape = dict if kind == "key renamed" else (dict, list)
    containers = [path for path, v in found if isinstance(v, shape) and v]
    target = _at(doc, containers[int(rng.integers(len(containers)))])
    keys = list(target) if isinstance(target, dict) else list(range(len(target)))
    key = keys[int(rng.integers(len(keys)))]
    # a new name, a state, or a key of the monomial objects
    name = ["zz", *doc["states"], "coeff", "exp"][int(rng.integers(len(doc["states"]) + 3))]
    if kind == "emptied":
        target.clear()
    elif kind == "key dropped":
        del target[key]
    elif kind == "key renamed":
        target[name] = target.pop(key)
    elif kind == "retyped":  # the entry becomes a value of another type
        child = target[key]
        swap = [list(child.values()) if isinstance(child, dict) else {"0": child} if isinstance(child, list)
                else [child], None, "x", 0.5]
        target[key] = swap[int(rng.integers(len(swap)))]
    elif isinstance(target, list):  # "key added": a copy of an element
        target.append(copy.deepcopy(target[key]))
    else:  # "key added", holding a copy of a sibling's value
        target[name] = copy.deepcopy(target[key])
    return doc


def test_load_game_keeps_the_frozen_errors_under_corruption():
    rng = np.random.default_rng(21)
    bases = [json.load(open(fixture(f"{name}.json"))) for name in GAME_FIXTURES]
    bases += [random_game_doc(rng) for _ in range(100)]
    kinds = [*NUMBER_CORRUPTIONS, "key dropped", "key added", "key renamed", "emptied", "retyped"]
    docs = [(section, kind, _corrupt(base, section, kind, rng))
            for base in bases for section in SECTIONS for kind in kinds]
    docs += [("listed", "listed", broken(mutate)) for mutate, _ in MALFORMED + STRATEGY_RULES]
    assert len(docs) >= 2000
    counts = Counter()
    for section, kind, doc in docs:
        want = _outcome(_frozen_load_game, doc)
        got = _outcome(load_game, doc)
        assert got[0] == want[0], (section, kind, got, want)
        if want[0] == "error":
            assert got[1] == want[1], (section, kind)
        else:
            assert_same_loaded_game(got[1], want[1])
        counts[(section, kind, want[0])] += 1
    # every kind reaches every section, and every section's corruptions
    # are refused as well as, for some kinds, accepted
    for section in SECTIONS:
        for kind in kinds:
            assert counts[(section, kind, "error")] + counts[(section, kind, "ok")] == len(bases)
        assert sum(counts[(section, kind, "error")] for kind in kinds) >= len(bases) * 6
        assert sum(counts[(section, kind, "ok")] for kind in kinds) >= 10
    assert counts[("listed", "listed", "error")] == len(MALFORMED) + len(STRATEGY_RULES)


def _integral_as_int(value, count: Counter):
    """`value` with every integral float written as an int, counted in
    `count`."""
    if isinstance(value, dict):
        return {k: _integral_as_int(v, count) for k, v in value.items()}
    if isinstance(value, list):
        return [_integral_as_int(v, count) for v in value]
    if type(value) is float and value.is_integer():
        count[int(value)] += 1
        return int(value)
    return value


def test_json_integers_load_as_floats():
    docs = [json.load(open(fixture(f"{name}.json"))) for name in GAME_FIXTURES]
    docs += [json.loads(job.text) for job in bench_jobs("game_verify", 11, tiny=True)]
    rng = np.random.default_rng(22)
    docs += [random_game_doc(rng) for _ in range(40)]
    ints, compiled = Counter(), 0
    for doc in docs:
        twin = load_game(json.loads(json.dumps(_integral_as_int(doc, ints))))
        want = load_game(doc)
        assert_same_loaded_game(twin, want)
        got = _outcome(lambda game: compile_game(*game), twin)
        if got[0] == "error":  # an exactly leaving row with slower entries
            assert got == _outcome(lambda game: compile_game(*game), want)
            continue
        (chain, g), (want_chain, want_g) = got[1], compile_game(*want)
        assert list(chain.entries) == list(want_chain.entries)
        for key, m in chain.entries.items():
            w = want_chain.entries[key]
            assert type(m.coeff) is float and m.coeff.hex() == w.coeff.hex() and m.exp == w.exp
        assert g.dtype == np.float64 and g.tobytes() == want_g.tobytes()
        assert chain.lambda_max.hex() == want_chain.lambda_max.hex()
        compiled += 1
    assert compiled >= 30 and ints[0] >= 100 and ints[1] >= 100


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


def _ties(doc: dict) -> int:
    """Count the (state, destination, product exponent) groups that sum three
    or more moves of distinct action pairs in the compiled chain."""
    groups = Counter()
    for s in doc["states"]:
        for a1, xm in doc["strategy1"][s].items():
            for a2, ym in doc["strategy2"][s].items():
                e = Fraction(xm["exp"]) + Fraction(ym["exp"])
                for dest, p in doc["transition"][s][a1][a2].items():
                    if dest != s and p != 0.0:
                        groups[(s, dest, e)] += 1
    return sum(k >= 3 for k in groups.values())


def test_compile_game_matches_the_frozen_fraction_front_end():
    docs = [switch_doc(), json.load(open(fixture("game_pure.json")))]
    rng = np.random.default_rng(8)
    docs += [random_game_doc(rng) for _ in range(420)]
    docs += [json.loads(job.text) for seed in (7, 11) for job in bench_jobs("game_verify", seed, tiny=True)]
    compiled = mixed = ties = 0
    for doc in docs:
        try:
            want = frozen_compile_game(doc)
        except ChainFormatError as exc:  # an exactly leaving row with slower entries
            with pytest.raises(ChainFormatError) as info:
                compile_game(*load_game(doc))
            assert str(info.value) == str(exc)
            continue
        chain, g = compile_game(*load_game(doc))
        assert list(chain.entries) == list(want[0].entries)
        for key, m in chain.entries.items():
            w = want[0].entries[key]
            assert type(m.exp) is Fraction and m.exp == w.exp
            assert m.coeff == w.coeff
        assert chain.lambda_max == want[0].lambda_max
        assert np.array_equal(g, want[1])
        compiled += 1
        dens = {Fraction(m["exp"]).denominator
                for key in ("strategy1", "strategy2") for row in doc[key].values()
                for m in row.values()}
        mixed += math.lcm(*dens) > max(dens)
        ties += _ties(doc)
    assert compiled >= 300
    # the inputs reach what the int compiler must get right: a common
    # denominator that no single exponent has, and sums of three or more ties
    assert mixed >= 150 and ties >= 100


def _rebuilt(strategy, count: Counter):
    """`strategy` rebuilt in Python: an integral exponent as a plain int and
    every other one as a new Fraction per weight, so that no two weights
    share an exponent object; the forms are counted in `count`."""
    out = {}
    for s, row in strategy.items():
        out[s] = {}
        for a, (c, e) in row.items():
            if e.denominator == 1:
                out[s][a] = Monomial(c, int(e))
                count["int"] += 1
            else:
                out[s][a] = Monomial(c, Fraction(e.numerator, e.denominator))
                count["fraction"] += 1
    return out


def test_compile_game_reads_int_and_unshared_fraction_exponents():
    docs = [json.load(open(fixture(f"{name}.json"))) for name in GAME_FIXTURES]
    docs += [json.loads(job.text) for job in bench_jobs("game_verify", 11, tiny=True)]
    rng = np.random.default_rng(22)
    docs += [random_game_doc(rng) for _ in range(60)]
    count, compiled = Counter(), 0
    for doc in docs:
        game, x, y = load_game(doc)
        loaded = [m.exp for w in (x, y) for row in w.values() for m in row.values()]
        # the loader shares one exponent object among the weights of a text
        assert len({id(e) for e in loaded}) < len(loaded)
        rx, ry = _rebuilt(x, count), _rebuilt(y, count)
        fractions = [m.exp for w in (rx, ry) for row in w.values() for m in row.values()
                     if type(m.exp) is Fraction]
        assert len({id(e) for e in fractions}) == len(fractions)
        got = _outcome(lambda args: compile_game(*args), (game, rx, ry))
        want = _outcome(lambda args: compile_game(*args), (game, x, y))
        if want[0] == "error":  # an exactly leaving row with slower entries
            assert got == want
            continue
        (chain, g), (want_chain, want_g) = got[1], want[1]
        assert list(chain.entries) == list(want_chain.entries)
        for key, m in chain.entries.items():
            w = want_chain.entries[key]
            assert type(m.exp) is Fraction and m.exp == w.exp
            assert m.coeff.hex() == w.coeff.hex()
        assert g.tobytes() == want_g.tobytes()
        assert chain.lambda_max.hex() == want_chain.lambda_max.hex()
        compiled += 1
    assert compiled >= 50 and count["int"] >= 500 and count["fraction"] >= 500


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
