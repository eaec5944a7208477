"""Chain loading, validation, implied diagonals, the skeleton reference, period N."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from markovscale import (
    ChainFormatError,
    Monomial,
    analyze,
    chain_from_entries,
    dump_chain,
    load_chain,
    monomial,
)
from markovscale.asymptotics import TickScale
from markovscale.chain_model import _bisection_end, _row_lambda_max
from markovscale.games import compile_game, load_game
from markovscale.oracle import instantiate

from helpers import (
    CHAIN_FIXTURES,
    COPRIME_POOL,
    EXPONENT_POOL,
    GAME_FIXTURES,
    fixture,
    is_exactly_leaving,
    random_chain,
    random_critical_chain,
    random_nested_chain,
    random_periodic_chain,
    random_trap_chain,
    sub_unit_skeleton,
    unpruned_row_lambda_max,
)


def F(p, q=1):
    return Fraction(p, q)


def two_state(doc_transitions):
    return {"states": ["1", "2"], "transitions": doc_transitions}


def arc(src, dst, coeff, exp):
    return {"from": src, "to": dst, "coeff": coeff, "exp": exp}


# ------------------------------------------------------------------ loading


def test_symmetric_unit_rate_chain_loads_with_lambda_max_one():
    chain = load_chain(two_state([arc("1", "2", 1.0, "1"), arc("2", "1", 1.0, "1")]))
    assert chain.states == ("1", "2")
    assert chain.lambda_max == 1.0
    assert chain.row("1")["2"] == monomial(1.0, F(1))


def test_eightstate_fixture_loads_and_row_five_is_exactly_leaving():
    chain = load_chain(fixture("eightstate.json"))
    assert chain.n_states == 8
    row = chain.row("5")
    assert set(row) == {"1", "6", "8"}
    assert sum(mono.coeff for mono in row.values()) == pytest.approx(1.0, abs=1e-15)
    assert all(mono.exp == 0 for mono in row.values())


def test_lambda_max_solves_the_first_vanishing_diagonal():
    # row 1 of the eight-state chain: 1 - x - x^3 = 0 with x = lambda^(1/5)
    chain = load_chain(fixture("eightstate.json"))
    x = 0.6823278038280193  # real root of x^3 + x = 1
    assert chain.lambda_max == pytest.approx(x**5, rel=1e-9)


def test_lambda_max_is_the_minimum_of_the_unpruned_row_bisections():
    chains = [load_chain(fixture("eightstate.json")), load_chain(fixture("eightstate_primes.json"))]
    rng = np.random.default_rng(2024)
    chains += [random_chain(rng, max_states=7) for _ in range(150)]
    chains += [random_chain(rng, max_states=7, pool=COPRIME_POOL) for _ in range(150)]
    chains += [random_trap_chain(rng) for _ in range(50)]
    several_bisected = 0
    for chain in chains:
        per_row = [unpruned_row_lambda_max(chain.row(s)) for s in chain.states]
        assert chain.lambda_max == min(per_row)  # bit for bit
        several_bisected += sum(v < 1.0 for v in per_row) >= 2
    # the pruning is exercised: many chains have two or more rows below 1
    assert several_bisected >= 100


def _rows_below_one(rng, count):
    """Rows that do not leave exactly, as public Monomial rows in a random
    order: exponent-0 mass up to 1 - 1e-8, one to four positive-exponent
    terms from either pool, and in a fifth of the rows coefficients of
    2**100 to 2**250, which put the root below 2**-148."""
    masses = (0.0, 0.5, 0.9, 0.999999, 1 - 1e-8)
    for i in range(count):
        pool = (EXPONENT_POOL, COPRIME_POOL)[i % 2][1:]
        mass = masses[int(rng.integers(len(masses)))] if rng.random() < 0.8 else float(rng.uniform(0, 0.99))
        w = rng.uniform(0.1, 1.0, size=int(rng.integers(1, 4)) if mass else 0)
        terms = [Monomial(float(c), F(0)) for c in w / w.sum() * mass]
        tiny = rng.random() < 0.2
        for _ in range(int(rng.integers(1, 5))):
            c = 2.0 ** rng.uniform(100, 250) if tiny else 10.0 ** rng.uniform(-3, 3)
            terms.append(Monomial(float(c), pool[int(rng.integers(len(pool)))]))
        yield {f"d{k}": terms[k] for k in rng.permutation(len(terms))}


def test_row_bounds_are_the_bisection_floats_from_a_handful_of_evaluations():
    # the search for a row's lambda bound must end on the very float that
    # the bisection of (0, 1] kept in helpers ends on, also where the
    # bisection's 200-step cap binds, with far fewer evaluations of the
    # implied diagonal: the bisection takes at least 53 halvings on every
    # row it runs on, and 200 where the root lies below 2**-148
    rng = np.random.default_rng(71)
    searched = tiny = evaluations = 0
    for row in _rows_below_one(rng, 4000):
        want = unpruned_row_lambda_max(row)
        D = math.lcm(*(m.exp.denominator for m in row.values()))
        ticks = {d: Monomial(m.coeff, m.exp.numerator * (D // m.exp.denominator))
                 for d, m in row.items()}
        assert _row_lambda_max("s", ticks, D, 1.0).hex() == want.hex()
        if want == 1.0:
            continue
        searched += 1
        tiny += want < 2.0**-148
        # a running minimum above the row's root leads to the same float
        cap = min(1.0, 2 * want) if want > 0 else 0.5
        assert _row_lambda_max("s", ticks, D, cap).hex() == want.hex()
        terms = [(m.coeff, m.exp / D) for m in ticks.values()]

        def diag(lam):
            nonlocal evaluations
            evaluations += 1
            return 1.0 - sum(c * lam**e for c, e in terms)

        assert _bisection_end(diag, terms, 1.0).hex() == want.hex()
    assert searched >= 3000 and tiny >= 500
    assert evaluations <= 16 * searched


def test_chains_built_from_one_document_are_equal():
    for name in CHAIN_FIXTURES:
        assert load_chain(fixture(f"{name}.json")) == load_chain(fixture(f"{name}.json"))
    for name in GAME_FIXTURES:
        one, two = (compile_game(*load_game(fixture(f"{name}.json")))[0] for _ in range(2))
        assert one == two
    eight = load_chain(fixture("eightstate.json"))
    assert eight == load_chain(dump_chain(eight))
    assert eight != load_chain(fixture("eightstate_primes.json"))
    # a scale is its common denominator
    assert TickScale([2, 3]) == TickScale([6]) and hash(TickScale([2, 3])) == hash(TickScale([6]))
    assert TickScale([2]) != TickScale([3])


def test_load_accepts_dict_and_round_trips_through_dump():
    chain = load_chain(fixture("eightstate.json"))
    doc = dump_chain(chain)
    again = load_chain(doc)
    assert again.states == chain.states
    assert again.entries == chain.entries
    assert again.lambda_max.hex() == chain.lambda_max.hex()


def _entry_bits(chain) -> list:
    return [(key, m.coeff.hex(), type(m.exp), m.exp) for key, m in chain.entries.items()]


def _same_build(chain, want) -> None:
    """`chain` has `want`'s entries in order, bit for bit, its `lambda_max`
    bits and its exactly-leaving states, and its `entries` view lists its
    `tick_rows` in order, each tick being its exponent."""
    assert chain.states == want.states
    assert _entry_bits(chain) == _entry_bits(want)
    assert chain.lambda_max.hex() == want.lambda_max.hex()
    assert chain.leaving == want.leaving
    assert list(chain.tick_rows) == list(chain.states)
    ticks = {(s, d): m for s, row in chain.tick_rows.items() for d, m in row.items()}
    assert list(ticks) == list(chain.entries)
    for key, m in chain.entries.items():
        assert ticks[key].coeff.hex() == m.coeff.hex()
        assert chain.scale.fraction(ticks[key].exp) == m.exp


def test_the_three_front_doors_build_the_same_chain():
    # chain_from_entries, load_chain and compile_game all go through one
    # builder; whichever of them built a chain, chain_from_entries on its
    # entries and load_chain on its document reproduce it
    chains = [load_chain(fixture(f"{name}.json")) for name in CHAIN_FIXTURES]
    chains += [compile_game(*load_game(fixture(f"{name}.json")))[0] for name in GAME_FIXTURES]
    rng = np.random.default_rng(99)
    makers = [
        random_chain,
        lambda r: random_chain(r, max_states=8, pool=COPRIME_POOL),
        random_periodic_chain,
        random_trap_chain,
        random_nested_chain,
        random_critical_chain,
    ]
    chains += [makers[i % len(makers)](rng) for i in range(1200)]
    leaving_rows = 0
    for chain in chains:
        assert chain.leaving == {s for s in chain.states if is_exactly_leaving(chain.row(s))}
        leaving_rows += len(chain.leaving)
        _same_build(chain_from_entries(chain.states, chain.entries), chain)
        # a document lists the entries in the chain's own order, so the float
        # sums behind lambda_max come back bit for bit
        doc = dump_chain(chain)
        _same_build(load_chain(doc), chain)
        _same_build(load_chain(json.loads(json.dumps(doc))), chain)
    assert len(chains) >= 1210 and leaving_rows >= 500


def test_instantiated_rows_sum_to_one_across_the_lambda_range():
    chain = load_chain(fixture("eightstate.json"))
    lam = chain.lambda_max
    while lam >= 1e-12:
        Q = instantiate(chain, lam)
        assert np.all(Q >= 0)
        assert np.max(np.abs(Q.sum(axis=1) - 1.0)) < 1e-12
        lam /= 10.0


# --------------------------------------------------------------- rejection


@pytest.mark.parametrize(
    "doc",
    [
        {"states": [], "transitions": []},
        {"states": ["1", "1"], "transitions": []},
        {"states": ["1"], "transitions": [], "comment": "nope"},
        {"states": ["1"]},
        two_state([arc("1", "3", 1.0, "1")]),
        two_state([arc("3", "1", 1.0, "1")]),
        two_state([arc("1", "1", 1.0, "1")]),
        two_state([arc("1", "2", 1.0, "1"), arc("1", "2", 0.5, "2")]),
        two_state([arc("1", "2", 0.0, "1")]),
        two_state([arc("1", "2", -0.5, "1")]),
        two_state([arc("1", "2", "x", "1")]),
        two_state([arc("1", "2", 1.0, "-1/5")]),
        two_state([arc("1", "2", 1.0, "inf")]),
        two_state([arc("1", "2", 1.0, "0.5")]),
        two_state([{"from": "1", "to": "2", "coeff": 1.0}]),
        two_state([{"from": "1", "to": "2", "coeff": 1.0, "exp": "1", "why": 1}]),
        two_state([arc("1", "2", 1.0, 1)]),
        two_state([arc("1", "2", 1.0, ["1"])]),
        two_state([arc("1", "2", 10**401, "1")]),  # too large for a float
        two_state([arc("1", "2", 0.5, "1" + "0" * 400)]),  # exponent too large for a float
        two_state([arc(["1"], "2", 1.0, "1")]),  # an unhashable state name
        two_state([arc("1", {"2": 1}, 1.0, "1")]),
    ],
)
def test_malformed_documents_are_rejected(doc):
    with pytest.raises(ChainFormatError):
        load_chain(doc)


def test_exponent_zero_row_mass_above_one_is_rejected():
    doc = {
        "states": ["1", "2", "3"],
        "transitions": [arc("1", "2", 1.0, "0"), arc("1", "3", 0.5, "0")],
    }
    with pytest.raises(ChainFormatError):
        load_chain(doc)


def test_exactly_leaving_row_with_vanishing_extra_arc_is_rejected():
    # exponent-0 mass one leaves no probability for a positive-exponent arc
    doc = {
        "states": ["1", "2", "3"],
        "transitions": [arc("1", "2", 1.0, "0"), arc("1", "3", 0.5, "1")],
    }
    with pytest.raises(ChainFormatError):
        load_chain(doc)


def test_errors_carry_the_transition_location():
    doc = two_state([arc("1", "2", 1.0, "5/3/2")])
    with pytest.raises(ChainFormatError, match=r"transitions\[0\]"):
        load_chain(doc)


def test_missing_and_unparsable_files_are_reported():
    with pytest.raises(ChainFormatError, match="cannot read"):
        load_chain(fixture("no_such_chain.json"))
    bad = fixture("..") + "/helpers.py"
    with pytest.raises(ChainFormatError, match="not valid JSON"):
        load_chain(bad)


# ---------------------------------------------------------------- skeleton


def test_skeleton_of_the_swap_chain_has_cross_arcs_and_no_self_loops():
    chain = load_chain(fixture("twostate_swap.json"))
    g = sub_unit_skeleton(chain)
    assert g == {"1": {"2"}, "2": {"1"}}


def test_skeleton_drops_arcs_at_exponent_one_or_above():
    heavy = load_chain(fixture("twostate_heavy.json"))
    assert sub_unit_skeleton(heavy) == {"1": {"1"}, "2": {"2"}}
    unit = load_chain(fixture("twostate_unit.json"))
    assert sub_unit_skeleton(unit) == {"1": {"1"}, "2": {"2"}}


def test_skeleton_keeps_sub_unit_arcs_alongside_surviving_diagonals():
    half = load_chain(fixture("twostate_half.json"))
    assert sub_unit_skeleton(half) == {"1": {"1", "2"}, "2": {"1", "2"}}


# ---------------------------------------------------------------- period N


def test_averaging_period_of_the_eightstate_chain_is_two():
    assert analyze(load_chain(fixture("eightstate.json"))).N == 2


def test_averaging_period_of_the_swap_chain_is_two():
    assert analyze(load_chain(fixture("twostate_swap.json"))).N == 2


def test_averaging_period_is_one_for_aperiodic_and_frozen_chains():
    assert analyze(load_chain(fixture("twostate_unit.json"))).N == 1
    assert analyze(load_chain(fixture("twostate_half.json"))).N == 1
    frozen = chain_from_entries(["a", "b"], {})
    assert analyze(frozen).N == 1


def test_averaging_period_ignores_transient_skeleton_states():
    # state 2 leaves instantly, so only the frozen state 3 forms a class
    chain = load_chain(fixture("funnel_instant.json"))
    assert analyze(chain).N == 1


def test_averaging_period_is_invariant_under_relabeling():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        chain = random_chain(rng)
        n = analyze(chain).N
        perm = list(rng.permutation(list(chain.states)))
        rename = dict(zip(chain.states, perm))
        entries = {
            (rename[a], rename[b]): mono for (a, b), mono in chain.entries.items()
        }
        shuffled = chain_from_entries(perm, entries)
        assert analyze(shuffled).N == n


def test_builder_rejects_exactly_leaving_rows_with_vanishing_arcs():
    with pytest.raises(ChainFormatError):
        chain_from_entries(
            ["a", "b", "c"],
            {("a", "b"): monomial(1.0, F(0)), ("a", "c"): monomial(0.5, F(1))},
        )


@pytest.mark.parametrize("exp", [0.5, math.inf, F(-1, 3)])
def test_builder_rejects_exponents_that_are_not_nonnegative_rationals(exp):
    # the ladder scales exponents by their common denominator
    with pytest.raises(ChainFormatError, match="finite rational >= 0"):
        chain_from_entries(["a", "b"], {("a", "b"): Monomial(0.5, exp)})


@pytest.mark.parametrize("coeff", [math.nan, math.inf, -0.5])
def test_builder_rejects_coefficients_that_are_not_finite_and_positive(coeff):
    with pytest.raises(ChainFormatError, match="coefficient must be finite and > 0"):
        chain_from_entries(["a", "b"], {("a", "b"): Monomial(coeff, F(1))})


def test_dump_chain_is_deterministic_json():
    chain = load_chain(fixture("eightstate.json"))
    one = json.dumps(dump_chain(chain), sort_keys=True)
    two = json.dumps(dump_chain(chain), sort_keys=True)
    assert one == two
