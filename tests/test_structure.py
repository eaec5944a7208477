"""Recurrence classes, invariant measures, entrance laws."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovscale import InternalError, load_chain, monomial
from markovscale.asymptotics import mono_eval
from markovscale.oracle import instantiate
from markovscale.structure import ClassDecomposition, _sccs, classify, entrance_law, invariant_measure

from helpers import (
    EXPONENT_POOL,
    absorption_probabilities,
    arborescence_measure,
    fixture,
    mono_close,
    stationary_vector,
    support_graph,
)


def F(p, q=1):
    return Fraction(p, q)


def M(c, p, q=1):
    return monomial(c, F(p, q))


# ---------------------------------------------------------------- classify


def test_fast_support_of_the_eightstate_chain_classifies_as_expected():
    # exponent-0 arcs plus surviving self-loops: 5 -> {1,6,8}, 7 <-> 8,
    # everything else frozen in place
    support = {
        "1": {"1"},
        "2": {"2"},
        "3": {"3"},
        "4": {"4"},
        "5": {"1", "6", "8"},
        "6": {"6"},
        "7": {"8"},
        "8": {"7"},
    }
    dec = classify(support)
    assert dec.recurrent == [("1",), ("2",), ("3",), ("4",), ("6",), ("7", "8")]
    assert dec.transient == ["5"]
    assert dec.period[("7", "8")] == 2
    assert all(dec.period[c] == 1 for c in dec.recurrent[:-1])


def test_complete_graph_without_self_loops_is_aperiodic():
    support = {"a": {"b", "c"}, "b": {"a", "c"}, "c": {"a", "b"}}
    dec = classify(support)
    assert dec.recurrent == [("a", "b", "c")]
    assert dec.period[("a", "b", "c")] == 1  # gcd of the 2- and 3-cycles


def test_singleton_with_self_loop_is_recurrent_aperiodic():
    # a closed singleton is aperiodic with or without its self-loop
    for support in ({"x": {"x"}}, {"x": set()}):
        dec = classify(support)
        assert dec.recurrent == [("x",)] and dec.transient == []
        assert dec.period[("x",)] == 1


def test_pure_cycle_has_its_length_as_period():
    support = {"a": {"b"}, "b": {"c"}, "c": {"a"}}
    dec = classify(support)
    assert dec.period[("a", "b", "c")] == 3


def test_open_components_are_transient():
    dec = classify({"a": {"a", "b"}, "b": {"b"}})
    assert dec.recurrent == [("b",)]
    assert dec.transient == ["a"]


def test_classify_is_idempotent_and_permutation_equivariant():
    rng = np.random.default_rng(5)
    names = [f"n{i}" for i in range(6)]
    support = {
        u: {v for v in names if rng.random() < 0.3} for u in names
    }
    dec1 = classify(support)
    dec2 = classify(support)
    assert dec1.recurrent == dec2.recurrent and dec1.transient == dec2.transient
    order = list(rng.permutation(names))
    shuffled = {u: support[u] for u in order}
    dec3 = classify(shuffled)
    assert {frozenset(c) for c in dec1.recurrent} == {frozenset(c) for c in dec3.recurrent}
    assert set(dec1.transient) == set(dec3.transient)


def test_classify_matches_a_reachability_reference():
    # closed classes by mutual reachability, periods as the gcd of the
    # lengths of closed walks of at most |class| steps; the components come
    # out of the Tarjan walk in reverse topological order
    rng = np.random.default_rng(18)
    for _ in range(400):
        n = int(rng.integers(1, 10))
        names = [f"n{i}" for i in rng.permutation(n)]
        support = {u: {v for v in names if rng.random() < 0.25} for u in names}
        adj = np.array([[v in support[u] for v in names] for u in names], dtype=int)
        reach = np.eye(n, dtype=int) | adj
        for _ in range(n):
            reach = ((reach @ reach) > 0).astype(int)
        comps = []
        for i in range(n):
            comp = tuple(names[j] for j in range(n) if reach[i, j] and reach[j, i])
            if comp not in comps:
                comps.append(comp)
        pos = {u: i for i, u in enumerate(names)}
        closed = [c for c in comps if all(v in c for u in c for v in support[u])]
        dec = classify(support)
        assert dec.recurrent == sorted(closed, key=lambda c: pos[c[0]])
        assert dec.transient == [u for u in names if not any(u in c for c in closed)]
        for cls in closed:
            idx = [pos[u] for u in cls]
            sub, walk, g = adj[np.ix_(idx, idx)], np.eye(len(cls), dtype=int), 0
            for length in range(1, len(cls) + 1):
                walk = ((walk @ sub) > 0).astype(int)
                if walk.trace():
                    g = np.gcd(g, length)
            assert dec.period[cls] == (g or 1)
        order = {u: k for k, comp in enumerate(_sccs(names, support)) for u in comp}
        assert all(order[v] <= order[u] for u in names for v in support[u])


# -------------------------------------------------------- invariant measure


def test_three_cycle_with_distinct_rates_concentrates_on_the_slowest_exit():
    mat = {"1": {"2": M(2, 1, 5)}, "2": {"3": M(3, 2, 5)}, "3": {"1": M(5, 3, 5)}}
    pi = invariant_measure(mat, ("1", "2", "3"))
    assert pi["1"].exp == F(2, 5) and pi["1"].coeff == pytest.approx(2.5, rel=1e-12)
    assert pi["2"].exp == F(1, 5) and pi["2"].coeff == pytest.approx(5 / 3, rel=1e-12)
    assert pi["3"].exp == F(0) and pi["3"].coeff == pytest.approx(1.0, rel=1e-12)


def test_symmetric_two_state_class_splits_evenly_at_any_exponent():
    for p, q in ((0, 1), (1, 5), (2, 1)):
        mat = {"a": {"b": M(1, p, q)}, "b": {"a": M(1, p, q)}}
        pi = invariant_measure(mat, ("a", "b"))
        assert pi["a"] == monomial(0.5, F(0))
        assert pi["b"] == monomial(0.5, F(0))


def test_complete_three_state_class_is_uniform():
    mat = {
        "a": {"b": M(1, 0), "c": M(1, 0)},
        "b": {"a": M(1, 0), "c": M(1, 0)},
        "c": {"a": M(1, 0), "b": M(1, 0)},
    }
    pi = invariant_measure(mat, ("a", "b", "c"))
    for s in "abc":
        assert pi[s].exp == F(0)
        assert pi[s].coeff == pytest.approx(1 / 3, rel=1e-12)
    # numeric stationary solve of the instantiated matrix agrees
    Q = np.full((3, 3), 1 / 3)
    np.testing.assert_allclose(stationary_vector(Q), np.full(3, 1 / 3), atol=1e-14)


def test_invariant_measure_matches_the_spanning_tree_reference():
    mat = {"1": {"2": M(2, 1, 5)}, "2": {"3": M(3, 2, 5)}, "3": {"1": M(5, 3, 5)}}
    a = invariant_measure(mat, ("1", "2", "3"))
    b = arborescence_measure(mat, ("1", "2", "3"))
    for s in "123":
        assert mono_close(a[s], b[s])


@st.composite
def strongly_connected_classes(draw):
    """A 2-7 state ring plus random chords, pool exponents, members in random order."""
    n = draw(st.integers(2, 7))
    names = [f"m{i}" for i in range(n)]
    coeff = st.floats(0.1, 1.0)
    exp = st.sampled_from(EXPONENT_POOL)
    mat = {u: {names[(i + 1) % n]: monomial(draw(coeff), draw(exp))} for i, u in enumerate(names)}
    chords = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), coeff, exp)
    for i, j, c, e in draw(st.lists(chords, max_size=2 * n)):
        if i != j:
            mat[names[i]][names[j]] = monomial(c, e)
    return mat, tuple(draw(st.permutations(names)))


@settings(max_examples=150, deadline=None)
@given(strongly_connected_classes())
def test_invariant_measure_agrees_with_spanning_tree_enumeration(case):
    mat, cls = case
    got = invariant_measure(mat, cls)
    want = arborescence_measure(mat, cls)
    for u in cls:
        assert got[u].exp == want[u].exp
        assert mono_close(got[u], want[u], rtol=1e-9)


def test_invariant_measure_tracks_the_numeric_stationary_vector():
    chain = load_chain(
        {
            "states": ["1", "2", "3"],
            "transitions": [
                {"from": "1", "to": "2", "coeff": 2.0, "exp": "1/5"},
                {"from": "2", "to": "3", "coeff": 3.0, "exp": "2/5"},
                {"from": "3", "to": "1", "coeff": 5.0, "exp": "3/5"},
            ],
        }
    )
    mat = {s: chain.row(s) for s in chain.states}
    pi = invariant_measure(mat, tuple(chain.states))
    gap = 1 / 5  # smallest positive exponent spread in the class
    for lam in (1e-4, 1e-6, 1e-8):
        Q = instantiate(chain, lam)
        exact = stationary_vector(Q)
        approx = np.array([mono_eval(pi[s], lam) for s in chain.states])
        approx /= approx.sum()
        ratio = approx / exact
        band = 10.0 * lam**gap
        assert np.all(ratio >= 1 - band) and np.all(ratio <= 1 + band)


def test_exponent_zero_rings_of_any_size_are_uniform():
    for n in (13, 50, 200):
        names = [f"s{i}" for i in range(n)]
        mat = {names[i]: {names[(i + 1) % n]: M(1, 0)} for i in range(n)}
        pi = invariant_measure(mat, tuple(names))
        for s in names:
            assert pi[s].exp == F(0)
            assert pi[s].coeff == pytest.approx(1 / n, rel=1e-12)


def test_disconnected_class_violates_the_contract():
    mat = {"a": {"b": M(1, 0)}, "b": {}}
    with pytest.raises(InternalError):
        invariant_measure(mat, ("a", "b"))


# -------------------------------------------------------------- entrance law


def test_uniform_split_from_the_eightstate_fast_scale():
    chain = load_chain(fixture("eightstate.json"))
    # keep only the exponent-0 arcs (the fast scale)
    mat = {
        s: {d: m for d, m in chain.row(s).items() if m.exp == 0} for s in chain.states
    }
    dec = classify(support_graph(mat))
    law = entrance_law(mat, dec)
    idx = {c: i for i, c in enumerate(dec.recurrent)}
    row5 = law["5"]
    assert row5.get(idx[("1",)], 0.0) == pytest.approx(1 / 3, abs=1e-12)
    assert row5.get(idx[("6",)], 0.0) == pytest.approx(1 / 3, abs=1e-12)
    assert row5.get(idx[("7", "8")], 0.0) == pytest.approx(1 / 3, abs=1e-12)
    assert sum(row5.values()) == pytest.approx(1.0, abs=1e-12)
    # rows of class members are indicators
    assert law["7"].get(idx[("7", "8")], 0.0) == 1.0 and sum(law["7"].values()) == 1.0


def test_min_exponent_arc_wins_absorption_outright():
    mat = {"t": {"r1": M(1, 1, 5), "r2": M(1, 2, 5)}, "r1": {}, "r2": {}}
    dec = classify(support_graph(mat))
    law = entrance_law(mat, dec)
    idx = {c: i for i, c in enumerate(dec.recurrent)}
    assert law["t"].get(idx[("r1",)], 0.0) == pytest.approx(1.0, abs=1e-12)
    assert law["t"].get(idx[("r2",)], 0.0) == pytest.approx(0.0, abs=1e-12)


def test_tied_exponents_share_by_coefficient():
    mat = {"t": {"r1": M(2, 1, 5), "r2": M(3, 1, 5)}, "r1": {}, "r2": {}}
    dec = classify(support_graph(mat))
    law = entrance_law(mat, dec)
    idx = {c: i for i, c in enumerate(dec.recurrent)}
    assert law["t"].get(idx[("r1",)], 0.0) == pytest.approx(0.4, abs=1e-12)
    assert law["t"].get(idx[("r2",)], 0.0) == pytest.approx(0.6, abs=1e-12)


def test_leading_order_trap_exits_by_its_stationary_weighted_arcs():
    mat = {
        "t1": {"t2": monomial(0.5, F(0)), "r1": monomial(0.3, F(1, 2))},
        "t2": {"t1": monomial(0.5, F(0)), "r2": monomial(0.4, F(1, 2))},
        "r1": {},
        "r2": {},
    }
    dec = classify(support_graph(mat))
    assert set(dec.transient) == {"t1", "t2"}
    law = entrance_law(mat, dec)
    idx = {c: i for i, c in enumerate(dec.recurrent)}
    for t in ("t1", "t2"):
        assert law[t].get(idx[("r1",)], 0.0) == pytest.approx(3 / 7, abs=1e-12)
        assert law[t].get(idx[("r2",)], 0.0) == pytest.approx(4 / 7, abs=1e-12)
    # numeric oracle: absorption probabilities of the instantiated chain
    chain = load_chain(
        {
            "states": ["t1", "t2", "r1", "r2"],
            "transitions": [
                {"from": "t1", "to": "t2", "coeff": 0.5, "exp": "0"},
                {"from": "t1", "to": "r1", "coeff": 0.3, "exp": "1/2"},
                {"from": "t2", "to": "t1", "coeff": 0.5, "exp": "0"},
                {"from": "t2", "to": "r2", "coeff": 0.4, "exp": "1/2"},
            ],
        }
    )
    Q = instantiate(chain, 1e-8)
    num = absorption_probabilities(Q, [0, 1], [2, 3])
    np.testing.assert_allclose(num[0], [3 / 7, 4 / 7], atol=1e-3)


def test_trap_nested_in_a_larger_trap_exits_by_the_combined_weights():
    # {t1, t2} holds at exponent 0 and leaks mostly to t3 (order lam^(1/2)),
    # which returns to t1 at exponent 0: contracted, {t1, t2} and t3 form a
    # second trap that leaks to r1 through t1 (order lam) and to r2 through
    # t3 (order lam^(1/2) * lam^(1/2)), so both exits compete at order lam
    states = ["t1", "t2", "t3", "r1", "r2"]
    arcs = [
        ("t1", "t2", 0.5, "0"),
        ("t1", "r1", 0.3, "1"),
        ("t2", "t1", 0.5, "0"),
        ("t2", "t3", 0.4, "1/2"),
        ("t3", "t1", 0.6, "0"),
        ("t3", "r2", 0.3, "1/2"),
    ]
    chain = load_chain(
        {
            "states": states,
            "transitions": [
                {"from": a, "to": b, "coeff": c, "exp": e} for a, b, c, e in arcs
            ],
        }
    )
    mat = {s: chain.row(s) for s in states}
    dec = classify(support_graph(mat))
    assert dec.transient == ["t1", "t2", "t3"]
    law = entrance_law(mat, dec)
    idx = {c: i for i, c in enumerate(dec.recurrent)}
    # pi(t1) = pi(t2) = 1/2 inside the inner trap; the outer trap weighs
    # {t1, t2} by 1 and t3 by (1/3) lam^(1/2), so the exits are
    # 0.15 lam to r1 and 0.1 lam to r2
    for t in ("t1", "t2", "t3"):
        assert law[t].get(idx[("r1",)], 0.0) == pytest.approx(0.6, abs=1e-12)
        assert law[t].get(idx[("r2",)], 0.0) == pytest.approx(0.4, abs=1e-12)
    Q = instantiate(chain, 1e-8)
    num = absorption_probabilities(Q, [0, 1, 2], [3, 4])
    np.testing.assert_allclose(num, [[0.6, 0.4]] * 3, atol=1e-3)


def test_trap_without_any_exit_is_a_contract_violation():
    mat = {"t1": {"t2": monomial(0.5, F(0))}, "t2": {"t1": monomial(0.5, F(0))}, "r": {}}
    dec = ClassDecomposition(recurrent=[("r",)], transient=["t1", "t2"], period={("r",): 1})
    with pytest.raises(InternalError):
        entrance_law(mat, dec)
