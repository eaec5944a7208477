"""The multi-scale aggregation loop and its report document."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from markovscale import (
    InputError,
    InternalError,
    analyze,
    chain_from_entries,
    load_chain,
    monomial,
    parse_report,
    position,
    report,
)
from markovscale import hierarchy
from markovscale.evaluator import expm
from markovscale.games import compile_game, load_game
from markovscale.hierarchy import _level_support, build_level, next_threshold
from markovscale.oracle import convergence_sweep, instantiate, matrix_power_position

from helpers import (
    COPRIME_POOL,
    GAME_FIXTURES,
    averaging_period,
    bench_jobs,
    check_against_exact_ladder,
    check_incremental_ladder,
    fixture,
    frozen_analyze,
    random_chain,
    random_nested_chain,
    random_periodic_chain,
    random_trap_chain,
    random_zero_rule_chain,
    reference_ladder,
    sub_unit_skeleton,
    support_graph,
    with_tiny_coefficients,
)


def F(p, q=1):
    return Fraction(p, q)


# ------------------------------------------------------------ level stack


def test_eightstate_threshold_sequence():
    model = analyze(load_chain(fixture("eightstate.json")))
    assert model.alphas == [F(0), F(1, 5), F(2, 5), F(3, 5), F(1)]
    assert model.alphas[-1] == F(1)
    assert len(model.levels) == 5  # base plus one level per built threshold


def test_eightstate_levels_peel_scales_in_order():
    model = analyze(load_chain(fixture("eightstate.json")))
    lv = model.levels
    # fastest scale: the swap pair aggregates, state 5 is transient
    assert lv[1].recurrent_nodes == [("1",), ("2",), ("3",), ("4",), ("6",), ("7", "8")]
    assert lv[1].transient_nodes == [("5",)]
    assert lv[1].period[("7", "8")] == 2
    # each following scale knocks out the states that move at it
    assert ("1",) in lv[2].transient_nodes and ("6",) in lv[2].transient_nodes
    assert ("2",) in lv[3].transient_nodes
    # slowest built scale merges the cycle
    assert lv[4].recurrent_nodes == [("1", "2", "3"), ("4",), ("7", "8")]
    assert lv[4].transient_nodes == [("5",), ("6",)]


def test_eightstate_cycle_measure_and_aggregated_exit():
    model = analyze(load_chain(fixture("eightstate.json")))
    top = model.levels[4]
    pi = top.measures[("1", "2", "3")]
    assert pi[("1",)] == monomial(1.0, F(2, 5))
    assert pi[("2",)] == monomial(1.0, F(1, 5))
    assert pi[("3",)] == monomial(1.0, F(0))
    # the cycle's aggregated exit collects both vanishing arcs at exponent 1
    exit_ = top.aggregated[("1", "2", "3")]
    assert set(exit_) == {("4",)}
    assert exit_[("4",)].exp == F(1)
    assert exit_[("4",)].coeff == pytest.approx(2.0, abs=1e-12)


def test_next_threshold_walks_the_exit_exponents():
    model = analyze(load_chain(fixture("eightstate.json")))
    assert next_threshold(model.levels[0]) == F(0)
    assert next_threshold(model.levels[1]) == F(1, 5)
    assert next_threshold(model.levels[4]) == F(1)


def test_next_threshold_of_a_frozen_chain_is_infinite():
    model = analyze(chain_from_entries(["a", "b"], {}))
    assert next_threshold(model.levels[0]) == math.inf


def test_build_level_reproduces_the_analyze_stack():
    chain = load_chain(fixture("eightstate.json"))
    model = analyze(chain)
    lv1 = build_level(model.levels[0], F(0), chain)
    assert lv1.nodes == model.levels[1].nodes
    assert lv1.recurrent_nodes == model.levels[1].recurrent_nodes
    assert lv1.transient_nodes == model.levels[1].transient_nodes
    assert lv1.parent == model.levels[1].parent
    assert lv1.aggregated == model.levels[1].aggregated


def test_mixed_scale_thresholds_are_derived_not_copied():
    # the slow return edge shifts the cycle's exit to 3/10 + (2/5 - 1/5) = 1/2,
    # an exponent that appears nowhere in the input
    model = analyze(load_chain(fixture("funnel_delayed.json")))
    assert model.alphas == [F(1, 5), F(3, 10), F(1, 2), math.inf]
    assert model.classes == [("3",)]
    np.testing.assert_allclose(model.mu, np.ones((3, 1)), atol=0)
    np.testing.assert_allclose(model.M, [[0.0, 0.0, 1.0]], atol=0)


def test_instant_return_variant_funnels_the_same_way():
    model = analyze(load_chain(fixture("funnel_instant.json")))
    assert model.alphas == [F(0), F(1, 5), F(2, 5), math.inf]
    assert model.classes == [("3",)]


# -------------------------------------------------------------- terminal


def test_critical_chain_terminates_immediately_with_identity_factors():
    model = analyze(load_chain(fixture("twostate_unit.json")))
    assert model.classes == [("1",), ("2",)]
    np.testing.assert_allclose(model.mu, np.eye(2), atol=0)
    np.testing.assert_allclose(model.M, np.eye(2), atol=0)
    np.testing.assert_allclose(model.A, [[-1.0, 1.0], [1.0, -1.0]], atol=1e-15)
    assert model.N == 1
    assert len(model.levels) == 1 and model.alphas == [F(1)]


def test_super_critical_chain_has_zero_generator():
    model = analyze(load_chain(fixture("twostate_heavy.json")))
    assert model.alphas[-1] == F(2) and model.alphas[-1] > 1
    np.testing.assert_allclose(model.A, np.zeros((2, 2)), atol=0)
    np.testing.assert_allclose(position(model, t=7.0), np.eye(2), atol=0)


def test_frozen_chain_yields_singleton_classes_and_no_dynamics():
    model = analyze(chain_from_entries(["a", "b", "c"], {}))
    assert model.alphas[-1] == math.inf
    assert model.classes == [("a",), ("b",), ("c",)]
    np.testing.assert_allclose(model.A, np.zeros((3, 3)), atol=0)
    assert model.N == 1


def test_swap_chain_aggregates_to_one_periodic_class():
    model = analyze(load_chain(fixture("twostate_swap.json")))
    assert model.classes == [("1", "2")]
    assert model.N == 2
    np.testing.assert_allclose(model.mu, np.ones((2, 1)), atol=0)
    np.testing.assert_allclose(model.A, [[0.0]], atol=0)
    np.testing.assert_allclose(model.M, [[0.5, 0.5]], atol=1e-15)
    # brute force: the average of two consecutive large powers at small lambda
    chain = load_chain(fixture("twostate_swap.json"))
    Q = instantiate(chain, 1e-6)
    avg = matrix_power_position(Q, 1.0, 1e-6, 2)
    np.testing.assert_allclose(avg, model.mu @ expm(model.A) @ model.M, atol=1e-9)


@pytest.mark.parametrize(
    "mass0, leaves",
    [(1 - 1e-10, True), (1 + 1e-10, True), (1 - 1e-8, False)],
)
def test_surviving_diagonal_rule_agrees_across_callers_at_the_tolerance(mass0, leaves):
    # a <-> b at exponent 0; a's implied diagonal survives unless its mass is
    # within the exactly-leaving tolerance of 1, and a surviving diagonal
    # makes the swap class aperiodic.  c feeds the class on the 1/lam scale
    chain = chain_from_entries(
        ["a", "b", "c"],
        {
            ("a", "b"): monomial(mass0, F(0)),
            ("b", "a"): monomial(1.0, F(0)),
            ("c", "a"): monomial(0.5, F(1)),
        },
    )
    rows = {s: chain.row(s) for s in chain.states}
    model = analyze(chain)
    base = model.levels[0]
    assert chain.leaving == ({"a", "b"} if leaves else {"b"})
    assert ("a" in sub_unit_skeleton(chain)["a"]) is not leaves
    assert ("a" in support_graph(rows)["a"]) is not leaves
    support = _level_support(base.aggregated, hierarchy._leads(base), base.nodes, F(0),
                             {(s,) for s in chain.leaving})
    assert (("a",) in support[("a",)]) is not leaves
    assert model.classes == [("a", "b"), ("c",)]
    assert model.levels[1].period[("a", "b")] == (2 if leaves else 1)
    assert model.N == (2 if leaves else 1)
    if leaves:
        # the oracle takes the same decision: its position error is small
        # and falls like lambda
        sweep = convergence_sweep(chain, model, t=1.0, lambdas=[1e-2, 1e-3, 1e-4])
        errs = [e["position_err"] for e in sweep.entries]
        assert max(errs) < 1e-2
        assert all(5 * b <= a for a, b in zip(errs, errs[1:])), errs


def test_averaging_period_matches_the_sub_unit_skeleton_reference():
    # analyze reads N off the level-1 class periods; the reference classifies
    # the sub-unit skeleton of the whole chain.  Chains with N > 1 and a level
    # above level 1 tell level 1 apart from the last level.
    rng = np.random.default_rng(53)
    chains = [random_chain(rng, max_states=7) for _ in range(400)]
    chains += [random_trap_chain(rng) for _ in range(100)]
    chains += [random_periodic_chain(rng) for _ in range(600)]
    periodic = deep = 0
    for chain in chains:
        model = analyze(chain)
        n = averaging_period(chain)
        assert model.N == n
        periodic += n > 1
        deep += n > 1 and len(model.levels) > 2
    assert periodic >= 300 and deep >= 100


def _all_exponents(model):
    yield from model.alphas
    for lev in model.levels:
        if lev.alpha is not None:
            yield lev.alpha
        for table in (lev.measures, lev.aggregated):
            for row in table.values():
                yield from (m.exp for m in row.values())


def _differential_chains():
    rng = np.random.default_rng(31)
    chains = [load_chain(fixture(name)) for name in ("eightstate.json", "eightstate_primes.json",
                                                     "funnel_delayed.json", "funnel_instant.json")]
    chains += [random_chain(rng, max_states=7) for _ in range(60)]
    chains += [random_chain(rng, max_states=7, pool=COPRIME_POOL) for _ in range(60)]
    chains += [random_trap_chain(rng) for _ in range(20)]
    return chains


def test_analyze_matches_a_ladder_built_on_fraction_exponents():
    deep_coprime = 0
    for chain in _differential_chains():
        model = analyze(chain)
        levels, alphas = reference_ladder(chain)
        assert model.alphas == alphas
        assert len(model.levels) == len(levels)
        for got, want in zip(model.levels, levels):
            assert got.alpha == want.alpha
            assert got.nodes == want.nodes
            assert got.recurrent_nodes == want.recurrent_nodes
            assert got.transient_nodes == want.transient_nodes
            assert got.parent == want.parent
            assert got.period == want.period
            assert got.measures == want.measures  # exponents and coefficients exact
            assert got.aggregated == want.aggregated
        assert all(isinstance(e, Fraction) or e == math.inf for e in _all_exponents(model))
        dens = {m.exp.denominator for m in chain.entries.values()}
        deep_coprime += len(levels) >= 3 and math.lcm(*dens) >= 77
    # chains with a large common denominator climb several levels
    assert deep_coprime >= 5


CHAIN_FIXTURES = ("eightstate.json", "eightstate_primes.json", "funnel_delayed.json",
                  "funnel_instant.json", "twostate_half.json", "twostate_heavy.json",
                  "twostate_swap.json", "twostate_unit.json")


def _row_bits(row: dict) -> list:
    return [(v, m.coeff.hex(), m.exp) for v, m in row.items()]


def test_analyze_matches_the_frozen_reference_ladder():
    # the reference restricts and rebuilds every row at every level, runs
    # every class through the kernel and walks every level for every state
    # of M; analyze shares the rows a level leaves alone, gives one-node
    # classes their measure row directly, copies a level that merges nothing
    # and multiplies M level by level, so it must agree bit for bit
    rng = np.random.default_rng(61)
    chains = [load_chain(fixture(name)) for name in CHAIN_FIXTURES]
    chains += [random_chain(rng, max_states=7) for _ in range(400)]
    chains += [random_chain(rng, max_states=7, pool=COPRIME_POOL) for _ in range(300)]
    chains += [random_trap_chain(rng) for _ in range(150)]
    chains += [random_periodic_chain(rng) for _ in range(300)]
    # M columns that are products of three or four measure coefficients
    chains += [random_nested_chain(rng, depth) for depth in (3, 4) for _ in range(25)]
    # benchmark scale: ladder level 2 (alpha 1/5) merges nothing and only
    # turns the feeders transient
    chains += [_chain_of(job) for name in ("ladder", "dense_classes", "game_verify")
               for seed in (11, 2027) for job in bench_jobs(name, seed)[:4]]
    kept = remapped = split_rows = 0
    for chain in chains:
        model, ref = analyze(chain), frozen_analyze(chain)
        assert json.dumps(report(model)) == json.dumps(report(ref))
        for got, want in ((model.mu, ref.mu), (model.A, ref.A), (model.M, ref.M)):
            assert np.array_equal(got, want)
        assert len(model.levels) == len(ref.levels)
        for lev, want in zip(model.levels, ref.levels):
            assert lev.nodes == want.nodes and lev.parent == want.parent and lev.period == want.period
            for table, plain in ((lev.measures, want.measures), (lev.aggregated, want.aggregated)):
                assert list(table) == list(plain)
                assert all(_row_bits(table[u]) == _row_bits(row) for u, row in plain.items())
        # ref's entrance index is derived from its dense mu with numpy
        assert np.array_equal(model.entry, ref.entry) and np.array_equal(model.split, ref.split)
        split_rows += len(model.split)
        for lev, prev in zip(model.levels[2:], model.levels[1:]):
            stayed = [t for t in lev.transient_nodes if t in prev.transient_nodes]
            kept += bool(stayed)
            remapped += any(lev.parent[v] != v for t in stayed for v in prev.aggregated[t])
    # transient nodes carried over two or more levels, some of them with a
    # target that merged on the way
    assert kept >= 200 and remapped >= 50
    # rows whose entrance law splits over two or more classes
    assert split_rows >= 100


def test_a_class_measure_reads_only_the_arcs_up_to_its_threshold():
    # the six states end in one class of six nodes; some arcs between them
    # lie above the threshold at which it forms.  Handed to the kernel, such
    # arcs change the order in which tied terms are summed, and two of the
    # class's measure coefficients move by one ulp against the reference
    exps = {"0": F(0), "1/3": F(1, 3), "1/2": F(1, 2), "1": F(1), "3/2": F(3, 2)}
    arcs = [("s0", "s4", 0.7, "1/2"), ("s0", "s3", 0.2, "0"), ("s0", "s5", 1.3, "1/2"),
            ("s0", "s1", 0.15, "3/2"), ("s0", "s2", 0.3, "0"), ("s1", "s5", 1.3, "1"),
            ("s1", "s0", 0.15, "1/3"), ("s2", "s0", 1.3, "1"), ("s2", "s1", 0.3, "1/3"),
            ("s2", "s5", 0.7, "1/3"), ("s2", "s4", 0.1, "1/3"), ("s3", "s1", 1.3, "1/3"),
            ("s4", "s5", 1.3, "1/2"), ("s5", "s1", 0.7, "1"), ("s5", "s0", 0.7, "3/2"),
            ("s5", "s2", 0.1, "1/2")]
    chain = chain_from_entries([f"s{i}" for i in range(6)],
                               {(a, b): monomial(c, exps[e]) for a, b, c, e in arcs})
    model, ref = analyze(chain), frozen_analyze(chain)
    assert any(len(node) == 6 for lev in model.levels for node in lev.recurrent_nodes)
    assert json.dumps(report(model)) == json.dumps(report(ref))
    for lev, want in zip(model.levels, ref.levels):
        assert all(_row_bits(lev.measures[u]) == _row_bits(row) for u, row in want.measures.items())


# ------------------------------------------------ incremental classification


def _chain_of(job):
    doc = json.loads(job.text)
    return compile_game(*load_game(doc))[0] if job.kind == "game" else load_chain(doc)


def test_each_level_classifies_like_the_full_support():
    # build_level classifies only what a changed node reaches and keeps the
    # status of every other node; check_incremental_ladder compares each
    # level with classify over the whole support.  Every other seeded chain
    # has tiny coefficients, and the zero-rule chains make a renamed row's
    # minimum exit rise
    rng = np.random.default_rng(18)
    chains = [load_chain(fixture(name)) for name in CHAIN_FIXTURES]
    chains += [compile_game(*load_game(fixture(f"{name}.json")))[0] for name in GAME_FIXTURES]
    generators = (random_nested_chain, random_periodic_chain, random_trap_chain)
    for i in range(360):
        chain = generators[i % 3](rng)
        chains.append(with_tiny_coefficients(rng, chain) if i % 2 else chain)
    zero_rule = [random_zero_rule_chain(rng) for _ in range(40)]
    chains += zero_rule
    chains += [_chain_of(job) for name in ("ladder", "game_verify") for job in bench_jobs(name, 11, tiny=True)]
    levels = sum(check_incremental_ladder(chain) for chain in chains)
    assert levels >= 850
    # X's terms into B and C tie when B and C merge, and their sum keeps X's
    # exit, so X, a class at level 1, stays transient after it and Z is the
    # one final class, whichever order X's states are listed in
    for chain in zero_rule:
        x = [s for s in chain.states if s.startswith("X")]
        z = {s for s in chain.states if s.startswith("Z")}
        rest = [s for s in chain.states if s not in x]
        for states in (x + rest, x[::-1] + rest):
            model = analyze(chain_from_entries(states, chain.entries))
            node = tuple(sorted(x, key=states.index))
            assert node in model.levels[1].recurrent_nodes
            assert all(node in level.transient_nodes for level in model.levels[2:])
            assert [set(cls) for cls in model.classes] == [z]


def test_classify_sees_only_the_nodes_a_changed_node_reaches(monkeypatch):
    # the changed-node rule, restated from the published levels: a node the
    # previous level created, and a node whose minimum exit lies in
    # (previous alpha, alpha]; classify receives what they reach, in node
    # order
    chain = _chain_of(bench_jobs("ladder", 11, tiny=True)[0])
    seen = []
    real = hierarchy.classify

    def spy(support):
        seen.append(list(support))
        return real(support)

    monkeypatch.setattr(hierarchy, "classify", spy)
    model = analyze(chain)
    assert all(lev._lead is None and lev._fresh is None for lev in model.levels)
    leaving = {(s,) for s in chain.leaving}
    lead = hierarchy._leading_order
    want = []
    for k, lev in enumerate(model.levels[1:], start=1):
        prev = model.levels[k - 1]
        leads = {u: lead(prev.aggregated[u]) for u in prev.nodes}
        if k == 1:
            changed = set(prev.nodes)
        else:
            created = {u for u in prev.recurrent_nodes if len(prev.measures[u]) > 1}
            changed = created | {u for u in prev.nodes if prev.alpha < leads[u] <= lev.alpha}
        support = hierarchy._level_support(prev.aggregated, leads, prev.nodes, lev.alpha, leaving)
        reached, todo = set(), list(changed)
        while todo:
            u = todo.pop()
            if u not in reached:
                reached.add(u)
                todo.extend(support[u])
        want.append([u for u in prev.nodes if u in reached])
    assert seen == want
    # 96 states: 64 in 4-cycles and 32 feeders, over five levels
    assert [len(nodes) for nodes in seen] == [96, 48, 16, 8, 4]
    assert sum(map(len, seen)) < sum(len(lev.nodes) for lev in model.levels[:-1])


def test_a_level_that_merges_nothing_keeps_the_previous_rows_and_order():
    # rows are read-only, so a level hands on the row objects it leaves
    # unchanged: at a level where no class of two or more nodes forms, no
    # target merged, so that is every aggregated row, in the previous order
    chains = [load_chain(fixture(name)) for name in CHAIN_FIXTURES]
    chains.append(_chain_of(bench_jobs("ladder", 11)[0]))
    copied = 0
    for chain in chains:
        levels = analyze(chain).levels
        for prev, lev in zip(levels, levels[1:]):
            if all(len(lev.measures._rows[u]) == 1 for u in lev.recurrent_nodes):
                assert lev.nodes == prev.nodes
                assert all(lev.aggregated._rows[u] is prev.aggregated._rows[u] for u in lev.nodes)
                copied += 1
    # the ladder's level 2 is one of the levels that merge nothing
    assert copied >= 9


def test_nodes_plus_recurrent_nodes_fall_at_every_level():
    # the node at each threshold joins a class of two or more nodes or turns
    # transient, so len(nodes) + len(recurrent_nodes), 2n on level 0 and at
    # least 2 on any level, falls at every level: the ladder builds at most
    # 2n - 2 levels, the bound analyze's guard rests on
    rng = np.random.default_rng(24)
    generators = (random_chain, random_trap_chain, random_periodic_chain, random_nested_chain,
                  random_zero_rule_chain)
    chains = [load_chain(fixture(name)) for name in CHAIN_FIXTURES]
    chains += [_chain_of(job) for name in ("ladder", "dense_classes", "game_verify")
               for job in bench_jobs(name, 11, tiny=True)]
    # every generator in turn, every other chain with tiny coefficients
    for i in range(1000):
        chain = generators[i % 5](rng)
        chains.append(with_tiny_coefficients(rng, chain) if i % 2 else chain)
    analyzed = flat = 0
    for chain in chains:
        try:
            levels = analyze(chain).levels
        except InternalError:
            continue
        analyzed += 1
        sizes = [len(lev.nodes) + len(lev.recurrent_nodes) for lev in levels]
        assert sizes[0] == 2 * chain.n_states
        assert all(b < a for a, b in zip(sizes, sizes[1:]))
        # the recurrent nodes alone need not fall: a class that absorbs a
        # transient keeps their count
        flat += any(len(b.recurrent_nodes) >= len(a.recurrent_nodes) for a, b in zip(levels, levels[1:]))
    # 856 of the 1,014 chains analyze; on 50 of them the recurrent count
    # alone stays level somewhere
    assert analyzed >= 856 and flat >= 50


def test_levels_read_in_every_way_have_fraction_exponents():
    model = analyze(load_chain(fixture("eightstate_primes.json")))
    ref = frozen_analyze(model.chain)

    def fractions(row):
        return all(isinstance(m.exp, Fraction) for m in row.values())

    for lev, want in zip(model.levels, ref.levels):
        assert lev.alpha is None or isinstance(lev.alpha, Fraction)
        for table, plain in ((lev.measures, want.measures), (lev.aggregated, want.aggregated)):
            assert all(fractions(table[node]) for node in plain)  # item access
            assert all(fractions(table.get(node)) for node in plain)
            assert all(fractions(row) for _, row in table.items())
            assert all(fractions(row) for row in table.values())
            assert all(fractions(table[node]) for node in table)  # iteration
            assert list(table) == list(plain) and len(table) == len(plain)
            assert table == plain and plain == table
    for lev in report(model)["levels"]:
        for meas in lev["measures"].values():
            for m in meas.values():
                assert isinstance(Fraction(m["exp"]), Fraction)


def test_the_ladder_runs_on_int_exponents(monkeypatch):
    # a single Fraction (say an exponent-0 unit) would turn every later
    # exponent back into a Fraction and the ladder back into slow arithmetic
    real = hierarchy.build_level
    seen_types = []

    def spy(previous, alpha, chain):
        level = real(previous, alpha, chain)
        exps = [e for table in (level.measures, level.aggregated)
                for row in table.values() for _, e in row.values()]
        seen_types.append({type(e) for e in exps + [alpha]})
        return level

    monkeypatch.setattr(hierarchy, "build_level", spy)
    analyze(load_chain(fixture("eightstate_primes.json")))
    assert len(seen_types) >= 3
    assert all(types == {int} for types in seen_types)


def test_a_non_increasing_threshold_names_its_level_in_fractions(monkeypatch):
    real = hierarchy.next_threshold
    seen = []

    def stuck(level):
        # eightstate climbs 0, 1/5, 2/5, ...: repeat the second threshold
        alpha = seen[-1] if len(seen) == 2 else real(level)
        seen.append(alpha)
        return alpha

    monkeypatch.setattr(hierarchy, "next_threshold", stuck)
    with pytest.raises(InternalError) as err:
        analyze(load_chain(fixture("eightstate.json")))
    assert "level 3" in str(err.value)
    assert "(1/5 then 1/5)" in str(err.value)


def test_a_failing_invariant_measure_names_its_level_and_class(monkeypatch):
    def broken(matrix, cls):
        raise InternalError("no invariant measure")

    monkeypatch.setattr(hierarchy, "invariant_measure", broken)
    # one-node classes get their measure without the kernel, so the first
    # call is for eightstate's first class of two nodes
    with pytest.raises(InternalError, match=r"level 1, class \{7,8\}: no invariant measure"):
        analyze(load_chain(fixture("eightstate.json")))


# ------------------------------------------------------ exact reference


def _tiny_twins(rng, count):
    """`count` seeded chains of four generators, and the same chains with
    coefficients down to 5e-324."""
    generators = (random_chain, random_trap_chain, random_periodic_chain, random_nested_chain)
    plain = [generators[i % 4](rng) for i in range(count)]
    return plain, [with_tiny_coefficients(rng, chain) for chain in plain]


def test_analyze_matches_the_exact_ladder():
    # the frozen ladder on exact Fraction coefficients is the judge: where
    # analyze succeeds, a product or quotient that underflowed has changed no
    # threshold, class, transient or measure exponent; on chains without
    # tiny coefficients the measure coefficients agree too
    rng = np.random.default_rng(2026)
    plain, tiny = _tiny_twins(rng, 600)
    zero_rule = [random_zero_rule_chain(rng) for _ in range(100)]
    # the exact ladder analyzes all 600 tiny chains, float analyze 458 of
    # them; the others raise where a measure or an exit total leads with an
    # underflowed 0.0.  A step that drops a term makes more of them raise
    analyzed = sum(check_against_exact_ladder(chain) for chain in tiny)
    assert analyzed >= 458
    assert all(check_against_exact_ladder(chain) for chain in zero_rule)
    plain += [load_chain(fixture(name)) for name in CHAIN_FIXTURES]
    plain += [compile_game(*load_game(fixture(f"{name}.json")))[0] for name in GAME_FIXTURES]
    plain += [_chain_of(job) for name in ("ladder", "dense_classes", "game_verify")
              for job in bench_jobs(name, 11, tiny=True)]
    assert all(check_against_exact_ladder(chain, coeff_rtol=1e-12) for chain in plain)


def test_relabelled_chains_with_tiny_coefficients_analyze_alike():
    # where a chain and its relabelled, reordered copy both analyze, they
    # have the same thresholds and the same final classes as sets of states
    rng = np.random.default_rng(7)
    chains = _tiny_twins(rng, 600)[1] + [random_zero_rule_chain(rng) for _ in range(100)]
    both = 0
    for chain in chains:
        order = [chain.states[i] for i in rng.permutation(chain.n_states)]
        name = {s: f"q{k}" for k, s in enumerate(rng.permutation(chain.states))}
        moved = chain_from_entries(
            [name[s] for s in order],
            {(name[a], name[b]): m for (a, b), m in chain.entries.items()},
        )
        try:
            model, other = analyze(chain), analyze(moved)
        except InternalError:
            continue
        both += 1
        assert other.alphas == model.alphas
        assert sorted(map(sorted, other.classes)) == \
            sorted(sorted(name[s] for s in cls) for cls in model.classes)
    assert both >= 500


# ------------------------------------------------------------- invariants


def test_position_stays_row_stochastic_across_times():
    model = analyze(load_chain(fixture("eightstate.json")))
    for t in (0.0, 0.1, 1.0, 10.0):
        P = position(model, t=t)
        np.testing.assert_allclose(P.sum(axis=1), np.ones(8), atol=1e-10)
        assert np.all(P >= -1e-12)


def test_analysis_is_permutation_equivariant():
    # relabel and reorder the states: alpha and N stay, mu and M follow the
    # states, and mu, A and M follow the classes, whose order may change
    rng = np.random.default_rng(5)
    eight = load_chain(fixture("eightstate.json"))
    cases = [(eight, ["5", "3", "8", "1", "7", "2", "6", "4"])]
    chains = [random_chain(rng, max_states=7) for _ in range(30)]
    chains += [random_chain(rng, max_states=7, pool=COPRIME_POOL) for _ in range(30)]
    cases += [(c, [c.states[i] for i in rng.permutation(c.n_states)]) for c in chains]
    for chain, order in cases:
        name = {s: f"q{k}" for k, s in enumerate(rng.permutation(chain.states))}
        moved = chain_from_entries(
            [name[s] for s in order],
            {(name[a], name[b]): m for (a, b), m in chain.entries.items()},
        )
        model, other = analyze(chain), analyze(moved)
        assert other.alphas == model.alphas
        assert other.N == model.N
        pos = {frozenset(name[s] for s in cls): i for i, cls in enumerate(model.classes)}
        sigma = [pos[frozenset(cls)] for cls in other.classes]
        assert sorted(sigma) == list(range(model.n_classes))
        rows = [chain.index[s] for s in order]
        tol = dict(rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(other.A, model.A[np.ix_(sigma, sigma)], **tol)
        np.testing.assert_allclose(other.mu, model.mu[np.ix_(rows, sigma)], **tol)
        np.testing.assert_allclose(other.M, model.M[np.ix_(sigma, rows)], **tol)
        P = position(model, t=1.0)
        np.testing.assert_allclose(position(other, t=1.0), P[np.ix_(rows, rows)], atol=1e-12)


def test_analyze_is_deterministic():
    one = report(analyze(load_chain(fixture("eightstate.json"))))
    two = report(analyze(load_chain(fixture("eightstate.json"))))
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


# ----------------------------------------------------------------- report


def test_report_renders_the_eightstate_analysis():
    model = analyze(load_chain(fixture("eightstate.json")))
    doc = report(model)
    assert doc["alphas"] == ["0", "1/5", "2/5", "3/5", "1"]
    assert len(doc["levels"]) == 4
    assert doc["classes"] == [["1", "2", "3"], ["4"], ["7", "8"]]
    assert doc["N"] == 2
    lvl0 = doc["levels"][0]
    assert lvl0["alpha"] == "0"
    assert ["7", "8"] in lvl0["classes"]
    assert lvl0["transient"] == ["5"]
    assert lvl0["measures"]["{7,8}"]["7"] == {"coeff": 0.5, "exp": "0"}
    top = doc["levels"][3]
    assert top["measures"]["{1,2,3}"]["2"] == {"coeff": 1.0, "exp": "1/5"}
    assert np.asarray(doc["mu"]).shape == (8, 3)
    assert np.asarray(doc["A"]).shape == (3, 3)
    assert np.asarray(doc["M"]).shape == (3, 8)


def test_report_lists_every_member_of_each_level_class_in_node_order():
    # reference: scan all previous-level nodes for each class node
    rng = np.random.default_rng(17)
    chains = [random_chain(rng, max_states=7) for _ in range(80)]
    chains.append(load_chain(fixture("eightstate.json")))
    largest = 0
    for chain in chains:
        model = analyze(chain)
        for lev, doc in zip(model.levels[1:], report(model)["levels"]):
            prev = model.levels[lev.index - 1]
            want = [
                [hierarchy._node_name(p) for p in prev.nodes if lev.parent[p] == node]
                for node in lev.recurrent_nodes
            ]
            assert doc["classes"] == want
            largest = max([largest] + [len(c) for c in want])
    assert largest >= 3


def test_report_of_a_critical_chain_is_depth_one():
    doc = report(analyze(load_chain(fixture("twostate_unit.json"))))
    assert doc["alphas"] == ["1"]
    assert doc["levels"] == []
    np.testing.assert_allclose(doc["mu"], np.eye(2), atol=0)
    np.testing.assert_allclose(doc["M"], np.eye(2), atol=0)


def test_report_round_trips_through_parse():
    doc = report(analyze(load_chain(fixture("eightstate.json"))))
    assert parse_report(json.dumps(doc)) == doc
    assert parse_report(doc) == doc


ONE_DOC = {"coeff": 1.0, "exp": "0"}


def at_level(doc: dict, i: int, **changes) -> dict:
    """`doc` with the entries `changes` of its level `i` replaced."""
    levels = list(doc["levels"])
    levels[i] = dict(levels[i], **changes)
    return dict(doc, levels=levels)


def test_report_of_every_fixture_and_tiny_job_parses():
    chains = [load_chain(fixture(name)) for name in CHAIN_FIXTURES]
    chains += [compile_game(*load_game(fixture(f"{name}.json")))[0] for name in GAME_FIXTURES]
    for workload in ("ladder", "dense_classes", "game_verify"):
        for job in bench_jobs(workload, 11, tiny=True):
            doc = json.loads(job.text)
            chains.append(compile_game(*load_game(doc))[0] if job.kind == "game" else load_chain(doc))
    for chain in chains:
        doc = report(analyze(chain))
        assert parse_report(json.dumps(doc)) == doc
        # as the CLI writes it
        assert parse_report(json.dumps(doc, sort_keys=True)) == doc


def test_parse_report_rejects_malformed_documents():
    good = report(analyze(load_chain(fixture("twostate_unit.json"))))
    with pytest.raises(InputError):
        parse_report([1, 2, 3])
    missing = dict(good)
    del missing["N"]
    with pytest.raises(InputError, match="missing"):
        parse_report(missing)
    extra = dict(good, junk=1)
    with pytest.raises(InputError, match="unknown"):
        parse_report(extra)
    bad_n = dict(good, N=0)
    with pytest.raises(InputError, match="'N'"):
        parse_report(bad_n)
    bad_levels = dict(good, levels=[{"alpha": "0"}])
    with pytest.raises(InputError, match="levels"):
        parse_report(bad_levels)
    bad_mu = dict(good, mu=[[1.0, 0.0, 0.0]])
    with pytest.raises(InputError, match="'mu'"):
        parse_report(bad_mu)
    for text in ("{", '{"alphas": ["1"],}', b"\xff", ""):
        with pytest.raises(InputError, match="not valid JSON"):
            parse_report(text)
    with pytest.raises(InputError, match="'levels'"):
        parse_report(dict(good, levels=5))
    with pytest.raises(InputError, match="'classes'"):
        parse_report(dict(good, classes=3))
    with pytest.raises(InputError, match="'N'"):
        parse_report(dict(good, N=True))
    # the shapes hold; the entries are not finite numbers or exponents
    with pytest.raises(InputError, match="'mu'"):
        parse_report(dict(good, mu=[["x", None], [True, 2]]))
    for key, bad in (("mu", None), ("mu", True), ("A", math.nan), ("A", "0"), ("M", math.inf)):
        mat = [list(row) for row in good[key]]
        mat[0][0] = bad
        with pytest.raises(InputError, match=f"{key!r}.*not a finite number"):
            parse_report(dict(good, **{key: mat}))
    text = json.dumps(dict(good, A=[[math.nan, 0.0], [0.0, 0.0]]))
    with pytest.raises(InputError, match="'A'"):
        parse_report(text)
    for alphas in ([5], ["x"], ["1/0"], [None]):
        with pytest.raises(InputError, match="'alphas'"):
            parse_report(dict(good, alphas=alphas))
    # the level and class entries the README documents, named by index
    eight = report(analyze(load_chain(fixture("eightstate.json"))))
    levels = eight["levels"]
    for doc, where in (
        (dict(eight, levels=[5] * 4), r"'levels'\[0\] must be an object"),
        (dict(eight, levels=levels[:3] + [dict(levels[3], junk=1)]), r"'levels'\[3\] must be an object"),
        (dict(eight, levels=levels[:1] + [{"alpha": "1/5"}] + levels[2:]), r"'levels'\[1\] must be an object"),
        (dict(eight, levels=[dict(levels[0], alpha="1/5")] + levels[1:]), r"'levels'\[0\] has an 'alpha'"),
        (dict(eight, levels=levels[:2] + [dict(levels[2], alpha=None)] + levels[3:]), r"'levels'\[2\] has an 'alpha'"),
        (dict(eight, levels=levels[:1] + [dict(levels[1], classes=[[]])] + levels[2:]),
         r"'levels'\[1\] has a malformed"),
        (dict(eight, levels=levels[:1] + [dict(levels[1], transient=[5])] + levels[2:]),
         r"'levels'\[1\] has a malformed"),
        (dict(eight, classes=[5, "x", ["7", "8"]]), r"'classes'\[0\] must be a nonempty list"),
        (dict(eight, classes=[["1", "2", "3"], [], ["7", "8"]]), r"'classes'\[1\] must be a nonempty list"),
        (dict(eight, classes=[["1", "2", "3"], ["4"], ["7", 8]]), r"'classes'\[2\] must be a nonempty list"),
        (dict(eight, alphas=["0", "2/5", "1/5", "3/5", "1"]), r"'alphas'\[2\] does not exceed 'alphas'\[1\]"),
        (dict(eight, alphas=["0", "1/5", "2/5", "3/5", "3/5"]), r"'alphas'\[4\] does not exceed"),
        # measures, class members and transients that do not fit together
        (dict(eight, levels=[dict(lev, measures={"nope": 5}) for lev in levels]),
         r"'levels'\[0\] 'measures' must hold one entry per class"),
        (dict(eight, levels=[dict(lev, classes=[["zz"]]) for lev in levels]),
         r"'levels'\[0\] 'measures' must hold one entry per class"),
        (at_level(eight, 0, measures={**levels[0]["measures"], "{7,8}": {"6": ONE_DOC}}),
         r"'levels'\[0\] 'measures' must hold one entry per class"),
        (at_level(eight, 3, measures={**levels[3]["measures"], "{1,2,3}": {"1": ONE_DOC, "2": ONE_DOC}}),
         r"'levels'\[3\] 'measures' must hold one entry per class"),
        (at_level(eight, 3, measures={**levels[3]["measures"], "4": {"4": dict(ONE_DOC, coeff=True)}}),
         r"'levels'\[3\] measure of '4' in '4' must be an object"),
        (at_level(eight, 1, measures={**levels[1]["measures"], "2": {"2": dict(ONE_DOC, coeff=math.inf)}}),
         r"'levels'\[1\] measure of '2' in '2' must be an object"),
        (at_level(eight, 0, measures={**levels[0]["measures"], "1": {"1": dict(ONE_DOC, exp="1/0")}}),
         r"'levels'\[0\] measure of '1' in '1' must be an object"),
        (at_level(eight, 0, measures={**levels[0]["measures"], "1": {"1": dict(ONE_DOC, junk=1)}}),
         r"'levels'\[0\] measure of '1' in '1' must be an object"),
        (at_level(eight, 0, transient=["5", "1"]), r"'levels'\[0\] members and transients must be the 8 distinct states"),
        (at_level(eight, 0, transient=[]), r"'levels'\[0\] members and transients must be the 8 distinct states"),
        (at_level(eight, 2, transient=["1", "2", "5"]),
         r"'levels'\[2\] members and transients must be the class nodes and transients of 'levels'\[1\]"),
        (dict(eight, classes=[["1", "2", "3"], ["4"], ["7", "zz"]]),
         r"'classes'\[2\] holds 'zz', which is not a state of 'levels'\[0\]"),
        # every row of M has one entry per state, len(mu) of them
        (dict(eight, M=[row + [0.0] * (i % 2) for i, row in enumerate(eight["M"])]), r"'M' has the wrong shape"),
        (dict(eight, M=[row + [0.0] for row in eight["M"]]), r"'M' has the wrong shape"),
        (dict(eight, M=[row[:-1] for row in eight["M"]]), r"'M' has the wrong shape"),
    ):
        with pytest.raises(InputError, match=where):
            parse_report(doc)
