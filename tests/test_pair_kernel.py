"""The elimination kernel and the ladder on plain (coeff, exp) pairs.

`structure` and `hierarchy` write the semiring steps out inline instead of
calling `mono_add`, `mono_mul`, `mono_div` and `mono_limit`.  Each inlined
step must give what its `mono_*` chain gives, bit for bit: zero
coefficients, exponent ties, products and quotients that underflow to a
0.0 coefficient at a finite exponent, and int as well as `Fraction`
exponents.  The references are the `mono_*` copies in `helpers`.
"""

import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from markovscale import InternalError, Monomial, chain_from_entries, hierarchy, load_chain, structure
from markovscale.asymptotics import ZERO, mono_add, mono_mul
from markovscale.hierarchy import HierarchyLevel, build_level, next_threshold
from markovscale.structure import ClassDecomposition

from helpers import _frozen_entrance_law, _frozen_eliminate, _frozen_invariant_measure

F = Fraction

#: coefficients that zero, underflow (5e-324 / 3 == 0.0, 1e-170 * 1e-170 ==
#: 0.0) and overflow (1e170 * 1e170 == inf) the steps, besides plain ones
COEFFS = st.one_of(
    st.sampled_from((0.0, 5e-324, 1e-300, 1e-170, 0.5, 1.0, 3.0, 1e170)),
    st.floats(0.05, 4.0),
)
#: few exponents, so that ties are common; int ones as on the ladder's
#: ticks, Fraction ones as in public tables
EXPONENTS = ((0, 1, 2), (F(0), F(1, 2), F(1)))


def _bits(m) -> tuple:
    c, e = m
    return c.hex(), e, type(e)


def _row_bits(row: dict) -> list:
    return [(v, _bits(m)) for v, m in row.items()]


def _pairs(rows: dict) -> dict:
    """The same rows with every `Monomial` turned into a plain tuple."""
    return {u: {v: tuple(m) for v, m in row.items()} for u, row in rows.items()}


def _outcome(fn):
    """fn()'s value, or the type and message of the error it raised."""
    try:
        return fn()
    except (InternalError, ValueError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def _rows(draw, nodes, targets):
    """Monomial rows over `nodes`, each with up to four arcs into `targets`;
    a row may hold a self-arc or a 0.0 coefficient at a finite exponent."""
    exps = st.sampled_from(EXPONENTS[draw(st.integers(0, 1))])
    return {
        u: {v: Monomial(draw(COEFFS), draw(exps))
            for v in draw(st.lists(st.sampled_from(targets), max_size=4, unique=True))}
        for u in nodes
    }


@st.composite
def graphs(draw):
    """Rows over 2-6 nodes with arcs to a node without a row, and an
    elimination order over some of the nodes."""
    nodes = list(range(draw(st.integers(2, 6))))
    rows = draw(_rows(nodes, nodes + ["sink"]))
    order = draw(st.permutations(nodes))[: draw(st.integers(1, len(nodes)))]
    return rows, order


@settings(max_examples=300, deadline=None)
@given(graphs())
# removing 1 gives 0 -> sink the quotient 5e-324 / 3 == 0.0 at exponent 0;
# removing 2 ties it, and mono_add's zero rule makes it ZERO, so 0 has no
# exit left when it is removed
@example(({0: {1: Monomial(5e-324, 0), 2: Monomial(1.0, 0)},
           1: {"sink": Monomial(1.0, 0), 2: Monomial(2.0, 0)},
           2: {"sink": Monomial(1.0, 0)}}, [1, 2, 0]))
def test_eliminate_matches_its_mono_chains_bit_for_bit(case):
    rows, order = case

    def records(steps):
        return [(k, _row_bits(succ), _row_bits(pred), _bits(s_k)) for k, succ, pred, s_k in steps]

    got = _outcome(lambda: records(structure._eliminate(_pairs(rows), order)))
    assert got == _outcome(lambda: records(_frozen_eliminate(rows, order)))


@st.composite
def classes(draw):
    """A 2-6 member ring with chords and arcs out of the class, members in
    random order."""
    names = [f"m{i}" for i in range(draw(st.integers(2, 6)))]
    rows = draw(_rows(names, names + ["out"]))
    exps = EXPONENTS[draw(st.integers(0, 1))]
    for i, u in enumerate(names):
        rows[u].setdefault(names[(i + 1) % len(names)], Monomial(draw(COEFFS), draw(st.sampled_from(exps))))
    return rows, tuple(draw(st.permutations(names)))


@settings(max_examples=300, deadline=None)
@given(classes())
def test_invariant_measure_matches_its_mono_chains_bit_for_bit(case):
    rows, cls = case

    def measure(pi):
        return [(u, _bits(m), type(m)) for u, m in pi.items()]

    got = _outcome(lambda: measure(structure.invariant_measure(_pairs(rows), cls)))
    assert got == _outcome(lambda: measure(_frozen_invariant_measure(rows, cls)))


@st.composite
def decompositions(draw):
    """1-5 transients with arcs among themselves and into 1-3 one-node
    classes, listed in random order."""
    transient = [f"t{i}" for i in range(draw(st.integers(1, 5)))]
    recurrent = [f"r{i}" for i in range(draw(st.integers(1, 3)))]
    rows = draw(_rows(transient, transient + recurrent))
    for u in transient:
        rows[u].pop(u, None)
    rows.update({r: {} for r in recurrent})
    dec = ClassDecomposition(recurrent=[(r,) for r in recurrent],
                             transient=draw(st.permutations(transient)), period={})
    return rows, dec


@settings(max_examples=300, deadline=None)
@given(decompositions())
def test_entrance_law_matches_its_mono_chains_bit_for_bit(case):
    rows, dec = case

    def law(rows_of_h):
        return [(u, h.tobytes()) for u, h in rows_of_h.items()]

    got = _outcome(lambda: law(structure.entrance_law(_pairs(rows), dec)))
    assert got == _outcome(lambda: law(_frozen_entrance_law(rows, dec)))


def _mono_aggregate(Q: dict, level: HierarchyLevel) -> dict:
    """`level`'s aggregated rows rebuilt from the previous level's rows `Q`
    with mono_add and mono_mul: a class of two or more nodes sums its
    members' rows weighted by their measures, any other node sums its row
    by the targets' new nodes."""
    agg = {}
    for u in level.nodes:
        meas = level.measures.get(u)
        acc = {}
        if meas is not None and len(meas) > 1:
            for z, p in meas.items():
                for v, m in Q[z].items():
                    tgt = level.parent[v]
                    if tgt != u:
                        acc[tgt] = mono_add(acc.get(tgt, ZERO), mono_mul(Monomial(*p), Monomial(*m)))
        else:
            for v, m in Q[u].items():
                tgt = level.parent[v]
                acc[tgt] = mono_add(acc.get(tgt, ZERO), Monomial(*m))
        agg[u] = acc
    return agg


def _check_ladder(chain, level, unit) -> None:
    """Climb from `level` until the threshold reaches `unit`, checking each
    built level's aggregation."""
    for _ in range(2 * chain.n_states + 2):
        alpha = next_threshold(level)
        if alpha >= unit or level.alpha is not None and not alpha > level.alpha:
            break
        try:
            nxt = build_level(level, alpha, chain)
        except InternalError:  # a measure underflowed to zero: no level
            break
        want = _mono_aggregate(level.aggregated, nxt)
        assert [(u, _row_bits(row)) for u, row in nxt.aggregated.items()] == \
            [(u, _row_bits(row)) for u, row in want.items()]
        level = nxt


@st.composite
def chains(draw):
    """1-3 blocks of 2-3 states held together by rings of mostly
    exponent-0 arcs, 0-2 feeders into them, and arcs between blocks at
    exponents 1/2 and 1, so that merged classes and feeders often reach one
    new node by arcs of equal exponent.  Coefficients reach down to 5e-324
    and up to 1e170, so that measures and products underflow and overflow;
    exponent-0 arcs stay at most 0.25 each."""
    blocks = [[f"b{b}.{i}" for i in range(draw(st.integers(2, 3)))]
              for b in range(draw(st.integers(1, 3)))]
    feeders = [f"f{i}" for i in range(draw(st.integers(0, 2)))]
    members = [s for block in blocks for s in block]
    tiny = (5e-324, 1e-300, 1e-170)

    def arc(e):
        pool = tiny + ((0.1, 0.25) if e == 0 else (0.3, 1.0, 2.5, 1e170))
        return Monomial(draw(st.sampled_from(pool)), e)

    entries = {}
    for block in blocks:
        for i, src in enumerate(block):
            entries[(src, block[(i + 1) % len(block)])] = arc(draw(st.sampled_from((F(0), F(0), F(1, 3)))))
    for src in members + feeders:
        for dst in draw(st.lists(st.sampled_from(members), max_size=3, unique=True)):
            if dst != src and (src, dst) not in entries:
                exps = (F(0), F(1, 2)) if src in feeders else (F(1, 2), F(1))
                entries[(src, dst)] = arc(draw(st.sampled_from(exps)))
    return chain_from_entries(feeders + members, entries)


@settings(max_examples=200, deadline=None)
@given(chains())
def test_build_level_aggregates_like_its_mono_chains_bit_for_bit(chain):
    # on the chain's int ticks, as analyze runs it, and on its Fraction exponents
    _check_ladder(chain, hierarchy._base_level(chain), chain.scale.D)
    nodes = [(s,) for s in chain.states]
    agg = {n: {} for n in nodes}
    for (src, dst), m in chain.entries.items():
        agg[(src,)][(dst,)] = m
    base = HierarchyLevel(index=0, alpha=None, nodes=nodes, recurrent_nodes=list(nodes),
                          transient_nodes=[], period={}, measures={}, aggregated=agg, parent={})
    _check_ladder(chain, base, 1)


# ------------------------------------------------- Monomial traffic bound


def _bench_jobs(workload: str, seed: int) -> list:
    """The job texts of a benchmark workload (bench/workloads.py)."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        return [json.loads(job.text) for job in module.make_inputs(workload, seed)]
    finally:
        del sys.modules[spec.name]


#: Monomials that analyze may build beyond one per class member that the
#: kernel returns
MONOMIAL_SLACK = 8


def test_analyze_builds_monomials_only_for_the_measures_it_returns(monkeypatch):
    # the kernel and the ladder run on pairs; a Monomial is built for each
    # member of a class of two or more nodes (one-node classes share ONE),
    # and the public tables convert rows only when read
    docs = [_bench_jobs("dense_classes", 11)[0], _bench_jobs("ladder", 11)[0]]
    chains = [load_chain(doc) for doc in docs]
    built = [0]
    new = Monomial.__new__

    def counted(cls, coeff, exp):
        built[0] += 1
        return new(cls, coeff, exp)

    returned = []
    measure = hierarchy.invariant_measure

    def spy(matrix, cls):
        pi = measure(matrix, cls)
        if len(pi) > 1:
            returned.append(len(pi))
        return pi

    monkeypatch.setattr(hierarchy, "invariant_measure", spy)
    monkeypatch.setattr(Monomial, "__new__", staticmethod(counted))
    for chain in chains:
        built[0] = 0
        returned.clear()
        hierarchy.analyze(chain)
        assert returned, "the job has no class of two or more nodes"
        assert built[0] <= sum(returned) + MONOMIAL_SLACK, (built[0], sum(returned))
