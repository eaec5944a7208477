"""Multi-scale aggregation of a perturbed chain.

Starting from the chain itself (level 0, every state a recurrent singleton),
each level k picks the smallest exit exponent alpha_k among the previous
level's recurrent nodes, decomposes the previous node set under the
leading-order arcs available at that threshold, replaces every recurrence
class by a single aggregated node carrying its invariant-measure-weighted
exits, and repeats.  The loop stops as soon as the next threshold reaches 1:
the surviving classes evolve on the 1/lam time scale, and the limit occupation
structure is

    P_t = mu . exp(A t) . M

with mu the entrance law into the final classes, A the aggregated unit-scale
generator, and M the within-class limit measures, plus the averaging period N
for the extended (stepwise) position, read off the level-1 class periods.

Every exponent the ladder produces is a Z-combination of the chain's entry
exponents, so `analyze` runs it on the chain's ticks: ints counting units
of 1/D on the scale the chain was built with.  Inside, the ladder carries
terms as plain (coeff, exp) pairs; the levels `analyze` returns hand out
`Monomial`s with `Fraction` exponents, converting a row through that scale
when it is first read.  `next_threshold` and `build_level` read `Monomial`s
and pairs alike, on either kind of exponent.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import INF, ZERO, Exponent, Monomial, PublicTable, format_exponent
# the rules that build_level's inlined aggregation follows; the benchmark's
# span tracer (bench/spans.py) counts calls made through these names
from .asymptotics import mono_add, mono_mul  # noqa: F401
from .chain_model import PerturbedChain
from .errors import InputError, InternalError
from .structure import ClassDecomposition, classify, entrance_law, invariant_measure

#: aggregated nodes are tuples of original states, ordered by state index
Node = tuple


@dataclass
class HierarchyLevel:
    """One rung of the aggregation ladder.

    `nodes` live on this level; the class decomposition and the class
    measures are expressed over the previous level's nodes.  The base
    level (index 0) has no threshold and no decomposition.  The rows of
    `measures` and `aggregated` are read-only: levels share the rows a
    level leaves unchanged.
    """

    index: int
    alpha: Exponent | None
    nodes: list[Node]
    recurrent_nodes: list[Node]
    transient_nodes: list[Node]
    period: dict[Node, int]
    measures: Mapping[Node, dict[Node, Monomial]]
    aggregated: Mapping[Node, dict[Node, Monomial]]
    parent: dict[Node, Node]


@dataclass
class LimitModel:
    """Asymptotic occupation structure of a perturbed chain."""

    chain: PerturbedChain
    levels: list[HierarchyLevel]
    classes: list[Node]
    mu: np.ndarray
    A: np.ndarray
    M: np.ndarray
    N: int
    alphas: list[Exponent] = field(default_factory=list)

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def _base_level(chain: PerturbedChain) -> HierarchyLevel:
    """Level 0, every state a node: the chain's `tick_rows` keyed by node."""
    nodes = [(s,) for s in chain.states]
    node_of = dict(zip(chain.states, nodes))
    agg = {node_of[s]: {node_of[d]: m for d, m in row.items()}
           for s, row in chain.tick_rows.items()}
    return HierarchyLevel(
        index=0,
        alpha=None,
        nodes=nodes,
        recurrent_nodes=list(nodes),
        transient_nodes=[],
        period={},
        measures={},
        aggregated=agg,
        parent={},
    )


def next_threshold(level: HierarchyLevel) -> Exponent:
    """Smallest exit exponent among the level's recurrent nodes (inf if none)."""
    alpha: Exponent = INF
    for node in level.recurrent_nodes:
        for _, e in level.aggregated[node].values():
            if e < alpha:
                alpha = e
    return alpha


def _level_support(aggregated: dict, nodes: list[Node], alpha: Exponent, leaving) -> dict:
    """Leading-order support at threshold alpha: rows whose minimal exit
    exponent is <= alpha contribute their min-attaining arcs, all other rows
    are absorbing.  A row keeps its self-loop unless it has an exponent-0 arc
    and its node is in `leaving`, the nodes of the exactly-leaving states (a
    merged node has none: its members' leading arcs stay in its class)."""
    support = {}
    for u in nodes:
        row = aggregated[u]
        emin = min((e for _, e in row.values()), default=INF)
        if emin <= alpha:
            succ = {v for v, (_, e) in row.items() if e == emin}
            if emin != 0 or u not in leaving:
                succ.add(u)
        else:
            succ = {u}
        support[u] = succ
    return support


def _merge_nodes(members, state_order: dict) -> Node:
    merged = []
    for node in members:
        merged.extend(node)
    return tuple(sorted(merged, key=state_order.__getitem__))


def build_level(previous: HierarchyLevel, alpha: Exponent, chain: PerturbedChain) -> HierarchyLevel:
    """Aggregate the previous level at threshold alpha.

    A node that stays itself (a one-node class or a transient) keeps the
    previous level's row object when none of its targets merged; every other
    row is built anew.  Rows are never mutated once built, so levels may
    share them."""
    Q = previous.aggregated
    state_order = chain.index

    leaving = {(s,) for s in chain.leaving}
    decomp = classify(_level_support(Q, previous.nodes, alpha, leaving))

    parent: dict[Node, Node] = {}
    new_nodes: list[Node] = []
    recurrent_nodes: list[Node] = []
    transient_nodes: list[Node] = []
    period: dict[Node, int] = {}
    measures: dict[Node, dict[Node, Monomial]] = {}
    merged: dict[Node, tuple] = {}  # node -> class, for the classes of 2+ nodes
    moved: set[Node] = set()  # the previous nodes in those classes

    for cls in decomp.recurrent:
        node = _merge_nodes(cls, state_order) if len(cls) > 1 else cls[0]
        for member in cls:
            parent[member] = node
        new_nodes.append(node)
        recurrent_nodes.append(node)
        period[node] = decomp.period[cls]
        # the kernel reads the arcs inside the class at exponent <= alpha only
        mset = set(cls)
        inside = {u: {v: m for v, m in Q[u].items() if v in mset and m[1] <= alpha}
                  for u in cls}
        try:
            measures[node] = invariant_measure(inside, cls)
        except InternalError as exc:
            raise InternalError(
                f"level {previous.index + 1}, class {_node_name(node)}: {exc}"
            ) from exc
        if len(cls) > 1:
            merged[node] = cls
            moved.update(cls)
    for t in decomp.transient:
        parent[t] = t
        new_nodes.append(t)
        transient_nodes.append(t)

    # classify lists classes and transients in node order, which is state
    # order, so only the merged list needs sorting
    new_nodes.sort(key=lambda n: state_order[n[0]])

    # rows of (coeff, exp) pairs, summed with the steps of mono_add and
    # mono_mul written out inline
    agg: dict[Node, dict[Node, tuple]] = {}
    for u in new_nodes:
        cls = merged.get(u)
        if cls is not None:
            pi = measures[u]
            acc = {}
            for z in cls:
                pc, pe = pi[z]
                for v, (c, e) in Q[z].items():
                    tgt = parent[v]
                    if tgt != u:
                        # acc[tgt] = mono_add(acc[tgt], mono_mul(pi_z, m))
                        c, e = (pc * c, pe + e) if pc != 0.0 and c != 0.0 else ZERO
                        oc, oe = acc.get(tgt, ZERO)
                        if e < oe:
                            acc[tgt] = (c, e)
                        elif e == oe:
                            acc[tgt] = (oc + c, oe) if oc != 0.0 else ZERO
        elif moved.isdisjoint(Q[u]):
            acc = Q[u]
        else:
            acc = {}
            for v, m in Q[u].items():
                tgt = parent[v]
                # acc[tgt] = mono_add(acc[tgt], m)
                oc, oe = acc.get(tgt, ZERO)
                if m[1] < oe:
                    acc[tgt] = m
                elif m[1] == oe:
                    acc[tgt] = (oc + m[0], oe) if oc != 0.0 else ZERO
        agg[u] = acc

    return HierarchyLevel(
        index=previous.index + 1,
        alpha=alpha,
        nodes=new_nodes,
        recurrent_nodes=recurrent_nodes,
        transient_nodes=transient_nodes,
        period=period,
        measures=measures,
        aggregated=agg,
        parent=parent,
    )


def analyze(chain: PerturbedChain) -> LimitModel:
    """Run the aggregation ladder to termination and assemble mu, A, M, N."""
    scale = chain.scale
    D = scale.D
    frac = scale.fraction

    def fmt(t) -> str:
        return format_exponent(frac(t))

    # M[i, s] is the limit of the product of the measures of the classes that
    # state s sits in on its way up to class i, level 1 first; one-node
    # classes have measure ONE and leave the product alone
    weight_coeff = dict.fromkeys(chain.states, 1.0)
    weight_exp = dict.fromkeys(chain.states, 0)

    base = _base_level(chain)
    levels = [base]
    current = base
    alphas: list[int] = []
    ticks = {m.exp for row in chain.tick_rows.values() for m in row.values()}
    guard = chain.n_states * max(1, len(ticks)) + 1
    terminal = None
    for _ in range(guard):
        alpha = next_threshold(current)
        if alpha >= D:
            terminal = alpha
            break
        if alphas and not alpha > alphas[-1]:
            raise InternalError(
                f"level {current.index + 1}: thresholds failed to increase strictly "
                f"({fmt(alphas[-1])} then {fmt(alpha)})"
            )
        alphas.append(alpha)
        current = build_level(current, alpha, chain)
        levels.append(current)
        for meas in current.measures.values():
            if len(meas) > 1:
                for child, (c, e) in meas.items():
                    for s in child:
                        weight_coeff[s] *= c
                        weight_exp[s] += e
    if terminal is None:
        raise InternalError(
            f"aggregation did not terminate within the iteration guard of {guard} levels "
            f"(level {current.index}, threshold {fmt(alphas[-1])})"
        )

    final = current
    classes = list(final.recurrent_nodes)
    nclasses = len(classes)
    n = chain.n_states

    decomp = ClassDecomposition(
        recurrent=[(node,) for node in classes],
        transient=list(final.transient_nodes),
        period={},
    )
    try:
        law = entrance_law(final.aggregated, decomp)
    except InternalError as exc:
        raise InternalError(f"level {final.index}, entrance law: {exc}") from exc

    mu = np.zeros((n, nclasses))
    for node in final.nodes:
        for s in node:
            mu[chain.index[s]] = law[node]

    A = np.zeros((nclasses, nclasses))
    for i, node in enumerate(classes):
        for v, (c, e) in final.aggregated[node].items():
            if e < D:
                raise InternalError(
                    f"level {final.index}: recurrent node {_node_name(node)} keeps the "
                    f"sub-unit exit exponent {fmt(e)} to {_node_name(v)} at termination"
                )
            if e == D:
                A[i] += c * law[v]
        A[i, i] = 0.0  # the diagonal is minus the off-diagonal row sum
        A[i, i] = -A[i].sum()

    M = np.zeros((nclasses, n))
    for i, node in enumerate(classes):
        for s in node:
            if weight_exp[s] == 0:
                M[i, chain.index[s]] = weight_coeff[s]

    for level in levels:
        if level.alpha is not None:
            level.alpha = frac(level.alpha)
        level.measures = PublicTable(level.measures, scale)
        level.aggregated = PublicTable(level.aggregated, scale)

    return LimitModel(
        chain=chain,
        levels=levels,
        classes=classes,
        mu=mu,
        A=A,
        M=M,
        N=averaging_period(levels),
        alphas=[frac(a) for a in alphas] + [frac(terminal)],
    )


def averaging_period(levels: list[HierarchyLevel]) -> int:
    """N: the product of the level-1 class periods, 1 without a level 1.  A
    class of period > 1 has no self-loop, so its rows leave exactly, on
    exponent-0 arcs only, and it is the same class with the same period in
    the sub-unit skeleton (arcs below exponent 1, surviving diagonals)."""
    return math.prod(levels[1].period.values()) if len(levels) > 1 else 1


def _node_name(node: Node) -> str:
    if len(node) == 1:
        return node[0]
    return "{" + ",".join(node) + "}"


def _mono_doc(m: Monomial) -> dict:
    return {"coeff": m.coeff, "exp": format_exponent(m.exp)}


def report(model: LimitModel) -> dict:
    """JSON-able document: thresholds, per-level structure, and the limit data
    (classes, mu, A, M row-major, N)."""
    levels_doc = []
    for lev in model.levels[1:]:
        levels_doc.append(
            {
                "alpha": format_exponent(lev.alpha),
                "classes": [
                    [_node_name(member) for member in lev.measures[node]]
                    for node in lev.recurrent_nodes
                ],
                "transient": [_node_name(t) for t in lev.transient_nodes],
                "measures": {
                    _node_name(node): {
                        _node_name(member): _mono_doc(m) for member, m in meas.items()
                    }
                    for node, meas in lev.measures.items()
                },
            }
        )
    return {
        "alphas": [format_exponent(a) for a in model.alphas],
        "levels": levels_doc,
        "classes": [list(node) for node in model.classes],
        "mu": model.mu.tolist(),
        "A": model.A.tolist(),
        "M": model.M.tolist(),
        "N": model.N,
    }


def parse_report(source) -> dict:
    """Validate a report document (dict or JSON text) and return it as a dict."""
    import json

    doc = json.loads(source) if isinstance(source, (str, bytes)) else source
    if not isinstance(doc, dict):
        raise InputError("report must be a JSON object")
    required = {"alphas", "levels", "classes", "mu", "A", "M", "N"}
    missing = required - set(doc)
    if missing:
        raise InputError(f"report is missing keys: {sorted(missing)}")
    extra = set(doc) - required
    if extra:
        raise InputError(f"report has unknown keys: {sorted(extra)}")
    if not isinstance(doc["alphas"], list) or not doc["alphas"]:
        raise InputError("report 'alphas' must be a nonempty list")
    if len(doc["levels"]) != len(doc["alphas"]) - 1:
        raise InputError("report 'levels' must have one entry per non-terminal alpha")
    if not isinstance(doc["N"], int) or doc["N"] < 1:
        raise InputError("report 'N' must be a positive integer")
    nclasses = len(doc["classes"])
    for key, rows, cols in (("mu", None, nclasses), ("A", nclasses, nclasses), ("M", nclasses, None)):
        mat = doc[key]
        if not isinstance(mat, list) or (rows is not None and len(mat) != rows):
            raise InputError(f"report {key!r} has the wrong shape")
        for r in mat:
            if not isinstance(r, list) or (cols is not None and len(r) != cols):
                raise InputError(f"report {key!r} has the wrong shape")
    return doc
