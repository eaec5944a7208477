"""Recurrence structure of monomial matrices.

Operations here work on sparse monomial matrices (dict of rows, off-diagonal
entries only) over arbitrary hashable nodes.  They provide the class
decomposition of a support graph and the two leading-order quantities of the
aggregation: invariant measures of recurrence classes and entrance laws of
transient nodes.  Both come from one Grassmann-Taksar-Heyman state reduction
run in the monomial semiring (`_eliminate`); it uses only + x / on
nonnegative terms, so its leading terms are exact, and its cost is
polynomial in the class size.  Coefficients are plain floats: a product or
quotient that underflows keeps its exponent, and no step drops a term.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .asymptotics import ONE, ZERO, Monomial, pair_sum
# the rules that the inlined steps below follow; the benchmark's span tracer
# (bench/spans.py) counts calls made through these names
from .asymptotics import mono_add, mono_div, mono_mul  # noqa: F401
from .errors import InternalError


@dataclass
class ClassDecomposition:
    """Recurrence classes (closed SCCs) and transient nodes of a support graph.

    Classes and members are ordered by first appearance in the input support;
    `period` maps each class to the gcd of its cycle lengths.
    """

    recurrent: list[tuple]
    transient: list
    period: dict[tuple, int]


def _sccs(nodes, succ_map, finished=()):
    """Iterative Tarjan; returns SCCs as lists (reverse topological order).
    Nodes in `finished` already form components of their own and are passed
    over, which is sound for nodes that reach nothing else (sinks).  A node
    is on the stack while it has a `low` entry."""
    index: dict = dict.fromkeys(finished, -1)
    low: dict = {}
    stack: list = []
    out: list[list] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ_map.get(root, ())))]
        while work:
            u, it = work[-1]
            for v in it:
                if v not in index:
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    work.append((v, iter(succ_map.get(v, ()))))
                    break
                if v in low:
                    iv = index[v]
                    if iv < low[u]:
                        low[u] = iv
            else:
                work.pop()
                lu = low[u]
                if work:
                    p = work[-1][0]
                    if lu < low[p]:
                        low[p] = lu
                if lu == index[u]:
                    comp = []
                    while True:
                        w = stack.pop()
                        del low[w]
                        comp.append(w)
                        if w == u:
                            break
                    out.append(comp)
    return out


def _class_period(members, succ_map):
    """gcd of cycle lengths within a strongly connected node set (1 for a
    single node, whose only possible cycle is its self-loop)."""
    if len(members) == 1:
        return 1
    mset = set(members)
    root = members[0]
    level = {root: 0}
    q = deque([root])
    while q:
        u = q.popleft()
        for v in succ_map.get(u, ()):
            if v in mset and v not in level:
                level[v] = level[u] + 1
                q.append(v)
    g = 0
    for u in members:
        for v in succ_map.get(u, ()):
            if v in mset:
                g = math.gcd(g, level[u] + 1 - level[v])
    return abs(g) if g else 1


def classify(support: dict) -> ClassDecomposition:
    """Split a support graph (adjacency with explicit self-loops) into closed
    recurrence classes and transient nodes.  A node whose only successor is
    itself is a finished one-node class; Tarjan runs on the other nodes."""
    pos = {u: i for i, u in enumerate(support)}
    recurrent = []
    transient = []
    period = {}
    sinks = []
    rest = []
    for u, vs in support.items():
        if len(vs) == 1 and u in vs:
            sinks.append(u)
            cls = (u,)
            recurrent.append(cls)
            period[cls] = 1
        else:
            rest.append(u)

    for comp in _sccs(rest, support, sinks):
        cset = set(comp)
        closed = all(v in cset for u in comp for v in support.get(u, ()))
        if closed:
            cls = tuple(sorted(comp, key=pos.__getitem__))
            recurrent.append(cls)
            # a self-loop is a cycle of length 1
            selfloop = any(u in support[u] for u in cls)
            period[cls] = 1 if selfloop else _class_period(list(cls), support)
        else:
            transient.extend(comp)
    recurrent.sort(key=lambda cls: pos[cls[0]])
    transient.sort(key=pos.__getitem__)
    return ClassDecomposition(recurrent=recurrent, transient=transient, period=period)


def _eliminate(rows: dict, order) -> list[tuple]:
    """Grassmann-Taksar-Heyman state reduction in the monomial semiring.

    Takes the nodes in `order` out of the graph `rows` one at a time; removing
    k turns every path i -> k -> j into an arc i -> j of weight
    w_ik * w_kj / s_k, with s_k the total exit of k at that moment, and drops
    self-arcs, only those: an arc whose coefficient underflowed to 0.0 keeps
    its place.  Returns one (k, out-arcs, in-arcs, s_k) record per removal,
    taken just before k leaves the graph; arcs to nodes without a row are
    kept and never removed.  Arcs and s_k are (coeff, exp) pairs (a
    `Monomial` reads as one); the semiring steps are written out inline.
    """
    out = {u: {v: m for v, m in row.items() if v != u} for u, row in rows.items()}
    inn: dict = {}
    for u, row in out.items():
        for v, m in row.items():
            inn.setdefault(v, {})[u] = m
    steps = []
    for k in order:
        succ = out.pop(k)
        pred = inn.pop(k, {})
        sc, se = pair_sum(succ.values())  # s_k
        if sc == 0.0:
            raise InternalError(f"node {k!r} has no exit left when it is eliminated")
        for j in succ:
            del inn[j][k]
        for i, (ci, ei) in pred.items():
            row = out[i]
            del row[k]
            for j, (cj, ej) in succ.items():
                if j == i:
                    continue
                # w_ij = mono_add(w_ij, mono_div(mono_mul(w_ik, w_kj), s_k))
                c, e = ci * cj / sc, ei + ej - se
                oc, oe = row.get(j, ZERO)
                if e < oe:
                    row[j] = inn[j][i] = (c, e)
                elif e == oe:
                    row[j] = inn[j][i] = (oc + c, oe)
        steps.append((k, succ, pred, (sc, se)))
    return steps


def invariant_measure(matrix: dict, cls) -> dict:
    """Leading-order invariant measure of a recurrence class, by eliminating
    every member but the first and back-substituting
    pi_k = sum_i pi_i w_ik / s_k (subtraction-free; exact exponents).

    Returns {member: Monomial} in member order; the mono_add-fold of the
    values is (1, 0).  A one-node class gets {u: ONE} without elimination.
    """
    members = list(cls)
    if not members:
        raise InternalError("empty class")
    if len(members) == 1:
        return {members[0]: ONE}
    mset = set(members)
    rows = {u: {v: m for v, m in matrix.get(u, {}).items() if v in mset} for u in members}
    pi = {members[0]: ONE}
    for k, _, pred, (sc, se) in reversed(_eliminate(rows, members[1:])):
        # pi_k = mono_div(mono_sum(mono_mul(pi_i, w_ik) for i), s_k)
        ac, ae = ZERO
        for i, (cw, ew) in pred.items():
            pc, pe = pi[i]
            c, e = pc * cw, pe + ew
            if e < ae:
                ac, ae = c, e
            elif e == ae:
                ac += c
        pi[k] = (ac / sc, ae - se)
    if any(c == 0.0 for c, _ in pi.values()):
        raise InternalError(
            "class is not strongly connected in the matrix support; "
            "no invariant measure exists"
        )
    # total = mono_sum(pi.values()), nonzero as every term is; then
    # mono_div(pi_u, total) for each member
    tc, te = pair_sum(pi.values())
    return {u: Monomial(pi[u][0] / tc, pi[u][1] - te) for u in members}


def scaled_law_terms(lim: float, row: dict, n_classes: int):
    """(class index, lim * weight) for every class at which lim times the
    sparse entrance-law row `row` can change a sum: the nonzero products,
    and, when lim is inf or nan, lim * 0.0 == nan at the classes `row`
    lacks, as a dense row would have it.  Entrance-law limits are at most 1,
    but `analyze` also scales law rows by aggregated exit coefficients,
    which can overflow to inf (1e170 * 1e170)."""
    if not math.isfinite(lim):
        row = {i: row.get(i, 0.0) for i in range(n_classes)}
    for i, w in row.items():
        x = lim * w
        if x != 0.0:
            yield i, x


def entrance_law(matrix: dict, decomposition: ClassDecomposition) -> dict:
    """Limit absorption probabilities into each recurrence class.

    Returns {node: {class index: weight}} for every node of the
    decomposition, classes indexed in `decomposition.recurrent` order and
    holding only the nonzero weights; class members get indicator rows
    {i: 1.0}.  The transient nodes are eliminated sources first (a feeder
    DAG then creates no arcs, and a leading-order trap needs no special
    case), and the removals are worked back with
    h_k = sum_j lim(w_kj / s_k) h_j, summed in arc order.

    Sources first, every predecessor of a transient SCC is gone before the
    SCC's first node is eliminated, so fill stays inside an SCC: a node that
    is its own SCC keeps its row, less self-arcs, as its out-arcs, and only
    SCCs of two or more nodes run `_eliminate`, on their own rows.  All
    eliminations come first, so that a node with no exit left is found in
    the same order as by one elimination of every transient.
    """
    classes = decomposition.recurrent
    law: dict = {}
    for i, cls in enumerate(classes):
        for u in cls:
            law[u] = {i: 1.0}

    transient = decomposition.transient
    rows = {u: matrix.get(u, {}) for u in transient}
    tset = set(transient)
    succ = {u: [v for v in rows[u] if v in tset] for u in transient}
    steps = []
    for comp in reversed(_sccs(transient, succ)):
        if len(comp) > 1:
            steps += _eliminate({u: rows[u] for u in comp}, comp)
            continue
        (k,) = comp
        out = {v: m for v, m in rows[k].items() if v != k}
        sc, se = pair_sum(out.values())  # s_k, as _eliminate forms it
        if sc == 0.0:
            raise InternalError(f"node {k!r} has no exit left when it is eliminated")
        steps.append((k, out, None, (sc, se)))
    for k, out, _, (sc, se) in reversed(steps):
        h: dict = {}
        for j, (c, e) in out.items():
            if j not in law:
                raise InternalError(f"arc {k!r} -> {j!r} leaves the decomposition")
            # mono_limit(mono_div(w_kj, s_k)): s_k is the pair_sum of these
            # arcs, so e >= se on every arc and no quotient diverges
            lim = c / sc if e == se else 0.0
            for i, x in scaled_law_terms(lim, law[j], len(classes)):
                h[i] = h.get(i, 0.0) + x
        law[k] = h
    return law
