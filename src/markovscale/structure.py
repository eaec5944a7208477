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

from .asymptotics import ONE, ZERO, Monomial, _tuple_new, pair_sum
# the rules that the inlined steps below follow; the benchmark's span tracer
# (bench/spans.py) counts calls made through these names
from .asymptotics import mono_add, mono_div, mono_mul  # noqa: F401
from .errors import InternalError


def _node_error(template: str, *nodes) -> InternalError:
    """InternalError(template.format(*nodes)), `template` holding one `{!r}`
    per node.  It keeps the template and the nodes, so that a caller that
    runs these functions on node ids can restate it by name
    (`named_message`)."""
    exc = InternalError(template.format(*nodes))
    exc.template, exc.nodes = template, nodes
    return exc


def named_message(exc: InternalError, name) -> str:
    """The message of `exc` with name(node) in place of every node it
    names, where `_node_error` made it; str(exc) otherwise."""
    nodes = getattr(exc, "nodes", None)
    if nodes is None:
        return str(exc)
    return exc.template.format(*map(name, nodes))


@dataclass
class ClassDecomposition:
    """Recurrence classes (closed SCCs) and transient nodes of a support graph.

    Classes and members are ordered by first appearance in the input support;
    `period` maps each class to the gcd of its cycle lengths.
    """

    recurrent: list[tuple]
    transient: list
    period: dict[tuple, int]


def _sccs(nodes, succ_map, finished=(), leaky=None):
    """Iterative Tarjan; returns SCCs as lists (reverse topological order).
    Nodes in `finished` already form components of their own and are passed
    over, which is sound for nodes that reach nothing else (sinks).  A node
    is on the stack while it has a `low` entry.  A set `leaky`, if given,
    receives every node with an arc to another component: an arc to a node
    that is visited and off the stack, or to a child whose component closed
    before the node's own."""
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
            lu = low[u]
            for v in it:
                iv = index.get(v)
                if iv is None:
                    low[u] = lu
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    work.append((v, iter(succ_map.get(v, ()))))
                    break
                if v in low:
                    if iv < lu:
                        lu = iv
                elif leaky is not None:
                    leaky.add(u)
            else:
                work.pop()
                low[u] = lu
                if lu == index[u]:
                    comp = []
                    while True:
                        w = stack.pop()
                        del low[w]
                        comp.append(w)
                        if w == u:
                            break
                    out.append(comp)
                    if work and leaky is not None:
                        leaky.add(work[-1][0])
                elif work:
                    p = work[-1][0]
                    if lu < low[p]:
                        low[p] = lu
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

    leaky: set = set()
    for comp in _sccs(rest, support, sinks, leaky):
        if leaky.isdisjoint(comp):  # closed: no arc leaves the component
            cls = tuple(sorted(comp, key=pos.__getitem__))
            recurrent.append(cls)
            for u in cls:
                if u in support[u]:  # a self-loop is a cycle of length 1
                    period[cls] = 1
                    break
            else:
                period[cls] = _class_period(list(cls), support)
        else:
            transient.extend(comp)
    recurrent.sort(key=lambda cls: pos[cls[0]])
    transient.sort(key=pos.__getitem__)
    return ClassDecomposition(recurrent=recurrent, transient=transient, period=period)


def _eliminate(rows: dict, order, members=None) -> list[tuple]:
    """Grassmann-Taksar-Heyman state reduction in the monomial semiring.

    Takes the nodes in `order` out of the graph `rows` one at a time; removing
    k turns every path i -> k -> j into an arc i -> j of weight
    w_ik * w_kj / s_k, with s_k the total exit of k at that moment, and drops
    self-arcs, only those: an arc whose coefficient underflowed to 0.0 keeps
    its place.  Returns one (k, out-arcs, in-arcs, s_k) record per removal,
    taken just before k leaves the graph; arcs to nodes without a row are
    kept and never removed, unless `members` is given: then only the arcs
    to its nodes are read.  The out-arc and in-arc maps it works on are
    built in one pass over `rows`, which it never mutates.  Arcs and s_k are
    (coeff, exp) pairs (a `Monomial` reads as one); the semiring steps are
    written out inline.
    """
    out: dict = {}
    inn: dict = {}
    for u, row in rows.items():
        arcs = out[u] = {}
        for v, m in row.items():
            if v != u and (members is None or v in members):
                arcs[v] = m
                into = inn.get(v)
                if into is None:
                    inn[v] = {u: m}
                else:
                    into[u] = m
    steps = []
    for k in order:
        succ = out.pop(k)
        pred = inn.pop(k, {})
        sc, se = pair_sum(succ.values())  # s_k
        if sc == 0.0:
            raise _node_error("node {!r} has no exit left when it is eliminated", k)
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
    pi_k = sum_i pi_i w_ik / s_k (subtraction-free; exact exponents).  Only
    the arcs between members are read; the kernel's working maps are the
    one copy of them.

    Returns {member: Monomial} in member order; the mono_add-fold of the
    values is (1, 0).  A one-node class eliminates nothing and comes out as
    {u: Monomial(1.0, 0)}, int exponent and all; the aggregation ladder
    gives its one-node classes {u: ONE} itself and calls this for classes
    of two or more nodes only.
    """
    members = list(cls)
    if not members:
        raise InternalError("empty class")
    root = members[0]
    rows = {u: matrix.get(u, {}) for u in members}
    pi = {root: ONE}
    for k, _, pred, (sc, se) in reversed(_eliminate(rows, members[1:], rows)):
        # pi_k = mono_div(mono_sum(mono_mul(pi_i, w_ik) for i), s_k)
        ac, ae = ZERO
        for i, (cw, ew) in pred.items():
            pc, pe = pi[i]
            c, e = pc * cw, pe + ew
            if e < ae:
                ac, ae = c, e
            elif e == ae:
                ac += c
        c = ac / sc
        if c == 0.0:
            raise InternalError(
                "class is not strongly connected in the matrix support; "
                "no invariant measure exists"
            )
        pi[k] = (c, ae - se)
    # total = mono_sum(pi.values()), nonzero as every term is; then
    # mono_div(pi_u, total) for each member
    tc, te = pair_sum(pi.values())
    measure = {}
    for u in members:
        c, e = pi[u]
        measure[u] = _tuple_new(Monomial, (c / tc, e - te))
    return measure


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
    is its own SCC keeps its row, less self-arcs, as its out-arcs (the row
    itself when it has none), and only SCCs of two or more nodes run
    `_eliminate`, on their own rows.  All eliminations come first, so that a
    node with no exit left is found in the same order as by one elimination
    of every transient.
    """
    classes = decomposition.recurrent
    nclasses = len(classes)
    law: dict = {}
    for i, cls in enumerate(classes):
        for u in cls:
            law[u] = {i: 1.0}

    transient = decomposition.transient
    rows = {u: matrix.get(u, {}) for u in transient}
    succ = {u: [v for v in row if v in rows] for u, row in rows.items()}
    steps = []
    for comp in reversed(_sccs(transient, succ)):
        if len(comp) > 1:
            steps += _eliminate({u: rows[u] for u in comp}, comp)
            continue
        (k,) = comp
        out = rows[k]
        if k in out:
            out = {v: m for v, m in out.items() if v != k}
        sc, se = pair_sum(out.values())  # s_k, as _eliminate forms it
        if sc == 0.0:
            raise _node_error("node {!r} has no exit left when it is eliminated", k)
        steps.append((k, out, None, (sc, se)))
    for k, out, _, (sc, se) in reversed(steps):
        h: dict = {}
        for j, (c, e) in out.items():
            row = law.get(j)
            if row is None:
                raise _node_error("arc {!r} -> {!r} leaves the decomposition", k, j)
            # mono_limit(mono_div(w_kj, s_k)): s_k is the pair_sum of these
            # arcs, so e >= se on every arc and no quotient diverges
            lim = c / sc if e == se else 0.0
            for i, x in scaled_law_terms(lim, row, nclasses):
                h[i] = h.get(i, 0.0) + x
        law[k] = h
    return law
