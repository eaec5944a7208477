"""Recurrence structure of monomial matrices.

Operations here work on sparse monomial matrices (dict of rows, off-diagonal
entries only) over arbitrary hashable nodes.  They provide the class
decomposition of a support graph and the two leading-order quantities of the
aggregation: invariant measures of recurrence classes and entrance laws of
transient nodes.  Both come from one Grassmann-Taksar-Heyman state reduction
run in the monomial semiring (`_eliminate`); it uses only + x / on
nonnegative terms, so its leading terms are exact, and its cost is
polynomial in the class size.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .asymptotics import ONE, ZERO, Monomial
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
    over, which is sound for nodes that reach nothing else (sinks)."""
    index: dict = dict.fromkeys(finished, -1)
    low: dict = {}
    onstack: dict = {}
    stack: list = []
    out: list[list] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack[root] = True
        work = [(root, iter(succ_map.get(root, ())))]
        while work:
            u, it = work[-1]
            pushed = False
            for v in it:
                if v not in index:
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    onstack[v] = True
                    work.append((v, iter(succ_map.get(v, ()))))
                    pushed = True
                    break
                if onstack.get(v):
                    low[u] = min(low[u], index[v])
            if pushed:
                continue
            work.pop()
            if work:
                p = work[-1][0]
                low[p] = min(low[p], low[u])
            if low[u] == index[u]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack[w] = False
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
            period[cls] = _class_period(list(cls), support)
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
    self-arcs.  Returns one (k, out-arcs, in-arcs, s_k) record per removal,
    taken just before k leaves the graph; arcs to nodes without a row are
    kept and never removed.  Arcs and s_k are (coeff, exp) pairs (a
    `Monomial` reads as one); the semiring steps are written out inline.
    """
    out = {u: {v: m for v, m in row.items() if v != u and m[0] != 0.0}
           for u, row in rows.items()}
    inn: dict = {}
    for u, row in out.items():
        for v, m in row.items():
            inn.setdefault(v, {})[u] = m
    steps = []
    for k in order:
        succ = out.pop(k)
        pred = inn.pop(k, {})
        # s_k = mono_sum(succ.values())
        sc, se = ZERO
        for c, e in succ.values():
            if e < se:
                sc, se = c, e
            elif e == se:
                sc, se = (sc + c, se) if sc != 0.0 else ZERO
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
                c = ci * cj if ci != 0.0 and cj != 0.0 else 0.0
                c, e = (c / sc, ei + ej - se) if c != 0.0 else ZERO
                oc, oe = row.get(j, ZERO)
                if e < oe:
                    row[j] = inn[j][i] = (c, e)
                elif e == oe:
                    row[j] = inn[j][i] = (oc + c, oe) if oc != 0.0 else ZERO
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
            c, e = (pc * cw, pe + ew) if pc != 0.0 and cw != 0.0 else ZERO
            if e < ae:
                ac, ae = c, e
            elif e == ae:
                ac, ae = (ac + c, ae) if ac != 0.0 else ZERO
        pi[k] = (ac / sc, ae - se) if ac != 0.0 else ZERO
    if any(c == 0.0 for c, _ in pi.values()):
        raise InternalError(
            "class is not strongly connected in the matrix support; "
            "no invariant measure exists"
        )
    # total = mono_sum(pi.values()), nonzero as every term is; then
    # mono_div(pi_u, total) for each member
    tc, te = ZERO
    for c, e in pi.values():
        if e < te:
            tc, te = c, e
        elif e == te:
            tc, te = (tc + c, te) if tc != 0.0 else ZERO
    return {u: Monomial(pi[u][0] / tc, pi[u][1] - te) for u in members}


def entrance_law(matrix: dict, decomposition: ClassDecomposition) -> dict:
    """Limit absorption probabilities into each recurrence class.

    Returns {node: numpy row over classes} for every node of the
    decomposition; class members get indicator rows.  The transient nodes are
    eliminated sources first (a feeder DAG then creates no arcs, and a
    leading-order trap needs no special case), and the removals are worked
    back with h_k = sum_j lim(w_kj / s_k) h_j.
    """
    classes = decomposition.recurrent
    law: dict = {}
    for i, cls in enumerate(classes):
        for u in cls:
            law[u] = np.zeros(len(classes))
            law[u][i] = 1.0

    transient = decomposition.transient
    rows = {u: matrix.get(u, {}) for u in transient}
    tset = set(transient)
    succ = {u: [v for v in rows[u] if v in tset] for u in transient}
    order = [u for comp in reversed(_sccs(transient, succ)) for u in comp]
    for k, out, _, (sc, se) in reversed(_eliminate(rows, order)):
        h = np.zeros(len(classes))
        for j, (c, e) in out.items():
            if j not in law:
                raise InternalError(f"arc {k!r} -> {j!r} leaves the decomposition")
            # mono_limit(mono_div(w_kj, s_k))
            if c != 0.0:
                c, e = c / sc, e - se
            if c == 0.0 or e > 0:
                lim = 0.0
            elif e == 0:
                lim = c
            else:
                raise ValueError(f"monomial {Monomial(c, e)!r} diverges as lam -> 0")
            h += lim * law[j]
        law[k] = h
    return law
