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

from .asymptotics import ONE, ZERO, mono_add, mono_div, mono_limit, mono_mul, mono_sum
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
    kept and never removed.
    """
    out = {u: {v: m for v, m in row.items() if v != u and not m.is_zero()}
           for u, row in rows.items()}
    inn: dict = {}
    for u, row in out.items():
        for v, m in row.items():
            inn.setdefault(v, {})[u] = m
    steps = []
    for k in order:
        succ = out.pop(k)
        pred = inn.pop(k, {})
        s_k = mono_sum(succ.values())
        if s_k.is_zero():
            raise InternalError(f"node {k!r} has no exit left when it is eliminated")
        for j in succ:
            del inn[j][k]
        for i, w_ik in pred.items():
            row = out[i]
            del row[k]
            for j, w_kj in succ.items():
                if j != i:
                    w = mono_add(row.get(j, ZERO), mono_div(mono_mul(w_ik, w_kj), s_k))
                    row[j] = inn[j][i] = w
        steps.append((k, succ, pred, s_k))
    return steps


def invariant_measure(matrix: dict, cls) -> dict:
    """Leading-order invariant measure of a recurrence class, by eliminating
    every member but the first and back-substituting
    pi_k = sum_i pi_i w_ik / s_k (subtraction-free; exact exponents).

    The mono_add-fold of the returned values is (1, 0); a one-node class
    gets {u: ONE} without elimination.
    """
    members = list(cls)
    if not members:
        raise InternalError("empty class")
    if len(members) == 1:
        return {members[0]: ONE}
    mset = set(members)
    rows = {u: {v: m for v, m in matrix.get(u, {}).items() if v in mset} for u in members}
    pi = {members[0]: ONE}
    for k, _, pred, s_k in reversed(_eliminate(rows, members[1:])):
        pi[k] = mono_div(mono_sum(mono_mul(pi[i], w) for i, w in pred.items()), s_k)
    if any(v.is_zero() for v in pi.values()):
        raise InternalError(
            "class is not strongly connected in the matrix support; "
            "no invariant measure exists"
        )
    total = mono_sum(pi.values())
    return {u: mono_div(pi[u], total) for u in members}


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
    for k, out, _, s_k in reversed(_eliminate(rows, order)):
        h = np.zeros(len(classes))
        for j, w in out.items():
            if j not in law:
                raise InternalError(f"arc {k!r} -> {j!r} leaves the decomposition")
            h += mono_limit(mono_div(w, s_k)) * law[j]
        law[k] = h
    return law
