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

from .asymptotics import INF, ONE, ZERO, Exponent, Monomial, PublicTable, format_exponent, parse_exponent
# the rules that build_level's inlined aggregation follows; the benchmark's
# span tracer (bench/spans.py) counts calls made through these names
from .asymptotics import mono_add, mono_mul  # noqa: F401
from .chain_model import PerturbedChain
from .errors import InputError, InternalError
from .structure import ClassDecomposition, classify, entrance_law, invariant_measure, scaled_law_terms

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

    The private fields hold what the next `build_level` reads of the level
    on the ladder's ticks.  A level without them (built elsewhere, or
    published by `analyze`) computes its leading orders on first use and
    counts every node as changed.
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
    #: node -> the leading order of its row, its minimum exit exponent
    #: (`_leading_order`)
    _lead: dict | None = field(default=None, compare=False, repr=False)
    #: the nodes the next level counts as changed whatever their minimum
    #: exit: the classes of two or more nodes this level created
    _fresh: list | None = field(default=None, compare=False, repr=False)


@dataclass
class LimitModel:
    """Asymptotic occupation structure of a perturbed chain.

    `entry[s]` is the class whose indicator row `mu[s]` is, and -1 where
    state s's entrance law splits over two or more classes; `split` lists
    those states' indices in increasing order.  Both are read off the
    entrance law once, by `analyze`."""

    chain: PerturbedChain
    levels: list[HierarchyLevel]
    classes: list[Node]
    mu: np.ndarray
    A: np.ndarray
    M: np.ndarray
    N: int
    entry: np.ndarray
    split: np.ndarray
    alphas: list[Exponent] = field(default_factory=list)

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def _base_level(chain: PerturbedChain) -> HierarchyLevel:
    """Level 0, every state a node: the chain's `tick_rows` keyed by node."""
    nodes = [(s,) for s in chain.states]
    node_of = dict(zip(chain.states, nodes))
    agg = {}
    lead = {}
    for s, row in chain.tick_rows.items():
        u = node_of[s]
        agg[u] = row = {node_of[d]: m for d, m in row.items()}
        lead[u] = _leading_order(row)
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
        _lead=lead,
    )


def _leading_order(row) -> Exponent:
    """The leading order of a row: its minimum exit exponent (inf for an
    empty row)."""
    emin = INF
    for _, e in row.values():
        if e < emin:
            emin = e
    return emin


def _leads(level: HierarchyLevel) -> dict:
    """The leading order of every row of the level, computed on first use
    where the level does not hold it yet."""
    if level._lead is None:
        level._lead = {u: _leading_order(row) for u, row in level.aggregated.items()}
    return level._lead


def next_threshold(level: HierarchyLevel) -> Exponent:
    """Smallest exit exponent among the level's recurrent nodes (inf if none)."""
    lead = _leads(level)
    return min((lead[u] for u in level.recurrent_nodes), default=INF)


def _level_support(rows, lead: dict, roots, alpha: Exponent, leaving) -> dict:
    """Leading-order support at threshold alpha of the nodes that `roots`
    reach in it, as lists of successors, from the rows and their leading
    orders `lead`: a row whose leading order is <= alpha contributes its
    arcs at that exponent, in row order, and every other row is absorbing.
    A row keeps its self-loop unless its leading order is 0 and its node is
    in `leaving`, the nodes of the exactly-leaving states (a merged node has
    none: its members' leading arcs stay in its class)."""
    support = {}
    todo = list(roots)
    while todo:
        u = todo.pop()
        if u in support:
            continue
        emin = lead[u]
        if emin <= alpha:
            succ = [v for v, (_, e) in rows[u].items() if e == emin]
            todo.extend(succ)
            if emin != 0 or u not in leaving:
                succ.append(u)
        else:
            succ = [u]
        support[u] = succ
    return support


def _merge_nodes(members, state_order: dict) -> Node:
    merged = []
    for node in members:
        merged.extend(node)
    return tuple(sorted(merged, key=state_order.__getitem__))


def build_level(previous: HierarchyLevel, alpha: Exponent, chain: PerturbedChain) -> HierarchyLevel:
    """Aggregate the previous level at threshold alpha.

    Only the nodes that a changed node reaches in the support are
    classified.  A node is changed if the previous level created it (a class
    of two or more nodes), or if its minimum exit exponent lies in (previous
    alpha, alpha]; on a level that does not record what it created, the
    base level included, every node is changed.  Every other node keeps its
    status: a transient stays transient, and a one-node class stays one,
    with period 1.  This is sound.  An SCC that no changed node reaches
    consists of unchanged rows.  Their arcs lead either to merged nodes,
    which lie outside the SCC, or to the same nodes as before, so the SCC
    and whether it is closed are unchanged.  A row rebuilt only because its
    targets merged keeps its leading order: the fold never drops a term.
    Nodes reached from a changed node form a set closed under the
    support, so `classify` on it finds their SCCs as on the whole level.

    Each table is built once.  A one-node class gets period 1 and the
    measure row {u: ONE} without the kernel.  A class of two or more nodes
    hands its members' arcs at exponent <= alpha to `invariant_measure`,
    whose kernel keeps those between members in its one working copy.  A
    node that stays itself (a one-node class or a transient) keeps the
    previous level's row object, and its leading order, when none of its
    targets merged.  Every other row is built anew by one fold, with its
    leading order the least exponent folded in: a class of two or more
    nodes folds its members' rows weighted by its measure, and a node that
    stays itself folds its own row weighted by ONE.  So a level at which no
    class of two or more nodes forms keeps the previous node order and
    every row object.  Rows are never mutated once built, so levels may
    share them."""
    Q = previous.aggregated
    lead = _leads(previous)
    state_order = chain.index

    if previous._fresh is None:
        changed = previous.nodes
    else:
        low = previous.alpha
        changed = [u for u, e in lead.items() if low < e <= alpha]
        changed.extend(previous._fresh)
    leaving = {(s,) for s in chain.leaving}
    reached = _level_support(Q, lead, changed, alpha, leaving)
    decomp = classify({u: reached[u] for u in previous.nodes if u in reached})
    # the unreached nodes keep their status; merged in node order, which is
    # classify's order
    first = {cls[0]: cls for cls in decomp.recurrent if len(cls) > 1}
    transient = set(decomp.transient)
    transient.update(t for t in previous.transient_nodes if t not in reached)

    parent: dict[Node, Node] = {}
    new_nodes: list[Node] = []
    recurrent_nodes: list[Node] = []
    transient_nodes: list[Node] = []
    period: dict[Node, int] = {}
    measures: dict[Node, dict[Node, Monomial]] = {}
    merged: dict[Node, tuple] = {}  # node -> class, for the classes of 2+ nodes
    moved: set[Node] = set()  # the previous nodes in those classes

    # nodes stay in state order: the previous nodes are in it, each a sorted
    # run of states, and a class of two or more nodes takes the place of its
    # first member, which holds its least state
    for u in previous.nodes:
        if u in transient:
            new_nodes.append(u)
            transient_nodes.append(u)
            continue
        cls = first.get(u)
        if cls is None:
            if u in moved:
                continue  # a later member of a class already taken
            node = parent[u] = u  # a one-node class
            measures[u] = {u: ONE}
            period[u] = 1
        else:
            node = _merge_nodes(cls, state_order)
            for member in cls:
                parent[member] = node
            merged[node] = cls
            moved.update(cls)
            period[node] = decomp.period[cls]
            # the kernel reads the arcs between members at exponent <= alpha
            # only; its one pass over these rows keeps the members' arcs
            rows = {z: {v: m for v, m in Q[z].items() if m[1] <= alpha} for z in cls}
            try:
                measures[node] = invariant_measure(rows, cls)
            except InternalError as exc:
                raise InternalError(
                    f"level {previous.index + 1}, class {_node_name(node)}: {exc}"
                ) from exc
        new_nodes.append(node)
        recurrent_nodes.append(node)

    for t in transient_nodes:  # after the class members, as classify lists them
        parent[t] = t

    # one fold builds every row that is not kept as it is: a class of two or
    # more nodes weighs its members' rows by its measure, a node that stays
    # itself (a one-node class or a transient) its own row by ONE, which
    # leaves every bit (1.0 * c == c, 0 + e == e); rows hold no self-arcs,
    # so only a class's arcs between members are dropped.  The steps of
    # mono_add and mono_mul are written out inline on (coeff, exp) pairs
    agg: dict[Node, dict[Node, tuple]] = {}
    new_lead: dict[Node, Exponent] = {}
    for u in new_nodes:
        if u not in merged and moved.isdisjoint(Q[u]):
            agg[u] = Q[u]  # no target merged: the row and its leading order stay
            new_lead[u] = lead[u]
            continue
        acc = {}
        emin = INF  # the least exponent folded in is the row's leading order
        for z, (pc, pe) in (measures[u] if u in merged else {u: ONE}).items():
            for v, (c, e) in Q[z].items():
                tgt = parent[v]
                if tgt != u:
                    # acc[tgt] = mono_add(acc[tgt], mono_mul(pi_z, m))
                    c, e = pc * c, pe + e
                    oc, oe = acc.get(tgt, ZERO)
                    if e < oe:
                        acc[tgt] = (c, e)
                        if e < emin:
                            emin = e
                    elif e == oe:
                        acc[tgt] = (oc + c, oe)
        agg[u] = acc
        new_lead[u] = emin

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
        _lead=new_lead,
        _fresh=list(merged),
    )


def analyze(chain: PerturbedChain) -> LimitModel:
    """Run the aggregation ladder to termination and assemble mu, A, M, N.

    The ladder builds at most 2n - 2 levels on an n-state chain: the count
    of nodes plus recurrent nodes, 2n at level 0 and at least 2 on any
    level, falls at every level, because the node at the threshold either
    joins a class of two or more nodes or turns transient."""
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
    guard = 2 * chain.n_states  # covers 2n - 2 levels and the step that ends the ladder
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
        for node in current._fresh:  # the classes of two or more nodes
            for child, (c, e) in current.measures[node].items():
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

    # law rows are sparse {class index: weight}; the states of an indicator
    # row {i: 1.0} get entry i and their 1.0 in one assignment at the end,
    # every other row is written into mu as it is
    index = chain.index
    mu = np.zeros((n, nclasses))
    entry = [-1] * n
    for node in final.nodes:
        row = law[node]
        if len(row) == 1 and 1.0 in row.values():
            (i,) = row
            for s in node:
                entry[index[s]] = i
        else:
            cols, weights = list(row), list(row.values())
            for s in node:
                mu[index[s], cols] = weights
    entry = np.array(entry, dtype=np.intp)
    split = np.flatnonzero(entry < 0)
    held = np.flatnonzero(entry >= 0)
    mu[held, entry[held]] = 1.0

    A = np.zeros((nclasses, nclasses))
    for i, node in enumerate(classes):
        for v, (c, e) in final.aggregated[node].items():
            if e < D:
                raise InternalError(
                    f"level {final.index}: recurrent node {_node_name(node)} keeps the "
                    f"sub-unit exit exponent {fmt(e)} to {_node_name(v)} at termination"
                )
            if e == D:
                for j, x in scaled_law_terms(c, law[v], nclasses):
                    A[i, j] += x
        A[i, i] = 0.0  # the diagonal is minus the off-diagonal row sum
        A[i, i] = -A[i].sum()

    M = np.zeros((nclasses, n))
    for i, node in enumerate(classes):
        for s in node:
            if weight_exp[s] == 0:
                M[i, chain.index[s]] = weight_coeff[s]

    for level in levels:
        level._lead = level._fresh = None  # on ticks; a published level has none
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
        entry=entry,
        split=split,
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


_LEVEL_KEYS = {"alpha", "classes", "transient", "measures"}


def _names(value) -> bool:
    """Whether a report value is a list of names."""
    return isinstance(value, list) and all(isinstance(s, str) for s in value)


def parse_report(source) -> dict:
    """Validate a report document (dict or JSON text) and return it as a dict.
    Any malformed document, invalid JSON text included, raises `InputError`."""
    import json

    try:
        doc = json.loads(source) if isinstance(source, (str, bytes)) else source
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise InputError(f"report is not valid JSON: {exc}") from None
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
    if not isinstance(doc["levels"], list) or len(doc["levels"]) != len(doc["alphas"]) - 1:
        raise InputError("report 'levels' must have one entry per non-terminal alpha")
    if not isinstance(doc["classes"], list):
        raise InputError("report 'classes' must be a list")
    for i, lev in enumerate(doc["levels"]):
        if not isinstance(lev, dict) or lev.keys() != _LEVEL_KEYS:
            raise InputError(f"report 'levels'[{i}] must be an object with the keys "
                             "alpha, classes, transient and measures")
    if type(doc["N"]) is not int or doc["N"] < 1:  # True is an int too
        raise InputError("report 'N' must be a positive integer")
    alphas = []
    for i, a in enumerate(doc["alphas"]):
        try:
            alphas.append(parse_exponent(a))
        except ValueError:
            raise InputError(f"report 'alphas' holds {a!r}, which is not an exponent") from None
        if i and not alphas[i] > alphas[i - 1]:
            raise InputError(f"report 'alphas'[{i}] does not exceed 'alphas'[{i - 1}]")
    for i, cls in enumerate(doc["classes"]):
        if not cls or not _names(cls):
            raise InputError(f"report 'classes'[{i}] must be a nonempty list of names")
    for i, lev in enumerate(doc["levels"]):
        try:
            same = parse_exponent(lev["alpha"]) == alphas[i]
        except ValueError:
            same = False
        if not same:
            raise InputError(f"report 'levels'[{i}] has an 'alpha' other than 'alphas'[{i}]")
        classes = lev["classes"]
        if (not isinstance(classes, list) or not all(c and _names(c) for c in classes)
                or not _names(lev["transient"]) or not isinstance(lev["measures"], dict)):
            raise InputError(f"report 'levels'[{i}] has a malformed 'classes', 'transient' "
                             "or 'measures'")
    nclasses = len(doc["classes"])
    _check_report_matrix(doc, "mu", None, nclasses)
    _check_report_matrix(doc, "A", nclasses, nclasses)
    _check_report_matrix(doc, "M", nclasses, len(doc["mu"]))
    _check_report_levels(doc)
    return doc


def _check_report_matrix(doc: dict, key: str, rows: int | None, cols: int) -> None:
    """The report's matrix `key` is a list of `rows` rows (any number for
    None), each a list of `cols` finite numbers."""
    mat = doc[key]
    if not isinstance(mat, list) or (rows is not None and len(mat) != rows):
        raise InputError(f"report {key!r} has the wrong shape")
    for r in mat:
        if not isinstance(r, list) or len(r) != cols:
            raise InputError(f"report {key!r} has the wrong shape")
        for x in r:
            if not _finite_number(x):
                raise InputError(f"report {key!r} holds {x!r}, which is not a finite number")


def _check_report_levels(doc: dict) -> None:
    """The level entries of a report fit together as `report` writes them:
    each level's measures hold one entry per class, keyed by that class's
    members and holding `{coeff, exp}` monomials; the first level's members
    and transients are the len(mu) distinct states; each later level's are
    the previous level's class nodes (its `measures` keys) and transients;
    and the final classes hold states.  Key order is not checked: the CLI
    writes reports with sorted keys."""
    names = None
    for i, lev in enumerate(doc["levels"]):
        where = f"report 'levels'[{i}]"
        classes, measures = lev["classes"], lev["measures"]
        if not all(isinstance(meas, dict) for meas in measures.values()) or (
            sorted(sorted(meas) for meas in measures.values()) != sorted(sorted(cls) for cls in classes)
        ):
            raise InputError(f"{where} 'measures' must hold one entry per class, "
                             "keyed by the class's members")
        for node, meas in measures.items():
            for member, m in meas.items():
                if not _is_monomial_doc(m):
                    raise InputError(f"{where} measure of {member!r} in {node!r} must be an "
                                     "object with a finite 'coeff' and an exponent 'exp'")
        here = [u for cls in classes for u in cls] + lev["transient"]
        if names is None:
            if len(set(here)) != len(here) or len(here) != len(doc["mu"]):
                raise InputError(f"{where} members and transients must be the "
                                 f"{len(doc['mu'])} distinct states")
            states = set(here)
        elif sorted(here) != sorted(names):
            raise InputError(f"{where} members and transients must be the class nodes "
                             f"and transients of 'levels'[{i - 1}]")
        names = list(measures) + lev["transient"]
    if names is not None:
        for j, cls in enumerate(doc["classes"]):
            for u in cls:
                if u not in states:
                    raise InputError(f"report 'classes'[{j}] holds {u!r}, "
                                     "which is not a state of 'levels'[0]")


def _finite_number(x) -> bool:
    """Whether a report value is an int or a finite float.  True is an int
    too, and json.loads reads NaN and Infinity as floats."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    return not isinstance(x, float) or math.isfinite(x)


def _is_monomial_doc(m) -> bool:
    """Whether a report value is a `{coeff, exp}` monomial: a finite number
    and an exponent string."""
    if not isinstance(m, dict) or m.keys() != {"coeff", "exp"} or not _finite_number(m["coeff"]):
        return False
    try:
        parse_exponent(m["exp"])
    except ValueError:
        return False
    return True
