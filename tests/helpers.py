"""Shared test utilities: fixture paths, random chain generators, numeric oracles."""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from markovscale import (
    ONE,
    ZERO,
    ChainFormatError,
    HierarchyLevel,
    InternalError,
    LimitModel,
    Monomial,
    chain_from_entries,
    monomial,
    structure,
)
from markovscale.asymptotics import (
    mono_add,
    mono_div,
    mono_eval,
    mono_limit,
    mono_mul,
    mono_sum,
    parse_exponent,
)
from markovscale.chain_model import leaves_exactly, read_number
from markovscale.evaluator import occupation, position
from markovscale.games import load_game
from markovscale.hierarchy import build_level, next_threshold
from markovscale.structure import classify

FIXTURES = Path(__file__).resolve().parent / "fixtures"
CHAIN_FIXTURES = ("eightstate", "eightstate_primes", "funnel_delayed", "funnel_instant",
                  "twostate_half", "twostate_heavy", "twostate_swap", "twostate_unit")
GAME_FIXTURES = ("game_pure", "game_switch")

# exponent grid used by the randomized suites
EXPONENT_POOL = (
    Fraction(0),
    Fraction(1, 5),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(1),
    Fraction(3, 2),
    Fraction(2),
)

# exponents with pairwise coprime denominators, so that the common
# denominator of a chain drawn from them is large (up to 2 * 7 * 11 * 13)
COPRIME_POOL = (
    Fraction(0),
    Fraction(1, 7),
    Fraction(2, 11),
    Fraction(3, 13),
    Fraction(1, 2),
    Fraction(1),
    Fraction(3, 2),
)


#: relative tolerance for comparing monomial coefficients in tests
COEFF_RTOL = 1e-9


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def mono_close(a, b, rtol: float = COEFF_RTOL) -> bool:
    """Equality up to coefficient noise: exponents exact, coefficients within rtol."""
    if a.is_zero() and b.is_zero():
        return True
    if a.exp != b.exp:
        return False
    scale = max(abs(a.coeff), abs(b.coeff))
    return abs(a.coeff - b.coeff) <= rtol * scale


def exp0_mass(row: dict) -> float:
    """Reference: the sum of the exponent-0 coefficients of a row of
    monomials, in row order."""
    return sum(m.coeff for m in row.values() if m.exp == 0)


def is_exactly_leaving(row: dict) -> bool:
    """Reference surviving-diagonal rule on a row of monomials: `leaves_exactly`
    of its exponent-0 mass."""
    return leaves_exactly(exp0_mass(row))


def support_graph(matrix: dict) -> dict:
    """Full-support adjacency of a monomial matrix, adding a self-loop wherever
    the implied diagonal survives (exponent-0 off-diagonal mass < 1)."""
    adj = {}
    for u, row in matrix.items():
        row = {v: m for v, m in row.items() if v != u and not m.is_zero()}
        adj[u] = set(row) if is_exactly_leaving(row) else set(row) | {u}
    return adj


def random_chain(rng: np.random.Generator, max_states: int = 6, pool=EXPONENT_POOL):
    """A small valid chain with exponents drawn from `pool`.

    Rows come in three flavours: absorbing, exactly leaving (exponent-0 mass
    summing to one), and leaking rows whose exponent-0 mass is kept <= 0.85 so
    the implied diagonal stays positive at moderate lambda.
    """
    n = int(rng.integers(2, max_states + 1))
    states = [f"s{i}" for i in range(n)]
    entries = {}
    for src in states:
        others = [s for s in states if s != src]
        if rng.random() < 0.2:
            continue
        k = int(rng.integers(1, min(3, len(others)) + 1))
        targets = [str(t) for t in rng.choice(others, size=k, replace=False)]
        exps = [pool[int(rng.integers(len(pool)))] for _ in targets]
        coeffs = rng.uniform(0.1, 1.0, size=k)
        zero_idx = [j for j, e in enumerate(exps) if e == 0]
        if zero_idx:
            if len(zero_idx) == k and rng.random() < 0.4:
                coeffs = coeffs / coeffs.sum()
            else:
                mass = float(sum(coeffs[j] for j in zero_idx))
                if mass > 0.85:
                    for j in zero_idx:
                        coeffs[j] *= 0.85 / mass
        for tgt, e, c in zip(targets, exps, coeffs):
            entries[(src, tgt)] = monomial(float(c), e)
    return chain_from_entries(states, entries)


def random_periodic_chain(rng: np.random.Generator):
    """Zero to three exactly-leaving blocks plus one to four feeder states.

    Block rows carry exponent-0 arcs only, with coefficients summing to one,
    in one of three shapes: a directed cycle, a bipartite graph (every arc
    crosses between two sides) or a cycle with chords, so most blocks have a
    period > 1.  A quarter of the blocks get one more exponent-0 arc out to a
    feeder, which opens them.  Feeder rows are absorbing, exactly leaving,
    or draw one to three arcs to any state with exponents from
    `EXPONENT_POOL`, keeping their exponent-0 mass <= 0.85.
    """
    feeders = [f"f{i}" for i in range(int(rng.integers(1, 5)))]
    blocks = [
        [f"b{b}_{i}" for i in range(int(rng.integers(2, 7)))]
        for b in range(int(rng.integers(0, 4)))
    ]
    states = feeders + [s for block in blocks for s in block]
    targets: dict = {}  # block state -> its exponent-0 targets
    for block in blocks:
        k = len(block)
        shape = int(rng.integers(3))
        if shape == 1 and k > 2:
            h = int(rng.integers(1, k))
            sides = (block[:h], block[h:])
            for side, other in (sides, sides[::-1]):
                for u in side:
                    m = int(rng.integers(1, len(other) + 1))
                    targets[u] = {str(v) for v in rng.choice(other, size=m, replace=False)}
        else:
            for i, u in enumerate(block):
                targets[u] = {block[(i + 1) % k]}
            if shape == 2 and k > 2:
                for _ in range(int(rng.integers(1, 3))):
                    i, d = int(rng.integers(k)), int(rng.integers(2, k))
                    targets[block[i]].add(block[(i + d) % k])
        if rng.random() < 0.25:
            targets[str(rng.choice(block))].add(str(rng.choice(feeders)))
    entries = {}
    for u, vs in targets.items():
        coeffs = rng.uniform(0.1, 1.0, size=len(vs))
        for v, c in zip(sorted(vs), coeffs / coeffs.sum()):
            entries[(u, v)] = monomial(float(c), Fraction(0))
    for src in feeders:
        others = [s for s in states if s != src]
        kind = rng.random()
        if kind < 0.2 or not others:
            continue
        k = int(rng.integers(1, min(3, len(others)) + 1))
        dsts = [str(t) for t in rng.choice(others, size=k, replace=False)]
        coeffs = rng.uniform(0.1, 1.0, size=k)
        if kind < 0.35:
            exps = [Fraction(0)] * k
            coeffs = coeffs / coeffs.sum()
        else:
            exps = [EXPONENT_POOL[int(rng.integers(len(EXPONENT_POOL)))] for _ in dsts]
            mass = sum(c for c, e in zip(coeffs, exps) if e == 0)
            if mass > 0.85:
                coeffs = [c * 0.85 / mass if e == 0 else c for c, e in zip(coeffs, exps)]
        for v, c, e in zip(dsts, coeffs, exps):
            entries[(src, v)] = monomial(float(c), e)
    order = [str(s) for s in rng.permutation(states)]
    return chain_from_entries(order, entries)


def random_nested_chain(rng: np.random.Generator, depth: int = 3):
    """2**depth states in nested pairs: at level k the two halves of every
    block of 2**k states are joined both ways by one arc of exponent
    (k - 1) / depth.  Every state climbs through `depth` classes of two
    nodes, each with an exponent-0 measure, so its column of M is a product
    of `depth` coefficients."""
    n = 2**depth
    states = [f"n{i}" for i in range(n)]
    entries = {}
    for k in range(1, depth + 1):
        size = 2**k
        for start in range(0, n, size):
            left = states[start:start + size // 2]
            right = states[start + size // 2:start + size]
            for a, b in ((left, right), (right, left)):
                src, dst = str(rng.choice(a)), str(rng.choice(b))
                c = float(rng.uniform(0.1, 0.45))
                entries[(src, dst)] = monomial(c, Fraction(k - 1, depth))
    return chain_from_entries(states, entries)


def sub_unit_skeleton(chain) -> dict:
    """Adjacency of the sub-unit skeleton: arcs with exponent < 1, plus a
    self-loop wherever the implied diagonal survives in the limit (the row is
    not exactly leaving)."""
    adj = {}
    for s in chain.states:
        row = chain.row(s)
        succ = {d for d, m in row.items() if m.exp < 1}
        if not is_exactly_leaving(row):
            succ.add(s)
        adj[s] = succ
    return adj


def averaging_period(chain) -> int:
    """Reference N, from a classification of the whole chain's sub-unit
    skeleton: the product of the periods of its recurrence classes."""
    return math.prod(classify(sub_unit_skeleton(chain)).period.values())


def random_critical_chain(rng: np.random.Generator):
    """Exponent-1 ring (plus chords) with tiny exponent-3/2 noise; 3-5 states.

    The noise coefficients are deliberately two orders of magnitude below the
    rates: an exponent-3/2 entry perturbs the finite-lambda position at the
    lambda^(1/2) scale, so it must stay below the O(lambda) discretization
    term for the first-order convergence of the rate matrix to be observable
    down to lambda = 1e-4.
    """
    n = int(rng.integers(3, 6))
    states = [f"c{i}" for i in range(n)]
    entries = {}
    for i, src in enumerate(states):
        ring = states[(i + 1) % n]
        entries[(src, ring)] = monomial(float(rng.uniform(0.5, 0.9)), Fraction(1))
        others = [s for s in states if s not in (src, ring)]
        if others and rng.random() < 0.4:
            chord = str(rng.choice(others))
            entries[(src, chord)] = monomial(float(rng.uniform(0.2, 0.5)), Fraction(1))
        rest = [s for s in others if (src, s) not in entries]
        if rest and rng.random() < 0.8:
            noise = str(rng.choice(rest))
            entries[(src, noise)] = monomial(float(rng.uniform(1e-4, 5e-4)), Fraction(3, 2))
    return chain_from_entries(states, entries)


def critical_generator(chain) -> np.ndarray:
    """Rate matrix read off the exponent-1 coefficients (zero elsewhere)."""
    n = chain.n_states
    A = np.zeros((n, n))
    for (src, dst), mono in chain.entries.items():
        if mono.exp == 1:
            A[chain.index[src], chain.index[dst]] = mono.coeff
    np.fill_diagonal(A, 0.0)
    A[np.diag_indices(n)] = -A.sum(axis=1)
    return A


def random_absorbing_chain(rng: np.random.Generator, e: Fraction):
    """One active origin row with minimal exponent e; every other state frozen.

    Roughly a third of the chains get an extra slower arc (exponent e + 1/2)
    to a state outside the attaining set.
    """
    n = int(rng.integers(3, 6))
    states = [f"a{i}" for i in range(n)]
    origin = states[0]
    others = states[1:]
    k = int(rng.integers(1, len(others) + 1))
    targets = [str(t) for t in rng.choice(others, size=k, replace=False)]
    entries = {}
    for tgt in targets:
        entries[(origin, tgt)] = monomial(float(rng.uniform(0.2, 1.0)), e)
    rest = [s for s in others if s not in targets]
    if rest and rng.random() < 0.35:
        slow = str(rng.choice(rest))
        entries[(origin, slow)] = monomial(float(rng.uniform(0.2, 0.8)), e + Fraction(1, 2))
    return chain_from_entries(states, entries)


def random_trap_chain(rng: np.random.Generator):
    """A transient set held together by exponent-0 arcs, leaking at 1/2 or 1.

    The leak exponents keep a gap of at least 1/2 from the holding arcs, so
    numeric absorption converges at the lambda^(1/2) scale.  Every trap state
    leaks at exponent 1/2 with a coefficient of order one: the finite-lambda
    occupation of the trap is about lambda^(1/2) divided by the mean leak
    rate, and weak leaks would push that residue past the tolerance the
    sweeps are verified at.  Occasional exponent-1 leaks are layered on top;
    they only shorten the trap's lifetime.
    """
    n_targets = int(rng.integers(2, 4))
    n_trap = int(rng.integers(2, 4))
    targets = [f"g{i}" for i in range(n_targets)]
    trap = [f"t{i}" for i in range(n_trap)]
    states = ["entry"] + trap + targets
    entries = {}
    for i, u in enumerate(trap):
        v = trap[(i + 1) % n_trap]
        entries[(u, v)] = monomial(float(rng.uniform(0.3, 0.6)), Fraction(0))
    for i, u in enumerate(trap):
        tgt = str(rng.choice(targets))
        entries[(u, tgt)] = monomial(float(rng.uniform(0.6, 1.2)), Fraction(1, 2))
        spare = [g for g in targets if g != tgt]
        if spare and rng.random() < 0.4:
            slow = str(rng.choice(spare))
            entries[(u, slow)] = monomial(float(rng.uniform(0.05, 0.3)), Fraction(1))
    heads = [str(t) for t in rng.choice(trap, size=min(2, n_trap), replace=False)]
    if rng.random() < 0.4:
        heads.append(str(rng.choice(targets)))
    w = rng.uniform(0.1, 0.5, size=len(heads))
    w = 0.9 * w / w.sum()
    for s, c in zip(heads, w):
        entries[("entry", s)] = monomial(float(c), Fraction(0))
    return chain_from_entries(states, entries)


def arborescence_measure(matrix: dict, cls) -> dict:
    """Reference invariant measure by the Markov-chain-tree formula: the
    weight of u is the mono_add over spanning arborescences directed toward u
    of the mono_mul of their arc monomials.  Exponential in the class size,
    so it is limited to classes of at most 7 states."""
    members = list(cls)
    if len(members) > 7:
        raise ValueError(f"reference enumeration is limited to 7 states, got {len(members)}")
    mset = set(members)
    arcs = {
        u: [(v, m) for v, m in matrix.get(u, {}).items() if v in mset and v != u and not m.is_zero()]
        for u in members
    }

    def tree_sum(root):
        others = [u for u in members if u != root]
        choice: dict = {}
        total = ZERO

        def creates_cycle(u, v):
            w = v
            while w in choice:
                w = choice[w]
                if w == u:
                    return True
            return False

        def rec(i, acc):
            nonlocal total
            if i == len(others):
                total = mono_add(total, acc)
                return
            u = others[i]
            for v, m in arcs[u]:
                if not creates_cycle(u, v):
                    choice[u] = v
                    rec(i + 1, mono_mul(acc, m))
                    del choice[u]

        rec(0, ONE)
        return total

    values = {u: tree_sum(u) for u in members}
    total = mono_sum(values.values())
    return {u: mono_div(values[u], total) for u in members}


def reference_ladder(chain) -> tuple[list, list]:
    """The aggregation ladder built step by step from
    hierarchy.next_threshold and hierarchy.build_level on the chain's Fraction
    exponents.
    Returns (levels, alphas), alphas ending with the terminal threshold."""
    nodes = [(s,) for s in chain.states]
    agg = {n: {} for n in nodes}
    for (src, dst), m in chain.entries.items():
        agg[(src,)][(dst,)] = m
    level = HierarchyLevel(
        index=0, alpha=None, nodes=nodes, recurrent_nodes=list(nodes), transient_nodes=[],
        period={}, measures={}, aggregated=agg, parent={},
    )
    levels, alphas = [level], []
    while True:
        alpha = next_threshold(level)
        alphas.append(alpha)
        if alpha >= 1:
            return levels, alphas
        level = build_level(level, alpha, chain)
        levels.append(level)


def unpruned_row_lambda_max(row: dict) -> float:
    """Largest lam in (0, 1] keeping one row's implied diagonal nonnegative,
    by a bisection on (0, 1] that every row with a negative diagonal at 1 runs."""
    if not row or is_exactly_leaving(row):
        return 1.0

    def diag(lam):
        return 1.0 - sum(mono_eval(m, lam) for m in row.values())

    if diag(1.0) >= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if diag(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def absorbing_states(chain) -> list:
    """States with no outgoing entries."""
    return [s for s in chain.states if not chain.row(s)]


def absorption_probabilities(Q: np.ndarray, transient_idx, absorbing_idx) -> np.ndarray:
    """Absorption probabilities of the substochastic transient block."""
    T = Q[np.ix_(transient_idx, transient_idx)]
    R = Q[np.ix_(transient_idx, absorbing_idx)]
    return np.linalg.solve(np.eye(len(transient_idx)) - T, R)


def stationary_vector(Q: np.ndarray) -> np.ndarray:
    """Stationary row vector of an irreducible stochastic matrix."""
    n = Q.shape[0]
    A = (Q.T - np.eye(n)).copy()
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(A, b)


def cesaro_payoff(Q: np.ndarray, g: np.ndarray, offset: int, count: int) -> np.ndarray:
    """Average of Q^(offset+1) g ... Q^(offset+count) g."""
    acc = np.zeros_like(g, dtype=float)
    P = np.linalg.matrix_power(Q, offset + 1)
    for _ in range(count):
        acc += P @ g
        P = P @ Q
    return acc / count


# ---------------------------------------------------- frozen oracle sweep
#
# The numeric oracle as it stood before the sweep shared one matrix power and
# one LU solve per lambda: the position from its own power Q^(steps+1), the
# finite-horizon occupation as a binary-doubling geometric sum, and the total
# occupation from a separate solve.


def geometric_sum(B: np.ndarray, n: int) -> np.ndarray:
    """sum_{m=0}^{n-1} B^m by binary doubling over the bits of n, carrying the
    pair (S_k, B^k): S_2k = S_k + B^k S_k and S_{k+1} = S_k + B^k, so the cost
    is O(log n) matrix products."""
    if n == 0:
        return np.zeros_like(B)
    S, P = np.eye(B.shape[0]), B  # k = 1, the leading bit of n
    for bit in bin(n)[3:]:
        S = S + P @ S
        P = P @ P
        if bit == "1":
            S = S + P
            P = P @ B
    return S


def reference_instantiate(chain, lam: float) -> np.ndarray:
    """Q_lam entry by entry from the chain's public `Fraction` monomials
    through `mono_eval`, with the exactly-leaving rows scaled to sum to one
    and given a zero diagonal: a slow reference for `oracle.instantiate`."""
    n = chain.n_states
    Q = np.zeros((n, n))
    for (src, dst), m in chain.entries.items():
        Q[chain.index[src], chain.index[dst]] = mono_eval(m, lam)
    leaving = [chain.index[s] for s in chain.leaving]
    Q[leaving] /= Q[leaving].sum(axis=1, keepdims=True)
    diag = 1.0 - Q.sum(axis=1)
    diag[leaving] = 0.0
    np.fill_diagonal(Q, np.clip(diag, 0.0, None))
    return Q


def frozen_convergence_sweep(chain, model: LimitModel, t: float, lambdas) -> list:
    """The `entries` of `convergence_sweep(chain, model, t, lambdas)`, computed
    by the frozen oracle."""
    pos_model = position(model, t=t)
    occ_model = occupation(model, t=t).matrix
    tot_model = occupation(model, total=True).matrix
    entries = []
    for lam in lambdas:
        Q = reference_instantiate(chain, lam)
        steps = math.floor(t / lam)
        P = np.linalg.matrix_power(Q, steps + 1)
        acc = P.copy()
        for _ in range(model.N - 1):
            P = P @ Q
            acc += P
        acc /= model.N
        B = (1.0 - lam) * Q
        part = lam * geometric_sum(B, steps)
        tot = np.linalg.solve(np.eye(len(Q)) - B, lam * np.eye(len(Q)))
        entries.append({
            "lambda": lam,
            "position_err": float(np.abs(acc - pos_model).max()),
            "occupation_t_err": float(np.abs(part - occ_model).max()),
            "total_err": float(np.abs(tot - tot_model).max()),
        })
    return entries


# ------------------------------------------------- frozen reference ladder
#
# A copy of the aggregation ladder as it stood before levels shared rows,
# kept as a slow reference for `analyze`: every level restricts and rebuilds
# every row, every class (one-node classes too) goes through the elimination
# kernel and its normalization, M is a walk over all levels for every state,
# and the levels are turned to Fraction exponents eagerly.  Its elimination
# kernel, invariant measure and entrance law are frozen copies too, on
# `Monomial`s through the `mono_*` calls, so the reference shares no
# semiring code with the pair kernel in `structure`.


def _frozen_level_support(aggregated: dict, nodes: list, alpha) -> dict:
    support = {}
    for u in nodes:
        row = aggregated[u]
        emin = min((m.exp for m in row.values()), default=math.inf)
        if emin <= alpha:
            succ = {v for v, m in row.items() if m.exp == emin}
            if not is_exactly_leaving(row):
                succ.add(u)
        else:
            succ = {u}
        support[u] = succ
    return support


def _frozen_classify(support: dict):
    nodes = list(support)
    pos = {u: i for i, u in enumerate(nodes)}
    succ = {u: set(vs) for u, vs in support.items()}
    recurrent, transient, period = [], [], {}
    for comp in structure._sccs(nodes, succ):
        cset = set(comp)
        if all(v in cset for u in comp for v in succ.get(u, ())):
            cls = tuple(sorted(comp, key=pos.__getitem__))
            recurrent.append(cls)
            period[cls] = structure._class_period(list(cls), succ)
        else:
            transient.extend(comp)
    recurrent.sort(key=lambda cls: pos[cls[0]])
    transient.sort(key=pos.__getitem__)
    return structure.ClassDecomposition(recurrent=recurrent, transient=transient, period=period)


def _frozen_eliminate(rows: dict, order) -> list[tuple]:
    """The elimination kernel as it stood before it ran on plain pairs: the
    same records as `structure._eliminate`, every step a `mono_*` call on
    `Monomial`s."""
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


def _frozen_invariant_measure(matrix: dict, cls) -> dict:
    members = list(cls)
    mset = set(members)
    rows = {u: {v: m for v, m in matrix.get(u, {}).items() if v in mset} for u in members}
    pi = {members[0]: ONE}
    for k, _, pred, s_k in reversed(_frozen_eliminate(rows, members[1:])):
        pi[k] = mono_div(mono_sum(mono_mul(pi[i], w) for i, w in pred.items()), s_k)
    if any(v.is_zero() for v in pi.values()):
        raise InternalError("class is not strongly connected in the matrix support; "
                            "no invariant measure exists")
    total = mono_sum(pi.values())
    return {u: mono_div(pi[u], total) for u in members}


def _frozen_entrance_law(matrix: dict, decomposition) -> dict:
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
    order = [u for comp in reversed(structure._sccs(transient, succ)) for u in comp]
    for k, out, _, s_k in reversed(_frozen_eliminate(rows, order)):
        h = np.zeros(len(classes))
        for j, w in out.items():
            if j not in law:
                raise InternalError(f"arc {k!r} -> {j!r} leaves the decomposition")
            h += mono_limit(mono_div(w, s_k)) * law[j]
        law[k] = h
    return law


def _frozen_build_level(previous, alpha, chain):
    Q = previous.aggregated
    state_order = chain.index
    decomp = _frozen_classify(_frozen_level_support(Q, previous.nodes, alpha))
    restricted = {u: {v: m for v, m in Q[u].items() if m.exp <= alpha} for u in previous.nodes}
    parent, new_nodes, recurrent_nodes, transient_nodes = {}, [], [], []
    period, measures = {}, {}
    for cls in decomp.recurrent:
        node = tuple(sorted((s for member in cls for s in member), key=state_order.__getitem__))
        for member in cls:
            parent[member] = node
        new_nodes.append(node)
        recurrent_nodes.append(node)
        period[node] = decomp.period[cls]
        measures[node] = _frozen_invariant_measure(restricted, cls)
    for t in decomp.transient:
        parent[t] = t
        new_nodes.append(t)
        transient_nodes.append(t)
    new_nodes.sort(key=lambda n: state_order[n[0]])
    agg = {n: {} for n in new_nodes}
    for cls in decomp.recurrent:
        node = parent[cls[0]]
        pi, acc = measures[node], agg[node]
        for z in cls:
            for v, m in Q[z].items():
                tgt = parent[v]
                if tgt != node:
                    acc[tgt] = mono_add(acc.get(tgt, ZERO), mono_mul(pi[z], m))
    for t in decomp.transient:
        acc = agg[t]
        for v, m in Q[t].items():
            tgt = parent[v]
            if tgt != t:
                acc[tgt] = mono_add(acc.get(tgt, ZERO), m)
    return HierarchyLevel(
        index=previous.index + 1, alpha=alpha, nodes=new_nodes, recurrent_nodes=recurrent_nodes,
        transient_nodes=transient_nodes, period=period, measures=measures, aggregated=agg,
        parent=parent,
    )


def frozen_analyze(chain) -> LimitModel:
    """The reference ladder on int exponents, assembled into a LimitModel
    with the same mu, A, M, N and Fraction-exponent levels as `analyze`."""
    exps = {m.exp for m in chain.entries.values()}
    D = math.lcm(*(e.denominator for e in exps))
    ticks = {e: e.numerator * (D // e.denominator) for e in exps}
    nodes = [(s,) for s in chain.states]
    agg = {n: {} for n in nodes}
    for (src, dst), m in chain.entries.items():
        agg[(src,)][(dst,)] = Monomial(m.coeff, ticks[m.exp])
    level = HierarchyLevel(
        index=0, alpha=None, nodes=nodes, recurrent_nodes=list(nodes), transient_nodes=[],
        period={}, measures={}, aggregated=agg, parent={},
    )
    levels, alphas = [level], []
    while True:
        alpha = next_threshold(level)
        if alpha >= D:
            break
        alphas.append(alpha)
        level = _frozen_build_level(level, alpha, chain)
        levels.append(level)
    classes = list(level.recurrent_nodes)
    n, nc = chain.n_states, len(classes)
    decomp = structure.ClassDecomposition(
        recurrent=[(node,) for node in classes], transient=list(level.transient_nodes), period={},
    )
    law = _frozen_entrance_law(level.aggregated, decomp)
    mu = np.zeros((n, nc))
    for node in level.nodes:
        for s in node:
            mu[chain.index[s]] = law[node]
    A = np.zeros((nc, nc))
    for i, node in enumerate(classes):
        for v, m in level.aggregated[node].items():
            if m.exp == D:
                A[i] += m.coeff * law[v]
        A[i, i] = 0.0
        A[i, i] = -A[i].sum()
    M = np.zeros((nc, n))
    for i, node in enumerate(classes):
        for s in node:
            factor, child = ONE, (s,)
            for lev in levels[1:]:
                up = lev.parent[child]
                meas = lev.measures.get(up)
                if meas is not None:
                    factor = mono_mul(factor, meas[child])
                child = up
            M[i, chain.index[s]] = mono_limit(factor)
    def frac(t):
        return t if t == math.inf else Fraction(t, D)

    for lev in levels:
        if lev.alpha is not None:
            lev.alpha = frac(lev.alpha)
        for table in (lev.measures, lev.aggregated):
            for node, row in table.items():
                table[node] = {v: Monomial(m.coeff, frac(m.exp)) for v, m in row.items()}
    return LimitModel(
        chain=chain, levels=levels, classes=classes, mu=mu, A=A, M=M,
        N=math.prod(levels[1].period.values()) if len(levels) > 1 else 1,
        alphas=[frac(a) for a in alphas] + [frac(alpha)],
    )


# ------------------------------------------------------ frozen game front end
# kept as a slow reference for `games.compile_game`: the strategy loader,
# validation and compiler with monomial products and sums on Fraction
# exponents, each strategy validated again at compile time.


def _frozen_load_strategy(spec, actions, who):
    if not isinstance(spec, dict) or set(spec) != set(actions):
        raise ChainFormatError(f"{who} must map every state")
    out = {}
    for s, mix in spec.items():
        if not isinstance(mix, dict) or not mix:
            raise ChainFormatError(f"{who}[{s!r}] must be a nonempty map action -> monomial")
        row = {}
        for a, doc in mix.items():
            if not isinstance(doc, dict) or set(doc) != {"coeff", "exp"}:
                raise ChainFormatError(
                    f"{who}[{s!r}][{a!r}] must be an object with 'coeff' and 'exp'"
                )
            coeff = read_number(doc["coeff"], "%s[%r][%r]: 'coeff'", who, s, a)
            try:
                row[a] = monomial(coeff, parse_exponent(doc["exp"]))
            except ValueError as exc:
                raise ChainFormatError(f"{who}[{s!r}][{a!r}]: {exc}") from None
        out[s] = row
    _frozen_validate_strategy(out, actions, who)
    return out


def _frozen_validate_strategy(strategy, actions, who="strategy"):
    for s, row in strategy.items():
        for a, m in row.items():
            if a not in actions[s]:
                raise ChainFormatError(f"{who}[{s!r}] uses unknown action {a!r}")
            if m.is_zero() or m.coeff <= 0 or m.exp < 0:
                raise ChainFormatError(
                    f"{who}[{s!r}][{a!r}] must have positive weight and exponent >= 0"
                )
        if not is_exactly_leaving(row):
            raise ChainFormatError(
                f"{who}[{s!r}]: exponent-0 weights sum to {exp0_mass(row)!r}, not 1"
            )


def _frozen_compile(game, x, y):
    _frozen_validate_strategy(x, game.actions1, "strategy1")
    _frozen_validate_strategy(y, game.actions2, "strategy2")
    entries = {}
    gvec = np.zeros(len(game.states))
    i1 = {s: {a: k for k, a in enumerate(game.actions1[s])} for s in game.states}
    i2 = {s: {a: k for k, a in enumerate(game.actions2[s])} for s in game.states}
    for si, s in enumerate(game.states):
        acc = {}
        gacc = ZERO
        for a1, xm in x[s].items():
            for a2, ym in y[s].items():
                w = mono_mul(xm, ym)
                gval = float(game.payoff[s][i1[s][a1], i2[s][a2]])
                if gval != 0.0:
                    gacc = mono_add(gacc, Monomial(w.coeff * gval, w.exp))
                for dest, p in game.transition[s][a1][a2].items():
                    if dest == s or p == 0.0:
                        continue
                    acc[dest] = mono_add(acc.get(dest, ZERO), Monomial(w.coeff * p, w.exp))
        for dest, m in acc.items():
            if not m.is_zero():
                entries[(s, dest)] = m
        gvec[si] = mono_limit(gacc)
    chain = chain_from_entries(game.states, entries)
    return chain, gvec


def frozen_compile_game(doc: dict):
    """The chain and limit payoff vector of a game document, with the
    strategies loaded and the game compiled by the frozen Fraction-exponent
    front end (the game itself is read by `load_game`)."""
    game, _, _ = load_game(doc)
    x = _frozen_load_strategy(doc["strategy1"], game.actions1, "strategy1")
    y = _frozen_load_strategy(doc["strategy2"], game.actions2, "strategy2")
    return _frozen_compile(game, x, y)


#: strategy exponents of the two players in `random_game_doc`: their
#: denominators differ, so the lcm of a game's denominators exceeds their max
GAME_POOLS = (
    ("0", "1/2", "1/3", "1", "3/2"),
    ("0", "1/5", "1/2", "2/3", "4/5"),
)


def random_game_doc(rng: np.random.Generator, max_states: int = 4) -> dict:
    """A small valid game document.  Each player has 2-4 actions per state
    and a strategy on a nonempty subset of them with one or two exponent-0
    weights.  Distributions include self-moves and zero probabilities, about
    a quarter of the payoffs are zero, and the players draw exponents from the
    two `GAME_POOLS`, so many action pairs tie at the same product exponent."""
    n = int(rng.integers(2, max_states + 1))
    states = [f"s{i}" for i in range(n)]

    def actions(prefix):
        return {s: [f"{prefix}{k}" for k in range(int(rng.integers(2, 5)))] for s in states}

    def distribution():
        k = int(rng.integers(1, min(3, n) + 1))
        dests = [str(d) for d in rng.choice(states, size=k, replace=False)]
        w = rng.uniform(0.1, 1.0, size=k)
        dist = {d: float(p) for d, p in zip(dests, w / w.sum())}
        spare = [s for s in states if s not in dist]
        if spare and rng.random() < 0.4:
            dist[spare[int(rng.integers(len(spare)))]] = 0.0
        return dist

    def strategy(acts, pool):
        out = {}
        for s in states:
            chosen = [str(a) for a in rng.permutation(acts[s])[: int(rng.integers(1, len(acts[s]) + 1))]]
            n0 = int(rng.integers(1, min(2, len(chosen)) + 1))
            w0 = rng.uniform(0.1, 1.0, size=n0)
            w0 = w0 / w0.sum()
            out[s] = {a: {"coeff": float(w0[i]), "exp": "0"} for i, a in enumerate(chosen[:n0])}
            for a in chosen[n0:]:
                out[s][a] = {"coeff": float(rng.uniform(0.05, 1.0)),
                             "exp": pool[int(rng.integers(1, len(pool)))]}
        return out

    actions1, actions2 = actions("a"), actions("b")
    payoff = {
        s: [[0.0 if rng.random() < 0.25 else float(rng.random()) for _ in actions2[s]]
            for _ in actions1[s]]
        for s in states
    }
    transition = {s: {a1: {a2: distribution() for a2 in actions2[s]} for a1 in actions1[s]}
                  for s in states}
    return {"states": states, "actions1": actions1, "actions2": actions2, "payoff": payoff,
            "transition": transition, "strategy1": strategy(actions1, GAME_POOLS[0]),
            "strategy2": strategy(actions2, GAME_POOLS[1])}
