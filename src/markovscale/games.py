"""Two-player zero-sum stochastic games and their reduction to perturbed
chains under discount-dependent (regular) stationary strategies.

A strategy family assigns each state a leading-order mixture over actions:
action weights are monomials in the discount, with the exponent-0 weights
summing to 1 (the limit mixture) and slower corrections allowed.  Fixing both
players' families turns the game into a perturbed chain plus a limit payoff
vector, which the aggregation machinery then evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .asymptotics import INF, Exponent, Monomial, TickScale, _tuple_new, parse_exponent
from .chain_model import PerturbedChain, build_chain, leaves_exactly, read_json_file, read_number
from .errors import ChainFormatError
from .evaluator import limit_payoff
from .hierarchy import analyze

_GAME_KEYS = {"states", "actions1", "actions2", "payoff", "transition", "strategy1", "strategy2"}
_TRANSITION_SUM_TOL = 1e-12

#: per-state mixture of actions with monomial weights
Strategy = dict[str, dict[str, Monomial]]


@dataclass
class StochasticGame:
    states: tuple[str, ...]
    actions1: dict[str, tuple[str, ...]]
    actions2: dict[str, tuple[str, ...]]
    payoff: dict[str, np.ndarray]  # shape (len(actions1[s]), len(actions2[s])), values in [0, 1]
    transition: dict[str, dict[str, dict[str, dict[str, float]]]]  # s -> a1 -> a2 -> dest -> prob


def _validate_actions(known, spec, who) -> tuple[dict, dict]:
    """Each state's action list, checked, as a tuple and as a set (the set
    is the key set that the transition rows must have)."""
    if not isinstance(spec, dict) or spec.keys() != known:
        raise ChainFormatError(f"{who} must map every state to its action list")
    out, names = {}, {}
    for s, acts in spec.items():
        if not isinstance(acts, list) or not acts:
            raise ChainFormatError(f"{who}[{s!r}] must be a nonempty list")
        for i, a in enumerate(acts):
            if not isinstance(a, str):
                raise ChainFormatError(f"{who}[{s!r}][{i}] must be an action name, got {a!r}")
        names[s] = set(acts)
        if len(names[s]) != len(acts):
            raise ChainFormatError(f"{who}[{s!r}] has duplicate actions")
        out[s] = tuple(acts)
    return out, names


def load_game(source) -> tuple[StochasticGame, Strategy, Strategy]:
    """Load a game document (path or parsed dict) with both strategy families.

    Shape::

        {"states": [...],
         "actions1": {state: [action, ...]}, "actions2": {...},
         "payoff": {state: [[g(s,i,j) ...] ...]},
         "transition": {state: {a1: {a2: {dest: prob}}}},
         "strategy1": {state: {action: {"coeff": c, "exp": "e"}}},
         "strategy2": {...}}

    Every number is checked and converted once, where it is read: a float
    is taken as it is, anything else goes through `read_number`.
    """
    doc = read_json_file(source, "game") if isinstance(source, (str, Path)) else source
    if not isinstance(doc, dict):
        raise ChainFormatError("game document must be a JSON object")
    if doc.keys() != _GAME_KEYS:
        extra = set(doc) - _GAME_KEYS
        if extra:
            raise ChainFormatError(f"unknown game keys: {sorted(extra)}")
        raise ChainFormatError(f"game document is missing keys: {sorted(_GAME_KEYS - set(doc))}")

    states = doc["states"]
    if not isinstance(states, list) or not states:
        raise ChainFormatError("'states' must be a nonempty list of distinct names")
    for i, s in enumerate(states):
        if not isinstance(s, str) or not s:
            raise ChainFormatError(f"'states'[{i}] must be a nonempty name, got {s!r}")
    known = set(states)
    if len(known) != len(states):
        raise ChainFormatError("'states' must be a nonempty list of distinct names")
    states = tuple(states)
    actions1, names1 = _validate_actions(known, doc["actions1"], "actions1")
    actions2, names2 = _validate_actions(known, doc["actions2"], "actions2")

    pspec = doc["payoff"]
    flat: list[float] = []  # every state's payoffs, row-major, in state order
    for s in states:
        rows = pspec.get(s) if isinstance(pspec, dict) else None
        if rows is None:
            raise ChainFormatError(f"payoff is missing state {s!r}")
        _read_payoff(s, rows, len(actions1[s]), len(actions2[s]), flat)
    if pspec.keys() != known:
        for s in pspec:
            if s not in known:
                raise ChainFormatError(f"payoff names unknown state {s!r}")
    # one array for the document; each state's matrix is a view of its part
    values = np.array(flat, dtype=float)
    payoff, end = {}, 0
    for s in states:
        n1, n2 = len(actions1[s]), len(actions2[s])
        start, end = end, end + n1 * n2
        payoff[s] = values[start:end].reshape(n1, n2)

    transition = {}
    tspec = doc["transition"]
    if not isinstance(tspec, dict) or tspec.keys() != known:
        raise ChainFormatError("'transition' must map every state")
    for s in states:
        bys = transition[s] = {}
        spec = tspec[s]
        if not isinstance(spec, dict) or spec.keys() != names1[s]:
            raise ChainFormatError(f"transition[{s!r}] must map every action of player 1")
        acts2, keys2 = actions2[s], names2[s]
        for a1 in actions1[s]:
            bya = bys[a1] = {}
            cell = spec[a1]
            if not isinstance(cell, dict) or cell.keys() != keys2:
                raise ChainFormatError(
                    f"transition[{s!r}][{a1!r}] must map every action of player 2"
                )
            for a2 in acts2:
                dist = cell[a2]
                if not isinstance(dist, dict) or not dist:
                    raise ChainFormatError(
                        f"transition[{s!r}][{a1!r}][{a2!r}] must be a nonempty map"
                    )
                clean = bya[a2] = dist.copy()
                total = 0.0
                for dest, p in dist.items():
                    if dest not in known:
                        raise ChainFormatError(
                            f"transition[{s!r}][{a1!r}][{a2!r}] targets unknown state {dest!r}"
                        )
                    if type(p) is not float:
                        p = clean[dest] = read_number(
                            p, "transition[%r][%r][%r][%r]", s, a1, a2, dest
                        )
                    if not p >= 0:  # NaN fails too
                        raise ChainFormatError(
                            f"transition[{s!r}][{a1!r}][{a2!r}][{dest!r}] must be a probability"
                        )
                    total += p
                if abs(total - 1.0) > _TRANSITION_SUM_TOL:
                    raise ChainFormatError(
                        f"transition[{s!r}][{a1!r}][{a2!r}] sums to {total!r}, not 1"
                    )

    game = StochasticGame(
        states=states,
        actions1=actions1,
        actions2=actions2,
        payoff=payoff,
        transition=transition,
    )
    x = _load_strategy(doc["strategy1"], game.actions1, "strategy1")
    y = _load_strategy(doc["strategy2"], game.actions2, "strategy2")
    return game, x, y


def _read_payoff(s, rows, n1: int, n2: int, values: list) -> None:
    """Check the payoff rows of state `s`, n1 rows of n2 numbers in [0, 1],
    and append the numbers, as floats, to `values`."""
    if not isinstance(rows, list) or len(rows) != n1:
        raise ChainFormatError(f"payoff[{s!r}] must be a list of {n1} rows of {n2} numbers")
    for row in rows:
        if not isinstance(row, list) or len(row) != n2:
            raise ChainFormatError(f"payoff[{s!r}] must be a list of {n1} rows of {n2} numbers")
    start = len(values)
    for row in rows:
        values += row
    for k in range(start, len(values)):
        v = values[k]
        if type(v) is not float:
            v = values[k] = read_number(v, "payoff[%r][%d][%d]", s, *divmod(k - start, n2))
        if not 0.0 <= v <= 1.0:  # NaN fails too
            raise ChainFormatError(f"payoff[{s!r}] values must lie in [0, 1]")


def _load_strategy(spec, actions, who) -> Strategy:
    if not isinstance(spec, dict):
        raise ChainFormatError(f"{who} must map every state")
    out: Strategy = {}
    parsed: dict[str, Exponent] = {}  # a strategy repeats a few exponent texts
    for s, mix in spec.items():
        if not isinstance(mix, dict) or not mix:
            raise ChainFormatError(f"{who}[{s!r}] must be a nonempty map action -> monomial")
        row = out[s] = {}
        for a, doc in mix.items():
            # the keys are exactly coeff and exp; cheaper than comparing key sets
            if not isinstance(doc, dict) or len(doc) != 2 or "coeff" not in doc or "exp" not in doc:
                raise ChainFormatError(
                    f"{who}[{s!r}][{a!r}] must be an object with 'coeff' and 'exp'"
                )
            coeff, text = doc["coeff"], doc["exp"]
            if type(coeff) is not float:
                coeff = read_number(coeff, "%s[%r][%r]: 'coeff'", who, s, a)
            exp = parsed.get(text) if type(text) is str else None
            if exp is None:
                try:
                    exp = parsed[text] = parse_exponent(text)
                except ValueError as exc:
                    raise ChainFormatError(f"{who}[{s!r}][{a!r}]: {exc}") from None
            row[a] = _tuple_new(Monomial, (coeff, exp))
    validate_strategy(out, actions, who)
    return out


def validate_strategy(strategy: Strategy, actions, who: str = "strategy") -> None:
    """A regular strategy family maps every state to weights on that state's
    actions.  Every weight is finite and positive with a finite rational
    exponent >= 0, and the exponent-0 weights sum to 1 (the limit mixture).
    Checked in one pass over the weights; returns nothing and raises
    `ChainFormatError` naming the first state or weight that breaks a rule."""
    if strategy.keys() != actions.keys():
        raise ChainFormatError(f"{who} must map every state")
    for s, row in strategy.items():
        acts = actions[s]
        mass0 = 0  # summed in row order, as build_chain does
        for a, (c, e) in row.items():
            if a not in acts:
                raise ChainFormatError(f"{who}[{s!r}] uses unknown action {a!r}")
            if not 0 < c < INF:  # NaN fails too
                if c == INF:
                    raise ChainFormatError(f"{who}[{s!r}][{a!r}] must have a finite weight, got inf")
                raise ChainFormatError(
                    f"{who}[{s!r}][{a!r}] must have positive weight and exponent >= 0"
                )
            if not isinstance(e, (int, Fraction)):
                raise ChainFormatError(
                    f"{who}[{s!r}][{a!r}] must have a finite rational exponent, got {e!r}"
                )
            if e.numerator <= 0:
                if e.numerator:
                    raise ChainFormatError(
                        f"{who}[{s!r}][{a!r}] must have positive weight and exponent >= 0"
                    )
                mass0 += c
        if not leaves_exactly(mass0):
            raise ChainFormatError(f"{who}[{s!r}]: exponent-0 weights sum to {mass0!r}, not 1")


def compile_game(game: StochasticGame, x: Strategy, y: Strategy) -> tuple[PerturbedChain, np.ndarray]:
    """Reduce the game under fixed strategy families to a perturbed chain and
    the limit per-state payoff vector.

    Each off-diagonal chain entry is the leading order of
    sum_{i,j} x(i) y(j) q(dest | s, i, j); self-transitions are dropped (the
    implied diagonal picks them up).  The payoff vector is the limit of the
    bilinear form sum_{i,j} x(i) y(j) g(s, i, j).  Both strategy families
    are checked by `validate_strategy` and read as they are, each state's
    weights in row order.
    """
    validate_strategy(x, game.actions1, "strategy1")
    validate_strategy(y, game.actions2, "strategy2")
    scale = TickScale({e.denominator for w in (x, y) for row in w.values() for _, e in row.values()})
    D = scale.D
    entries: dict[tuple[str, str], tuple[float, int]] = {}
    gvec = []
    for s in game.states:
        pay, moves = game.payoff[s], game.transition[s]
        acts1, acts2 = game.actions1[s], game.actions2[s]
        # n * (D // d) is scale.tick(n, d), on the scale of every exponent's
        # denominator; an action's index is its payoff row or column
        ys = [(a2, acts2.index(a2), yc, e.numerator * (D // e.denominator))
              for a2, (yc, e) in y[s].items()]
        # destination -> (coefficient, tick) of its leading term so far: a
        # term at a smaller tick replaces it, one at the same tick adds to
        # it, so the sum at the smallest tick is added up in term order
        lead: dict[str, tuple[float, int]] = {}
        g = 0.0
        for a1, (xc, e) in x[s].items():
            k1, xe, arow = acts1.index(a1), e.numerator * (D // e.denominator), moves[a1]
            for a2, k2, yc, ye in ys:
                wc, we = xc * yc, xe + ye
                if we == 0:
                    g += wc * pay.item(k1, k2)
                for dest, p in arow[a2].items():
                    if dest == s or p == 0.0:
                        continue
                    old = lead.get(dest)
                    if old is None or we < old[1]:
                        lead[dest] = (wc * p, we)
                    elif we == old[1]:
                        lead[dest] = (old[0] + wc * p, we)
        for dest, m in lead.items():
            entries[(s, dest)] = m
        gvec.append(g)
    return build_chain(game.states, entries, scale), np.array(gvec)


def limit_game_payoff(game: StochasticGame, x: Strategy, y: Strategy) -> np.ndarray:
    """Limit discounted payoff of the strategy pair, per starting state."""
    chain, g = compile_game(game, x, y)
    model = analyze(chain)
    return limit_payoff(model, g)
