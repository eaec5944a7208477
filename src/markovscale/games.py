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

from .asymptotics import INF, Exponent, Monomial, TickScale, parse_exponent
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


def _validate_actions(states, spec, who) -> dict[str, tuple[str, ...]]:
    if not isinstance(spec, dict) or set(spec) != set(states):
        raise ChainFormatError(f"{who} must map every state to its action list")
    out = {}
    for s, acts in spec.items():
        if not isinstance(acts, list) or not acts:
            raise ChainFormatError(f"{who}[{s!r}] must be a nonempty list")
        for i, a in enumerate(acts):
            if not isinstance(a, str):
                raise ChainFormatError(f"{who}[{s!r}][{i}] must be an action name, got {a!r}")
        if len(set(acts)) != len(acts):
            raise ChainFormatError(f"{who}[{s!r}] has duplicate actions")
        out[s] = tuple(acts)
    return out


def load_game(source) -> tuple[StochasticGame, Strategy, Strategy]:
    """Load a game document (path or parsed dict) with both strategy families.

    Shape::

        {"states": [...],
         "actions1": {state: [action, ...]}, "actions2": {...},
         "payoff": {state: [[g(s,i,j) ...] ...]},
         "transition": {state: {a1: {a2: {dest: prob}}}},
         "strategy1": {state: {action: {"coeff": c, "exp": "e"}}},
         "strategy2": {...}}
    """
    doc = read_json_file(source, "game") if isinstance(source, (str, Path)) else source
    if not isinstance(doc, dict):
        raise ChainFormatError("game document must be a JSON object")
    extra = set(doc) - _GAME_KEYS
    if extra:
        raise ChainFormatError(f"unknown game keys: {sorted(extra)}")
    missing = _GAME_KEYS - set(doc)
    if missing:
        raise ChainFormatError(f"game document is missing keys: {sorted(missing)}")

    states = doc["states"]
    if not isinstance(states, list) or not states:
        raise ChainFormatError("'states' must be a nonempty list of distinct names")
    for i, s in enumerate(states):
        if not isinstance(s, str) or not s:
            raise ChainFormatError(f"'states'[{i}] must be a nonempty name, got {s!r}")
    if len(set(states)) != len(states):
        raise ChainFormatError("'states' must be a nonempty list of distinct names")
    states = tuple(states)
    known = set(states)
    actions1 = _validate_actions(states, doc["actions1"], "actions1")
    actions2 = _validate_actions(states, doc["actions2"], "actions2")

    payoff = {}
    for s in states:
        rows = doc["payoff"].get(s) if isinstance(doc["payoff"], dict) else None
        if rows is None:
            raise ChainFormatError(f"payoff is missing state {s!r}")
        n1, n2 = len(actions1[s]), len(actions2[s])
        if not isinstance(rows, list) or len(rows) != n1 or any(
            not isinstance(row, list) or len(row) != n2 for row in rows
        ):
            raise ChainFormatError(f"payoff[{s!r}] must be a list of {n1} rows of {n2} numbers")
        mat = np.empty((n1, n2))
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                v = mat[i, j] = read_number(v, "payoff[%r][%d][%d]", s, i, j)
                if not 0.0 <= v <= 1.0:  # NaN fails too
                    raise ChainFormatError(f"payoff[{s!r}] values must lie in [0, 1]")
        payoff[s] = mat
    for s in doc["payoff"]:
        if s not in known:
            raise ChainFormatError(f"payoff names unknown state {s!r}")

    transition = {}
    tspec = doc["transition"]
    if not isinstance(tspec, dict) or set(tspec) != set(states):
        raise ChainFormatError("'transition' must map every state")
    for s in states:
        bys = {}
        if not isinstance(tspec[s], dict) or set(tspec[s]) != set(actions1[s]):
            raise ChainFormatError(f"transition[{s!r}] must map every action of player 1")
        for a1 in actions1[s]:
            bya = {}
            cell = tspec[s][a1]
            if not isinstance(cell, dict) or set(cell) != set(actions2[s]):
                raise ChainFormatError(
                    f"transition[{s!r}][{a1!r}] must map every action of player 2"
                )
            for a2 in actions2[s]:
                dist = cell[a2]
                if not isinstance(dist, dict) or not dist:
                    raise ChainFormatError(
                        f"transition[{s!r}][{a1!r}][{a2!r}] must be a nonempty map"
                    )
                total = 0.0
                clean = {}
                for dest, p in dist.items():
                    if dest not in known:
                        raise ChainFormatError(
                            f"transition[{s!r}][{a1!r}][{a2!r}] targets unknown state {dest!r}"
                        )
                    p = read_number(p, "transition[%r][%r][%r][%r]", s, a1, a2, dest)
                    if not p >= 0:  # NaN fails too
                        raise ChainFormatError(
                            f"transition[{s!r}][{a1!r}][{a2!r}][{dest!r}] must be a probability"
                        )
                    total += p
                    clean[dest] = p
                if abs(total - 1.0) > _TRANSITION_SUM_TOL:
                    raise ChainFormatError(
                        f"transition[{s!r}][{a1!r}][{a2!r}] sums to {total!r}, not 1"
                    )
                bya[a2] = clean
            bys[a1] = bya
        transition[s] = bys

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


def _load_strategy(spec, actions, who) -> Strategy:
    if not isinstance(spec, dict):
        raise ChainFormatError(f"{who} must map every state")
    out: Strategy = {}
    parsed: dict[str, Exponent] = {}  # a strategy repeats a few exponent texts
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
            text = doc["exp"]
            exp = parsed.get(text) if isinstance(text, str) else None
            if exp is None:
                try:
                    exp = parsed[text] = parse_exponent(text)
                except ValueError as exc:
                    raise ChainFormatError(f"{who}[{s!r}][{a!r}]: {exc}") from None
            row[a] = Monomial(coeff, exp)
        out[s] = row
    validate_strategy(out, actions, who)
    return out


def validate_strategy(strategy: Strategy, actions, who: str = "strategy") -> dict[str, list]:
    """A regular strategy family maps every state to weights on that state's
    actions.  Every weight is finite and positive with a finite rational
    exponent >= 0, and the exponent-0 weights sum to 1 (the limit mixture).

    Checked in one pass over the weights, which returns each state's weights
    in row order as `(action, index of the action in actions[s], coeff,
    (p, q))`, where p/q is the exponent."""
    if strategy.keys() != actions.keys():
        raise ChainFormatError(f"{who} must map every state")
    out = {}
    for s, row in strategy.items():
        acts = actions[s]
        weights = []
        mass0 = 0  # summed in row order, as build_chain does
        for a, m in row.items():
            try:
                k = acts.index(a)
            except ValueError:
                raise ChainFormatError(f"{who}[{s!r}] uses unknown action {a!r}") from None
            e = m.exp
            if not m.coeff > 0:
                raise ChainFormatError(
                    f"{who}[{s!r}][{a!r}] must have positive weight and exponent >= 0"
                )
            if m.coeff == INF:
                raise ChainFormatError(f"{who}[{s!r}][{a!r}] must have a finite weight, got inf")
            if not isinstance(e, (int, Fraction)):
                raise ChainFormatError(
                    f"{who}[{s!r}][{a!r}] must have a finite rational exponent, got {e!r}"
                )
            p, q = e.numerator, e.denominator
            if p < 0:
                raise ChainFormatError(
                    f"{who}[{s!r}][{a!r}] must have positive weight and exponent >= 0"
                )
            if p == 0:
                mass0 += m.coeff
            weights.append((a, k, m.coeff, (p, q)))
        if not leaves_exactly(mass0):
            raise ChainFormatError(f"{who}[{s!r}]: exponent-0 weights sum to {mass0!r}, not 1")
        out[s] = weights
    return out


def compile_game(game: StochasticGame, x: Strategy, y: Strategy) -> tuple[PerturbedChain, np.ndarray]:
    """Reduce the game under fixed strategy families to a perturbed chain and
    the limit per-state payoff vector.

    Each off-diagonal chain entry is the leading order of
    sum_{i,j} x(i) y(j) q(dest | s, i, j); self-transitions are dropped (the
    implied diagonal picks them up).  The payoff vector is the limit of the
    bilinear form sum_{i,j} x(i) y(j) g(s, i, j).  Both strategy families
    are checked by `validate_strategy`.
    """
    xw = validate_strategy(x, game.actions1, "strategy1")
    yw = validate_strategy(y, game.actions2, "strategy2")
    scale = TickScale({q for w in (xw, yw) for row in w.values() for _, _, _, (_, q) in row})
    tick = scale.tick
    entries: dict[tuple[str, str], tuple[float, int]] = {}
    gvec = []
    for s in game.states:
        pay = game.payoff[s].tolist()
        moves = game.transition[s]
        yrow = [(a2, k2, yc, tick(*e)) for a2, k2, yc, e in yw[s]]
        # destination -> {tick: coefficient sum}; the leading term is the
        # sum at the smallest tick, added up in the order mono_add would
        acc: dict[str, dict[int, float]] = {}
        g = 0.0
        for a1, k1, xc, e in xw[s]:
            xe, prow, arow = tick(*e), pay[k1], moves[a1]
            for a2, k2, yc, ye in yrow:
                wc, we = xc * yc, xe + ye
                if we == 0:
                    g += wc * prow[k2]
                for dest, p in arow[a2].items():
                    if dest == s or p == 0.0:
                        continue
                    sums = acc.setdefault(dest, {})
                    sums[we] = sums.get(we, 0.0) + wc * p
        for dest, sums in acc.items():
            t = min(sums)
            entries[(s, dest)] = (sums[t], t)
        gvec.append(g)
    return build_chain(game.states, entries, scale), np.array(gvec)


def limit_game_payoff(game: StochasticGame, x: Strategy, y: Strategy) -> np.ndarray:
    """Limit discounted payoff of the strategy pair, per starting state."""
    chain, g = compile_game(game, x, y)
    model = analyze(chain)
    return limit_payoff(model, g)
