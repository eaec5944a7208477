"""Perturbed-chain model: loading, validation, and elementary row structure.

A perturbed chain stores only the off-diagonal leading-order entries
(coeff, exp) of a family of stochastic matrices Q_lam; the diagonal is implied,
each row's diagonal being one minus the row sum.  Validation checks the
leading-order terms: each row's exponent-0 mass is at most 1, and a row whose
mass is 1 (it leaves exactly) has no other terms, so every row that does not
leave exactly has a positive diagonal for all small enough lam.  The concrete
bound, `PerturbedChain.lambda_max`, is the largest float lam in (0, 1] at which
every such row's computed diagonal is nonnegative; only the finite-lambda
oracle reads it, so it is computed on first read.
"""

from __future__ import annotations

import json
import numbers
import struct
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from pathlib import Path

from .asymptotics import (INF, Exponent, Monomial, PublicTable, TickScale, _tuple_new, format_exponent,
                          parse_exponent)
from .errors import ChainFormatError, InputError

#: rows whose exponent-0 coefficients sum to within this of 1 are treated as
#: exactly leaving (the implied diagonal vanishes identically)
EXACT_LEAVING_TOL = 1e-9

#: ticks above this are checked for exponents too large for a float
_HUGE_TICK = 2**1000

_CHAIN_KEYS = {"states", "transitions"}
_TRANSITION_KEYS = {"from", "to", "coeff", "exp"}


@dataclass
class PerturbedChain:
    """A validated chain, made by `build_chain`.  `tick_rows` is its one
    entry table, state -> {target -> Monomial(coeff, tick)}, each exponent
    an int tick of the chain's exponent `scale`; `leaving` holds the
    exactly-leaving states.  `row(s)` and `entries` are read-only views of
    `tick_rows` with public `Fraction` exponents."""

    states: tuple[str, ...]
    tick_rows: dict[str, dict[str, Monomial]] = field(repr=False)
    scale: TickScale = field(repr=False)
    leaving: frozenset[str]
    #: state -> its position in `states`
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {s: i for i, s in enumerate(self.states)}
        self._public = PublicTable(self.tick_rows, self.scale)

    def row(self, state: str) -> dict[str, Monomial]:
        """Off-diagonal entries leaving `state` (possibly empty)."""
        return self._public[state]

    @cached_property
    def entries(self) -> dict[tuple[str, str], Monomial]:
        """All off-diagonal entries, in state order and then row order."""
        return {(s, d): m for s in self.states for d, m in self.row(s).items()}

    @property
    def n_states(self) -> int:
        return len(self.states)

    @cached_property
    def lambda_max(self) -> float:
        """The largest float lam in (0, 1] at which the computed implied
        diagonal of every row that does not leave exactly is nonnegative.
        Only the finite-lambda oracle needs it, so it is found on first read.
        A row whose diagonal is nonnegative at the running minimum cannot
        lower it and is not searched."""
        bound = 1.0
        for s in self.states:
            if s not in self.leaving:
                bound = _row_lambda_max(s, self.tick_rows[s], self.scale.D, bound)
        return bound


def leaves_exactly(mass0: float) -> bool:
    """The surviving-diagonal rule: a row of off-diagonal terms leaves
    exactly (its implied diagonal vanishes in the limit) when its exponent-0
    mass is 1 within EXACT_LEAVING_TOL.  This is the one float tolerance
    that any structural decision of the package depends on; `build_chain`
    applies it once per chain row, giving `PerturbedChain.leaving`."""
    return abs(mass0 - 1.0) <= EXACT_LEAVING_TOL


def _row_lambda_max(state: str, row: dict, D: int, cap: float) -> float:
    """Largest float lam in (0, cap] at which the computed implied diagonal
    of a tick row that does not leave exactly is nonnegative; `InputError`
    naming the row if there is none.  The diagonal sums its terms in row
    order and does not increase with lam, so a bisection over the bit
    patterns of [0.0, cap], which order floats >= 0 as ints, ends on it."""
    # c * lam**0.0 == c, so this matches mono_eval term by term; t / D is
    # the correctly rounded float of the exponent, as float(Fraction) is
    terms = [(m.coeff, m.exp / D) for m in row.values()]

    def diag(lam: float) -> float:
        return 1.0 - sum(c * lam**e for c, e in terms)

    if diag(cap) >= 0.0:
        return cap
    # diag(0.0) is one minus the exponent-0 mass, > 0 as the row does not
    # leave exactly
    good, bad = 0, _bits(cap)
    while bad - good > 1:
        mid = (good + bad) // 2
        if diag(_from_bits(mid)) >= 0.0:
            good = mid
        else:
            bad = mid
    if not good:
        raise InputError(
            f"row {state!r}: no float lambda > 0 keeps its implied diagonal nonnegative"
        )
    return _from_bits(good)


def _bits(x: float) -> int:
    """The bit pattern of a float >= 0, which orders such floats as ints."""
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _from_bits(b: int) -> float:
    return struct.unpack("<d", struct.pack("<q", b))[0]


def build_chain(states, entries: dict, scale: TickScale) -> PerturbedChain:
    """The one chain builder.  `entries` maps `(from, to)` to `(coeff,
    tick)`, with ticks >= 0 on `scale`; entries with coefficient 0 are
    dropped.  Validates the states and coefficients, stores the entries
    once as `tick_rows` and judges each row's exponent-0 mass once
    (`leaves_exactly`)."""
    states = tuple(states)
    if not states:
        raise ChainFormatError("chain has an empty state set")
    seen = set()
    for s in states:
        if not isinstance(s, str) or not s:
            raise ChainFormatError(f"state names must be nonempty strings, got {s!r}")
        if s in seen:
            raise ChainFormatError(f"duplicate state name {s!r}")
        seen.add(s)

    rows: dict[str, dict[str, Monomial]] = {s: {} for s in states}
    for (src, dst), ct in entries.items():
        c, t = ct
        if src not in seen:
            raise ChainFormatError(f"transition from unknown state {src!r}")
        if dst not in seen:
            raise ChainFormatError(f"transition to unknown state {dst!r}")
        if src == dst:
            raise ChainFormatError(
                f"diagonal entry {src!r} -> {dst!r} is implied and must not be given"
            )
        if not 0 < c < INF:  # NaN fails too
            if c == 0.0:
                continue  # zero entries are simply absent
            raise ChainFormatError(
                f"transition {src!r} -> {dst!r}: coefficient must be finite and > 0, got {c!r}"
            )
        if t > _HUGE_TICK:  # t / D is the float exponent the oracle evaluates
            try:
                t / scale.D
            except OverflowError:
                raise ChainFormatError(
                    f"transition {src!r} -> {dst!r}: exponent is too large for a float"
                ) from None
        rows[src][dst] = _tuple_new(Monomial, ct)

    leaving = []
    for s in states:
        row = rows[s]
        mass0 = sum(m.coeff for m in row.values() if m.exp == 0)  # in row order
        if mass0 > 1.0 + EXACT_LEAVING_TOL:
            raise ChainFormatError(
                f"row {s!r}: exponent-0 coefficients sum to {mass0!r} > 1"
            )
        if leaves_exactly(mass0):
            if any(m.exp > 0 for m in row.values()):
                raise ChainFormatError(
                    f"row {s!r}: exponent-0 coefficients already sum to 1, "
                    "so the extra positive-exponent entries leave no feasible lambda"
                )
            leaving.append(s)

    return PerturbedChain(states=states, tick_rows=rows, scale=scale, leaving=frozenset(leaving))


def chain_from_entries(
    states, entries: dict[tuple[str, str], Monomial]
) -> PerturbedChain:
    """Build and validate a chain from explicit off-diagonal monomials."""
    for (src, dst), m in entries.items():
        if not (m.is_zero() or isinstance(m.exp, (int, Fraction)) and m.exp >= 0):
            raise ChainFormatError(
                f"transition {src!r} -> {dst!r}: exponent must be a finite rational >= 0, "
                f"got {format_exponent(m.exp)}"
            )
    scale = TickScale(m.exp.denominator for m in entries.values() if not m.is_zero())
    pairs = {
        key: (m.coeff, 0 if m.is_zero() else scale.tick(m.exp.numerator, m.exp.denominator))
        for key, m in entries.items()
    }
    return build_chain(states, pairs, scale)


def read_json_file(path, what: str, error: type[InputError] = ChainFormatError):
    """Parse the JSON document in the file `path`.  A file that cannot be
    read or is not valid JSON raises `error`, naming the `what` file."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {what} file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise error(f"{what} file is not valid JSON: {exc}") from None


def read_number(value, where: str, *args, error: type[InputError] = ChainFormatError) -> float:
    """`value` as a float.  A value that is not a real number (strings and
    booleans included) or that is too large for a float raises `error`,
    naming the location `where % args`, which is formatted only then: the
    loaders read thousands of numbers per document."""
    if type(value) is float:  # the common case, ahead of the slow ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{where % args} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{where % args} is too large for a float") from None


def load_chain(source) -> PerturbedChain:
    """Load a chain from a JSON document (path, JSON text is not accepted —
    pass a parsed dict instead) and validate it.

    Document shape::

        {"states": ["1", "2"],
         "transitions": [{"from": "1", "to": "2", "coeff": 1.0, "exp": "1/5"}]}

    Unknown keys anywhere are rejected, as are duplicate transitions.
    """
    doc = read_json_file(source, "chain") if isinstance(source, (str, Path)) else source

    if not isinstance(doc, dict):
        raise ChainFormatError("chain document must be a JSON object")
    extra = set(doc) - _CHAIN_KEYS
    if extra:
        raise ChainFormatError(f"unknown chain keys: {sorted(extra)}")
    if "states" not in doc or "transitions" not in doc:
        raise ChainFormatError("chain document needs 'states' and 'transitions'")
    states = doc["states"]
    if not isinstance(states, list):
        raise ChainFormatError("'states' must be a list of names")
    transitions = doc["transitions"]
    if not isinstance(transitions, list):
        raise ChainFormatError("'transitions' must be a list")

    entries: dict[tuple[str, str], tuple[float, str]] = {}  # coeff and exponent text
    parsed: dict[str, Exponent] = {}  # a chain repeats a few exponent texts
    for i, tr in enumerate(transitions):
        where = f"transitions[{i}]"
        if not isinstance(tr, dict):
            raise ChainFormatError(f"{where}: must be an object")
        if tr.keys() != _TRANSITION_KEYS:
            extra = set(tr) - _TRANSITION_KEYS
            if extra:
                raise ChainFormatError(f"{where}: unknown keys {sorted(extra)}")
            missing = _TRANSITION_KEYS - set(tr)
            raise ChainFormatError(f"{where}: missing keys {sorted(missing)}")
        src, dst = tr["from"], tr["to"]
        if not isinstance(src, str) or not isinstance(dst, str):
            key, name = ("to", dst) if isinstance(src, str) else ("from", src)
            raise ChainFormatError(f"{where}: '{key}' must be a state name, got {name!r}")
        coeff = tr["coeff"]
        if type(coeff) is not float:
            coeff = read_number(coeff, "transitions[%d]: 'coeff'", i)
        if not 0 < coeff < INF:
            raise ChainFormatError(f"{where}: 'coeff' must be finite and > 0, got {tr['coeff']!r}")
        text = tr["exp"]
        if not isinstance(text, str) or text not in parsed:
            try:
                exp = parse_exponent(text)
            except ValueError as exc:
                raise ChainFormatError(f"{where}: {exc}") from None
            if exp == INF or exp < 0:
                raise ChainFormatError(
                    f"{where}: exponent must be a finite rational >= 0, got {text}"
                )
            parsed[text] = exp
        if (src, dst) in entries:
            raise ChainFormatError(f"{where}: duplicate transition {src!r} -> {dst!r}")
        entries[(src, dst)] = (coeff, text)
    scale = TickScale(e.denominator for e in parsed.values())
    ticks = {text: scale.tick(e.numerator, e.denominator) for text, e in parsed.items()}
    return build_chain(states, {k: (c, ticks[text]) for k, (c, text) in entries.items()}, scale)


def dump_chain(chain: PerturbedChain) -> dict:
    """Serialize back to the document shape accepted by load_chain, listing
    the entries in the chain's own order: lambda_max sums each row in that
    order, so load_chain gives back its bits."""
    transitions = [
        {"from": src, "to": dst, "coeff": m.coeff, "exp": format_exponent(m.exp)}
        for (src, dst), m in chain.entries.items()
    ]
    return {"states": list(chain.states), "transitions": transitions}

