"""Perturbed-chain model: loading, validation, and elementary row structure.

A perturbed chain stores only the off-diagonal leading-order entries
(coeff, exp) of a family of stochastic matrices Q_lam; the diagonal is implied,
each row's diagonal being one minus the row sum.  Validation guarantees that
some interval (0, lambda_max] of parameter values yields honest stochastic
matrices.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from pathlib import Path

from .asymptotics import INF, Exponent, Monomial, PublicTable, TickScale, format_exponent, parse_exponent
from .errors import ChainFormatError, InputError

#: rows whose exponent-0 coefficients sum to within this of 1 are treated as
#: exactly leaving (the implied diagonal vanishes identically)
EXACT_LEAVING_TOL = 1e-9

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
    lambda_max: float
    scale: TickScale = field(repr=False)
    leaving: frozenset[str]
    index: dict[str, int] = field(default_factory=dict, repr=False)

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


def leaves_exactly(mass0: float) -> bool:
    """The surviving-diagonal rule: a row of off-diagonal terms leaves
    exactly (its implied diagonal vanishes in the limit) when its exponent-0
    mass is 1 within EXACT_LEAVING_TOL.  This is the one float tolerance
    that any structural decision of the package depends on; `build_chain`
    applies it once per chain row, giving `PerturbedChain.leaving`."""
    return abs(mass0 - 1.0) <= EXACT_LEAVING_TOL


def _row_lambda_max(state: str, row: dict, D: int, cap: float) -> float:
    """Largest lam in (0, 1] keeping the implied diagonal of a tick row that
    does not leave exactly nonnegative, or `cap` if the diagonal is still
    nonnegative there.  The diagonal does not increase with lam, so such a
    row cannot bring a running minimum below `cap`; rows that can get what a
    bisection of all of (0, 1] returns (`_bisection_end`)."""
    if not row:
        return 1.0
    # c * lam**0.0 == c, so this matches mono_eval term by term; t / D is
    # the correctly rounded float of the exponent, as float(Fraction) is
    terms = []
    for dst, m in row.items():
        try:
            terms.append((m.coeff, m.exp / D))
        except OverflowError:
            raise ChainFormatError(
                f"transition {state!r} -> {dst!r}: exponent is too large for a float"
            ) from None

    def diag(lam: float) -> float:
        return 1.0 - sum(c * lam**e for c, e in terms)

    if diag(cap) >= 0.0:
        return cap
    return _bisection_end(diag, terms, cap)


def _bits(x: float) -> int:
    """The bit pattern of a float >= 0, which orders such floats as ints."""
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _from_bits(b: int) -> float:
    return struct.unpack("<d", struct.pack("<q", b))[0]


#: the bisection's 200 halvings end on multiples of this
_GRID = 2.0**-200


def _bisection_end(diag, terms, cap: float) -> float:
    """What bisecting (0, 1] for the end of diag >= 0 returns, given
    diag(cap) < 0 and diag(0+) > 0: halve up to 200 times, stopping once
    the ends are adjacent floats, and return the lower end.  As diag does
    not increase, the halvings close in on t, the largest float with
    diag(t) >= 0, and end on t's multiple of 2**-200 (t itself unless
    t < 2**-148, where 200 halvings stop short of adjacent floats).

    t is found here in a handful of diag evaluations instead of about 60:
    a Newton estimate of the exact root in log lam, then a gallop and a
    bisection over float bit patterns, which test diag only on floats."""
    # Newton on S(y) = sum of c * exp(e * y) over the e > 0 terms, convex in
    # y = log lam, for S(y) = 1 - (exponent-0 mass).  Started where one term
    # alone reaches that, it falls monotonically onto the root
    x, step = 0.5 * cap, 1
    room = 1.0 - sum(c for c, e in terms if e == 0.0)
    try:
        y = min([math.log(cap)] + [(math.log(room) - math.log(c)) / e
                                   for c, e in terms if e > 0.0])
        floor, ds = math.log(_GRID), math.inf
        for _ in range(100):
            if y < floor:  # the root lies below the grid
                break
            lam = math.exp(y)
            s = ds = 0.0
            for c, e in terms:
                if e > 0.0:
                    t = c * lam**e
                    s += t
                    ds += e * t
            dy = (s - room) / ds
            y -= dy
            if not dy > 1e-15:
                break
        x = max(math.exp(y), _GRID)
        # diag is flat over about 0.5 / ds floats around the root, as the
        # sum it takes moves by ds * 2**-52 a float and rounds to 2**-53
        step = max(1, int(0.5 / ds))
    except (ValueError, ZeroDivisionError, OverflowError):
        pass  # a poor start costs diag evaluations, never the result
    # bit patterns with diag >= 0 at `good` (unchecked while it is the grid
    # step: anything below rounds down to 0.0) and diag < 0 at `bad`
    low = good = _bits(_GRID)
    bad = _bits(cap)
    b = min(_bits(x), bad - 1)
    x = _from_bits(b)
    if diag(x) >= 0.0:
        good = b
        while good + step < bad:
            if diag(_from_bits(good + step)) < 0.0:
                bad = good + step
                break
            good, step = good + step, 2 * step
    else:
        bad = b
        while bad - step > good:
            if diag(_from_bits(bad - step)) >= 0.0:
                good = bad - step
                break
            bad, step = bad - step, 2 * step
    while bad - good > 1:
        mid = (good + bad) // 2
        if diag(_from_bits(mid)) >= 0.0:
            good = mid
        else:
            bad = mid
    if good == low and diag(_GRID) < 0.0:
        return 0.0
    return math.floor(_from_bits(good) / _GRID) * _GRID


def build_chain(states, entries: dict, scale: TickScale) -> PerturbedChain:
    """The one chain builder.  `entries` maps `(from, to)` to `(coeff,
    tick)`, with ticks >= 0 on `scale`; entries with coefficient 0 are
    dropped.  Validates the states and coefficients, stores the entries
    once as `tick_rows`, judges each row's exponent-0 mass once
    (`leaves_exactly`) and finds `lambda_max`."""
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
    for (src, dst), (c, t) in entries.items():
        if src not in seen:
            raise ChainFormatError(f"transition from unknown state {src!r}")
        if dst not in seen:
            raise ChainFormatError(f"transition to unknown state {dst!r}")
        if src == dst:
            raise ChainFormatError(
                f"diagonal entry {src!r} -> {dst!r} is implied and must not be given"
            )
        if c == 0.0:
            continue  # zero entries are simply absent
        if not 0 < c < INF:  # NaN fails too
            raise ChainFormatError(
                f"transition {src!r} -> {dst!r}: coefficient must be finite and > 0, got {c!r}"
            )
        rows[src][dst] = Monomial(c, t)

    lambda_max = 1.0
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
        else:
            lambda_max = min(lambda_max, _row_lambda_max(s, row, scale.D, lambda_max))

    return PerturbedChain(states=states, tick_rows=rows, lambda_max=lambda_max, scale=scale,
                          leaving=frozenset(leaving))


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
        extra = set(tr) - _TRANSITION_KEYS
        if extra:
            raise ChainFormatError(f"{where}: unknown keys {sorted(extra)}")
        missing = _TRANSITION_KEYS - set(tr)
        if missing:
            raise ChainFormatError(f"{where}: missing keys {sorted(missing)}")
        src, dst = tr["from"], tr["to"]
        if not isinstance(src, str) or not isinstance(dst, str):
            key, name = ("to", dst) if isinstance(src, str) else ("from", src)
            raise ChainFormatError(f"{where}: '{key}' must be a state name, got {name!r}")
        coeff = read_number(tr["coeff"], "transitions[%d]: 'coeff'", i)
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

