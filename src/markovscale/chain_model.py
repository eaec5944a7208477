"""Perturbed-chain model: loading, validation, and elementary row structure.

A perturbed chain stores only the off-diagonal leading-order entries
(coeff, exp) of a family of stochastic matrices Q_lam; the diagonal is implied,
each row's diagonal being one minus the row sum.  Validation guarantees that
some interval (0, lambda_max] of parameter values yields honest stochastic
matrices.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .asymptotics import Exponent, Monomial, format_exponent, monomial, parse_exponent
from .errors import ChainFormatError, InputError

#: rows whose exponent-0 coefficients sum to within this of 1 are treated as
#: exactly leaving (the implied diagonal vanishes identically)
EXACT_LEAVING_TOL = 1e-9

_CHAIN_KEYS = {"states", "transitions"}
_TRANSITION_KEYS = {"from", "to", "coeff", "exp"}


@dataclass
class PerturbedChain:
    states: tuple[str, ...]
    entries: dict[tuple[str, str], Monomial]
    lambda_max: float
    index: dict[str, int] = field(default_factory=dict, repr=False)
    _rows: dict[str, dict[str, Monomial]] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.index = {s: i for i, s in enumerate(self.states)}
        self._rows = {s: {} for s in self.states}
        for (src, dst), m in self.entries.items():
            self._rows[src][dst] = m

    def row(self, state: str) -> dict[str, Monomial]:
        """Off-diagonal entries leaving `state` (possibly empty)."""
        return self._rows[state]

    @property
    def n_states(self) -> int:
        return len(self.states)


def exp0_mass(row: dict) -> float:
    """Sum of the exponent-0 coefficients of a row of monomials."""
    return sum(m.coeff for m in row.values() if m.exp == 0)


def leaves_exactly(mass0: float) -> bool:
    """The surviving-diagonal rule: a row of off-diagonal monomials leaves
    exactly (its implied diagonal vanishes in the limit) when its exponent-0
    mass (`exp0_mass`) is 1 within EXACT_LEAVING_TOL.  This is the one float
    tolerance that any structural decision of the package depends on."""
    return abs(mass0 - 1.0) <= EXACT_LEAVING_TOL


def is_exactly_leaving(row: dict) -> bool:
    """`leaves_exactly` applied to the row's exponent-0 mass."""
    return leaves_exactly(exp0_mass(row))


def _row_lambda_max(state: str, row: dict[str, Monomial], mass0: float, cap: float) -> float:
    """Largest lam in (0, 1] keeping this row's implied diagonal nonnegative,
    or `cap` if the diagonal is still nonnegative there; `mass0` is the row's
    `exp0_mass`.  The diagonal does not increase with lam, so such a row
    cannot bring a running minimum below `cap`; rows that can are bisected on
    all of (0, 1]."""
    if not row:
        return 1.0
    if leaves_exactly(mass0):
        if any(m.exp > 0 for m in row.values()):
            raise ChainFormatError(
                f"row {state!r}: exponent-0 coefficients already sum to 1, "
                "so the extra positive-exponent entries leave no feasible lambda"
            )
        return 1.0
    # c * lam**0.0 == c, so this matches mono_eval term by term
    terms = []
    for dst, m in row.items():
        try:
            terms.append((m.coeff, float(m.exp)))
        except OverflowError:
            raise ChainFormatError(
                f"transition {state!r} -> {dst!r}: exponent is too large for a float"
            ) from None

    def diag(lam: float) -> float:
        return 1.0 - sum(c * lam**e for c, e in terms)

    if diag(cap) >= 0.0:
        return cap
    lo, hi = 0.0, 1.0  # diag(0+) > 0 since exp-0 mass < 1 here
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if diag(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def chain_from_entries(
    states, entries: dict[tuple[str, str], Monomial]
) -> PerturbedChain:
    """Build and validate a chain from explicit off-diagonal monomials."""
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
    for (src, dst), m in entries.items():
        if src not in seen:
            raise ChainFormatError(f"transition from unknown state {src!r}")
        if dst not in seen:
            raise ChainFormatError(f"transition to unknown state {dst!r}")
        if src == dst:
            raise ChainFormatError(
                f"diagonal entry {src!r} -> {dst!r} is implied and must not be given"
            )
        if m.is_zero():
            continue  # zero entries are simply absent
        if m.coeff <= 0:
            raise ChainFormatError(
                f"transition {src!r} -> {dst!r}: coefficient must be > 0, got {m.coeff!r}"
            )
        if not isinstance(m.exp, (int, Fraction)) or m.exp < 0:
            raise ChainFormatError(
                f"transition {src!r} -> {dst!r}: exponent must be a finite rational >= 0, "
                f"got {format_exponent(m.exp)}"
            )
        rows[src][dst] = m

    lambda_max = 1.0
    for s in states:
        mass0 = exp0_mass(rows[s])
        if mass0 > 1.0 + EXACT_LEAVING_TOL:
            raise ChainFormatError(
                f"row {s!r}: exponent-0 coefficients sum to {mass0!r} > 1"
            )
        lambda_max = min(lambda_max, _row_lambda_max(s, rows[s], mass0, lambda_max))

    flat = {(s, d): m for s in states for d, m in rows[s].items()}
    return PerturbedChain(states=states, entries=flat, lambda_max=lambda_max)


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

    entries: dict[tuple[str, str], Monomial] = {}
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
        if coeff <= 0:
            raise ChainFormatError(f"{where}: 'coeff' must be > 0, got {tr['coeff']!r}")
        text = tr["exp"]
        try:
            exp = parsed.get(text) if isinstance(text, str) else None
            if exp is None:
                exp = parsed[text] = parse_exponent(text)
            m = monomial(coeff, exp)
        except ValueError as exc:
            raise ChainFormatError(f"{where}: {exc}") from None
        if (src, dst) in entries:
            raise ChainFormatError(f"{where}: duplicate transition {src!r} -> {dst!r}")
        entries[(src, dst)] = m
    return chain_from_entries(states, entries)


def dump_chain(chain: PerturbedChain) -> dict:
    """Serialize back to the document shape accepted by load_chain."""
    order = chain.index
    transitions = [
        {"from": src, "to": dst, "coeff": m.coeff, "exp": format_exponent(m.exp)}
        for (src, dst), m in sorted(
            chain.entries.items(), key=lambda kv: (order[kv[0][0]], order[kv[0][1]])
        )
    ]
    return {"states": list(chain.states), "transitions": transitions}

