"""Leading-order monomial arithmetic in a small positive parameter.

Every quantity tracked by this package is the leading term of an expansion
c * lam**e + o(lam**e) with c >= 0 and a rational exponent e.  Arithmetic on
such terms is subtraction-free: addition keeps the smaller exponent (summing
coefficients on ties), multiplication multiplies coefficients and adds
exponents.  Coefficients follow plain float + * /, with no special case: the
zero element (0, inf) is absorbing for addition and annihilating for
multiplication by float arithmetic alone, and a product or quotient that
underflows keeps its exponent with coefficient 0.0, so no step drops a term.

Exponents are exact rationals; `math.inf` is the reserved sentinel for the
exponent of zero.  Public objects carry `fractions.Fraction` exponents; the
aggregation ladder runs the same operations on ints counting units of the
chain's common denominator, as decided once by the chain's `TickScale`
(everything else here is generic over both).  Exponent comparisons are
exact.

The `mono_*` functions are the one statement of the rules.  The hot loops
of the elimination kernel and the ladder carry terms as plain (coeff, exp)
pairs and write these steps out inline, each doing exactly what the
`mono_*` chain it replaces does, underflow included.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from fractions import Fraction
from typing import NamedTuple, Union

Exponent = Union[Fraction, int, float]  # Fraction (int inside the ladder), or math.inf for zero

INF = math.inf

_EXPONENT_RE = re.compile(r"^-?\d+(?:/\d+)?$")


def parse_exponent(text: str) -> Exponent:
    """Parse exponent text: an integer like "2", a fraction like "3/5", or "inf"."""
    if not isinstance(text, str):
        raise ValueError(f"exponent must be a string, got {text!r}")
    if text == "inf":
        return INF
    if not _EXPONENT_RE.match(text):
        raise ValueError(f"malformed exponent {text!r} (expected 'p', 'p/q' or 'inf')")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"malformed exponent {text!r} (zero denominator)") from None


def format_exponent(exp: Exponent) -> str:
    """Inverse of parse_exponent; Fractions render as 'p' or 'p/q'."""
    if exp == INF:
        return "inf"
    return str(exp)


class Monomial(NamedTuple):
    """Leading term coeff * lam**exp; the zero element is (0, inf).  A
    Monomial is the pair (coeff, exp): it unpacks like one and compares
    equal to the plain tuple, so code can read either the same way."""

    coeff: float
    exp: Exponent

    def is_zero(self) -> bool:
        return self.coeff == 0.0

    def __repr__(self) -> str:  # keeps debugging output short
        return f"({self.coeff:g}, {format_exponent(self.exp)})"


#: `_tuple_new(Monomial, (c, e))` is `Monomial(c, e)` without the named
#: tuple's Python-level `__new__`, at about half the cost; the loaders make
#: one per chain entry and per strategy weight, the kernel one per measure
#: value
_tuple_new = tuple.__new__

ZERO = Monomial(0.0, INF)
#: the int exponent keeps int arithmetic int; it equals and hashes like Fraction(0)
ONE = Monomial(1.0, 0)


def monomial(coeff: float, exp: Exponent) -> Monomial:
    """Validating constructor.  coeff == 0 normalizes to the zero element."""
    coeff = float(coeff)
    if math.isnan(coeff) or math.isinf(coeff):
        raise ValueError(f"monomial coefficient must be finite, got {coeff!r}")
    if coeff < 0.0:
        raise ValueError(f"monomial coefficient must be >= 0, got {coeff!r}")
    if coeff == 0.0:
        return ZERO
    if isinstance(exp, int):
        exp = Fraction(exp)
    if not isinstance(exp, Fraction):
        # math.inf is only legal together with a zero coefficient
        raise ValueError(f"nonzero monomial needs a finite rational exponent, got {exp!r}")
    return Monomial(coeff, exp)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Product: coefficients multiply, exponents add."""
    return Monomial(a.coeff * b.coeff, a.exp + b.exp)


def mono_add(a: Monomial, b: Monomial) -> Monomial:
    """Leading-order sum: the smaller exponent wins; ties sum coefficients."""
    if a.exp < b.exp:
        return a
    if b.exp < a.exp:
        return b
    return Monomial(a.coeff + b.coeff, a.exp)


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """Quotient a/b; b must have a nonzero coefficient.  Exponents may go
    negative here — that only ever happens transiently inside measure
    normalization."""
    if b.is_zero():
        raise ZeroDivisionError("division by the zero monomial")
    return Monomial(a.coeff / b.coeff, a.exp - b.exp)


def mono_limit(a: Monomial) -> float:
    """lim_{lam -> 0+} of the monomial: coeff at exponent 0, 0 beyond, error below."""
    if a.is_zero():
        return 0.0
    if a.exp < 0:
        raise ValueError(f"monomial {a!r} diverges as lam -> 0")
    if a.exp == 0:
        return a.coeff
    return 0.0


def mono_eval(a: Monomial, lam: float) -> float:
    """Numeric value coeff * lam**exp at a concrete lam in (0, 1]."""
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"lam must lie in (0, 1], got {lam!r}")
    if a.is_zero():
        return 0.0
    if a.exp == 0:
        return a.coeff
    return a.coeff * lam ** float(a.exp)


class TickScale:
    """Exact exponents as ints.  The exponent p/q is the tick p * (D // q),
    D being the lcm of the denominators the scale is made for; sums of
    exponents become sums of ticks.  Ticks turn back into public `Fraction`
    exponents here, one object per distinct value.  Scales with the same D
    are equal: D alone decides every tick and every exponent."""

    def __init__(self, denominators):
        self.D = math.lcm(*denominators)
        self._fractions: dict = {INF: INF}

    def __eq__(self, other):
        if not isinstance(other, TickScale):
            return NotImplemented
        return self.D == other.D

    def __hash__(self) -> int:
        return hash(self.D)

    def tick(self, p: int, q: int) -> int:
        """The tick of the exponent p/q; q must divide D."""
        return p * (self.D // q)

    def fraction(self, t) -> Exponent:
        """The exponent t/D of the tick t (inf stays inf)."""
        f = self._fractions.get(t)
        if f is None:
            f = self._fractions[t] = Fraction(t, self.D)
        return f


class PublicTable(Mapping):
    """Read-only view of a table on ticks (key -> {target -> (coeff, tick)})
    that hands out each row as `Monomial`s with the `Fraction` exponents of
    `scale`, converting a row when it is first read."""

    def __init__(self, rows: dict, scale: TickScale):
        self._rows = rows
        self._fraction = scale.fraction
        self._public: dict = {}

    def __getitem__(self, key) -> dict:
        row = self._public.get(key)
        if row is None:
            fraction = self._fraction
            row = self._public[key] = {v: Monomial(c, fraction(e))
                                       for v, (c, e) in self._rows[key].items()}
        return row

    def __contains__(self, key) -> bool:
        return key in self._rows

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def pair_sum(pairs) -> tuple:
    """mono_add-fold of (coeff, exp) pairs, as a pair: the least exponent,
    with the coefficients that reach it summed in order ((0.0, inf) for
    none)."""
    sc, se = ZERO
    for c, e in pairs:
        if e < se:
            sc, se = c, e
        elif e == se:
            sc += c
    return sc, se


def mono_sum(terms) -> Monomial:
    """mono_add-fold of an iterable (empty sum is zero)."""
    return Monomial(*pair_sum(terms))
