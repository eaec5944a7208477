"""Evaluation of the limit objects: positions, occupation measures, payoffs,
and the closed forms available for absorbing-type and critical chains."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import mono_sum
from .chain_model import PerturbedChain, read_number
from .errors import InputError, InternalError, ResourceError
from .hierarchy import LimitModel


#: Pade degree m -> (theta_m, numerator coefficients b_0..b_m).  Degree m is
#: accurate to double precision (backward error <= 2^-53) when the 1-norm of
#: its argument is at most theta_m (Higham 2005, SIAM J. Matrix Anal. Appl.
#: 26(4), Table 2.3); the denominator is the numerator at -A.
_PADE = {
    3: (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    5: (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    7: (9.504178996162932e-1,
        (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)),
    9: (2.097847961257068e0,
        (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
         2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
    13: (5.371920351148152e0,
         (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
          1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
          33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)),
}


def pade_degree_and_scaling(norm: float) -> tuple[int, int]:
    """The Pade degree m and the number s of squarings for a matrix of
    1-norm `norm`: the lowest degree whose theta covers the norm, else degree
    13 on the matrix scaled by 2^-s into its theta."""
    for m in (3, 5, 7, 9):
        if norm <= _PADE[m][0]:
            return m, 0
    return 13, max(0, math.ceil(math.log2(norm / _PADE[13][0])))


def _combination_rows(m: int, b: tuple) -> np.ndarray:
    """Rows of numerator coefficients over the powers I, A^2, A^4, ...:
    for m < 13 the odd and the even part; for 13 the parts above and below
    A^6 of each (the odd part is A (A^6 U_hi + U_lo), the even A^6 V_hi + V_lo)."""
    if m < 13:
        return np.array([b[1::2], b[0::2]])
    return np.array([[0.0, b[9], b[11], b[13]], [b[1], b[3], b[5], b[7]],
                     [0.0, b[8], b[10], b[12]], [b[0], b[2], b[4], b[6]]])


_ROWS = {m: _combination_rows(m, b) for m, (_, b) in _PADE.items()}


def _pade(A: np.ndarray, m: int) -> np.ndarray:
    """Diagonal [m/m] Pade approximant of e^A: (V - U)^-1 (V + U), with U
    the odd and V the even part of the numerator.  The even powers of A sit
    in one array, so a single product with the coefficient rows forms every
    linear combination."""
    n = A.shape[0]
    rows = _ROWS[m]
    k = rows.shape[1]
    powers = np.empty((k, n, n))
    powers[0] = np.eye(n)
    np.dot(A, A, out=powers[1])
    for i in range(2, k):
        np.dot(powers[i - 1], powers[1], out=powers[i])
    W = np.dot(rows, powers.reshape(k, n * n)).reshape(-1, n, n)
    if m < 13:
        U, V = np.dot(A, W[0]), W[1]
    else:
        U = np.dot(A, np.dot(powers[3], W[0]) + W[1])
        V = np.dot(powers[3], W[2]) + W[3]
    return np.linalg.solve(V - U, V + U)


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Pade approximant of
    degree 3, 5, 7, 9 or 13 chosen from the exact 1-norm (Higham 2005).  A
    result too large for a double comes back with inf or nan entries; the
    evaluators below check the rows they get (the horizon rule)."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError(f"expm needs a square matrix, got shape {A.shape}")
    # the 1-norm is nan or inf exactly when an entry is (or the column sums overflow)
    norm = float(np.abs(A).sum(axis=0).max(initial=0.0))
    if not math.isfinite(norm):
        raise InputError("expm input has non-finite entries")
    if A.shape[0] == 1:
        return np.exp(A)
    m, s = pade_degree_and_scaling(norm)
    E = _pade(A * 2.0**-s if s else A, m)
    for _ in range(s):
        E = np.dot(E, E)
    return E


#: largest deviation of a row sum of e^{At} (or of the occupation matrix) from
#: its exact value that a horizon may leave; squaring doubles the rounding
#: defect of the scaled approximant s times, so t * ||A|| near 1e10 reaches it
HORIZON_ROW_TOL = 1e-6


def read_horizon(t: float, positive: bool = False) -> float:
    """The horizon rule: t is a real number, by `read_number`'s rule (a bool
    is not one), finite and >= 0 (> 0 if `positive`); returned as a float."""
    value = read_number(t, "t", error=InputError)
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        raise InputError(f"t must be a finite number {'>' if positive else '>='} 0, got {t!r}")
    return value


def _check_horizon_rows(X: np.ndarray, want: float, t: float) -> None:
    """The horizon rule: the rows of the class-level matrix X sum to `want`
    within HORIZON_ROW_TOL, or t is too long for double precision."""
    dev = float(np.abs(X.sum(axis=1) - want).max())
    if not dev <= HORIZON_ROW_TOL:
        raise InputError(
            f"t = {t!r} is too long a horizon: the class-level rows sum to {want!r} "
            f"only within {dev:g} (tolerance {HORIZON_ROW_TOL:g})"
        )


def out_of_memory(shape: tuple) -> ResourceError:
    """The error for an array with a row or column per state that does not
    fit in memory."""
    return ResourceError(f"out of memory for a {'x'.join(map(str, shape))} float array")


def _through_entrance_law(model: LimitModel, X: np.ndarray) -> np.ndarray:
    """mu . X for X with one row per final class (a matrix or a vector).  A
    state whose entrance law is the indicator of class i gets X[i] as it is,
    which is exact: 1.0 * x plus zeros is x in any summation order.  Only the
    rows where the law splits are products."""
    try:
        out = np.take(X, model.entry, axis=0)
    except MemoryError:
        raise out_of_memory(model.entry.shape + X.shape[1:]) from None
    if model.split.size:
        out[model.split] = model.mu[model.split] @ X
    return out


def position(model: LimitModel, t: float | None = None, fraction: float | None = None) -> np.ndarray:
    """Limit position matrix P_t = mu . exp(A t) . M over the original states.

    Exactly one of `t` (time on the 1/lam scale, >= 0) and `fraction` (of the
    total discounted weight, in [0, 1)) must be given; a fraction f is the
    same computation at t = -ln(1 - f).  A t whose exp(A t) has rows off 1 by
    more than HORIZON_ROW_TOL is an input error.
    """
    if (t is None) == (fraction is None):
        raise InputError("give exactly one of t and fraction")
    if fraction is not None:
        fraction = read_number(fraction, "fraction", error=InputError)
        if not 0.0 <= fraction < 1.0:
            raise InputError(f"fraction must lie in [0, 1), got {fraction!r}")
        t = -math.log1p(-fraction)
    read_horizon(t)
    E = expm(model.A * t)
    _check_horizon_rows(E, 1.0, t)
    return _through_entrance_law(model, E @ model.M)


@dataclass
class OccupationResult:
    """Occupation matrix and its horizon (None means the total measure)."""

    matrix: np.ndarray
    horizon: float | None


def occupation(model: LimitModel, t: float | None = None, total: bool = False) -> OccupationResult:
    """Expected limit occupation up to time t (rows sum to 1 - e^-t, within
    HORIZON_ROW_TOL or t is an input error), or the total occupation
    mu . (Id - A)^-1 . M (row-stochastic)."""
    if total == (t is not None):
        raise InputError("give exactly one of t and total")
    nc = model.n_classes
    eye = np.eye(nc)
    if total:
        try:
            R = np.linalg.solve(eye - model.A, eye)
        except np.linalg.LinAlgError:
            raise InternalError("Id - A is singular") from None
        # on the c x c system, then M: c right-hand sides instead of n
        return OccupationResult(matrix=_through_entrance_law(model, R @ model.M), horizon=None)
    read_horizon(t, positive=True)
    B = model.A - eye
    E = expm(B * t)
    try:
        Y = np.linalg.solve(B, E - eye)
    except np.linalg.LinAlgError:
        raise InternalError("A - Id is singular") from None
    _check_horizon_rows(Y, -math.expm1(-t), t)
    return OccupationResult(matrix=_through_entrance_law(model, Y @ model.M), horizon=t)


def payoff_vector(chain: PerturbedChain, g) -> np.ndarray:
    """Normalize a payoff specification (mapping state->value, or a sequence
    aligned with chain.states) to a numpy vector."""
    if isinstance(g, dict):
        missing = [s for s in chain.states if s not in g]
        if missing:
            raise InputError(f"payoff vector is missing states: {missing}")
        extra = [s for s in g if s not in chain.index]
        if extra:
            raise InputError(f"payoff vector has unknown states: {extra}")
        vec = np.array(
            [read_number(g[s], "payoff vector entry %r", s, error=InputError) for s in chain.states]
        )
    else:
        # as objects, so that strings and booleans reach read_number unconverted
        entries = np.asarray(g, dtype=object)
        if entries.shape != (chain.n_states,):
            raise InputError(
                f"payoff vector has shape {entries.shape}, expected ({chain.n_states},)"
            )
        vec = np.array(
            [read_number(v, "payoff vector entry %d", i, error=InputError)
             for i, v in enumerate(entries)]
        )
    if not np.isfinite(vec).all():
        raise InputError("payoff vector has non-finite entries")
    return vec


def limit_payoff(model: LimitModel, g) -> np.ndarray:
    """Per-state limit discounted payoff mu . (Id - A)^-1 . M . g, solved on
    the class vector M . g without forming the n x n occupation matrix."""
    vec = payoff_vector(model.chain, g)
    try:
        x = np.linalg.solve(np.eye(model.n_classes) - model.A, model.M @ vec)
    except np.linalg.LinAlgError:
        raise InternalError("Id - A is singular") from None
    return _through_entrance_law(model, x)


def absorbing_closed_form(chain: PerturbedChain, t: float) -> np.ndarray:
    """Limit position row of the single active state of an absorbing-type
    chain (every other state has no outgoing entries).

    With exit monomial (c, e): e > 1 keeps the mass in place for any finite t;
    e < 1 moves it instantly onto the attaining targets in proportion to their
    coefficients; e = 1 interpolates with rate c.
    """
    active = [s for s in chain.states if chain.row(s)]
    if len(active) != 1:
        raise InputError(
            f"absorbing closed form needs exactly one state with exits, found {len(active)}"
        )
    if math.isnan(t):  # t = inf is meaningful here: the long-run split
        raise InputError(f"t must be a number, got {t!r}")
    if t < 0:
        raise InputError(f"t must be >= 0, got {t!r}")
    src = active[0]
    total = mono_sum(chain.row(src).values())
    c, e = total.coeff, total.exp
    row = np.zeros(chain.n_states)
    i0 = chain.index[src]
    if t == 0 or e > 1:
        row[i0] = 1.0
        return row
    share = {d: m.coeff / c for d, m in chain.row(src).items() if m.exp == e}
    if e == 1:
        stay = math.exp(-c * t)
        row[i0] = stay
        for d, p in share.items():
            row[chain.index[d]] = (1.0 - stay) * p
    else:
        for d, p in share.items():
            row[chain.index[d]] = p
    return row


def critical_closed_form(chain: PerturbedChain, t: float) -> np.ndarray:
    """Limit position matrix exp(A t) of a critical chain (all entry exponents
    >= 1; A collects the coefficients of the exponent-1 entries)."""
    read_horizon(t)
    n = chain.n_states
    A = np.zeros((n, n))
    for (src, dst), m in chain.entries.items():
        if m.exp < 1:
            raise InputError(
                f"chain is not critical: entry {src!r} -> {dst!r} has exponent < 1"
            )
        if m.exp == 1:
            A[chain.index[src], chain.index[dst]] = m.coeff
    np.fill_diagonal(A, -A.sum(axis=1))
    E = expm(A * t)
    _check_horizon_rows(E, 1.0, t)
    return E
