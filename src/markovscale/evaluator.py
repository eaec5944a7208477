"""Evaluation of the limit objects: positions, occupation measures, payoffs,
and the closed forms available for absorbing-type and critical chains."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .asymptotics import mono_sum
from .chain_model import PerturbedChain, read_number
from .errors import InputError, InternalError
from .hierarchy import LimitModel


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring with degree-13 Pade)."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError(f"expm needs a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise InputError("expm input has non-finite entries")
    E = scipy.linalg.expm(A)
    if not np.isfinite(E).all():
        raise InternalError("matrix exponential overflowed")
    return E


def position(model: LimitModel, t: float | None = None, fraction: float | None = None) -> np.ndarray:
    """Limit position matrix P_t = mu . exp(A t) . M over the original states.

    Exactly one of `t` (time on the 1/lam scale, >= 0) and `fraction` (of the
    total discounted weight, in [0, 1)) must be given; a fraction f is the
    same computation at t = -ln(1 - f).
    """
    if (t is None) == (fraction is None):
        raise InputError("give exactly one of t and fraction")
    if fraction is not None:
        if not 0.0 <= fraction < 1.0:
            raise InputError(f"fraction must lie in [0, 1), got {fraction!r}")
        t = -math.log1p(-fraction)
    if t < 0:
        raise InputError(f"t must be >= 0, got {t!r}")
    E = expm(model.A * t)
    return model.mu @ E @ model.M


@dataclass
class OccupationResult:
    """Occupation matrix and its horizon (None means the total measure)."""

    matrix: np.ndarray
    horizon: float | None


def occupation(model: LimitModel, t: float | None = None, total: bool = False) -> OccupationResult:
    """Expected limit occupation up to time t (rows sum to 1 - e^-t), or the
    total occupation mu . (Id - A)^-1 . M (row-stochastic)."""
    if total == (t is not None):
        raise InputError("give exactly one of t and total")
    nc = model.n_classes
    eye = np.eye(nc)
    if total:
        try:
            X = np.linalg.solve(eye - model.A, model.M)
        except np.linalg.LinAlgError:
            raise InternalError("Id - A is singular") from None
        return OccupationResult(matrix=model.mu @ X, horizon=None)
    if t <= 0:
        raise InputError(f"occupation horizon must be > 0, got {t!r}")
    B = model.A - eye
    E = expm(B * t)
    try:
        Y = np.linalg.solve(B, E - eye)
    except np.linalg.LinAlgError:
        raise InternalError("A - Id is singular") from None
    return OccupationResult(matrix=model.mu @ Y @ model.M, horizon=t)


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
    return model.mu @ x


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
    if t < 0:
        raise InputError(f"t must be >= 0, got {t!r}")
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
    return expm(A * t)
