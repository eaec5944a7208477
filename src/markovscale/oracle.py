"""Numeric oracle: brute-force finite-lambda computations used to verify the
asymptotic model.  Everything here works on concrete stochastic matrices and
never touches the aggregation machinery."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain_model import PerturbedChain
from .errors import InputError, InternalError, ResourceError
from .evaluator import occupation, out_of_memory, position
from .hierarchy import LimitModel

#: refuse matrix powers beyond this many steps
MAX_POWER_STEPS = 2**62

_ROW_SUM_TOL = 1e-9


def instantiate(chain: PerturbedChain, lam: float) -> np.ndarray:
    """Concrete stochastic matrix Q_lam (diagonal implied by the rows).  The
    rows of the chain's exactly-leaving states are scaled to sum to one and
    get a zero diagonal, as the model assumes of them.  An entry c * lam**e
    is evaluated on its tick t as c * lam**(t / D): t / D is the correctly
    rounded float of e, and lam**0.0 == 1."""
    if not 0.0 < lam <= chain.lambda_max:
        raise InputError(
            f"lambda {lam!r} outside the feasible range (0, {chain.lambda_max!r}]"
        )
    n, D, index = chain.n_states, chain.scale.D, chain.index
    try:
        Q = np.zeros((n, n))
    except MemoryError:
        raise out_of_memory((n, n)) from None
    for src, row in chain.tick_rows.items():
        for dst, m in row.items():
            Q[index[src], index[dst]] = m.coeff * lam ** (m.exp / D)
    leaving = [index[s] for s in chain.leaving]
    Q[leaving] /= Q[leaving].sum(axis=1, keepdims=True)
    diag = 1.0 - Q.sum(axis=1)
    diag[leaving] = 0.0
    if (diag < -1e-12).any():
        raise InputError(f"lambda {lam!r} leaves a negative implied diagonal")
    np.fill_diagonal(Q, np.clip(diag, 0.0, None))
    return Q


def _check_rows(Q: np.ndarray, what: str, steps: int = 0, mass: float = 1.0) -> None:
    # the instantiated matrix is stochastic only to machine precision, and a
    # power amplifies that defect linearly in the exponent, so the sanity
    # tolerance has to grow with the horizon (no renormalization is applied)
    tol = _ROW_SUM_TOL + 8.0 * np.finfo(float).eps * steps
    err = np.abs(Q.sum(axis=1) - mass).max()
    if err > tol:
        raise InternalError(f"{what}: rows deviate from {mass:g} by {err:g}")


def _horizon(quotient: float, rounding) -> int:
    """A step count, rounding(quotient); a quotient that overflowed a float
    is past the power cap."""
    if quotient == math.inf:
        raise ResourceError("horizon inf exceeds the power cap 2^62")
    return rounding(quotient)


def _power(Q: np.ndarray, t: float, lam: float, extra: int = 0) -> tuple[int, np.ndarray]:
    """floor(t/lam) and Q to that power, shared by position and occupation."""
    if not math.isfinite(t) or t < 0:
        raise InputError(f"t must be a finite number >= 0, got {t!r}")
    steps = _horizon(t / lam, math.floor)
    if steps + extra > MAX_POWER_STEPS:
        raise ResourceError(f"horizon {steps} exceeds the power cap 2^62")
    return steps, np.linalg.matrix_power(Q, steps)


def _resolvent(Q: np.ndarray, lam: float) -> np.ndarray:
    """lam * (Id - (1-lam) Q)^-1 by one LU solve, conditioned like 1/lam."""
    if not 0.0 < lam < 1.0:
        raise InputError(f"lambda must lie in (0, 1), got {lam!r}")
    try:
        R = np.linalg.solve(np.eye(len(Q)) - (1.0 - lam) * Q, lam * np.eye(len(Q)))
    except np.linalg.LinAlgError:
        raise InternalError("resolvent system is singular") from None
    _check_rows(R, "discounted resolvent", steps=_horizon(1.0 / lam, math.ceil))
    return R


def _averaged(Q: np.ndarray, Qs: np.ndarray, steps: int, n_avg: int) -> np.ndarray:
    """Mean of Q^(steps+r) over r = 1..n_avg, from Qs = Q^steps."""
    acc = np.zeros_like(Qs)
    for _ in range(n_avg):
        Qs = Qs @ Q
        acc += Qs
    acc /= n_avg
    _check_rows(acc, "averaged matrix power", steps=steps + n_avg)
    return acc


def _partial(R: np.ndarray, Qs: np.ndarray, lam: float, steps: int) -> np.ndarray:
    """R - (1-lam)^steps R Q^steps, exact because R commutes with Q."""
    decay = (1.0 - lam) ** steps
    D = R - decay * (R @ Qs)
    _check_rows(D, "discounted partial sum", steps=steps + _horizon(1.0 / lam, math.ceil), mass=1.0 - decay)
    return D


def matrix_power_position(Q: np.ndarray, t: float, lam: float, n_avg: int) -> np.ndarray:
    """Skeleton-averaged position at discrete time floor(t/lam): the mean of
    Q^(floor(t/lam)+r) over r = 1..n_avg."""
    if lam <= 0:
        raise InputError(f"lambda must be > 0, got {lam!r}")
    if n_avg < 1:
        raise InputError(f"averaging period must be >= 1, got {n_avg!r}")
    steps, Qs = _power(Q, t, lam, n_avg)
    return _averaged(Q, Qs, steps, n_avg)


def discounted_sum(Q: np.ndarray, lam: float, t: float | None = None, total: bool = False) -> np.ndarray:
    """Discounted occupation at discount lambda: the partial sum
    lam * sum_{m<floor(t/lam)} ((1-lam) Q)^m, or the full resolvent
    lam * (Id - (1-lam) Q)^-1 when total=True."""
    if total == (t is not None):
        raise InputError("give exactly one of t and total")
    R = _resolvent(Q, lam)
    if total:
        return R
    steps, Qs = _power(Q, t, lam)
    return _partial(R, Qs, lam, steps)


@dataclass
class SweepDiagnostics:
    """Per-lambda sup-norm errors of the limit model against the oracle."""

    entries: list[dict]
    position_non_increasing: bool
    occupation_non_increasing: bool
    total_non_increasing: bool

    def final(self, key: str) -> float:
        return self.entries[-1][key]


def _non_increasing(values, slack: float = 1.5, floor: float = 1e-12) -> bool:
    return all(b <= slack * a + floor for a, b in zip(values, values[1:]))


def convergence_sweep(chain: PerturbedChain, model: LimitModel, t: float, lambdas) -> SweepDiagnostics:
    """Compare limit position/occupation against the oracle along decreasing
    discounts and report whether the errors behave like a limit."""
    lambdas = list(lambdas)
    if not lambdas:
        raise InputError("need at least one lambda")
    if any(b >= a for a, b in zip(lambdas, lambdas[1:])):
        raise InputError("lambdas must be strictly decreasing")
    if not math.isfinite(t) or t <= 0:
        raise InputError(f"t must be a finite number > 0, got {t!r}")

    pos_model = position(model, t=t)
    occ_model = occupation(model, t=t).matrix
    tot_model = occupation(model, total=True).matrix

    entries = []
    for lam in lambdas:
        # one power and one LU per lambda feed all three quantities
        Q = instantiate(chain, lam)
        steps, Qs = _power(Q, t, lam, model.N)
        R = _resolvent(Q, lam)
        entries.append({
            "lambda": lam,
            "position_err": float(np.abs(_averaged(Q, Qs, steps, model.N) - pos_model).max()),
            "occupation_t_err": float(np.abs(_partial(R, Qs, lam, steps) - occ_model).max()),
            "total_err": float(np.abs(R - tot_model).max()),
        })
    return SweepDiagnostics(
        entries=entries,
        position_non_increasing=_non_increasing([e["position_err"] for e in entries]),
        occupation_non_increasing=_non_increasing([e["occupation_t_err"] for e in entries]),
        total_non_increasing=_non_increasing([e["total_err"] for e in entries]),
    )
