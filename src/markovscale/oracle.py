"""Numeric oracle: brute-force finite-lambda computations used to verify the
asymptotic model.  Everything here works on concrete stochastic matrices and
never touches the aggregation machinery."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain_model import PerturbedChain
from .errors import InputError, InternalError, ResourceError
from .evaluator import occupation, out_of_memory, position, read_horizon
from .hierarchy import LimitModel

_ROW_SUM_TOL = 1e-9
#: per step: a power amplifies the rounding defect of Q's rows linearly
_STEP_TOL = 8.0 * np.finfo(float).eps
#: the largest step count k with _ROW_SUM_TOL + _STEP_TOL * k < 1 (about 2^49):
#: one step more, and the row check's tolerance reaches 1, so it cannot fail
MAX_POWER_STEPS = math.ceil((1.0 - _ROW_SUM_TOL) / _STEP_TOL) - 1


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


def _read_stochastic(Q) -> np.ndarray:
    """Q as a float array with each row divided by its sum, once it is a
    square matrix whose rows hold nonnegative numbers that sum to 1 within
    _ROW_SUM_TOL.  The result checks allow only rounding on top of rows that
    sum to 1, so a row off 1 by up to _ROW_SUM_TOL is scaled back to 1
    here; a row whose sum is 1.0 keeps every bit."""
    try:
        Q = np.asarray(Q, dtype=float)
    except (TypeError, ValueError):
        raise InputError("Q must be a square matrix of numbers") from None
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise InputError(f"Q must be a square matrix, got shape {Q.shape}")
    sums = Q.sum(axis=1)
    negative = (Q < 0.0).any(axis=1)
    bad = np.flatnonzero(negative | ~(np.abs(sums - 1.0) <= _ROW_SUM_TOL))  # NaN fails too
    if bad.size:
        i = int(bad[0])
        if negative[i]:
            raise InputError(f"Q row {i} holds the negative entry {float(Q[i].min())!r}")
        raise InputError(f"Q row {i} sums to {float(sums[i])!r}, not 1 (tolerance {_ROW_SUM_TOL:g})")
    return Q / sums[:, None]


def _check_rows(Q: np.ndarray, what: str, steps: int = 0, mass: float = 1.0) -> None:
    """The rows of Q sum to `mass` within _ROW_SUM_TOL + _STEP_TOL * steps, no
    renormalization applied; steps passed _horizon, so the tolerance is < 1."""
    tol = _ROW_SUM_TOL + _STEP_TOL * steps
    err = np.abs(Q.sum(axis=1) - mass).max()
    if err > tol:
        raise InternalError(f"{what}: rows deviate from {mass:g} by {err:g}")


def _horizon(count: float, extra: int = 0) -> int:
    """int(count), once count + extra (the most steps a row check allows for)
    is at most MAX_POWER_STEPS; a NaN count or one that overflowed fails too."""
    if not count + extra <= MAX_POWER_STEPS:
        raise ResourceError(f"horizon of {count + extra:.15g} steps exceeds the power cap {MAX_POWER_STEPS}")
    return int(count)


def _power(Q: np.ndarray, t: float, lam: float, extra: int) -> tuple[int, np.ndarray]:
    """floor(t/lam) and Q to that power, once floor(t/lam) + extra is within the cap."""
    steps = _horizon(np.floor(read_horizon(t) / lam), extra)
    return steps, np.linalg.matrix_power(Q, steps)


def _resolvent_steps(lam: float) -> int:
    """ceil(1/lam), the steps the resolvent's row checks allow for."""
    if not 0.0 < lam < 1.0:
        raise InputError(f"lambda must lie in (0, 1), got {lam!r}")
    return _horizon(np.ceil(1.0 / lam))


def _resolvent(Q: np.ndarray, lam: float) -> np.ndarray:
    """lam * (Id - (1-lam) Q)^-1 by one LU solve, conditioned like 1/lam."""
    steps = _resolvent_steps(lam)
    try:
        R = np.linalg.solve(np.eye(len(Q)) - (1.0 - lam) * Q, lam * np.eye(len(Q)))
    except np.linalg.LinAlgError:
        raise InternalError("resolvent system is singular") from None
    _check_rows(R, "discounted resolvent", steps=steps)
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
    _check_rows(D, "discounted partial sum", steps=steps + _resolvent_steps(lam), mass=1.0 - decay)
    return D


def matrix_power_position(Q: np.ndarray, t: float, lam: float, n_avg: int) -> np.ndarray:
    """Skeleton-averaged position at discrete time floor(t/lam): the mean of
    Q^(floor(t/lam)+r) over r = 1..n_avg."""
    Q = _read_stochastic(Q)
    if not 0.0 < lam < math.inf:
        raise InputError(f"lambda must be a finite number > 0, got {lam!r}")
    if type(n_avg) is bool or not isinstance(n_avg, (int, np.integer)) or n_avg < 1:
        raise InputError(f"averaging period must be an integer >= 1, got {n_avg!r}")
    steps, Qs = _power(Q, t, lam, n_avg)
    return _averaged(Q, Qs, steps, n_avg)


def discounted_sum(Q: np.ndarray, lam: float, t: float | None = None, total: bool = False) -> np.ndarray:
    """Discounted occupation at discount lambda: the partial sum
    lam * sum_{m<floor(t/lam)} ((1-lam) Q)^m, or the full resolvent
    lam * (Id - (1-lam) Q)^-1 when total=True."""
    Q = _read_stochastic(Q)
    if total == (t is not None):
        raise InputError("give exactly one of t and total")
    if total:
        return _resolvent(Q, lam)
    steps, Qs = _power(Q, t, lam, _resolvent_steps(lam))
    return _partial(_resolvent(Q, lam), Qs, lam, steps)


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
    read_horizon(t, positive=True)
    if model.chain != chain:
        raise InputError("the model was not analyzed from the chain given")

    pos_model = position(model, t=t)
    occ_model = occupation(model, t=t).matrix
    tot_model = occupation(model, total=True).matrix

    entries = []
    for lam in lambdas:
        # one power and one LU per lambda feed all three quantities
        Q = instantiate(chain, lam)
        steps, Qs = _power(Q, t, lam, max(model.N, _resolvent_steps(lam)))
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
