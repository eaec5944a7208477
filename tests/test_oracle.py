"""Brute-force finite-lambda references: instantiation, averaged powers,
discounted sums, and the convergence sweep harness."""

import json
import math
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from markovscale import (
    InputError,
    InternalError,
    Monomial,
    ResourceError,
    analyze,
    chain_from_entries,
    load_chain,
    monomial,
)
from markovscale import chain_model, oracle
from markovscale.evaluator import limit_payoff, occupation, position
from markovscale.games import compile_game, load_game
from markovscale.oracle import (
    MAX_POWER_STEPS,
    convergence_sweep,
    discounted_sum,
    instantiate,
    matrix_power_position,
)

import helpers
from helpers import fixture, frozen_convergence_sweep, geometric_sum


def flip_chain():
    return load_chain(
        {
            "states": ["1", "2"],
            "transitions": [
                {"from": "1", "to": "2", "coeff": 1.0, "exp": "1"},
                {"from": "2", "to": "1", "coeff": 1.0, "exp": "1"},
            ],
        }
    )


# ------------------------------------------------------------- instantiate


def test_instantiating_a_matrix_that_does_not_fit_is_a_resource_error(monkeypatch):
    chain = load_chain(fixture("eightstate.json"))
    zeros = np.zeros

    def no_memory(shape, *args, **kwargs):
        if shape == (8, 8):
            raise MemoryError("Unable to allocate")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", no_memory)
    with pytest.raises(ResourceError, match="out of memory for a 8x8 float array"):
        instantiate(chain, 1e-3)


def test_instantiate_fills_the_diagonal():
    Q = instantiate(flip_chain(), 0.1)
    np.testing.assert_allclose(Q, [[0.9, 0.1], [0.1, 0.9]], atol=0)


def test_instantiate_evaluates_fractional_exponents():
    chain = load_chain(fixture("eightstate.json"))
    Q = instantiate(chain, 1e-5)
    # lambda^(1/5) = 0.1 exactly in exact arithmetic
    assert Q[chain.index["1"], chain.index["2"]] == pytest.approx(0.1, rel=1e-12)
    np.testing.assert_allclose(Q.sum(axis=1), np.ones(8), atol=1e-12)
    assert np.all(Q >= 0)


def test_instantiate_is_valid_right_up_to_the_feasibility_edge():
    chain = load_chain(fixture("eightstate.json"))
    Q = instantiate(chain, chain.lambda_max)
    assert np.diag(Q).min() == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(Q.sum(axis=1), np.ones(8), atol=1e-12)


def test_instantiate_rejects_infeasible_lambdas():
    chain = load_chain(fixture("eightstate.json"))
    with pytest.raises(InputError, match="feasible"):
        instantiate(chain, 0.9)
    with pytest.raises(InputError, match="feasible"):
        instantiate(chain, chain.lambda_max * 1.001)
    with pytest.raises(InputError, match="feasible"):  # lambda_max is the largest feasible float
        instantiate(chain, math.nextafter(chain.lambda_max, 1.0))
    with pytest.raises(InputError, match="feasible"):
        instantiate(chain, 0.0)
    with pytest.raises(InputError, match="feasible"):
        instantiate(chain, -1e-3)


def test_a_root_far_below_two_to_the_minus_200_bounds_lambda():
    # 1e300 * lam**2 reaches 1 at lam = 1e-150; no halving cap may cut that
    # bound to 0
    chain = chain_from_entries(["a", "b"], {("a", "b"): Monomial(1e300, Fraction(2))})
    assert chain.lambda_max == 1e-150
    assert np.array_equal(instantiate(chain, 1e-200), np.eye(2))
    Q = instantiate(chain, chain.lambda_max)
    assert Q[0, 0] >= 0.0 and Q[0].sum() == pytest.approx(1.0, abs=1e-15)


def test_a_row_without_a_feasible_float_lambda_is_named_when_lambda_max_is_read():
    # 1e300 * lam**(1/4) reaches 1 at lam = 1e-1200, below every float > 0
    chain = chain_from_entries(["a", "b"], {("a", "b"): Monomial(1e300, Fraction(1, 4)),
                                            ("b", "a"): monomial(0.5, 1)})
    model = analyze(chain)  # the limit objects need no concrete lambda
    assert model.alphas[-1] == 1
    for _ in range(2):
        with pytest.raises(InputError, match="row 'a': no float lambda > 0"):
            chain.lambda_max
    with pytest.raises(InputError, match="row 'a'"):
        instantiate(chain, 1e-300)


def test_lambda_max_is_searched_only_when_the_oracle_first_reads_it(monkeypatch):
    # loading, analyzing and evaluating never evaluate a row's diagonal; the
    # first instantiate of a sweep searches each row that does not leave
    # exactly once, and the later ones reuse the bound
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    searched = []
    search = chain_model._row_lambda_max

    def counted(state, *args):
        searched.append(state)
        return search(state, *args)

    monkeypatch.setattr(chain_model, "_row_lambda_max", counted)
    for name in helpers.CHAIN_FIXTURES:
        model = analyze(load_chain(fixture(f"{name}.json")))
        position(model, 1.0)
        occupation(model, 1.0)
        occupation(model, total=True)
        limit_payoff(model, np.linspace(0.0, 1.0, model.chain.n_states))
    for name in helpers.GAME_FIXTURES:
        chain, g = compile_game(*load_game(fixture(f"{name}.json")))
        model = analyze(chain)
        position(model, 1.0)
        occupation(model, 1.0)
        limit_payoff(model, g)
    for name in ("ladder", "dense_classes", "game_verify"):
        job = workloads.make_inputs(name, 11, tiny=True)[0]
        out = workloads.run_job(job, False, lambda phase: nullcontext())
        workloads.check_job(job, out)
    assert searched == []

    job = workloads.make_inputs("game_verify", 11, tiny=True)[0]
    chain, _ = compile_game(*load_game(json.loads(job.text)))
    model = analyze(chain)
    entries = convergence_sweep(chain, model, 1.0, workloads.SWEEP_LAMBDAS).entries
    assert len(entries) == 3
    assert searched == [s for s in chain.states if s not in chain.leaving]
    assert searched


def test_instantiate_gives_exactly_leaving_rows_no_diagonal():
    # a's exponent-0 mass is 1 + 1e-10, within the exactly-leaving tolerance,
    # so the model gives a no diagonal; the oracle must not find a negative one
    def chain(mass0):
        return chain_from_entries(["a", "b", "c"], {
            ("a", "b"): monomial(mass0, 0),
            ("b", "a"): monomial(1.0, 0),
            ("c", "a"): monomial(0.5, 1),
        })

    over, under = chain(1 + 1e-10), chain(1 - 1e-10)
    assert over.leaving == under.leaving == {"a", "b"}
    assert over.lambda_max == 1.0
    for lam in (1e-3, 1e-4):
        Q = instantiate(over, lam)
        assert np.array_equal(Q, instantiate(under, lam))
        assert Q[0].tolist() == [0.0, 1.0, 0.0]


def test_instantiate_matches_the_entry_by_entry_reference_bit_for_bit():
    # instantiate evaluates c * lam**(tick / D) on the chain's tick table, the
    # reference c * lam**float(exp) on its public Fraction monomials
    chains = [load_chain(fixture(f"{name}.json")) for name in helpers.CHAIN_FIXTURES]
    chains += [compile_game(*load_game(fixture(f"{name}.json")))[0]
               for name in helpers.GAME_FIXTURES]
    rng = np.random.default_rng(1313)
    makers = (
        helpers.random_chain,
        lambda r: helpers.random_chain(r, max_states=8, pool=helpers.COPRIME_POOL),
        helpers.random_periodic_chain,
        helpers.random_trap_chain,
        helpers.random_nested_chain,
        helpers.random_critical_chain,
    )
    chains += [makers[i % len(makers)](rng) for i in range(360)]
    # the coprime pool reaches common denominators up to 2 * 7 * 11 * 13
    assert max(chain.scale.D for chain in chains) == 2002
    for chain in chains:
        for f in (1.0, 0.37, 1e-3, 1e-9):
            lam = f * chain.lambda_max
            assert np.array_equal(instantiate(chain, lam), helpers.reference_instantiate(chain, lam))


# --------------------------------------------------- averaged matrix powers


def test_periodic_chain_averages_to_the_uniform_split():
    chain = load_chain(fixture("twostate_swap.json"))
    for lam in (1e-3, 1e-7):
        Q = instantiate(chain, lam)
        P = matrix_power_position(Q, 3.0, lam, 2)
        np.testing.assert_allclose(P, np.full((2, 2), 0.5), atol=0)


def test_identity_base_is_a_fixed_point():
    P = matrix_power_position(np.eye(3), 42.0, 1e-4, 5)
    np.testing.assert_allclose(P, np.eye(3), atol=0)


def test_power_position_approaches_the_scalar_solution():
    lam = 1e-6
    Q = instantiate(flip_chain(), lam)
    P = matrix_power_position(Q, 1.0, lam, 1)
    want = 0.5 * (1.0 + math.exp(-2.0))
    assert P[0, 0] == pytest.approx(want, abs=1e-3)


def test_averaging_window_no_longer_matters_deep_in_the_regime():
    lam = 1e-8
    Q = instantiate(flip_chain(), lam)
    a = matrix_power_position(Q, 1.0, lam, 1)
    b = matrix_power_position(Q, 1.0, lam, 2)
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_row_sums_survive_deep_horizons():
    rng = np.random.default_rng(7)
    M = rng.random((4, 4))
    M /= M.sum(axis=1, keepdims=True)
    P = matrix_power_position(M, 10.0, 1e-5, 3)  # about a million steps
    np.testing.assert_allclose(P.sum(axis=1), np.ones(4), atol=1e-9)


def test_power_cap_guards_absurd_horizons():
    assert MAX_POWER_STEPS == 562_949_952_858_362
    with pytest.raises(ResourceError, match="cap"):
        matrix_power_position(np.eye(2), 1.0, 1e-19, 1)
    # a step count t / lam or 1 / lam that overflows a float is past the cap
    # too, not a bare OverflowError; the identity is refused before its
    # resolvent, which 1 - lam == 1.0 would make singular, is solved
    for t, lam in ((1e300, 1e-10), (1.0, 5e-324)):
        with pytest.raises(ResourceError, match="power cap"):
            matrix_power_position(np.eye(2), t, lam, 1)
        with pytest.raises(ResourceError, match="power cap"):
            discounted_sum(np.eye(2), lam, t=t)
    with pytest.raises(ResourceError, match="power cap"):
        discounted_sum(np.eye(2), 5e-324, total=True)


def test_the_power_cap_is_the_last_count_the_row_check_can_refuse():
    # the row check allows 1e-9 + 8 eps per step; at the cap that is still
    # below 1, one step later it is not, and a check with tolerance >= 1 can
    # never fail
    eps = np.finfo(float).eps
    assert oracle._ROW_SUM_TOL + 8.0 * eps * MAX_POWER_STEPS < 1.0
    assert oracle._ROW_SUM_TOL + 8.0 * eps * (MAX_POWER_STEPS + 1) >= 1.0
    assert isinstance(MAX_POWER_STEPS, int)


def _refused_at_the_cap(count):
    """A context that expects the power cap's ResourceError naming `count`."""
    return pytest.raises(ResourceError, match=rf"^horizon of {count} steps exceeds the power cap {MAX_POWER_STEPS}$")


def test_each_oracle_count_is_accepted_up_to_the_cap_and_refused_one_past_it():
    cap, eye = MAX_POWER_STEPS, np.eye(2)
    # lam = 1/2: t / lam is exact, and ceil(1/lam) = 2 steps of conditioning
    # position: floor(t/lam) + n_avg
    for n_avg in (1, 3):
        assert np.array_equal(matrix_power_position(eye, (cap - n_avg) * 0.5, 0.5, n_avg), eye)
        with _refused_at_the_cap(cap + 1):
            matrix_power_position(eye, (cap - n_avg + 1) * 0.5, 0.5, n_avg)
    # partial sum: floor(t/lam) + ceil(1/lam)
    assert np.array_equal(discounted_sum(eye, 0.5, t=(cap - 2) * 0.5), eye)
    with _refused_at_the_cap(cap + 1):
        discounted_sum(eye, 0.5, t=(cap - 1) * 0.5)
    # total: ceil(1/lam) alone
    lam_last, lam_past = 1.0 / cap, 1.0 / (cap + 0.5)
    assert (math.ceil(1.0 / lam_last), math.ceil(1.0 / lam_past)) == (cap, cap + 1)
    assert np.isfinite(discounted_sum(eye, lam_last, total=True)).all()
    with _refused_at_the_cap(cap + 1):
        discounted_sum(eye, lam_past, total=True)
    # sweep: floor(t/lam) + max(N, ceil(1/lam)) on a one-class chain, whose
    # limit position and occupation stay exact at any horizon
    chain, model = _pair_chain_and_model()
    assert model.N == 1
    diag = convergence_sweep(chain, model, (cap - 2) * 0.5, [0.5])
    assert diag.final("position_err") <= 1e-15
    with _refused_at_the_cap(cap + 1):
        convergence_sweep(chain, model, (cap - 1) * 0.5, [0.5])
    with _refused_at_the_cap(cap + 1):
        convergence_sweep(chain, model, 1e-30, [0.5, lam_past])


def _pair_chain_and_model():
    """a <-> b at coefficient 0.5, exponent 0: one class, A = 0, every
    lambda in (0, 1] feasible."""
    chain = load_chain({"states": ["a", "b"],
                        "transitions": [{"from": "a", "to": "b", "coeff": 0.5, "exp": "0"},
                                        {"from": "b", "to": "a", "coeff": 0.5, "exp": "0"}]})
    return chain, analyze(chain)


def test_a_tiny_lambda_is_past_the_cap_not_a_singular_solve_or_a_blind_check():
    # below 2^-53, 1 - lam == 1.0 and Id - (1-lam) Q is singular; far below
    # it, 1e-9 + 8 eps / lam is far above 1 and the row check checks nothing
    half = 0.5 * np.eye(2)  # substochastic: its rows sum to 1/2, not 1
    for lam in (1e-17, 1e-300, 5e-324):
        with pytest.raises(ResourceError, match="power cap"):
            discounted_sum(half, lam, total=True)
        with pytest.raises(ResourceError, match="power cap"):
            discounted_sum(np.eye(2), lam, t=1.0)
    with pytest.raises(InternalError, match="rows deviate"):
        discounted_sum(half, 0.5, total=True)
    chain, model = _pair_chain_and_model()
    with pytest.raises(ResourceError, match="power cap"):
        convergence_sweep(chain, model, 1.0, [1e-17])


def test_every_cap_refusal_comes_before_any_matrix_work(monkeypatch):
    chain, model = _pair_chain_and_model()
    real_instantiate = oracle.instantiate
    past_cap = ((1.0, 1e-17), (MAX_POWER_STEPS * 0.5, 0.5), (1e300, 1e-10))

    def no_matrix_work(*args, **kwargs):
        raise AssertionError("matrix work before the power cap check")

    def forbid(mp):
        mp.setattr(np.linalg, "matrix_power", no_matrix_work)
        mp.setattr(np.linalg, "solve", no_matrix_work)

    # the sweep's limit model needs solves of its own; forbid matrix work
    # from the sweep's first Q_lam on
    for t, lam in past_cap:
        with monkeypatch.context() as mp:
            def instantiate_then_forbid(*args, mp=mp):
                Q = real_instantiate(*args)
                forbid(mp)
                return Q

            mp.setattr(oracle, "instantiate", instantiate_then_forbid)
            with pytest.raises(ResourceError, match="power cap"):
                convergence_sweep(chain, model, t, [lam])
    forbid(monkeypatch)
    for t, lam in past_cap + ((1.0, 5e-324),):
        with pytest.raises(ResourceError, match="power cap"):
            matrix_power_position(np.eye(2), t, lam, 1)
        with pytest.raises(ResourceError, match="power cap"):
            discounted_sum(np.eye(2), lam, t=t)
    for lam in (1e-17, 1.0 / (MAX_POWER_STEPS + 0.5), 5e-324):
        with pytest.raises(ResourceError, match="power cap"):
            discounted_sum(np.eye(2), lam, total=True)


def test_power_position_matches_the_plain_loop_for_every_small_count():
    # lam = 2^-4, so t = k * lam gives exactly k steps
    lam = 0.0625
    Q = _substochastic(2, lam=0.0)
    for n_avg in (1, 2, 3):
        power = np.eye(4)
        for k in range(40):
            want = sum(power @ np.linalg.matrix_power(Q, r) for r in range(1, n_avg + 1)) / n_avg
            np.testing.assert_allclose(matrix_power_position(Q, k * lam, lam, n_avg), want, rtol=1e-10)
            power = power @ Q


def test_power_position_refuses_a_non_finite_t():
    for t in (math.inf, math.nan):
        with pytest.raises(InputError, match=r"^t must be a finite number >= 0"):
            matrix_power_position(np.eye(2), t, 1e-3, 1)
    with pytest.raises(InputError, match=r"^t must be a finite number >= 0, got -1.0$"):
        matrix_power_position(np.eye(2), -1.0, 1e-3, 1)


def test_power_position_names_a_bad_lambda_or_averaging_period():
    for lam in (math.nan, math.inf, -math.inf, 0.0, -1e-3):
        with pytest.raises(InputError, match=r"^lambda must be a finite number > 0, got "):
            matrix_power_position(np.eye(2), 1.0, lam, 1)
    for n_avg in (1.5, True, False, 0, -2, "2", None):
        with pytest.raises(InputError, match=r"^averaging period must be an integer >= 1, got "):
            matrix_power_position(np.eye(2), 1.0, 1e-3, n_avg)
    assert np.array_equal(matrix_power_position(np.eye(2), 1.0, 1e-3, np.int64(2)), np.eye(2))


# ----------------------------------------------------------- discounted sum


def test_total_discounted_sum_of_the_identity_is_the_identity():
    for lam in (0.5, 1e-2, 1e-6):
        np.testing.assert_allclose(
            discounted_sum(np.eye(3), lam, total=True), np.eye(3), atol=1e-14
        )


def test_total_discounted_sum_approaches_the_limit_occupation():
    lam = 1e-4
    Q = instantiate(flip_chain(), lam)
    tot = discounted_sum(Q, lam, total=True)
    want = np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0
    np.testing.assert_allclose(tot, want, atol=5e-4)


def test_partial_sum_tracks_the_exponential_discount():
    lam = 1e-5
    part = discounted_sum(np.eye(2), lam, t=1.0)
    assert part[0, 0] == pytest.approx(1.0 - math.exp(-1.0), abs=5 * lam)
    assert part[0, 1] == 0.0


def test_partial_sum_converges_to_the_resolvent():
    lam = 1e-3
    Q = instantiate(flip_chain(), lam)
    tot = discounted_sum(Q, lam, total=True)
    part = discounted_sum(Q, lam, t=200.0)
    np.testing.assert_allclose(part, tot, atol=1e-9)


def test_partial_sum_mass_is_exact_in_the_step_count():
    lam = 1e-6
    rng = np.random.default_rng(11)
    M = rng.random((3, 3))
    M /= M.sum(axis=1, keepdims=True)
    D = discounted_sum(M, lam, t=5.0)
    mass = 1.0 - (1.0 - lam) ** int(5.0 / lam)
    np.testing.assert_allclose(D.sum(axis=1), np.full(3, mass), atol=1e-9)


def _substochastic(seed, n=4, lam=1e-3):
    rng = np.random.default_rng(seed)
    M = rng.random((n, n))
    return (1.0 - lam) * M / M.sum(axis=1, keepdims=True)


def test_geometric_sum_matches_the_plain_loop_for_every_small_count():
    B = _substochastic(3, lam=0.05)
    want = np.zeros_like(B)
    power = np.eye(4)
    for n in range(71):
        np.testing.assert_allclose(geometric_sum(B, n), want, rtol=1e-10, atol=0)
        want = want + power
        power = power @ B


def test_geometric_sum_matches_the_closed_form_at_a_long_horizon():
    B = _substochastic(5)
    n = 10**4
    want = (np.eye(4) - np.linalg.matrix_power(B, n)) @ np.linalg.inv(np.eye(4) - B)
    np.testing.assert_allclose(geometric_sum(B, n), want, rtol=1e-10)


def test_partial_sum_matches_the_geometric_sum_for_every_small_count():
    # lam = 2^-4, so t = k * lam gives exactly k steps
    lam = 0.0625
    Q = _substochastic(6, lam=0.0)
    for k in range(71):
        want = lam * geometric_sum((1.0 - lam) * Q, k)
        np.testing.assert_allclose(discounted_sum(Q, lam, t=k * lam), want, rtol=1e-12, atol=1e-15)


def test_partial_sum_rows_are_checked_against_the_discounted_mass(monkeypatch):
    # rows of lam * sum_{m<steps} ((1-lam) Q)^m sum to 1 - (1-lam)^steps; a
    # matrix power whose rows are off moves that mass by (1-lam)^steps times
    # as much, and the check must refuse a miss of 4x its tolerance
    lam, t = 1e-3, 1.0
    steps = 1000
    decay = (1.0 - lam) ** steps
    tol = oracle._ROW_SUM_TOL + 8.0 * np.finfo(float).eps * (steps + 1000)
    Q = _substochastic(8, n=3, lam=0.0)
    real_power = np.linalg.matrix_power

    def patch(miss):
        monkeypatch.setattr(np.linalg, "matrix_power",
                            lambda M, k: real_power(M, k) + miss / decay / len(M))

    patch(4.0 * tol)
    with pytest.raises(InternalError, match="discounted partial sum"):
        discounted_sum(Q, lam, t=t)
    patch(0.25 * tol)
    D = discounted_sum(Q, lam, t=t)
    assert np.abs(D.sum(axis=1) - (1.0 - decay)).max() > 0.2 * tol


def test_discounted_sum_argument_validation():
    with pytest.raises(InputError):
        discounted_sum(np.eye(2), 1e-3)
    with pytest.raises(InputError):
        discounted_sum(np.eye(2), 1e-3, t=1.0, total=True)
    with pytest.raises(InputError):
        discounted_sum(np.eye(2), 0.0, total=True)
    with pytest.raises(InputError):
        discounted_sum(np.eye(2), 1e-3, t=-1.0)
    for t in (math.inf, math.nan):
        with pytest.raises(InputError, match=r"^t must be a finite number >= 0"):
            discounted_sum(np.eye(2), 1e-3, t=t)


# ------------------------------------------------------- convergence sweep


def test_sweep_reports_shrinking_errors_on_the_eightstate_chain():
    chain = load_chain(fixture("eightstate.json"))
    model = analyze(chain)
    diag = convergence_sweep(chain, model, 1.0, [1e-3, 1e-6, 1e-9])
    assert [e["lambda"] for e in diag.entries] == [1e-3, 1e-6, 1e-9]
    for e in diag.entries:
        assert set(e) == {"lambda", "position_err", "occupation_t_err", "total_err"}
        assert all(v >= 0 for v in e.values())
    assert diag.position_non_increasing
    assert diag.occupation_non_increasing
    assert diag.total_non_increasing
    assert diag.final("total_err") < 0.05
    assert diag.final("total_err") == diag.entries[-1]["total_err"]


def test_sweep_argument_validation():
    chain = load_chain(fixture("twostate_unit.json"))
    model = analyze(chain)
    with pytest.raises(InputError, match="lambda"):
        convergence_sweep(chain, model, 1.0, [])
    with pytest.raises(InputError, match="decreasing"):
        convergence_sweep(chain, model, 1.0, [1e-6, 1e-3])
    with pytest.raises(InputError, match="decreasing"):
        convergence_sweep(chain, model, 1.0, [1e-3, 1e-3])
    with pytest.raises(InputError, match="t"):
        convergence_sweep(chain, model, 0.0, [1e-3])
    for t in (math.inf, math.nan):
        with pytest.raises(InputError, match=r"^t must be a finite number > 0"):
            convergence_sweep(chain, model, t, [1e-3])


def test_sweep_refuses_a_model_of_another_chain():
    chain = load_chain(fixture("twostate_unit.json"))
    other = analyze(load_chain(fixture("eightstate.json")))
    with pytest.raises(InputError, match=r"^the model was not analyzed from the chain given$"):
        convergence_sweep(chain, other, 1.0, [1e-3])
    # an equal chain loaded again is the same chain
    diag = convergence_sweep(load_chain(fixture("twostate_unit.json")), analyze(chain), 1.0, [1e-3])
    assert len(diag.entries) == 1


#: every lambda the acceptance and oracle tests sweep at; a sweep entry
#: depends on its own lambda only, so one sweep over the union covers them
SWEPT_LAMBDAS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-12)


def test_sweep_matches_the_frozen_oracle(monkeypatch):
    # the sweep builds all three quantities from one Q^steps and one LU; the
    # frozen oracle forms Q^(steps+1), a binary-doubling geometric sum and a
    # separate solve.  The three errors must agree within eps * max(1, 1/lam),
    # the ~1/lam conditioning of the resolvent both share.  Over 3,250 seeded
    # chains of the generators below the largest difference was 0.2 times
    # that bound (occupation_t_err, lambda 1e-5 and 1e-6).
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    chains = [load_chain(fixture(f"{name}.json")) for name in helpers.CHAIN_FIXTURES]
    docs = [json.loads(Path(fixture(f"{name}.json")).read_text()) for name in helpers.GAME_FIXTURES]
    docs += [json.loads(job.text) for seed in (7, 11)
             for job in workloads.make_inputs("game_verify", seed, tiny=True)]
    chains += [compile_game(*load_game(doc))[0] for doc in docs]
    rng = np.random.default_rng(2026)
    makers = (helpers.random_chain, helpers.random_periodic_chain, helpers.random_trap_chain,
              helpers.random_nested_chain, helpers.random_critical_chain)
    chains += [makers[i % len(makers)](rng) for i in range(250)]
    eps = np.finfo(float).eps
    for chain in chains:
        lambdas = [lam for lam in SWEPT_LAMBDAS if lam <= chain.lambda_max]
        model = analyze(chain)
        new = convergence_sweep(chain, model, 1.0, lambdas).entries
        old = frozen_convergence_sweep(chain, model, 1.0, lambdas)
        for a, b in zip(new, old, strict=True):
            assert a["lambda"] == b["lambda"]
            bound = eps * max(1.0, 1.0 / a["lambda"])
            for key in ("position_err", "occupation_t_err", "total_err"):
                assert abs(a[key] - b[key]) <= bound, (chain.states, a["lambda"], key)
