"""Acceptance suite: one test per published criterion, each with its runtime
budget.  Run with `pytest tests/test_acceptance.py -v` to get one pass/fail
line per criterion."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from markovscale import (
    absorbing_closed_form,
    analyze,
    load_chain,
    monomial,
    occupation,
    position,
)
from markovscale.asymptotics import mono_eval
from markovscale.games import compile_game, limit_game_payoff, load_game
from markovscale.oracle import convergence_sweep, instantiate, matrix_power_position

from helpers import (
    cesaro_payoff,
    critical_generator,
    fixture,
    random_absorbing_chain,
    random_chain,
    random_critical_chain,
    random_trap_chain,
)

F = Fraction


def test_criterion_1_worked_example_exact():
    start = time.monotonic()
    model = analyze(load_chain(fixture("eightstate.json")))
    assert model.alphas == [F(0), F(1, 5), F(2, 5), F(3, 5), F(1)]
    assert model.alphas[-1] >= 1
    assert model.classes == [("1", "2", "3"), ("4",), ("7", "8")]
    idx = model.chain.index
    np.testing.assert_allclose(model.mu[idx["5"]], [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
    np.testing.assert_allclose(
        model.A,
        [[-2.0, 2.0, 0.0], [1 / 3, -2 / 3, 1 / 3], [0.0, 0.0, 0.0]],
        atol=1e-12,
    )
    M_expected = np.zeros((3, 8))
    M_expected[0, idx["3"]] = 1.0
    M_expected[1, idx["4"]] = 1.0
    M_expected[2, idx["7"]] = 0.5
    M_expected[2, idx["8"]] = 0.5
    np.testing.assert_allclose(model.M, M_expected, atol=1e-12)
    assert model.N == 2

    # same chain with labeled rates a=2 b=3 c=5 d=7 e=11 f=13 g=17: the cycle
    # measure has coefficients (c/a, c/b, 1) and the aggregated generator rows
    # are -(ce/a + cf/b) off the cycle and g/3 out of the singleton
    primes = analyze(load_chain(fixture("eightstate_primes.json")))
    assert primes.alphas == model.alphas
    assert primes.classes == model.classes
    pi = primes.levels[-1].measures[("1", "2", "3")]
    assert pi[("1",)].exp == F(2, 5) and pi[("1",)].coeff == pytest.approx(5 / 2, abs=1e-12)
    assert pi[("2",)].exp == F(1, 5) and pi[("2",)].coeff == pytest.approx(5 / 3, abs=1e-12)
    assert pi[("3",)].exp == F(0) and pi[("3",)].coeff == pytest.approx(1.0, abs=1e-12)
    rate01 = 5 * 11 / 2 + 5 * 13 / 3  # ce/a + cf/b
    np.testing.assert_allclose(
        primes.A,
        [[-rate01, rate01, 0.0], [17 / 3, -34 / 3, 17 / 3], [0.0, 0.0, 0.0]],
        atol=1e-12,
    )
    np.testing.assert_allclose(primes.mu[primes.chain.index["5"]], [1 / 3] * 3, atol=1e-12)
    assert primes.N == 2
    assert time.monotonic() - start < 1.0


def test_criterion_2_two_state_total_occupations():
    start = time.monotonic()
    expected = {
        "twostate_half.json": [[0.5, 0.5], [0.5, 0.5]],
        "twostate_unit.json": [[2 / 3, 1 / 3], [1 / 3, 2 / 3]],
        "twostate_heavy.json": [[1.0, 0.0], [0.0, 1.0]],
    }
    for name, want in expected.items():
        model = analyze(load_chain(fixture(name)))
        total = occupation(model, total=True).matrix
        np.testing.assert_allclose(total, want, atol=1e-12)
    assert time.monotonic() - start < 1.0


def test_criterion_3_absorbing_regimes_closed_form_and_sweep():
    start = time.monotonic()
    rng = np.random.default_rng(5)
    for e in (F(1, 2), F(1), F(3, 2)):
        # at e < 1 the limit jumps at t = 0+, so the t = 0 row (identity) is
        # only compared in the regimes where nothing moves instantly
        times = (0.5, 2.0) if e < 1 else (0.0, 0.5, 2.0)
        for _ in range(5):
            chain = random_absorbing_chain(rng, e)
            model = analyze(chain)
            for t in times:
                np.testing.assert_allclose(
                    absorbing_closed_form(chain, t), position(model, t=t)[0], atol=1e-12
                )
        if e == F(1):
            diag = convergence_sweep(chain, model, 1.0, [1e-2, 1e-4, 1e-6])
            assert diag.position_non_increasing
            assert diag.final("position_err") <= 0.02
        if e == F(1, 2):
            diag = convergence_sweep(chain, model, 1.0, [1e-2, 1e-4, 1e-6, 1e-8])
            assert diag.position_non_increasing
            assert diag.final("position_err") <= 0.05
    assert time.monotonic() - start < 5.0


def test_criterion_4_critical_chains_first_order_convergence():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    lambdas = [1e-2, 1e-3, 1e-4]
    for _ in range(8):
        chain = random_critical_chain(rng)
        model = analyze(chain)
        n = chain.n_states
        np.testing.assert_allclose(model.mu, np.eye(n), atol=0)
        np.testing.assert_allclose(model.M, np.eye(n), atol=0)
        np.testing.assert_allclose(model.A, critical_generator(chain), atol=1e-12)
        diag = convergence_sweep(chain, model, 1.0, lambdas)
        errs = [entry["position_err"] for entry in diag.entries]
        for lam, err in zip(lambdas, errs):
            assert err <= 10 * lam
        for bigger, smaller in zip(errs, errs[1:]):
            assert bigger >= 5 * smaller
    assert time.monotonic() - start < 5.0


def test_criterion_5_worked_example_oracle_sweep():
    start = time.monotonic()
    chain = load_chain(fixture("eightstate.json"))
    model = analyze(chain)
    diag = convergence_sweep(chain, model, 1.0, [1e-3, 1e-6, 1e-9, 1e-12])
    assert diag.position_non_increasing
    assert diag.occupation_non_increasing
    assert diag.final("position_err") <= 0.05
    assert time.monotonic() - start < 10.0


def test_criterion_6_stochasticity_of_all_limit_objects():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        chain = random_chain(rng)
        model = analyze(chain)
        n = chain.n_states
        assert 1 <= model.n_classes <= n
        np.testing.assert_allclose(model.mu.sum(axis=1), np.ones(n), atol=1e-10)
        np.testing.assert_allclose(
            model.M.sum(axis=1), np.ones(model.n_classes), atol=1e-10
        )
        np.testing.assert_allclose(
            model.A.sum(axis=1), np.zeros(model.n_classes), atol=1e-12
        )
        for t in (0.0, 1.0, 10.0):
            P = position(model, t=t)
            np.testing.assert_allclose(P.sum(axis=1), np.ones(n), atol=1e-10)
            assert P.min() >= -1e-10
        total = occupation(model, total=True).matrix
        np.testing.assert_allclose(total.sum(axis=1), np.ones(n), atol=1e-10)
    assert time.monotonic() - start < 30.0


def test_criterion_7_traps_against_numeric_absorption():
    start = time.monotonic()
    lambdas = [1e-3, 1e-5, 1e-7]
    chains = [
        load_chain(fixture("funnel_instant.json")),
        load_chain(fixture("funnel_delayed.json")),
    ]
    rng = np.random.default_rng(31)
    chains.extend(random_trap_chain(rng) for _ in range(50))
    for chain in chains:
        model = analyze(chain)
        diag = convergence_sweep(chain, model, 1.0, lambdas)
        assert diag.position_non_increasing
        assert diag.total_non_increasing
        assert diag.final("position_err") <= 1e-3
        assert diag.final("total_err") <= 1e-3
    assert time.monotonic() - start < 20.0


def test_criterion_8_game_layer_against_ergodic_and_discounted_oracles():
    start = time.monotonic()
    game, xs, ys = load_game(fixture("game_switch.json"))
    states = list(game.states)
    pos = {s: i for i, s in enumerate(states)}

    # every pure constant strategy pair: the limit payoff must agree with the
    # Cesaro average of the exact induced kernel
    for acts1 in itertools.product(*[game.actions1[s] for s in states]):
        for acts2 in itertools.product(*[game.actions2[s] for s in states]):
            x = {s: {a: monomial(1.0, 0)} for s, a in zip(states, acts1)}
            y = {s: {b: monomial(1.0, 0)} for s, b in zip(states, acts2)}
            chain, _ = compile_game(game, x, y)
            model = analyze(chain)
            Q = np.zeros((len(states), len(states)))
            g = np.zeros(len(states))
            for i, s in enumerate(states):
                a, b = acts1[i], acts2[i]
                for dst, p in game.transition[s][a][b].items():
                    Q[i, pos[dst]] = p
                g[i] = game.payoff[s][game.actions1[s].index(a)][game.actions2[s].index(b)]
            ces = cesaro_payoff(Q, g, 10**6, 2 * model.N)
            np.testing.assert_allclose(limit_game_payoff(game, x, y), ces, atol=1e-6)

    # the fixture's switching strategies against the exact discounted payoff
    # of the normalized behaviour at lambda = 1e-6
    lam = 1e-6
    n = len(states)
    Q = np.zeros((n, n))
    g = np.zeros(n)
    for i, s in enumerate(states):
        wx = {a: mono_eval(m, lam) for a, m in xs[s].items()}
        wy = {b: mono_eval(m, lam) for b, m in ys[s].items()}
        sx, sy = sum(wx.values()), sum(wy.values())
        for a, pa in wx.items():
            for b, pb in wy.items():
                w = (pa / sx) * (pb / sy)
                ia = game.actions1[s].index(a)
                ib = game.actions2[s].index(b)
                g[i] += w * game.payoff[s][ia][ib]
                for dst, p in game.transition[s][a][b].items():
                    Q[i, pos[dst]] += w * p
    v_oracle = np.linalg.solve(np.eye(n) - (1 - lam) * Q, lam * g)
    np.testing.assert_allclose(limit_game_payoff(game, xs, ys), v_oracle, atol=2e-2)
    assert time.monotonic() - start < 5.0


def test_criterion_9_periodic_boundary_case():
    start = time.monotonic()
    chain = load_chain(fixture("twostate_swap.json"))
    model = analyze(chain)
    total = occupation(model, total=True).matrix
    np.testing.assert_allclose(total, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)
    for t in (0.0, 0.5, 1.0, 10.0):
        np.testing.assert_allclose(position(model, t=t), np.full((2, 2), 0.5), atol=1e-12)
    assert model.N == 2
    lam = 1e-8
    Q = instantiate(chain, lam)
    averaged = matrix_power_position(Q, 1.0, lam, model.N)
    np.testing.assert_allclose(averaged, position(model, t=1.0), atol=1e-3)
    assert time.monotonic() - start < 5.0
