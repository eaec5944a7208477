"""Positions, occupation measures, payoffs, and the two closed forms."""

import math

import numpy as np
import pytest

from markovscale import (
    InputError,
    ResourceError,
    absorbing_closed_form,
    analyze,
    critical_closed_form,
    limit_payoff,
    load_chain,
    occupation,
    position,
)
from markovscale import evaluator
from markovscale.evaluator import (
    HORIZON_ROW_TOL,
    expm,
    pade_degree_and_scaling,
    payoff_vector,
    read_horizon,
)

from helpers import (
    CHAIN_FIXTURES,
    fixture,
    random_nested_chain,
    random_periodic_chain,
    random_trap_chain,
)


@pytest.fixture(scope="module")
def eightstate():
    return analyze(load_chain(fixture("eightstate.json")))


@pytest.fixture(scope="module")
def twostate():
    return analyze(load_chain(fixture("twostate_unit.json")))


# ------------------------------------------------------------------ expm


def test_expm_of_symmetric_rate_one_generator():
    A = np.array([[-1.0, 1.0], [1.0, -1.0]])
    E = expm(A * math.log(2))
    np.testing.assert_allclose(E, [[0.625, 0.375], [0.375, 0.625]], atol=1e-14)


def test_expm_degenerate_and_long_run_limits():
    np.testing.assert_allclose(expm(np.zeros((3, 3))), np.eye(3), atol=0)
    A = np.array([[-1.0, 1.0], [1.0, -1.0]])
    np.testing.assert_allclose(expm(A * 60.0), np.full((2, 2), 0.5), atol=1e-12)


def test_expm_rejects_bad_input():
    with pytest.raises(InputError):
        expm(np.zeros((2, 3)))
    with pytest.raises(InputError, match="non-finite"):
        expm(np.array([[0.0, np.nan], [0.0, 0.0]]))
    with pytest.raises(InputError, match="non-finite"):
        expm(np.array([[-np.inf, 1.0], [0.0, 0.0]]))


def _seeded_generators(rng, count):
    """Generators and sub-generators (G - I) of 1 to 40 states: dense,
    sparse with rates spread over eight decades, and funnels into one
    state (whose 1-norm is about n times the exit rate).  The largest exit
    rate is scaled to 10^u, u uniform in [-8, 6]."""
    for i in range(count):
        n = int(rng.integers(1, 41))
        shape = i % 3
        if shape == 0:
            R = rng.exponential(size=(n, n))
        elif shape == 1:
            R = rng.exponential(size=(n, n)) * (rng.random((n, n)) < 0.2)
            R *= 10.0 ** rng.uniform(-4, 4, (n, n))
        else:
            R = np.zeros((n, n))
            R[:, 0] = rng.exponential(size=n)
        np.fill_diagonal(R, 0.0)
        G = R - np.diag(R.sum(axis=1))
        rate = np.abs(np.diag(G)).max()
        if rate > 0:
            G *= 10.0 ** rng.uniform(-8, 6) / rate
        yield G - np.eye(n) if i % 2 else G


def test_expm_agrees_with_scipy_on_seeded_generators():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    degrees, squarings = {}, []
    for G in _seeded_generators(np.random.default_rng(2005), 3000):
        norm = np.abs(G).sum(axis=0).max()
        m, s = pade_degree_and_scaling(norm)
        degrees[m] = degrees.get(m, 0) + 1
        squarings.append(s)
        err = np.abs(expm(G) - scipy_linalg.expm(G)).max()
        assert err <= 1e-12 * max(1.0, norm), (G.shape, norm, err)
    # every degree is reached, and so are deep squarings
    assert all(degrees.get(m, 0) >= 20 for m in (3, 5, 7, 9, 13)), degrees
    assert sum(s >= 20 for s in squarings) >= 5, max(squarings)


def test_expm_exact_cases():
    for n in (1, 2, 5, 40):
        assert np.array_equal(expm(np.zeros((n, n))), np.eye(n))
    for x in (-3.5, -1e-9, 0.0, 0.7, 20.0):
        assert expm(np.array([[x]]))[0, 0] == math.exp(x)
    # two states, rates a and b: e^(Gt) = (1 - e^(-(a+b)t)) pi + e^(-(a+b)t) I
    for a, b, t in ((1.0, 1.0, 0.3), (0.2, 3.0, 1.0), (1e-6, 2.0, 10.0), (5.0, 7.0, 40.0)):
        G = np.array([[-a, a], [b, -b]])
        pi = np.array([[b, a], [b, a]]) / (a + b)
        decay = math.exp(-(a + b) * t)
        want = (1.0 - decay) * pi + decay * np.eye(2)
        tol = 8 * np.finfo(float).eps * max(1.0, np.abs(G * t).sum(axis=0).max())
        np.testing.assert_allclose(expm(G * t), want, rtol=0, atol=tol)


def test_pade_degree_follows_the_theta_table():
    assert pade_degree_and_scaling(0.0) == (3, 0)
    assert pade_degree_and_scaling(0.0149) == (3, 0)
    assert pade_degree_and_scaling(0.25) == (5, 0)
    assert pade_degree_and_scaling(0.95) == (7, 0)
    assert pade_degree_and_scaling(2.0) == (9, 0)
    assert pade_degree_and_scaling(5.0) == (13, 0)
    assert pade_degree_and_scaling(5.4) == (13, 1)
    assert pade_degree_and_scaling(5.371920351148152 * 2**20) == (13, 20)


# -------------------------------------------------------------- position


def test_position_at_time_zero_is_mu_times_m(eightstate):
    np.testing.assert_allclose(
        position(eightstate, t=0.0), eightstate.mu @ eightstate.M, atol=0
    )


def test_fraction_is_a_reparametrized_time(eightstate):
    for f in (0.0, 0.25, 0.5, 0.9, 0.999):
        want = position(eightstate, t=-math.log1p(-f))
        got = position(eightstate, fraction=f)
        assert np.array_equal(got, want)


def test_position_argument_validation(eightstate):
    with pytest.raises(InputError):
        position(eightstate)
    with pytest.raises(InputError):
        position(eightstate, t=1.0, fraction=0.5)
    with pytest.raises(InputError):
        position(eightstate, t=-0.5)
    with pytest.raises(InputError):
        position(eightstate, fraction=1.0)
    with pytest.raises(InputError):
        position(eightstate, fraction=-0.1)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_position_rejects_a_horizon_that_is_not_finite(twostate, t):
    with pytest.raises(InputError, match=r"\bt must be a finite number"):
        position(twostate, t=t)


@pytest.mark.parametrize("t", [1e15, 1e20])
def test_position_rejects_a_horizon_too_long_for_double_precision(twostate, t):
    # squaring the scaled approximant doubles its rounding defect each time:
    # at t = 1e15 the rows of e^(At) sum to 1.25
    with pytest.raises(InputError, match=r"^t = .* is too long a horizon"):
        position(twostate, t=t)


def test_position_keeps_a_long_horizon_the_rows_still_carry(twostate):
    P = position(twostate, t=1e6)
    np.testing.assert_allclose(P, np.full((2, 2), 0.5), atol=HORIZON_ROW_TOL)


def test_horizon_rule_checks_the_class_level_rows(twostate, monkeypatch):
    # a class-level e^(At) whose rows miss their sum by more than the
    # tolerance is refused by every evaluator that exponentiates, naming t
    exact = evaluator.expm
    monkeypatch.setattr(evaluator, "expm", lambda A: exact(A) * (1.0 + 4 * HORIZON_ROW_TOL))
    with pytest.raises(InputError, match=r"^t = 1.0 is too long a horizon"):
        position(twostate, t=1.0)
    with pytest.raises(InputError, match=r"^t = 1.0 is too long a horizon"):
        occupation(twostate, t=1.0)
    chain = load_chain(fixture("twostate_unit.json"))
    with pytest.raises(InputError, match=r"^t = 1.0 is too long a horizon"):
        critical_closed_form(chain, 1.0)
    monkeypatch.setattr(evaluator, "expm", lambda A: exact(A) * (1.0 + HORIZON_ROW_TOL / 4))
    position(twostate, t=1.0)
    occupation(twostate, t=1.0)


def test_one_horizon_rule_words_every_refusal_of_t(twostate):
    # position and critical_closed_form take t >= 0, occupation t > 0; each
    # refuses with the one message of read_horizon, before any arithmetic
    chain = load_chain(fixture("twostate_unit.json"))
    at_least = (lambda t: position(twostate, t=t), lambda t: critical_closed_form(chain, t))
    for t in (-1.0, -math.inf, math.inf, math.nan):
        for f in at_least:
            with pytest.raises(InputError, match=rf"^t must be a finite number >= 0, got {t!r}$"):
                f(t)
    for t in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InputError, match=rf"^t must be a finite number > 0, got {t!r}$"):
            occupation(twostate, t=t)
    assert read_horizon(0.0) == 0.0 and read_horizon(2, positive=True) == 2
    assert position(twostate, t=0.0).shape == (2, 2)


def test_two_state_position_matches_the_scalar_solution(twostate):
    # symmetric unit-rate flip: P_t(1,1) = (1 + e^(-2t)) / 2
    for t in (0.0, 0.3, 1.0, 4.0):
        P = position(twostate, t=t)
        want = 0.5 * (1.0 + math.exp(-2.0 * t))
        assert P[0, 0] == pytest.approx(want, abs=1e-14)
        assert P[0, 1] == pytest.approx(1.0 - want, abs=1e-14)
        np.testing.assert_allclose(P, P.T, atol=1e-15)


# ------------------------------------------------------------ occupation


def test_finite_occupation_carries_the_discount_mass(eightstate):
    for t in (0.1, 1.0, 5.0):
        occ = occupation(eightstate, t=t)
        assert occ.horizon == t
        np.testing.assert_allclose(
            occ.matrix.sum(axis=1), np.full(8, 1.0 - math.exp(-t)), atol=1e-10
        )
        assert np.all(occ.matrix >= -1e-12)


def test_total_occupation_is_row_stochastic(eightstate):
    tot = occupation(eightstate, total=True)
    assert tot.horizon is None
    np.testing.assert_allclose(tot.matrix.sum(axis=1), np.ones(8), atol=1e-10)


def test_finite_occupation_converges_to_the_total(eightstate):
    tot = occupation(eightstate, total=True).matrix
    occ = occupation(eightstate, t=50.0).matrix
    np.testing.assert_allclose(occ, tot, atol=1e-8)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_occupation_rejects_a_horizon_that_is_not_finite(twostate, t):
    with pytest.raises(InputError, match=r"\bt must be a finite number"):
        occupation(twostate, t=t)


def test_occupation_argument_validation(eightstate):
    with pytest.raises(InputError):
        occupation(eightstate)
    with pytest.raises(InputError):
        occupation(eightstate, t=1.0, total=True)
    with pytest.raises(InputError):
        occupation(eightstate, t=0.0)
    with pytest.raises(InputError):
        occupation(eightstate, t=-1.0)


# ---------------------------------------------------------------- payoff


def test_constant_payoff_is_preserved(eightstate):
    np.testing.assert_allclose(limit_payoff(eightstate, np.ones(8)), np.ones(8), atol=1e-12)
    np.testing.assert_allclose(
        limit_payoff(eightstate, np.full(8, 0.37)), np.full(8, 0.37), atol=1e-12
    )


def test_two_state_payoff_solves_the_resolvent(twostate):
    np.testing.assert_allclose(
        limit_payoff(twostate, [1.0, 0.0]), [2.0 / 3.0, 1.0 / 3.0], atol=1e-12
    )


def test_eightstate_payoff_on_an_indicator(eightstate):
    # reward only state 4; solving (Id - A) x = M g by hand over the classes
    # {1,2,3}, {4}, {7,8} gives x = (6/13, 9/13, 0)
    g = {s: (1.0 if s == "4" else 0.0) for s in eightstate.chain.states}
    v = limit_payoff(eightstate, g)
    idx = eightstate.chain.index
    assert v[idx["1"]] == pytest.approx(6.0 / 13.0, abs=1e-12)
    assert v[idx["3"]] == pytest.approx(6.0 / 13.0, abs=1e-12)
    assert v[idx["4"]] == pytest.approx(9.0 / 13.0, abs=1e-12)
    assert v[idx["5"]] == pytest.approx(5.0 / 13.0, abs=1e-12)  # 1/3 of each class
    assert v[idx["7"]] == pytest.approx(0.0, abs=1e-12)


def test_payoff_vector_accepts_both_forms(twostate):
    chain = twostate.chain
    np.testing.assert_array_equal(payoff_vector(chain, {"1": 0.2, "2": 0.8}), [0.2, 0.8])
    np.testing.assert_array_equal(payoff_vector(chain, [0.2, 0.8]), [0.2, 0.8])
    # numpy arrays and numpy scalars are numbers too
    np.testing.assert_array_equal(
        payoff_vector(chain, {"1": np.float32(0.25), "2": np.int64(1)}), [0.25, 1.0]
    )
    np.testing.assert_array_equal(payoff_vector(chain, np.array([1, 2])), [1.0, 2.0])
    np.testing.assert_array_equal(payoff_vector(chain, (np.float32(0.5), np.int64(3))), [0.5, 3.0])


def test_limit_payoff_matches_the_total_occupation_matrix():
    rng = np.random.default_rng(41)
    names = ["eightstate.json", "eightstate_primes.json", "funnel_delayed.json",
             "funnel_instant.json", "twostate_half.json", "twostate_heavy.json",
             "twostate_swap.json", "twostate_unit.json"]
    for name in names:
        model = analyze(load_chain(fixture(name)))
        T = occupation(model, total=True).matrix
        for _ in range(5):
            g = rng.uniform(-1.0, 1.0, size=model.chain.n_states)
            np.testing.assert_allclose(limit_payoff(model, g), T @ g, rtol=1e-12, atol=0)


def test_payoff_vector_validation(twostate):
    chain = twostate.chain
    with pytest.raises(InputError, match="missing"):
        payoff_vector(chain, {"1": 0.2})
    with pytest.raises(InputError, match="unknown"):
        payoff_vector(chain, {"1": 0.2, "2": 0.8, "3": 0.1})
    with pytest.raises(InputError, match="shape"):
        payoff_vector(chain, [0.2, 0.8, 0.1])
    with pytest.raises(InputError, match="non-finite"):
        payoff_vector(chain, [0.2, math.inf])
    # sequence entries are read like mapping values: numbers a float can hold
    for g, problem in [
        (["0.5", 1.0], "entry 0 must be a number"),
        ([0.5, True], "entry 1 must be a number"),
        ([10**401, 0], "entry 0 is too large for a float"),
    ]:
        with pytest.raises(InputError, match=problem):
            payoff_vector(chain, g)


# ------------------------------------------------- gather through the law


@pytest.fixture(scope="module")
def seeded_models():
    """Every chain fixture and seeded trap, nested and periodic chains: the
    last three give transient states whose entrance law splits over classes."""
    rng = np.random.default_rng(16)
    chains = [load_chain(fixture(f"{name}.json")) for name in CHAIN_FIXTURES]
    chains += [random_trap_chain(rng) for _ in range(60)]
    chains += [random_nested_chain(rng, 3) for _ in range(30)]
    chains += [random_periodic_chain(rng) for _ in range(60)]
    models = [analyze(chain) for chain in chains]
    # both branches of the gather run: indicator rows and split rows
    assert sum(len(m.split) for m in models) >= 50
    assert sum(int((m.entry >= 0).sum()) for m in models) >= 500
    return models


def test_indicator_rows_are_gathered_bit_for_bit_and_split_rows_within_float_noise(seeded_models):
    # the evaluators form mu . X as X[entry], with mu[split] @ X on the split
    # rows; the products they replace are mu @ E @ M, mu @ Y @ M, mu @ X and
    # mu @ x.  An indicator row of mu picks one row exactly; a split row sums
    # its classes in another order, within float noise
    rng = np.random.default_rng(17)
    for model in seeded_models:
        mu, A, M = model.mu, model.A, model.M
        eye = np.eye(model.n_classes)
        g = rng.uniform(-1.0, 1.0, size=model.chain.n_states)
        pairs = [(position(model, t=1.0), mu @ expm(A) @ M),
                 (position(model, t=2.5), mu @ expm(A * 2.5) @ M),
                 (occupation(model, t=1.0).matrix,
                  mu @ np.linalg.solve(A - eye, expm(A - eye) - eye) @ M),
                 (occupation(model, total=True).matrix, mu @ (np.linalg.solve(eye - A, eye) @ M)),
                 (limit_payoff(model, g), mu @ np.linalg.solve(eye - A, M @ g))]
        held = model.entry >= 0
        for got, want in pairs:
            assert np.array_equal(got[held], want[held])
            np.testing.assert_allclose(got[model.split], want[model.split], rtol=0, atol=1e-15)
        # the total occupation solves the c x c system and then multiplies by
        # M; solving with M's n columns as right-hand sides agrees within noise
        np.testing.assert_allclose(np.linalg.solve(eye - A, eye) @ M, np.linalg.solve(eye - A, M),
                                   rtol=0, atol=1e-15)


def test_running_out_of_memory_for_the_state_rows_is_a_resource_error(monkeypatch):
    # the gather through the entrance law forms the n x n result (n for a
    # payoff); numpy's MemoryError there becomes a ResourceError naming it
    model = analyze(load_chain(fixture("eightstate.json")))
    take = np.take

    def no_memory(a, indices, *args, **kwargs):
        if indices is model.entry:
            raise MemoryError("Unable to allocate")
        return take(a, indices, *args, **kwargs)

    monkeypatch.setattr(np, "take", no_memory)
    for result in (lambda: position(model, t=1.0), lambda: occupation(model, t=1.0),
                   lambda: occupation(model, total=True)):
        with pytest.raises(ResourceError, match="out of memory for a 8x8 float array"):
            result()
    with pytest.raises(ResourceError, match="out of memory for a 8 float array"):
        limit_payoff(model, np.zeros(8))


def test_positions_form_a_semigroup_and_m_inverts_mu(seeded_models):
    # M mu = I, so P_s P_t = mu e^{As} (M mu) e^{At} M = P_{s+t}
    for model in seeded_models:
        np.testing.assert_allclose(model.M @ model.mu, np.eye(model.n_classes), rtol=0, atol=1e-14)
        for s, t in ((0.3, 0.7), (1.0, 2.0), (0.05, 4.0)):
            np.testing.assert_allclose(position(model, t=s) @ position(model, t=t),
                                       position(model, t=s + t), rtol=0, atol=1e-14)


# ---------------------------------------------------- absorbing closed form


def absorbing(doc):
    return load_chain({"states": doc["states"], "transitions": doc["transitions"]})


def test_absorbing_closed_form_all_three_regimes():
    fast = absorbing(
        {
            "states": ["o", "a", "b"],
            "transitions": [
                {"from": "o", "to": "a", "coeff": 3.0, "exp": "1/2"},
                {"from": "o", "to": "b", "coeff": 1.0, "exp": "1/2"},
            ],
        }
    )
    np.testing.assert_allclose(absorbing_closed_form(fast, 1.0), [0.0, 0.75, 0.25], atol=0)
    np.testing.assert_allclose(absorbing_closed_form(fast, 0.0), [1.0, 0.0, 0.0], atol=0)

    unit = absorbing(
        {
            "states": ["o", "a"],
            "transitions": [{"from": "o", "to": "a", "coeff": 1.0, "exp": "1"}],
        }
    )
    row = absorbing_closed_form(unit, 1.0)
    np.testing.assert_allclose(row, [math.exp(-1.0), 1.0 - math.exp(-1.0)], atol=1e-15)

    slow = absorbing(
        {
            "states": ["o", "a"],
            "transitions": [{"from": "o", "to": "a", "coeff": 1.0, "exp": "2"}],
        }
    )
    np.testing.assert_allclose(absorbing_closed_form(slow, 123.0), [1.0, 0.0], atol=0)


def test_absorbing_closed_form_splits_a_tie_by_coefficient():
    # a and b tie at the exit exponent and share the moving mass 2 : 3; the
    # slower target c gets nothing
    for e, slower in (("1/3", "1/2"), ("1", "3/2")):
        chain = absorbing(
            {
                "states": ["o", "a", "b", "c"],
                "transitions": [
                    {"from": "o", "to": "a", "coeff": 2.0, "exp": e},
                    {"from": "o", "to": "b", "coeff": 3.0, "exp": e},
                    {"from": "o", "to": "c", "coeff": 1.0, "exp": slower},
                ],
            }
        )
        moved = 1.0 if e != "1" else 1.0 - math.exp(-5.0 * 0.7)
        np.testing.assert_allclose(
            absorbing_closed_form(chain, 0.7),
            [1.0 - moved, 0.4 * moved, 0.6 * moved, 0.0],
            rtol=1e-14,
            atol=1e-15,
        )


def test_absorbing_closed_form_refuses_nan_and_keeps_the_long_run_split():
    chain = absorbing(
        {
            "states": ["a", "b", "c"],
            "transitions": [
                {"from": "a", "to": "b", "coeff": 0.5, "exp": "1"},
                {"from": "a", "to": "c", "coeff": 0.25, "exp": "1"},
            ],
        }
    )
    with pytest.raises(InputError, match=r"^t must be a number, got nan"):
        absorbing_closed_form(chain, math.nan)
    np.testing.assert_allclose(absorbing_closed_form(chain, math.inf), [0.0, 2 / 3, 1 / 3], rtol=1e-15, atol=0)


def test_absorbing_closed_form_agrees_with_the_general_pipeline():
    doc = {
        "states": ["o", "a", "b", "c"],
        "transitions": [
            {"from": "o", "to": "a", "coeff": 0.7, "exp": "1"},
            {"from": "o", "to": "b", "coeff": 0.2, "exp": "1"},
            {"from": "o", "to": "c", "coeff": 0.4, "exp": "3/2"},
        ],
    }
    chain = load_chain(doc)
    model = analyze(chain)
    for t in (0.0, 0.5, 2.0):
        np.testing.assert_allclose(
            absorbing_closed_form(chain, t), position(model, t=t)[0], atol=1e-12
        )


def test_absorbing_closed_form_rejects_other_shapes():
    with pytest.raises(InputError, match="exactly one"):
        absorbing_closed_form(load_chain(fixture("twostate_unit.json")), 1.0)
    lonely = load_chain({"states": ["x"], "transitions": []})
    with pytest.raises(InputError, match="exactly one"):
        absorbing_closed_form(lonely, 1.0)
    ok = load_chain(
        {
            "states": ["o", "a"],
            "transitions": [{"from": "o", "to": "a", "coeff": 1.0, "exp": "1"}],
        }
    )
    with pytest.raises(InputError):
        absorbing_closed_form(ok, -1.0)


# ----------------------------------------------------- critical closed form


def test_critical_closed_form_is_the_matrix_exponential():
    chain = load_chain(fixture("twostate_unit.json"))
    A = np.array([[-1.0, 1.0], [1.0, -1.0]])
    for t in (0.0, 0.7, 3.0):
        np.testing.assert_allclose(critical_closed_form(chain, t), expm(A * t), atol=0)


def test_critical_closed_form_ignores_slower_entries():
    chain = load_chain(fixture("twostate_heavy.json"))  # only exponent-2 entries
    np.testing.assert_allclose(critical_closed_form(chain, 5.0), np.eye(2), atol=0)


def test_critical_cycle_mixes_to_uniform():
    doc = {
        "states": ["p", "q", "r"],
        "transitions": [
            {"from": "p", "to": "q", "coeff": 1.0, "exp": "1"},
            {"from": "q", "to": "r", "coeff": 1.0, "exp": "1"},
            {"from": "r", "to": "p", "coeff": 1.0, "exp": "1"},
        ],
    }
    E = critical_closed_form(load_chain(doc), 80.0)
    np.testing.assert_allclose(E, np.full((3, 3), 1.0 / 3.0), atol=1e-12)


def test_critical_closed_form_rejects_a_bad_horizon():
    chain = load_chain(fixture("twostate_unit.json"))
    for t in (math.inf, math.nan):
        with pytest.raises(InputError, match=r"\bt must be a finite number"):
            critical_closed_form(chain, t)
    with pytest.raises(InputError, match=r"^t = .* is too long a horizon"):
        critical_closed_form(chain, 1e15)


def test_critical_closed_form_rejects_fast_entries():
    doc = {
        "states": ["p", "q"],
        "transitions": [{"from": "p", "to": "q", "coeff": 0.5, "exp": "1/2"}],
    }
    with pytest.raises(InputError, match="not critical"):
        critical_closed_form(load_chain(doc), 1.0)


# ------------------------------------------------------------- derivative


def test_position_time_derivative_at_zero_is_mu_a_m(eightstate):
    h = 1e-4
    diff = (position(eightstate, t=h) - position(eightstate, t=0.0)) / h
    # forward difference has O(h) bias; a central one is not available at t=0,
    # so compare against the derivative a half step in
    mid = (position(eightstate, t=2 * h) - position(eightstate, t=0.0)) / (2 * h)
    want = eightstate.mu @ eightstate.A @ eightstate.M
    np.testing.assert_allclose(mid, want, atol=1e-3)
    np.testing.assert_allclose(diff, want, atol=1e-3)
