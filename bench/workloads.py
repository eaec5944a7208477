"""Seeded workload generators, the job runner, and per-job correctness checks.

A workload turns a seed into a pool of job inputs, each one JSON text built
before any clock starts.  The harness cycles through the pool in a closed
loop.  Generators use only the stdlib `random` module seeded with the
workload name and seed, so the same seed yields byte-identical inputs.
numpy is imported only inside the checks, after run.py has pinned the BLAS
threads.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

#: lambdas of the game_verify convergence sweep
SWEEP_LAMBDAS = (1e-2, 1e-3, 1e-4)
#: bound on the sweep's final total-occupation error on game_verify.  The
#: error shrinks like lambda^(1/6) there (the slowest gap between thresholds)
#: and reads about 0.02 at lambda = 1e-4; a wrong limit model misses by more
GAME_TOTAL_ERR_BOUND = 0.05
#: distinct inputs per run; a run of ~100 jobs uses each about four times
POOL = 24
#: tolerance of the row-sum and measure checks
CHECK_TOL = 1e-9

LADDER_LINKS = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
FEEDER_EXPS = (Fraction(1, 5), Fraction(2, 5))
DENSE_LINK_EXPS = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
#: class sizes of successive dense_classes jobs; a fixed cycle keeps the
#: mix of 8-, 9- and 10-state classes the same for every seed.  A class of
#: 8, 9 or 10 states takes about 0.05, 0.26 or 0.7 s to enumerate, so a job
#: averages about 0.3 s and the one 10-state job in eight sets p90
DENSE_SIZES = ((8, 9), (8, 8), (8, 8, 9), (8, 8, 8), (9, 8), (8, 10), (8, 9, 8), (8, 8))


@dataclass
class Job:
    """One input: `text` is the chain or game document; `expect` holds what
    the generator built, for the correctness check."""

    kind: str  # "chain" or "game"
    text: str
    payoff: list | None
    expect: dict


class CheckFailed(Exception):
    """A job produced a wrong result."""


def _chain_doc(states, arcs) -> str:
    return json.dumps(
        {
            "states": states,
            "transitions": [
                {"from": s, "to": d, "coeff": c, "exp": str(e)} for s, d, c, e in arcs
            ],
        }
    )


# ------------------------------------------------------------------ ladder


def ladder_job(rng: random.Random, n_cycles: int = 192) -> Job:
    """Linked 4-cycles: exponent-0 cycles merged pairwise at 1/3, 1/2, 2/3,
    a unit-scale ring over groups of 8 cycles, and a forward DAG of transient
    feeders (half as many as cycle states) leaving at 1/5 and 2/5."""
    if n_cycles < 16 or n_cycles % 8:
        raise ValueError("ladder needs a multiple of 8 cycles, at least 16")
    cyc = [[f"c{i}.{k}" for k in range(4)] for i in range(n_cycles)]
    arcs = []
    for members in cyc:
        for k, s in enumerate(members):
            arcs.append((s, members[(k + 1) % 4], round(rng.uniform(0.3, 0.6), 6), Fraction(0)))
    for block, e in zip((1, 2, 4), LADDER_LINKS):
        for i in range(n_cycles):
            j = i ^ block
            arcs.append((rng.choice(cyc[i]), rng.choice(cyc[j]), round(rng.uniform(0.2, 1.0), 6), e))
    groups = n_cycles // 8
    for g in range(groups):
        src = rng.choice(cyc[8 * g + rng.randrange(8)])
        h = (g + 1) % groups
        dst = rng.choice(cyc[8 * h + rng.randrange(8)])
        arcs.append((src, dst, round(rng.uniform(0.5, 1.5), 6), Fraction(1)))
    cycle_states = [s for members in cyc for s in members]
    n_feed = len(cycle_states) // 2
    feeders = [f"f{k}" for k in range(n_feed)]
    for k, f in enumerate(feeders):
        pool = len(cycle_states) + n_feed - k - 1
        targets = set()
        while len(targets) < 2:
            r = rng.randrange(pool)
            targets.add(cycle_states[r] if r < len(cycle_states) else feeders[k + 1 + r - len(cycle_states)])
        for dst, e in zip(sorted(targets), FEEDER_EXPS):
            arcs.append((f, dst, round(rng.uniform(0.2, 1.0), 6), e))
    states = cycle_states + feeders
    rng.shuffle(arcs)
    payoff = [round(rng.random(), 6) for _ in states]
    alphas = [Fraction(0), FEEDER_EXPS[0], *LADDER_LINKS, Fraction(1)]
    return Job("chain", _chain_doc(states, arcs), payoff,
               {"alphas": alphas, "n_classes": groups})


# ----------------------------------------------------------- dense_classes


def _dense_class(rng: random.Random, names: list[str]) -> list:
    """Exponent-0 class with out-degree 3: state i leads to i+1, i+2 and
    i+k//2 (mod k).  The fixed shape makes the spanning-tree count, and so
    the enumeration cost, depend on the size alone; only coefficients are
    drawn.  Exponent-0 row mass stays below 0.9, so the diagonal survives."""
    k = len(names)
    if k < 6:
        raise ValueError("a dense class needs at least 6 states")
    return [(s, names[(i + step) % k], round(rng.uniform(0.1, 0.3), 6), Fraction(0))
            for i, s in enumerate(names) for step in (1, 2, k // 2)]


def dense_job(rng: random.Random, sizes, ring: int = 0) -> Job:
    """Dense exponent-0 classes linked at 1/2, 1 and 3/2 (classes a and b at
    exponent [1/2, 1, 3/2][(a + b) % 3]), three transient feeders, and
    optionally one extra `ring`-state exponent-0 ring class."""
    classes = [[f"k{c}.{i}" for i in range(size)] for c, size in enumerate(sizes)]
    arcs = []
    for names in classes:
        arcs.extend(_dense_class(rng, names))
    if ring:
        names = [f"r.{i}" for i in range(ring)]
        arcs.extend((s, names[(i + 1) % ring], 0.5, Fraction(0)) for i, s in enumerate(names))
        classes.append(names)
    for a, ca in enumerate(classes):
        for b, cb in enumerate(classes):
            if a != b:
                arcs.append((rng.choice(ca), rng.choice(cb), round(rng.uniform(0.5, 1.5), 6),
                             DENSE_LINK_EXPS[(a + b) % 3]))
    members = [s for names in classes for s in names]
    feeders = [f"f{k}" for k in range(3)]
    for f in feeders:
        for dst, e in zip(rng.sample(members, 2), (Fraction(0), Fraction(1, 5))):
            arcs.append((f, dst, round(rng.uniform(0.2, 0.45), 6), e))
    states = members + feeders
    rng.shuffle(arcs)
    payoff = [round(rng.random(), 6) for _ in states]
    return Job("chain", _chain_doc(states, arcs), payoff, {"classes": classes})


# ------------------------------------------------------------- game_verify


def game_job(rng: random.Random, n_regions: int = 48) -> Job:
    """Region game: player 1's `stay` moves within a 4-state region, its
    `link` actions jump to partner regions with the ladder exponents (and a
    unit-scale ring over groups of 8 regions) as strategy weights; player 2
    changes payoffs only."""
    if n_regions < 16 or n_regions % 8:
        raise ValueError("game_verify needs a multiple of 8 regions, at least 16")
    reg = [[f"g{r}.{k}" for k in range(4)] for r in range(n_regions)]
    groups = n_regions // 8
    states = [s for members in reg for s in members]
    actions1, actions2, payoff, transition, strategy1, strategy2 = {}, {}, {}, {}, {}, {}
    for r, members in enumerate(reg):
        g = r // 8
        ring_regions = reg[8 * ((g + 1) % groups): 8 * ((g + 1) % groups) + 8]
        for k, s in enumerate(members):
            nxt = members[(k + 1) % 4]
            stay_self = rng.uniform(0.4, 0.6)
            other = rng.choice([m for m in members if m not in (s, nxt)])
            stay = {s: stay_self, nxt: 0.0, other: 0.0}
            rest = 1.0 - stay_self
            stay[nxt] = rest * rng.uniform(0.6, 0.9)
            stay[other] = rest - stay[nxt]
            links = [rng.choice(reg[r ^ block]) for block in (1, 2, 4)]
            links.append(rng.choice(rng.choice(ring_regions)))
            acts = ["stay", "link1", "link2", "link3", "ring"]
            actions1[s] = acts
            actions2[s] = ["L", "R"]
            transition[s] = {"stay": {"L": stay, "R": stay}}
            for a, dst in zip(acts[1:], links):
                transition[s][a] = {"L": {dst: 1.0}, "R": {dst: 1.0}}
            payoff[s] = [[round(rng.random(), 6), round(rng.random(), 6)] for _ in acts]
            strategy1[s] = {"stay": {"coeff": 1.0, "exp": "0"}}
            for a, e in zip(acts[1:], (*LADDER_LINKS, Fraction(1))):
                strategy1[s][a] = {"coeff": round(rng.uniform(0.05, 0.1), 6), "exp": str(e)}
            strategy2[s] = {"L": {"coeff": 1.0, "exp": "0"},
                            "R": {"coeff": round(rng.uniform(0.2, 1.0), 6), "exp": "1/2"}}
    doc = {"states": states, "actions1": actions1, "actions2": actions2, "payoff": payoff,
           "transition": transition, "strategy1": strategy1, "strategy2": strategy2}
    return Job("game", json.dumps(doc), None,
               {"alphas": [Fraction(0), *LADDER_LINKS, Fraction(1)], "n_classes": groups})


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[random.Random, int, bool], Job]  # (rng, job index, tiny)
    verify: bool  # run the convergence sweep


def _ladder(rng, i, tiny):
    return ladder_job(rng, n_cycles=16 if tiny else 192)


def _dense(rng, i, tiny):
    return dense_job(rng, (6, 7) if tiny else DENSE_SIZES[i % len(DENSE_SIZES)])


def _dense_ring13(rng, i, tiny):
    return dense_job(rng, (6, 7) if tiny else DENSE_SIZES[i % len(DENSE_SIZES)], ring=13)


def _game(rng, i, tiny):
    return game_job(rng, n_regions=16 if tiny else 48)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ladder", _ladder, False),
        Workload("dense_classes", _dense, False),
        Workload("game_verify", _game, True),
        # every job carries a 13-state ring class, which the exact-enumeration
        # cap rejects today; kept out of BENCHMARK.json while it cannot pass
        Workload("dense_ring13", _dense_ring13, False),
    )
}


def make_inputs(name: str, seed: int, tiny: bool = False) -> list[Job]:
    """The workload's job pool for `seed`; `tiny` makes two small jobs, for tests."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    return [w.make(rng, i, tiny) for i in range(2 if tiny else POOL)]


def digest(jobs: list[Job]) -> str:
    h = hashlib.sha256()
    for job in jobs:
        h.update(job.text.encode())
        h.update(json.dumps(job.payoff).encode())
    return h.hexdigest()[:16]


# ------------------------------------------------------------ job and check


def run_job(job: Job, verify: bool, phase) -> dict:
    """Run one job through the package's public functions.  `phase(name)` is
    a context manager timing the named step: load, analyze, evaluate, verify.
    Functions are looked up on their modules at call time, so span wrappers
    installed by the tracer take effect."""
    from markovscale import chain_model, evaluator, games, hierarchy, oracle

    with phase("load"):
        doc = json.loads(job.text)
        if job.kind == "game":
            game, x, y = games.load_game(doc)
            chain, g = games.compile_game(game, x, y)
        else:
            chain = chain_model.load_chain(doc)
            g = job.payoff
    with phase("analyze"):
        model = hierarchy.analyze(chain)
    with phase("evaluate"):
        out = {
            "model": model,
            "P": evaluator.position(model, t=1.0),
            "O": evaluator.occupation(model, t=1.0).matrix,
            "T": evaluator.occupation(model, total=True).matrix,
            "v": evaluator.limit_payoff(model, g),
        }
    if verify:
        with phase("verify"):
            out["sweep"] = oracle.convergence_sweep(chain, model, t=1.0, lambdas=SWEEP_LAMBDAS)
    return out


def _rows_sum_to(name, mat, value):
    import numpy as np

    err = np.abs(mat.sum(axis=1) - value).max() if mat.size else 0.0
    if not err <= CHECK_TOL:
        raise CheckFailed(f"{name} rows deviate from {value} by {err:g}")


def check_job(job: Job, out: dict) -> None:
    """Raise CheckFailed unless the job's results are right."""
    model = out["model"]
    _rows_sum_to("mu", model.mu, 1.0)
    _rows_sum_to("M", model.M, 1.0)
    _rows_sum_to("A", model.A, 0.0)
    _rows_sum_to("P_1", out["P"], 1.0)
    _rows_sum_to("occupation(t=1)", out["O"], 1.0 - math.exp(-1.0))
    _rows_sum_to("occupation(total)", out["T"], 1.0)
    exp = job.expect
    if "alphas" in exp and model.alphas != exp["alphas"]:
        raise CheckFailed(f"alphas {[str(a) for a in model.alphas]} != built {[str(a) for a in exp['alphas']]}")
    if "n_classes" in exp and model.n_classes != exp["n_classes"]:
        raise CheckFailed(f"{model.n_classes} terminal classes, built {exp['n_classes']}")
    if "classes" in exp:
        _check_dense_measures(model, exp["classes"])
    sweep = out.get("sweep")
    if sweep is not None:
        flags = (sweep.position_non_increasing, sweep.occupation_non_increasing,
                 sweep.total_non_increasing)
        if not all(flags):
            raise CheckFailed(f"sweep errors increase: {sweep.entries}")
        if not sweep.final("total_err") < GAME_TOTAL_ERR_BOUND:
            raise CheckFailed(f"final total_err {sweep.final('total_err'):g} >= {GAME_TOTAL_ERR_BOUND}")


def _check_dense_measures(model, classes) -> None:
    """Each level-1 class measure equals the numpy stationary vector of the
    class's exponent-0 sub-chain."""
    import numpy as np

    chain = model.chain
    level = model.levels[1]
    built = {tuple(sorted(names, key=chain.index.__getitem__)) for names in classes}
    if set(level.recurrent_nodes) != built:
        raise CheckFailed("level-1 classes differ from the built dense classes")
    for node, meas in level.measures.items():
        members = [m[0] for m in meas]
        pos = {s: i for i, s in enumerate(members)}
        Q = np.zeros((len(members), len(members)))
        for s in members:
            for d, m in chain.row(s).items():
                if d in pos and m.exp == 0:
                    Q[pos[s], pos[d]] = m.coeff
        np.fill_diagonal(Q, 1.0 - Q.sum(axis=1))
        A = Q.T - np.eye(len(members))
        A[-1, :] = 1.0
        b = np.zeros(len(members))
        b[-1] = 1.0
        pi = np.linalg.solve(A, b)
        for (member,), m in meas.items():
            if m.exp != 0 or not abs(m.coeff - pi[pos[member]]) <= CHECK_TOL:
                raise CheckFailed(f"level-1 measure of {member!r} is {m!r}, numpy {pi[pos[member]]:.12g}")
