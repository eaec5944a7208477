"""Tests of the benchmark itself, at a tiny size."""

import json
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))

import markovscale.hierarchy  # noqa: E402

BENCHMARK = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def tiny(name, trace, **kw):
    return run.run_workload(name, seed=7, seconds=0.01, trace=trace, tiny=True, setup_runs=1, **kw)


@pytest.mark.parametrize("name", NAMES)
def test_workload_emits_every_benchmark_metric(name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = tiny(name, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    for name in workloads.WORKLOADS:
        a = workloads.digest(workloads.make_inputs(name, 3, tiny=True))
        assert a == workloads.digest(workloads.make_inputs(name, 3, tiny=True))
        assert a != workloads.digest(workloads.make_inputs(name, 4, tiny=True))


def test_a_wrapper_that_perturbs_mu_is_counted_as_failed(monkeypatch):
    analyze = markovscale.hierarchy.analyze

    def perturbed(chain):
        model = analyze(chain)
        model.mu[0, 0] += 1e-6
        return model

    monkeypatch.setattr(markovscale.hierarchy, "analyze", perturbed)
    for name in NAMES:
        result = tiny(name, False)
        assert not result["correct"]
        assert result["failed"] == result["attempted"] >= 1


def test_self_times_of_a_span_and_its_descendants_sum_to_its_duration(tmp_path: Path):
    path = tmp_path / "trace.json"
    tiny("ladder", True, trace_path=path)
    recorded = [spans.Span(**{k: d[k] for k in ("id", "name", "parent", "job", "start", "end")})
                for d in json.loads(path.read_text())["spans"]]
    assert {sp.name for sp in recorded} >= {"hierarchy.build_level", "structure.invariant_measure",
                                            "structure.entrance_law", "evaluator.expm"}
    own = spans.self_times(recorded)
    children = {}
    for sp in recorded:
        children.setdefault(sp.parent, []).append(sp)

    def subtree_self(sp):
        return own[sp.id] + sum(subtree_self(c) for c in children.get(sp.id, []))

    for sp in recorded:
        assert subtree_self(sp) == pytest.approx(sp.end - sp.start, abs=1e-9)
        assert own[sp.id] >= -1e-9
