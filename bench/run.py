"""Benchmark harness for markovscale.

    python3 bench/run.py --workload {ladder,dense_classes,game_verify,dense_ring13,all}
                         --seed N --seconds S --trace {0,1}

Each workload is a pool of seeded job inputs (see workloads.py), generated
as JSON text before any clock starts.  One process runs them as a closed
loop: one job at a time, the next starting when the previous one has
completed and been checked, until `--seconds` have passed.  Every job is
checked; a job that raises or fails its check counts as failed.

With `--trace 0` the run reports the end-to-end metrics, including the
set-up time of fresh processes.  With `--trace 1` it runs each job untraced
and then traced (alternating the order), reports the per-layer metrics from
the spans, writes the spans to `bench/results/`, and ends with a separate
`tracemalloc` pass for per-phase peak memory.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from contextlib import contextmanager, nullcontext
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
RESULTS = BENCH_DIR / "results"

#: BLAS threads: one, so that runs on a shared machine stay steady; the jobs'
#: matrices (at most a few hundred rows) gain little from more
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: fresh processes timed per run for setup_s
SETUP_RUNS = 5
#: jobs in the tracemalloc pass
MEMORY_JOBS = 1

#: end-to-end metric -> unit.  Job timings are gated on the mean and p90;
#: the median is printed too.  On a shared 2-vCPU Xeon VM the speed of the
#: same code switches by up to 1.6x for seconds at a time, so per-job times
#: form two modes and a run's median flips between them: over six 30 s
#: game_verify runs, analyze_s had a quartile spread (over the median) of
#: 0.22 for the median, 0.085 for the mean and 0.042 for p90.
END_TO_END = {
    "setup_s": "s",
    "analyze_s.mean": "s",
    "analyze_s.p90": "s",
    "evaluate_s.mean": "s",
    "evaluate_s.p90": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> (unit, the end-to-end metric and workload it should move)
PER_LAYER = {
    "chain_model.load_chain.s": ("s", "analyze_s on ladder; about 0 on dense_classes"),
    "games.load_game.s": ("s", "analyze_s on game_verify"),
    "games.compile_game.s": ("s", "analyze_s on game_verify"),
    "hierarchy.build_level.self_s": ("s", "analyze_s on ladder"),
    "hierarchy.build_level.calls": ("count", "analyze_s on ladder (= number of levels)"),
    "hierarchy.analyze.self_s": ("s", "analyze_s on ladder"),
    "chain_model.averaging_period.s": ("s", "analyze_s on ladder"),
    "structure.classify.s": ("s", "analyze_s on ladder"),
    "structure.classify.nodes": ("count", "analyze_s on ladder"),
    "structure.invariant_measure.s": ("s", "analyze_s on dense_classes, somewhat on ladder"),
    "structure.invariant_measure.calls": ("count", "analyze_s on dense_classes, somewhat on ladder"),
    "structure.invariant_measure.max_class": ("count", "analyze_s on dense_classes"),
    "structure.invariant_measure.mono_ops": ("count", "analyze_s on dense_classes, somewhat on ladder"),
    "structure.entrance_law.self_s": ("s", "analyze_s on ladder"),
    "structure.entrance_law.transients": ("count", "analyze_s on ladder"),
    "structure.entrance_law.trap_contractions": ("count", "analyze_s on ladder"),
    "evaluator.expm.s": ("s", "evaluate_s on ladder; jobs_per_s on game_verify slightly"),
    "evaluator.expm.max_dim": ("count", "evaluate_s on ladder"),
    "evaluator.position.self_s": ("s", "evaluate_s on ladder; jobs_per_s on game_verify slightly"),
    "evaluator.occupation.self_s": ("s", "evaluate_s on ladder; jobs_per_s on game_verify slightly"),
    "evaluator.limit_payoff.self_s": ("s", "evaluate_s on ladder"),
    "oracle.instantiate.s": ("s", "jobs_per_s on game_verify (verify step)"),
    "oracle.matrix_power_position.s": ("s", "jobs_per_s on game_verify (verify step)"),
    "oracle.discounted_sum.s": ("s", "jobs_per_s on game_verify (verify step)"),
    "load.peak_mb": ("MB", "peak_rss_mb on ladder"),
    "analyze.peak_mb": ("MB", "peak_rss_mb on ladder"),
    "evaluate.peak_mb": ("MB", "peak_rss_mb on ladder"),
    "verify.peak_mb": ("MB", "peak_rss_mb on game_verify"),
    "trace.overhead_frac": ("ratio", "none: traced minus untraced job time, over untraced"),
}

class PhaseClock:
    """Times the phases of one job; a tracer, if given, also records each
    phase as a root span of the job."""

    def __init__(self, tracer: spans.Tracer | None = None):
        self.tracer = tracer
        self.times: dict[str, float] = {}

    @contextmanager
    def phase(self, name: str):
        with self.tracer.span(f"bench.{name}") if self.tracer else nullcontext():
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self.times[name] = time.perf_counter() - t0

    @property
    def total(self) -> float:
        return sum(self.times.values())


class MemoryClock:
    """Peak `tracemalloc` memory of each phase above its starting level."""

    def __init__(self):
        self.peak_mb: dict[str, float] = {}

    @contextmanager
    def phase(self, name: str):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        yield
        peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), peak)


class Tally:
    """Attempted and failed jobs; the first failure's traceback is printed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, job, verify: bool, clock) -> bool:
        self.attempted += 1
        try:
            workloads.check_job(job, workloads.run_job(job, verify, clock.phase))
        except Exception:  # any failure of the program under test counts
            self.failed += 1
            if self.failed == 1:
                traceback.print_exc(file=sys.stderr)
            return False
        return True


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure_setup(w: workloads.Workload, job: workloads.Job, runs: int) -> list[float]:
    """Seconds for a fresh process to import markovscale and run one job."""
    request = json.dumps({"src": str(SRC), "kind": job.kind, "text": job.text,
                          "payoff": job.payoff, "verify": w.verify})
    out = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py")], input=request,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def _stat(values, how):
    return how(values) if values else None


def warm_up(w, jobs) -> None:
    """Run one job untimed, then freeze the objects alive now (imported
    modules, the input pool) so that the collector's full passes during the
    loop scan only what the jobs allocate; otherwise their pauses, about a
    tenth of a game_verify job, land on an arbitrary share of the jobs."""
    Tally().run(jobs[0], w.verify, PhaseClock())
    gc.collect()
    gc.freeze()


def run_untraced(w, jobs, seconds, setup_runs) -> tuple[dict, Tally, dict]:
    setup = measure_setup(w, jobs[0], setup_runs)
    warm_up(w, jobs)
    tally = Tally()
    samples = {"analyze_s": [], "evaluate_s": [], "verify_s": []}
    busy = 0.0
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        clock = PhaseClock()
        ok = tally.run(jobs[i % len(jobs)], w.verify, clock)
        busy += clock.total
        if ok:
            t = clock.times
            samples["analyze_s"].append(t["load"] + t["analyze"])
            samples["evaluate_s"].append(t["evaluate"])
            if w.verify:
                samples["verify_s"].append(t["verify"])
        i += 1
    completed = tally.attempted - tally.failed
    metrics = {"setup_s": statistics.median(setup)}
    counts = {"setup_s": len(setup)}
    for key, vals in samples.items():
        if key == "verify_s" and not w.verify:
            continue
        for stat, how in (("p50", statistics.median), ("mean", statistics.fmean), ("p90", _p90)):
            metrics[f"{key}.{stat}"] = _stat(vals, how)
            counts[f"{key}.{stat}"] = len(vals)
    metrics["jobs_per_s"] = completed / busy
    metrics["fail_frac"] = tally.failed / tally.attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counts.update(jobs_per_s=completed, fail_frac=tally.attempted, peak_rss_mb=1)
    return metrics, tally, counts


def run_traced(w, jobs, seconds, trace_path: Path | None) -> tuple[dict, Tally, dict]:
    tracer = spans.Tracer()
    warm_up(w, jobs)
    tally = Tally()
    plain_total = traced_total = 0.0
    per_job: list[dict] = []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        job = jobs[i % len(jobs)]
        plain, traced = PhaseClock(), PhaseClock(tracer)
        tracer.job = i
        first = len(tracer.spans)
        ok = []
        for clock in ((plain, traced) if i % 2 == 0 else (traced, plain)):
            with tracer.installed() if clock is traced else nullcontext():
                ok.append(tally.run(job, w.verify, clock))
        if all(ok):
            plain_total += plain.total
            traced_total += traced.total
            per_job.append(spans.job_layers(tracer.spans[first:]))
        i += 1

    memory = MemoryClock()
    tracemalloc.start()
    try:
        for job in jobs[:MEMORY_JOBS]:
            tally.run(job, w.verify, memory)
    finally:
        tracemalloc.stop()

    metrics, counts = {}, {}
    for name in PER_LAYER:
        if name.endswith(".peak_mb"):
            metrics[name] = memory.peak_mb.get(name.split(".")[0], 0.0)
            counts[name] = MEMORY_JOBS
        elif name == "trace.overhead_frac":
            metrics[name] = traced_total / plain_total - 1.0 if plain_total else None
            counts[name] = len(per_job)
        else:
            layer, qty = name.rsplit(".", 1)
            vals = [d.get(layer, {}).get(qty, 0) for d in per_job]
            metrics[name] = _stat(vals, statistics.median)
            counts[name] = len(per_job)
    if trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        with open(trace_path, "w") as fh:
            json.dump({"environment": environment(), "spans": [sp.as_doc() for sp in tracer.spans],
                       "memory_peak_mb": memory.peak_mb}, fh)
    return metrics, tally, counts


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 setup_runs: int = SETUP_RUNS, trace_path: Path | None = None) -> dict:
    """Generate the workload's inputs, run it, print the report, and return
    the result object (metrics named as in BENCHMARK.json)."""
    w = workloads.WORKLOADS[name]
    jobs = workloads.make_inputs(name, seed, tiny=tiny)
    print(f"inputs {name} seed={seed} jobs={len(jobs)} digest={workloads.digest(jobs)}")
    if trace:
        metrics, tally, counts = run_traced(w, jobs, seconds, trace_path)
        units = {k: u for k, (u, _) in PER_LAYER.items()}
        names = list(PER_LAYER)
    else:
        metrics, tally, counts = run_untraced(w, jobs, seconds, setup_runs)
        units = {k: END_TO_END.get(k, "ratio" if k == "fail_frac" else "s") for k in metrics}
        names = list(END_TO_END)
    gc.unfreeze()
    for key, value in metrics.items():
        moves = f"  moves {PER_LAYER[key][1]}" if trace else ""
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {key:<42} {shown:>12} {units[key]:<6} n={counts[key]}{moves}")
    print(f"  attempted={tally.attempted} failed={tally.failed}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "markovscale" / "__init__.py").is_file():
        print(f"markovscale sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import markovscale

    if Path(markovscale.__file__).resolve().parent != SRC / "markovscale":
        print(f"imported markovscale from {markovscale.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":  # one process per workload, so peak_rss_mb is its own
        results = {}
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            results[name] = json.loads(lines[-1]) if proc.returncode == 0 else None
        print(json.dumps(results))
        return 0 if all(results.values()) else 1
    print("environment", json.dumps(environment(), sort_keys=True))
    path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json" if args.trace else None
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), trace_path=path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
