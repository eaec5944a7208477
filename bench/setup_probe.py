"""Set-up time of a fresh process: read one job from standard input, then
import markovscale (numpy and scipy included) and run the job, and print the
seconds that took.  Started by run.py once per set-up measurement.  A job
that raises still ends the set-up; the timed loop counts such failures."""

import json
import sys
import time
from contextlib import nullcontext


def main() -> None:
    req = json.loads(sys.stdin.read())
    t0 = time.perf_counter()
    sys.path.insert(0, req["src"])
    import markovscale  # noqa: F401

    from workloads import Job, run_job

    try:
        run_job(Job(req["kind"], req["text"], req["payoff"], {}), req["verify"],
                lambda name: nullcontext())
    except Exception as exc:  # reported; the set-up time still counts
        print(f"warm-up job failed: {exc!r}", file=sys.stderr)
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
