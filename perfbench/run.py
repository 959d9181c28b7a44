"""setcover-kit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 25 --trace 0

A run measures set-up in separate interpreters (`setup_s`, the median of
SETUP_SAMPLES, scaled to the reference machine speed for imports), then replays the workload's job list in whole rounds, in
a closed loop with one client, until --seconds have passed.  Every round
rebuilds the inputs with fresh objects, untimed, so caches on the kit's
objects live for one round, as they would for one batch of requests.
Each job's output is checked after it is timed.  All times of the run
are scaled to the reference machine speed, measured between its jobs
(see speed.py); a job's latency is its median over the rounds, and the
latency percentiles and the throughput are taken over those medians.
The last line of standard output is the JSON result; the line before it
holds the same end-to-end metrics as measured, before scaling
(`raw_metrics`), and the full record goes to perfbench/out/.
With --trace 1 the kit's public functions are wrapped in spans (see
spans.py) and the per-layer metrics are reported instead.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 6
CALIBRATE_EVERY = 4  # jobs between calibration slices (speed.py)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("closed-form", "polyhedral-reuse", "polyhedral-churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print 'ready' and exit (one set-up sample)")
    return parser.parse_args(argv)


def import_kit():
    """Import setcover_kit from this checkout's src/, never from elsewhere."""
    if not (SRC / "setcover_kit" / "__init__.py").is_file():
        sys.exit(f"benchmark: no kit sources at {SRC / 'setcover_kit'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import setcover_kit

    if Path(setcover_kit.__file__).resolve().parent != (SRC / "setcover_kit").resolve():
        sys.exit(f"benchmark: imported setcover_kit from {setcover_kit.__file__}")


def time_to_ready(cmd: list[str]) -> float:
    """Seconds from starting cmd to its line 'ready'; the child is then waited for."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        sys.exit(f"benchmark: set-up failed (exit {code}): {' '.join(cmd[1:])}")
    return elapsed


def setup_samples(args) -> tuple[list[float], float]:
    """Interpreter start to inputs ready, timed from outside, SETUP_SAMPLES times.

    Also returns the machine's speed factor for set-up work: each sample
    follows one timed start of an interpreter that only imports numpy and
    scipy's linprog (speed.IMPORT_CMD), which is not the kit.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples, imports = [], []
    for _ in range(SETUP_SAMPLES):
        imports.append(time_to_ready([sys.executable, "-c", speed.IMPORT_CMD]))
        samples.append(time_to_ready(cmd))
    return samples, speed.IMPORT_REFERENCE_S / statistics.median(imports)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile; failed jobs enter as +inf."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    if xs[hi] == math.inf:
        return xs[lo] if pos == lo else math.inf
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(latencies: dict[str, list[float]], failed_names: set, setup: list[float]) -> dict:
    # each job's median over the rounds damps bursts of load within the run
    typical = {name: statistics.median(v) for name, v in latencies.items()}
    ok = [t for name, t in typical.items() if name not in failed_names]
    ranked = ok + [math.inf] * len(failed_names)  # a failed job misses any latency limit
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "jobs_per_s": {"value": len(ok) / sum(typical.values()), "unit": "1/s"},
        "job_p50_ms": {"value": 1000.0 * percentile(ranked, 0.50), "unit": "ms"},
        "job_p90_ms": {"value": 1000.0 * percentile(ranked, 0.90), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def expected_failure(job, error: Exception) -> bool:
    """Only the job's named fault is expected; anything else on that job is not."""
    import checks

    return isinstance(error, checks.KnownFault) and error.fault == job.known_fault


def main(argv=None) -> int:
    args = parse_args(argv)
    import_kit()
    import workloads

    if args.setup_only:
        workloads.build(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    import checks  # after set-up-only: its references are no part of set-up

    setup, setup_speed = ([], 1.0) if args.trace else setup_samples(args)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.enabled = False
        spans.install(tracer)

    refs: dict = {}
    raw: dict[str, list[float]] = {}  # job name -> one latency per round, as timed
    slices: list[float] = []  # calibration slice times, between jobs
    attempted = failed = 0
    failures: dict[str, str] = {}
    unexpected: dict[str, str] = {}
    round_busy: list[float] = []
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        jobs = workloads.build(args.workload, args.seed)
        spent = 0.0
        for i, job in enumerate(jobs):
            if i % CALIBRATE_EVERY == CALIBRATE_EVERY - 1:
                slices.append(speed.calibration_slice())
            error = None
            if tracer:
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                out = job.run()
            except Exception as exc:  # a job that raises is a failed operation
                error = exc
            dt = time.perf_counter() - t0
            if tracer:
                tracer.enabled = False
            if error is None:
                try:
                    job.check(out, refs)
                except checks.CheckFailed as exc:
                    error = exc
            attempted += 1
            spent += dt
            raw.setdefault(job.name, []).append(dt)
            if error is not None:
                failed += 1
                (failures if expected_failure(job, error) else unexpected)[job.name] = \
                    f"{type(error).__name__}: {error}"
        round_busy.append(spent)
        rounds += 1
    wall = time.perf_counter() - start

    if tracer:
        tracer.flush_queries()
        layers = spans.per_layer(tracer, rounds)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
        raw_metrics = None
    else:
        failed_names = set(failures) | set(unexpected)
        # one factor for all rounds: the machine's speed drifts over minutes
        factor = speed.REFERENCE_S / statistics.median(slices)
        scaled = {name: [t * factor for t in v] for name, v in raw.items()}
        metrics = end_to_end(scaled, failed_names, [t * setup_speed for t in setup])
        raw_metrics = end_to_end(raw, failed_names, setup)
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "result": result, "rounds": rounds, "wall_s": wall,
        "jobs_per_round": attempted // rounds,
        "median_round_busy_s": statistics.median(round_busy),
        "speed_factor": speed.REFERENCE_S / statistics.median(slices),
        "setup_speed_factor": setup_speed,
        "raw_metrics": raw_metrics,
        "setup_samples_s": setup,
        "failures": failures, "unexpected_failures": unexpected,
        "python": sys.version.split()[0],
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer:
        span_table = {name: {"calls": c, "total_s": t, "self_s": s}
                      for name, (c, t, s) in sorted(tracer.spans.items())}
        (OUT / f"trace-{stem}.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "rounds": rounds,
             "spans": span_table, "counts": tracer.counts,
             "polyhedral_queries": tracer.query_stats()},
            indent=2) + "\n")
    for name, error in unexpected.items():
        print(f"FAILED {name}: {error}", file=sys.stderr)
    if raw_metrics is not None:
        print(json.dumps({"raw_metrics": raw_metrics,
                          "speed_factor": record["speed_factor"],
                          "setup_speed_factor": setup_speed}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
