"""Run one workload of the nahilb benchmark and print its metrics.

    python3 perfbench/run.py --workload loc-sum --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One client runs the workload's seeded job list in this process as a closed
loop: each job starts when the previous one has finished.  Passes over the
list repeat until the next one would end after --seconds.  CLI-shaped jobs
go through ``nahilb.cli.main`` with stdout captured; classify jobs call
the library.  After the timed passes every job's output is checked by its
oracle (perfbench/oracles.py).

With --trace 0 the metrics are the end-to-end ones, measured untraced.
The process runs on one CPU and times a fixed reference() loop before the
first job of a pass and after every job; each job's time is scaled by the
reference times around it to what it would be at REFERENCE_S per call, so
the figures do not follow the speed changes of a shared host.
With --trace 1 untraced and traced passes alternate, and the metrics are
the per-layer ones of perfbench/tracing.py, medians over traced passes.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the
interpreter, the job count and the run digest.  The exit code is 1 when
any job fails or its oracle rejects its output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from statistics import median
from time import perf_counter, process_time

if sys.flags.optimize:
    sys.exit("perfbench: refusing to run under python -O, which strips the "
             "degree assert in nahilb.localization and so times a different "
             "program")

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import perfbench  # noqa: E402

perfbench.use_checkout_source()

from perfbench import oracles, tracing, workloads  # noqa: E402

END_TO_END = (
    ("wall_s", "s"), ("cpu_s", "s"), ("job_s.p50", "s"), ("job_s.tail", "s"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
)
SETUPS_PER_PASS = 3
TAIL_BEYOND = 10
# Time of one reference() call when nothing else slows the CPU: the fastest
# of 3000 calls on a 2.0 GHz Intel Xeon vCPU under CPython 3.11 took 2.41 ms.
REFERENCE_S = 0.0025


def reference() -> int:
    """A fixed few milliseconds of the work the engine does most: Fraction
    arithmetic and dictionaries keyed by tuples of small ints."""
    acc, x = {}, Fraction(0)
    for i in range(1, 900):
        key = (i % 7, i % 11, i % 13)
        acc[key] = acc.get(key, 0) + i * i
        x += Fraction(i % 17 + 1, i % 19 + 1)
    return len(acc) + x.denominator


def time_reference() -> tuple:
    """Wall and CPU seconds of the faster of two reference() calls."""
    best = (float("inf"), float("inf"))
    for _ in range(2):
        wall, cpu = perf_counter(), process_time()
        reference()
        best = min(best, (perf_counter() - wall, process_time() - cpu))
    return best


# A fresh interpreter imports nahilb.cli and builds every integrand of the
# job list: the cost each `nahilb` invocation pays before its first job.
_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
from nahilb.cli import parse_class_spec
args = sys.argv[2:]
for d, spec in zip(args[::2], args[1::2]):
    parse_class_spec(spec, 0, int(d))
"""


@dataclass
class Pass:
    wall: float
    times: list  # wall seconds per job, in job-list order
    cpus: list  # process CPU seconds per job, in job-list order
    refs: list  # time_reference() before the first job, and after each job
                # of an untraced pass
    digests: list  # sha256 of each job's output, None when the job failed
    outputs: list | None  # the outputs themselves, kept for the first pass


def setup_argv(jobs: list) -> list:
    argv = [sys.executable, "-c", _PROBE, str(perfbench.SRC)]
    for d, spec in sorted({(job.d, job.class_spec) for job in jobs
                           if job.class_spec}):
        argv += [str(d), spec]
    return argv


def time_setup(argv: list) -> float:
    start = perf_counter()
    subprocess.run(argv, check=True, cwd=perfbench.ROOT)
    return perf_counter() - start


def _digest(out: bytes | None) -> str | None:
    return None if out is None else hashlib.sha256(out).hexdigest()


def run_pass(jobs: list, errors: dict, tracer=None, keep=False) -> Pass:
    gc.collect()
    times, cpus, outputs = [], [], []
    refs = [time_reference()]
    wall = perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.id
        start, start_cpu = perf_counter(), process_time()
        try:
            out = workloads.run_job(job)
        except Exception as exc:  # a failing job is counted; the run goes on
            out = None
            errors.setdefault(job.id, f"{type(exc).__name__}: {exc}")
        times.append(perf_counter() - start)
        cpus.append(process_time() - start_cpu)
        outputs.append(out)
        if tracer is not None:
            tracer.end_job()
            if out is not None and job.family != "classify":
                tracer.counts["cli.output_bytes"] += len(out)
        else:
            refs.append(time_reference())
    wall = perf_counter() - wall
    # only the first pass's outputs are kept, so memory does not grow with
    # the number of passes
    return Pass(wall, times, cpus, refs, [_digest(out) for out in outputs],
                outputs if keep else None)


def measure(jobs: list, seconds: float, errors: dict) -> tuple:
    """Untraced passes, each followed by a burst of SETUPS_PER_PASS timed
    set-ups, until the next round would end after `seconds`.  Spreading the
    set-ups over the run exposes them to the same machine phases as the
    passes.  Returns the passes, and the set-up times as measured and as
    scaled to the reference speed by time_reference() around each burst."""
    argv = setup_argv(jobs)
    passes, setups, scaled_setups = [], [], []
    start = perf_counter()
    while True:
        passes.append(run_pass(jobs, errors, keep=not passes))
        before = time_reference()[0]
        burst = [time_setup(argv) for _ in range(SETUPS_PER_PASS)]
        scale = 2 * REFERENCE_S / (before + time_reference()[0])
        setups += burst
        scaled_setups += [t * scale for t in burst]
        round_s = (median(p.wall for p in passes)
                   + SETUPS_PER_PASS * median(setups))
        if perf_counter() - start + round_s > seconds:
            return passes, setups, scaled_setups


def measure_traced(jobs: list, seconds: float, errors: dict) -> tuple:
    """Alternating untraced and traced passes; returns both lists and the
    per-layer metrics of each traced pass."""
    plain, traced, layer = [], [], []
    tracer = tracing.Tracer()
    start = perf_counter()
    while True:
        plain.append(run_pass(jobs, errors, keep=not plain))
        tracer.reset()
        with tracer.installed():
            traced.append(run_pass(jobs, errors, tracer))
        # job times only, so the untraced pass's reference() calls do not
        # count against the trace overhead
        layer.append(tracer.metrics(sum(traced[-1].times), sum(plain[-1].times)))
        pair = median(p.wall for p in plain) + median(p.wall for p in traced)
        if perf_counter() - start + pair > seconds:
            return plain, traced, layer


def scaled(p: Pass) -> tuple:
    """Wall and CPU seconds of each job of an untraced pass, scaled to the
    reference speed by the time_reference() taken just before and just
    after the job: time * REFERENCE_S / (reference time then)."""
    walls, cpus = [], []
    for i, (wall, cpu) in enumerate(zip(p.times, p.cpus)):
        (w0, c0), (w1, c1) = p.refs[i], p.refs[i + 1]
        walls.append(wall * 2 * REFERENCE_S / (w0 + w1))
        cpus.append(cpu * 2 * REFERENCE_S / (c0 + c1))
    return walls, cpus


def end_to_end(jobs: list, passes: list, setups: list,
               scaled_setups: list) -> tuple:
    """The end-to-end metrics, every time scaled to the reference speed;
    and the same times unscaled, with the reference time, for the record."""
    walls, cpus = zip(*(scaled(p) for p in passes))
    per_job = sorted(median(w[i] for w in walls) for i in range(len(jobs)))
    if len(per_job) <= TAIL_BEYOND:
        raise ValueError(f"a job list needs more than {TAIL_BEYOND} jobs")
    tail_rank = len(per_job) - TAIL_BEYOND  # TAIL_BEYOND jobs are slower
    metrics = {
        "wall_s": median(sum(w) for w in walls),
        "cpu_s": median(sum(c) for c in cpus),
        "job_s.p50": median(per_job),
        "job_s.tail": per_job[tail_rank - 1],
        "setup_s": median(scaled_setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    unscaled = sorted(median(p.times[i] for p in passes)
                      for i in range(len(jobs)))
    record = {
        "percentile": round(100 * tail_rank / len(per_job), 1),
        "samples": len(per_job), "passes_per_sample": len(passes),
        "setup_samples": len(setups),
        "reference_s": median(r[0] for p in passes for r in p.refs),
        "unscaled": {
            "wall_s": median(sum(p.times) for p in passes),
            "cpu_s": median(sum(p.cpus) for p in passes),
            "job_s.p50": median(unscaled),
            "job_s.tail": unscaled[tail_rank - 1],
            "setup_s": median(setups)},
    }
    return metrics, record


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    cpus = os.sched_getaffinity(0)
    # jobs, reference() and set-up interpreters all run on one CPU, so the
    # reference measures the speed of the CPU the work ran on
    os.sched_setaffinity(0, {min(cpus)})
    jobs = workloads.jobs_for(name, seed)
    errors: dict = {}
    if trace:
        plain, traced, layer = measure_traced(jobs, seconds, errors)
        passes = plain + traced
        metrics = {m: median(pm[m] for pm in layer) for m, _, _ in tracing.METRICS}
        units = {m: unit for m, unit, _ in tracing.METRICS}
        extra = {"untraced_passes": len(plain), "traced_passes": len(traced)}
    else:
        passes, setups, scaled_setups = measure(jobs, seconds, errors)
        metrics, record = end_to_end(jobs, passes, setups, scaled_setups)
        units = dict(END_TO_END)
        extra = {"pass_wall_s": [p.wall for p in passes], "timing": record}

    # correctness, outside the timed region: the first pass is the
    # baseline, every later pass must reproduce it byte for byte
    failed_jobs = set(errors)
    for job, out in zip(jobs, passes[0].outputs):
        if out is None or job.id in failed_jobs:
            continue
        try:
            reason = oracles.check(job, out, seed)
        except Exception as exc:  # an oracle that cannot run is a failure
            reason = f"oracle raised {type(exc).__name__}: {exc}"
        if reason is not None:
            errors[job.id] = f"oracle: {reason}"
    digests = passes[0].digests
    failed = 0
    for p in passes:
        for job, digest, want in zip(jobs, p.digests, digests):
            if digest is None or job.id in errors or digest != want:
                errors.setdefault(job.id, "output differs between passes")
                failed += 1
    attempted = len(jobs) * len(passes)

    for job_id, reason in sorted(errors.items()):
        print(f"perfbench: {job_id} failed: {reason}", file=sys.stderr)
    for m, value in metrics.items():
        print(f"{name} {m} {value:.6g} {units[m]}")
    print(f"{name} fail_ratio {failed / attempted:.6g} ratio")
    run_digest = hashlib.sha256(
        "".join(d or "-" for d in digests).encode()).hexdigest()
    print(json.dumps({
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "jobs": len(jobs), **extra, "fail_ratio": failed / attempted,
        "digest": run_digest, "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "nproc": len(cpus),
        "flags": {f: getattr(sys.flags, f) for f in dir(sys.flags)
                  if not f.startswith(("_", "n_")) and f not in ("count", "index")},
    }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if not lines:
            sys.exit(f"perfbench: workload {name} printed no result")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for m, value in result["metrics"].items():
            merged["metrics"][f"{name}.{m}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
