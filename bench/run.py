"""fairdyn benchmark.

Usage (from the root of a checkout; no install needed):

    python3 bench/run.py --workload policy_search --seed 1 --seconds 20 --trace 0
    python3 bench/run.py            # every workload, one fresh process each

A run is one process with one thread: a closed loop with one client that
runs jobs back to back. It imports ``fairdyn`` from ``src/``, draws its
inputs from ``--seed``, warms up, then times whole cycles of jobs until
``--seconds`` have passed, checking every job's output. With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced passes over the first cycle and reports per-layer self
time and call counts per job. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Spans and a
result record with the environment are written under ``.bench_run/``.
"""

import os
import sys
import time

# Pin BLAS and OpenMP pools to one thread before numpy is imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
):
    os.environ[_var] = "1"


def speed_probe():
    """Seconds for a fixed piece of pure-Python work.

    On a shared host, other tenants can slow the CPU by up to 2x for
    seconds to minutes at a time. Every timing is scaled by PROBE_REF_S over the mean
    probe time measured around and during it, so the benchmark reports
    reference seconds: wall seconds at the speed where this probe takes
    PROBE_REF_S. The probe does not touch fairdyn, so library changes
    cannot move it.
    """
    t = time.perf_counter()
    acc = 0.0
    for i in range(1500):
        row = tuple(float(i + j) for j in range(8))
        acc += sum(row) * 0.5 if i % 3 else max(row)
    return time.perf_counter() - t


PROBE_REF_S = 2.0e-3
SAMPLE_S = 0.05  # probe period during a job
_P0 = speed_probe()
_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_run"
SRC = ROOT / "src"

# Highest percentile that leaves at least ten jobs beyond it at the lowest
# job count a 20-second run reached on the baseline machine (see README.md).
TAIL_PCT = {
    "policy_search": 85,
    "long_horizon": 58,
    "causal_audit": 76,
    "builtin_cli": 79,
}
SETUP_REPEATS = 5  # set-ups per trace-0 run; setup_s is their median
SELF_TIME_SLACK = 1e-9
CHECK_FNS = (
    "causal.counterfactual_fairness_gap",
    "causal.proxy_discrimination_gap",
    "causal.d_separated",
    "causal.unresolved_discrimination",
)
SEARCH_FNS = ("optimize.constrained_policy", "optimize.outcome_optimal_policy")
GROUPS_PER_SEARCH = 2  # every searched population in the benchmark has two


def _import_library():
    if not (SRC / "fairdyn" / "__init__.py").is_file():
        sys.exit(f"bench: no fairdyn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fairdyn

    if Path(fairdyn.__file__).resolve().parent != SRC / "fairdyn":
        sys.exit(f"bench: imported fairdyn from {fairdyn.__file__}, not {SRC}")


def environment():
    import networkx
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


class _Sampler:
    """Runs the speed probe every SAMPLE_S seconds (SIGALRM) while active,
    keeping each probe time and the total time the probes took."""

    def __init__(self):
        self.probes = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.probes.append(speed_probe())
        self.spent += time.perf_counter() - t

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


class JobLog:
    """Wall time, reference time, work and problems of every job run.

    With ``sample`` false (traced passes) no probe runs inside a job, so
    spans see only library code and the endpoint probes alone scale it.
    """

    def __init__(self, w, ref, seed, sample=True):
        self.w, self.ref, self.seed, self.sample = w, ref, seed, sample
        self.walls = []  # seconds, minus the probes run inside the job
        self.times = []  # the same in reference seconds
        self.units = 0.0
        self.failed = 0
        self.problems = []

    def run(self, raw, key):
        import workloads

        built = self.w.build(raw)
        sampler = _Sampler()
        probes = [speed_probe()]
        t = time.perf_counter()  # also set inside, after the sampler starts
        try:
            with sampler if self.sample else contextlib.nullcontext():
                t = time.perf_counter()
                result = self.w.call(built)
                wall = time.perf_counter() - t
                spent = sampler.spent
        except Exception as exc:  # a failed job is counted, not fatal
            wall, spent = time.perf_counter() - t, sampler.spent
            problems = [f"job {key} raised {exc!r}"]
        else:
            problems = self.w.check(raw, result)
            problems += workloads.reference_problems(
                self.w, self.ref, self.seed, key, result
            )
        probes += sampler.probes + [speed_probe()]
        if threading.active_count() != 1:
            problems.append(f"job {key} left {threading.active_count()} threads")
        self.walls.append(wall - spent)
        self.times.append(self.walls[-1] * PROBE_REF_S / statistics.fmean(probes))
        self.units += self.w.work(raw)
        if problems:
            self.failed += 1
            self.problems += problems


def setup(w_name, seed):
    """Import, draw inputs and warm up; returns (workload, pool, reference)."""
    _import_library()
    import workloads

    w = workloads.WORKLOADS[w_name]
    pool = workloads.make_pool(w, seed)
    ref = workloads.load_reference(w)
    warm = JobLog(w, ref, seed)
    warm.run(pool[0], 0)
    if warm.failed:
        sys.exit("bench: warm-up job failed: " + "; ".join(warm.problems[:5]))
    return w, pool, ref


def timed_phase(w, pool, ref, seed, seconds):
    log = JobLog(w, ref, seed)
    start = time.perf_counter()
    cycle = 0
    while cycle == 0 or time.perf_counter() - start < seconds:
        for s in range(w.strata):
            key = (cycle * w.strata + s) % len(pool)
            log.run(pool[key], key)
        cycle += 1
    return log


def setup_time():
    """Seconds from the top of this script to now, in reference seconds."""
    wall = time.perf_counter() - _T0
    return wall * 2.0 * PROBE_REF_S / (_P0 + speed_probe())


def _setup_repeats(w_name, seed):
    times = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w_name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def end_to_end(w, log, setup_s):
    import numpy as np

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pct = TAIL_PCT[w.name]
    n = len(log.walls)
    beyond = n - int(np.ceil(n * pct / 100.0))
    metrics = {
        "setup_s": (setup_s, "s"),
        "job_s_p50": (float(np.median(log.times)), "s"),
        "job_s_tail": (float(np.percentile(log.times, pct)), "s"),
        "work_per_s": (log.units / sum(log.times), "units/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {
        "jobs": n,
        "tail_percentile": pct,
        "jobs_beyond_tail": beyond,
        "wall_job_s_p50": float(np.median(log.walls)),
        "wall_job_s_tail": float(np.percentile(log.walls, pct)),
        "wall_work_per_s": log.units / sum(log.walls),
        "speed_factor": sum(log.walls) / sum(log.times),
    }
    if beyond < 10:
        print(f"warning: only {beyond} jobs beyond p{pct}", file=sys.stderr)
    return metrics, extra


def _ancestors_include(rec, idx, names):
    p = rec.parents[idx]
    while p >= 0:
        if rec.names[p] in names:
            return True
        p = rec.parents[p]
    return False


def per_layer(w, pool, ref, seed, seconds):
    """Alternate untraced and traced passes over the first cycle."""
    import spans

    rec = spans.SpanRecorder()
    plain = JobLog(w, ref, seed)
    traced = JobLog(w, ref, seed, sample=False)
    for key in range(w.strata):  # warm every shape before comparing passes
        JobLog(w, ref, seed).run(pool[key], key)
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        for tracing in (False, True) if rounds % 2 == 0 else (True, False):
            if not tracing:
                for key in range(w.strata):
                    plain.run(pool[key], key)
                continue
            with spans.traced(rec):
                for key in range(w.strata):
                    rec.job = len(traced.walls)
                    traced.run(pool[key], key)
            rec.job = -1
        rounds += 1
    traced_walls = traced.walls

    self_s = spans.self_times(rec)
    jobs = len(traced_walls)
    calls, self_by = {}, {}
    per_job = [0.0] * jobs
    for i, (name, s) in enumerate(zip(rec.names, self_s)):
        layer = name.split(".", 1)[0]
        for key in (name, layer):
            calls[key] = calls.get(key, 0) + 1
            self_by[key] = self_by.get(key, 0.0) + s
        if rec.jobs[i] >= 0:
            per_job[rec.jobs[i]] += s
    problems = [
        f"traced job {j}: self time {s!r} exceeds wall {traced_walls[j]!r}"
        for j, s in enumerate(per_job)
        if s > traced_walls[j] + SELF_TIME_SLACK
    ]

    def n(name):
        return calls.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    names = [f["name"] for f in _benchmark_spec()["per_layer"]]
    for name in names:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = (n(base) / jobs, "count")
        elif kind == "self_s":
            metrics[name] = (self_by.get(base, 0.0) / jobs, "s")
    steps = n("dynamics.step")
    searches = sum(n(f) for f in SEARCH_FNS)
    levels = sum(
        1
        for i, name in enumerate(rec.names)
        if name == "policy.threshold_policy_for_rate"
        and _ancestors_include(rec, i, SEARCH_FNS)
    )
    traced_total = sum(traced.times)
    metrics.update(
        {
            "optimize.max_utility_policy.calls_per_step": (
                ratio(n("optimize.max_utility_policy"), steps), "ratio"),
            "population.validate_population.calls_per_step": (
                ratio(n("population.validate_population"), steps), "ratio"),
            "optimize.levels_per_search": (
                ratio(levels, searches * GROUPS_PER_SEARCH), "count"),
            "causal.joint_distribution.calls_per_check": (
                ratio(n("causal.joint_distribution"),
                      sum(n(f) for f in CHECK_FNS)), "ratio"),
            "causal.joint_states": (rec.counts["causal.joint_states"] / jobs, "count"),
            "dynamics.bin_steps": (rec.counts["dynamics.bin_steps"] / jobs, "count"),
            "traced_job_s": (traced_total / jobs, "s"),
            "trace_overhead_ratio": (traced_total / sum(plain.times), "ratio"),
        }
    )
    missing = set(names) - set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    metrics = {name: metrics[name] for name in names}
    shares = {
        layer: self_by.get(layer, 0.0) / sum(traced_walls) for layer in spans.LAYERS
    }
    return metrics, plain, traced, problems, shares, rec


def _benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_one(args):
    w, pool, ref = setup(args.workload, args.seed)
    setup_main = setup_time()
    if args.setup_only:
        print(repr(setup_main))
        return 0
    OUT.mkdir(exist_ok=True)
    env = environment()
    if args.trace:
        metrics, plain, traced, problems, shares, rec = per_layer(
            w, pool, ref, args.seed, args.seconds
        )
        logs = (plain, traced)
        extra = {"layer_share": shares, "traced_jobs": len(traced.walls)}
        for layer, share in shares.items():
            print(f"share {layer} {share:.4f}")
        rec.write(OUT / f"spans-{w.name}-seed{args.seed}.tsv")
    else:
        log = timed_phase(w, pool, ref, args.seed, args.seconds)
        metrics, extra = end_to_end(w, log, setup_main)
        setups = [setup_main] + _setup_repeats(w.name, args.seed)
        metrics["setup_s"] = (statistics.median(setups), "s")
        extra["setup_s_runs"] = setups
        logs, problems = (log,), []
    attempted = sum(len(log.walls) for log in logs)
    failed = sum(log.failed for log in logs)
    problems = [p for log in logs for p in log.problems] + problems
    extra["failed_ratio"] = failed / attempted
    for p in problems[:20]:
        print(f"problem {p}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(f"metric failed_ratio {extra['failed_ratio']!r} ratio")
    for key, value in extra.items():
        if key not in ("failed_ratio", "layer_share"):
            print(f"info {key} {value}")
    print("env " + json.dumps(env))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=w.name, seed=args.seed, trace=args.trace,
                  env=env, extra=extra, problems=problems[:100])
    path = OUT / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in a fresh process; prints each metric by name."""
    status = 0
    for name in TAIL_PCT:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name} error: {proc.stderr.strip()}")
            status = 1
            continue
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            if line.startswith(("metric ", "info tail", "info jobs")):
                print(f"{name} {line.split(' ', 1)[1]}")
        print(f"{name} correct {result['correct']}")
        status |= not result["correct"]
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *TAIL_PCT])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
