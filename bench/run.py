"""mmsdist benchmark: one closed-loop client running seeded tasks.

    python3 bench/run.py --workload ensemble|transport|pairs \
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run it from the root of a source tree; the library is imported from
``src/`` next to this directory, never from an installed copy.

``--trace 0`` runs tasks one at a time until ``--seconds`` of task time have
passed and reports the end-to-end metrics.  ``--trace 1`` runs a fixed task
prefix twice, untraced and traced, so that counts repeat exactly, and
reports per-layer metrics derived from the spans.  ``--smoke`` runs one
cycle at tiny sizes: it checks that the harness works and gates no timing.

Outputs are checked after the timed phase (``checks``); on the default seed
every value is also compared with ``reference.json``, recorded from the
seed commit.  The last line of stdout is the JSON result; a fuller record,
and in traced runs the spans, go to ``.bench_out/``.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools before numpy loads: one client, one thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gzip
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import checks
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"

DEFAULT_SEED = 0
SETUPS = 5  # set-up repeats; setup_s is their median
POOL = 60  # tasks whose inputs are built during set-up
TRACE_TASKS = {"ensemble": 40, "transport": 36, "pairs": 32}  # traced prefix, whole cycles
PROBE_NOMINAL_S = 0.010  # the speed probe's typical time on a quiet 2 GHz Xeon vCPU


def probe() -> float:
    """Seconds taken by a fixed mix of integer, dict, rational and small
    array work: the machine's current speed.

    On a shared host the same task can take twice as long from one second
    to the next.  Every timing is therefore also reported scaled by
    ``PROBE_NOMINAL_S / probe time`` with the probes taken right before and
    after it; the probe is benchmark code, so a change to the library
    moves the scaled times exactly as it moves the raw ones.
    """
    t0 = perf_counter()
    acc, seen, frac, arr = 0, {}, Fraction(0), np.arange(16.0)
    for i in range(12000):
        x = (i * 2654435761) & 0xFFFFFFFF
        acc += (x & -x).bit_length() + x.bit_count()
        seen[x & 1023] = acc
        if i % 32 == 0:
            frac += Fraction(x & 255, 7)
            arr = np.minimum(arr, arr[::-1] + 1.0)
    return perf_counter() - t0


def speed_scale(before: float, after: float) -> float:
    return PROBE_NOMINAL_S / ((before + after) / 2.0)


class Lib:
    """The freshly imported library: package, experiments and cli modules."""

    def __init__(self):
        self.M = importlib.import_module("mmsdist")
        self.E = importlib.import_module("mmsdist.experiments")
        self.cli = importlib.import_module("mmsdist.cli")


def import_library() -> Lib:
    """Import mmsdist afresh from ``src/`` (dropping any earlier import)."""
    for name in [m for m in sys.modules if m == "mmsdist" or m.startswith("mmsdist.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = Lib()
    where = Path(lib.M.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"mmsdist was imported from {where}, not from {SRC}")
    return lib


def set_up(workload, seed, smoke, workdir):
    """Import the library, build the first tasks' inputs and write the CLI
    input files.  Returns (seconds, library, task list)."""
    t0 = perf_counter()
    lib = import_library()
    workdir.mkdir(parents=True)
    tasks = workloads.TaskList(lib, workload, seed, str(workdir), smoke)
    for i in range(len(workloads.CYCLES[workload]) if smoke else POOL):
        tasks.get(i)
    return perf_counter() - t0, lib, tasks


def run_task(task):
    """Run one task; returns (output, error, seconds, cpu seconds)."""
    c0, t0 = process_time(), perf_counter()
    try:
        out, err = task.run(), None
    except Exception as exc:  # a failed task is counted, not fatal
        out, err = None, f"{type(exc).__name__}: {exc}"
    return out, err, perf_counter() - t0, process_time() - c0


def check_outputs(done, seed, smoke, workload) -> list:
    """Problems found in (task, output, error) triples, by task index."""
    reference = None
    if seed == DEFAULT_SEED and not smoke:
        reference = json.loads(REFERENCE.read_text())["workloads"][workload]
    failures = []
    for task, out, err in done:
        if err is not None:
            failures.append((task.index, err))
            continue
        try:
            problems = task.check(out)
            if reference is not None and task.index < len(reference):
                kind, want = reference[task.index]
                got = task.values(out)
                if kind != task.kind or len(got) != len(want) or any(
                    abs(g - w) > workloads.TOL for g, w in zip(got, want)
                ):
                    problems.append(f"values {got} differ from the reference {want}")
        except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if problems:
            failures.append((task.index, "; ".join(problems)))
    return failures


def tail(latencies):
    """Latency at the highest percentile with at least ten tasks beyond it:
    the 11th slowest.  Returns (value, percentile, tasks beyond)."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0, 0
    return lat[n - 11], 100.0 * (n - 10) / n, 10


def timed_run(tasks, seconds, smoke, workload):
    """Closed loop, one task in flight, until ``seconds`` of scaled task
    time.  Returns (done, latencies, cpu times, speed scales), one entry
    per task."""
    done, lat, cpu, scale = [], [], [], []
    before = probe()
    i, elapsed = 0, 0.0
    while True:
        task = tasks.get(i)  # inputs past the set-up pool are built here, untimed
        out, err, dt, dc = run_task(task)
        after = probe()
        done.append((task, out, err))
        lat.append(dt)
        cpu.append(dc)
        scale.append(speed_scale(before, after))
        elapsed += dt * scale[-1]
        before = after
        i += 1
        if (i >= len(workloads.CYCLES[workload])) if smoke else (elapsed >= seconds):
            return done, lat, cpu, scale


def traced_run(lib, tasks, count):
    """Run tasks 0..count-1 untraced and traced, alternating which goes
    first.  Returns (done, untraced seconds, traced seconds, tracer)."""
    tracer = tracing.Tracer()
    done, seconds = [], [0.0, 0.0]  # untraced, traced
    before = probe()
    for i in range(count):
        task = tasks.get(i)
        for traced_pass in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_pass:
                tracer.install(lib)
                tracer.task = i
                root = tracer.open("task")
            out, err, dt, _ = run_task(task)
            if traced_pass:
                tracer.close(root)
                tracer.remove()
            after = probe()
            seconds[traced_pass] += dt * speed_scale(before, after)
            before = after
            done.append((task, out, err))
    return done, seconds[0], seconds[1], tracer


def environment() -> dict:
    """What affects steadiness and identifies the code measured."""
    sha = None  # only when ROOT itself is the top of a git work tree
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        lines = proc.stdout.split()
        if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT.resolve():
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "mmsdist").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CYCLES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one cycle at tiny sizes; no timing gate")
    args = parser.parse_args(argv)

    load_before = os.getloadavg()
    workroot = OUT_DIR / f"work-{os.getpid()}"
    try:
        setups, setups_raw = [], []
        before = probe()
        for _ in range(1 if args.smoke else SETUPS):
            if workroot.exists():
                shutil.rmtree(workroot)
            seconds, lib, tasks = set_up(args.workload, args.seed, args.smoke, workroot)
            after = probe()
            setups_raw.append(seconds)
            setups.append(seconds * speed_scale(before, after))
            before = after
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
                  "seconds": args.seconds, "probe_nominal_s": PROBE_NOMINAL_S,
                  "setup_runs_s": setups, "setup_runs_raw_s": setups_raw}
        if args.trace == 0:
            done, raw, raw_cpu, scale = timed_run(tasks, args.seconds, args.smoke, args.workload)
            n = len(done)
            lat = [t * f for t, f in zip(raw, scale)]
            tail_s, tail_pct, beyond = tail(lat)
            failures = check_outputs(done, args.seed, args.smoke, args.workload)
            metrics = {
                "setup_s": metric(statistics.median(setups), "s"),
                "tasks_per_s": metric(n / sum(lat), "1/s"),
                "task_p50_s": metric(statistics.median(lat), "s"),
                "task_tail_s": metric(tail_s, "s"),
                "cpu_s": metric(sum(c * f for c, f in zip(raw_cpu, scale)) / n, "s"),
                "ok_frac": metric(1.0 - len(failures) / n, "ratio"),
                "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            record["tail"] = {"percentile": tail_pct, "tasks_beyond": beyond, "samples": n}  # p50 has n samples too
            record["fail_frac"] = len(failures) / n
            record["raw"] = {
                "setup_s": statistics.median(setups_raw),
                "tasks_per_s": n / sum(raw),
                "task_p50_s": statistics.median(raw),
                "task_tail_s": tail(raw)[0],
                "cpu_s": sum(raw_cpu) / n,
            }
            record["speed_scale"] = {"median": statistics.median(scale), "min": min(scale), "max": max(scale)}
            record["tasks"] = [[t.kind, t.size, dt, f] for (t, _, _), dt, f in zip(done, raw, scale)]
        else:
            count = len(workloads.CYCLES[args.workload]) if args.smoke else TRACE_TASKS[args.workload]
            done, plain, traced, tracer = traced_run(lib, tasks, count)
            n = len(done)
            failures = check_outputs(done, args.seed, args.smoke, args.workload)
            metrics = {name: metric(v, unit) for name, (v, unit) in tracing.per_layer(tracer.spans).items()}
            metrics["trace.overhead_frac"] = metric(traced / plain - 1.0, "ratio")
            metrics["trace.spans"] = metric(len(tracer.spans), "count")
            record["self_time_share"] = tracing.layer_shares(tracer.spans)
            record["untraced_s"], record["traced_s"] = plain, traced
            OUT_DIR.mkdir(exist_ok=True)
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz"
            with gzip.open(spans_path, "wt") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "task", "covered", "extra"],
                           "spans": tracer.spans}, fh)
            record["spans_file"] = str(spans_path.relative_to(ROOT))
    finally:
        if workroot.exists():
            shutil.rmtree(workroot)

    record["failures"] = failures[:20]
    record["env"] = environment()
    record["loadavg_before"], record["loadavg_after"] = load_before, os.getloadavg()
    record["metrics"] = metrics
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for name, m in metrics.items():
        print(f"# {name:44s} {m['value']:.6g} {m['unit']}")
    if "fail_frac" in record:
        print(f"# {'fail_frac':44s} {record['fail_frac']:.6g} ratio")
    details = {k: record[k] for k in ("tail", "raw", "speed_scale", "self_time_share", "setup_runs_s",
                                       "loadavg_before", "loadavg_after", "failures") if k in record}
    print("# " + json.dumps(details))
    print("# " + json.dumps(record["env"]))
    print(json.dumps({"correct": not failures, "attempted": n, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"error: cannot import the library from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
