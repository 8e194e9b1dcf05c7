"""permsel benchmark: closed-loop CLI jobs, timed end to end, outputs checked.

One client runs jobs back to back in a single thread; each job is a few
`permsel` command lines called in-process through `permsel.cli.main`, on
inputs made from the workload seed.  Run it from the repository root:

    python3 perfbench/run.py --workload certify --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each
    python3 perfbench/run.py --self-test           # toy sizes, a few seconds
    python3 perfbench/run.py --write-golden        # re-capture perfbench/reference.json

With --trace 0 it measures the end-to-end metrics for --seconds seconds.
With --trace 1 it runs a fixed number of jobs (set by --seconds) twice, in a
fresh untraced process and then traced in this one, and reports per-layer
metrics and the tracing overhead.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the machine has two cores and the benchmark is a
# single client.  Must be set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracer import PER_LAYER, Tracer
from workloads import SIZES, WORKLOADS, Result, gen_attempts, trace_records

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"

DEFAULT_SEED = 0
GOLDEN_JOBS = {"full": 3, "toy": 2}
SETUP_REPEATS = {"full": 7, "toy": 2}
# Traced runs do a fixed number of jobs, round(seconds * TRACE_JOBS_PER_S),
# so that their counts repeat exactly for a seed.  A 20 s traced run then
# takes about 20 s (untraced plus traced pass) where the benchmark was sized.
TRACE_JOBS_PER_S = 1.0
TAIL_PERCENTILES = (99, 95, 90, 75, 50)

END_TO_END = [
    ("setup_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import permsel.cli; permsel.cli.build_parser()")
UNTRACED_CODE = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import run; "
                 "print(json.dumps(run.run_fixed(sys.argv[3], int(sys.argv[4]), int(sys.argv[5]), sys.argv[6])))")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def environment(seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------

def execute(job) -> Result:
    """Run a job's command lines in-process; the job's time is the sum of
    its `cli.main` calls."""
    from permsel import cli
    res = Result(0.0)
    for argv in job.calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code
            except Exception:  # a crash is a failed job, not a benchmark crash
                code = None
                res.error += traceback.format_exc(limit=-3)
            res.seconds += perf_counter() - t0
        res.codes.append(code)
        res.stdouts.append(out.getvalue())
        res.stderrs.append(err.getvalue())
    return res


def make_job(workload: str, index: int, seed: int, work: Path, profile: str):
    return WORKLOADS[workload][0](index, seed, work, SIZES[profile][workload])


def normalized(job, res: Result, work: Path) -> dict:
    """A job's observable outputs, with the work directory stripped from paths."""
    prefix = f"{work}{os.sep}"
    return {
        "calls": [" ".join(argv).replace(prefix, "") for argv in job.calls],
        "codes": res.codes,
        "stdout": [out.replace(prefix, "") for out in res.stdouts],
        "sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in job.outputs},
    }


def golden_for(workload: str, seed: int, profile: str) -> list:
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return []
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["golden"][profile].get(workload, [])


def check(job, res: Result, work: Path, golden: list) -> list[str]:
    """Problems with a job's outputs; empty when they are correct."""
    if res.error:
        return [f"job {job.index}: {res.error.strip()}"]
    problems = WORKLOADS[job.workload][1](job, res)
    if job.index < len(golden):
        got, want = normalized(job, res, work), golden[job.index]
        problems += [f"{key} differs from the golden value" for key in want if got[key] != want[key]]
    if problems and any(res.stderrs):
        problems.append("stderr: " + " | ".join(e.strip() for e in res.stderrs if e))
    return [f"job {job.index}: {p}" for p in problems]


@contextlib.contextmanager
def work_dir():
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_fixed(workload: str, seed: int, count: int, profile: str) -> tuple[float, list[int], list[str]]:
    """Run jobs 0..count-1 untraced; returns their summed time, the failed
    job indices and the problems.  Traced runs call it in a fresh process."""
    wall, failed, problems = 0.0, [], []
    golden = golden_for(workload, seed, profile)
    with work_dir() as work:
        for i in range(count):
            job = make_job(workload, i, seed, work, profile)
            res = execute(job)
            wall += res.seconds
            found = check(job, res, work, golden)
            if found:
                failed.append(i)
                problems += found
    return wall, failed, problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(times: list[float]) -> tuple[int, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile of
    TAIL_PERCENTILES with at least ten samples beyond it (nearest rank);
    with fewer than 11 samples, the maximum."""
    xs = sorted(times)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p * len(xs) / 100)
        if len(xs) - rank >= 10:
            return p, xs[rank - 1], len(xs) - rank
    return 100, xs[-1], 0


def setup_seconds() -> float:
    """Fresh interpreter to `import permsel` and the CLI parser built, as a
    CLI user pays it on every call."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def measure(workload: str, seed: int, seconds: float, profile: str) -> dict:
    """The end-to-end run: set-up samples, then jobs for `seconds`."""
    setup = statistics.median(setup_seconds() for _ in range(SETUP_REPEATS[profile]))
    jobs, results = [], []
    with work_dir() as work:
        start = perf_counter()
        while not jobs or perf_counter() - start < seconds:
            jobs.append(make_job(workload, len(jobs), seed, work, profile))
            results.append(execute(jobs[-1]))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        golden = golden_for(workload, seed, profile)
        problems = [check(job, res, work, golden) for job, res in zip(jobs, results)]
    times = [r.seconds for r in results]
    pct, tail_s, beyond = tail(times)
    failed = sum(1 for p in problems if p)
    print(f"workload={workload} seed={seed} profile={profile} jobs={len(jobs)} "
          f"failed_share={failed / len(jobs)!r} ({failed}/{len(jobs)})")
    print(f"job_tail_s is p{pct} of {len(jobs)} jobs ({beyond} beyond it); "
          f"setup_s is the median of {SETUP_REPEATS[profile]} fresh processes")
    for p in problems:
        for line in p:
            log(f"FAIL {line}")
    values = {
        "setup_s": setup,
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "jobs_per_s": len(times) / sum(times),
        "peak_rss_mb": peak_rss_mb,
    }
    return {"correct": failed == 0, "attempted": len(jobs), "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}}


def traced(workload: str, seed: int, seconds: float, profile: str) -> dict:
    """The traced run: the same jobs untraced in a fresh process, then traced here."""
    count = 2 if profile == "toy" else max(2, round(seconds * TRACE_JOBS_PER_S))
    proc = subprocess.run(
        [sys.executable, "-c", UNTRACED_CODE, str(BENCH), str(SRC), workload, str(seed), str(count), profile],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
    untraced_wall, failed_before, problems = json.loads(proc.stdout.splitlines()[-1])
    tracer = Tracer()
    jobs, results = [], []
    golden = golden_for(workload, seed, profile)
    failed = set(failed_before)
    bytes_written = 0
    with work_dir() as work:
        tracer.install()
        try:
            for i in range(count):
                jobs.append(make_job(workload, i, seed, work, profile))
                tracer.job = i
                results.append(execute(jobs[-1]))
        finally:
            tracer.uninstall()
        for job, res in zip(jobs, results):
            found = check(job, res, work, golden)
            if found:
                failed.add(job.index)
                problems += found
            bytes_written += sum(len(s.encode()) for s in res.stdouts)
            bytes_written += sum(p.stat().st_size for p in job.outputs if p.exists())
        records = sum(trace_records(job.context["trace"]) for job in jobs if "trace" in job.context)
    traced_wall = sum(r.seconds for r in results)
    metrics = tracer.metrics(bytes_written, traced_wall, untraced_wall, count)
    problems += completeness(tracer, jobs, results, records, traced_wall, untraced_wall)
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.jsonl")
    for group in tracer.absent:
        print(f"{group}: absent (the helper it wraps no longer exists)")
    print(f"workload={workload} seed={seed} profile={profile} traced jobs={count} "
          f"overhead_s={traced_wall - untraced_wall!r}")
    for p in problems:
        log(f"FAIL {p}")
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {"correct": not problems, "attempted": count, "failed": len(failed),
            "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}}


def completeness(tracer: Tracer, jobs, results, records: int, traced_wall: float,
                 untraced_wall: float) -> list[str]:
    """Checks that catch a call that skipped a wrapper."""
    problems = []
    if tracer.step_calls() != records:
        problems.append(f"radio.step calls {tracer.step_calls()} != {records} trace records")
    expected = tracer.counts["build.minsize_draws"]
    for job, res in zip(jobs, results):
        for argv, code, out in zip(job.calls, res.codes, res.stdouts):
            if argv[0] == "gen" and code == 0:
                expected += gen_attempts(out)
            elif argv[0] == "verify" and code in (0, 1):
                expected += 1
    if tracer.calls["selectors.verify"] != expected:
        problems.append(f"verifier calls {tracer.calls['selectors.verify']} != {expected} "
                        "(gen attempts + verify jobs + minsize verifies)")
    negative = [s for s in tracer.spans if s[-1] < 0] + [g for g, v in tracer.self_s.items() if v < 0]
    if negative:
        problems.append(f"negative self times: {negative[:3]}")
    # The self times and the counting hooks cover the timed cli.main calls but
    # for the wrappers' own bookkeeping.  That is tracing overhead; where the
    # measured overhead is lost in host noise, allow 2 us a wrapped call.
    covered = sum(tracer.self_s.values()) + tracer.hook_s
    slack = max(traced_wall - untraced_wall, 2e-6 * sum(tracer.calls.values()))
    if not 0.0 <= traced_wall - covered <= slack:
        problems.append(f"self times and hooks sum to {covered!r} s, traced wall time is "
                        f"{traced_wall!r} s")
    return problems


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def child_run(workload: str, seed: int, seconds: float, trace: int, profile: str) -> tuple[dict | None, str]:
    """Run one workload in a fresh process; returns its result and its other stdout lines."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--profile", profile],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None, "\n".join(lines)
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def run_all(seed: int, seconds: float, trace: int, profile: str) -> int:
    summary, ok = {}, True
    for workload in WORKLOADS:
        result, text = child_run(workload, seed, seconds, trace, profile)
        print(text)
        if result is None:
            print(f"{workload}: run failed")
            ok = False
            continue
        ok = ok and result["correct"]
        for name, m in result["metrics"].items():
            print(f"  {workload:8s} {name:32s} {m['value']!r} {m['unit']}")
        if not trace:
            print(f"  {workload:8s} {'failed_share':32s} {result['failed'] / result['attempted']!r} ratio")
        summary[workload] = result
    print(json.dumps(summary))
    return 0 if ok else 1


def self_test() -> int:
    """Every workload at toy sizes, traced and untraced: each metric of
    BENCHMARK.json present with its unit, and every output check passing."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, text = child_run(workload, DEFAULT_SEED, 1, trace, "toy")
            got = {} if result is None else {n: m["unit"] for n, m in result["metrics"].items()}
            passed = (result is not None and result["correct"] and result["failed"] == 0
                      and result["attempted"] >= 1 and got == wanted[trace])
            ok = ok and passed
            print(f"{'PASS' if passed else 'FAIL'} {workload} trace={trace}")
            if not passed:
                print(text)
                print(f"  metrics differ: {sorted(set(got.items()) ^ set(wanted[trace].items()))}")
    return 0 if ok else 1


def write_golden() -> int:
    """Capture the reference outputs of the default seed from this checkout."""
    reference = {"environment": environment(DEFAULT_SEED), "golden": {}}
    with contextlib.suppress(OSError, subprocess.CalledProcessError):
        reference["environment"]["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, capture_output=True,
            text=True).stdout.strip()
    for profile, count in GOLDEN_JOBS.items():
        reference["golden"][profile] = {}
        for workload in WORKLOADS:
            records = []
            with work_dir() as work:
                for i in range(count):
                    job = make_job(workload, i, DEFAULT_SEED, work, profile)
                    res = execute(job)
                    problems = check(job, res, work, [])
                    if problems:
                        log("\n".join(problems))
                        return 1
                    records.append(normalized(job, res, work))
            reference["golden"][profile][workload] = records
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=tuple(SIZES), default="full")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "permsel" / "__init__.py").is_file():
        log(f"error: no permsel sources at {SRC}; run from a checkout of the repository")
        return 2
    if args.seed < 0 or args.seconds <= 0:
        log("error: --seed must be >= 0 and --seconds > 0")
        return 2
    sys.path.insert(0, str(SRC))
    import permsel
    if not Path(permsel.__file__).resolve().is_relative_to(SRC):
        log(f"error: imported permsel from {permsel.__file__}, not from {SRC}")
        return 2
    if args.self_test:
        return self_test()
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace, args.profile)
    log(json.dumps(environment(args.seed)))
    run = traced if args.trace else measure
    result = run(args.workload, args.seed, args.seconds, args.profile)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
