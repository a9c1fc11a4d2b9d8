"""Closed-loop benchmark of `anchored run`.

    python3 bench/run.py --workload <rl|league> --seed <n> --seconds <s>
                         --trace <0|1>

One client, one process, one job at a time: each job is
`anchored.cli.main(["run", <config>, "--out", <dir>])` called in-process, and
the next job starts when the previous one has returned and its output has
been checked.  The workload's job list (see workloads.py) is built from the
seed and repeated in rounds until `--seconds` have passed.  Before the first
round the values the rl jobs are checked against are solved, untimed.

With `--trace 0` the run prints the end-to-end metrics:

    setup_s      median set-up time (import anchored, write the workload's
                 game, config and CSV files) over at least 9 set-ups and
                 3 s of them
    wall_s       time to finish the job list once: the sum, over its jobs,
                 of each job's median latency over the rounds.  A burst of
                 contention from outside that slows one job of a round moves
                 only that job's sample, not the whole round's.
    job_s.p50    median latency of one job, over all rounds
    job_s.tail   latency at the highest percentile that still has 10 jobs
                 beyond it (the 11th slowest), printed with its sample count
    peak_rss_mb  peak resident memory of the process

With `--trace 1` it alternates untraced and traced rounds.  In a traced
round tracing.py wraps the public functions of each module and records a
span per call; the run prints the per-layer metrics (medians over traced
rounds, exact counters must be equal in every traced round) next to the
median traced and untraced round times, and writes the spans to
`.bench_work/spans/<workload>-seed<n>.jsonl`.

Every job's output is checked (workloads.CHECKS).  A job fails on a non-zero
exit code, an exception or a failed check; failures are counted in
`failed`/`attempted` and make `correct` false, as does a round whose
determinism digest (sha256 over the job manifests) differs from the first.
The digest is printed on its own line, so that runs in separate processes
can be compared; the last line of stdout is the JSON result.

Which end-to-end metric each layer should move, and where:
  learners  wall_s, job_s.p50 on rl; a little on league
  cli       wall_s on league (trace writing and hashing of the solve jobs)
  rl        wall_s, job_s.p50 on rl only
  oracle    ~15% of wall_s on rl (backward induction); a little on league
            (regret reports of the solve jobs)
  rating    wall_s, job_s.tail, peak_rss_mb on league
  popeval   wall_s, job_s.p50 on league
  games     setup_s everywhere; wall_s on rl (games built per job)
"""

from __future__ import annotations

import os

# One process and no worker threads, BLAS included.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_MIN_REPEATS = 9
SETUP_SECONDS = 3.0     # set up again until this much time has been spent
MIN_ROUNDS = 3          # untraced rounds in a --trace 0 run
MIN_TRACED_ROUNDS = 2   # exact counters are compared between traced rounds

END_TO_END = {"setup_s": "s", "wall_s": "s", "job_s.p50": "s",
              "job_s.tail": "s", "peak_rss_mb": "MB"}


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if "us_per_" in name:
        return "us"
    if "ms_per_" in name:
        return "ms"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


@dataclass
class Round:
    wall: float = 0.0
    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    digest: str = ""
    bytes_written: int = 0


def import_program():
    """Import `anchored` afresh from the checkout's src/."""
    for name in [m for m in sys.modules
                 if m == "anchored" or m.startswith("anchored.")]:
        del sys.modules[name]
    return importlib.import_module("anchored.cli")


def setup(workload: str, seed: int, work: Path):
    """Set up at least SETUP_MIN_REPEATS times and for SETUP_SECONDS; returns
    the program's cli module, the last job list, the median set-up time and
    the median file-generation time."""
    totals, builds = [], []
    while len(totals) < SETUP_MIN_REPEATS or sum(totals) < SETUP_SECONDS:
        t0 = time.perf_counter()
        cli = import_program()
        t1 = time.perf_counter()
        jobs = workloads.build(workload, seed, work / f"setup{len(totals)}")
        t2 = time.perf_counter()
        totals.append(t2 - t0)
        builds.append(t2 - t1)
    return cli, jobs, statistics.median(totals), statistics.median(builds)


def run_job(cli, args, tracer):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(args)
            else:
                code = tracer.call("cli.main", cli.main, (args,), {})
            error = None if code == 0 else f"exit code {code}"
        except Exception as exc:  # a failed job is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    if error is not None and sink.getvalue().strip():
        error += ": " + sink.getvalue().strip().splitlines()[-1][:200]
    return elapsed, error


def run_round(cli, jobs, out_root: Path, tracer=None) -> Round:
    r = Round()
    digest = hashlib.sha256()
    t0 = time.perf_counter()
    for k, job in enumerate(jobs):
        out = out_root / f"job{k}"
        if tracer is not None:
            tracer.job = k
        elapsed, error = run_job(
            cli, ["run", str(job.path), "--out", str(out)], tracer)
        r.latencies.append(elapsed)
        if error is None:
            try:
                error = workloads.CHECKS[job.check](out, job)
                digest.update((out / "manifest.json").read_bytes())
            except (OSError, ValueError, KeyError, TypeError,
                    IndexError) as exc:
                error = f"output check raised {type(exc).__name__}: {exc}"
        if error is not None:
            r.failures.append(f"job {k} ({job.label}): {error}")
        if out.exists():
            r.bytes_written += sum(f.stat().st_size for f in out.iterdir())
            shutil.rmtree(out)
    r.wall = time.perf_counter() - t0
    r.digest = digest.hexdigest()
    return r


def list_time(rounds) -> float:
    """Time to finish the job list once: the sum over its jobs of each job's
    median latency over `rounds`."""
    return sum(statistics.median(lat) for lat in
               zip(*(r.latencies for r in rounds)))


def tail(latencies):
    """(value, percentile): the 11th slowest job, the highest percentile with
    10 jobs beyond it; the slowest job when there are fewer than 11."""
    xs = sorted(latencies)
    beyond = min(10, len(xs) - 1)
    return xs[len(xs) - 1 - beyond], 100.0 * (len(xs) - beyond) / len(xs)


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": git_sha(), "blas_threads": BLAS_THREADS}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            work: Path) -> dict:
    """Run one benchmark measurement; returns a dict with the result fields
    plus the rounds, environment and spans for reporting.

    A new round starts only while it is expected to end no more than half a
    round past `seconds`, so a run lasts `seconds` on average."""
    cli, jobs, setup_s, build_s = setup(workload, seed, work)
    workloads.add_references(jobs)
    out_root = work / "out"
    rounds, traced = [], []
    tracer = tracing.Tracer() if trace else None
    start = time.perf_counter()
    step = 0.0   # duration of the last round, or pair of rounds
    while True:
        elapsed = time.perf_counter() - start
        enough = (len(traced) >= MIN_TRACED_ROUNDS if trace
                  else len(rounds) >= MIN_ROUNDS)
        if enough and elapsed + step / 2 >= seconds:
            break
        rounds.append(run_round(cli, jobs, out_root))
        if trace:
            tracer.install()
            try:
                r = run_round(cli, jobs, out_root, tracer)
            finally:
                tracer.uninstall()
            traced.append((r, *tracer.take()))
        step = time.perf_counter() - start - elapsed

    every = rounds + [t[0] for t in traced]
    failures = [f"round {i}: {f}" for i, r in enumerate(every)
                for f in r.failures]
    digests = sorted({r.digest for r in every})
    problems = []
    if len(digests) != 1:
        problems.append(f"determinism digest differs between rounds: {digests}")
    attempted = sum(len(r.latencies) for r in every)
    failed = len(failures)

    if trace:
        per_round = [tracing.layer_metrics(spans, counts, r.bytes_written)
                     for r, spans, counts in traced]
        metrics = {}
        for name in per_round[0]:
            values = [m[name] for m in per_round]
            if name in tracing.EXACT:
                if len(set(values)) != 1:
                    problems.append(f"exact counter {name} differs between "
                                    f"traced rounds: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        traced_wall = statistics.median(t[0].wall for t in traced)
        untraced_wall = statistics.median(r.wall for r in rounds)
        metrics.update({
            "games.build_s": build_s,
            "trace.spans": len(traced[0][1]),
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_ratio": traced_wall / untraced_wall - 1.0,
        })
        notes = [f"not traced, attribute not found: {name}"
                 for name in tracer.missing]
        spans = [t[1] for t in traced]
    else:
        latencies = [x for r in rounds for x in r.latencies]
        tail_s, tail_pct = tail(latencies)
        metrics = {
            "setup_s": setup_s,
            "wall_s": list_time(rounds),
            "job_s.p50": statistics.median(latencies),
            "job_s.tail": tail_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes, spans = [], []
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "failures": failures,
        "problems": problems,
        "notes": notes,
        "digest": digests[0] if len(digests) == 1 else None,
        "rounds": len(rounds),
        "round_walls": [r.wall for r in every],
        "traced_rounds": len(traced),
        "samples": sum(len(r.latencies) for r in rounds),
        "tail_pct": None if trace else tail_pct,
        "spans": spans,
        "env": environment(workload, seed),
    }


def report(res: dict) -> None:
    print("env " + json.dumps(res["env"], sort_keys=True))
    print(f"digest {res['digest']} rounds {res['rounds']} "
          f"traced_rounds {res['traced_rounds']}")
    print("round_wall_s " + " ".join(f"{w:.4f}" for w in res["round_walls"]))
    ratio = res["failed"] / res["attempted"]
    print(f"job_fail_ratio {ratio:.6g} ratio ({res['failed']} of "
          f"{res['attempted']} jobs failed)")
    for line in (res["problems"] + res["failures"])[:20]:
        print("FAIL " + line)
    for line in res["notes"]:
        print("NOTE " + line)
    for name, value in res["metrics"].items():
        extra = ""
        if name == "job_s.tail":
            extra = (f" (p{res['tail_pct']:.1f} of {res['samples']} jobs, "
                     f"10 beyond it)")
        print(f"{name} {value:.6g} {unit(name)}{extra}")
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in res["metrics"].items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.JOB_LISTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "anchored" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'anchored'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        res = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if res["spans"]:
        spans_dir = WORK / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracing.write_spans(
            spans_dir / f"{args.workload}-seed{args.seed}.jsonl", res["spans"])
    report(res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
