"""Run the benchmark several times per workload, one seed per run, and
summarise each metric by its median and quartiles.

    python3 bench/repeat.py [--seeds 1-10] [--trace 0] [--out FILE]

The workloads and the run length are those of BENCHMARK.json.

The spread of a metric is (q3 - q1) / median with the quartiles of
`statistics.quantiles(values, n=4)`.  With `--out` the summary, every run's
result and the environment are written as JSON; bench/results/ holds the
committed baselines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = RUN.parent.parent / "BENCHMARK.json"


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    digest = next(line.split()[1] for line in lines
                  if line.startswith("digest "))
    return {"seed": seed, "env": env, "digest": digest,
            **json.loads(lines[-1])}


def summarise(results: list[dict]) -> dict:
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": first["unit"], "median": median, "q1": q1,
                     "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
                     "runs": len(values)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    seconds = bench["run_seconds"]
    doc = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        results = [run_once(workload, s, seconds, args.trace)
                   for s in seeds(args.seeds)]
        summary = summarise(results)
        correct = all(r["correct"] for r in results)
        ok = ok and correct
        doc["workloads"][workload] = {"correct": correct, "summary": summary,
                                      "runs": results}
        print(f"== {workload} correct={correct}")
        for name, s in summary.items():
            print(f"{name:32s} median {s['median']:.6g} {s['unit']} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {s['spread']:.4f}", flush=True)
        for r in results:
            print(f"  seed {r['seed']}: " + " ".join(
                f"{m['value']:.4g}" for m in r["metrics"].values()))
    doc["env"] = results[0]["env"]
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
