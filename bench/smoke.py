"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

For every workload of BENCHMARK.json it runs the benchmark command at its
shortest (`--seconds 0`: three untraced rounds of the job list, or two
untraced and two traced), twice with `--trace 0` and twice with `--trace 1`,
each run in a process of its own, and asserts that
  * every metric BENCHMARK.json names is printed, with its unit, in the
    result line (end_to_end untraced, per_layer traced);
  * every job's output passes its check;
  * the busy time of the top-level spans (the `anchored run` jobs) is at
    most the traced round's wall time;
  * the two traced runs agree on every exact counter, and all four runs on
    the determinism digest.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import repeat
import tracing


def check_names(printed: dict, declared: list) -> list[str]:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in printed["metrics"].items()}
    return [f"metric {name}: declared {want.get(name)}, printed {got.get(name)}"
            for name in sorted(set(want) | set(got))
            if want.get(name) != got.get(name)]


def smoke(workload: str, bench: dict) -> list[str]:
    plain = [repeat.run_once(workload, 1, 0, 0) for _ in range(2)]
    traced = [repeat.run_once(workload, 1, 0, 1) for _ in range(2)]
    errors = check_names(plain[0], bench["end_to_end"])
    errors += check_names(traced[0], bench["per_layer"])
    for res in plain + traced:
        if not res["correct"]:
            errors.append(f"{res['failed']} of {res['attempted']} jobs "
                          f"failed or a run-level check failed")
    for res in traced:
        m = {name: x["value"] for name, x in res["metrics"].items()}
        if not m["cli.busy_s"] <= m["trace.wall_s"]:
            errors.append(f"top-level span busy {m['cli.busy_s']} s > traced "
                          f"wall {m['trace.wall_s']} s")
    a, b = ({name: x["value"] for name, x in res["metrics"].items()}
            for res in traced)
    errors += [f"exact counter {name} differs between runs: {a[name]} vs "
               f"{b[name]}" for name in tracing.EXACT if a[name] != b[name]]
    digests = {res["digest"] for res in plain + traced}
    if len(digests) != 1:
        errors.append(f"determinism digest differs between runs: "
                      f"{sorted(digests)}")
    return [f"{workload}: {e}" for e in errors]


def main() -> int:
    bench = json.loads(repeat.BENCHMARK.read_text())
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        found = smoke(workload, bench)
        print(f"{workload}: {'ok' if not found else 'FAILED'}", flush=True)
        errors += found
    for e in errors:
        print(e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
