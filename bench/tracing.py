"""Spans around the public functions of each `anchored` module.

The program's source is not touched: `install` replaces module attributes
under the names their callers look up at call time (for example
`anchored.rl.run_selfplay`, which `search_state` calls), and `uninstall`
puts the originals back.  Each call records a span (name, start, end,
parent, job id) in memory, plus exact work counts read from the call's
arguments or result.  `layer_metrics` turns one round's spans into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict


def _steps(bound, result):
    return {"learners.steps": bound.arguments["iterations"]}


def _bne(bound, result):
    return {"oracle.bne_sweeps": result.iterations,
            "oracle.bne_converged": int(bool(result.converged))}


def _fit(bound, result):
    return {"rating.games": len(bound.arguments["games"]),
            "rating.newton_iters": len(result.ascent_history) - 1}


def _popeval(bound, result):
    return {"popeval.games": bound.arguments["n_games"],
            "popeval.candidate_seats": len(result.candidate_scores)}


# (module, attribute looked up by the caller, span name, work counter).
# One function wrapped at several call sites shares one span name; the span
# name's prefix is the layer.
TARGETS = (
    ("anchored.cli", "load_game", "games.load_game", None),
    ("anchored.cli", "emit_trace", "cli.emit_trace", None),
    ("anchored.cli", "sha256_file", "cli.sha256_file", None),
    ("anchored.cli", "run_selfplay", "learners.run_selfplay",
     _steps),
    ("anchored.rl", "run_selfplay", "learners.run_selfplay",
     _steps),
    ("anchored.popeval", "run_selfplay", "learners.run_selfplay",
     _steps),
    ("anchored.cli", "regularized_regret", "oracle.regularized_regret", None),
    ("anchored.cli", "regularized_exploitability",
     "oracle.regularized_exploitability", None),
    ("anchored.rl", "regularized_exploitability",
     "oracle.regularized_exploitability", None),
    ("anchored.cli", "solve_regularized_bne", "oracle.solve_regularized_bne",
     _bne),
    ("anchored.oracle", "solve_regularized_bne",
     "oracle.solve_regularized_bne", _bne),
    ("anchored.cli", "solve_markov_backward", "oracle.solve_markov_backward",
     None),
    ("anchored.oracle", "stage_game_from_values",
     "oracle.stage_game_from_values", None),
    ("anchored.rl", "train", "rl.train", None),
    ("anchored.rl", "run_episode", "rl.run_episode", None),
    ("anchored.rl", "search_state", "rl.search_state", None),
    ("anchored.rl", "stage_game_from_values", "rl.stage_game_from_values",
     None),
    ("anchored.rl", "nashv_update", "rl.nashv_update", None),
    ("anchored.rl", "evaluate_vs_oracle", "rl.evaluate_vs_oracle", None),
    ("anchored.rating", "read_game_records", "rating.read_game_records", None),
    ("anchored.rating", "fit_ratings", "rating.fit_ratings", _fit),
    ("anchored.popeval", "run_population_eval", "popeval.run_population_eval",
     _popeval),
    ("anchored.popeval", "resolve_agent_policies",
     "popeval.resolve_agent_policies", None),
)


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, job];
    `parent` is the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(int)
        self.job = -1
        self._stack: list[int] = []
        self._saved: list = []
        self.missing: list[str] = []

    def call(self, name, fn, args, kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.job]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, counter):
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                for key, n in counter(bound, result).items():
                    self.counts[key] += n
            return result
        return traced

    def install(self) -> None:
        for module_name, attr, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(int)
        return spans, counts


def write_spans(path, rounds) -> None:
    """Write each traced round's spans as JSON lines."""
    with open(path, "w") as fh:
        for r, spans in enumerate(rounds):
            for i, (name, start, end, parent, job) in enumerate(spans):
                fh.write(json.dumps({"round": r, "id": i, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def span_totals(spans) -> dict:
    """name -> [calls, busy seconds, self seconds].  Self time is a span's
    duration minus the part covered by its child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, start, end, parent, job) in enumerate(spans):
        t = totals[name]
        t[0] += 1
        t[1] += end - start
        t[2] += end - start - child[i]
    return totals


#: Exact counters: equal on every traced round of one workload and seed.
EXACT = ("cli.jobs", "cli.bytes_written", "learners.runs", "learners.steps",
         "rl.episodes", "rl.search_calls", "rl.stage_builds",
         "rl.nashv_calls", "oracle.bne_solves", "oracle.bne_sweeps",
         "oracle.backward_solves", "oracle.stage_builds", "rating.fits",
         "rating.games", "rating.newton_iters", "popeval.evals",
         "popeval.games", "popeval.candidate_seats", "games.loads")


def layer_metrics(spans, counts, bytes_written) -> dict:
    """Per-layer metrics of one traced round (times in seconds unless the
    name says otherwise)."""
    t = span_totals(spans)

    def calls(name):
        return t[name][0] if name in t else 0

    def busy(name):
        return t[name][1] if name in t else 0.0

    def self_s(*names):
        return sum(t[n][2] for n in names if n in t)

    def per(value, base, scale=1.0):
        return value / base * scale if base else 0.0

    rl_names = [n for n in t if n.startswith("rl.")]
    steps = counts.get("learners.steps", 0)
    episodes = calls("rl.run_episode")
    sweeps = counts.get("oracle.bne_sweeps", 0)
    solves = calls("oracle.solve_regularized_bne")
    newton = counts.get("rating.newton_iters", 0)
    games = counts.get("popeval.games", 0)
    return {
        "cli.jobs": calls("cli.main"),
        "cli.busy_s": busy("cli.main"),
        "cli.self_s": self_s("cli.main", "cli.emit_trace", "cli.sha256_file"),
        "cli.emit_busy_s": busy("cli.emit_trace"),
        "cli.hash_busy_s": busy("cli.sha256_file"),
        "cli.bytes_written": bytes_written,
        "learners.runs": calls("learners.run_selfplay"),
        "learners.steps": steps,
        "learners.busy_s": busy("learners.run_selfplay"),
        "learners.us_per_step": per(busy("learners.run_selfplay"), steps, 1e6),
        "rl.episodes": episodes,
        "rl.busy_s": busy("rl.train"),
        "rl.self_s": self_s(*rl_names),
        "rl.ms_per_episode": per(busy("rl.run_episode"), episodes, 1e3),
        "rl.search_calls": calls("rl.search_state"),
        "rl.search_busy_s": busy("rl.search_state"),
        "rl.search_self_s": self_s("rl.search_state"),
        "rl.stage_builds": calls("rl.stage_game_from_values"),
        "rl.stage_busy_s": busy("rl.stage_game_from_values"),
        "rl.nashv_calls": calls("rl.nashv_update"),
        "rl.nashv_busy_s": busy("rl.nashv_update"),
        "rl.eval_busy_s": busy("rl.evaluate_vs_oracle"),
        "oracle.bne_solves": solves,
        "oracle.bne_sweeps": sweeps,
        "oracle.bne_busy_s": busy("oracle.solve_regularized_bne"),
        "oracle.us_per_sweep": per(busy("oracle.solve_regularized_bne"),
                                   sweeps, 1e6),
        "oracle.bne_converged_ratio": per(
            counts.get("oracle.bne_converged", 0), solves),
        "oracle.backward_solves": calls("oracle.solve_markov_backward"),
        "oracle.backward_busy_s": busy("oracle.solve_markov_backward"),
        "oracle.backward_self_s": self_s("oracle.solve_markov_backward"),
        "oracle.stage_builds": calls("oracle.stage_game_from_values"),
        "oracle.stage_busy_s": busy("oracle.stage_game_from_values"),
        "oracle.regret_busy_s": busy("oracle.regularized_regret"),
        "oracle.exploitability_busy_s": busy(
            "oracle.regularized_exploitability"),
        "rating.fits": calls("rating.fit_ratings"),
        "rating.games": counts.get("rating.games", 0),
        "rating.newton_iters": newton,
        "rating.fit_busy_s": busy("rating.fit_ratings"),
        "rating.ms_per_newton_iter": per(busy("rating.fit_ratings"), newton,
                                         1e3),
        "rating.read_busy_s": busy("rating.read_game_records"),
        "popeval.evals": calls("popeval.run_population_eval"),
        "popeval.games": games,
        "popeval.candidate_seats": counts.get("popeval.candidate_seats", 0),
        "popeval.busy_s": busy("popeval.run_population_eval"),
        "popeval.resolve_busy_s": busy("popeval.resolve_agent_policies"),
        "popeval.us_per_game": per(busy("popeval.run_population_eval")
                                   - busy("popeval.resolve_agent_policies"),
                                   games, 1e6),
        "games.loads": calls("games.load_game"),
        "games.load_busy_s": busy("games.load_game"),
    }
