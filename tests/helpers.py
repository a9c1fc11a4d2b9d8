"""Helpers shared by the tests: reading an emitted trace back, and the
Markov layer's arrays built from per-state dicts."""

import json
from pathlib import Path

import numpy as np

from anchored.learners import Trace


def read_trace_jsonl(path: Path, type_supports) -> Trace:
    """A trace `emit_trace` wrote; its float columns read "inf" as inf."""
    records = [json.loads(line) for line in path.read_text().splitlines() if line]
    if not records:
        raise ValueError("empty record stream")
    first = records[0]["per_player"]
    trace = Trace([len(p["action_utilities"]) for p in first], type_supports,
                  len(records), first[0]["action"] is not None)
    for t, rec in enumerate(records):
        trace.kappas[t] = rec["kappa"]
        trace.realized[t] = rec["utilities"]
        for i, p in enumerate(rec["per_player"]):
            n = trace.action_counts[i]
            trace.utilities[t, i, :n] = p["action_utilities"]
            for k, lam in enumerate(trace.type_supports[i]):
                trace.policies[t, trace.row_start[i] + k, :n] = \
                    p["policy_by_type"][repr(lam)]
            if trace.actions is not None:
                trace.actions[t, i] = p["action"]
                trace.sampled_lambdas[t, i] = p["sampled_lambda"]
    return trace


def value_array(game, values: dict) -> np.ndarray:
    """A `{state: vector}` dict as the ``(S + 1, P)`` value array, with
    TERMINAL's last row 0."""
    out = np.zeros((game.state_count + 1, game.player_count))
    for s, v in values.items():
        out[s] = v
    return out


def padded_table(game, table: dict) -> np.ndarray:
    """A `{(state, player): vector}` dict as the zero-padded ``(S, P, W)``
    policy or anchor array."""
    out = np.zeros((game.state_count, game.player_count,
                    max(map(max, game.action_counts))))
    for (s, i), v in table.items():
        out[s, i, :len(v)] = v
    return out
