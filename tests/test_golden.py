"""Golden sha256 digests of `anchored run` artifacts for the run shapes the
per-module golden tests do not cover: rl with oracle metrics, without and
with a top-k restriction, and best response; rl on a ragged game, whose
states have unequal action counts and TERMINAL among other successors;
popeval with a search agent; solve with sampled multi-type feedback and with
adaptive expected feedback.
Any change to a draw order, an update's arithmetic or an artifact's format
changes a digest."""

import hashlib
import json

import numpy as np
import pytest

from anchored.cli import main
from anchored.games import TERMINAL, NormalFormGame, TabularMarkovGame

MARKOV_5 = {"random_markov": {"seed": 3, "states": 5, "actions": 3,
                              "horizon": 3, "zero_sum": True}}
RL = {"types": [0.5], "episodes": 6, "search_iterations": 16,
      "alpha_harmonic": True, "checkpoint_every": 3}
SEARCH_AGENT = {"id": "search", "kind": "search", "types": [0.01, 0.1],
                "act_lambda": 0.01, "search_iterations": 16}
POOL = [{"id": "uniform", "kind": "fixed"},
        {"id": "skewed", "kind": "fixed",
         "policies": [[0.6, 0.3, 0.1], [0.1, 0.3, 0.6], [0.2, 0.2, 0.6]]}]


def _write_popeval_game(path) -> None:
    """Seeded 3-seat, 3-action game with payoffs in [0, 1]."""
    rng = np.random.default_rng(11)
    shape = (3, 3, 3)
    game = NormalFormGame(shape, tuple(rng.uniform(0.0, 1.0, size=shape)
                                       for _ in range(3)), payoff_bound=1.0)
    path.write_text(json.dumps(game.to_dict()))


def _write_ragged_game(path) -> None:
    """Seeded two-player zero-sum game of three layers: per-state action
    counts from 1 to 3 per player, and successors that mix the next layer's
    states with TERMINAL."""
    rng = np.random.default_rng(12)
    counts = [(3, 2), (2, 2), (1, 3), (3, 3), (2, 3), (3, 1)]
    succs = [(1, TERMINAL, 2, 3), (4, TERMINAL), (5, 4), (TERMINAL, 5),
             (TERMINAL,), (TERMINAL,)]
    rewards, probs = [], []
    for n, nxt in zip(counts, succs):
        x = rng.uniform(-1.0, 1.0, size=n)
        rewards.append(np.stack([x, -x]))
        w = rng.uniform(0.05, 1.0, size=(*n, len(nxt)))
        probs.append(w / w.sum(axis=-1, keepdims=True))
    game = TabularMarkovGame(R=tuple(rewards), next_states=tuple(succs), T=tuple(probs),
                             gamma=0.9, horizon=3, zero_sum=True)
    path.write_text(json.dumps(game.to_dict()))


# name -> (config without `out`, {artifact: sha256}).  A callable `game`
# writes the game file the run reads.
GOLDEN = {
    "rl-standard-5": (
        {"kind": "rl", "seed": 4, "game": MARKOV_5, "rl": RL},
        {"metrics.csv":
             "bc65bc580c08ece7afea38f201b2c35f8c978f7585fb7a009de0b4fb9e252551",
         "checkpoint.json":
             "9ee3f6e7203f6210cc9238cd82041802d4f49b2ba48eb4fe13a2bf7abdaacebb"}),
    "rl-npu-top-k": (
        {"kind": "rl", "seed": 5, "game": MARKOV_5,
         "rl": {**RL, "top_k": 2}},
        {"metrics.csv":
             "bf4231d39545022f6ebb7b084a3b597d09483433f0c82bd9b087ee566a531f74",
         "checkpoint.json":
             "507a2811f8246c0b177367364a0f508ef0235839f7b07346783df5b047b0dfe9"}),
    "rl-brbot": (
        {"kind": "rl", "seed": 6, "game": MARKOV_5,
         "rl": {**RL, "preset": "brbot"}},
        {"metrics.csv":
             "f443a647b069327c4fab07e7823c4718f6f8b74dc2e28a023acdffc8de6ad383",
         "checkpoint.json":
             "4c5702fba6b85445a14df82950c47cb3f4f2adb1d96fc1b5a77b4ed617db75f6"}),
    "rl-ragged": (
        {"kind": "rl", "seed": 10, "game": _write_ragged_game,
         "rl": {**RL, "episodes": 8, "checkpoint_every": 4}},
        {"metrics.csv":
             "831ded8969964a7252ae67073f4520ba61f3fd631f37cf781fc98140797fd35c",
         "checkpoint.json":
             "e84468db8cb77c486cad86442ca17cef1d4bf16fd7018a6fa3986dc2b886d47b"}),
    "rl-ragged-top-k": (
        {"kind": "rl", "seed": 11, "game": _write_ragged_game,
         "rl": {**RL, "episodes": 8, "checkpoint_every": 4, "top_k": 2}},
        {"metrics.csv":
             "122c8f920339e57d28457ebf1eee86c3f8d5ec9a2d53922ff7f975172ec0c7f9",
         "checkpoint.json":
             "8f5ed9e8148f2fb380be67c06203cdaf42bd98bba987af71b2454bc24e3e6fb8"}),
    "popeval-search": (
        {"kind": "popeval", "seed": 7, "game": _write_popeval_game,
         "popeval": {"candidate": SEARCH_AGENT, "baselines": POOL,
                     "games": 40}},
        {"popeval_report.json":
             "9d09adb1230a2e52c8efcf68d485172efc2c2b5645b34db6d6aa4ff1f2ed7b96",
         "popeval_games.csv":
             "599424612091616051fd6f7bf3c2e6fa63b5450a7f06ec8d5a7097b8a6abcd77"}),
    "solve-sampled-3-types": (
        {"kind": "solve", "seed": 8,
         "game": {"builtin": "random_zero_sum", "params": {"seed": 2}},
         "learner": {"mode": "sampled", "types": [0.01, 0.1, 1.0],
                     "schedule": {"mode": "constant_eta", "eta": 0.5},
                     "iterations": 200}},
        {"trace.jsonl":
             "811256c169b33a352115fe11cb48e7069fccf50900535536b1b30ef360dcfe29",
         "regret_report.json":
             "aa332fbedd88e35bf3e4817041625edfd04b6d00bc874a9d8b55cad4c8c6e60a"}),
    "solve-adaptive-expected": (
        {"kind": "solve", "seed": 9,
         "game": {"builtin": "matching_pennies"},
         "learner": {"mode": "expected", "types": [0.1],
                     "anchors": [[0.7, 0.3], [0.5, 0.5]],
                     "iterations": 200}},
        {"trace.jsonl":
             "116811ef9bc4f29a45a85a1304b80bf2ff7e158760960b95d387c2c7e51fc5f0",
         "regret_report.json":
             "d9456a8917cf07bca3283b3cf1bcc4d7299b5ace0b1a5031540e8cca99e30b1c"}),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_golden_digest(tmp_path, capsys, name):
    spec, digests = GOLDEN[name]
    spec = dict(spec)
    if callable(spec["game"]):
        spec["game"](tmp_path / "game.json")
        spec["game"] = {"file": str(tmp_path / "game.json")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(spec))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    got = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
           for name in digests}
    assert got == digests
