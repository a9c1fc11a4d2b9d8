"""The benchmark's tracer (bench/tracing.py) wraps program functions by name
and reads their arguments and results.  These tests install it against the
current program, so that a rename or a changed signature fails here rather
than silently zeroing a per-layer metric such as `cli.emit_busy_s`,
`rating.read_busy_s`, `rating.games` or, when a search stops calling
`anchored.rl.run_selfplay`, `learners.steps`."""

import json
from pathlib import Path

import numpy as np
import pytest

from anchored.cli import main
from anchored.games import TERMINAL, NormalFormGame
from anchored.learners import TypeDistribution

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    yield tracer
    tracer.uninstall()


def test_tracer_finds_every_target(tracer):
    assert tracer.missing == []


def _run(tmp_path, config) -> None:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0


def test_traced_rate_run_counts_its_games(tracer, tmp_path):
    import tracing

    rng = np.random.default_rng(0)
    n_games, n_seats = 37, 4
    lines = ["game_id,seat_index,player_id,score_share"]
    for g in range(n_games):
        w = rng.uniform(0.1, 1.0, n_seats)
        lines += [f"g{g},{s},p{rng.integers(6)},{x!r}"
                  for s, x in enumerate((w / w.sum()).tolist())]
    games_csv = tmp_path / "games.csv"
    games_csv.write_text("\n".join(lines) + "\n")
    _run(tmp_path, {"kind": "rate", "rate": {"games_csv": str(games_csv)}})
    spans, counts = tracer.take()
    assert counts["rating.games"] == n_games
    metrics = tracing.layer_metrics(spans, counts, 0)
    assert metrics["rating.fits"] == 1 and metrics["rating.newton_iters"] > 0
    assert metrics["rating.read_busy_s"] > 0


def test_traced_solve_run_times_its_trace(tracer, tmp_path):
    import tracing

    _run(tmp_path, {"kind": "solve", "game": {"builtin": "matching_pennies"},
                    "learner": {"iterations": 30}})
    spans, counts = tracer.take()
    metrics = tracing.layer_metrics(spans, counts, 0)
    assert metrics["learners.steps"] == 30
    assert metrics["cli.emit_busy_s"] > 0


def test_traced_rl_run_counts_its_searches(tracer, tmp_path):
    import tracing

    iterations = 16
    _run(tmp_path, {"kind": "rl", "seed": 3,
                    "game": {"random_markov": {"seed": 2, "states": 3, "actions": 2,
                                               "horizon": 2, "zero_sum": True}},
                    "rl": {"types": [0.5], "episodes": 6,
                           "search_iterations": iterations, "checkpoint_every": 3}})
    spans, counts = tracer.take()
    metrics = tracing.layer_metrics(spans, counts, 0)
    searches = metrics["rl.search_calls"]
    assert metrics["learners.runs"] == searches
    assert metrics["learners.steps"] == searches * iterations > 0


def _stage_by_successors(game, s, values) -> np.ndarray:
    """State s's ``(P, *A_s)`` stage payoffs r + gamma * E[V(s')], one joint
    action and one `game.successors` pair at a time; TERMINAL is worth 0."""
    out = np.zeros((game.player_count, *game.action_counts[s]))
    for a in game.joint_actions(s):
        later = sum((p * np.asarray(values[s2]) for s2, p in game.successors(s, a)
                     if s2 != TERMINAL), np.zeros(game.player_count))
        out[(slice(None), *a)] = game.reward(s, a) + game.gamma * later
    return out


def test_rl_references_match_a_successor_loop(tmp_path, monkeypatch):
    """The rl workload's check references, from `workloads.add_references`
    on this package: it iterates `solve_markov_backward`'s values with
    `.items()`, passes `stage_game_from_values` a `{s: vector}` dict of the
    states solved so far and reads `uniform_anchors(game)[(s, 1)]`.  A brbot
    reference is the best response to the uniform opponent; a standard one
    is the regularized equilibrium value of each stage game, and equals
    `solve_markov_backward`'s."""
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    from anchored.cli import load_game
    from anchored.oracle import (solve_markov_backward, solve_regularized_bne,
                                 uniform_anchors)

    jobs = [j for j in workloads.build("rl", 7, tmp_path) if j.check == "rl"]
    workloads.add_references(jobs)
    assert {j.expect["standard"] for j in jobs} == {True, False}
    for job in jobs:
        game = load_game(job.config["game"])
        ref = {s: np.array(v) for s, v in job.expect["reference"].items()}
        assert sorted(ref) == list(range(game.state_count))
        lam = job.config["rl"]["types"][0]
        if job.expect["standard"]:
            anchors = [np.full(n, 1.0 / n) for n in game.action_counts[0]]
            values, _ = solve_markov_backward(game, uniform_anchors(game), [lam, lam])
            assert all(np.array_equal(values[s], ref[s]) for s in ref)
        for s in ref:
            u = _stage_by_successors(game, s, ref)
            if job.expect["standard"]:
                stage = NormalFormGame(game.action_counts[s], tuple(u),
                                       payoff_bound=game.stage_bound, zero_sum=True)
                profile = solve_regularized_bne(
                    stage, anchors, [TypeDistribution.singleton(lam)] * 2)
                v0 = profile.mixture(0) @ u[0] @ profile.mixture(1)
            else:
                v0 = np.max(u[0].mean(axis=1))
            assert np.allclose(ref[s], [v0, -v0], rtol=0, atol=1e-12)
