"""Tests for the config-driven experiment runner and artifact formats."""

import contextlib
import copy
import csv
import io
import json
import math
import re
import unittest.mock
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from anchored import INF, Trace, make_builtin_game, make_random_markov, run_selfplay
from anchored.cli import (
    ConfigError,
    _sub_rng,
    dumps_json,
    format_float,
    list_builtins,
    load_game,
    load_types,
    main,
    parse_lambda,
    run_experiment,
    validate_config,
)
from helpers import read_trace_jsonl


# --------------------------------------------------------------- formats

def test_format_float_round_trips_doubles():
    rng = np.random.default_rng(0)
    for x in list(rng.normal(size=200)) + [1e-300, 1e300, 0.1, 2 / 3]:
        assert float(format(float(x), ".17g")) == float(x)


def test_format_float_special_values():
    assert format_float(math.inf) == '"inf"'
    assert format_float(-math.inf) == '"-inf"'
    assert format_float(math.nan) == '"nan"'


def test_dumps_json_stable_and_parseable():
    doc = {"b": [1.5, 2, None], "a": {"x": True, "y": 1 / 3}}
    s1 = dumps_json(doc, indent=2)
    s2 = dumps_json(doc, indent=2)
    assert s1 == s2
    back = json.loads(s1)
    assert back["a"]["y"] == 1 / 3


def test_parse_lambda():
    assert parse_lambda("inf") == INF
    assert parse_lambda("0.1") == 0.1
    assert parse_lambda(1e-4) == 1e-4


def test_load_types_preset():
    td = load_types({"preset": "diplodocus_high"})
    assert td.lambdas == (1e-2, 1e-1)
    with pytest.raises(ConfigError):
        load_types({"preset": "brbot"})     # no type distribution
    with pytest.raises(ConfigError):
        load_types([])


def test_load_game_variants(tmp_path):
    g = load_game({"builtin": "matching_pennies"})
    assert g.action_counts == (2, 2)
    path = tmp_path / "game.json"
    path.write_text(json.dumps(make_builtin_game("rock_paper_scissors").to_dict()))
    h = load_game({"file": str(path)})
    assert h.action_counts == (3, 3)
    m = load_game({"random_markov": {"seed": 1, "states": 3, "horizon": 2,
                                     "zero_sum": True}})
    assert m.state_count == 3
    with pytest.raises(ConfigError):
        load_game({"builtin": "chess"})
    with pytest.raises(ConfigError):
        load_game({})


# ------------------------------------------------------------ validation

def test_validate_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        validate_config({"kind": "warp"})
    with pytest.raises(ConfigError):
        validate_config({"kind": "solve"})                 # missing game
    with pytest.raises(ConfigError):
        validate_config({"kind": "solve",
                         "game": {"builtin": "matching_pennies"},
                         "seed": -1})
    with pytest.raises(ConfigError):
        validate_config({"kind": "rate", "rate": {}})
    validate_config({"kind": "solve", "game": {"builtin": "matching_pennies"}})


# ------------------------------------------------------------ experiments

def solve_config():
    return {
        "kind": "solve",
        "seed": 5,
        "game": {"builtin": "matching_pennies"},
        "learner": {
            "types": [0.1],
            "schedule": {"mode": "constant_eta", "eta": 0.5},
            "iterations": 50,
        },
    }


def test_run_solve_smoke(tmp_path):
    manifest = run_experiment(solve_config(), out=tmp_path)
    names = {a["path"] for a in manifest["artifacts"]}
    assert names == {"trace.jsonl", "regret_report.json"}
    report = json.loads((tmp_path / "regret_report.json").read_text())
    assert len(report["reports"]) == 2
    for rep in report["reports"]:
        assert rep["regret"] <= rep["bound"]


def test_rerun_is_byte_identical(tmp_path):
    m1 = run_experiment(solve_config(), out=tmp_path / "a")
    m2 = run_experiment(solve_config(), out=tmp_path / "b")
    assert m1["artifacts"] == m2["artifacts"]
    assert ((tmp_path / "a" / "manifest.json").read_bytes()
            == (tmp_path / "b" / "manifest.json").read_bytes())


def test_seed_changes_artifacts(tmp_path):
    m1 = run_experiment(solve_config(), out=tmp_path / "a")
    m2 = run_experiment(solve_config(), seed=99, out=tmp_path / "b")
    assert m1["artifacts"] != m2["artifacts"]


def test_trace_round_trip_replay(tmp_path):
    run_experiment(solve_config(), out=tmp_path)
    trace = read_trace_jsonl(tmp_path / "trace.jsonl", [(0.1,), (0.1,)])
    assert len(trace) == 50
    # The run's Q is the mean of its utilities; serialization must not
    # perturb them beyond float round-trip.
    _, game, (learners, _, iterations) = validate_config(solve_config())
    run_selfplay(game, learners, iterations, rng=_sub_rng(5, 0), record=False)
    for player in range(2):
        np.testing.assert_allclose(trace.utility_matrix(player).mean(axis=0),
                                   learners.q[player], atol=1e-12)


def test_run_oracle_normal_form(tmp_path):
    config = {
        "kind": "oracle",
        "game": {"builtin": "matching_pennies"},
        "oracle": {"types": [1.0], "anchors": [[0.7, 0.3], [0.5, 0.5]]},
    }
    run_experiment(config, out=tmp_path)
    doc = json.loads((tmp_path / "oracle.json").read_text())
    assert doc["exploitability"] < 1e-8
    assert "subtracted" in doc["note"]


def _oracle_json(tmp_path, anchors) -> bytes:
    tmp_path.mkdir()
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps({"kind": "oracle",
                                "game": {"builtin": "matching_pennies"},
                                "oracle": {"types": [0.5], "anchors": anchors}}))
    assert main(["run", str(path), "--out", str(out)]) == 0
    return (out / "oracle.json").read_bytes()


def test_oracle_floors_its_anchors_as_the_learners_do(tmp_path, capsys):
    """An anchor entry of 0 is floored to `ANCHOR_FLOOR`, so the solve takes
    no log of 0, and anchors that differ only by a positive factor solve
    alike, as `Learners` makes them."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        doc = json.loads(_oracle_json(tmp_path / "zero", [[1, 0], [0.5, 0.5]]))
    assert not caught and capsys.readouterr().err == ""
    assert doc["converged"] and doc["mixtures"][0][1] > 0
    assert (_oracle_json(tmp_path / "a", [[2, 2], [1, 3]])
            == _oracle_json(tmp_path / "b", [[0.5, 0.5], [0.25, 0.75]]))


def test_run_oracle_markov(tmp_path):
    config = {
        "kind": "oracle",
        "game": {"random_markov": {"seed": 2, "states": 3, "actions": 2,
                                   "horizon": 2, "zero_sum": True}},
        "oracle": {"types": [0.5]},
    }
    run_experiment(config, out=tmp_path)
    doc = json.loads((tmp_path / "oracle.json").read_text())
    assert set(doc["values"]) == {"0", "1", "2"}
    v0 = doc["values"]["0"]
    assert abs(v0[0] + v0[1]) <= 1e-9


def test_run_rl_smoke(tmp_path):
    config = {
        "kind": "rl",
        "seed": 3,
        "game": {"random_markov": {"seed": 2, "states": 3, "actions": 2,
                                   "horizon": 2, "zero_sum": True}},
        "rl": {"types": [0.5], "episodes": 10, "search_iterations": 32,
               "checkpoint_every": 5},
    }
    manifest = run_experiment(config, out=tmp_path)
    names = {a["path"] for a in manifest["artifacts"]}
    assert names == {"metrics.csv", "checkpoint.json"}
    with open(tmp_path / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["episode"]) for r in rows] == [5, 10]
    assert float(rows[-1]["max_value_error"]) >= 0.0
    ckpt = json.loads((tmp_path / "checkpoint.json").read_text())
    assert set(ckpt) == {"values", "policy_table"}


def rl_config(**rl):
    return {
        "kind": "rl",
        "seed": 3,
        "game": {"random_markov": {"seed": 2, "states": 3, "actions": 2,
                                   "horizon": 2, "zero_sum": True}},
        "rl": {"types": [0.5], "episodes": 6, "search_iterations": 16,
               "checkpoint_every": 3, **rl},
    }


# 8000 visits of one state sink the policy table's entries off the top-k
# action to 5e-324, so KL(oracle || table) has an overflowing p / q.
SUNK_TOP_K = {"kind": "rl", "game": {"random_markov": {
    "seed": 2, "states": 1, "actions": 3, "horizon": 1, "zero_sum": True}},
    "rl": {"types": [0.5], "episodes": 8000, "search_iterations": 1, "top_k": 1,
           "checkpoint_every": 8000}}


def test_sunk_top_k_policy_writes_a_finite_kl(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SUNK_TOP_K))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[-1]["episode"] == "8000"
    assert all(math.isfinite(float(v)) for v in rows[-1].values())
    assert float(rows[-1]["mean_policy_kl"]) > 300    # -0.6 log(5e-324) ~ 447


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_metric_exits_3(tmp_path, capsys, monkeypatch, bad):
    from anchored import rl

    train = rl.train

    def poisoned(*args, **kwargs):
        values, table, metrics = train(*args, **kwargs)
        metrics[-1]["mean_policy_kl"] = bad
        return values, table, metrics
    monkeypatch.setattr(rl, "train", poisoned)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(rl_config()))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "numerical failure: non-finite metric at episode 6" in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_run_rate(tmp_path):
    games_csv = tmp_path / "games.csv"
    with open(games_csv, "w") as fh:
        fh.write("game_id,seat_index,player_id,score_share\n")
        rng = np.random.default_rng(0)
        for g in range(40):
            winner = int(rng.integers(2))
            fh.write(f"g{g:02d},0,alice,{1.0 if winner == 0 else 0.0}\n")
            fh.write(f"g{g:02d},1,bob,{1.0 if winner == 1 else 0.0}\n")
    config = {"kind": "rate", "rate": {"games_csv": str(games_csv)}}
    run_experiment(config, out=tmp_path)
    doc = json.loads((tmp_path / "ratings.json").read_text())
    assert set(doc["players"]) == {"alice", "bob"}
    assert abs(sum(doc["seat_biases"])) <= 1e-9


def test_run_popeval_deterministic(tmp_path):
    config = {
        "kind": "popeval",
        "seed": 9,
        "game": {"builtin": "random_general_sum",
                 "params": {"seed": 1, "actions": [2, 2]}},
        "popeval": {
            "candidate": {"id": "cand", "kind": "fixed",
                          "policies": [[0.5, 0.5], [0.5, 0.5]]},
            "baselines": [{"id": "base"}],
            "games": 30,
        },
    }
    # shift payoffs nonnegative by writing the game to a file
    g = make_builtin_game("random_general_sum", {"seed": 1, "actions": (2, 2)})
    shifted = {
        "players": 2,
        "action_counts": [2, 2],
        "payoffs": [(np.array(u) + 1.0).tolist() for u in g.payoffs],
        "payoff_bound": 2.0,
        "zero_sum": False,
    }
    path = tmp_path / "game.json"
    path.write_text(json.dumps(shifted))
    config["game"] = {"file": str(path)}
    m1 = run_experiment(config, out=tmp_path / "a")
    m2 = run_experiment(config, out=tmp_path / "b")
    assert m1["artifacts"] == m2["artifacts"]
    doc = json.loads((tmp_path / "a" / "popeval_report.json").read_text())
    assert doc["games_played"] == 30
    assert 0.0 <= doc["mean"] <= 1.0


# ------------------------------------------------------------- CLI shell

def test_main_validate_and_run(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg = solve_config()
    cfg["out"] = str(tmp_path / "out")
    cfg_path.write_text(json.dumps(cfg))
    assert main(["validate", str(cfg_path)]) == 0
    assert main(["run", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "trace.jsonl" in out


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == 2
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"kind": "warp"}))
    assert main(["validate", str(invalid)]) == 2
    assert main(["run", str(invalid)]) == 2
    assert main(["run", str(tmp_path / "missing.json")]) == 4
    capsys.readouterr()


@pytest.mark.parametrize("config", [
    {**solve_config(), "learner": {"types": [0.1, 0.1]}},     # duplicate lambdas
    rl_config(checkpoint_every=0),
    # Keys that are not config keys.
    rl_config(search_mode="sampled"),
    rl_config(policy_step=1.5),
    rl_config(preset="brbot", distinguished_player=1),
    rl_config(act_lambda=0.3),                                # no such field
])
def test_main_construction_errors_exit_2(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.count("validation error") == 2


def _markov_file(tmp_path, edit):
    d = make_random_markov(seed=1, state_count=3, player_count=2,
                           actions_per_player=2, horizon=2, gamma=1.0,
                           zero_sum=True).to_dict()
    edit(d)
    return _game_file(tmp_path, json.dumps(d))


def _game_file(tmp_path, text):
    path = tmp_path / "game.json"
    path.write_text(text)
    return {"file": str(path)}


BAD_GAMES = {
    "no states": lambda tmp: {"random_markov": {"seed": 1, "states": 0,
                                                "horizon": 2}},
    "no horizon": lambda tmp: {"random_markov": {"seed": 1, "states": 3}},
    "horizon 1, 5 states": lambda tmp: {"random_markov": {
        "seed": 1, "states": 5, "horizon": 1}},
    "file not JSON": lambda tmp: _game_file(tmp, "{not json"),
    "builtin without seed": lambda tmp: {"builtin": "random_zero_sum"},
    "missing joint action": lambda tmp: _markov_file(
        tmp, lambda d: d["transitions"][0].pop("[1, 1]")),
    "successor out of range": lambda tmp: _markov_file(
        tmp, lambda d: d["transitions"][1].update({"[0, 0]": [[7, 1.0]]})),
    "reward of wrong length": lambda tmp: _markov_file(
        tmp, lambda d: d["rewards"][0]["[0, 1]"].append(0.0)),
    "negative payoff_bound": lambda tmp: _markov_file(
        tmp, lambda d: d.update(payoff_bound=-1.0)),
}


def _nan_reward(d):
    d["rewards"][0]["[0, 1]"][0] = math.nan


# Game files with a number that is not finite: each loaded, and `run` then
# raised from its first draw or wrote NaN.
NON_FINITE_GAMES = {
    "normal-form NaN payoff": ("solve", lambda tmp: _game_file(tmp, json.dumps({
        "players": 2, "action_counts": [2, 2], "payoff_bound": 1,
        "payoffs": [[[math.nan, 0], [0, 1]], [[math.nan, 0], [0, -1]]]}))),
    "normal-form inf payoff_bound": ("solve", lambda tmp: _game_file(
        tmp, json.dumps({**make_builtin_game("matching_pennies").to_dict(),
                         "payoff_bound": math.inf}))),
    "Markov NaN reward": ("rl", lambda tmp: _markov_file(tmp, _nan_reward)),
    "Markov NaN reward and payoff_bound": ("rl", lambda tmp: _markov_file(
        tmp, lambda d: _nan_reward(d) or d.update(payoff_bound=math.nan))),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_GAMES))
def test_main_non_finite_game_exits_2(tmp_path, capsys, name):
    kind, game = NON_FINITE_GAMES[name]
    config = {**(solve_config() if kind == "solve" else rl_config()),
              "game": game(tmp_path)}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("validation error: game.file") == 2
    assert "must be finite" in err and "Traceback" not in err


def _scale_rewards(d, factor):
    for row in d["rewards"]:
        for joint in row:
            row[joint] = [factor * x for x in row[joint]]


@pytest.mark.parametrize("kind", ["oracle", "rl"])
def test_main_rewards_above_payoff_bound_exit_2(tmp_path, capsys, kind):
    """Rewards five times the bound: `validate` printed ok and `run` raised
    from the first stage game it built."""
    game = _markov_file(tmp_path, lambda d: _scale_rewards(d, 5.0))
    config = ({"kind": "oracle", "seed": 1, "game": game} if kind == "oracle"
              else {**rl_config(), "game": game})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("reward magnitude exceeds payoff_bound") == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("name", sorted(BAD_GAMES))
def test_main_game_construction_errors_exit_2(tmp_path, capsys, name):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "oracle", "seed": 1,
                                "game": BAD_GAMES[name](tmp_path)}))
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.count("validation error: game") == 2


# Markov games that `validate` passed and whose `rl` run raised from its first
# episode: an initial state out of range or not an integer, and one player.
BAD_RL_GAMES = {
    **{f"initial_state {x}": lambda tmp, x=x: _markov_file(
        tmp, lambda d: d.update(initial_state=x)) for x in (3, 99, -5, -1, 1.5)},
    "one player": lambda tmp: {"random_markov": {"seed": 1, "states": 3,
                                                 "horizon": 2, "players": 1}},
}


@pytest.mark.parametrize("name", sorted(BAD_RL_GAMES))
def test_main_bad_rl_game_exits_2(tmp_path, capsys, name):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**rl_config(), "game": BAD_RL_GAMES[name](tmp_path)}))
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("validation error: game") == 2 and "Traceback" not in err


def _lead_state_1_to(target):
    """Every joint action at state 1 moves to `target`."""
    def edit(d):
        row = d["transitions"][1]
        for joint in row:
            row[joint] = [[target, 1.0]]
    return edit


def _three_players_zero_sum(d):
    """One state of three players with two actions each, where players 0 and
    1 get 0.5 and -0.5 and player 2 gets 0, flagged zero-sum."""
    joints = [str([a, b, c]) for a in range(2) for b in range(2) for c in range(2)]
    d.update(players=3, states=1, horizon=1, action_counts=[[2, 2, 2]],
             transitions=[{j: [[-1, 1.0]] for j in joints}],
             rewards=[{j: [0.5, -0.5, 0.0] for j in joints}])


#: Edits of the 3-state, horizon-2 game of `_markov_file` (state 0 leads to
#: states 1 and 2, which end the episode) that `validate` passed: a cycle,
#: after which `run` raised from backward induction, and game-file scalars
#: read loosely: `bool("false")` is true and `int(1.5)` is 1.  A zero-sum
#: flag on three players passed too, and action counts of 0 and -1 exited 2
#: with numpy's own text.
MARKOV_MUTATIONS = {
    "cycle": _lead_state_1_to(0),
    "deeper than horizon": _lead_state_1_to(2),
    "zero_sum": lambda d: d.update(zero_sum="false"),
    "horizon": lambda d: d.update(horizon=1.5),
    "action_counts[1]": lambda d: d["action_counts"].__setitem__(1, [2, 1.5]),
    "action_counts[0]": lambda d: d["action_counts"].__setitem__(0, [2, 0]),
    "action_counts[2]": lambda d: d["action_counts"].__setitem__(2, [-1, 2]),
    "players": lambda d: d.update(players=2.0),
    "successor id": _lead_state_1_to(2.0),
    "zero_sum flag requires 2 players": _three_players_zero_sum,
}
#: The same for a normal-form file, whose `players` was never read.
NORMAL_FORM_MUTATIONS = {
    "players": lambda d: d.update(players=3),
    "zero_sum": lambda d: d.update(zero_sum="false"),
    "action_counts[0]": lambda d: d["action_counts"].__setitem__(0, 2.0),
}


@pytest.mark.parametrize("kind", ["oracle", "rl"])
@pytest.mark.parametrize("name", sorted(MARKOV_MUTATIONS))
def test_main_bad_markov_file_exits_2(tmp_path, capsys, name, kind):
    game = _markov_file(tmp_path, MARKOV_MUTATIONS[name])
    config = ({"kind": "oracle", "seed": 1, "game": game} if kind == "oracle"
              else {**rl_config(), "game": game})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("validation error: game.file") == 2 and "Traceback" not in err
    assert err.count(name) == 2


@pytest.mark.parametrize("kind", ["oracle", "solve"])
@pytest.mark.parametrize("name", sorted(NORMAL_FORM_MUTATIONS))
def test_main_bad_normal_form_file_exits_2(tmp_path, capsys, name, kind):
    d = make_builtin_game("matching_pennies").to_dict()
    NORMAL_FORM_MUTATIONS[name](d)
    config = {**(solve_config() if kind == "solve" else
                 {"kind": "oracle", "seed": 1}),
              "game": _game_file(tmp_path, json.dumps(d))}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("validation error: game.file") == 2 and "Traceback" not in err
    assert err.count(name) == 2


def _popeval_config(candidate):
    return {"kind": "popeval", "seed": 1,
            "game": {"builtin": "matching_pennies"},
            "popeval": {"candidate": candidate, "baselines": [{"id": "base"}],
                        "games": 10}}


def _markov_popeval_config(policies):
    fixed = {"id": "cand", "kind": "fixed", "policies": policies}
    return {"kind": "popeval", "seed": 1,
            "game": {"random_markov": {"seed": 1, "states": 3, "horizon": 2,
                                       "zero_sum": True}},
            "popeval": {"candidate": fixed,
                        "baselines": [{**fixed, "id": "base"}], "games": 10}}


# Configs `validate` accepted although `run` could not start them, or
# numbers parsed outside the typed loaders (a traceback, exit 1).
RUN_REJECTS = {
    "anchor with zero mass": {**solve_config(), "learner": {
        **solve_config()["learner"], "anchors": [[0.0, 0.0], [0.5, 0.5]]}},
    "mode typo": {**solve_config(), "learner": {
        **solve_config()["learner"], "mode": "expectd"}},
    "oracle duplicate lambdas": {"kind": "oracle", "seed": 1,
                                 "game": {"builtin": "matching_pennies"},
                                 "oracle": {"types": [0.1, 0.1]}},
    "search agent duplicate lambdas": _popeval_config(
        {"id": "cand", "kind": "search", "types": [0.1, 0.1]}),
    "eta nan": {**solve_config(), "learner": {
        **solve_config()["learner"],
        "schedule": {"mode": "constant_eta", "eta": "nan"}}},
    "top-level iterations": {**solve_config(), "iterations": "abc"},
    "learner iterations": {**solve_config(), "learner": {
        **solve_config()["learner"], "iterations": "abc"}},
    "popeval games": {**_popeval_config({"id": "cand"}), "popeval": {
        **_popeval_config({"id": "cand"})["popeval"], "games": "abc"}},
    # Any existing file: the prior is rejected before the CSV is read.
    "rate sigma_prior": {"kind": "rate", "rate": {"games_csv": __file__,
                                                  "sigma_prior": "abc"}},
    "fixed agent policy of wrong length": _popeval_config(
        {"id": "cand", "kind": "fixed", "policies": [[0.5, 0.5], [1.0]]}),
    "random_markov payoff_bound nan": {
        "kind": "oracle", "seed": 1,
        "game": {"random_markov": {"seed": 1, "states": 3, "horizon": 2,
                                   "zero_sum": True, "payoff_bound": "nan"}}},
    # matching_pennies: sum-of-squares scoring needs nonnegative payoffs.
    "popeval negative payoffs": _popeval_config({"id": "cand"}),
    # A zero-sum Markov game pays one player a negative reward.
    "popeval markov negative rewards": _markov_popeval_config([[0.5, 0.5]] * 2),
    "popeval markov policy of wrong length": _markov_popeval_config(
        [[0.5, 0.5], [0.2, 0.3, 0.5]]),
    # The joint action (0, 0) pays nobody: its game has no score shares.
    "popeval joint action paying nobody": lambda tmp: {
        **_popeval_config({"id": "cand"}), "game": _game_file(tmp, json.dumps(
            {"players": 2, "action_counts": [2, 2], "payoff_bound": 1.0,
             "payoffs": [[[0, 1], [1, 1]], [[0, 1], [1, 1]]]}))},
    "search agent negative act_lambda": lambda tmp: {
        **_popeval_config({"id": "cand", "kind": "search", "act_lambda": -1,
                           "search_iterations": 8}),
        "game": _game_file(tmp, json.dumps(
            {"players": 2, "action_counts": [2, 2], "payoff_bound": 1.0,
             "payoffs": [[[1, 1], [1, 1]], [[1, 1], [1, 1]]]}))},
    # alpha outside [0, 1] drives the values past the game's payoff bound.
    "rl alpha 1.5": rl_config(alpha=1.5),
}


@pytest.mark.parametrize("name", sorted(RUN_REJECTS))
def test_validate_rejects_what_run_rejects(tmp_path, capsys, name):
    config = RUN_REJECTS[name]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config(tmp_path) if callable(config) else config))
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.count("validation error") == 2


def test_main_list_builtins(capsys):
    assert main(["--list-builtins"]) == 0
    out = capsys.readouterr().out
    assert "matching_pennies" in out
    assert "diplodocus_low" in out
    assert "brbot" in out


def test_list_builtins_contents():
    text = list_builtins()
    assert "rock_paper_scissors" in text
    assert "diplodocus_high" in text


@pytest.mark.parametrize("tol", ["abc", -1, 0, "nan", "inf"])
def test_oracle_tol_must_be_finite_and_positive(tmp_path, capsys, tol):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "oracle", "seed": 1,
                                "game": {"builtin": "matching_pennies"},
                                "oracle": {"tol": tol}}))
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.count("validation error: oracle.tol") == 2


def _rate_config(tmp_path, **rate):
    games_csv = tmp_path / "games.csv"
    games_csv.write_text("game_id,seat_index,player_id,score_share\n"
                         "g0,0,alice,1.0\ng0,1,bob,0.0\n")
    return {"kind": "rate", "rate": {"games_csv": str(games_csv), **rate}}


def test_rate_sigma_prior_is_honoured(tmp_path):
    a = run_experiment(_rate_config(tmp_path, sigma_prior=100.0), out=tmp_path / "a")
    b = run_experiment(_rate_config(tmp_path, sigma_prior="100"), out=tmp_path / "b")
    c = run_experiment(_rate_config(tmp_path), out=tmp_path / "c")
    assert a["artifacts"] == b["artifacts"] != c["artifacts"]


def test_rl_seed_reaches_training(tmp_path):
    a = run_experiment(rl_config(), seed=4, out=tmp_path / "a")
    b = run_experiment({**rl_config(), "seed": 4}, out=tmp_path / "b")
    c = run_experiment(rl_config(), out=tmp_path / "c")
    assert a["artifacts"] == b["artifacts"] != c["artifacts"]


def test_brbot_preset_is_best_response_mode(tmp_path, capsys):
    """The `brbot` preset is the one spelling of best response: `rl.mode` is
    no config key."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(rl_config(mode="best_response")))
    assert main(["run", str(path), "--out", str(tmp_path / "b")]) == 2
    assert "validation error: rl.mode: unknown key" in capsys.readouterr().err
    a = run_experiment(rl_config(preset="brbot"), out=tmp_path / "a")
    c = run_experiment(rl_config(), out=tmp_path / "c")
    assert a["artifacts"] != c["artifacts"]


@pytest.mark.parametrize("preset, act_lambda", [("diplodocus_low", 1e-4),
                                                ("diplodocus_high", 1e-2)])
def test_preset_search_agent_acts_at_preset_act_lambda(tmp_path, preset,
                                                       act_lambda):
    """A search agent whose types are a preset acts at the preset's
    act_lambda unless it gives its own; one with listed types acts at 0."""
    game = tmp_path / "game.json"
    game.write_text(json.dumps({
        "players": 2, "action_counts": [2, 2], "payoff_bound": 2.0,
        "payoffs": [[[1, 2], [0.5, 1]], [[1, 0.5], [2, 1]]]}))

    def config(**agent):
        return {**_popeval_config({"id": "cand", "kind": "search",
                                   "types": {"preset": preset},
                                   "search_iterations": 8, **agent}),
                "game": {"file": str(game)}}

    acts = [validate_config(c)[2][0].act_lambda
            for c in (config(), config(act_lambda=0.5), config(types=[0.1]))]
    assert acts == [act_lambda, 0.5, 0.0]
    implied = run_experiment(config(), out=tmp_path / "a")
    given = run_experiment(config(act_lambda=act_lambda), out=tmp_path / "b")
    assert implied["artifacts"] == given["artifacts"]


def test_run_builds_the_game_and_reads_the_games_once(tmp_path, monkeypatch):
    import anchored.cli as cli
    from anchored import rating

    calls = []
    for module, name in ((cli, "load_game"), (rating, "read_game_records")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    run_experiment(rl_config(), out=tmp_path / "rl")
    run_experiment(_rate_config(tmp_path), out=tmp_path / "rate")
    assert calls == ["load_game", "read_game_records"]


GAMES_CSV_HEADER = "game_id,seat_index,player_id,score_share\n"

# Games CSVs that `validate` accepted and `run` failed on with a traceback
# (exit 1) or a failed line search (exit 3).
MALFORMED_GAMES_CSV = {
    "short row": GAMES_CSV_HEADER + "g0,0,a,0.5\ng0,1,b\n",
    "shares sum to 1.4": GAMES_CSV_HEADER + "g0,0,a,0.7\ng0,1,b,0.7\n",
    "no game_id column": "seat_index,player_id,score_share\n0,a,0.5\n1,b,0.5\n",
    "mixed seat counts": GAMES_CSV_HEADER + "g0,0,a,0.5\ng0,1,b,0.5\n"
                         "g1,0,a,0.4\ng1,1,b,0.3\ng1,2,c,0.3\n",
    "header only": GAMES_CSV_HEADER,
    "nan share": GAMES_CSV_HEADER + "g0,0,a,nan\ng0,1,b,0.5\n",
    "unclosed quote": GAMES_CSV_HEADER + 'g0,0,"a' + "x" * 200000 + "\n",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_GAMES_CSV))
def test_malformed_games_csv_exits_2(tmp_path, capsys, name):
    games_csv = tmp_path / "games.csv"
    games_csv.write_text(MALFORMED_GAMES_CSV[name])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "rate",
                                "rate": {"games_csv": str(games_csv)}}))
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.count(
        "validation error: rate.games_csv") == 2


# Bad games CSVs and where the error says the fault is.
GAMES_CSV_FAULTS = {
    "short row": (GAMES_CSV_HEADER + "g0,0,a,0.5\n\ng0,1,b\n", "line 4: short row"),
    "short row after 6000 rows": (
        GAMES_CSV_HEADER + "".join(f"g{k},{k % 2},a,0.5\n" for k in range(6000))
        + "g0,0,a\n", "line 6002: short row"),
    "short row, game_id last": ("seat_index,player_id,score_share,game_id\n"
                                "0,a,0.5,g0\n1,b,0.5\n", "line 3: short row"),
    "seat_index not an integer": (GAMES_CSV_HEADER + "g0,0,a,0.5\ng0,1.0,b,0.5\n",
                                  "line 3: invalid literal for int() with base 10: '1.0'"),
    "seat_index beyond int64": (
        GAMES_CSV_HEADER + "g0,0,a,0.5\ng0,99999999999999999999,b,0.5\n",
        "line 3: int too big to convert"),
    "share not a number": (GAMES_CSV_HEADER + "g0,0,a,half\ng0,1,b,0.5\n",
                           "line 2: could not convert string to float: 'half'"),
    "nan share": (GAMES_CSV_HEADER + "g0,0,a,0.5\ng0,1,b,nan\n",
                  "game 'g0': shares must be nonnegative and sum to 1"),
    "unequal seat counts": (GAMES_CSV_HEADER + "g0,0,a,0.5\ng0,1,b,0.5\n"
                            "g1,0,a,0.4\ng1,1,b,0.3\ng1,2,c,0.3\n",
                            "game 'g1' has 3 seats, game 'g0' 2"),
    "shares sum to 1.4": (GAMES_CSV_HEADER + "g0,0,a,0.5\ng0,1,b,0.5\n"
                          "g9,0,a,0.7\ng9,1,b,0.7\n",
                          "game 'g9': shares must be nonnegative and sum to 1"),
    "negative share": (GAMES_CSV_HEADER + "g0,0,a,1.5\ng0,1,b,-0.5\n",
                       "game 'g0': shares must be nonnegative and sum to 1"),
    "no score_share column": ("game_id,seat_index,player_id\ng0,0,a\ng0,1,b\n",
                              "ValueError('header: no score_share column')"),
    "empty file": ("", "ValueError('header: no game_id column')"),
}


@pytest.mark.parametrize("name", sorted(GAMES_CSV_FAULTS))
def test_games_csv_fault_is_named(tmp_path, capsys, name):
    text, where = GAMES_CSV_FAULTS[name]
    games_csv = tmp_path / "games.csv"
    games_csv.write_text(text)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "rate", "rate": {"games_csv": str(games_csv)}}))
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("validation error: rate.games_csv") == 2
    assert err.count(where) == 2 and "Traceback" not in err


def test_unreadable_games_csv_exits_4(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "rate",
                                "rate": {"games_csv": str(tmp_path)}}))
    assert main(["validate", str(path)]) == 4
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err.count("I/O error") == 2


@pytest.mark.parametrize("agent", [{"id": "cand"}, {"id": "cand", "kind": "fixed"},
                                   {"id": "cand", "kind": "search",
                                    "anchors": [[0.5, 0.5], [0.5, 0.5]]}])
def test_popeval_markov_needs_fixed_policies(tmp_path, capsys, agent):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "kind": "popeval", "seed": 1,
        "game": {"random_markov": {"seed": 1, "states": 3, "horizon": 2}},
        "popeval": {"candidate": agent, "baselines": [{"id": "base"}],
                    "games": 10}}))
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.count(
        "validation error: agent 'cand': a Markov game needs a fixed agent") == 2


def _two_by_two_popeval(tmp_path, payoffs, bound, games=200, seed=1):
    game = _game_file(tmp_path, json.dumps({"players": 2, "action_counts": [2, 2],
                                            "payoff_bound": bound, "payoffs": payoffs}))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "kind": "popeval", "seed": seed, "game": game,
        "popeval": {"candidate": {"id": "cand", "kind": "fixed",
                                  "policies": [[0.3, 0.7], [0.6, 0.4]]},
                    "baselines": [{"id": "base"}], "games": games}}))
    return path


@pytest.mark.parametrize("seed", [1, 3, 5, 6])
def test_popeval_single_game_exits_2(tmp_path, capsys, seed):
    # One game can seat the candidate once, and one score has no standard
    # error; at these seeds it does.
    path = _two_by_two_popeval(tmp_path, [[[1, 2], [0, 1]], [[1, 0], [2, 1]]], 2.0,
                               games=1, seed=seed)
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("validation error: popeval.games") == 2 and "Traceback" not in err


@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_popeval_scores_huge_and_tiny_outcomes(tmp_path, capsys, scale):
    # The squares of these outcomes overflow or underflow; the shares do not.
    payoffs = (scale * np.array([[[1.0, 2.0], [0.5, 1.0]], [[1.0, 0.5], [2.0, 1.0]]])).tolist()
    path = _two_by_two_popeval(tmp_path, payoffs, 2 * scale)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["validate", str(path)]) == 0
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert not caught and "Traceback" not in capsys.readouterr().err
    with open(tmp_path / "out" / "popeval_games.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    shares = np.sort(np.array([float(r["score"]) for r in rows]).reshape(-1, 2))
    # Outcomes (1, 1) and (2, 0.5) in units of `scale` score (1/2, 1/2) and
    # (16/17, 1/17).
    assert all(np.allclose(r, [0.5, 0.5]) or np.allclose(r, [1 / 17, 16 / 17])
               for r in shares)


def test_dumps_json_rejects_nan():
    assert dumps_json({"a": [1.0, math.inf]}) == '{"a": [1,"inf"]}'
    for doc in (math.nan, [0.5, np.float64("nan")], {"x": {"y": -math.nan}}):
        with pytest.raises(FloatingPointError):
            dumps_json(doc)


def test_nan_regret_exits_3(tmp_path, capsys):
    # A subnormal lambda overflows u / lambda, and the regret comes out NaN.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "kind": "solve", "game": {"builtin": "matching_pennies"},
        "learner": {"iterations": 5, "mode": "sampled", "types": [1e-320]}}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "numerical failure: NaN in an artifact" in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.json").exists()


def _scaled_game_file(tmp_path, scale, markov: bool) -> dict:
    """A `game` section naming the fuzz tests' Markov or normal-form game
    file, its payoffs and bound times `scale`."""
    if markov:
        d = make_random_markov(seed=1, state_count=3, player_count=2,
                               actions_per_player=2, horizon=2, gamma=1.0,
                               zero_sum=True).to_dict()
        _scale_rewards(d, scale)
    else:
        d = make_builtin_game("random_zero_sum", {"seed": 3, "actions": [3, 3]}).to_dict()
        d["payoffs"] = (scale * np.array(d["payoffs"])).tolist()
    d["payoff_bound"] *= scale
    path = tmp_path / "game.json"
    path.write_text(json.dumps(d))
    return {"file": str(path)}


#: Runs whose arithmetic overflows and that exit 3: pinned examples of the
#: fuzz tests below, a scale between them, and `test_nan_regret_exits_3`'s.
OVERFLOWING_RUNS = {
    "solve x 1e308": lambda tmp: {"kind": "solve", "seed": 1, "learner": {
        "iterations": 20}, "game": _scaled_game_file(tmp, 1e308, False)},
    "solve x 1.3e307": lambda tmp: {"kind": "solve", "seed": 1, "learner": {
        "iterations": 20}, "game": _scaled_game_file(tmp, 1.3022877078497826e307,
                                                     False)},
    "markov oracle x 1e200": lambda tmp: {
        "kind": "oracle", "seed": 1, "game": _scaled_game_file(tmp, 1e200, True)},
    "subnormal lambda": lambda tmp: {
        "kind": "solve", "game": {"builtin": "matching_pennies"},
        "learner": {"iterations": 5, "mode": "sampled", "types": [1e-320]}},
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_RUNS))
def test_overflowing_run_exits_3_without_numpy_warnings(tmp_path, capsys, name):
    """The run reports its numerical failure once, in its own message."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(OVERFLOWING_RUNS[name](tmp_path)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 3 and "numerical failure" in capsys.readouterr().err
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'\xff\xfe{"kind": "rate"}')
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.count(
        "validation error: config is not valid UTF-8 JSON: 'utf-8' codec") == 2


def _scorable_popeval(tmp, games):
    game_file = tmp / "game.json"
    game_file.write_text(json.dumps({
        "players": 2, "action_counts": [2, 2], "payoff_bound": 2.0,
        "payoffs": [[[1, 2], [0.5, 1]], [[1, 0.5], [2, 1]]]}))
    config = _popeval_config({"id": "cand"})
    return {**config, "game": {"file": str(game_file)},
            "popeval": {**config["popeval"], "games": games}}


#: Runs whose first large array is bigger than the address space but within
#: numpy's byte limit (an exbibyte, 2**60 bytes), so that nothing is
#: allocated: the allocation raises MemoryError.
UNALLOCATABLE_RUNS = {
    "solve 2**56 steps": lambda tmp: _solve(iterations=2 ** 56),
    "popeval 2**56 games": lambda tmp: _scorable_popeval(tmp, 2 ** 56),
}


@pytest.mark.parametrize("name", sorted(UNALLOCATABLE_RUNS))
def test_unallocatable_run_exits_3(tmp_path, capsys, name):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(UNALLOCATABLE_RUNS[name](tmp_path)))
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: out of memory: ") and err.count("\n") == 1


#: Runs whose largest array has more bytes than numpy can address
#: (`np.iinfo(np.intp).max`, 2**63 - 1), by the key that sizes it.  A
#: matching-pennies step records 2 policy rows of 2 actions, 32 bytes.
UNADDRESSABLE_RUNS = {
    "learner.iterations": lambda tmp: _solve(iterations=2 ** 62),
    "popeval.games": lambda tmp: _scorable_popeval(tmp, 2 ** 62),
}


@pytest.mark.parametrize("key", sorted(UNADDRESSABLE_RUNS))
def test_unaddressable_run_exits_2_naming_the_key(tmp_path, capsys, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(UNADDRESSABLE_RUNS[key](tmp_path)))
    out = str(tmp_path / "out")
    for argv in (["validate", str(path)], ["run", str(path), "--out", out]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: {key}: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_addressable_limit_is_numpys(tmp_path):
    """2**58 - 1 matching-pennies steps need 2**63 - 32 trace bytes, within
    numpy's limit; 2**58 steps need 2**63, past it."""
    for iterations, code in ((2 ** 58 - 1, 0), (2 ** 58, 2)):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_solve(iterations=iterations)))
        assert main(["validate", str(path)]) == code


def test_trace_round_trip_with_infinite_lambda(tmp_path):
    from anchored import Learners, TemperatureSchedule, TypeDistribution, \
        run_selfplay, uniform_policy
    from anchored.cli import emit_trace

    types = TypeDistribution.uniform([0.1, INF])
    sched = TemperatureSchedule(mode="constant_eta", eta=0.5)
    learners = Learners([uniform_policy(2)] * 2, [types] * 2, sched)
    trace = run_selfplay(make_builtin_game("matching_pennies"), learners, 40,
                         rng=np.random.default_rng(3))
    emit_trace(trace, tmp_path / "trace.jsonl")
    back = read_trace_jsonl(tmp_path / "trace.jsonl", [types.lambdas] * 2)
    assert np.isinf(trace.sampled_lambdas).any()
    for column in ("kappas", "realized", "utilities", "policies", "actions",
                   "sampled_lambdas"):
        np.testing.assert_array_equal(getattr(back, column), getattr(trace, column))


def reference_records(trace):
    """The dict records `Trace.records()` yielded (1-based t) before
    `emit_trace` wrote the columns itself."""
    kappas, realized = trace.kappas.tolist(), trace.realized.tolist()
    utilities, policies = trace.utilities.tolist(), trace.policies.tolist()
    unsampled = [[None] * trace.n_players] * len(trace)
    actions = unsampled if trace.actions is None else trace.actions.tolist()
    lams = (unsampled if trace.sampled_lambdas is None
            else trace.sampled_lambdas.tolist())
    for t in range(len(trace)):
        yield {
            "t": t + 1,
            "kappa": kappas[t],
            "per_player": [
                {
                    "sampled_lambda": lams[t][i],
                    "action": actions[t][i],
                    "policy_by_type": {
                        repr(lam): policies[t][trace.row_start[i] + k][:n]
                        for k, lam in enumerate(trace.type_supports[i])
                    },
                    "action_utilities": utilities[t][i][:n],
                }
                for i, n in enumerate(trace.action_counts)
            ],
            "utilities": realized[t],
        }


def reference_emit(trace, path):
    """The writer `emit_trace` replaced: each record through `dumps_json`."""
    with open(path, "w") as fh:
        fh.writelines(dumps_json(rec) + "\n" for rec in reference_records(trace))


#: Finite doubles the writer must format as `format_float` does, and inf.
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-300, 0.1, 1 / 3,
                  1.0, 2.0 ** 53, 1e16, 1e17, 123456789.0, -1e300,
                  1.7976931348623157e308, INF, -INF]


@st.composite
def random_traces(draw):
    """A `Trace` of 2-3 players with unequal action counts, mixed supports
    that may hold lambda = 0 and lambda = inf, sampled or expected feedback,
    and columns of arbitrary doubles (inf included) around a block size."""
    n_players = draw(st.integers(2, 3))
    counts = draw(st.lists(st.integers(1, 4), min_size=n_players, max_size=n_players))
    supports = [tuple(sorted(draw(st.sets(st.sampled_from([0.0, 1e-4, 0.1, 1.0, INF]),
                                          min_size=1, max_size=3))))
                for _ in range(n_players)]
    block = draw(st.integers(1, 5))
    steps = draw(st.sampled_from([1, block - 1, block, block + 1, 2 * block + 1]) |
                 st.integers(1, 12)) or 1
    trace = Trace(counts, supports, steps, draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def fill(a):
        a[...] = rng.normal(size=a.shape) * 10.0 ** rng.integers(-300, 300, a.shape)
        special = rng.random(a.shape) < 0.2
        a[special] = rng.choice(SPECIAL_FLOATS, size=special.sum())
    for column in (trace.kappas, trace.realized, trace.utilities, trace.policies):
        fill(column)
    if trace.actions is not None:
        fill(trace.sampled_lambdas)
        trace.actions[...] = rng.integers(0, max(counts), trace.actions.shape)
    return trace, block


@settings(max_examples=150, deadline=None)
@given(random_traces())
def test_emit_trace_matches_reference_writer(tmp_path_factory, case):
    import anchored.cli as cli

    trace, block = case
    out = tmp_path_factory.mktemp("trace")
    reference_emit(trace, out / "want.jsonl")
    with unittest.mock.patch.object(cli, "TRACE_BLOCK", block):
        cli.emit_trace(trace, out / "got.jsonl")
    assert (out / "got.jsonl").read_bytes() == (out / "want.jsonl").read_bytes()


@pytest.mark.parametrize("steps", [1, 1023, 1024, 1025, 2049])
@pytest.mark.parametrize("mode", ["sampled", "expected"])
def test_emit_trace_of_selfplay_matches_reference_writer(tmp_path, steps, mode):
    """Around the real block size, with a lambda = 0 and lambda = inf type;
    the file reads back column for column."""
    from anchored import Learners, TemperatureSchedule, TypeDistribution, run_selfplay
    from anchored.cli import TRACE_BLOCK, emit_trace

    assert TRACE_BLOCK == 1024
    game = make_builtin_game("random_zero_sum", {"seed": 5, "actions": [2, 3]})
    types = [TypeDistribution.uniform([0.0, 0.1, INF]), TypeDistribution.singleton(0.5)]
    learners = Learners([[0.6, 0.4], [0.2, 0.3, 0.5]], types,
                        TemperatureSchedule(mode="constant_eta", eta=0.5))
    trace = run_selfplay(game, learners, steps,
                         rng=np.random.default_rng(4) if mode == "sampled" else None)
    reference_emit(trace, tmp_path / "want.jsonl")
    emit_trace(trace, tmp_path / "got.jsonl")
    assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
    back = read_trace_jsonl(tmp_path / "got.jsonl", [td.lambdas for td in types])
    for column in ("kappas", "realized", "utilities", "policies", "actions",
                   "sampled_lambdas"):
        a, b = getattr(back, column), getattr(trace, column)
        assert (a is None and b is None) or np.array_equal(a, b)


@pytest.mark.parametrize("column", ["kappas", "realized", "utilities", "policies",
                                    "sampled_lambdas"])
@pytest.mark.parametrize("step", [0, 1023, 1024, 1499])
def test_emit_trace_rejects_nan(tmp_path, column, step):
    from anchored.cli import emit_trace

    trace = Trace([2, 3], [(0.1, INF), (0.0,)], 1500, True)
    getattr(trace, column)[step, -1, ...] = math.nan
    for write in (emit_trace, reference_emit):
        with pytest.raises(FloatingPointError, match="NaN in an artifact"):
            write(trace, tmp_path / "trace.jsonl")


def test_solve_with_nan_iterate_exits_3(tmp_path, capsys):
    """An expected-feedback iterate that overflows to NaN reaches only the
    trace, whose writer stops the run."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "kind": "solve", "game": {"builtin": "random_zero_sum", "params": {"seed": 0}},
        "learner": {"iterations": 20, "mode": "expected", "types": [1e-320],
                    "schedule": {"mode": "constant_eta", "eta": 1e308}}}))
    with np.errstate(all="ignore"):
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "numerical failure: NaN in an artifact" in capsys.readouterr().err
    assert not (tmp_path / "out" / "regret_report.json").exists()
    assert not (tmp_path / "out" / "trace.jsonl").exists()


INF_ANCHORS = {"matching_pennies": None,
               "rock_paper_scissors": [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]}


@pytest.mark.parametrize("builtin", sorted(INF_ANCHORS))
def test_run_solve_with_infinite_lambda(tmp_path, capsys, builtin):
    """A lambda = inf type plays its anchor: its regret is 0 up to rounding,
    and its rho terms and bound follow `regret_bound`: 0 where
    KL(uniform || anchor) is 0, infinite where it is not."""
    learner = {"types": [0.1, "inf"], "iterations": 50,
               "schedule": {"mode": "constant_eta", "eta": 0.5}}
    if INF_ANCHORS[builtin]:
        learner["anchors"] = INF_ANCHORS[builtin]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "solve", "game": {"builtin": builtin},
                                "learner": learner}))
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    reports = json.loads((tmp_path / "out" / "regret_report.json").read_text())
    skewed = INF_ANCHORS[builtin] is not None
    for rep in reports["reports"]:
        if rep["lambda"] != "inf":
            assert all(isinstance(rep[k], (int, float)) for k in
                       ("regret", "bound", "min_term", "rho_kl", "rho_signed"))
            continue
        assert abs(rep["regret"]) <= 1e-12
        assert rep["min_term"] == 0
        if skewed:
            assert (rep["rho_kl"], rep["rho_signed"], rep["bound"]) == \
                ("inf", "-inf", "inf")
        else:
            assert rep["rho_kl"] == rep["rho_signed"] == 0
            assert rep["bound"] == pytest.approx(math.log(2) / 0.5)


def test_run_solve_with_zero_lambda(tmp_path, capsys):
    """A lambda = 0 type is plain hedge: its comparator is T * max Q-bar with
    no KL, its min term (U^2/4) * T * eta, and it has no rho terms."""
    iterations, eta = 50, 0.5
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "kind": "solve", "game": {"builtin": "rock_paper_scissors"},
        "learner": {"types": [0.0], "iterations": iterations,
                    "schedule": {"mode": "constant_eta", "eta": eta}}}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    reports = json.loads((tmp_path / "out" / "regret_report.json").read_text())["reports"]
    steps = [json.loads(line) for line in
             (tmp_path / "out" / "trace.jsonl").read_text().splitlines()]
    assert [rep["player"] for rep in reports] == [0, 1] and len(steps) == iterations
    for rep in reports:
        assert rep["lambda"] == 0 and rep["iterations"] == iterations
        assert rep["min_term"] == pytest.approx(1.0 / 4 * iterations * eta)
        assert rep["rho_kl"] == rep["rho_signed"] == 0
        assert rep["bound"] == pytest.approx(rep["min_term"] + math.log(3) / eta)
        rows = [step["per_player"][rep["player"]] for step in steps]
        u = np.array([row["action_utilities"] for row in rows])
        pols = np.array([row["policy_by_type"]["0.0"] for row in rows])
        regret = iterations * u.mean(axis=0).max() - (u * pols).sum()
        assert rep["regret"] == pytest.approx(regret, rel=1e-12, abs=1e-12)


def _solve(**learner):
    return {**solve_config(), "learner": {**solve_config()["learner"], **learner}}


# Each config key that was ignored or misread: an unknown or deleted key, a
# string read as a true flag, a float truncated to an integer, a bool read as
# a number, a value no longer accepted.
MISREAD_KEYS = {
    "learner.itertions": _solve(itertions=5),
    "bogus": {**solve_config(), "bogus": 1},
    "iterations": {**solve_config(), "iterations": 5},
    "game.params.foo": {**solve_config(), "game": {
        "builtin": "random_zero_sum", "params": {"seed": 1, "foo": 2}}},
    "game.params": {**solve_config(), "game": {"builtin": "matching_pennies",
                                               "params": {"seed": 1}}},
    "oracle.typez": {"kind": "oracle", "game": {"builtin": "matching_pennies"},
                     "oracle": {"typez": [0.1]}},
    "learner.schedule.kapa_floor": _solve(schedule={"mode": "adaptive_std",
                                                    "kapa_floor": 0.1}),
    "learner.schedule.kappa_floor": _solve(schedule={"mode": "adaptive_std",
                                                     "kappa_floor": 1e-6}),
    "learner.schedule.eta": _solve(schedule={"mode": "inverse_sqrt", "eta": 0.5}),
    "rl.preset": rl_config(preset="bogus"),
    "rl.mode": rl_config(preset="brbot", mode="standard"),
    "game.random_markov.zero_sum": {**rl_config(), "game": {"random_markov": {
        "seed": 2, "states": 3, "horizon": 2, "zero_sum": "false"}}},
    "rl.alpha_harmonic": rl_config(alpha_harmonic="false"),
    "learner.uniform_first_iterate": _solve(uniform_first_iterate=True),
    "game.random_markov.seed": {**rl_config(), "game": {"random_markov": {
        "seed": 1.7, "states": 3, "horizon": 2, "zero_sum": True}}},
    "seed": {**solve_config(), "seed": True},
    "rl.alpha": rl_config(alpha="nan"),
    "rl.alpha: alpha_harmonic": rl_config(alpha=0.9, alpha_harmonic=True),
    "popeval.candidate.search_iterations": _popeval_config(
        {"id": "cand", "kind": "search", "search_iterations": "x"}),
    "rl.episodes": rl_config(episodes=True),
    "agent 'cand'": _popeval_config({"id": "cand", "kind": "fixed",
                                     "search_iterations": 8}),
    "oracle": {"kind": "oracle", "game": {"random_markov": {
        "seed": 2, "states": 3, "horizon": 2, "zero_sum": True}},
        "oracle": {"anchors": [None, None]}},
    "oracle.types": {"kind": "oracle", "game": {"random_markov": {
        "seed": 2, "states": 3, "horizon": 2, "zero_sum": True}},
        "oracle": {"types": [0.1, 0.5]}},
    "oracle.lambdas": {"kind": "oracle", "game": {"random_markov": {
        "seed": 2, "states": 3, "horizon": 2, "zero_sum": True}},
        "oracle": {"lambdas": [0.1, 0.1]}},
    "rate": {**rl_config(), "rate": {"games_csv": "games.csv"}},
    "game": {"kind": "rate", "game": {"builtin": "matching_pennies"},
             "rate": {"games_csv": __file__}},
}


@pytest.mark.parametrize("key", sorted(MISREAD_KEYS))
def test_misread_key_exits_2_naming_it(tmp_path, capsys, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(MISREAD_KEYS[key]))
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.count(f"validation error: {key}") == 2


def test_rl_top_k_string_is_read_as_integer(tmp_path):
    a = run_experiment(rl_config(top_k=1), out=tmp_path / "a")
    b = run_experiment(rl_config(top_k="1"), out=tmp_path / "b")
    c = run_experiment(rl_config(), out=tmp_path / "c")
    assert a["artifacts"] == b["artifacts"] != c["artifacts"]


def test_large_seed_reaches_manifest_exactly(tmp_path, capsys):
    seed = 2 ** 60 + 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**solve_config(), "seed": seed}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    text = (tmp_path / "out" / "manifest.json").read_text()
    assert f'"seed": {seed},' in text
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--seed", "-1"]) == 2
    assert "validation error: seed" in capsys.readouterr().err


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(lang: str) -> str:
    """The README's one fenced code block in `lang`."""
    (block,) = re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(),
                          re.M | re.S)
    return block


def test_readme_quick_start_runs(capsys):
    exec(compile(_readme_block("python"), str(README), "exec"), {})
    regret, bound = capsys.readouterr().out.split("\n")[0].split(" <= ")
    assert float(regret) <= float(bound)


def test_readme_config_example_validates(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(_readme_block("json"))
    assert main(["validate", str(path)]) == 0


def test_readme_config_table_lists_every_schema_key():
    from anchored.cli import KINDS, SCHEMA

    readme = README.read_text()
    rows = re.findall(r"^\| ([\w. ]+) \| `(\w+)` \|", readme, re.M)
    documented = {("" if section == "top level" else section, key)
                  for section, key in rows}
    top = {*SCHEMA[""], "game", *(section for section, _, _ in KINDS.values())}
    schema = {("", key) for key in top} | {
        (section, key) for section, table in SCHEMA.items() if section
        for key in table}
    assert documented == schema


# ------------------------------------------------------------ fuzz

def _fuzz_bases(work):
    """Small valid configs of every kind."""
    games_csv = work / "games.csv"
    games_csv.write_text("game_id,seat_index,player_id,score_share\n"
                         "g0,0,a,0.7\ng0,1,b,0.3\ng1,0,b,0.6\ng1,1,a,0.4\n")
    game_file = work / "game.json"
    game_file.write_text(json.dumps({
        "players": 2, "action_counts": [2, 2], "payoff_bound": 2.0,
        "payoffs": [[[1, 2], [0.5, 1]], [[1, 0.5], [2, 1]]]}))
    markov = {"random_markov": {"seed": 2, "states": 3, "actions": 2,
                                "horizon": 2, "zero_sum": True}}
    return [
        {"kind": "solve", "seed": 1, "game": {"builtin": "matching_pennies"},
         "learner": {"iterations": 20, "mode": "sampled", "types": [0.1, 1.0],
                     "schedule": {"mode": "constant_eta", "eta": 0.5},
                     "anchors": [[0.7, 0.3], [0.5, 0.5]]}},
        {"kind": "oracle", "seed": 1, "game": {"builtin": "rock_paper_scissors"},
         "oracle": {"types": [1.0], "anchors": [[0.5, 0.3, 0.2], None],
                    "tol": 1e-9}},
        {"kind": "oracle", "game": markov, "oracle": {"types": [0.5]}},
        {"kind": "rl", "seed": 3, "game": markov,
         "rl": {"types": [0.5], "episodes": 2, "search_iterations": 4,
                "checkpoint_every": 1, "alpha_harmonic": True, "top_k": 1}},
        {"kind": "rl", "seed": 3, "game": markov,
         "rl": {"preset": "brbot", "episodes": 2, "search_iterations": 4}},
        {"kind": "rate", "seed": 1,
         "rate": {"games_csv": str(games_csv), "sigma_prior": 100.0}},
        {"kind": "popeval", "seed": 4, "game": {"file": str(game_file)},
         "popeval": {"candidate": {"id": "s", "kind": "search",
                                   "types": {"preset": "diplodocus_low"},
                                   "act_lambda": 1e-4, "search_iterations": 8},
                     "baselines": [{"id": "f", "kind": "fixed",
                                    "policies": [[0.5, 0.5], [0.2, 0.8]]},
                                   {"id": "u"}],
                     "games": 12}},
    ]


def _paths(obj, prefix=()):
    """The path of every dict value and list item inside `obj`."""
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


FUZZ_VALUES = ["x", "1", True, False, math.nan, 1.7, [], [1], None]


@pytest.fixture(scope="module")
def fuzz_work(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    return work, _fuzz_bases(work)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_configs_validate_as_they_run(fuzz_work, data):
    """`validate` and `run` give the same exit code on a mutated config; an
    exception escaping `main` (a traceback on the command line) fails."""
    work, bases = fuzz_work
    config = copy.deepcopy(data.draw(st.sampled_from(bases)))
    path = data.draw(st.sampled_from(list(_paths(config))))
    parent, key = _at(config, path[:-1]), path[-1]
    # Dropping a whole section would run its kind at full default size.
    droppable = isinstance(parent, dict) and not isinstance(parent[key], dict)
    op = data.draw(st.sampled_from(["swap", "add"] + ["drop"] * droppable))
    if op == "drop":
        del parent[key]
    elif op == "add":
        target = parent if isinstance(parent, dict) else config
        target["unknown_key"] = 1
    else:
        parent[key] = data.draw(st.sampled_from(FUZZ_VALUES))
    cfg = work / "cfg.json"
    cfg.write_text(json.dumps(config))
    codes = []
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        for argv in (["validate", str(cfg)],
                     ["run", str(cfg), "--out", str(work / "out")]):
            codes.append(main(argv))
    assert codes[0] == codes[1] and codes[0] in (0, 2, 3, 4), (config, codes,
                                                               err.getvalue())
    assert "Traceback" not in err.getvalue()


def _validate_as_run(work, config) -> list:
    """`validate` and `run` give the same exit code, or `validate` accepts
    what `run` fails on numerically (3); never a traceback.  Returns the
    two exit codes."""
    cfg = work / "file_cfg.json"
    cfg.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        codes = [main(["validate", str(cfg)]),
                 main(["run", str(cfg), "--out", str(work / "file_out")])]
    assert codes[0] == codes[1] or codes == [0, 3], (config, codes, err.getvalue())
    assert codes[0] in (0, 2, 3, 4) and "Traceback" not in err.getvalue()
    return codes


#: "scaled": the game's own payoff_bound times the reward scale.
MARKOV_BOUNDS = [None, 0.0, 0.5, 2.0, -1.0, math.nan, math.inf, -math.inf, "scaled"]
#: Scales at which u / lambda, the Newton system or the stage bound overflow.
HUGE_SCALES = [1e150, 1e200, 1e307, 1e308]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(["oracle", "rl"]),
       scale=st.one_of(st.sampled_from([0.0, 1.0, 5.0, -3.0, *HUGE_SCALES]),
                       st.floats(-10.0, 10.0)),
       bound=st.sampled_from(MARKOV_BOUNDS),
       bad=st.sampled_from([None, math.nan, math.inf, -math.inf]),
       where=st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, 1)),
       mutation=st.sampled_from([None, *sorted(MARKOV_MUTATIONS)]))
@example(kind="oracle", scale=1e200, bound="scaled", bad=None, where=(0, 0, 0),
         mutation=None)
@example(kind="rl", scale=1e200, bound="scaled", bad=None, where=(0, 0, 0),
         mutation=None)
@example(kind="oracle", scale=1e307, bound="scaled", bad=None, where=(0, 0, 0),
         mutation=None)
@example(kind="oracle", scale=1e308, bound="scaled", bad=None, where=(0, 0, 0),
         mutation=None)
@example(kind="rl", scale=1e308, bound="scaled", bad=None, where=(0, 0, 0),
         mutation=None)
def test_fuzzed_markov_files_validate_as_they_run(fuzz_work, kind, scale, bound,
                                                  bad, where, mutation):
    """A Markov game file with scaled (up to 1e308) or non-finite rewards or
    a bad bound: `validate` and `run` agree, bar a numerical failure of `run`,
    and never give a traceback.  A `MARKOV_MUTATIONS` edit exits 2 from
    both."""
    work, _ = fuzz_work
    d = make_random_markov(seed=1, state_count=3, player_count=2,
                           actions_per_player=2, horizon=2, gamma=1.0,
                           zero_sum=True).to_dict()
    _scale_rewards(d, scale)
    if bound is not None:
        d["payoff_bound"] = abs(scale) * d["payoff_bound"] if bound == "scaled" else bound
    if bad is not None:
        s, joint, player = where
        row = d["rewards"][s]
        row[sorted(row)[joint]][player] = bad
    if mutation is not None:
        MARKOV_MUTATIONS[mutation](d)
    game_file = work / "markov_game.json"
    game_file.write_text(json.dumps(d))
    game = {"file": str(game_file)}
    codes = _validate_as_run(work, {"kind": "oracle", "seed": 1, "game": game}
                             if kind == "oracle" else {**rl_config(), "game": game})
    assert mutation is None or codes == [2, 2]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(["oracle", "solve"]),
       scale=st.one_of(st.sampled_from([1.0, *HUGE_SCALES]),
                       st.floats(1.0, 1e308)),
       mutation=st.sampled_from([None, *sorted(NORMAL_FORM_MUTATIONS)]))
@example(kind="oracle", scale=1e150, mutation=None)
@example(kind="solve", scale=1e308, mutation=None)
def test_fuzzed_normal_form_files_validate_as_they_run(fuzz_work, kind, scale,
                                                       mutation):
    """A normal-form game file with payoffs and bound scaled up to 1e308,
    solved exactly or by sampled self-play: `validate` and `run` agree, bar a
    numerical failure of `run`, and never give a traceback.  A
    `NORMAL_FORM_MUTATIONS` edit exits 2 from both."""
    work, _ = fuzz_work
    d = make_builtin_game("random_zero_sum", {"seed": 3, "actions": [3, 3]}).to_dict()
    d["payoffs"] = (scale * np.array(d["payoffs"])).tolist()
    d["payoff_bound"] *= scale
    if mutation is not None:
        NORMAL_FORM_MUTATIONS[mutation](d)
    game_file = work / "normal_form_game.json"
    game_file.write_text(json.dumps(d))
    game = {"file": str(game_file)}
    codes = _validate_as_run(work, {"kind": "oracle", "seed": 1, "game": game,
                                    "oracle": {"types": [0.1]}} if kind == "oracle" else
                             {"kind": "solve", "seed": 1, "game": game,
                              "learner": {"iterations": 20}})
    assert mutation is None or codes == [2, 2]
