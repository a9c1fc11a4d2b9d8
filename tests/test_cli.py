"""Tests for the config-driven experiment runner and artifact formats."""

import contextlib
import copy
import csv
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from anchored import INF, make_builtin_game, make_random_markov
from anchored.cli import (
    ConfigError,
    dumps_json,
    format_float,
    list_builtins,
    load_game,
    load_types,
    main,
    parse_lambda,
    read_trace_jsonl,
    run_experiment,
    validate_config,
)


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
    for player in range(2):
        q = trace.replay_q(player)
        # the replayed Q is itself the exact mean of the stored utilities;
        # serialization must not perturb it beyond float round-trip
        u = trace.utility_matrix(player)
        np.testing.assert_allclose(q, u.mean(axis=0), atol=1e-12)


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


def test_run_oracle_markov(tmp_path):
    config = {
        "kind": "oracle",
        "game": {"random_markov": {"seed": 2, "states": 3, "actions": 2,
                                   "horizon": 2, "zero_sum": True}},
        "oracle": {"lambdas": [0.5, 0.5]},
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
}


@pytest.mark.parametrize("name", sorted(BAD_GAMES))
def test_main_game_construction_errors_exit_2(tmp_path, capsys, name):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "oracle", "seed": 1,
                                "game": BAD_GAMES[name](tmp_path)}))
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.count("validation error: game") == 2


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


def test_trace_round_trip_with_infinite_lambda(tmp_path):
    from anchored import TemperatureSchedule, TypeDistribution, init_learner, \
        run_selfplay, uniform_policy
    from anchored.cli import emit_trace

    types = TypeDistribution.uniform([0.1, INF])
    sched = TemperatureSchedule(mode="constant_eta", eta=0.5)
    learners = [init_learner(i, 2, uniform_policy(2), types, sched) for i in range(2)]
    trace = run_selfplay(make_builtin_game("matching_pennies"), learners, 40,
                         mode="sampled", rng=np.random.default_rng(3))
    emit_trace(trace, tmp_path / "trace.jsonl")
    back = read_trace_jsonl(tmp_path / "trace.jsonl", [types.lambdas] * 2)
    assert np.isinf(trace.sampled_lambdas).any()
    for column in ("kappas", "realized", "utilities", "policies", "actions",
                   "sampled_lambdas"):
        np.testing.assert_array_equal(getattr(back, column), getattr(trace, column))


def _solve(**learner):
    return {**solve_config(), "learner": {**solve_config()["learner"], **learner}}


# Each config key that was ignored or misread: an unknown key, a string read
# as a true flag, a float truncated to an integer, a bool read as a number.
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
    "learner.schedule.eta": _solve(schedule={"mode": "inverse_sqrt", "eta": 0.5}),
    "rl.preset": rl_config(preset="bogus"),
    "game.random_markov.zero_sum": {**rl_config(), "game": {"random_markov": {
        "seed": 2, "states": 3, "horizon": 2, "zero_sum": "false"}}},
    "rl.alpha_harmonic": rl_config(alpha_harmonic="false"),
    "learner.uniform_first_iterate": _solve(uniform_first_iterate="no"),
    "game.random_markov.seed": {**rl_config(), "game": {"random_markov": {
        "seed": 1.7, "states": 3, "horizon": 2, "zero_sum": True}}},
    "seed": {**solve_config(), "seed": True},
    "rl.alpha": rl_config(alpha="nan"),
    "popeval.candidate.search_iterations": _popeval_config(
        {"id": "cand", "kind": "search", "search_iterations": "x"}),
    "rl.episodes": rl_config(episodes=True),
    "agent 'cand'": _popeval_config({"id": "cand", "kind": "fixed",
                                     "search_iterations": 8}),
    "oracle": {"kind": "oracle", "game": {"random_markov": {
        "seed": 2, "states": 3, "horizon": 2, "zero_sum": True}},
        "oracle": {"types": [0.1]}},
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


def test_readme_config_table_lists_every_schema_key():
    from pathlib import Path

    from anchored.cli import KINDS, SCHEMA

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
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
                     "anchors": [[0.7, 0.3], [0.5, 0.5]],
                     "uniform_first_iterate": True}},
        {"kind": "oracle", "seed": 1, "game": {"builtin": "rock_paper_scissors"},
         "oracle": {"types": [1.0], "anchors": [[0.5, 0.3, 0.2], None],
                    "tol": 1e-9}},
        {"kind": "oracle", "game": markov, "oracle": {"lambdas": [0.5, 0.5]}},
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
