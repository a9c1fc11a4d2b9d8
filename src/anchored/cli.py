"""Config-driven experiment runner.

One JSON config fully determines a run; every artifact is a pure function of
(config bytes, seed), and the manifest lists each output with its sha256.
Floats in artifacts are rendered with 17 significant digits, which
round-trips IEEE doubles bit-exactly.

Exit codes: 0 success, 2 validation error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import games as G
from . import popeval as PE
from . import rating as R
from . import rl as RL
from .learners import (INF, Learners, TemperatureSchedule, Trace,
                       TypeDistribution, run_selfplay)
from .oracle import (regularized_exploitability, regularized_regret,
                     solve_markov_backward, solve_regularized_bne,
                     uniform_anchors)

BUILTIN_GAMES = (*G.MATRIX_GAMES, "random_zero_sum", "random_general_sum")

#: Agent presets: population type supports and the lambda actually played.
AGENT_PRESETS = {
    "diplodocus_low": {"lambdas": [1e-4, 1e-1], "act_lambda": 1e-4},
    "diplodocus_high": {"lambdas": [1e-2, 1e-1], "act_lambda": 1e-2},
    "brbot": {"distinguished_lambda": 0.0, "population_lambda": "inf"},
}


class ConfigError(ValueError):
    pass


def format_float(x: float) -> str:
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if math.isnan(x):
        return '"nan"'
    return format(x, ".17g")


def dumps_json(obj, indent: int | None = None, _level: int = 0) -> str:
    """JSON with floats at 17 significant digits and stable field order.
    A NaN raises `FloatingPointError`: no artifact carries one."""
    pad = "" if indent is None else "\n" + " " * indent * (_level + 1)
    end = "" if indent is None else "\n" + " " * indent * _level
    if isinstance(obj, dict):
        items = [f'{pad}{json.dumps(str(k))}: {dumps_json(v, indent, _level + 1)}'
                 for k, v in obj.items()]
        return "{" + ",".join(items) + (end if items else "") + "}"
    if isinstance(obj, (list, tuple)):
        items = [f"{pad}{dumps_json(v, indent, _level + 1)}" for v in obj]
        return "[" + ",".join(items) + (end if items else "") + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if math.isnan(obj):
            raise FloatingPointError("NaN in an artifact")
        return format_float(float(obj))
    return json.dumps(obj)


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _addressable(key: str, shape) -> None:
    """Reject a size whose 8-byte-item array of `shape` numpy cannot address."""
    _require(math.prod(shape) * np.dtype(float).itemsize <= np.iinfo(np.intp).max,
             f"{key}: an array of shape {shape} is larger than numpy can address")


@contextmanager
def _config_errors(section: str):
    """Report what building a config's objects raises as a `ConfigError`."""
    try:
        yield
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{section}: {exc!r}") from exc


def _nested(value):
    """A nested object or list, read by its loader."""
    return value


def _parser(convert, ok, must: str):
    """Parse with `convert`, then reject unless `ok`; a bool is never a number."""
    def parse(value):
        if convert is float and isinstance(value, bool):
            raise TypeError(f"must be a number, got {value!r}")
        x = convert(value)
        if not ok(x):
            raise ValueError(f"{must}, got {value!r}")
        return x
    return parse


_number = _parser(float, math.isfinite, "must be a finite number")
_positive = _parser(float, lambda x: math.isfinite(x) and x > 0, "must be finite and > 0")
#: A regularization strength: a number >= 0, "inf" for lambda = inf.
parse_lambda = _parser(float, lambda x: x >= 0, "must be a number >= 0")
_flag = _parser(_nested, lambda x: isinstance(x, bool), "must be true or false")
_text = _parser(_nested, lambda x: isinstance(x, str), "must be a string")


def _integer(low: int, high: float = math.inf):
    """An exact integer in [low, high]; an integer string is read as one."""
    return _parser(lambda x: int(x) if isinstance(x, str) else x,
                   lambda n: type(n) is int and low <= n <= high,
                   f"must be an integer in [{low}, {high}]")


def _one_of(options):
    return _parser(_nested, lambda x: x in options, f"must be one of {list(options)}")


def _list_of(parse):
    return _parser(lambda x: [parse(v) for v in x] if isinstance(x, list) else None,
                   lambda x: x is not None, "must be a list")


def _section(spec, name: str, required=(), table: dict | None = None) -> dict:
    """The keys `spec` gives, each parsed by its parser in `table` (by
    default `SCHEMA[name]`).  A key not in the table, a value its parser
    rejects, or a missing `required` key is a `ConfigError` naming `name.key`."""
    table = SCHEMA[name] if table is None else table
    prefix = f"{name}." if name else ""
    _require(isinstance(spec, dict), f"{name or 'config'}: must be a JSON object")
    given = {}
    for key, value in spec.items():
        _require(key in table, f"{prefix}{key}: unknown key")
        with _config_errors(prefix + key):
            given[key] = table[key](value)
    for key in required:
        _require(key in given, f"{prefix}{key}: required")
    return given


def load_types(spec) -> TypeDistribution:
    """A list of lambdas, or `{"preset": name}` of an agent preset with one."""
    if isinstance(spec, dict):
        spec = AGENT_PRESETS[_section(spec, "types", ("preset",))["preset"]]["lambdas"]
    lambdas = _list_of(parse_lambda)(spec)
    _require(lambdas, "types: non-empty list required")
    return TypeDistribution.uniform(lambdas)


def _schedule(spec) -> TemperatureSchedule:
    given = _section(spec, "learner.schedule")
    _require("eta" not in given or given.get("mode") == "constant_eta",
             "learner.schedule.eta: only the constant_eta mode takes eta")
    return TemperatureSchedule(**given)


def _game_file(path) -> G.NormalFormGame | G.TabularMarkovGame:
    _require(Path(_text(path)).exists(), f"game.file: {path} does not exist")
    d = json.loads(Path(path).read_text())
    return (G.TabularMarkovGame if "states" in d else G.NormalFormGame).from_dict(d)


def _random_markov(spec) -> G.TabularMarkovGame:
    p = _section(spec, "game.random_markov", ("seed", "states", "horizon"))
    return G.make_random_markov(
        seed=p["seed"], state_count=p["states"], player_count=p.get("players", 2),
        actions_per_player=p.get("actions", 2), horizon=p["horizon"],
        gamma=p.get("gamma", 1.0), zero_sum=p.get("zero_sum", False),
        payoff_bound=p.get("payoff_bound", 1.0))


def _games_csv(path) -> R.GameTable:
    _require(Path(_text(path)).exists(), f"rate.games_csv: {path} does not exist")
    return R.read_game_records(path)


def _seat_vectors(spec, name: str, game, policy: bool) -> tuple:
    """`spec` as one float vector per seat, as long as the seat's action count
    in every state; a null vector, or a null `spec`, is uniform.  A `policy`
    must be a probability vector; an anchor needs only positive mass."""
    states = ([game.action_counts] if isinstance(game, G.NormalFormGame)
              else game.action_counts)
    spec = [None] * game.player_count if spec is None else spec
    with _config_errors(name):
        _require(isinstance(spec, list) and len(spec) == game.player_count,
                 f"{name}: need one vector per seat")
        vectors = tuple(G.uniform_policy(states[0][i]) if v is None
                        else np.array(v, dtype=float) for i, v in enumerate(spec))
        for i, v in enumerate(vectors):
            _require(all(v.shape == (counts[i],) for counts in states),
                     f"{name}[{i}]: need one entry per action")
            G.make_anchor(v)
            _require(not policy or abs(v.sum() - 1.0) <= 1e-8,
                     f"{name}[{i}]: must be a probability vector")
    return vectors


def load_game(spec: dict):
    given = _section(spec, "game")
    sources = given.keys() & {"builtin", "file", "random_markov"}
    _require(len(sources) == 1,
             "game: needs exactly one of builtin / file / random_markov")
    _require("params" not in given or given.get("builtin", "").startswith("random_"),
             "game.params: only a random builtin game takes params")
    if "builtin" not in given:
        return given[sources.pop()]
    with _config_errors("game"):
        return G.make_builtin_game(given["builtin"], given.get("params"))


#: Steps per block of `emit_trace`; a block's text is all it holds at once.
TRACE_BLOCK = 1024


def emit_trace(trace: Trace, path: Path) -> None:
    """Write a trace as JSON lines, one `dumps_json` record per step.  The
    record template is `dumps_json` of a record whose numbers are "%.17g",
    which formats a finite float as `dumps_json` does and a step or action
    (an integer below 2**53) as its digits; each block of steps fills it
    from one float matrix with a column per number of a record.  A write
    that raises, as a NaN does, removes the file."""
    cell, sampled, p = "%.17g", trace.actions is not None, trace.n_players
    drawn = cell if sampled else None
    columns, players = [np.arange(1.0, len(trace) + 1)[:, None], trace.kappas], []
    for i, (n, support) in enumerate(zip(trace.action_counts, trace.type_supports)):
        if sampled:
            columns += [trace.sampled_lambdas[:, i:i + 1], trace.actions[:, i:i + 1]]
        rows = trace.policies[:, trace.row_start[i]:trace.row_start[i + 1], :n]
        columns += [*rows.transpose(1, 0, 2), trace.utilities[:, i, :n]]
        players.append({"sampled_lambda": drawn, "action": drawn,
                        "policy_by_type": {repr(lam): [cell] * n for lam in support},
                        "action_utilities": [cell] * n})
    columns.append(trace.realized)
    record = dumps_json({"t": cell, "kappa": [cell] * p, "per_player": players,
                         "utilities": [cell] * p}).replace(f'"{cell}"', cell) + "\n"
    try:
        with open(path, "w") as fh:
            for start in range(0, len(trace), TRACE_BLOCK):
                block = np.concatenate([c[start:start + TRACE_BLOCK] for c in columns], 1)
                if np.isfinite(block).all():
                    fh.write(record * len(block) % tuple(block.ravel().tolist()))
                else:    # each number through `dumps_json`: "inf" is quoted, NaN raises
                    fh.write(record.replace(cell, "%s") * len(block)
                             % tuple(map(dumps_json, block.ravel().tolist())))
    except BaseException:    # a write that stops leaves no partial file
        Path(path).unlink(missing_ok=True)
        raise


def _sub_rng(seed: int, *key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def load_solve(spec: dict, game):
    """The learner section as (learners, mode, iterations)."""
    _require(isinstance(game, G.NormalFormGame), "solve: needs a normal-form game")
    given = _section(spec, "learner")
    types = given.get("types", TypeDistribution.singleton(0.1))
    anchors = _seat_vectors(given.get("anchors"), "learner.anchors", game, policy=False)
    learners = Learners(anchors, [types] * game.player_count,
                        given.get("schedule", TemperatureSchedule()))
    iterations = given.get("iterations", 1000)
    _addressable("learner.iterations", (iterations, *learners.avg.shape))  # Trace.policies
    return learners, given.get("mode", "sampled"), iterations


def run_solve(game, loaded, seed: int, out: Path) -> list[Path]:
    learners, mode, iterations = loaded
    trace = run_selfplay(game, learners, iterations,
                         rng=_sub_rng(seed, 0) if mode == "sampled" else None)
    trace_path = out / "trace.jsonl"
    emit_trace(trace, trace_path)
    eta = learners.schedule.eta     # None outside the constant_eta mode
    reports = []
    for i, (anchor, types) in enumerate(zip(learners.anchors, learners.types)):
        for lam in types.lambdas:
            rep = regularized_regret(trace, i, lam, anchor,
                                     payoff_bound=game.payoff_bound,
                                     eta=eta if eta not in (None, INF) else None)
            reports.append(rep.to_dict())
    report_path = out / "regret_report.json"
    report_path.write_text(dumps_json({"reports": reports}, indent=2) + "\n")
    return [trace_path, report_path]


def load_oracle(spec: dict, game):
    """The oracle section as (types, anchors, tol): one `TypeDistribution` and
    one anchor per player for a normal-form game, the anchors floored and
    renormalized by `make_anchor` as the learners' are; the one lambda of
    `types` for both players and `uniform_anchors` for a Markov game."""
    _require(game.player_count == 2 and game.zero_sum,
             "oracle: needs a two-player zero-sum game")
    given = _section(spec, "oracle")
    tol = given.get("tol", 1e-10)
    markov = isinstance(game, G.TabularMarkovGame)
    _require(not (markov and "anchors" in given), "oracle: a Markov game takes no anchors")
    types = (given.get("types", TypeDistribution.singleton(0.1)),) * 2
    _require(all(0 < l < INF for l in types[0].lambdas),
             "oracle.types: lambdas must be finite and > 0")
    if markov:
        _require(len(types[0].lambdas) == 1, "oracle.types: a Markov game takes one lambda")
        return list(types[0].lambdas) * 2, uniform_anchors(game), tol
    anchors = _seat_vectors(given.get("anchors"), "oracle.anchors", game, policy=False)
    return types, [G.make_anchor(a) for a in anchors], tol


def run_oracle(game, loaded, seed: int, out: Path) -> list[Path]:
    types, anchors, tol = loaded
    if isinstance(game, G.TabularMarkovGame):
        values, profiles = solve_markov_backward(game, anchors, types, tol=tol)
        doc = {
            "values": {str(s): v.tolist() for s, v in sorted(values.items())},
            "profiles": {str(s): p.to_dict() for s, p in sorted(profiles.items())},
        }
    else:
        profile = solve_regularized_bne(game, anchors, types, tol=tol)
        if not profile.converged:
            raise RuntimeError(f"solver did not converge; residual {profile.residual}")
        doc = profile.to_dict()
        doc["exploitability"] = regularized_exploitability(game, anchors, profile)
        doc["note"] = ("regularization penalty subtracted from expected reward "
                       "throughout")
    path = out / "oracle.json"
    path.write_text(dumps_json(doc, indent=2) + "\n")
    return [path]


def load_train_config(spec: dict, game) -> RL.TrainConfig:
    """The rl section of a config as a `TrainConfig` with seed 0.  The
    `brbot` preset, best response, gives player 0 the preset's
    `distinguished_lambda` and every other player its `population_lambda`."""
    _require(isinstance(game, G.TabularMarkovGame), "rl: needs a Markov game")
    given = _section(spec, "rl")
    _require(not ("alpha" in given and given.get("alpha_harmonic")),
             "rl.alpha: alpha_harmonic sets alpha = 1 / visit count, so it takes no alpha")
    types = (given.pop("types", TypeDistribution.singleton(0.1)),) * game.player_count
    if given.pop("preset", None) == "brbot":
        brbot = AGENT_PRESETS["brbot"]
        best, population = (TypeDistribution.singleton(parse_lambda(brbot[k]))
                            for k in ("distinguished_lambda", "population_lambda"))
        types = (best,) + (population,) * (game.player_count - 1)
    with _config_errors("rl"):
        return RL.TrainConfig(types=types, **given)


def run_rl(game, loaded, seed: int, out: Path) -> list[Path]:
    """Train, with the exact oracle's metrics when the game is zero-sum and
    every player has the same single finite lambda > 0."""
    tcfg = dataclasses.replace(loaded, seed=seed)
    anchors = uniform_anchors(game)
    oracle_values = None
    oracle_profiles = None
    lam = tcfg.types[0].lambdas[0]
    if (game.zero_sum and 0 < lam < INF
            and all(td.lambdas == (lam,) for td in tcfg.types)):
        oracle_values, oracle_profiles = solve_markov_backward(game, anchors, [lam, lam])
    values, policy, metrics = RL.train(game, anchors, tcfg, oracle_values, oracle_profiles)
    metrics_path = out / "metrics.csv"
    fields = ["episode", "max_value_error", "mean_value_error",
              "mean_policy_kl", "mean_exploitability"]
    with open(metrics_path, "w") as fh:
        fh.write(",".join(fields) + "\n")
        for row in metrics:
            cells = [row.get(f) for f in fields]
            if not all(math.isfinite(x) for x in cells if x is not None):
                raise FloatingPointError(f"non-finite metric at episode {row['episode']}")
            fh.write(",".join("" if x is None else str(x) if f == "episode"
                              else format(x, ".17g") for f, x in zip(fields, cells))
                     + "\n")
    ckpt_path = out / "checkpoint.json"
    ckpt_path.write_text(dumps_json({
        "values": {str(s): v.tolist() for s, v in enumerate(values[:-1])},
        "policy_table": {f"{s},{i}": policy[s, i, :n].tolist()
                         for s, counts in enumerate(game.action_counts)
                         for i, n in enumerate(counts)},
    }, indent=2) + "\n")
    return [metrics_path, ckpt_path]


def run_rate(game, loaded, seed: int, out: Path) -> list[Path]:
    options = dict(loaded)
    model = R.fit_ratings(options.pop("games_csv"), **options)
    out_path = out / "ratings.json"
    out_path.write_text(dumps_json(model.to_dict(), indent=2) + "\n")
    return [out_path]


def _load_agent(spec: dict, game, where: str) -> PE.AgentSpec:
    given = _section(spec, where, ("id",), SCHEMA["agent"])
    name = f"agent {given['id']!r}"
    kind = given.get("kind", "fixed")
    stray = given.keys() & ({"types", "act_lambda", "anchors", "search_iterations"}
                            if kind == "fixed" else {"policies"})
    _require(not stray, f"{name}: a {kind} agent takes no {', '.join(sorted(stray))}")
    _require(isinstance(game, G.NormalFormGame) or "policies" in given,
             f"{name}: a Markov game needs a fixed agent with explicit policies")
    if kind == "fixed":
        return PE.AgentSpec(agent_id=given["id"], policies=_seat_vectors(
            given.get("policies"), f"{name}: policies", game, policy=True))
    types = spec.get("types")       # a preset's types act at its act_lambda
    act = AGENT_PRESETS[types["preset"]]["act_lambda"] if isinstance(types, dict) else 0.0
    return PE.AgentSpec(
        agent_id=given["id"], kind="search",
        types=given.get("types", TypeDistribution.singleton(0.1)),
        act_lambda=given.get("act_lambda", act),
        anchor_policies=_seat_vectors(given.get("anchors"), f"{name}: anchors", game,
                                      policy=False),
        search_iterations=given.get("search_iterations", 256))


def load_popeval(spec: dict, game):
    """The popeval section as (candidate, baselines, games)."""
    given = _section(spec, "popeval", ("candidate", "baselines"))
    _require(given["baselines"], "popeval.baselines: non-empty list required")
    candidate = _load_agent(given["candidate"], game, "popeval.candidate")
    baselines = [_load_agent(b, game, f"popeval.baselines[{k}]")
                 for k, b in enumerate(given["baselines"])]
    ids = [a.agent_id for a in baselines + [candidate]]
    _require(len(set(ids)) == len(ids), "popeval: agent ids must be unique")
    _require(PE.scorable(game), "popeval: sum-of-squares scoring needs outcomes "
             "that are nonnegative and never all zero")
    games = given.get("games", 1000)
    _addressable("popeval.games", (games, game.player_count))  # seatings, uniforms
    return candidate, baselines, games


def run_popeval(game, loaded, seed: int, out: Path) -> list[Path]:
    candidate, baselines, n_games = loaded
    report = PE.run_population_eval(candidate, baselines, game, n_games,
                                    _sub_rng(seed, 1))
    json_path = out / "popeval_report.json"
    json_path.write_text(dumps_json(report.to_dict(), indent=2) + "\n")
    csv_path = out / "popeval_games.csv"
    report.write_game_csv(csv_path)
    return [json_path, csv_path]


#: Per kind: its config section, the loader that builds what the runner
#: starts from besides the game, and the runner.
KINDS = {
    "solve": ("learner", load_solve, run_solve),
    "oracle": ("oracle", load_oracle, run_oracle),
    "rl": ("rl", load_train_config, run_rl),
    "rate": ("rate", lambda spec, game: _section(spec, "rate", ("games_csv",)), run_rate),
    "popeval": ("popeval", load_popeval, run_popeval),
}

#: Each config section's keys and their parsers.  A parser returns what the
#: loaders use, or raises `TypeError` / `ValueError`.  Besides the top-level
#: keys here, a config takes its kind's section and, but for `rate`, a `game`.
SCHEMA = {
    "": {"kind": _one_of(tuple(KINDS)), "seed": _integer(0, 2 ** 64 - 1),
         "out": _text},
    "game": {"builtin": _one_of(BUILTIN_GAMES),
             "params": lambda spec: _section(spec, "game.params"),
             "file": _game_file, "random_markov": _random_markov},
    "game.params": {"seed": _integer(0), "actions": _list_of(_integer(1)),
                    "payoff_bound": _positive},
    "game.random_markov": {
        "seed": _integer(0), "states": _integer(1), "players": _integer(2),
        "actions": _integer(1), "horizon": _integer(1), "gamma": _number,
        "zero_sum": _flag, "payoff_bound": _positive},
    "learner": {"iterations": _integer(1), "mode": _one_of(("sampled", "expected")),
                "types": load_types, "schedule": _schedule, "anchors": _nested},
    "learner.schedule": {
        "mode": _one_of(("constant_eta", "inverse_sqrt", "adaptive_std")),
        "eta": parse_lambda},
    "types": {"preset": _one_of([n for n, p in AGENT_PRESETS.items() if "lambdas" in p])},
    "oracle": {"tol": _positive, "types": load_types, "anchors": _nested},
    "rl": {"search_iterations": _integer(1), "types": load_types,
           "nash_explore": _number, "episodes": _integer(1), "alpha": _number,
           "alpha_harmonic": _flag, "top_k": _integer(1),
           "checkpoint_every": _integer(1), "preset": _one_of(("brbot",))},
    "rate": {"games_csv": _games_csv, "sigma_prior": _positive, "c": _positive},
    "popeval": {"candidate": _nested, "baselines": _list_of(_nested),
                "games": _integer(2)},
    "agent": {"id": _text, "kind": _one_of(("fixed", "search")), "policies": _nested,
              "types": load_types, "act_lambda": parse_lambda, "anchors": _nested,
              "search_iterations": _integer(1)},
}


def validate_config(config: dict) -> tuple:
    """Check a config and build what its kind's runner starts from: the
    top-level keys, the game (None for `rate`) and what the kind's loader
    returns."""
    _require(isinstance(config, dict), "config: must be a JSON object")
    kind = config.get("kind")
    _require(kind in tuple(KINDS), f"kind: must be one of {sorted(KINDS)}, got {kind!r}")
    section, loader, _ = KINDS[kind]
    needs = () if kind == "rate" else ("game",)
    top = _section(config, "", needs, {**SCHEMA[""], section: _nested,
                                       **dict.fromkeys(needs, load_game)})
    return top, top.get("game"), loader(top.get(section, {}), top.get("game"))


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_experiment(config: dict, seed: int | None = None,
                   out: Path | str | None = None) -> dict:
    """Execute a validated config and return the artifact manifest.  A given
    `seed` or `out` replaces the config's."""
    top, game, loaded = validate_config(config)
    with _config_errors("seed"):
        seed = top.get("seed", 0) if seed is None else SCHEMA[""]["seed"](seed)
    out = Path(top.get("out", "out") if out is None else out)
    out.mkdir(parents=True, exist_ok=True)
    files = KINDS[top["kind"]][2](game, loaded, seed, out)
    manifest = {
        "kind": top["kind"],
        "seed": seed,
        "artifacts": [
            {"path": f.name, "sha256": sha256_file(f)} for f in sorted(files)
        ],
    }
    (out / "manifest.json").write_text(dumps_json(manifest, indent=2) + "\n")
    return manifest


def list_builtins() -> str:
    return "\n".join(["builtin games:", *(f"  {name}" for name in BUILTIN_GAMES),
                      "agent presets:", *(f"  {name}: {json.dumps(spec)}"
                                          for name, spec in AGENT_PRESETS.items())])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="anchored",
        description="Seeded experiment runner for anchored self-play learning.")
    parser.add_argument("--list-builtins", action="store_true",
                        help="print available builtin games and agent presets")
    sub = parser.add_subparsers(dest="command")
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", type=Path, default=None)
    sub.add_parser("validate", help="validate an experiment config").add_argument(
        "config", type=Path)
    args = parser.parse_args(argv)

    if args.list_builtins:
        print(list_builtins())
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    try:
        config = json.loads(args.config.read_text(encoding="utf-8"))
        if args.command == "validate":
            validate_config(config)
            print("ok")
            return 0
        manifest = run_experiment(config, seed=args.seed, out=args.out)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"validation error: config is not valid UTF-8 JSON: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    except (RuntimeError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (MemoryError, ValueError) as exc:
        # numpy raises ValueError for an array larger than the address space
        if isinstance(exc, ValueError) and not str(exc).startswith("array is too big"):
            raise
        print(f"runtime failure: out of memory: {exc}", file=sys.stderr)
        return 3
    print(dumps_json(manifest, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
