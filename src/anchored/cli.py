"""Config-driven experiment runner.

One JSON config fully determines a run; every artifact is a pure function of
(config bytes, seed), and the manifest lists each output with its sha256.
Floats in artifacts are rendered with 17 significant digits, which
round-trips IEEE doubles bit-exactly.

Exit codes: 0 success, 2 validation error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
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
from .learners import (INF, Learner, TemperatureSchedule, Trace,
                       TypeDistribution, run_selfplay)
from .oracle import (regularized_exploitability, regularized_regret,
                     solve_markov_backward, solve_regularized_bne,
                     uniform_anchors)

BUILTIN_GAMES = ("matching_pennies", "rock_paper_scissors", "random_zero_sum",
                 "random_general_sum")

#: Agent presets: population type supports and the lambda actually played.
AGENT_PRESETS = {
    "diplodocus_low": {"lambdas": [1e-4, 1e-1], "act_lambda": 1e-4},
    "diplodocus_high": {"lambdas": [1e-2, 1e-1], "act_lambda": 1e-2},
    "brbot": {"mode": "best_response", "distinguished_lambda": 0.0,
              "population_lambda": "inf"},
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
    """JSON with floats at 17 significant digits and stable field order."""
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
        return format_float(float(obj))
    return json.dumps(obj)


def parse_lambda(x) -> float:
    if isinstance(x, str):
        if x in ("inf", "Infinity", "+inf"):
            return INF
        return float(x)
    return float(x)


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


@contextmanager
def _config_errors(section: str):
    """Report what building a config's objects raises as a `ConfigError`."""
    try:
        yield
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{section}: {exc!r}") from exc


def _positive(name: str, value) -> float:
    """`value` as a finite float > 0."""
    with _config_errors(name):
        x = float(value)
    _require(math.isfinite(x) and x > 0, f"{name}: must be a finite number > 0")
    return x


def _integer(name: str, value, low: int) -> int:
    """`value` as an int >= `low`."""
    with _config_errors(name):
        n = int(value)
    _require(n >= low, f"{name}: must be >= {low}")
    return n


def load_game(spec: dict):
    _require(isinstance(spec, dict), "game: must be an object")
    with _config_errors("game"):
        if "builtin" in spec:
            name = spec["builtin"]
            _require(name in BUILTIN_GAMES, f"game.builtin: unknown game {name!r}")
            return G.make_builtin_game(name, spec.get("params", {}))
        if "file" in spec:
            path = Path(spec["file"])
            _require(path.exists(), f"game.file: {path} does not exist")
            d = json.loads(path.read_text())
            if "states" in d:
                return G.TabularMarkovGame.from_dict(d)
            return G.NormalFormGame.from_dict(d)
        if "random_markov" in spec:
            p = spec["random_markov"]
            return G.make_random_markov(
                seed=int(p["seed"]), state_count=int(p["states"]),
                player_count=int(p.get("players", 2)),
                actions_per_player=int(p.get("actions", 2)),
                horizon=int(p["horizon"]), gamma=float(p.get("gamma", 1.0)),
                zero_sum=bool(p.get("zero_sum", False)),
                payoff_bound=float(p.get("payoff_bound", 1.0)),
            )
    raise ConfigError("game: needs one of builtin / file / random_markov")


def load_schedule(spec: dict | None) -> TemperatureSchedule:
    spec = spec or {"mode": "adaptive_std", "kappa_floor": 1e-6}
    mode = spec.get("mode", "adaptive_std")
    _require(mode in ("constant_eta", "inverse_sqrt", "adaptive_std"),
             f"schedule.mode: unknown mode {mode!r}")
    eta = spec.get("eta")
    with _config_errors("schedule"):
        return TemperatureSchedule(
            mode=mode,
            eta=None if eta is None else parse_lambda(eta),
            kappa_floor=float(spec.get("kappa_floor",
                                       1e-6 if mode == "adaptive_std" else 0.0)),
        )


def load_types(spec) -> TypeDistribution:
    if isinstance(spec, dict) and "preset" in spec:
        preset = AGENT_PRESETS.get(spec["preset"])
        _require(preset is not None and "lambdas" in preset,
                 f"types.preset: {spec['preset']!r} has no type distribution")
        spec = preset["lambdas"]
    _require(isinstance(spec, (list, tuple)) and spec, "types: non-empty list required")
    with _config_errors("types"):
        return TypeDistribution.uniform([parse_lambda(l) for l in spec])


def emit_trace(trace: Trace, fmt: str, path: Path) -> None:
    """Write a trace as JSON-lines or CSV with identical numeric content."""
    if fmt == "jsonl":
        with open(path, "w") as fh:
            for rec in trace.records():
                fh.write(dumps_json(rec) + "\n")
        return
    if fmt == "csv":
        import csv as _csv
        with open(path, "w", newline="") as fh:
            w = _csv.writer(fh)
            header = ["t"]
            for i in range(trace.n_players):
                header += [f"kappa_{i}", f"sampled_lambda_{i}", f"action_{i}",
                           f"utility_{i}"]
            w.writerow(header)
            for rec in trace.records():
                row = [rec["t"]]
                for i, p in enumerate(rec["per_player"]):
                    lam = p["sampled_lambda"]
                    row += [
                        format(rec["kappa"][i], ".17g"),
                        "" if lam is None else ("inf" if lam == INF
                                                else format(lam, ".17g")),
                        "" if p["action"] is None else p["action"],
                        format(rec["utilities"][i], ".17g"),
                    ]
                w.writerow(row)
        return
    raise ConfigError(f"unknown trace format {fmt!r}")


def read_trace_jsonl(path: Path, type_supports) -> Trace:
    def fix(rec):
        for p in rec["per_player"]:
            if p["sampled_lambda"] == "inf":
                p["sampled_lambda"] = INF
        return rec

    records = [fix(json.loads(line)) for line in path.read_text().splitlines() if line]
    return Trace.from_records(records, type_supports)


def _sub_rng(seed: int, *key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def load_solve(config: dict, game):
    """The learner section of a solve config as (learners, types, schedule,
    mode, iterations)."""
    _require(isinstance(game, G.NormalFormGame), "solve: needs a normal-form game")
    lcfg = config.get("learner", {})
    iterations = _integer("iterations", lcfg.get("iterations",
                                                 config.get("iterations", 1000)), 1)
    mode = lcfg.get("mode", "sampled")
    _require(mode in ("sampled", "expected"), f"learner.mode: unknown mode {mode!r}")
    types = load_types(lcfg.get("types", [0.1]))
    schedule = load_schedule(lcfg.get("schedule"))
    anchors = lcfg.get("anchors")
    _require(not anchors or len(anchors) == game.player_count,
             "learner.anchors: need one anchor per player")
    with _config_errors("learner.anchors"):
        learners = [Learner(
            player=i, n_actions=n, types=types, schedule=schedule,
            anchor=(np.array(anchors[i], dtype=float) if anchors
                    else G.uniform_policy(n)),
            uniform_first_iterate=bool(lcfg.get("uniform_first_iterate", False)),
        ) for i, n in enumerate(game.action_counts)]
    return learners, types, schedule, mode, iterations


def run_solve(config: dict, seed: int, out: Path) -> list[Path]:
    game = load_game(config["game"])
    learners, types, schedule, mode, iterations = load_solve(config, game)
    rng = _sub_rng(seed, 0)
    trace = run_selfplay(game, learners, iterations, mode=mode,
                         rng=rng if mode == "sampled" else None)
    trace_path = out / "trace.jsonl"
    emit_trace(trace, "jsonl", trace_path)
    eta = schedule.eta if schedule.mode == "constant_eta" else None
    reports = []
    for i, ln in enumerate(learners):
        for lam in types.lambdas:
            rep = regularized_regret(trace, i, lam, ln.anchor,
                                     payoff_bound=game.payoff_bound,
                                     eta=eta if eta not in (None, INF) else None)
            reports.append(rep.to_dict())
    report_path = out / "regret_report.json"
    report_path.write_text(dumps_json({"reports": reports}, indent=2) + "\n")
    return [trace_path, report_path]


def load_oracle(config: dict, game):
    """The oracle section as (types, anchors, tol): one `TypeDistribution` and
    one anchor per player for a normal-form game, one lambda per player and
    `uniform_anchors` for a Markov game."""
    ocfg = config.get("oracle", {})
    _require(game.player_count == 2 and game.zero_sum,
             "oracle: needs a two-player zero-sum game")
    tol = _positive("oracle.tol", ocfg.get("tol", 1e-10))
    if isinstance(game, G.TabularMarkovGame):
        lambdas = [parse_lambda(l) for l in ocfg.get("lambdas", [0.1, 0.1])]
        _require(len(lambdas) == 2 and all(0 < l < INF for l in lambdas),
                 "oracle.lambdas: need two finite lambdas > 0")
        return lambdas, uniform_anchors(game), tol
    types = tuple(load_types(ocfg.get("types", [0.1])) for _ in range(2))
    _require(all(0 < l < INF for l in types[0].lambdas),
             "oracle.types: lambdas must be finite and > 0")
    specs = ocfg.get("anchors", [None, None])
    _require(len(specs) == 2, "oracle.anchors: need one anchor per player")
    with _config_errors("oracle.anchors"):
        anchors = [G.uniform_policy(n) if a is None else np.array(a, dtype=float)
                   for a, n in zip(specs, game.action_counts)]
        for a, n in zip(anchors, game.action_counts):
            _require(G.make_anchor(a).shape == (n,),
                     "oracle.anchors: need one entry per action")
    return types, anchors, tol


def run_oracle(config: dict, seed: int, out: Path) -> list[Path]:
    game = load_game(config["game"])
    types, anchors, tol = load_oracle(config, game)
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
        doc["exploitability"] = regularized_exploitability(game, anchors, types,
                                                           profile)
        doc["note"] = ("regularization penalty subtracted from expected reward "
                       "throughout")
    path = out / "oracle.json"
    path.write_text(dumps_json(doc, indent=2) + "\n")
    return [path]


def load_train_config(config: dict, game, seed: int = 0) -> RL.TrainConfig:
    """The rl section of a config as a `TrainConfig`."""
    _require(isinstance(game, G.TabularMarkovGame), "rl: needs a Markov game")
    rcfg = dict(config.get("rl", {}))
    preset = rcfg.pop("preset", None)
    if preset == "brbot":
        rcfg.setdefault("mode", "best_response")
    types_spec = rcfg.pop("types", [0.1])
    types = tuple(load_types(types_spec) for _ in range(game.player_count))
    fixed = sorted(set(rcfg) & {"distinguished_player", "search_mode",
                                "policy_step", "act_lambda"})
    _require(not fixed, f"rl: {', '.join(fixed)}: not settable from a config")
    with _config_errors("rl"):
        return RL.TrainConfig(
            search_iterations=int(rcfg.get("search_iterations", 256)),
            types=types,
            nash_explore=float(rcfg.get("nash_explore", 0.1)),
            episodes=int(rcfg.get("episodes", 1000)),
            alpha=float(rcfg.get("alpha", 0.1)),
            alpha_harmonic=bool(rcfg.get("alpha_harmonic", False)),
            top_k=rcfg.get("top_k"),
            mode=rcfg.get("mode", "standard"),
            seed=seed,
            checkpoint_every=int(rcfg.get("checkpoint_every", 100)),
        )


def run_rl(config: dict, seed: int, out: Path) -> list[Path]:
    game = load_game(config["game"])
    tcfg = load_train_config(config, game, seed)
    anchors = uniform_anchors(game)
    oracle_values = None
    oracle_profiles = None
    if game.zero_sum and tcfg.mode == "standard":
        lams = tcfg.types[0].lambdas
        if len(lams) == 1 and 0 < lams[0] < INF:
            oracle_values, oracle_profiles = solve_markov_backward(
                game, anchors, [lams[0], lams[0]])
    values, policy_table, metrics = RL.train(game, anchors, tcfg,
                                             oracle_values=oracle_values,
                                             oracle_profiles=oracle_profiles)
    metrics_path = out / "metrics.csv"
    fields = ["episode", "max_value_error", "mean_value_error",
              "mean_policy_kl", "mean_exploitability"]
    with open(metrics_path, "w") as fh:
        fh.write(",".join(fields) + "\n")
        for row in metrics:
            fh.write(",".join(
                "" if row.get(f) is None else
                (str(row[f]) if f == "episode" else format(row[f], ".17g"))
                for f in fields) + "\n")
    ckpt_path = out / "checkpoint.json"
    ckpt_path.write_text(dumps_json({
        "values": values.to_dict(),
        "policy_table": policy_table.to_dict(),
    }, indent=2) + "\n")
    return [metrics_path, ckpt_path]


def load_rate(config: dict):
    """The rate section as (games CSV, which must exist, sigma_prior, c)."""
    rcfg = config.get("rate", {})
    path = rcfg.get("games_csv")
    _require(path is not None, "rate.games_csv: required")
    _require(Path(path).exists(), f"rate.games_csv: {path} does not exist")
    return (path, _positive("rate.sigma_prior", rcfg.get("sigma_prior", 350.0)),
            _positive("rate.c", rcfg.get("c", R.ELO_SCALE)))


def run_rate(config: dict, seed: int, out: Path) -> list[Path]:
    path, sigma_prior, c = load_rate(config)
    model = R.fit_ratings(R.read_game_records(path), sigma_prior=sigma_prior,
                          c=c)
    out_path = out / "ratings.json"
    out_path.write_text(dumps_json(model.to_dict(), indent=2) + "\n")
    return [out_path]


def _load_agent(spec: dict, game) -> PE.AgentSpec:
    _require("id" in spec, "agent: id required")
    kind = spec.get("kind", "fixed")
    if kind == "fixed":
        pols = spec.get("policies")
        if pols is None:
            pols = [G.uniform_policy(game.action_counts[i])
                    for i in range(game.player_count)]
        with _config_errors(f"agent {spec['id']!r}"):
            agent = PE.AgentSpec(agent_id=spec["id"], kind="fixed",
                                 policies=tuple(np.array(p, float) for p in pols))
            if isinstance(game, G.NormalFormGame):
                PE.resolve_agent_policies(agent, game)
        return agent
    if kind == "search":
        anchors = spec.get("anchors")
        if anchors is None:
            anchors = [G.uniform_policy(game.action_counts[i])
                       for i in range(game.player_count)]
        return PE.AgentSpec(
            agent_id=spec["id"], kind="search",
            types=load_types(spec.get("types", [0.1])),
            act_lambda=parse_lambda(spec.get("act_lambda", 0.0)),
            anchor_policies=tuple(np.array(a, float) for a in anchors),
            search_iterations=int(spec.get("search_iterations", 256)),
        )
    raise ConfigError(f"agent.kind: unknown kind {kind!r}")


def load_popeval(config: dict, game):
    """The popeval section as (candidate, baselines, games)."""
    pcfg = config.get("popeval", {})
    _require("candidate" in pcfg, "popeval.candidate: required")
    _require("baselines" in pcfg and pcfg["baselines"],
             "popeval.baselines: non-empty list required")
    candidate = _load_agent(pcfg["candidate"], game)
    baselines = [_load_agent(b, game) for b in pcfg["baselines"]]
    return candidate, baselines, _integer("popeval.games",
                                          pcfg.get("games", 1000), 1)


def run_popeval(config: dict, seed: int, out: Path) -> list[Path]:
    game = load_game(config["game"])
    candidate, baselines, n_games = load_popeval(config, game)
    report = PE.run_population_eval(candidate, baselines, game, n_games,
                                    _sub_rng(seed, 1))
    json_path = out / "popeval_report.json"
    json_path.write_text(dumps_json(report.to_dict(), indent=2) + "\n")
    csv_path = out / "popeval_games.csv"
    report.write_game_csv(csv_path)
    return [json_path, csv_path]


#: What each kind's runner builds from the config before it starts; validating
#: a config builds the same.
LOADERS = {
    "solve": load_solve,
    "oracle": load_oracle,
    "rl": load_train_config,
    "popeval": load_popeval,
}

KINDS = {
    "solve": run_solve,
    "oracle": run_oracle,
    "rl": run_rl,
    "rate": run_rate,
    "popeval": run_popeval,
}


def validate_config(config: dict) -> None:
    _require(isinstance(config, dict), "config: must be a JSON object")
    kind = config.get("kind")
    _require(kind in KINDS, f"kind: must be one of {sorted(KINDS)}, got {kind!r}")
    seed = config.get("seed", 0)
    _require(isinstance(seed, int) and 0 <= seed < 2 ** 64,
             "seed: must be a 64-bit unsigned integer")
    if "iterations" in config:
        _integer("iterations", config["iterations"], 1)
    if kind == "rate":
        load_rate(config)
        return
    _require("game" in config, "game: required")
    LOADERS[kind](config, load_game(config["game"]))


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def run_experiment(config: dict, seed: int | None = None,
                   out: Path | str | None = None) -> dict:
    """Execute a validated config and return the artifact manifest."""
    validate_config(config)
    seed = config.get("seed", 0) if seed is None else seed
    out = Path(out if out is not None else config.get("out", "out"))
    out.mkdir(parents=True, exist_ok=True)
    files = KINDS[config["kind"]](config, seed, out)
    manifest = {
        "kind": config["kind"],
        "seed": seed,
        "artifacts": [
            {"path": f.name, "sha256": sha256_file(f)} for f in sorted(files)
        ],
    }
    (out / "manifest.json").write_text(dumps_json(manifest, indent=2) + "\n")
    return manifest


def list_builtins() -> str:
    lines = ["builtin games:"]
    lines += [f"  {name}" for name in BUILTIN_GAMES]
    lines.append("agent presets:")
    for name, spec in AGENT_PRESETS.items():
        lines.append(f"  {name}: {json.dumps(spec)}")
    return "\n".join(lines)


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
    p_val = sub.add_parser("validate", help="validate an experiment config")
    p_val.add_argument("config", type=Path)
    args = parser.parse_args(argv)

    if args.list_builtins:
        print(list_builtins())
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    try:
        config = json.loads(args.config.read_text())
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    except json.JSONDecodeError as exc:
        print(f"validation error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if args.command == "validate":
        try:
            validate_config(config)
        except ConfigError as exc:
            print(f"validation error: {exc}", file=sys.stderr)
            return 2
        print("ok")
        return 0
    try:
        manifest = run_experiment(config, seed=args.seed, out=args.out)
    except ConfigError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    except (RuntimeError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(dumps_json(manifest, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
