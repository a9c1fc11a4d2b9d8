"""The workloads: each one's fixed job list, the files it needs, and the
check every job's output must pass.

A workload is built from the benchmark seed alone.  Each job is one
`anchored run <config> --out <dir>` call.  Job sizes are chosen so that one
round of the job list takes a few seconds on a 2-core machine, so a run
repeats it several times.  Jobs of one class do about the same work whatever
the seed, and each list has a distinct slowest class with more than 10
samples per run, so the median and the tail latency fall inside a class
rather than on the boundary between two.

Two workloads between them reach every layer: `rl` (per-state search,
backward induction, Nash-V updates) and `league` (population evaluation, the
rating fit, and two short `solve` jobs that run the learner with trace
recording on).  Fewer, longer runs keep the run-to-run spread down on a
machine whose speed drifts by tens of percent over minutes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

MP_ANCHORS = [[0.7, 0.3], [0.5, 0.5]]
ELO_SCALE = 400.0 * math.log10(math.e)
SEAT_BIASES = [59.0, 27.0, 18.0, -16.0, -21.0, -24.0, -43.0]


@dataclass
class Job:
    label: str
    config: dict
    check: str
    expect: dict = field(default_factory=dict)
    path: Path | None = None     # the config file, once written


def _solve_jobs(rnd: random.Random) -> list[Job]:
    # The learner with trace recording on: a 3-type random 3x3 game with
    # sampled feedback and matching pennies at lambda = 0.1 with expected
    # feedback.  Pennies runs twice the iterations so both cost about the same,
    # and both stay shorter than a popeval job, so the median job latency of
    # the league list falls inside the popeval cluster.
    learner = {"schedule": {"mode": "constant_eta", "eta": 0.5}}
    rzs = {"builtin": "random_zero_sum",
           "params": {"seed": rnd.randrange(2 ** 31)}}
    return [
        Job("solve-rzs3", {"kind": "solve", "seed": rnd.randrange(2 ** 31),
                           "game": rzs, "learner": {
                               **learner, "mode": "sampled",
                               "types": [0.01, 0.1, 1.0],
                               "iterations": 500}}, "regret"),
        Job("solve-pennies", {"kind": "solve",
                              "seed": rnd.randrange(2 ** 31),
                              "game": {"builtin": "matching_pennies"},
                              "learner": {**learner, "mode": "expected",
                                          "types": [0.1],
                                          "anchors": MP_ANCHORS,
                                          "iterations": 1000}}, "regret"),
    ]


def _markov(rnd: random.Random, states: int, horizon: int) -> dict:
    return {"random_markov": {
        "seed": rnd.randrange(2 ** 31), "states": states, "actions": 3,
        "horizon": horizon, "zero_sum": True}}


def _rl_jobs(rnd: random.Random, work: Path) -> list[Job]:
    # Per group: the criterion-6 shape and a 40-state game in standard mode
    # (with the exact oracle at two checkpoints), and a best-response job.
    episodes = 12
    rl = {"types": [0.5], "episodes": episodes, "search_iterations": 64,
          "alpha_harmonic": True, "checkpoint_every": episodes // 2}
    jobs = []
    for _ in range(2):
        for label, states, extra in (("std-5", 5, {}), ("std-40", 40, {}),
                                     ("brbot-5", 5, {"preset": "brbot"})):
            jobs.append(Job(label, {
                "kind": "rl", "seed": rnd.randrange(2 ** 31),
                "game": _markov(rnd, states, 4), "rl": {**rl, **extra}},
                "rl", {"standard": not extra}))
    return jobs


def _write_popeval_game(rnd: random.Random, path: Path) -> None:
    """Seeded 7-seat, 3-action game with payoffs in [0, 1]."""
    import numpy as np
    from anchored.games import NormalFormGame

    rng = np.random.default_rng(rnd.randrange(2 ** 31))
    shape = (3,) * 7
    game = NormalFormGame(shape, tuple(rng.uniform(0.0, 1.0, size=shape)
                                       for _ in range(7)), payoff_bound=1.0)
    path.write_text(json.dumps(game.to_dict()))


def _write_rating_csv(rnd: random.Random, path: Path, n_games: int,
                      n_players: int) -> dict:
    """Exact-share games under known ratings and seat biases; returns them."""
    import numpy as np

    rng = np.random.default_rng(rnd.randrange(2 ** 31))
    names = [f"p{i:03d}" for i in range(n_players)]
    ratings = rng.uniform(-40.0, 40.0, size=n_players)
    seats = rng.integers(n_players, size=(n_games, len(SEAT_BIASES)))
    z = (ratings[seats] + np.array(SEAT_BIASES)) / ELO_SCALE
    e = np.exp(z - z.max(axis=1, keepdims=True))
    shares = e / e.sum(axis=1, keepdims=True)
    with open(path, "w") as fh:
        fh.write("game_id,seat_index,player_id,score_share\n")
        for g in range(n_games):
            for s in range(len(SEAT_BIASES)):
                fh.write(f"g{g:05d},{s},{names[seats[g, s]]},"
                         f"{shares[g, s]:.17g}\n")
    used = set(seats.ravel().tolist())
    return {"ratings": {names[i]: float(ratings[i]) for i in sorted(used)},
            "seat_biases": SEAT_BIASES}


def _league_jobs(rnd: random.Random, work: Path) -> list[Job]:
    game_path = work / "popeval_game.json"
    _write_popeval_game(rnd, game_path)
    game = {"file": str(game_path.resolve())}
    pool = [{"id": "uniform", "kind": "fixed"},
            {"id": "fixed", "kind": "fixed",
             "policies": [_random_policy(rnd) for _ in range(7)]}]
    for preset, act in (("diplodocus_low", 1e-4), ("diplodocus_high", 1e-2)):
        pool.append({"id": preset, "kind": "search",
                     "types": {"preset": preset}, "act_lambda": act,
                     "search_iterations": 32})
    jobs = _solve_jobs(rnd)
    for k, candidate in enumerate(pool):
        jobs.append(Job(f"popeval-{candidate['id']}", {
            "kind": "popeval", "seed": rnd.randrange(2 ** 31), "game": game,
            "popeval": {"candidate": candidate,
                        "baselines": pool[:k] + pool[k + 1:],
                        "games": 1000}}, "popeval", {"games": 1000}))
    # Two rating sets of one size, so the slowest jobs are all alike and the
    # tail latency sits inside their cluster.
    for k in range(2):
        n_games, n_players = 3500, 75
        csv_path = work / f"games{k}_{n_games}x{n_players}.csv"
        truth = _write_rating_csv(rnd, csv_path, n_games, n_players)
        jobs.append(Job(f"rate{k}-{n_games}x{n_players}", {
            "kind": "rate", "seed": rnd.randrange(2 ** 31),
            "rate": {"games_csv": str(csv_path.resolve())}}, "rate", truth))
    return jobs


def _random_policy(rnd: random.Random) -> list[float]:
    w = [rnd.random() + 0.05 for _ in range(3)]
    return [x / sum(w) for x in w]


JOB_LISTS = {
    "rl": _rl_jobs,
    "league": _league_jobs,
}


def build(workload: str, seed: int, work: Path) -> list[Job]:
    """Write the workload's game, CSV and config files under `work` and
    return its job list."""
    work.mkdir(parents=True, exist_ok=True)
    jobs = JOB_LISTS[workload](random.Random(f"{workload}:{seed}"), work)
    for k, job in enumerate(jobs):
        job.path = work / f"job{k}.json"
        job.path.write_text(json.dumps(job.config))
    return jobs


def add_references(jobs: list[Job]) -> None:
    """Give every rl job the values its output is checked against, solved
    once per run, outside the timed set-up and rounds.

    A standard job learns the regularized equilibrium of its game at its
    lambda, so its reference is exact backward induction at that lambda.  A
    brbot job's player 0 best-responds (lambda = 0) to player 1 playing its
    uniform anchor (lambda = inf), so its reference is the value of that best
    response."""
    import numpy as np
    from anchored import cli, oracle
    from anchored.games import TERMINAL

    for job in jobs:
        if job.check != "rl":
            continue
        game = cli.load_game(job.config["game"])
        anchors = oracle.uniform_anchors(game)
        if job.expect["standard"]:
            lam = job.config["rl"]["types"][0]
            values, _ = oracle.solve_markov_backward(game, anchors, [lam, lam])
        else:
            values = {}

            def solve(s):
                if s in values:
                    return
                for a in game.joint_actions(s):
                    for s2, _ in game.successors(s, a):
                        if s2 != TERMINAL:
                            solve(s2)
                stage = oracle.stage_game_from_values(game, s, values)
                v = float(np.max(stage.payoffs[0] @ anchors[(s, 1)]))
                values[s] = np.array([v, -v])

            for s in range(game.state_count):
                solve(s)
        job.expect["reference"] = {s: v.tolist() for s, v in values.items()}
        job.expect["initial_state"] = game.initial_state


# ---------------------------------------------------------------------------
# Output checks.  Each returns None when the job's artifacts are right, or a
# one-line reason.
# ---------------------------------------------------------------------------

def _read(out: Path, name: str):
    return json.loads((out / name).read_text())


def _check_regret(out: Path, job: Job):
    # The bound is the seed code's own (oracle.regret_bound).
    reports = _read(out, "regret_report.json")["reports"]
    bad = [r for r in reports if r["bound"] is None
           or not r["regret"] <= r["bound"]]
    if not reports or bad:
        return f"{len(bad)} of {len(reports)} regret reports exceed their bound"
    return None


def _check_rl(out: Path, job: Job):
    values = {int(s): v for s, v in
              _read(out, "checkpoint.json")["values"].items()}
    asym = max(abs(v[0] + v[1]) for v in values.values())
    if not asym <= 1e-9:
        return f"value asymmetry {asym:.3g} > 1e-9"
    reference = job.expect["reference"]
    errors = {s: max(abs(a - b) for a, b in zip(values[s], ref))
              for s, ref in reference.items()}
    # A state's first visit sets its value with step size 1, so the states
    # still at exactly 0 are the unvisited ones.
    visited = [s for s in reference if any(v != 0.0 for v in values[s])]
    if job.expect["initial_state"] not in visited:
        return "the initial state was never updated"
    relative = (sum(errors[s] for s in visited)
                / sum(abs(reference[s][0]) for s in visited))
    if not relative < RL_RELATIVE_ERROR_BOUND:
        return (f"value error at visited states {relative:.3f} of the "
                f"reference's size >= {RL_RELATIVE_ERROR_BOUND}")
    if job.expect["standard"]:
        rows = (out / "metrics.csv").read_text().splitlines()
        header, last = rows[0].split(","), rows[-1].split(",")
        reported = float(last[header.index("max_value_error")])
        if not abs(reported - max(errors.values())) <= 1e-9:
            return (f"reported max_value_error {reported:.6g}, against the "
                    f"reference {max(errors.values()):.6g}")
    return None


# sum |V(s) - V_ref(s)| / sum |V_ref(s)| over the visited states.  After 12
# episodes at 64 search iterations it is 0.04-0.42 on the 5-state games,
# 0.06-0.52 on the 40-state games and 0.03-0.25 on brbot jobs (seeds 1-24).
# A search that returns the anchor instead of searching scores 0.78-2.0 on
# brbot jobs; a Nash-V update that does nothing leaves every state at 0.
RL_RELATIVE_ERROR_BOUND = 0.7


def _check_popeval(out: Path, job: Job):
    doc = _read(out, "popeval_report.json")
    if doc["games_played"] != job.expect["games"]:
        return f"played {doc['games_played']} games"
    if not 0.0 <= doc["mean"] <= 1.0 or not doc["standard_error"] > 0.0:
        return f"mean {doc['mean']} / SE {doc['standard_error']} out of range"
    return None


def _check_rate(out: Path, job: Job):
    doc = _read(out, "ratings.json")
    truth = job.expect["ratings"]
    if sorted(doc["players"]) != sorted(truth):
        return "player set differs from the generated games"
    diff = [doc["players"][p] - r for p, r in truth.items()]
    rating_err = max(diff) - min(diff)   # worst error of a rating difference
    bias_err = max(abs(a - b) for a, b in zip(doc["seat_biases"],
                                               job.expect["seat_biases"]))
    if not (rating_err <= 1.0 and bias_err <= 1.0):
        return f"rating error {rating_err:.3f} / bias error {bias_err:.3f} Elo"
    return None


CHECKS = {
    "regret": _check_regret,
    "rl": _check_rl,
    "popeval": _check_popeval,
    "rate": _check_rate,
}
