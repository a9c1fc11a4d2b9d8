"""Population-based evaluation: seats are drawn with replacement from a pool
of baseline agents plus the candidate, games without the candidate are
redrawn, and the candidate's sum-of-squares score share is aggregated over
all of its seats.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .games import NormalFormGame, TabularMarkovGame, TERMINAL, sos_score
from .learners import Learner, TemperatureSchedule, TypeDistribution, run_selfplay


@dataclass(frozen=True)
class AgentSpec:
    """Resolvable description of a playable agent.

    kind "fixed": plays `policies[seat]` directly (e.g. an anchor policy).
    kind "search": runs anchored self-play search on the game assuming every
    seat follows the population model, then acts with `act_lambda`.
    """

    agent_id: str
    kind: str = "fixed"
    policies: tuple = ()                 # fixed: one policy per seat
    types: TypeDistribution | None = None
    act_lambda: float = 0.0
    anchor_policies: tuple = ()          # search: anchors per seat
    schedule: TemperatureSchedule | None = None
    search_iterations: int = 256

    def __post_init__(self):
        if self.kind not in ("fixed", "search"):
            raise ValueError(f"unknown agent kind {self.kind!r}")
        if self.kind == "search" and self.types is None:
            raise ValueError("search agents need a type distribution")


def resolve_agent_policies(agent: AgentSpec, game: NormalFormGame) -> list:
    """Per-seat policy the agent plays in a one-shot game."""
    n = game.player_count
    if agent.kind == "fixed":
        if len(agent.policies) != n:
            raise ValueError(f"agent {agent.agent_id}: need one policy per seat")
        out = []
        for seat in range(n):
            p = np.asarray(agent.policies[seat], dtype=float)
            if p.shape != (game.action_counts[seat],):
                raise ValueError(f"agent {agent.agent_id}: bad policy at seat {seat}")
            out.append(p)
        return out
    anchors = agent.anchor_policies
    if len(anchors) != n:
        raise ValueError(f"agent {agent.agent_id}: need one anchor per seat")
    schedule = agent.schedule or TemperatureSchedule.adaptive()
    learners = [
        Learner(player=i, n_actions=game.action_counts[i],
                anchor=np.asarray(anchors[i], float), types=agent.types,
                schedule=schedule)
        for i in range(n)
    ]
    run_selfplay(game, learners, agent.search_iterations, mode="expected",
                 record=False)
    return [ln.policy(agent.act_lambda) for ln in learners]


@dataclass
class PopEvalReport:
    candidate_id: str
    games_played: int
    seatings: list = field(default_factory=list)       # per game: agent id per seat
    scores: list = field(default_factory=list)         # per game: score per seat
    candidate_scores: list = field(default_factory=list)
    mean: float = 0.0
    standard_error: float = 0.0

    def to_dict(self) -> dict:
        return {
            "candidate": self.candidate_id,
            "games_played": self.games_played,
            "mean": self.mean,
            "standard_error": self.standard_error,
            "candidate_seat_count": len(self.candidate_scores),
        }

    def write_game_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["game_id", "seat", "agent_id", "score"])
            for g, (seating, scores) in enumerate(zip(self.seatings, self.scores)):
                for seat, (aid, sc) in enumerate(zip(seating, scores)):
                    w.writerow([g, seat, aid, f"{sc:.17g}"])


def mean_and_se(scores) -> tuple[float, float]:
    """Arithmetic mean and standard error (sample std over sqrt(n))."""
    x = np.asarray(scores, dtype=float)
    if x.size < 2:
        raise ValueError("need at least 2 scores for a standard error")
    return float(x.mean()), float(x.std(ddof=1) / np.sqrt(x.size))


def _play_normal_form(game: NormalFormGame, seat_policies,
                      rng: np.random.Generator) -> np.ndarray:
    joint = tuple(
        int(rng.choice(game.action_counts[i], p=seat_policies[i]))
        for i in range(game.player_count)
    )
    return game.pure_utilities(joint)


def _play_markov(game: TabularMarkovGame, seat_tables,
                 rng: np.random.Generator) -> np.ndarray:
    """Roll out one episode with fixed per-(state, player) policies; returns
    accumulated discounted rewards."""
    totals = np.zeros(game.player_count)
    s = game.initial_state
    disc = 1.0
    for _ in range(game.horizon):
        joint = tuple(
            int(rng.choice(game.action_counts[s][i], p=seat_tables[i][(s, i)]))
            for i in range(game.player_count)
        )
        totals += disc * game.reward(s, joint)
        disc *= game.gamma
        succ = game.successors(s, joint)
        states = [s2 for s2, _ in succ]
        probs = np.array([p for _, p in succ])
        s = states[int(rng.choice(len(states), p=probs / probs.sum()))]
        if s == TERMINAL:
            break
    return totals


def run_population_eval(candidate: AgentSpec, baselines, game, n_games: int,
                        rng: np.random.Generator) -> PopEvalReport:
    """Score the candidate over `n_games` games with roster seats sampled
    uniformly with replacement; games without the candidate are rejected and
    redrawn.  Outcomes are converted to score shares with sum-of-squares
    scoring, so game payoffs must be nonnegative and not all zero."""
    baselines = list(baselines)
    if not baselines:
        raise ValueError("empty baseline pool")
    if n_games < 1:
        raise ValueError("need at least one game")
    roster = baselines + [candidate]
    ids = [a.agent_id for a in roster]
    if len(set(ids)) != len(ids):
        raise ValueError("agent ids in the roster must be unique")
    is_markov = isinstance(game, TabularMarkovGame)
    n_seats = game.player_count
    if is_markov:
        resolved = {
            a.agent_id: [
                {(s, i): a.policies[i][(s, i)] if isinstance(a.policies[i], dict)
                 else a.policies[i]
                 for s in range(game.state_count)}
                for i in range(n_seats)
            ] if a.kind == "fixed" else None
            for a in roster
        }
        for a in roster:
            if resolved[a.agent_id] is None:
                raise ValueError("search agents are not supported on Markov games; "
                                 "resolve them to a fixed policy table first")
    else:
        resolved = {a.agent_id: resolve_agent_policies(a, game) for a in roster}
    report = PopEvalReport(candidate.agent_id, n_games)
    for _ in range(n_games):
        while True:
            picks = rng.integers(len(roster), size=n_seats)
            if np.any(picks == len(roster) - 1):
                break
        seating = [roster[k].agent_id for k in picks]
        if is_markov:
            tables = [resolved[seating[i]][i] for i in range(n_seats)]
            outcome = _play_markov(game, tables, rng)
        else:
            policies = [resolved[seating[i]][i] for i in range(n_seats)]
            outcome = _play_normal_form(game, policies, rng)
        if np.any(outcome < 0):
            raise ValueError("sum-of-squares scoring needs nonnegative outcomes")
        scores = sos_score(outcome)
        report.seatings.append(seating)
        report.scores.append(scores.tolist())
        for seat, aid in enumerate(seating):
            if aid == candidate.agent_id:
                report.candidate_scores.append(float(scores[seat]))
    report.mean, report.standard_error = mean_and_se(report.candidate_scores)
    return report
