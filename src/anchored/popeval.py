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
    learners = [
        Learner(player=i, n_actions=game.action_counts[i],
                anchor=np.asarray(anchors[i], float), types=agent.types,
                schedule=TemperatureSchedule.adaptive())
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


def _play_markov(game: TabularMarkovGame, seat_policies,
                 rng: np.random.Generator) -> np.ndarray:
    """Roll out one episode with fixed policies, each one vector for every
    state or a {(state, player): vector} table; returns accumulated
    discounted rewards."""
    totals = np.zeros(game.player_count)
    s = game.initial_state
    disc = 1.0
    for _ in range(game.horizon):
        joint = tuple(
            int(rng.choice(game.action_counts[s][i],
                           p=p[(s, i)] if isinstance(p, dict) else p))
            for i, p in enumerate(seat_policies)
        )
        totals += disc * game.reward(s, joint)
        disc *= game.gamma
        s = game.sample_successor(s, joint, rng)
        if s == TERMINAL:
            break
    return totals


def scorable(game) -> bool:
    """Whether sum-of-squares scoring can score every game played on `game`:
    its outcomes are nonnegative and never all zero."""
    if isinstance(game, NormalFormGame):
        u = np.stack(game.payoffs)
        return u.min() >= 0 and (u > 0).any(axis=0).all()
    # zero[s]: an episode from s can end with every return zero; zero[TERMINAL]
    # is the last entry.  With gamma = 0 only the first reward counts.
    zero = np.ones(game.state_count + 1, dtype=bool)
    for _ in range(game.horizon if game.gamma > 0 else 1):
        zero[:-1] = [
            ((r == 0).all(axis=0) & (t[..., zero[list(nxt)]] > 0).any(axis=-1)).any()
            for r, t, nxt in zip(game.R, game.T, game.next_states)]
    return all(r.min() >= 0 for r in game.R) and not zero[game.initial_state]


def run_population_eval(candidate: AgentSpec, baselines, game, n_games: int,
                        rng: np.random.Generator) -> PopEvalReport:
    """Score the candidate over `n_games` games with roster seats sampled
    uniformly with replacement; games without the candidate are rejected and
    redrawn.  Outcomes are converted to score shares with sum-of-squares
    scoring, so the game must be `scorable`."""
    baselines = list(baselines)
    if not baselines:
        raise ValueError("empty baseline pool")
    if not scorable(game):
        raise ValueError("sum-of-squares scoring needs outcomes that are "
                         "nonnegative and never all zero")
    if n_games < 1:
        raise ValueError("need at least one game")
    roster = baselines + [candidate]
    ids = [a.agent_id for a in roster]
    if len(set(ids)) != len(ids):
        raise ValueError("agent ids in the roster must be unique")
    is_markov = isinstance(game, TabularMarkovGame)
    n_seats = game.player_count
    if is_markov and any(a.kind != "fixed" for a in roster):
        raise ValueError("search agents are not supported on Markov games; "
                         "resolve them to a fixed policy table first")
    resolved = {a.agent_id: a.policies if is_markov else resolve_agent_policies(a, game)
                for a in roster}
    report = PopEvalReport(candidate.agent_id, n_games)
    for _ in range(n_games):
        while True:
            picks = rng.integers(len(roster), size=n_seats)
            if np.any(picks == len(roster) - 1):
                break
        seating = [roster[k].agent_id for k in picks]
        policies = [resolved[seating[i]][i] for i in range(n_seats)]
        outcome = (_play_markov if is_markov else _play_normal_form)(game, policies, rng)
        scores = sos_score(outcome)
        report.seatings.append(seating)
        report.scores.append(scores.tolist())
        for seat, aid in enumerate(seating):
            if aid == candidate.agent_id:
                report.candidate_scores.append(float(scores[seat]))
    report.mean, report.standard_error = mean_and_se(report.candidate_scores)
    return report
