"""Population-based evaluation: seats are drawn with replacement from a pool
of baseline agents plus the candidate, games without the candidate are
redrawn, and the candidate's sum-of-squares score share is aggregated over
all of its seats.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .games import NormalFormGame, TabularMarkovGame, TERMINAL, cdf, draw, sos_score
from .learners import Learners, TemperatureSchedule, TypeDistribution, run_selfplay


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
        out = [np.asarray(p, dtype=float) for p in agent.policies]
        for seat, p in enumerate(out):
            if p.shape != (game.action_counts[seat],):
                raise ValueError(f"agent {agent.agent_id}: bad policy at seat {seat}")
        return out
    anchors = agent.anchor_policies
    if len(anchors) != n:
        raise ValueError(f"agent {agent.agent_id}: need one anchor per seat")
    learners = Learners(anchors, [agent.types] * n, TemperatureSchedule.adaptive())
    run_selfplay(game, learners, agent.search_iterations, mode="expected",
                 record=False)
    return [learners.policy(i, agent.act_lambda) for i in range(n)]


@dataclass
class PopEvalReport:
    """`seatings` is the (games, seats) array of agent ids, `scores` the
    score shares of those seats and `candidate_scores` the candidate's
    shares in game-then-seat order."""

    candidate_id: str
    games_played: int
    seatings: np.ndarray
    scores: np.ndarray
    candidate_scores: np.ndarray
    mean: float
    standard_error: float

    def to_dict(self) -> dict:
        return {
            "candidate": self.candidate_id,
            "games_played": self.games_played,
            "mean": self.mean,
            "standard_error": self.standard_error,
            "candidate_seat_count": len(self.candidate_scores),
        }

    def write_game_csv(self, path) -> None:
        game_ids, seats = np.indices(self.scores.shape).reshape(2, -1).tolist()
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["game_id", "seat", "agent_id", "score"])
            w.writerows(zip(game_ids, seats, self.seatings.ravel().tolist(),
                            [f"{sc:.17g}" for sc in self.scores.ravel().tolist()]))


def mean_and_se(scores) -> tuple[float, float]:
    """Arithmetic mean and standard error (sample std over sqrt(n))."""
    x = np.asarray(scores, dtype=float)
    if x.size < 2:
        raise ValueError("need at least 2 scores for a standard error")
    return float(x.mean()), float(x.std(ddof=1) / np.sqrt(x.size))


def _play_normal_form(game: NormalFormGame, seat_cdfs,
                      rng: np.random.Generator) -> np.ndarray:
    u = rng.random(game.player_count).tolist()
    return game.pure_utilities(tuple(map(draw, seat_cdfs, u)))


def _play_markov(game: TabularMarkovGame, seat_cdfs,
                 rng: np.random.Generator) -> np.ndarray:
    """Roll out one episode with fixed policies, given as the `cdf` of one
    vector for every state or a {(state, player): cdf} table; returns
    accumulated discounted rewards."""
    totals = np.zeros(game.player_count)
    s = game.initial_state
    disc = 1.0
    for _ in range(game.horizon):
        u = rng.random(game.player_count).tolist()
        joint = []
        for i, c in enumerate(seat_cdfs):
            c = c[(s, i)] if isinstance(c, dict) else c
            if len(c) != game.action_counts[s][i]:
                raise ValueError("a and p must have same size")
            joint.append(draw(c, u[i]))
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
    resolved = [a.policies if is_markov else resolve_agent_policies(a, game)
                for a in roster]
    cdfs = [[{k: cdf(v) for k, v in p.items()} if isinstance(p, dict) else cdf(p)
             for p in policies] for policies in resolved]
    play = _play_markov if is_markov else _play_normal_form
    cand = len(roster) - 1
    seats = np.empty((n_games, n_seats), dtype=int)
    outcomes = np.empty((n_games, n_seats))
    for g in range(n_games):
        picks = ()
        while cand not in picks:
            picks = rng.integers(len(roster), size=n_seats).tolist()
        seats[g] = picks
        outcomes[g] = play(game, [cdfs[k][i] for i, k in enumerate(picks)], rng)
    scores = sos_score(outcomes)
    candidate_scores = scores[seats == cand]
    return PopEvalReport(candidate.agent_id, n_games, np.array(ids)[seats], scores,
                         candidate_scores, *mean_and_se(candidate_scores))
