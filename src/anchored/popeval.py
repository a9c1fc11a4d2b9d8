"""Population-based evaluation: seats are drawn with replacement from a pool
of baseline agents plus the candidate, games without the candidate are
redrawn, and the candidate's sum-of-squares score share is aggregated over
all of its seats.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .games import NormalFormGame, TabularMarkovGame, TERMINAL, cdf, draw, sos_score
from .learners import Learners, TemperatureSchedule, TypeDistribution, run_selfplay

#: Rows of `popeval_games.csv` formatted per write.
GAME_CSV_BLOCK = 1024


@dataclass(frozen=True)
class AgentSpec:
    """Resolvable description of a playable agent.

    kind "fixed": plays `policies[seat]` directly (e.g. an anchor policy), or
    at state s of a Markov game row ``[s, seat]`` of an ``(S, P, W)`` array.
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
    learners = Learners(anchors, [agent.types] * n, TemperatureSchedule())
    run_selfplay(game, learners, agent.search_iterations, record=False)
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
        """One `game_id,seat,agent_id,score` row per seat, in the bytes
        `csv.writer` writes: each block of `GAME_CSV_BLOCK` rows fills one
        `%`-template, with every agent id quoted once as csv quotes it."""
        seats = self.scores.shape[1]
        ids = self.seatings.ravel()
        field = {a: _csv_field(a) for a in set(ids.tolist())}
        scores = self.scores.ravel()
        row = "%d,%d,%s,%.17g\r\n"
        with open(path, "w", newline="") as fh:
            fh.write("game_id,seat,agent_id,score\r\n")
            for start in range(0, ids.size, GAME_CSV_BLOCK):
                stop = min(start + GAME_CSV_BLOCK, ids.size)
                game_ids, seat = np.divmod(np.arange(start, stop), seats)
                cells = zip(game_ids.tolist(), seat.tolist(),
                            map(field.__getitem__, ids[start:stop].tolist()),
                            scores[start:stop].tolist())
                fh.write(row * (stop - start) % tuple(chain.from_iterable(cells)))


def _csv_field(text: str) -> str:
    """`text` as `csv.writer` writes it inside a row of several fields (an
    empty field is quoted only when it is a row's one field)."""
    buf = io.StringIO()
    csv.writer(buf).writerow((0, text, 0))
    return buf.getvalue()[2:-4]


def mean_and_se(scores) -> tuple[float, float]:
    """Arithmetic mean and standard error (sample std over sqrt(n))."""
    x = np.asarray(scores, dtype=float)
    if x.size < 2:
        raise ValueError("need at least 2 scores for a standard error")
    return float(x.mean()), float(x.std(ddof=1) / np.sqrt(x.size))


def _play_markov(game: TabularMarkovGame, seat_cdfs,
                 rng: np.random.Generator) -> np.ndarray:
    """Roll out one episode with fixed policies, given per seat as the `cdf`
    of one vector for every state (as long as the seat's action count in
    each) or a tuple of one cdf per state; returns accumulated discounted
    rewards."""
    totals = np.zeros(game.player_count)
    s = game.initial_state
    disc = 1.0
    for _ in range(game.horizon):
        u = rng.random(game.player_count).tolist()
        joint = []
        for i, c in enumerate(seat_cdfs):
            joint.append(draw(c[s] if isinstance(c, tuple) else c, u[i]))
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
        return game.payoffs.min() >= 0 and (game.payoffs > 0).any(axis=0).all()
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
    """Score the candidate over `n_games` ≥ 2 games with roster seats sampled
    uniformly with replacement; games without the candidate are rejected and
    redrawn.  Outcomes are converted to score shares with sum-of-squares
    scoring, so the game must be `scorable`.

    The generator calls are those of one game at a time: per seating attempt
    `rng.integers(len(roster), size=seats)`, then `rng.random(seats)` for the
    seats' actions, or the rollout's draws on a Markov game.  On a normal-form
    game the actions and outcomes of all games are then one array pass."""
    baselines = list(baselines)
    if not baselines:
        raise ValueError("empty baseline pool")
    if not scorable(game):
        raise ValueError("sum-of-squares scoring needs outcomes that are "
                         "nonnegative and never all zero")
    if n_games < 2:
        raise ValueError("need at least 2 games for a standard error")
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
    cdfs = [[tuple(cdf(q[i, :n[i]]) for q, n in zip(p, game.action_counts))
             if np.ndim(p) == 3 else cdf(p)
             for i, p in enumerate(policies)] for policies in resolved]
    if is_markov:       # a one-vector seat plays in every state
        for agent, policies in zip(roster, resolved):
            for i, p in enumerate(policies):
                if np.ndim(p) != 3 and any(len(p) != n[i] for n in game.action_counts):
                    raise ValueError(f"agent {agent.agent_id}: bad policy at seat {i}")
    cand = len(roster) - 1
    seats = np.empty((n_games, n_seats), dtype=int)
    rows = np.empty((n_games, n_seats))     # Markov outcomes, else the uniforms
    for g in range(n_games):
        picks = ()
        while cand not in picks:
            picks = rng.integers(len(roster), size=n_seats).tolist()
        seats[g] = picks
        rows[g] = (_play_markov(game, [cdfs[k][i] for i, k in enumerate(picks)], rng)
                   if is_markov else rng.random(n_seats))
    outcomes = rows if is_markov else _outcomes(game, cdfs, seats, rows)
    scores = sos_score(outcomes)
    candidate_scores = scores[seats == cand]
    return PopEvalReport(candidate.agent_id, n_games, np.array(ids)[seats], scores,
                         candidate_scores, *mean_and_se(candidate_scores))


def _outcomes(game: NormalFormGame, cdfs, seats: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Every game's outcomes, each seat acting by `draw` of its uniform from
    the cdf of the agent seated there: the count of cdf entries ≤ u, with the
    cdf table padded by inf."""
    table = np.full((len(cdfs), game.player_count, max(game.action_counts)), np.inf)
    for k, row in enumerate(cdfs):
        for i, c in enumerate(row):
            table[k, i, :len(c)] = c
    actions = (table[seats, np.arange(game.player_count)] <= u[..., None]).sum(-1)
    return np.moveaxis(game.payoffs, 0, -1)[tuple(actions.T)]
