"""Tabular self-play value iteration driven by anchored equilibrium search.

At every visited state a one-step lookahead stage game is built from the
current value table, a DiL-piKL search produces an equilibrium policy sigma,
the value table moves toward the resulting stage value, the policy table moves
toward sigma, and the episode advances by sampling the (possibly
epsilon-explored) joint action.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .games import TERMINAL, NormalFormGame, TabularMarkovGame, cdf, draw
from .learners import (INF, Learner, TemperatureSchedule, TypeDistribution,
                       run_selfplay)
from .oracle import (kl_divergence, regularized_exploitability,
                     stage_game_from_values)


@dataclass(frozen=True)
class TrainConfig:
    search_iterations: int = 256
    types: tuple[TypeDistribution, ...] = ()
    nash_explore: float = 0.1
    episodes: int = 1000
    alpha: float = 0.1
    alpha_harmonic: bool = False    # alpha = 1 / visit count when set
    top_k: int | None = None        # None: no action restriction
    mode: str = "standard"          # standard | NPU | best_response
    distinguished_player: int = 0   # only used in best_response mode
    policy_step: float = 0.1
    seed: int = 0
    checkpoint_every: int = 100

    def __post_init__(self):
        if not (0.0 <= self.nash_explore <= 1.0):
            raise ValueError("nash_explore must be in [0, 1]")
        if not (0.0 <= self.alpha <= 1.0):      # also rejects NaN
            raise ValueError("alpha must be in [0, 1]")
        if self.search_iterations < 1:
            raise ValueError("search_iterations must be >= 1")
        if self.mode not in ("standard", "NPU", "best_response"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.distinguished_player < 0 or (
                self.types and self.distinguished_player >= len(self.types)):
            raise ValueError("distinguished_player out of range")
        if not (0.0 < self.policy_step <= 1.0):   # also rejects NaN
            raise ValueError("policy_step must be in (0, 1]")
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")


def nashv_update(values: dict, s: int, sigma, stage: NormalFormGame,
                 alpha: float) -> None:
    """V(s) <- (1 - alpha) V(s) + alpha * E_sigma[u(a)] in the `{s: vector}`
    dict `values`.  `stage` is the stage game r + gamma * E[V(s')] at s
    (`stage_game_from_values`), and the expectation is under the product of
    the per-player policies in sigma.

    The target sums p(a) u(a) over joint actions one at a time, in product
    order."""
    if s == TERMINAL:
        raise ValueError("cannot update the terminal state")
    p = reduce(np.multiply.outer, sigma).ravel()
    u = np.array(stage.payoffs).reshape(stage.player_count, -1)
    target = np.add.reduce((p * u).T.copy(), axis=0, initial=0.0)
    values[s] = (1 - alpha) * values[s] + alpha * target


def _search_types(config: TrainConfig, n_players: int):
    if config.mode == "best_response":
        return tuple(
            TypeDistribution.singleton(0.0) if i == config.distinguished_player
            else TypeDistribution.singleton(INF)
            for i in range(n_players)
        )
    if len(config.types) != n_players:
        raise ValueError("need one type distribution per player")
    return config.types


def search_state(stage: NormalFormGame, anchors, types, iterations: int):
    """Run the deterministic (expected-feedback) anchored-learning search on a
    stage game and return each player's belief-weighted average policy.
    Players whose only type is lambda = inf play their anchor and sit out."""
    anchored_only = [td.lambdas == (INF,) for td in types]
    if all(anchored_only):
        return [np.array(a, dtype=float) for a in anchors]
    learners = [Learner(player=i, n_actions=n, anchor=np.asarray(anchors[i], float),
                        types=types[i], schedule=TemperatureSchedule.adaptive())
                for i, n in enumerate(stage.action_counts)]
    run_selfplay(stage, learners, iterations, mode="expected", record=False)
    return [np.array(a, dtype=float) if only else ln.average_mixture_policy()
            for a, only, ln in zip(anchors, anchored_only, learners)]


def _restrict_stage(stage: NormalFormGame, keep):
    """Restrict a stage game to per-player action subsets."""
    return NormalFormGame(tuple(map(len, keep)),
                          tuple(u[np.ix_(*keep)] for u in stage.payoffs),
                          payoff_bound=stage.payoff_bound, zero_sum=stage.zero_sum)


@dataclass
class EpisodeRecord:
    states: list
    actions: list
    sigmas: list


def run_episode(game: TabularMarkovGame, values: dict, policy_table: dict,
                anchors: dict, config: TrainConfig, rng: np.random.Generator,
                visit_counts: dict | None = None,
                proposal_table: dict | None = None) -> EpisodeRecord:
    """Play one self-play episode from the initial state, updating the
    `{s: vector}` values and the `{(s, i): vector}` policy table at every
    visited state.  A policy entry is replaced by
    `(1 - policy_step) * old + policy_step * sigma`, never changed in place.

    `proposal_table` is the table consulted for the top-k action restriction;
    in NPU mode the caller passes a frozen copy so the restriction never moves
    while the trained table still tracks sigma.
    """
    types = _search_types(config, game.player_count)
    proposals = proposal_table if proposal_table is not None else policy_table
    record = EpisodeRecord([], [], [])
    s = game.initial_state
    for _ in range(game.horizon):
        stage = stage_game_from_values(game, s, values)
        st_anchors = [anchors[(s, i)] for i in range(game.player_count)]
        keep = None
        if config.top_k is not None:
            keep = [np.sort(np.argsort(-proposals[(s, i)], kind="stable")[:config.top_k])
                    for i in range(game.player_count)]
            kept = [np.asarray(a, float)[k] for a, k in zip(st_anchors, keep)]
            sigma_sub = search_state(_restrict_stage(stage, keep),
                                     [a / a.sum() for a in kept], types,
                                     config.search_iterations)
            sigma = [np.zeros(n) for n in stage.action_counts]
            for full, k, p in zip(sigma, keep, sigma_sub):
                full[k] = p
        else:
            sigma = search_state(stage, st_anchors, types,
                                 config.search_iterations)
        for i in range(game.player_count):
            if not np.isfinite(sigma[i]).all():
                raise RuntimeError(f"non-finite search policy at state {s}")
        if visit_counts is not None:
            visit_counts[s] = visit_counts.get(s, 0) + 1
            alpha = 1.0 / visit_counts[s] if config.alpha_harmonic else config.alpha
        else:
            alpha = config.alpha
        nashv_update(values, s, sigma, stage, alpha)
        step = config.policy_step
        for i in range(game.player_count):
            policy_table[(s, i)] = (1 - step) * policy_table[(s, i)] + step * sigma[i]
        joint = []
        for i in range(game.player_count):
            if rng.random() < config.nash_explore:
                a = int(rng.integers(game.action_counts[s][i]))
            else:
                a = draw(cdf(sigma[i] / sigma[i].sum()), rng.random())
            joint.append(a)
        record.states.append(s)
        record.actions.append(tuple(joint))
        record.sigmas.append([p.copy() for p in sigma])
        s = game.sample_successor(s, joint, rng)
        if s == TERMINAL:
            break
    return record


def train(game: TabularMarkovGame, anchors: dict, config: TrainConfig,
          oracle_values: dict | None = None,
          oracle_profiles: dict | None = None):
    """Run the configured number of self-play episodes and return the trained
    `{s: vector}` values, the `{(s, i): vector}` policy table (started at
    `anchors`) and a per-checkpoint metrics series."""
    rng = np.random.default_rng(config.seed)
    values = {s: np.zeros(game.player_count) for s in range(game.state_count)}
    policy_table = dict(anchors)
    proposal_table = dict(policy_table) if config.mode == "NPU" else None
    visit_counts: dict = {}
    metrics: list[dict] = []
    stages = None if oracle_profiles is None else {
        s: stage_game_from_values(game, s, oracle_values) for s in oracle_profiles}
    for ep in range(1, config.episodes + 1):
        run_episode(game, values, policy_table, anchors, config, rng,
                    visit_counts=visit_counts, proposal_table=proposal_table)
        if ep % config.checkpoint_every == 0 or ep == config.episodes:
            row = {"episode": ep}
            if oracle_values is not None:
                evals = evaluate_vs_oracle(game, values, policy_table, anchors,
                                           oracle_values, oracle_profiles, stages)
                row.update(evals)
            metrics.append(row)
    return values, policy_table, metrics


def evaluate_vs_oracle(game: TabularMarkovGame, values: dict,
                       policy_table: dict, anchors: dict,
                       oracle_values: dict,
                       oracle_profiles: dict | None = None,
                       stages: dict | None = None) -> dict:
    """Error of the learned tables against exact backward induction.
    `stages` maps each state of `oracle_profiles` to its stage game under
    `oracle_values`; it is built here when not given."""
    errs = []
    for s in range(game.state_count):
        if s not in oracle_values:
            raise ValueError(f"oracle has no value for state {s}")
        errs.append(float(np.max(np.abs(values[s] - oracle_values[s]))))
    out = {
        "max_value_error": max(errs),
        "mean_value_error": float(np.mean(errs)),
    }
    if oracle_profiles is not None:
        kls, gaps = [], []
        for s, profile in oracle_profiles.items():
            stage = (stages[s] if stages
                     else stage_game_from_values(game, s, oracle_values))
            st_anchors = [anchors[(s, i)] for i in range(game.player_count)]
            learned = type(profile)(
                policies=tuple(
                    {lam: policy_table[(s, i)] for lam in profile.types[i].lambdas}
                    for i in range(game.player_count)
                ),
                types=profile.types,
            )
            gaps.append(regularized_exploitability(stage, st_anchors,
                                                   profile.types, learned))
            for i in range(game.player_count):
                for lam in profile.types[i].lambdas:
                    kls.append(kl_divergence(profile.policies[i][lam],
                                             policy_table[(s, i)]))
        out["mean_policy_kl"] = float(np.mean(kls))
        out["mean_exploitability"] = float(np.mean(gaps))
    return out
