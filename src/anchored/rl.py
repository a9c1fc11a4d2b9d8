"""Tabular self-play value iteration driven by anchored equilibrium search.

At every visited state a one-step lookahead stage game is built from the
current value table, a DiL-piKL search produces an equilibrium policy sigma,
the value table moves toward the resulting stage value, the policy table moves
toward sigma, and the episode advances by sampling the (possibly
epsilon-explored) joint action.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .games import TERMINAL, NormalFormGame, TabularMarkovGame, uniform_policy
from .learners import (INF, Learner, TemperatureSchedule, TypeDistribution,
                       run_selfplay)
from .oracle import (kl_divergence, regularized_exploitability,
                     stage_game_from_values)


@dataclass
class ValueTable:
    """Per-state per-player value estimates.  Terminal value is identically 0."""

    values: dict = field(default_factory=dict)

    @classmethod
    def zeros(cls, game: TabularMarkovGame) -> "ValueTable":
        return cls({s: np.zeros(game.player_count) for s in range(game.state_count)})

    def get(self, s: int) -> np.ndarray:
        return self.values[s]

    def copy(self) -> "ValueTable":
        return ValueTable({s: v.copy() for s, v in self.values.items()})

    def to_dict(self) -> dict:
        return {str(s): v.tolist() for s, v in self.values.items()}


@dataclass
class PolicyTable:
    """Stored per-(state, player) policies, updated as a moving average
    toward each search result."""

    policies: dict = field(default_factory=dict)
    step: float = 0.1

    @classmethod
    def uniform(cls, game: TabularMarkovGame, step: float = 0.1) -> "PolicyTable":
        pols = {
            (s, i): np.array(uniform_policy(game.action_counts[s][i]))
            for s in range(game.state_count)
            for i in range(game.player_count)
        }
        return cls(pols, step)

    @classmethod
    def from_anchors(cls, anchors: dict, step: float = 0.1) -> "PolicyTable":
        return cls({k: np.array(v, dtype=float) for k, v in anchors.items()}, step)

    def get(self, s: int, player: int) -> np.ndarray:
        return self.policies[(s, player)]

    def update(self, s: int, player: int, sigma: np.ndarray) -> None:
        old = self.policies[(s, player)]
        self.policies[(s, player)] = (1 - self.step) * old + self.step * sigma

    def copy(self) -> "PolicyTable":
        return PolicyTable({k: v.copy() for k, v in self.policies.items()}, self.step)

    def to_dict(self) -> dict:
        return {f"{s},{i}": p.tolist() for (s, i), p in self.policies.items()}


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


def build_stage_game(game: TabularMarkovGame, s: int,
                     values: ValueTable) -> NormalFormGame:
    """Stage game at s: immediate reward plus discounted expected value."""
    if s == TERMINAL:
        raise ValueError("terminal state has no stage game")
    return stage_game_from_values(game, s, values.values)


def nashv_update(values: ValueTable, s: int, sigma, stage: NormalFormGame,
                 alpha: float) -> None:
    """V(s) <- (1 - alpha) V(s) + alpha * E_sigma[u(a)], where `stage` is the
    stage game r + gamma * E[V(s')] at s (`build_stage_game`) and the
    expectation is under the product of the per-player policies in sigma.

    The target sums p(a) u(a) over joint actions one at a time, in product
    order."""
    if s == TERMINAL:
        raise ValueError("cannot update the terminal state")
    p = reduce(np.multiply.outer, sigma).ravel()
    u = np.array(stage.payoffs).reshape(stage.player_count, -1)
    target = np.add.reduce((p * u).T.copy(), axis=0, initial=0.0)
    values.values[s] = (1 - alpha) * values.get(s) + alpha * target


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
    n = stage.player_count
    sigma = [None] * n
    anchored_only = [td.lambdas == (INF,) for td in types]
    if all(anchored_only):
        return [np.array(anchors[i], dtype=float) for i in range(n)]
    learners = []
    for i in range(n):
        schedule = TemperatureSchedule.adaptive()
        learners.append(Learner(player=i, n_actions=stage.action_counts[i],
                                anchor=np.asarray(anchors[i], float),
                                types=types[i], schedule=schedule))
    run_selfplay(stage, learners, iterations, mode="expected", record=False)
    for i in range(n):
        if anchored_only[i]:
            sigma[i] = np.array(anchors[i], dtype=float)
        else:
            sigma[i] = learners[i].average_mixture_policy()
    return sigma


def _restrict_stage(stage: NormalFormGame, keep):
    """Restrict a stage game to per-player action subsets."""
    idx = np.ix_(*keep)
    counts = tuple(len(k) for k in keep)
    payoffs = tuple(u[idx] for u in stage.payoffs)
    return NormalFormGame(counts, payoffs, payoff_bound=stage.payoff_bound,
                          zero_sum=stage.zero_sum)


def _expand(policy: np.ndarray, keep, n: int) -> np.ndarray:
    full = np.zeros(n)
    full[np.asarray(keep)] = policy
    return full


@dataclass
class EpisodeRecord:
    states: list
    actions: list
    sigmas: list


def run_episode(game: TabularMarkovGame, values: ValueTable,
                policy_table: PolicyTable, anchors: dict, config: TrainConfig,
                rng: np.random.Generator,
                visit_counts: dict | None = None,
                proposal_table: PolicyTable | None = None) -> EpisodeRecord:
    """Play one self-play episode from the initial state, updating the value
    and policy tables at every visited state.

    `proposal_table` is the table consulted for the top-k action restriction;
    in NPU mode the caller passes a frozen copy so the restriction never moves
    while the trained table still tracks sigma.
    """
    types = _search_types(config, game.player_count)
    proposals = proposal_table if proposal_table is not None else policy_table
    record = EpisodeRecord([], [], [])
    s = game.initial_state
    for _ in range(game.horizon):
        stage = build_stage_game(game, s, values)
        st_anchors = [anchors[(s, i)] for i in range(game.player_count)]
        keep = None
        if config.top_k is not None:
            keep = []
            for i in range(game.player_count):
                k = min(config.top_k, stage.action_counts[i])
                probs = proposals.get(s, i)
                keep.append(np.sort(np.argsort(-probs, kind="stable")[:k]))
            sub = _restrict_stage(stage, keep)
            sub_anchors = [
                np.asarray(st_anchors[i], float)[keep[i]]
                / np.asarray(st_anchors[i], float)[keep[i]].sum()
                for i in range(game.player_count)
            ]
            sigma_sub = search_state(sub, sub_anchors, types,
                                     config.search_iterations)
            sigma = [
                _expand(sigma_sub[i], keep[i], stage.action_counts[i])
                for i in range(game.player_count)
            ]
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
        for i in range(game.player_count):
            policy_table.update(s, i, sigma[i])
        joint = []
        for i in range(game.player_count):
            if rng.random() < config.nash_explore:
                a = int(rng.integers(game.action_counts[s][i]))
            else:
                a = int(rng.choice(game.action_counts[s][i], p=sigma[i] / sigma[i].sum()))
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
    tables plus a per-checkpoint metrics series."""
    rng = np.random.default_rng(config.seed)
    values = ValueTable.zeros(game)
    policy_table = PolicyTable.from_anchors(anchors, step=config.policy_step)
    proposal_table = policy_table.copy() if config.mode == "NPU" else None
    visit_counts: dict = {}
    metrics: list[dict] = []
    for ep in range(1, config.episodes + 1):
        run_episode(game, values, policy_table, anchors, config, rng,
                    visit_counts=visit_counts, proposal_table=proposal_table)
        if ep % config.checkpoint_every == 0 or ep == config.episodes:
            row = {"episode": ep,
                   "visited_states": len(visit_counts)}
            if oracle_values is not None:
                evals = evaluate_vs_oracle(game, values, policy_table, anchors,
                                           oracle_values, oracle_profiles)
                row.update(evals)
            metrics.append(row)
    return values, policy_table, metrics


def evaluate_vs_oracle(game: TabularMarkovGame, values: ValueTable,
                       policy_table: PolicyTable, anchors: dict,
                       oracle_values: dict,
                       oracle_profiles: dict | None = None) -> dict:
    """Error of the learned tables against exact backward induction."""
    errs = []
    for s in range(game.state_count):
        if s not in oracle_values:
            raise ValueError(f"oracle has no value for state {s}")
        errs.append(float(np.max(np.abs(values.get(s) - oracle_values[s]))))
    out = {
        "max_value_error": max(errs),
        "mean_value_error": float(np.mean(errs)),
    }
    if oracle_profiles is not None:
        kls, gaps = [], []
        for s, profile in oracle_profiles.items():
            stage = stage_game_from_values(game, s, oracle_values)
            st_anchors = [anchors[(s, i)] for i in range(game.player_count)]
            learned = type(profile)(
                policies=tuple(
                    {lam: policy_table.get(s, i) for lam in profile.types[i].lambdas}
                    for i in range(game.player_count)
                ),
                types=profile.types,
            )
            gaps.append(regularized_exploitability(stage, st_anchors,
                                                   profile.types, learned))
            for i in range(game.player_count):
                for lam in profile.types[i].lambdas:
                    kls.append(kl_divergence(profile.policies[i][lam],
                                             policy_table.get(s, i)))
        out["mean_policy_kl"] = float(np.mean(kls))
        out["mean_exploitability"] = float(np.mean(gaps))
    return out
