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
from .learners import (INF, Learners, TemperatureSchedule, TypeDistribution,
                       run_selfplay)
from .oracle import _exploitabilities, _kl_rows, _seat_rows, stage_game, stage_payoffs
# Unused here; bench/tracing.py wraps them under these names.
from .oracle import regularized_exploitability, stage_game_from_values  # noqa: F401


@dataclass(frozen=True)
class TrainConfig:
    search_iterations: int = 256
    types: tuple[TypeDistribution, ...] = ()    # one per player
    nash_explore: float = 0.1
    episodes: int = 1000
    alpha: float = 0.1
    alpha_harmonic: bool = False    # alpha = 1 / visit count when set
    top_k: int | None = None        # None: no action restriction
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
        if not (0.0 < self.policy_step <= 1.0):   # also rejects NaN
            raise ValueError("policy_step must be in (0, 1]")
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")


def nashv_update(values: np.ndarray, s: int, sigma, payoffs,
                 alpha: float) -> None:
    """V(s) <- (1 - alpha) V(s) + alpha * E_sigma[u(a)] in row s of the
    ``(S + 1, P)`` value array.  `payoffs` are the ``(P, *A_s)`` stage payoffs
    r + gamma * E[V(s')] at s (`stage_payoffs`), and the expectation is under
    the product of the per-player policies in sigma.

    The target sums p(a) u(a) over joint actions one at a time, in product
    order."""
    if s == TERMINAL:
        raise ValueError("cannot update the terminal state")
    p = reduce(np.multiply.outer, sigma).ravel()
    u = np.asarray(payoffs, dtype=float).reshape(len(payoffs), -1)
    target = np.add.reduce((p * u).T.copy(), axis=0, initial=0.0)
    values[s] = (1 - alpha) * values[s] + alpha * target


def search_state(stage: NormalFormGame, anchors, types, iterations: int):
    """Run the deterministic (expected-feedback) anchored-learning search on a
    stage game and return each player's belief-weighted average policy.
    Players whose only type is lambda = inf play their anchor and sit out."""
    anchored_only = [td.lambdas == (INF,) for td in types]
    if all(anchored_only):
        return [np.array(a, dtype=float) for a in anchors]
    learners = Learners(anchors, types, TemperatureSchedule())
    run_selfplay(stage, learners, iterations, record=False)
    return [np.array(a, dtype=float) if only else learners.average_mixture(i)
            for i, (a, only) in enumerate(zip(anchors, anchored_only))]


def _search(stage: NormalFormGame, anchors, types, top_k, iterations: int):
    """`search_state` on the stage game, or on its restriction to the `top_k`
    actions each anchor ranks highest, the lower index winning ties
    (renormalized anchors), with sigma zero off those actions."""
    if top_k is None:
        return search_state(stage, anchors, types, iterations)
    keep = [np.sort(np.argsort(-np.asarray(a), kind="stable")[:top_k])
            for a in anchors]
    sub = NormalFormGame(tuple(map(len, keep)),
                         stage.payoffs[(slice(None), *np.ix_(*keep))],
                         payoff_bound=stage.payoff_bound, zero_sum=stage.zero_sum)
    kept = [np.asarray(a, float)[k] for a, k in zip(anchors, keep)]
    sub_sigma = search_state(sub, [a / a.sum() for a in kept], types, iterations)
    sigma = [np.zeros(n) for n in stage.action_counts]
    for full, k, p in zip(sigma, keep, sub_sigma):
        full[k] = p
    return sigma


def run_episode(game: TabularMarkovGame, values: np.ndarray, policy: np.ndarray,
                anchors: np.ndarray, config: TrainConfig, rng: np.random.Generator,
                visit_counts: np.ndarray, searches: dict) -> tuple[list, list]:
    """Play one self-play episode from the initial state, updating at every
    visited state s row s of the ``(S + 1, P)`` values, the players' rows at
    s of the ``(S, P, W)`` policy array, each to `(1 - policy_step) * old +
    policy_step * sigma`, and entry s of the ``(S,)`` visit counts.  Player i
    searches from its row of the ``(S, P, W)`` anchors with the types
    `config.types[i]`, over the `top_k` actions its anchor ranks highest.
    Returns the visited states and the joint action played at each.

    `searches` maps each state to the stage payoff bytes and the read-only
    sigma of its last search, and is updated here.  The search is
    deterministic, so a visit whose stage payoffs are its state's last
    search's reuses that sigma; the stage game is built only to search.
    `train` keeps one dict per call.  A fresh `{}` searches at every visit:
    an episode visits a state at most once, as the state graph is acyclic.
    """
    if len(config.types) != game.player_count:
        raise ValueError("need one type distribution per player")
    states, actions = [], []
    s = game.initial_state
    for _ in range(game.horizon):
        payoffs = stage_payoffs(game, (s,), values)[0]
        key = payoffs.tobytes()
        last = searches.get(s)
        if last is not None and last[0] == key:
            sigma = last[1]
        else:
            sigma = _search(stage_game(game, payoffs),
                            [a[:n] for a, n in zip(anchors[s], game.action_counts[s])],
                            config.types, config.top_k, config.search_iterations)
            if not all(np.isfinite(p).all() for p in sigma):
                raise RuntimeError(f"non-finite search policy at state {s}")
            for p in sigma:
                p.setflags(write=False)
            searches[s] = (key, sigma)
        visit_counts[s] += 1
        alpha = 1.0 / visit_counts[s] if config.alpha_harmonic else config.alpha
        nashv_update(values, s, sigma, payoffs, alpha)
        step = config.policy_step
        for row, p in zip(policy[s], sigma):
            row[:len(p)] = (1 - step) * row[:len(p)] + step * p
        joint = []
        for i in range(game.player_count):
            if rng.random() < config.nash_explore:
                a = int(rng.integers(game.action_counts[s][i]))
            else:
                a = draw(cdf(sigma[i] / sigma[i].sum()), rng.random())
            joint.append(a)
        states.append(s)
        actions.append(tuple(joint))
        s = game.sample_successor(s, joint, rng)
        if s == TERMINAL:
            break
    return states, actions


def train(game: TabularMarkovGame, anchors: np.ndarray, config: TrainConfig,
          oracle_values: dict | None = None,
          oracle_profiles: dict | None = None):
    """Run the configured self-play episodes from the ``(S, P, W)`` anchors and
    return the ``(S + 1, P)`` values, the ``(S, P, W)`` policy array (a copy
    of `anchors` at first) and per-checkpoint metrics.  The `oracle_values`
    dict is read into an ``(S + 1, P)`` array once (ROADMAP item 11)."""
    rng = np.random.default_rng(config.seed)
    values = np.zeros((game.state_count + 1, game.player_count))
    policy = np.array(anchors, dtype=float)
    visit_counts = np.zeros(game.state_count, dtype=int)
    searches: dict = {}
    metrics: list[dict] = []
    if oracle_values is not None:
        oracle_values = np.array([oracle_values[s] for s in range(game.state_count)]
                                 + [np.zeros(game.player_count)])
    for ep in range(1, config.episodes + 1):
        run_episode(game, values, policy, anchors, config, rng, visit_counts, searches)
        if ep % config.checkpoint_every == 0 or ep == config.episodes:
            row = {"episode": ep}
            if oracle_values is not None:
                row.update(evaluate_vs_oracle(game, values, policy, anchors,
                                              oracle_values, oracle_profiles))
            metrics.append(row)
    return values, policy, metrics


def evaluate_vs_oracle(game: TabularMarkovGame, values: np.ndarray,
                       policy: np.ndarray, anchors: np.ndarray,
                       oracle_values: np.ndarray,
                       oracle_profiles: dict | None = None) -> dict:
    """Error of the learned arrays against exact backward induction's: the
    largest and mean value error over states, and, given the oracle's
    profiles, the mean KL(oracle type policy || learned policy) over
    (state, player, type) and the mean `regularized_exploitability` of the
    learned policies in the oracle's stage games.

    Each metric is one stacked pass over states, one stack per action-count
    shape, with the bits of the per-state definition.  The profiles share
    their types, as `solve_markov_backward`'s do."""
    errs = np.abs(values[:-1] - oracle_values[:-1]).max(axis=1)
    out = {
        "max_value_error": float(errs.max()),
        "mean_value_error": float(np.mean(errs)),
    }
    if oracle_profiles is not None:
        order = {s: k for k, s in enumerate(oracle_profiles)}
        types = next(iter(oracle_profiles.values())).types
        if any(p.types != types for p in oracle_profiles.values()):
            raise ValueError("oracle profiles must share their types")
        gaps = np.empty(len(order))
        kls = np.empty((len(order), sum(len(td.lambdas) for td in types)))
        shapes: dict = {}       # the stage groups of each action-count shape
        for group in game.stage_groups(oracle_profiles):
            shapes.setdefault(game.action_counts[group[0]], []).append(group)
        for groups in shapes.values():
            group = sum(groups, ())
            payoffs = np.concatenate([stage_payoffs(game, g, oracle_values)
                                      for g in groups])
            rows = [order[s] for s in group]
            learned = _seat_rows(policy, game, group)
            gaps[rows] = _exploitabilities(
                payoffs, _seat_rows(anchors, game, group), types,
                [[p] * len(td.lambdas) for p, td in zip(learned, types)])
            kls[rows] = np.stack([
                _kl_rows(np.stack([oracle_profiles[s].policies[i][lam]
                                   for s in group]), learned[i])
                for i, td in enumerate(types) for lam in td.lambdas], axis=1)
        out["mean_policy_kl"] = float(np.mean(kls.ravel()))
        out["mean_exploitability"] = float(np.mean(gaps))
    return out
