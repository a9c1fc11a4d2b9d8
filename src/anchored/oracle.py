"""Exact reference quantities for testing learners: smooth best responses,
regularized equilibria of two-player zero-sum games, exploitability, regret
accounting, and the analytic regret upper bound.

Natural logarithms are used throughout.  The KL regularization penalty is
always subtracted from expected reward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .games import TERMINAL, NormalFormGame, TabularMarkovGame, uniform_policy
from .learners import INF, Trace, TypeDistribution


def kl_divergence(p, q) -> float:
    """KL(p || q) in nats, with 0*log(0) = 0.  Requires q > 0 wherever p > 0."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("dimension mismatch")
    mask = p > 0
    if np.any(q[mask] <= 0):
        raise ValueError("q has zero mass where p is positive")
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def smooth_best_response(u, anchor, lam: float) -> np.ndarray:
    """Unique maximizer of <u, x> - lam * KL(x || anchor):
    x(a) proportional to anchor(a) * exp(u(a)/lam)."""
    if lam <= 0:
        raise ValueError("lam must be > 0 (use an argmax response for lam == 0)")
    u = np.asarray(u, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    z = np.log(anchor) + u / lam
    z = z - z.max()
    p = np.exp(z)
    return p / p.sum()


def sbr_value(u, anchor, lam: float) -> float:
    """Optimal value of the smooth best response, in log-partition form:
    lam * log sum_a anchor(a) * exp(u(a)/lam)."""
    if lam <= 0:
        raise ValueError("lam must be > 0")
    u = np.asarray(u, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    z = np.log(anchor) + u / lam
    m = z.max()
    return float(lam * (m + math.log(np.sum(np.exp(z - m)))))


def best_response_value(u) -> float:
    return float(np.max(u))


@dataclass
class RegularizedProfile:
    """Per-player, per-type policies together with their belief mixtures."""

    policies: tuple[dict, ...]          # player -> {lambda: policy}
    types: tuple[TypeDistribution, ...]
    iterations: int = 0
    residual: float = 0.0
    converged: bool = True

    def mixture(self, player: int) -> np.ndarray:
        td = self.types[player]
        return td.mixture([self.policies[player][lam] for lam in td.lambdas])

    def to_dict(self) -> dict:
        return {
            "policies": [
                {repr(lam): pol.tolist() for lam, pol in d.items()}
                for d in self.policies
            ],
            "mixtures": [self.mixture(i).tolist() for i in range(len(self.policies))],
            "iterations": self.iterations,
            "residual": self.residual,
            "converged": self.converged,
        }


def _player_utility_vectors(game: NormalFormGame, mixtures):
    """Utility vector of each player against the other players' mixtures."""
    return [game.utility_vector(i, mixtures) for i in range(game.player_count)]


def solve_regularized_bne(game: NormalFormGame, anchors, types,
                          tol: float = 1e-10, max_iters: int = 100000,
                          damping: float = 0.5,
                          init: str = "anchor") -> RegularizedProfile:
    """Damped fixed-point iteration for the regularized equilibrium of a
    two-player zero-sum game: each type's policy moves toward the smooth best
    response to the opponent's belief-averaged policy.

    The best-response map is only contractive once the damping factor is
    small relative to U/lambda, so the damping is halved whenever the
    residual has not improved on its running best for 50 consecutive sweeps.
    A non-converged result is returned with ``converged=False`` and its final
    residual rather than raised.
    """
    if game.player_count != 2 or not game.zero_sum:
        raise ValueError("requires a two-player zero-sum game")
    types = tuple(types)
    anchors = [np.asarray(a, dtype=float) for a in anchors]
    for td in types:
        if any(l <= 0 or l == INF for l in td.lambdas):
            raise ValueError("all lambda values must be finite and > 0")
    if init == "anchor":
        policies = [dict((lam, anchors[i].copy()) for lam in types[i].lambdas)
                    for i in range(2)]
    elif init == "uniform":
        policies = [dict((lam, uniform_policy(game.action_counts[i]))
                         for lam in types[i].lambdas) for i in range(2)]
    else:
        raise ValueError(f"unknown init {init!r}")
    profile = RegularizedProfile(tuple(policies), types)
    delta = damping
    best_residual = INF
    stale = 0
    residual = INF
    for it in range(1, max_iters + 1):
        mixtures = [profile.mixture(0), profile.mixture(1)]
        u_vecs = _player_utility_vectors(game, mixtures)
        residual = 0.0
        targets = [{}, {}]
        for i in range(2):
            for lam in types[i].lambdas:
                target = smooth_best_response(u_vecs[i], anchors[i], lam)
                targets[i][lam] = target
                residual = max(residual, float(np.max(np.abs(target - policies[i][lam]))))
        if residual < tol:
            profile.iterations = it
            profile.residual = residual
            profile.converged = True
            return profile
        for i in range(2):
            for lam in types[i].lambdas:
                policies[i][lam] = (1 - delta) * policies[i][lam] + delta * targets[i][lam]
        if residual < best_residual:
            best_residual = residual
            stale = 0
        else:
            stale += 1
            if stale >= 50:
                delta *= 0.5
                stale = 0
    profile.iterations = max_iters
    profile.residual = residual
    profile.converged = False
    return profile


def regularized_exploitability(game: NormalFormGame, anchors, types,
                               profile: RegularizedProfile) -> float:
    """Belief-weighted total gap between each type's policy and its smooth
    best response to the opponent mixture.  Zero exactly at the regularized
    equilibrium."""
    if game.player_count != 2:
        raise ValueError("requires a two-player game")
    anchors = [np.asarray(a, dtype=float) for a in anchors]
    mixtures = [profile.mixture(0), profile.mixture(1)]
    u_vecs = _player_utility_vectors(game, mixtures)
    gap = 0.0
    for i in range(2):
        td = types[i]
        for lam, w in zip(td.lambdas, td.weights):
            pol = profile.policies[i][lam]
            achieved = float(u_vecs[i] @ pol) - lam * kl_divergence(pol, anchors[i])
            gap += w * (sbr_value(u_vecs[i], anchors[i], lam) - achieved)
    # Clamp rounding residue: the gap is nonnegative by optimality of the SBR.
    return max(gap, 0.0)


def unregularized_exploitability(game: NormalFormGame, profile) -> float:
    """Sum over players of the best-response gain against the profile."""
    if game.player_count != 2 or not game.zero_sum:
        raise ValueError("requires a two-player zero-sum game")
    mixtures = [np.asarray(p, dtype=float) for p in profile]
    u_vecs = _player_utility_vectors(game, mixtures)
    return sum(float(np.max(u_vecs[i]) - u_vecs[i] @ mixtures[i]) for i in range(2))


def regret_bound(payoff_bound: float, iterations: int, eta: float, lam: float,
                 n_actions: int, anchor) -> float:
    """Analytic upper bound on the cumulative regularized regret of an
    anchored learner: (U^2/4) * min{2 log T / lam, T eta} + log n / eta + rho,
    with rho = lam * KL(uniform || anchor) >= 0."""
    if iterations < 1 or eta <= 0 or lam < 0 or n_actions < 1:
        raise ValueError("invalid bound parameters")
    anchor = np.asarray(anchor, dtype=float)
    kl_u = kl_divergence(uniform_policy(n_actions), anchor)
    if lam == 0:
        min_term = (payoff_bound ** 2 / 4.0) * iterations * eta
        rho = 0.0
    else:
        log_term = 2.0 * math.log(iterations) / lam if lam != INF else 0.0
        min_term = (payoff_bound ** 2 / 4.0) * min(log_term, iterations * eta)
        rho = 0.0 if kl_u == 0.0 else lam * kl_u
    return min_term + math.log(n_actions) / eta + rho


@dataclass
class RegretReport:
    player: int
    lam: float
    iterations: int
    regret: float
    bound: float | None = None
    min_term: float | None = None
    log_n_term: float | None = None
    rho_kl: float | None = None
    rho_signed: float | None = None

    def to_dict(self) -> dict:
        return {
            "player": self.player,
            "lambda": self.lam,
            "iterations": self.iterations,
            "regret": self.regret,
            "bound": self.bound,
            "min_term": self.min_term,
            "log_n_term": self.log_n_term,
            "rho_kl": self.rho_kl,
            "rho_signed": self.rho_signed,
        }


def regularized_regret(trace: Trace, player: int, lam: float, anchor,
                       iterations: int | None = None,
                       payoff_bound: float | None = None,
                       eta: float | None = None) -> RegretReport:
    """Cumulative regularized regret of one type over a recorded run, against
    the best fixed comparator (computed in closed form from Q^T)."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    T = len(trace) if iterations is None else iterations
    if not (1 <= T <= len(trace)):
        raise ValueError("iterations out of range")
    anchor = np.asarray(anchor, dtype=float)
    u = trace.utility_matrix(player)[:T]
    pols = trace.policy_matrix(player, lam)[:T]
    q_final = u.mean(axis=0)
    if lam == 0:
        comparator = T * best_response_value(q_final)
        kl_total = 0.0
    else:
        comparator = T * sbr_value(q_final, anchor, lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(pols > 0, pols * np.log(pols / anchor), 0.0)
        kl_total = float(terms.sum())
    achieved = float(np.sum(u * pols)) - lam * kl_total
    regret = comparator - achieved
    report = RegretReport(player=player, lam=lam, iterations=T, regret=regret)
    n = u.shape[1]
    kl_u = kl_divergence(uniform_policy(n), anchor)
    log_tau_mean = float(np.mean(np.log(anchor)))
    report.rho_kl = lam * kl_u if lam > 0 else 0.0
    report.rho_signed = lam * (math.log(n) + log_tau_mean) if lam > 0 else 0.0
    if payoff_bound is not None and eta is not None:
        report.bound = regret_bound(payoff_bound, T, eta, lam, n, anchor)
        if lam == 0:
            report.min_term = (payoff_bound ** 2 / 4.0) * T * eta
        else:
            report.min_term = (payoff_bound ** 2 / 4.0) * min(
                2.0 * math.log(T) / lam, T * eta)
        report.log_n_term = math.log(n) / eta
    return report


def last_iterate_distance(current, profile: RegularizedProfile, types,
                          kappa) -> float:
    """Distance to the regularized equilibrium:
    sum_i E_lambda [(lambda + kappa_i) * KL(x*_{i,lambda} || x^T_{i,lambda})]."""
    kappas = [float(kappa)] * len(current) if np.isscalar(kappa) else list(kappa)
    total = 0.0
    for i, by_type in enumerate(current):
        td = types[i]
        for lam, w in zip(td.lambdas, td.weights):
            if lam not in by_type:
                raise ValueError(f"player {i} missing iterate for lambda {lam}")
            total += w * (lam + kappas[i]) * kl_divergence(
                profile.policies[i][lam], by_type[lam])
    return total


def _topological_order(game: TabularMarkovGame) -> list[int]:
    """States ordered so every successor appears earlier; raises on cycles."""
    resolved = {TERMINAL}
    order: list[int] = []
    remaining = set(range(game.state_count))
    while remaining:
        ready = sorted(s for s in remaining
                       if resolved.issuperset(game.next_states[s]))
        if not ready:
            raise ValueError("state graph has a cycle; backward induction undefined")
        order += ready
        resolved.update(ready)
        remaining.difference_update(ready)
    return order


def stage_game_from_values(game: TabularMarkovGame, s: int,
                           values: dict) -> NormalFormGame:
    """One-step lookahead stage game at state s:
    u_i(a) = r_i(s, a) + gamma * E_{s'}[V_i(s')].

    `values` maps every non-terminal successor of s to its value vector.  The
    expectation is accumulated one successor at a time in `next_states`
    order, and player i's payoff tensor is the C-contiguous slice ``[i]`` of
    one ``(P, *A_s)`` array."""
    rewards, probs = game.R[s], game.T[s]
    lift = (slice(None),) + (None,) * (rewards.ndim - 1)
    cont = np.zeros(rewards.shape)
    for k, s2 in enumerate(game.next_states[s]):
        if s2 != TERMINAL:
            cont += np.asarray(values[s2], dtype=float)[lift] * probs[..., k]
    total = rewards + game.gamma * cont
    bound = game.payoff_bound + game.gamma * game.max_return()
    zero_sum = game.zero_sum and game.player_count == 2
    return NormalFormGame(game.action_counts[s], tuple(total), payoff_bound=bound,
                          zero_sum=zero_sum)


def solve_markov_backward(game: TabularMarkovGame, anchors, lambdas,
                          tol: float = 1e-10):
    """Backward induction with a regularized equilibrium solve at each state.

    `anchors` maps (state, player) to an anchor policy; `lambdas` is one
    positive lambda per player.  Returns (values, per-state profiles), where
    values[s] is the per-player expected value of equilibrium play from s.
    """
    if game.player_count != 2 or not game.zero_sum:
        raise ValueError("requires a two-player zero-sum Markov game")
    types = tuple(TypeDistribution.singleton(l) for l in lambdas)
    values: dict = {}
    profiles: dict = {}
    for s in _topological_order(game):
        stage = stage_game_from_values(game, s, values)
        st_anchors = [anchors[(s, 0)], anchors[(s, 1)]]
        profile = solve_regularized_bne(stage, st_anchors, types, tol=tol)
        if not profile.converged:
            raise RuntimeError(
                f"equilibrium solve failed at state {s}: residual {profile.residual}")
        values[s] = _profile_value(stage, [profile.mixture(0), profile.mixture(1)])
        profiles[s] = profile
    return values, profiles


def evaluate_markov_profile(game: TabularMarkovGame, policies) -> dict:
    """Policy evaluation of a fixed per-(state, player) product profile."""
    values: dict = {}
    for s in _topological_order(game):
        stage = stage_game_from_values(game, s, values)
        values[s] = _profile_value(stage, [np.asarray(policies[(s, i)], dtype=float)
                                           for i in range(game.player_count)])
    return values


def _profile_value(stage: NormalFormGame, profile) -> np.ndarray:
    """Each player's expected payoff when every player follows `profile`."""
    return np.array([float(stage.utility_vector(i, profile) @ profile[i])
                     for i in range(stage.player_count)])


def uniform_anchors(game: TabularMarkovGame) -> dict:
    return {
        (s, i): uniform_policy(game.action_counts[s][i])
        for s in range(game.state_count)
        for i in range(game.player_count)
    }
