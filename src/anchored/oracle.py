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
    residual rather than raised; a non-finite residual (a NaN smooth best
    response, e.g. when u/lambda overflows) ends the solve at that sweep with
    ``converged=False``.  This is the B = 1 call of `_damped_equilibria`.
    """
    if game.player_count != 2 or not game.zero_sum:
        raise ValueError("requires a two-player zero-sum game")
    payoffs = [u[None] for u in game.payoffs]
    anchors = [np.asarray(a, dtype=float)[None] for a in anchors]
    return _damped_equilibria(payoffs, anchors, tuple(types), tol, max_iters,
                              damping, init)[0]


def _damped_equilibria(payoffs, anchors, types, tol=1e-10, max_iters=100000,
                       damping=0.5, init="anchor") -> list[RegularizedProfile]:
    """`solve_regularized_bne` for B two-player zero-sum games of one shape
    in lockstep: `payoffs[i]` is player i's ``(B, A_0, A_1)`` payoff stack,
    `anchors[i]` its ``(B, A_i)`` anchors and `types[i]` its types, shared by
    the batch.  Player i's policies are one ``(B, K_i, A_i)`` array; a sweep
    takes `TypeDistribution.mixture` over the type slots, ``u_0 = P_0 @ mix_1``
    and ``u_1 = P_1^T @ mix_0`` (one `np.matmul` over the stack: the per-game
    `np.dot` of `utility_vector`, bit for bit) and one softmax over each
    player's rows in `smooth_best_response`'s order of operations.  Each game
    keeps its own damping and stall counter and leaves the batch, compacted
    only then, at the sweep where its residual falls below `tol` or is not
    finite, so it returns what a solve of it alone returns.
    """
    for td in types:
        if any(l <= 0 or l == INF for l in td.lambdas):
            raise ValueError("all lambda values must be finite and > 0")
    if init not in ("anchor", "uniform"):
        raise ValueError(f"unknown init {init!r}")
    lams = [np.array(td.lambdas)[:, None] for td in types]
    log_anchors = [np.log(a)[:, None, :] for a in anchors]
    pols = [np.repeat((a if init == "anchor" else
                       np.broadcast_to(uniform_policy(a.shape[1]), a.shape))[:, None, :],
                      len(td.lambdas), axis=1)
            for a, td in zip(anchors, types)]
    live = np.arange(len(anchors[0]))
    delta = np.full((len(live), 1, 1), float(damping))
    best = np.full(len(live), INF)
    stale = np.zeros(len(live), dtype=int)
    residual = np.full(len(live), INF)
    results: list = [None] * len(live)

    def finish(rows, iterations, converged):
        for b in rows:
            results[live[b]] = RegularizedProfile(
                tuple({lam: p[b, k] for k, lam in enumerate(td.lambdas)}
                      for td, p in zip(types, pols)),
                types, iterations, float(residual[b]), bool(converged[b]))

    # Policies change in place, so the type-slot views and the update
    # weights change only when the batch is compacted or a damping halves.
    slots = [[p[:, k] for k in range(p.shape[1])] for p in pols]
    keep_weight = 1.0 - delta
    for it in range(1, max_iters + 1):
        mix0, mix1 = (td.mixture(s)[:, :, None] for td, s in zip(types, slots))
        targets = []
        for i, u in enumerate((np.matmul(payoffs[0], mix1),
                               np.matmul(payoffs[1].transpose(0, 2, 1), mix0))):
            z = log_anchors[i] + u[:, None, :, 0] / lams[i]
            z -= np.maximum.reduce(z, axis=-1, keepdims=True)
            np.exp(z, out=z)
            z /= np.add.reduce(z, axis=-1, keepdims=True)
            targets.append(z)
        residual = np.maximum(*(np.maximum.reduce(np.abs(t - p), axis=(1, 2))
                                for t, p in zip(targets, pols)))
        converged = residual < tol
        done = converged | ~np.isfinite(residual)
        if done.any():
            finish(np.flatnonzero(done), it, converged)
            keep = ~done
            if not keep.any():
                return results
            live, delta, keep_weight, best, stale, residual = (
                x[keep] for x in (live, delta, keep_weight, best, stale, residual))
            payoffs, log_anchors, pols, targets = (
                [x[keep] for x in xs] for xs in (payoffs, log_anchors, pols, targets))
            slots = [[p[:, k] for k in range(p.shape[1])] for p in pols]
        for p, t in zip(pols, targets):
            p *= keep_weight
            t *= delta
            p += t
        improved = residual < best
        best = np.where(improved, residual, best)
        stale = np.where(improved, 0, stale + 1)
        halve = stale >= 50
        if halve.any():
            delta = np.where(halve[:, None, None], 0.5 * delta, delta)
            keep_weight = 1.0 - delta
            stale[halve] = 0
    finish(range(len(live)), max_iters, np.zeros(len(live), dtype=bool))
    return results


def regularized_exploitability(game: NormalFormGame, anchors, types,
                               profile: RegularizedProfile) -> float:
    """Belief-weighted total gap between each type's policy and its smooth
    best response to the opponent mixture.  Zero exactly at the regularized
    equilibrium."""
    if game.player_count != 2:
        raise ValueError("requires a two-player game")
    anchors = [np.asarray(a, dtype=float) for a in anchors]
    mixtures = [profile.mixture(0), profile.mixture(1)]
    u_vecs = [game.utility_vector(i, mixtures) for i in range(2)]
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
    u_vecs = [game.utility_vector(i, mixtures) for i in range(2)]
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


def _layers(game: TabularMarkovGame) -> list[list[int]]:
    """States in backward-induction layers: each layer, in ascending order,
    holds the states whose successors all lie in earlier layers; raises on
    cycles."""
    resolved = {TERMINAL}
    layers: list[list[int]] = []
    remaining = set(range(game.state_count))
    while remaining:
        ready = sorted(s for s in remaining
                       if resolved.issuperset(game.next_states[s]))
        if not ready:
            raise ValueError("state graph has a cycle; backward induction undefined")
        layers.append(ready)
        resolved.update(ready)
        remaining.difference_update(ready)
    return layers


def stage_game_from_values(game: TabularMarkovGame, s: int,
                           values: dict) -> NormalFormGame:
    """One-step lookahead stage game at state s:
    u_i(a) = r_i(s, a) + gamma * E_{s'}[V_i(s')].

    `values` maps every non-terminal successor of s to its value vector.  The
    expectation is accumulated one successor at a time in `next_states`
    order, and player i's payoff tensor is the C-contiguous slice ``[i]`` of
    one ``(P, *A_s)`` array."""
    if s == TERMINAL:
        raise ValueError("terminal state has no stage game")
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
    The states of one layer are independent: their stage games are solved
    with one `_damped_equilibria` call per action-count shape.
    """
    if game.player_count != 2 or not game.zero_sum:
        raise ValueError("requires a two-player zero-sum Markov game")
    types = tuple(TypeDistribution.singleton(l) for l in lambdas)
    values: dict = {}
    profiles: dict = {}
    for layer in _layers(game):
        stages = {s: stage_game_from_values(game, s, values) for s in layer}
        groups: dict = {}
        for s in layer:
            groups.setdefault(game.action_counts[s], []).append(s)
        solved: dict = {}
        for group in groups.values():
            solved.update(zip(group, _damped_equilibria(
                [np.stack([stages[s].payoffs[i] for s in group]) for i in range(2)],
                [np.stack([anchors[(s, i)] for s in group], dtype=float)
                 for i in range(2)],
                types, tol)))
        for s in layer:
            profile = solved[s]
            if not profile.converged:
                raise RuntimeError(f"equilibrium solve failed at state {s}: "
                                   f"residual {profile.residual}")
            values[s] = _profile_value(stages[s], [profile.mixture(0),
                                                   profile.mixture(1)])
            profiles[s] = profile
    return values, profiles


def evaluate_markov_profile(game: TabularMarkovGame, policies) -> dict:
    """Policy evaluation of a fixed per-(state, player) product profile."""
    values: dict = {}
    for s in (s for layer in _layers(game) for s in layer):
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
