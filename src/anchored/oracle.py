"""Exact reference quantities for testing learners: smooth best responses,
regularized equilibria of two-player zero-sum games, exploitability, regret
accounting, and the analytic regret upper bound.

Natural logarithms are used throughout.  The KL regularization penalty is
always subtracted from expected reward.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

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
    lam * log sum_a anchor(a) * exp(u(a)/lam); its limit <u, anchor> at
    lam = inf."""
    if lam <= 0:
        raise ValueError("lam must be > 0")
    u = np.asarray(u, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    if lam == INF:
        return float(u @ anchor)
    z = np.log(anchor) + u / lam
    m = z.max()
    return float(lam * (m + math.log(np.sum(np.exp(z - m)))))


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


#: Newton steps before a solve returns ``converged=False``.
NEWTON_STEPS = 100


def solve_regularized_bne(game: NormalFormGame, anchors, types,
                          tol: float = 1e-10) -> RegularizedProfile:
    """Regularized equilibrium of a two-player zero-sum game: converged once
    no type's policy is more than `tol` from its smooth best response to the
    opponent's mixture.  A solve that has not converged after `NEWTON_STEPS`
    steps or reaches a non-finite residual (e.g. u/lambda overflows) returns
    ``converged=False``.  The B = 1 call of `_newton_equilibria`."""
    if game.player_count != 2 or not game.zero_sum:
        raise ValueError("requires a two-player zero-sum game")
    payoffs = [u[None] for u in game.payoffs]
    anchors = [np.asarray(a, dtype=float)[None] for a in anchors]
    return _newton_equilibria(payoffs, anchors, tuple(types), tol)[0]


def _newton_equilibria(payoffs, anchors, types,
                       tol: float = 1e-10) -> list[RegularizedProfile]:
    """`solve_regularized_bne` for B games of one shape: `payoffs[i]` is
    player i's ``(B, A_0, A_1)`` payoff stack, `anchors[i]` its ``(B, A_i)``
    anchors and `types[i]` its types, shared by the batch.

    Type k of player i plays ``softmax(log tau_i + u_i / lambda_k)``, so the
    equilibrium is the root x = (g, h) of ``F = (P_0 mix_1(h) - g,
    P_1^T mix_0(g) - h)``.  Its Jacobian ``[[-I, P_0 S_1], [P_1^T S_0, -I]]``,
    ``S_i = sum_k w_k (diag p_k - p_k p_k^T) / lambda_k``, is never singular
    in a zero-sum game, so Newton steps from anchor play (x = 0), each halved
    until |F|^2 falls by the Armijo fraction, converge.  One `np.linalg.solve`
    takes every game's step; each game keeps its own step size and freezes on
    its own (see below), so it returns what a solve of it alone returns.
    """
    for td in types:
        if any(l <= 0 or l == INF for l in td.lambdas):
            raise ValueError("all lambda values must be finite and > 0")
    lams = [np.array(td.lambdas)[:, None] for td in types]
    weights = [np.array(td.weights)[:, None] for td in types]
    log_anchors = [np.log(a)[:, None, :] for a in anchors]
    to_u = (payoffs[0], payoffs[1].transpose(0, 2, 1))
    batch, n0 = anchors[0].shape
    eye = np.eye(n0 + anchors[1].shape[1])

    def respond(x):
        """Each player's ``(B, K_i, A_i)`` policies at utility vectors x."""
        pols = []
        for i, u in enumerate((x[:, :n0], x[:, n0:])):
            z = log_anchors[i] + u[:, None, :] / lams[i]
            z -= z.max(axis=-1, keepdims=True)
            np.exp(z, out=z)
            z /= z.sum(axis=-1, keepdims=True)
            pols.append(z)
        return pols

    def utilities(pols):
        """(u_0, u_1) against the belief mixtures of `pols`."""
        mix0, mix1 = ((w * p).sum(axis=1)[..., None] for w, p in zip(weights, pols))
        return np.concatenate([to_u[0] @ mix1, to_u[1] @ mix0], axis=1)[..., 0]

    x = np.zeros((batch, len(eye)))
    steps = np.zeros(batch, dtype=int)
    live = np.ones(batch, dtype=bool)
    below = np.zeros(batch, dtype=bool)
    for step in range(NEWTON_STEPS + 1):
        pols = respond(x)
        u = utilities(pols)
        residual = np.maximum(*(np.abs(t - p).max(axis=(1, 2))
                                for t, p in zip(respond(u), pols)))
        # The residual sees a utility only through its action's probability,
        # so a game freezes at its second residual below tol in a row (the
        # step between settles near-zero actions too) or at a non-finite one.
        live &= ~(below & (residual < tol)) & np.isfinite(residual)
        below = residual < tol
        if step == NEWTON_STEPS or not live.any():
            break
        jac = np.repeat(-eye[None], batch, axis=0)
        for i, block in ((0, np.s_[:, n0:, :n0]), (1, np.s_[:, :n0, n0:])):
            wp = weights[i] / lams[i] * pols[i]
            s_i = (np.eye(wp.shape[2]) * wp.sum(axis=1)[:, None]
                   - wp.transpose(0, 2, 1) @ pols[i])
            jac[block] = to_u[1 - i] @ s_i
        f = u - x
        dx = np.linalg.solve(jac, -f[..., None])[..., 0]
        merit = (f * f).sum(axis=1)
        t = np.ones(batch)
        pending = live.copy()
        for _ in range(40):                  # halvings before giving up a step
            trial = x + t[:, None] * dx
            r = utilities(respond(trial)) - trial
            # Armijo: |F|^2 falls by 1e-4 * t of its slope -2|F|^2 along dx.
            ok = pending & ((r * r).sum(axis=1) <= (1.0 - 2e-4 * t) * merit)
            x[ok] = trial[ok]
            pending &= ~ok
            if not pending.any():
                break
            t[pending] *= 0.5
        steps += live
    return [RegularizedProfile(
        tuple({lam: p[b, k] for k, lam in enumerate(td.lambdas)}
              for td, p in zip(types, pols)),
        types, int(steps[b]), float(residual[b]), bool(residual[b] < tol))
        for b in range(batch)]


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
    rho = 0.0 if lam == 0 or kl_u == 0.0 else lam * kl_u
    return (_min_term(payoff_bound, iterations, eta, lam)
            + math.log(n_actions) / eta + rho)


def _min_term(payoff_bound: float, iterations: int, eta: float,
              lam: float) -> float:
    """(U^2/4) * min{2 log T / lam, T eta}; (U^2/4) * T eta at lam = 0."""
    if lam == 0:
        return (payoff_bound ** 2 / 4.0) * iterations * eta
    return (payoff_bound ** 2 / 4.0) * min(2.0 * math.log(iterations) / lam,
                                           iterations * eta)


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
        return {("lambda" if k == "lam" else k): v for k, v in asdict(self).items()}


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
        comparator = T * float(np.max(q_final))
        kl_total = 0.0
    else:
        comparator = T * sbr_value(q_final, anchor, lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(pols > 0, pols * np.log(pols / anchor), 0.0)
        kl_total = float(terms.sum())
    # A lambda = inf type plays its anchor, so its zero KL costs nothing.
    achieved = float(np.sum(u * pols)) - (lam * kl_total if kl_total else 0.0)
    regret = comparator - achieved
    report = RegretReport(player=player, lam=lam, iterations=T, regret=regret)
    n = u.shape[1]
    kl_u = kl_divergence(uniform_policy(n), anchor)
    log_tau_mean = float(np.mean(np.log(anchor)))
    # As in `regret_bound`, lambda = inf times a zero KL(uniform || anchor) is 0.
    no_rho = lam == 0 or (lam == INF and kl_u == 0.0)
    report.rho_kl = 0.0 if no_rho else lam * kl_u
    report.rho_signed = 0.0 if no_rho else lam * (math.log(n) + log_tau_mean)
    if payoff_bound is not None and eta is not None:
        report.bound = regret_bound(payoff_bound, T, eta, lam, n, anchor)
        report.min_term = _min_term(payoff_bound, T, eta, lam)
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
    with one `_newton_equilibria` call per action-count shape.
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
            solved.update(zip(group, _newton_equilibria(
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
    return {(s, i): uniform_policy(n) for s, counts in enumerate(game.action_counts)
            for i, n in enumerate(counts)}
