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

from .games import (TERMINAL, NormalFormGame, TabularMarkovGame, contract, contraction,
                    uniform_policy)
from .learners import INF, Trace, TypeDistribution


def kl_divergence(p, q) -> float:
    """KL(p || q) in nats, with 0*log(0) = 0.  Requires q > 0 wherever p > 0.
    The B = 1 call of `_kl_rows`."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("dimension mismatch")
    return float(_kl_rows(p.reshape(1, -1), q.reshape(1, -1))[0])


def _kl_rows(p, q) -> np.ndarray:
    """KL(p[b] || q[b]) of each row of two ``(B, n)`` stacks: the sum over
    p > 0 of p * log(p / q), taking log p - log q where p / q over- or
    underflows (a subnormal p or q), with the bits of a sum over each row's
    p > 0 entries alone."""
    mask = p > 0
    if np.any(mask & (q <= 0)):
        raise ValueError("q has zero mass where p is positive")
    with np.errstate(divide="ignore", over="ignore", under="ignore",
                     invalid="ignore"):
        logs = np.log(p / q)
        far = mask & ~np.isfinite(logs)
        logs[far] = np.log(p[far]) - np.log(q[far])
        terms = np.where(mask, p * logs, 0.0)
    return _row_sums(terms, mask)


def _row_sums(terms, mask) -> np.ndarray:
    """Each row's sum over its `mask` entries, as `np.sum` of the row's
    masked entries alone adds them.  Summing the zero-filled row in place
    gives the same bits only below numpy's 8-wide pairwise block, so rows
    with masked-out entries are packed to the left first and summed in
    groups of one length."""
    if mask.all():
        return terms.sum(axis=-1)
    counts = mask.sum(axis=-1)
    packed = np.take_along_axis(terms, np.argsort(~mask, axis=-1, kind="stable"), -1)
    out = np.empty(len(terms))
    for n in np.unique(counts):
        rows = counts == n
        out[rows] = packed[rows, :n].sum(axis=-1)
    return out


def _row_dots(u, p) -> np.ndarray:
    """``u[b] @ p[b]`` of each row of two ``(B, n)`` stacks, as one stacked
    matmul with the bits of the 1-D dot."""
    return (u[:, None, :] @ p[:, :, None])[:, 0, 0]


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
    lam = inf.  The B = 1 call of `_sbr_values`."""
    if lam <= 0:
        raise ValueError("lam must be > 0")
    u = np.asarray(u, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    return float(_sbr_values(u[None], anchor[None], lam)[0])


def _sbr_values(u, anchor, lam: float) -> np.ndarray:
    """`sbr_value` of each row of ``(B, n)`` utility and anchor stacks, and
    the best-response value max u at lam = 0.  The last log is `math.log`,
    as in the scalar form, since `np.log` rounds a few inputs differently."""
    if lam == 0:
        return u.max(axis=-1)
    if lam == INF:
        return _row_dots(u, anchor)
    with np.errstate(over="ignore", invalid="ignore"):    # overflow: a non-finite value
        z = np.log(anchor) + u / lam
        m = z.max(axis=-1)
        sums = np.exp(z - m[:, None]).sum(axis=-1)
    return lam * (m + np.array([math.log(x) for x in sums.tolist()]))


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
    steps or reaches a non-finite residual or |F|^2 or a singular Newton
    system (e.g. u/lambda overflows) returns ``converged=False``.  The B = 1
    call of `_newton_equilibria`."""
    if game.player_count != 2 or not game.zero_sum:
        raise ValueError("requires a two-player zero-sum game")
    anchors = [np.asarray(a, dtype=float)[None] for a in anchors]
    return _newton_equilibria(game.payoffs[None], anchors, tuple(types), tol)[0][0]


def _newton_equilibria(payoffs, anchors, types, tol: float = 1e-10) -> tuple:
    """`solve_regularized_bne` for B games of one shape: `payoffs` is their
    ``(B, 2, A_0, A_1)`` stack, `anchors[i]` player i's ``(B, A_i)`` anchors
    and `types[i]` its types, shared by the batch.  Returns the B
    profiles and each player's ``(B, K_i, A_i)`` policies, which they view.

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
    # Each player's first plan matrices: its utilities' and a Jacobian block's.
    mats = [contraction(payoffs[:, i], i)[0] for i in range(2)]
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
        return np.concatenate([mats[0] @ mix1, mats[1] @ mix0], axis=1)[..., 0]

    x = np.zeros((batch, len(eye)))
    steps = np.zeros(batch, dtype=int)
    live = np.ones(batch, dtype=bool)
    below = np.zeros(batch, dtype=bool)
    # Overflow gives a non-finite residual or merit, which stops its game
    # unconverged; numpy need not warn as well.
    with np.errstate(over="ignore", invalid="ignore"):
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
                jac[block] = mats[1 - i] @ s_i
            f = u - x
            # A singular system (say, u / lambda overflows) stops its game, unconverged.
            try:
                dx = np.linalg.solve(jac, -f[..., None])[..., 0]
            except np.linalg.LinAlgError:
                dx = np.zeros_like(f)
                for b in np.flatnonzero(live):
                    try:
                        dx[b] = np.linalg.solve(jac[b], -f[b])
                    except np.linalg.LinAlgError:
                        live[b] = False
            merit = (f * f).sum(axis=1)
            live &= np.isfinite(merit)      # |F|^2 overflows: Armijo accepts any step
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
        for b in range(batch)], pols


def regularized_exploitability(game: NormalFormGame, anchors,
                               profile: RegularizedProfile) -> float:
    """Belief-weighted total gap between each profile type's policy and its
    smooth best response to the opponent mixture.  Zero exactly at the
    regularized equilibrium.  The B = 1 call of `_exploitabilities`."""
    if game.player_count != 2:
        raise ValueError("requires a two-player game")
    policies = [[np.asarray(profile.policies[i][lam], dtype=float)[None]
                 for lam in td.lambdas]
                for i, td in enumerate(profile.types)]
    return float(_exploitabilities(game.payoffs[None],
                                   [np.asarray(a, dtype=float)[None] for a in anchors],
                                   profile.types, policies)[0])


def _exploitabilities(payoffs, anchors, types, policies) -> np.ndarray:
    """`regularized_exploitability` of B two-player games of one shape:
    `payoffs` is their ``(B, 2, A_0, A_1)`` stack, `anchors[i]` player i's
    ``(B, A_i)`` anchors and `policies[i]` its ``(B, A_i)`` policy stack per
    type of `types[i]`, in support order.

    A type's gap is its best value minus <u, x> - lam * KL(x || anchor),
    with `regularized_regret`'s rule at the ends: lam = inf times a zero KL
    counts 0, and at lam = 0 the gap is the unregularized best-response
    gain.  The result is clamped at 0: the gap is nonnegative by optimality
    of the smooth best response, so below 0 is rounding residue."""
    mixtures = [td.mixture(pols) for td, pols in zip(types, policies)]
    u_vecs = [contract(contraction(payoffs[:, i], i), mixtures) for i in range(2)]
    gap = np.zeros(len(payoffs))
    for u, anchor, td, pols in zip(u_vecs, anchors, types, policies):
        for lam, w, pol in zip(td.lambdas, td.weights, pols):
            achieved = _row_dots(u, pol)
            if lam > 0:
                kl = _kl_rows(pol, anchor)
                with np.errstate(invalid="ignore"):     # inf * 0 where KL is 0
                    achieved -= np.where(kl == 0, 0.0, lam * kl)
            gap += w * (_sbr_values(u, anchor, lam) - achieved)
    return np.maximum(gap, 0.0)


def unregularized_exploitability(game: NormalFormGame, profile) -> float:
    """Sum over players of the best-response gain against the profile."""
    if game.player_count != 2 or not game.zero_sum:
        raise ValueError("requires a two-player zero-sum game")
    mixtures = [np.asarray(p, dtype=float) for p in profile]
    u_vecs = [game.utility_vector(i, mixtures) for i in range(2)]
    return sum(float(np.max(u_vecs[i]) - u_vecs[i] @ mixtures[i]) for i in range(2))


def regret_bound(payoff_bound: float, iterations: int, eta: float, lam: float,
                 anchor) -> float:
    """Analytic upper bound on the cumulative regularized regret of an
    anchored learner over n = len(anchor) actions: (U^2/4) * min{2 log T /
    lam, T eta} + log n / eta + rho, with rho = lam * KL(uniform || anchor) >= 0."""
    anchor = np.asarray(anchor, dtype=float)
    if iterations < 1 or eta <= 0 or lam < 0 or anchor.size < 1:
        raise ValueError("invalid bound parameters")
    kl_u = kl_divergence(uniform_policy(anchor.size), anchor)
    rho = 0.0 if lam == 0 or kl_u == 0.0 else lam * kl_u
    return (_min_term(payoff_bound, iterations, eta, lam)
            + math.log(anchor.size) / eta + rho)


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
    # Sums that overflow give a non-finite regret; numpy need not warn as well.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q_final = u.mean(axis=0)
        if lam == 0:
            comparator = T * float(np.max(q_final))
            kl_total = 0.0
        else:
            comparator = T * sbr_value(q_final, anchor, lam)
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
        report.bound = regret_bound(payoff_bound, T, eta, lam, anchor)
        report.min_term = _min_term(payoff_bound, T, eta, lam)
        report.log_n_term = math.log(n) / eta
    return report


def last_iterate_distance(current, profile: RegularizedProfile, kappa) -> float:
    """Distance to the regularized equilibrium, over the profile's types:
    sum_i E_lambda [(lambda + kappa_i) * KL(x*_{i,lambda} || x^T_{i,lambda})]."""
    kappas = [float(kappa)] * len(current) if np.isscalar(kappa) else list(kappa)
    total = 0.0
    for i, by_type in enumerate(current):
        td = profile.types[i]
        for lam, w in zip(td.lambdas, td.weights):
            if lam not in by_type:
                raise ValueError(f"player {i} missing iterate for lambda {lam}")
            total += w * (lam + kappas[i]) * kl_divergence(
                profile.policies[i][lam], by_type[lam])
    return total


def stage_payoffs(game: TabularMarkovGame, states, values) -> np.ndarray:
    """The ``(B, P, *A)`` one-step lookahead stage payoffs
    u_i(a) = r_i(s, a) + gamma * E_{s'}[V_i(s')] of B states that share their
    action counts and successors (a `stage_groups` group).

    `values` is the ``(S + 1, P)`` value array, TERMINAL's last row 0.  The
    expectation is accumulated from +0.0 one successor at a time in
    `next_states` order, elementwise over the stack (an axis-0 reduce adds
    its slices in order), so each state's payoffs have the bits of a build
    of it alone; a sum from +0.0 is never -0.0, so TERMINAL's +0.0 terms
    change no bit.  Non-finite payoffs raise `FloatingPointError`."""
    if TERMINAL in states:
        raise ValueError("terminal state has no stage game")
    first = states[0]
    if len(states) == 1:
        rewards, probs = game.R[first][None], game.T[first][None]
    else:
        rewards = np.stack([game.R[s] for s in states])
        probs = np.stack([game.T[s] for s in states])
    succ = game.next_states[first]
    later = values[list(succ)].reshape(len(succ), 1, game.player_count,
                                       *(1,) * (probs.ndim - 2))
    # (K, B, P, *A): the successor axis first, whose reduce adds in order
    terms = later * probs.transpose(probs.ndim - 1, *range(probs.ndim - 1))[:, :, None]
    total = rewards + game.gamma * np.add.reduce(terms, axis=0, initial=0.0)
    if not np.isfinite(total).all():
        raise FloatingPointError(f"non-finite stage payoffs at states {list(states)}")
    return total


def stage_game(game: TabularMarkovGame, payoffs) -> NormalFormGame:
    """A state's stage game from its ``(P, *A_s)`` stage payoffs."""
    return NormalFormGame(payoffs.shape[1:], payoffs, payoff_bound=game.stage_bound,
                          zero_sum=game.zero_sum)


def stage_game_from_values(game: TabularMarkovGame, s: int,
                           values: dict) -> NormalFormGame:
    """One-step lookahead stage game at state s from a `{state: vector}`
    dict of its successors' values: the B = 1 call of `stage_payoffs`.  Only
    the benchmark's `add_references` calls it, until ROADMAP item 11."""
    table = np.zeros((game.state_count + 1, game.player_count))
    for s2, v in values.items():
        table[s2] = v
    return stage_game(game, stage_payoffs(game, (s,), table)[0])


def _profile_values(payoffs, policies) -> np.ndarray:
    """``(B, P)``: each player's expected payoff in each of B stacked games
    ``(B, P, *A)`` when every player follows its ``(B, A_i)`` policy."""
    return np.stack([_row_dots(contract(contraction(payoffs[:, i], i), policies), p)
                     for i, p in enumerate(policies)], axis=1)


def _seat_rows(table, game: TabularMarkovGame, group) -> list:
    """Each player's ``(B, A_i)`` rows of an ``(S, P, W)`` array at a stage group."""
    return [table[list(group), i, :n] for i, n in enumerate(game.action_counts[group[0]])]


def solve_markov_backward(game: TabularMarkovGame, anchors, lambdas,
                          tol: float = 1e-10):
    """Backward induction with a regularized equilibrium solve at each state.

    `anchors` is an ``(S, P, W)`` array; `lambdas` is one positive lambda per
    player.  Returns (values, per-state profiles), where values[s] is the
    per-player expected value of equilibrium play from s, both dicts in
    `game.layers` order (the benchmark's `add_references` reads `.items()`,
    until ROADMAP item 11).  Each `stage_groups` group of a layer is one
    stage-payoff stack, one `_newton_equilibria` call and one stacked pass.
    """
    if game.player_count != 2 or not game.zero_sum:
        raise ValueError("requires a two-player zero-sum Markov game")
    types = tuple(TypeDistribution.singleton(l) for l in lambdas)
    values = np.zeros((game.state_count + 1, 2))
    profiles: dict = {}
    for layer in game.layers:
        for group in game.stage_groups(layer):
            payoffs = stage_payoffs(game, group, values)
            found, pols = _newton_equilibria(payoffs, _seat_rows(anchors, game, group),
                                             types, tol)
            # one type per player: its policy is the mixture, bit for bit
            values[list(group)] = _profile_values(payoffs, [p[:, 0] for p in pols])
            profiles.update(zip(group, found))
        for s in layer:
            if not profiles[s].converged:
                raise RuntimeError(f"equilibrium solve failed at state {s}: "
                                   f"residual {profiles[s].residual}")
    order = [s for layer in game.layers for s in layer]
    return {s: values[s] for s in order}, {s: profiles[s] for s in order}


def evaluate_markov_profile(game: TabularMarkovGame, policies) -> np.ndarray:
    """The ``(S + 1, P)`` values of an ``(S, P, W)`` policy array's product
    profile, one stacked pass per `stage_groups` group of each layer."""
    values = np.zeros((game.state_count + 1, game.player_count))
    for layer in game.layers:
        for group in game.stage_groups(layer):
            values[list(group)] = _profile_values(stage_payoffs(game, group, values),
                                                  _seat_rows(policies, game, group))
    return values


def uniform_anchors(game: TabularMarkovGame) -> np.ndarray:
    """The uniform policies as a read-only ``(S, P, W)`` array.  The benchmark
    reads ``[(s, 1)]`` as a W-action anchor, until ROADMAP item 11."""
    counts = np.array(game.action_counts)[..., None]
    anchors = np.where(np.arange(counts.max()) < counts, 1.0 / counts, 0.0)
    anchors.setflags(write=False)
    return anchors
