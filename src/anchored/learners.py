"""Anchored no-regret learners: hedge, fictitious play, piKL-hedge, DiL-piKL.

A single running average Q of hindsight rewards is shared across all types;
the per-type state is only the running average of that type's iterates.  With
a singleton type set the distributional learner reduces exactly to piKL-hedge,
with lambda = 0 to hedge, and with a zero temperature on top of lambda = 0 to
fictitious play.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .games import (NormalFormGame, cdf, contract_stacked, contraction, draw,
                    make_anchor, stacked_contraction)

INF = math.inf
#: The adaptive_std schedule's least kappa.
KAPPA_FLOOR = 1e-6


@dataclass(frozen=True)
class TypeDistribution:
    """Finite support of regularization strengths with belief weights."""

    lambdas: tuple[float, ...]
    weights: tuple[float, ...]
    weight_cdf: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lams = tuple(float(l) for l in self.lambdas)
        w = tuple(float(x) for x in self.weights)
        if len(lams) != len(w) or not lams:
            raise ValueError("support and weights must be non-empty and equal length")
        if any(l < 0 for l in lams):
            raise ValueError("lambda values must be >= 0 (inf allowed)")
        if list(lams) != sorted(set(lams)):
            raise ValueError("lambda values must be distinct and sorted ascending")
        if any(x < 0 for x in w) or abs(sum(w) - 1.0) > 1e-12:
            raise ValueError("weights must be a probability vector")
        object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "weight_cdf", cdf(w))

    @classmethod
    def singleton(cls, lam: float) -> "TypeDistribution":
        return cls((lam,), (1.0,))

    @classmethod
    def uniform(cls, lambdas) -> "TypeDistribution":
        lams = tuple(sorted(float(l) for l in lambdas))
        return cls(lams, tuple(1.0 / len(lams) for _ in lams))

    def mixture(self, policies) -> np.ndarray:
        """Belief-weighted mixture of per-type policies given in support
        order, accumulated in that order."""
        mix = np.zeros(np.shape(policies[0]))
        for w, pol in zip(self.weights, policies):
            mix += w * pol
        return mix


@dataclass(frozen=True)
class TemperatureSchedule:
    """Temperature kappa_t for the hedge part of the update.

    Modes:
      adaptive_std : kappa_t = max(3 * S_t / (10 * sqrt(t)), KAPPA_FLOOR), where
                     S_t is the sample std of realized utilities so far (default)
      constant_eta : kappa_t = 1/(eta * t), the one mode that takes eta
      inverse_sqrt : kappa_t = 1/sqrt(t)
    """

    mode: str = "adaptive_std"
    eta: float | None = None

    def __post_init__(self):
        if self.mode not in ("constant_eta", "inverse_sqrt", "adaptive_std"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if self.mode != "constant_eta" and self.eta is not None:
            raise ValueError(f"only the constant_eta mode takes eta, not {self.mode}")
        if self.mode == "constant_eta" and (self.eta is None or not self.eta > 0):
            raise ValueError("constant_eta requires eta > 0 (inf allowed for kappa == 0)")

    def kappas(self, t: int, stats) -> list[float]:
        """kappa_t for iteration index t >= 1, one per player's
        `UtilityStats` in `stats`."""
        if t < 1:
            raise ValueError("t must be >= 1")
        if self.mode == "constant_eta":
            return [1.0 / (self.eta * t)] * len(stats)
        if self.mode == "inverse_sqrt":
            return [1.0 / math.sqrt(t)] * len(stats)
        root = 10.0 * math.sqrt(t)
        return [max(3.0 * st.std() / root, KAPPA_FLOOR) for st in stats]


@dataclass
class UtilityStats:
    """Welford accumulator for realized utilities (feeds adaptive_std)."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def add(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)

    def std(self) -> float:
        if self.count < 2:
            return 0.0
        return math.sqrt(self.m2 / (self.count - 1))


def policy_for_type(q: np.ndarray, anchor: np.ndarray, lam: float,
                    kappa: float) -> np.ndarray:
    """The anchored-hedge iterate: proportional to
    exp{(Q(a) + lam*log tau(a)) / (kappa + lam)}.

    lam = inf returns the anchor exactly; kappa = lam = 0 is the
    fictitious-play step (uniform over argmax Q).
    """
    if kappa < 0 or lam < 0:
        raise ValueError("kappa and lambda must be >= 0")
    if lam == INF:
        return np.array(anchor, dtype=float)
    if kappa + lam == 0.0:
        best = np.isclose(q, q.max(), rtol=0.0, atol=1e-12)
        return best / best.sum()
    # As in the kernel, overflow leaves a non-finite iterate for the caller
    # to report; numpy need not warn as well.
    with np.errstate(over="ignore", invalid="ignore"):
        z = q if lam == 0.0 else q + lam * np.log(anchor)
        z = z / (kappa + lam)
        z = z - z.max()
        p = np.exp(z)
        return p / p.sum()


def _row_starts(type_supports) -> list[int]:
    """Index of each player's first (player, type) row, player-major."""
    return [0, *accumulate(len(support) for support in type_supports)]


class Learners:
    """The state of one self-play run, one array per quantity.

    Player i has an anchor, a `TypeDistribution` and one running average Q
    shared across its types; each (player, type) row sums that type's
    iterates.  `q` is [P, W] and `avg` is [rows, W], rows player-major in
    support order and zero past a player's action count; `t` counts the
    completed steps, and `utility_stats` holds one `UtilityStats` per player.
    All players share one schedule.  `run_selfplay` updates the arrays in
    place.
    """

    def __init__(self, anchors, types, schedule: TemperatureSchedule):
        if len(anchors) != len(types):
            raise ValueError("need one type distribution per anchor")
        self.anchors = tuple(make_anchor(a) for a in anchors)
        self.types = tuple(types)
        self.schedule = schedule
        self.action_counts = tuple(len(a) for a in self.anchors)
        self.row_start = _row_starts([td.lambdas for td in self.types])
        width = max(self.action_counts)
        self.t = 0
        self.q = np.zeros((len(self.anchors), width))
        self.avg = np.zeros((self.row_start[-1], width))
        self.utility_stats = [UtilityStats() for _ in self.anchors]

    def kappas(self) -> list[float]:
        """Each player's kappa_{t-1}, the temperature of the iteration-(t+1)
        iterate; the first iterate, of Q = 0, takes kappa_1."""
        return self.schedule.kappas(max(self.t, 1), self.utility_stats)

    def policy(self, i: int, lam: float) -> np.ndarray:
        """Player i's current iterate of type `lam`; `lam` may lie outside
        the support (an acting lambda)."""
        n = self.action_counts[i]
        return policy_for_type(self.q[i, :n], self.anchors[i], lam, self.kappas()[i])

    def average_policy(self, i: int, lam: float) -> np.ndarray:
        if self.t == 0:
            raise ValueError("no iterations completed")
        row = self.row_start[i] + self.types[i].lambdas.index(lam)
        return self.avg[row, :self.action_counts[i]] / self.t

    def average_mixture(self, i: int) -> np.ndarray:
        """Player i's belief-weighted mixture of its types' average policies,
        which with one type is that type's (a product with weight 1.0 is
        exact)."""
        pols = [self.average_policy(i, lam) for lam in self.types[i].lambdas]
        return pols[0] if len(pols) == 1 else self.types[i].mixture(pols)


class Trace:
    """Per-iteration record of a self-play run, one preallocated array per
    column.

    `kappas` and `realized` are [T, P]; `utilities` is [T, P, A] and
    `policies` is [T, rows, A], with one row per (player, type) in the
    player-major order of `type_supports` (player i's from `row_start[i]`)
    and zero padding past a player's action count.  `actions` and
    `sampled_lambdas` are [T, P] in a sampled-feedback run and None in an
    expected-feedback one.
    """

    def __init__(self, action_counts, type_supports, iterations: int,
                 sampled: bool):
        self.action_counts = tuple(int(n) for n in action_counts)
        self.n_players = len(self.action_counts)
        self.type_supports = [tuple(s) for s in type_supports]
        self.row_start = _row_starts(self.type_supports)
        width = max(self.action_counts)
        shape = (iterations, self.n_players)
        self.kappas = np.zeros(shape)
        self.realized = np.zeros(shape)
        self.utilities = np.zeros(shape + (width,))
        self.policies = np.zeros((iterations, self.row_start[-1], width))
        self.actions = np.zeros(shape, dtype=np.int64) if sampled else None
        self.sampled_lambdas = np.zeros(shape) if sampled else None

    def __len__(self) -> int:
        return len(self.kappas)

    def utility_matrix(self, player: int) -> np.ndarray:
        n = self.action_counts[player]
        return np.ascontiguousarray(self.utilities[:, player, :n])

    def policy_matrix(self, player: int, lam: float) -> np.ndarray:
        row = self.row_start[player] + self.type_supports[player].index(lam)
        n = self.action_counts[player]
        return np.ascontiguousarray(self.policies[:, row, :n])


def _index(rows: list[int]):
    """`rows` as a slice when they are evenly spaced, else as an index array."""
    step = rows[1] - rows[0] if len(rows) > 1 else 1
    if step > 0 and rows == list(range(rows[0], rows[-1] + 1, step)):
        return slice(rows[0], rows[-1] + 1, step)
    return np.array(rows)


def _gather(a: np.ndarray, rows: list[int]):
    """A function returning `a[rows]` without allocating: a view built once
    when `_index` gives a slice, else a `take` into one buffer (in "clip"
    mode, since under the default "raise" numpy buffers `out` again)."""
    idx = _index(rows)
    if isinstance(idx, slice):
        view = a[idx]
        return lambda: view
    buf = np.empty((len(rows), *a.shape[1:]))
    return lambda: a.take(idx, 0, out=buf, mode="clip")


def _selfplay(game: NormalFormGame, learners: Learners, iterations: int,
              rng: np.random.Generator | None, trace: Trace | None):
    """The self-play kernel: `iterations` steps of all learners at once,
    with sampled feedback when `rng` is given and expected feedback
    otherwise.

    Each step forms every (player, type) iterate with one softmax per
    action-count group, takes the players' utilities and reproduces
    `policy_for_type` and `UtilityStats` bit for bit.  When P >= 3 players
    share A >= 2 actions, one `stacked_contraction` plan gives every
    player's utilities, one batched matmul per step, and one more batched
    matmul the realized utilities; otherwise each player follows its B = 1
    `contraction` plan, one `np.dot` per step.  Both have the bits of the
    per-player `np.dot` steps.  A step runs on buffers and views built once
    per call: the softmax runs in place in the policy rows (in a buffer when
    a group's rows are not evenly spaced), the belief mixture of a player
    with one type is its policy row (a product with weight 1.0 is exact), and
    every other result goes into a buffer, except in the argmax rule and the
    intermediate steps of a contraction of three or more players.
    Sampled feedback draws each step's types and actions from one row of a block
    of uniforms, one double per draw: the doubles and indices of a
    per-player `Generator.choice` loop.  Updates the learners' arrays in
    place and fills `trace` if given.
    """
    counts = learners.action_counts
    n_players = len(counts)
    width = max(counts)
    supports = [td.lambdas for td in learners.types]
    starts = learners.row_start
    rows = [(i, lam) for i, support in enumerate(supports) for lam in support]
    q, avg, stats = learners.q, learners.avg, learners.utility_stats
    u = np.zeros((n_players, width))
    du = np.empty_like(u)
    # The policy rows, then one belief-weighted mixture row per player with
    # several types, so that one `take` gathers any player's mixture.
    multi = [i for i, s in enumerate(supports) if len(s) > 1]
    pol_mix = np.zeros((len(rows) + len(multi), width))
    pol, mix = pol_mix[:len(rows)], pol_mix[len(rows):]
    q_rows = [q[i, :n] for i, n in enumerate(counts)]
    u_rows = [u[i, :n] for i, n in enumerate(counts)]
    pol_rows = [pol[r, :counts[i]] for r, (i, _) in enumerate(rows)]
    for r, (i, lam) in enumerate(rows):
        if lam == INF:
            pol_rows[r][...] = learners.anchors[i]
    t0 = learners.t

    # One softmax per action count over its finite-lambda rows; a lambda = 0
    # row adds 0 * log(anchor), which leaves Q unchanged.
    groups = []
    for n in sorted(set(counts)):
        g = [r for r, (i, lam) in enumerate(rows) if counts[i] == n and lam != INF]
        if g:
            pairs = [rows[r] for r in g]
            lams = np.array([[lam] for _, lam in pairs])
            shift = lams * np.log([learners.anchors[i] for i, _ in pairs])
            at = _index(g)
            z = pol[at, :n] if isinstance(at, slice) else np.empty((len(g), n))
            scatter = None if isinstance(at, slice) else (at, slice(0, n))
            # Each row's divisor, max and sum, repeated along the row: a
            # broadcast operand costs numpy more than a copy into `b` does.
            b = np.empty((len(g), n))
            groups.append((_gather(q[:, :n], [i for i, _ in pairs]), shift, z, b,
                           b.T, np.empty(len(g)), pairs, scatter))

    sampled = rng is not None
    if sampled:
        type_cdfs = [td.weight_cdf if len(td.lambdas) > 1 else None
                     for td in learners.types]
        draws = n_players + sum(c is not None for c in type_cdfs)
        uniforms = rng.random((iterations, draws))
    else:
        # The belief-weighted mixture of the players with several types, one
        # type slot at a time; a player with fewer types adds weight 0 in the
        # missing slots.
        weights = [learners.types[i].weights for i in multi]
        slots = []
        for k in range(max(map(len, weights), default=0)):
            slot = [starts[i] + min(k, len(ws) - 1) for i, ws in zip(multi, weights)]
            w = np.array([[ws[k] if k < len(ws) else 0.0] * width for ws in weights])
            slots.append((_gather(pol, slot), w))
        product = np.empty_like(mix)
        mix_at = list(starts[:-1])      # each player's mixture row in pol_mix
        for k, i in enumerate(multi):
            mix_at[i] = len(rows) + k
        stacked = stacked_contraction(game.payoffs)
        if stacked is None:
            mix_rows = [pol_mix[r, :n] for r, n in zip(mix_at, counts)]
            plans = []
            for i, payoff in enumerate(game.payoffs):
                first, ((j, _, _), *later) = contraction(payoff[None], i)
                plans.append((first[0], j, later))
        else:
            # Each step's opponent mixtures, then each player's own, in one
            # `take`; u is [P, A] here.
            gather_at = np.array(mix_at)[np.vstack([stacked[1], range(n_players)])]
            gathered = np.empty((n_players, n_players, width))
            u_out, realized_out = u[:, :, None], np.empty((n_players, 1, 1))
    realized = [0.0] * n_players
    # Overflow leaves a non-finite iterate, which the sampled draw or the
    # caller reports as a numerical failure; numpy need not warn as well.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(t0, t0 + iterations):
            kappas = learners.kappas()
            for gather, shift, z, b, b_t, r, pairs, scatter in groups:
                np.add(gather(), shift, out=z)
                d = [kappas[i] + lam for i, lam in pairs]
                argmax = [k for k, x in enumerate(d) if x == 0.0] if 0.0 in d else ()
                for k in argmax:
                    d[k] = 1.0
                b_t[...] = d
                np.divide(z, b, out=z)
                np.maximum.reduce(z, 1, None, r)
                b_t[...] = r
                np.subtract(z, b, out=z)
                np.exp(z, out=z)
                np.add.reduce(z, 1, None, r)
                b_t[...] = r
                np.divide(z, b, out=z)
                for k in argmax:    # kappa = lambda = 0: the argmax rule
                    i = pairs[k][0]
                    z[k] = policy_for_type(q_rows[i], learners.anchors[i], 0.0, 0.0)
                if scatter is not None:
                    pol[scatter] = z
            if sampled:
                lams_t, joint = [], []
                u_t = iter(uniforms[t - t0].tolist())
                for i, r in enumerate(starts[:-1]):
                    if type_cdfs[i] is not None:
                        r += draw(type_cdfs[i], next(u_t))
                    lams_t.append(rows[r][1])
                    try:
                        joint.append(draw(cdf(pol_rows[r]), next(u_t)))
                    except ValueError as exc:   # only a non-finite iterate fails cdf
                        raise FloatingPointError(f"non-finite iterate at step {t}") from exc
                for i, payoff in enumerate(game.payoffs):
                    u_rows[i][...] = payoff[tuple(joint[:i]) + (slice(None),)
                                            + tuple(joint[i + 1:])]
                    realized[i] = float(u_rows[i][joint[i]])
            else:
                if slots:
                    (gather, w), *rest = slots
                    np.multiply(w, gather(), out=mix)
                    for gather, w in rest:
                        np.multiply(w, gather(), out=product)
                        mix += product
                if stacked is not None:
                    pol_mix.take(gather_at, 0, out=gathered, mode="clip")
                    contract_stacked(stacked, gathered[:-1], u_out)
                    np.matmul(u[:, None], gathered[-1, :, :, None], out=realized_out)
                    realized = realized_out.ravel().tolist()
                else:
                    for i, (matrix, j, later) in enumerate(plans):
                        x = np.dot(matrix, mix_rows[j], out=None if later else u_rows[i])
                        for k, (j, shape, axes) in enumerate(later, 1):
                            x = np.dot(x.reshape(shape).transpose(axes).reshape(-1, shape[j]),
                                       mix_rows[j], out=u_rows[i] if k == len(later) else None)
                        realized[i] = float(u_rows[i].dot(mix_rows[i]))
            avg += pol
            np.subtract(u, q, out=du)
            du /= t + 1
            q += du
            for st, x in zip(stats, realized):
                st.add(x)
            learners.t = t + 1
            if trace is not None:
                s = t - t0
                trace.kappas[s] = kappas
                trace.realized[s] = realized
                trace.utilities[s] = u
                trace.policies[s] = pol
                if sampled:
                    trace.actions[s] = joint
                    trace.sampled_lambdas[s] = lams_t


def run_selfplay(game: NormalFormGame, learners: Learners, iterations: int,
                 rng: np.random.Generator | None = None,
                 record: bool = True) -> Trace | None:
    """Drive `iterations` steps of self-play from the state in `learners`,
    which it advances, optionally recording a trace.  Feedback is sampled
    from `rng` when one is given and expected otherwise."""
    if learners.action_counts != game.action_counts:
        raise ValueError("learner action counts do not match the game")
    trace = None
    if record:
        trace = Trace(game.action_counts, [td.lambdas for td in learners.types],
                      iterations, rng is not None)
    _selfplay(game, learners, iterations, rng, trace)
    return trace
