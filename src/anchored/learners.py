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

import numpy as np

from .games import NormalFormGame, make_anchor, uniform_policy

INF = math.inf


@dataclass(frozen=True)
class TypeDistribution:
    """Finite support of regularization strengths with belief weights."""

    lambdas: tuple[float, ...]
    weights: tuple[float, ...]

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

    def sample(self, rng: np.random.Generator) -> float:
        if len(self.lambdas) == 1:
            return self.lambdas[0]
        i = rng.choice(len(self.lambdas), p=self.weights)
        return self.lambdas[i]


@dataclass(frozen=True)
class TemperatureSchedule:
    """Temperature kappa_t for the hedge part of the update.

    Modes:
      constant_eta : kappa_t = 1/(eta * t)
      inverse_sqrt : kappa_t = 1/sqrt(t)
      adaptive_std : kappa_t = max(3 * S_t / (10 * sqrt(t)), kappa_floor), where
                     S_t is the sample std of realized utilities so far
    """

    mode: str = "constant_eta"
    eta: float | None = None
    kappa_floor: float = 0.0

    def __post_init__(self):
        if self.mode not in ("constant_eta", "inverse_sqrt", "adaptive_std"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if self.mode == "constant_eta" and (self.eta is None or not self.eta > 0):
            raise ValueError("constant_eta requires eta > 0 (inf allowed for kappa == 0)")
        if self.kappa_floor < 0:
            raise ValueError("kappa_floor must be >= 0")

    @classmethod
    def adaptive(cls, kappa_floor: float = 1e-6) -> "TemperatureSchedule":
        return cls(mode="adaptive_std", kappa_floor=kappa_floor)

    def kappa(self, t: int, utility_stats: "UtilityStats | None" = None) -> float:
        """kappa_t for iteration index t >= 1."""
        if t < 1:
            raise ValueError("t must be >= 1")
        if self.mode == "constant_eta":
            k = 1.0 / (self.eta * t)
        elif self.mode == "inverse_sqrt":
            k = 1.0 / math.sqrt(t)
        else:
            if utility_stats is None or utility_stats.count < 2:
                return self.kappa_floor
            k = 3.0 * utility_stats.std() / (10.0 * math.sqrt(t))
        return max(k, self.kappa_floor)

    def kappa_initial(self) -> float:
        """kappa_0 used by the very first iterate, where the schedules are
        undefined; chosen as the natural continuation of each mode."""
        if self.mode == "constant_eta":
            return max(1.0 / self.eta, self.kappa_floor)
        if self.mode == "inverse_sqrt":
            return max(1.0, self.kappa_floor)
        return self.kappa_floor


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


def policy_for_type(q: np.ndarray, anchor: np.ndarray, lam: float, kappa: float,
                    argmax_fallback: bool = True) -> np.ndarray:
    """The anchored-hedge iterate: proportional to
    exp{(Q(a) + lam*log tau(a)) / (kappa + lam)}.

    lam = inf returns the anchor exactly; kappa = lam = 0 is the
    fictitious-play step (uniform over argmax Q) when the fallback is enabled.
    """
    if kappa < 0 or lam < 0:
        raise ValueError("kappa and lambda must be >= 0")
    if lam == INF:
        return np.array(anchor, dtype=float)
    if kappa + lam == 0.0:
        if not argmax_fallback:
            raise ValueError("kappa == 0 and lambda == 0 with argmax fallback disabled")
        best = np.isclose(q, q.max(), rtol=0.0, atol=1e-12)
        return best / best.sum()
    z = q if lam == 0.0 else q + lam * np.log(anchor)
    z = z / (kappa + lam)
    z = z - z.max()
    p = np.exp(z)
    return p / p.sum()


@dataclass
class Learner:
    """Per-player learner state for one self-play run.

    `policy` and `observe` are the scalar reference for one player's step.
    Self-play itself runs in the array kernel behind `run_selfplay`, which
    reads this state at the start of a call and writes it back at the end.
    """

    player: int
    n_actions: int
    anchor: np.ndarray
    types: TypeDistribution
    schedule: TemperatureSchedule
    uniform_first_iterate: bool = False

    t: int = 0
    q: np.ndarray = field(init=False)
    utility_stats: UtilityStats = field(default_factory=UtilityStats)
    _avg_sums: dict = field(init=False)
    _avg_counts: int = 0

    def __post_init__(self):
        if self.n_actions < 1:
            raise ValueError("need at least one action")
        self.anchor = make_anchor(self.anchor)
        if self.anchor.shape != (self.n_actions,):
            raise ValueError("anchor dimension does not match action count")
        self.q = np.zeros(self.n_actions)
        self._avg_sums = {lam: np.zeros(self.n_actions) for lam in self.types.lambdas}

    def current_kappa(self) -> float:
        """kappa_{t-1}, the temperature used to form the iteration-(t+1) policy."""
        if self.t == 0:
            return self.schedule.kappa_initial()
        return self.schedule.kappa(self.t, self.utility_stats)

    def policy(self, lam: float, kappa: float | None = None) -> np.ndarray:
        """The current iterate of type `lam`; `lam` may lie outside the
        support (an acting lambda)."""
        if kappa is None:
            kappa = self.current_kappa()
        if self.t == 0 and self.uniform_first_iterate:
            return uniform_policy(self.n_actions)
        return policy_for_type(self.q, self.anchor, lam, kappa)

    def observe(self, utility_vector: np.ndarray, realized_utility: float,
                iteration: int | None = None) -> None:
        """Fold iteration-t utilities into the running averages.

        `utility_vector[a]` is the utility of own action a against the
        opponents' realized (or expected) play this iteration.
        """
        if iteration is not None and iteration != self.t + 1:
            raise ValueError(f"observe() expected iteration {self.t + 1}, got {iteration}")
        u = np.asarray(utility_vector, dtype=float)
        if u.shape != (self.n_actions,):
            raise ValueError("utility vector has wrong length")
        self.t += 1
        self.q += (u - self.q) / self.t
        self.utility_stats.add(float(realized_utility))

    def average_policy(self, lam: float) -> np.ndarray:
        if self._avg_counts == 0:
            raise ValueError("no iterations completed")
        return self._avg_sums[lam] / self._avg_counts

    def average_mixture_policy(self) -> np.ndarray:
        return self.types.mixture([self.average_policy(lam)
                                   for lam in self.types.lambdas])


def init_learner(player: int, actions: int, anchor, types: TypeDistribution,
                 schedule: TemperatureSchedule,
                 uniform_first_iterate: bool = False) -> Learner:
    return Learner(player=player, n_actions=actions, anchor=np.asarray(anchor, float),
                   types=types, schedule=schedule,
                   uniform_first_iterate=uniform_first_iterate)


def _row_starts(type_supports) -> list[int]:
    """Index of each player's first (player, type) row, player-major."""
    starts = [0]
    for support in type_supports:
        starts.append(starts[-1] + len(support))
    return starts


class Trace:
    """Per-iteration record of a self-play run, one preallocated array per
    column.

    `kappas` and `realized` are [T, P]; `utilities` is [T, P, A] and
    `policies` is [T, rows, A], with one row per (player, type) in the
    player-major order of `type_supports` and zero padding past a player's
    action count.  `actions` and `sampled_lambdas` are [T, P] in a
    sampled-feedback run and None in an expected-feedback one.
    """

    def __init__(self, action_counts, type_supports, iterations: int,
                 sampled: bool):
        self.action_counts = tuple(int(n) for n in action_counts)
        self.n_players = len(self.action_counts)
        self.type_supports = [tuple(s) for s in type_supports]
        starts = _row_starts(self.type_supports)
        self._row_start = starts[:-1]
        width = max(self.action_counts)
        shape = (iterations, self.n_players)
        self.kappas = np.zeros(shape)
        self.realized = np.zeros(shape)
        self.utilities = np.zeros(shape + (width,))
        self.policies = np.zeros((iterations, starts[-1], width))
        self.actions = np.zeros(shape, dtype=np.int64) if sampled else None
        self.sampled_lambdas = np.zeros(shape) if sampled else None

    def __len__(self) -> int:
        return len(self.kappas)

    def utility_matrix(self, player: int) -> np.ndarray:
        n = self.action_counts[player]
        return np.ascontiguousarray(self.utilities[:, player, :n])

    def policy_matrix(self, player: int, lam: float) -> np.ndarray:
        row = self._row_start[player] + self.type_supports[player].index(lam)
        n = self.action_counts[player]
        return np.ascontiguousarray(self.policies[:, row, :n])

    def records(self):
        """Iterate export-shaped dict records (1-based t)."""
        kappas, realized = self.kappas.tolist(), self.realized.tolist()
        utilities, policies = self.utilities.tolist(), self.policies.tolist()
        unsampled = [[None] * self.n_players] * len(self)
        actions = unsampled if self.actions is None else self.actions.tolist()
        lams = (unsampled if self.sampled_lambdas is None
                else self.sampled_lambdas.tolist())
        for t in range(len(self)):
            yield {
                "t": t + 1,
                "kappa": kappas[t],
                "per_player": [
                    {
                        "sampled_lambda": lams[t][i],
                        "action": actions[t][i],
                        "policy_by_type": {
                            repr(lam): policies[t][self._row_start[i] + k][:n]
                            for k, lam in enumerate(self.type_supports[i])
                        },
                        "action_utilities": utilities[t][i][:n],
                    }
                    for i, n in enumerate(self.action_counts)
                ],
                "utilities": realized[t],
            }

    @classmethod
    def from_records(cls, records, type_supports) -> "Trace":
        records = list(records)
        if not records:
            raise ValueError("empty record stream")
        first = records[0]["per_player"]
        trace = cls([len(p["action_utilities"]) for p in first], type_supports,
                    len(records), first[0]["action"] is not None)
        for t, rec in enumerate(records):
            trace.kappas[t] = rec["kappa"]
            trace.realized[t] = rec["utilities"]
            for i, p in enumerate(rec["per_player"]):
                n = trace.action_counts[i]
                trace.utilities[t, i, :n] = p["action_utilities"]
                for k, lam in enumerate(trace.type_supports[i]):
                    trace.policies[t, trace._row_start[i] + k, :n] = \
                        p["policy_by_type"][repr(lam)]
                if trace.actions is not None:
                    trace.actions[t, i] = p["action"]
                    trace.sampled_lambdas[t, i] = p["sampled_lambda"]
        return trace

    def replay_q(self, player: int, upto: int | None = None) -> np.ndarray:
        """Recomputation oracle: Q from the stored utility vectors."""
        u = self.utility_matrix(player)
        if upto is not None:
            u = u[:upto]
        return u.mean(axis=0)


def _check_learners(learners, game: NormalFormGame) -> None:
    if len(learners) != game.player_count:
        raise ValueError("one learner per player required")
    ts = {ln.t for ln in learners}
    if len(ts) != 1:
        raise ValueError("learners are out of step")
    for i, ln in enumerate(learners):
        if ln.n_actions != game.action_counts[i]:
            raise ValueError(f"learner {i} action count does not match game")


def _contractions(game: NormalFormGame):
    """Per player, the `np.dot` calls of `game.utility_vector`.

    `utility_vector` contracts the opponents' axes highest-first with
    `np.tensordot`, which moves the contracted axis last, reshapes to a
    matrix and calls `np.dot`.  The same calls on operands in the same memory
    layout give the same bits.  Returns, per player, the first matrix (it
    depends only on the payoffs), its opponent, and the later steps as
    (opponent, shape before, axis order, matrix shape).
    """
    plans = []
    for i, payoff in enumerate(game.payoffs):
        shape = list(game.action_counts)
        steps = []
        for j in sorted(range(game.player_count), reverse=True):
            if j == i:
                continue
            keep = [k for k in range(len(shape)) if k != j]
            out = [shape[k] for k in keep]
            steps.append((j, shape, keep + [j], (math.prod(out), shape[j])))
            shape = out
        j, _, axes, matrix = steps[0]
        plans.append((payoff.transpose(axes).reshape(matrix), j, steps[1:]))
    return plans


def _index(rows: list[int]):
    """`rows` as a slice when they are consecutive, else as an index array."""
    if rows == list(range(rows[0], rows[-1] + 1)):
        return slice(rows[0], rows[-1] + 1)
    return np.array(rows)


def _selfplay(game: NormalFormGame, learners, iterations: int,
              rng: np.random.Generator | None, trace: Trace | None):
    """The self-play kernel: `iterations` steps of all learners at once,
    with sampled feedback when `rng` is given and expected feedback
    otherwise.

    The learners are packed into (player, type) rows once per call.  Each
    step forms every iterate with one softmax per action-count group and
    reproduces `policy_for_type`, `utility_vector` and `UtilityStats` bit for
    bit; sampled mode makes the same `Generator` calls in the same order as
    a per-player loop.  Fills `trace` if given and writes the state back to
    the learners.
    """
    _check_learners(learners, game)
    counts = game.action_counts
    n_players = len(learners)
    width = max(counts)
    supports = [ln.types.lambdas for ln in learners]
    starts = _row_starts(supports)
    rows = [(i, lam) for i, support in enumerate(supports) for lam in support]
    q = np.zeros((n_players, width))
    u = np.zeros((n_players, width))
    pol = np.zeros((len(rows), width))
    avg = np.zeros((len(rows), width))
    q_rows = [q[i, :n] for i, n in enumerate(counts)]
    u_rows = [u[i, :n] for i, n in enumerate(counts)]
    for i, ln in enumerate(learners):
        q_rows[i][...] = ln.q
    for r, (i, lam) in enumerate(rows):
        avg[r, :counts[i]] = learners[i]._avg_sums[lam]
        if lam == INF:
            pol[r, :counts[i]] = learners[i].anchor
    t0 = learners[0].t
    # A uniform first iterate replaces every row of its player, lambda = inf
    # included, at t = 0 only.
    first = [r for r, (i, _) in enumerate(rows)
             if t0 == 0 and learners[i].uniform_first_iterate]
    if first:
        later_pol = pol[first]
        first_pol = np.zeros_like(later_pol)
        for k, r in enumerate(first):
            n = counts[rows[r][0]]
            first_pol[k, :n] = 1.0 / n

    # One softmax per action count over its finite-lambda rows; a lambda = 0
    # row adds 0 * log(anchor), which leaves Q unchanged.
    groups = []
    for n in sorted(set(counts)):
        g = [r for r, (i, lam) in enumerate(rows) if counts[i] == n and lam != INF]
        if g:
            pairs = [rows[r] for r in g]
            lams = np.array([[lam] for _, lam in pairs])
            shift = lams * np.log([learners[i].anchor for i, _ in pairs])
            groups.append((q[:, :n], pol[:, :n], _index(g),
                           np.array([i for i, _ in pairs]), pairs, shift))

    sampled = rng is not None
    if sampled:
        weights = [ln.types.weights for ln in learners]
        pol_rows = [pol[r, :counts[i]] for r, (i, _) in enumerate(rows)]
    else:
        mix = np.zeros((n_players, width))
        mix_rows = [mix[i, :n] for i, n in enumerate(counts)]
        plans = _contractions(game)
        # The belief-weighted mixture, one type slot at a time; a player with
        # fewer types adds weight 0 in the missing slots.
        slots = []
        for k in range(max(len(s) for s in supports)):
            idx = np.array([starts[i] + min(k, len(s) - 1)
                            for i, s in enumerate(supports)])
            w = np.array([[ln.types.weights[k] if k < len(s) else 0.0]
                          for ln, s in zip(learners, supports)])
            slots.append((idx, w))
    schedules = [ln.schedule for ln in learners]
    stats = [ln.utility_stats for ln in learners]
    realized = [0.0] * n_players
    for t in range(t0, t0 + iterations):
        if t == 0:
            kappas = [s.kappa_initial() for s in schedules]
        else:
            kappas = [s.kappa(t, st) for s, st in zip(schedules, stats)]
        for q_n, pol_n, g, players, pairs, shift in groups:
            z = q_n.take(players, 0)
            z += shift
            d = [[kappas[i] + lam] for i, lam in pairs]
            argmax = [k for k, (x,) in enumerate(d) if x == 0.0] if 0.0 in kappas else ()
            for k in argmax:
                d[k][0] = 1.0
            z /= d
            z -= z.max(1, keepdims=True)
            np.exp(z, out=z)
            z /= z.sum(1, keepdims=True)
            for k in argmax:    # kappa = lambda = 0: the argmax rule
                i = pairs[k][0]
                z[k] = policy_for_type(q_rows[i], learners[i].anchor, 0.0, 0.0)
            pol_n[g] = z
        if t == 0 and first:
            pol[first] = first_pol
        if sampled:
            lams_t, joint = [], []
            for i, r in enumerate(starts[:-1]):
                if len(weights[i]) > 1:
                    r += int(rng.choice(len(weights[i]), p=weights[i]))
                lams_t.append(rows[r][1])
                joint.append(int(rng.choice(counts[i], p=pol_rows[r])))
            for i, payoff in enumerate(game.payoffs):
                u_rows[i][...] = payoff[tuple(joint[:i]) + (slice(None),)
                                        + tuple(joint[i + 1:])]
                realized[i] = float(u_rows[i][joint[i]])
        else:
            idx, w = slots[0]
            np.multiply(w, pol.take(idx, 0), out=mix)
            for idx, w in slots[1:]:
                mix += w * pol.take(idx, 0)
            for i, (matrix, j, steps) in enumerate(plans):
                x = np.dot(matrix, mix_rows[j])
                for j, shape, axes, matrix in steps:
                    x = np.dot(x.reshape(shape).transpose(axes).reshape(matrix),
                               mix_rows[j])
                u_rows[i][...] = x
                realized[i] = float(x @ mix_rows[i])
        avg += pol
        q += (u - q) / (t + 1)
        for st, x in zip(stats, realized):
            st.add(x)
        if trace is not None:
            s = t - t0
            trace.kappas[s] = kappas
            trace.realized[s] = realized
            trace.utilities[s] = u
            trace.policies[s] = pol
            if sampled:
                trace.actions[s] = joint
                trace.sampled_lambdas[s] = lams_t
        if t == 0 and first:
            pol[first] = later_pol
    for i, ln in enumerate(learners):
        ln.t = t0 + iterations
        ln.q[...] = q_rows[i]
        ln._avg_counts += iterations
    for r, (i, lam) in enumerate(rows):
        learners[i]._avg_sums[lam][...] = avg[r, :counts[i]]


def run_selfplay(game: NormalFormGame, learners, iterations: int,
                 mode: str = "sampled", rng: np.random.Generator | None = None,
                 record: bool = True) -> Trace | None:
    """Drive `iterations` steps of self-play, optionally recording a trace."""
    if mode not in ("sampled", "expected"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and rng is None:
        raise ValueError("sampled mode requires an rng")
    trace = None
    if record:
        trace = Trace(game.action_counts, [ln.types.lambdas for ln in learners],
                      iterations, mode == "sampled")
    _selfplay(game, learners, iterations, rng if mode == "sampled" else None, trace)
    return trace
