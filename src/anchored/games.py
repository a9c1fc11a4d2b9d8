"""Normal-form and small tabular Markov game representations plus scoring utilities.

Games are immutable after construction and all generators are deterministic in
their seed, so serialized output is reproducible bit-for-bit.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, product

import numpy as np

ANCHOR_FLOOR = 1e-12

#: `Generator.choice`'s tolerance on |sum(p) - 1|: sqrt(eps) of float64, and of
#: the dtype for a float16 or float32 array (`LOOSE_ATOL`).
SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))
LOOSE_ATOL = {np.dtype(t): np.sqrt(np.finfo(t).eps) for t in (np.float16, np.float32)}

#: Sentinel id of the absorbing terminal state of a Markov game.
TERMINAL = -1


def make_anchor(probs, floor: float = ANCHOR_FLOOR) -> np.ndarray:
    """Clamp-and-renormalize a probability vector so every entry is >= floor.

    Anchors feed log() downstream, so zero entries are never allowed through.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("anchor must be a non-empty 1-D probability vector")
    if np.any(p < 0) or not np.isfinite(p).all():
        raise ValueError("anchor entries must be finite and nonnegative")
    s = p.sum()
    if s <= 0:
        raise ValueError("anchor must have positive mass")
    p = np.maximum(p / s, floor)
    p = p / p.sum()
    p.setflags(write=False)
    return p


def uniform_policy(n: int) -> np.ndarray:
    p = np.full(n, 1.0 / n)
    p.setflags(write=False)
    return p


def cdf(p) -> list:
    """The cdf ``Generator.choice(len(p), p=p)`` draws from, as a list, after
    its checks, each raising its ``ValueError``: p not 1-D, a NaN or negative
    entry, or a Kahan sum off 1 by more than its tolerance (`SUM_ATOL`)."""
    atol = LOOSE_ATOL.get(getattr(p, "dtype", None), SUM_ATOL)
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError("p must be 1-dimensional")
    x = p.tolist()
    total, err = x[0], 0.0
    for v in x[1:]:
        y = v - err
        t = total + y
        err, total = (t - total) - y, t
    if total != total:
        raise ValueError("Probabilities contain NaN")
    if min(x) < 0:
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > atol:
        raise ValueError("Probabilities do not sum to 1. See Notes section of "
                         "docstring for more information.")
    c = list(accumulate(x))     # the sums of p.cumsum(), divided as choice does
    return [v / c[-1] for v in c]


def draw(c, u: float) -> int:
    """The index ``Generator.choice`` returns from cdf `c` (a list or a 1-D
    array) for its one uniform double `u`: ``c.searchsorted(u, "right")``."""
    return bisect_right(c, u)


@dataclass(frozen=True)
class NormalFormGame:
    """An n-player game given by one payoff tensor per player.

    ``payoffs[i]`` has shape ``action_counts`` and holds player i's utility for
    every joint action.  ``payoff_bound`` is the intended bound U on payoff
    magnitudes; it is stored explicitly rather than inferred so that
    regret-bound evaluation uses the constant the experimenter means.
    """

    action_counts: tuple[int, ...]
    payoffs: tuple[np.ndarray, ...]
    payoff_bound: float
    zero_sum: bool = False

    def __post_init__(self):
        if len(self.action_counts) < 2:
            raise ValueError("need at least 2 players")
        if any(n < 1 for n in self.action_counts):
            raise ValueError("every player needs at least one action")
        if len(self.payoffs) != len(self.action_counts):
            raise ValueError("one payoff tensor per player required")
        tensors = []
        for u in self.payoffs:
            u = np.asarray(u, dtype=float)
            if u.shape != self.action_counts:
                raise ValueError(
                    f"payoff tensor shape {u.shape} != action counts {self.action_counts}"
                )
            u.setflags(write=False)
            tensors.append(u)
        object.__setattr__(self, "payoffs", tuple(tensors))
        if self.payoff_bound < 0:
            raise ValueError("payoff_bound must be >= 0")
        for u in self.payoffs:
            if np.max(np.abs(u)) > self.payoff_bound + 1e-12:
                raise ValueError("payoff magnitude exceeds payoff_bound")
        if self.zero_sum:
            if self.player_count != 2:
                raise ValueError("zero_sum flag requires 2 players")
            if np.max(np.abs(self.payoffs[0] + self.payoffs[1])) > 1e-12:
                raise ValueError("payoffs do not sum to zero")

    @property
    def player_count(self) -> int:
        return len(self.action_counts)

    def utility_vector(self, player: int, opponent_policies) -> np.ndarray:
        """Expected utility of each of `player`'s actions against the other
        players' (independent) policies."""
        u = self.payoffs[player]
        # Contract opponent axes highest-first so lower axis indices stay valid.
        for j in sorted(range(self.player_count), reverse=True):
            if j == player:
                continue
            pol = np.asarray(opponent_policies[j], dtype=float)
            if pol.shape != (self.action_counts[j],):
                raise ValueError(f"policy for player {j} has wrong length")
            u = np.tensordot(u, pol, axes=(j, 0))
        return np.atleast_1d(u)

    def pure_utilities(self, joint_action: tuple[int, ...]) -> np.ndarray:
        return np.array([u[joint_action] for u in self.payoffs])

    def to_dict(self) -> dict:
        return {
            "players": self.player_count,
            "action_counts": list(self.action_counts),
            "payoffs": [u.tolist() for u in self.payoffs],
            "payoff_bound": self.payoff_bound,
            "zero_sum": self.zero_sum,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NormalFormGame":
        return cls(
            action_counts=tuple(d["action_counts"]),
            payoffs=tuple(np.array(u) for u in d["payoffs"]),
            payoff_bound=float(d["payoff_bound"]),
            zero_sum=bool(d.get("zero_sum", False)),
        )


def expected_utility(game: NormalFormGame, profile, player: int) -> float:
    """Expected utility for `player` when every player (including `player`)
    follows their policy in `profile`."""
    if len(profile) != game.player_count:
        raise ValueError("profile needs one policy per player")
    u = game.payoffs[player]
    for j in reversed(range(game.player_count)):
        pol = np.asarray(profile[j], dtype=float)
        if pol.shape != (game.action_counts[j],):
            raise ValueError(f"policy for player {j} has wrong length")
        u = np.tensordot(u, pol, axes=(j, 0))
    return float(u)


def sos_score(counts) -> np.ndarray:
    """Sum-of-squares score shares: score_i = C_i^2 / sum_j C_j^2, for the
    counts along the last axis (one game per row)."""
    c = np.asarray(counts, dtype=float)
    if np.any(c < 0):
        raise ValueError("counts must be nonnegative")
    sq = c * c
    total = sq.sum(-1, keepdims=True)
    if np.any(total <= 0):
        raise ValueError("counts must not be all zero")
    return sq / total


#: The named two-player zero-sum games, by the first player's payoffs.
MATRIX_GAMES = {"matching_pennies": [[1.0, -1.0], [-1.0, 1.0]],
                "rock_paper_scissors": [[0.0, -1.0, 1.0], [1.0, 0.0, -1.0],
                                        [-1.0, 1.0, 0.0]]}


def make_builtin_game(name: str, params: dict | None = None) -> NormalFormGame:
    """Construct a named test game.  Random variants are deterministic in
    (name, params, seed)."""
    params = dict(params or {})
    if name in MATRIX_GAMES:
        a = np.array(MATRIX_GAMES[name])
        return NormalFormGame(a.shape, (a, -a), payoff_bound=1.0, zero_sum=True)
    if name in ("random_zero_sum", "random_general_sum"):
        if "seed" not in params:
            raise ValueError(f"{name} requires a seed")
        seed = int(params["seed"])
        bound = float(params.get("payoff_bound", 1.0))
        if name == "random_zero_sum":
            shape = tuple(int(x) for x in params.get("actions", (3, 3)))
            if len(shape) != 2 or any(n < 1 for n in shape):
                raise ValueError("random_zero_sum needs two positive action counts")
            rng = np.random.default_rng(seed)
            a = rng.uniform(-bound, bound, size=shape)
            return NormalFormGame(shape, (a, -a), payoff_bound=bound, zero_sum=True)
        shape = tuple(int(x) for x in params.get("actions", (2, 2)))
        if len(shape) < 2 or any(n < 1 for n in shape):
            raise ValueError("random_general_sum needs >= 2 positive action counts")
        rng = np.random.default_rng(seed)
        payoffs = tuple(rng.uniform(-bound, bound, size=shape) for _ in shape)
        return NormalFormGame(shape, payoffs, payoff_bound=bound)
    raise ValueError(f"unknown builtin game: {name!r}")


@dataclass(frozen=True)
class TabularMarkovGame:
    """Finite simultaneous-move stochastic game over a layered state space.

    States are 0..state_count-1 plus the absorbing TERMINAL sentinel; the
    terminal state has zero reward.  Each state's game is stored as arrays
    fixed at construction: ``R[s]`` of shape ``(P, *A_s)`` holds every
    player's reward for every joint action, ``next_states[s]`` lists the ids
    of the state's successors (TERMINAL included where reachable) and
    ``T[s]`` of shape ``(*A_s, len(next_states[s]))`` holds the successor
    probabilities, and ``C[s]`` their cdfs.  All episodes reach TERMINAL
    within `horizon` steps by construction.
    """

    player_count: int
    state_count: int
    action_counts: tuple[tuple[int, ...], ...]  # [state][player]
    R: tuple                                    # [state] -> (P, *A_s)
    next_states: tuple[tuple[int, ...], ...]    # [state] -> successor ids
    T: tuple                                    # [state] -> (*A_s, K_s)
    gamma: float
    horizon: int
    initial_state: int = 0
    zero_sum: bool = False
    payoff_bound: float = 1.0
    C: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError("gamma must be in [0, 1]")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        n, players = self.state_count, self.player_count
        acts = tuple(tuple(int(k) for k in row) for row in self.action_counts)
        rewards = tuple(np.array(r, dtype=float) for r in self.R)
        probs = tuple(np.array(t, dtype=float) for t in self.T)
        if not len(acts) == len(rewards) == len(self.next_states) == len(probs) == n:
            raise ValueError("need action counts, rewards and transitions per state")
        for s, (a, r, nxt, t) in enumerate(zip(acts, rewards, self.next_states, probs)):
            if len(a) != players or r.shape != (players, *a) or t.shape != (*a, len(nxt)):
                raise ValueError(f"state {s}: reward shape {r.shape} or transition "
                                 f"shape {t.shape} does not fit action counts {a}")
            if any(s2 != TERMINAL and not 0 <= s2 < n for s2 in nxt):
                raise ValueError(f"state {s}: successor id out of range in {nxt}")
            if np.any(t < 0) or not np.all(np.abs(t.sum(axis=-1) - 1.0) <= 1e-12):
                raise ValueError(f"transitions at state {s} are not distributions")
            if self.zero_sum and np.max(np.abs(r[0] + r[1])) > 1e-12:
                raise ValueError("rewards not zero-sum")
            r.setflags(write=False)
            t.setflags(write=False)
        # `cdf(row / row.sum())` of every row of T[s] in one pass, with the
        # same bits; the checks above are stricter than cdf's.
        sums = ((t / t.sum(-1, keepdims=True)).cumsum(-1) for t in probs)
        cdfs = tuple(c / c[..., -1:] for c in sums)
        for name, value in (("action_counts", acts), ("R", rewards), ("T", probs),
                            ("C", cdfs)):
            object.__setattr__(self, name, value)

    def joint_actions(self, s: int):
        return product(*(range(n) for n in self.action_counts[s]))

    def reward(self, s: int, joint_action) -> np.ndarray:
        return self.R[s][(slice(None), *joint_action)]

    def successors(self, s: int, joint_action):
        """((successor, probability), ...) for the nonzero entries."""
        row = self.T[s][tuple(joint_action)]
        return tuple((s2, float(p)) for s2, p in zip(self.next_states[s], row)
                     if p != 0)

    def sample_successor(self, s: int, joint_action,
                         rng: np.random.Generator) -> int:
        """Draw the state that follows `joint_action` at s from one
        ``rng.random()`` double, as ``rng.choice`` over ``next_states[s]``
        with the probabilities ``T[s][joint_action]`` would."""
        return self.next_states[s][draw(self.C[s][tuple(joint_action)], rng.random())]

    def max_return(self) -> float:
        """Analytic bound on the magnitude of any state value."""
        if self.gamma >= 1.0:
            return self.payoff_bound * self.horizon
        return self.payoff_bound * (1 - self.gamma ** self.horizon) / (1 - self.gamma)

    def to_dict(self) -> dict:
        states = range(self.state_count)
        return {
            "players": self.player_count,
            "states": self.state_count,
            "action_counts": [list(row) for row in self.action_counts],
            "transitions": [
                {str(list(a)): [list(pair) for pair in self.successors(s, a)]
                 for a in self.joint_actions(s)} for s in states
            ],
            "rewards": [
                {str(list(a)): self.reward(s, a).tolist()
                 for a in self.joint_actions(s)} for s in states
            ],
            "gamma": self.gamma,
            "horizon": self.horizon,
            "initial_state": self.initial_state,
            "zero_sum": self.zero_sum,
            "payoff_bound": self.payoff_bound,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TabularMarkovGame":
        """Inverse of `to_dict`.  A successor listed twice for one joint
        action has its probabilities added."""
        players = int(d["players"])
        counts = [tuple(int(k) for k in row) for row in d["action_counts"]]
        if not len(counts) == len(d["transitions"]) == len(d["rewards"]):
            raise ValueError("need action counts, transitions and rewards per state")
        rewards, succs, probs = [], [], []
        for s, acts in enumerate(counts):
            # Joint actions in product order are the C order of (*A_s).
            joints = list(product(*(range(k) for k in acts)))
            trans, rew = (_in_joint_order(d[key][s], joints, s)
                          for key in ("transitions", "rewards"))
            if any(len(r) != players for r in rew):
                raise ValueError(f"state {s}: a reward vector does not have "
                                 f"{players} entries")
            nxt = tuple(dict.fromkeys(int(s2) for pairs in trans for s2, _ in pairs))
            t = np.zeros((len(joints), len(nxt)))
            for j, pairs in enumerate(trans):
                for s2, p in pairs:
                    t[j, nxt.index(int(s2))] += float(p)
            rewards.append(np.array(rew, dtype=float).T.reshape(players, *acts))
            succs.append(nxt)
            probs.append(t.reshape(*acts, len(nxt)))
        return cls(
            player_count=players,
            state_count=int(d["states"]),
            action_counts=tuple(counts),
            R=tuple(rewards),
            next_states=tuple(succs),
            T=tuple(probs),
            gamma=float(d["gamma"]),
            horizon=int(d["horizon"]),
            initial_state=int(d.get("initial_state", 0)),
            zero_sum=bool(d.get("zero_sum", False)),
            payoff_bound=float(d.get("payoff_bound", 1.0)),
        )


def _in_joint_order(row: dict, joints: list, s: int) -> list:
    """The values of a serialized per-state row, in the order of `joints`."""
    if not isinstance(row, dict):
        raise ValueError(f"state {s}: a row must map joint actions to values")
    parsed = {tuple(int(x) for x in k.strip("[]").split(",")): v
              for k, v in row.items()}
    if set(parsed) != set(joints):
        raise ValueError(f"state {s}: keys are not the joint actions")
    return [parsed[a] for a in joints]


def make_repeated_markov(stage: NormalFormGame, horizon: int,
                         discount: float) -> TabularMarkovGame:
    """Play `stage` for `horizon` rounds; state s is the round index."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    rounds = range(horizon)
    return TabularMarkovGame(
        player_count=stage.player_count,
        state_count=horizon,
        action_counts=tuple(stage.action_counts for _ in rounds),
        R=tuple(np.array(stage.payoffs) for _ in rounds),
        next_states=tuple((s + 1 if s + 1 < horizon else TERMINAL,) for s in rounds),
        T=tuple(np.ones((*stage.action_counts, 1)) for _ in rounds),
        gamma=discount,
        horizon=horizon,
        zero_sum=stage.zero_sum,
        payoff_bound=stage.payoff_bound,
    )


def markov_layers(state_count: int, horizon: int) -> list[list[int]]:
    """Assign states to depth layers: state 0 alone at depth 0, the rest
    spread round-robin over depths 1..horizon-1 (all at depth 0's successors
    if horizon == 1 is impossible with extra states)."""
    if state_count < 1:
        raise ValueError("need at least one state")
    if horizon == 1 and state_count > 1:
        raise ValueError("horizon 1 admits a single reachable state")
    layers = [[] for _ in range(min(horizon, state_count))]
    layers[0] = [0]
    for j, s in enumerate(range(1, state_count)):
        layers[1 + j % (len(layers) - 1)].append(s)
    return [layer for layer in layers if layer]


def make_random_markov(seed: int, state_count: int, player_count: int,
                       actions_per_player: int, horizon: int, gamma: float,
                       zero_sum: bool = False,
                       payoff_bound: float = 1.0) -> TabularMarkovGame:
    """Random layered Markov game: transitions only flow to the next layer,
    so every episode terminates in at most `horizon` steps and backward
    induction is exact."""
    if min(state_count, player_count, actions_per_player, horizon) < 1:
        raise ValueError("all sizes must be >= 1")
    if zero_sum and player_count != 2:
        raise ValueError("zero-sum fixtures require 2 players")
    if not (np.isfinite(payoff_bound) and payoff_bound > 0):
        raise ValueError("payoff_bound must be finite and > 0")
    rng = np.random.default_rng(seed)
    layers = markov_layers(state_count, horizon)
    acts = tuple(actions_per_player for _ in range(player_count))
    rewards, succs, probs = ([None] * state_count for _ in range(3))
    for li, layer in enumerate(layers):
        last = li + 1 == len(layers)
        nxt = (TERMINAL,) if last else tuple(layers[li + 1])
        for s in layer:
            r = np.zeros((player_count, *acts))
            t = np.ones((*acts, len(nxt)))
            for a in product(*(range(k) for k in acts)):
                if not last:
                    w = rng.uniform(0.05, 1.0, size=len(nxt))
                    t[a] = w / w.sum()
                if zero_sum:
                    x = rng.uniform(-payoff_bound, payoff_bound)
                    r[(slice(None), *a)] = (x, -x)
                else:
                    r[(slice(None), *a)] = rng.uniform(-payoff_bound, payoff_bound,
                                                       size=player_count)
            rewards[s], succs[s], probs[s] = r, nxt, t
    return TabularMarkovGame(
        player_count=player_count,
        state_count=state_count,
        action_counts=tuple(acts for _ in range(state_count)),
        R=tuple(rewards),
        next_states=tuple(succs),
        T=tuple(probs),
        gamma=gamma,
        horizon=horizon,
        zero_sum=zero_sum,
        payoff_bound=payoff_bound,
    )
