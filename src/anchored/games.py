"""Normal-form and small tabular Markov game representations plus scoring utilities.

Games are immutable after construction and compare by identity, and all
generators are deterministic in their seed, so serialized output is
reproducible bit-for-bit.
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


def make_anchor(probs) -> np.ndarray:
    """Clamp-and-renormalize a probability vector so every entry is >= `ANCHOR_FLOOR`.

    Anchors feed log() downstream, so zero entries are never allowed through.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("anchor must be a non-empty 1-D probability vector")
    if not all(0.0 <= x < np.inf for x in p.tolist()):
        raise ValueError("anchor entries must be finite and nonnegative")
    s = p.sum()
    if s <= 0:
        raise ValueError("anchor must have positive mass")
    p = np.maximum(p / s, ANCHOR_FLOOR)
    p /= p.sum()
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


def contraction(payoffs, player: int) -> tuple:
    """The plan of `player`'s expected utility of each action against the
    others' policies in B games, from its ``(B, *A)`` payoff stack: the first
    step's ``(B, rows, A_j)`` matrices and, per step, the opponent j, the
    per-game shape before the step and the axis order moving j last.
    Opponent axes go highest-first, each moved last as numpy's tensordot
    moves it, so a game's steps as `np.dot` calls have the bits of a
    tensordot loop; `contract`'s matmuls may flip the sign of a zero sum
    over a one-action axis."""
    shape = payoffs.shape[1:]
    if player not in range(len(shape)):
        raise ValueError(f"player {player!r} is not in range({len(shape)})")
    steps = []
    for j in reversed(range(len(shape))):
        if j != player:
            keep = [k for k in range(len(shape)) if k != j]
            steps.append((j, shape, (*keep, j)))
            shape = tuple(shape[k] for k in keep)
    j, shape, axes = steps[0]
    first = payoffs.transpose(0, *(a + 1 for a in axes))
    return first.reshape(len(first), -1, shape[j]), steps


def stacked_contraction(payoffs) -> tuple | None:
    """Every player's plan at once from a ``(P, *A)`` payoff array whose P ≥ 3
    players share one action count A ≥ 2, else None (those games keep the
    per-player `contraction` plans).  The plan is the C-ordered
    ``(P, A^(P-1), A)`` view of each player's tensor with its own axis first,
    and the ``(P - 1, P)`` opponent each step contracts per player, highest
    first as in `contraction`."""
    n_players, *counts = payoffs.shape
    if n_players < 3 or len(set(counts)) != 1 or counts[0] < 2:
        return None
    stack = np.stack([np.moveaxis(u, i, 0) for i, u in enumerate(payoffs)])
    order = [[j for j in reversed(range(n_players)) if j != i] for i in range(n_players)]
    return stack.reshape(n_players, -1, counts[0]), np.array(order).T


def contract_stacked(plan, policies, out: np.ndarray) -> np.ndarray:
    """Run a `stacked_contraction` plan against the ``(P - 1, P, A)``
    opponent policies its order gathers, one batched matmul per step, into
    the ``(P, A, 1)`` array `out`.  The last step keeps the layout of each
    player's last `np.dot` step of `contraction`: a C-ordered matrix for
    player 0 and a transposed one for the others, so the bits are those of
    the per-player plans."""
    x, _ = plan
    for pol in policies[:-1]:
        x = (x @ pol[:, :, None]).reshape(len(x), -1, x.shape[-1])
    last = policies[-1][:, :, None]
    np.matmul(x[0], last[0], out=out[0])
    rest = np.ascontiguousarray(x[1:].transpose(0, 2, 1)).transpose(0, 2, 1)
    np.matmul(rest, last[1:], out=out[1:])
    return out


def contract(plan, policies) -> np.ndarray:
    """Run a `contraction` plan against each player's ``(B, A_j)`` policies
    (the planned player's own are not read), one stacked matmul per step:
    the planned player's ``(B, A_i)`` expected utilities."""
    first, steps = plan
    u = first @ policies[steps[0][0]][:, :, None]
    for j, shape, axes in steps[1:]:
        u = u.reshape(len(first), *shape).transpose(0, *(a + 1 for a in axes))
        u = u.reshape(len(first), -1, shape[j]) @ policies[j][:, :, None]
    return u[:, :, 0]


@dataclass(frozen=True, eq=False)
class NormalFormGame:
    """An n-player game given by one ``(P, *action_counts)`` payoff array.

    ``payoffs[i]`` holds player i's utility for every joint action; the
    constructor takes that array or any sequence of the P tensors, and stores
    a read-only, C-contiguous copy.  ``payoff_bound`` is the intended bound U
    on payoff magnitudes; it is stored explicitly rather than inferred so
    that regret-bound evaluation uses the constant the experimenter means.
    """

    action_counts: tuple[int, ...]
    payoffs: np.ndarray
    payoff_bound: float
    zero_sum: bool = False

    def __post_init__(self):
        if len(self.action_counts) < 2:
            raise ValueError("need at least 2 players")
        if any(n < 1 for n in self.action_counts):
            raise ValueError("every player needs at least one action")
        # A C-ordered copy whatever the input's strides: the learner kernel's
        # `np.dot` calls round by the layout of the matrices planned from
        # these rows, and the caller's array stays writable.
        u = np.array(self.payoffs, dtype=float, order="C")
        if u.shape != (len(self.action_counts), *self.action_counts):
            raise ValueError(f"payoff array shape {u.shape} != one tensor of "
                             f"shape {self.action_counts} per player")
        if not 0 <= self.payoff_bound < np.inf:
            raise ValueError("payoff_bound must be finite and >= 0")
        if not np.isfinite(u).all():
            raise ValueError("payoffs must be finite")
        if np.max(np.abs(u)) > self.payoff_bound + 1e-12:
            raise ValueError("payoff magnitude exceeds payoff_bound")
        if self.zero_sum:
            if self.player_count != 2:
                raise ValueError("zero_sum flag requires 2 players")
            if np.max(np.abs(u[0] + u[1])) > 1e-12:
                raise ValueError("payoffs do not sum to zero")
        u.setflags(write=False)
        object.__setattr__(self, "payoffs", u)

    @property
    def player_count(self) -> int:
        return len(self.action_counts)

    def utility_vector(self, player: int, opponent_policies) -> np.ndarray:
        """Expected utility of each of `player`'s actions against the other
        players' (independent) policies, one per player (`player`'s own is
        not read): the B = 1 call of `contract`."""
        if len(opponent_policies) != self.player_count:
            raise ValueError(f"need one policy per player, got {len(opponent_policies)}")
        policies = [np.asarray(p, dtype=float)[None] for p in opponent_policies]
        for j, (pol, n) in enumerate(zip(policies, self.action_counts)):
            if j != player and pol.shape != (1, n):
                raise ValueError(f"policy for player {j} has wrong length")
        # An index outside range(P) still reaches `contraction`, which rejects it.
        plan = contraction(self.payoffs[player % self.player_count][None], player)
        return contract(plan, policies)[0]

    def to_dict(self) -> dict:
        return {
            "players": self.player_count,
            "action_counts": list(self.action_counts),
            "payoffs": self.payoffs.tolist(),
            "payoff_bound": self.payoff_bound,
            "zero_sum": self.zero_sum,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NormalFormGame":
        """Inverse of `to_dict`; `players`, when given, must count the action
        counts."""
        counts = tuple(_exact(int, f"action_counts[{i}]", n)
                       for i, n in enumerate(d["action_counts"]))
        if "players" in d and _exact(int, "players", d["players"]) != len(counts):
            raise ValueError(f"players {d['players']} does not match the "
                             f"{len(counts)} action counts")
        return cls(
            action_counts=counts,
            payoffs=d["payoffs"],
            payoff_bound=float(d["payoff_bound"]),
            zero_sum=_exact(bool, "zero_sum", d.get("zero_sum", False)),
        )


def _exact(kind: type, key: str, value):
    """`value` if it is exactly of `kind` (an int that is not a bool, or a
    bool); a game file's 1.5 or "false" raises, naming `key`."""
    if type(value) is not kind:
        raise ValueError(f"{key} must be {'an integer' if kind is int else 'true or false'}"
                         f", got {value!r}")
    return value


def sos_score(counts) -> np.ndarray:
    """Sum-of-squares score shares: score_i = C_i^2 / sum_j C_j^2, for the
    counts along the last axis (one game per row)."""
    c = np.asarray(counts, dtype=float)
    if np.any(c < 0):
        raise ValueError("counts must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):
        sq = c * c
        total = sq.sum(-1, keepdims=True)
        shares = sq / total
        # A total that overflowed, or that is zero or subnormal because the
        # squares underflowed, gives no shares or imprecise ones.  Shares are
        # scale-free, so those rows are taken again from c / max(c).
        redo = ~((total >= np.finfo(float).tiny) & (total < np.inf))[..., 0]
        if redo.any():
            x = c[redo]
            top = x.max(-1, keepdims=True)
            if np.any(top == 0):
                raise ValueError("counts must not be all zero")
            x = x / top
            sq = x * x
            shares[redo] = sq / sq.sum(-1, keepdims=True)
    return shares


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


@dataclass(frozen=True, eq=False)
class TabularMarkovGame:
    """Finite simultaneous-move stochastic game over a layered state space.

    States are 0..state_count-1 plus the absorbing TERMINAL sentinel; the
    terminal state has zero reward.  Each state's game is stored as arrays
    fixed at construction: ``R[s]`` of shape ``(P, *A_s)`` holds every
    player's reward for every joint action (`player_count`, `state_count`
    and `action_counts` are read from it), ``next_states[s]`` lists the ids
    of the state's successors (TERMINAL included where reachable) and
    ``T[s]`` of shape ``(*A_s, len(next_states[s]))`` holds the successor
    probabilities, and ``C[s]`` their cdfs.  ``stage_bound``, payoff_bound +
    gamma * max_return(), bounds every stage-game payoff r + gamma * V.
    ``layers`` holds the states in backward-induction order: each layer, in
    ascending order, holds the states whose successors all lie in earlier
    layers.  A cycle, or more layers than `horizon`, raises, so every
    episode reaches TERMINAL within `horizon` steps.
    """

    R: tuple                                    # [state] -> (P, *A_s)
    next_states: tuple[tuple[int, ...], ...]    # [state] -> successor ids
    T: tuple                                    # [state] -> (*A_s, K_s)
    gamma: float
    horizon: int
    initial_state: int = 0
    zero_sum: bool = False
    payoff_bound: float = 1.0
    player_count: int = field(init=False)
    state_count: int = field(init=False)
    action_counts: tuple = field(init=False)    # [state][player]
    C: tuple = field(init=False, repr=False)
    stage_bound: float = field(init=False, repr=False)
    layers: tuple = field(init=False, repr=False)

    def __post_init__(self):
        rewards = tuple(np.array(r, dtype=float) for r in self.R)
        probs = tuple(np.array(t, dtype=float) for t in self.T)
        n = len(rewards)
        if not len(self.next_states) == len(probs) == n:
            raise ValueError("need rewards and transitions per state")
        if self.initial_state not in range(n):
            raise ValueError(f"initial_state {self.initial_state!r} is not a state "
                             f"in [0, {n})")
        players = len(rewards[0]) if rewards[0].ndim else 0
        if players < 2:
            raise ValueError("need at least 2 players")
        if self.zero_sum and players != 2:
            raise ValueError("zero_sum flag requires 2 players")
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError("gamma must be in [0, 1]")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0 <= self.payoff_bound < np.inf:
            raise ValueError("payoff_bound must be finite and >= 0")
        bound = self.payoff_bound + self.gamma * self.max_return()
        if not np.isfinite(bound):
            raise ValueError("payoff_bound too large: the stage bound overflows")
        for s, (r, nxt, t) in enumerate(zip(rewards, self.next_states, probs)):
            a = r.shape[1:]
            if r.ndim != players + 1 or len(r) != players or t.shape != (*a, len(nxt)):
                raise ValueError(f"state {s}: reward shape {r.shape} or transition "
                                 f"shape {t.shape} does not fit {players} players")
            if 0 in a:
                raise ValueError(f"state {s}: every player needs at least one action")
            if not np.isfinite(r).all():
                raise ValueError(f"state {s}: rewards must be finite")
            if np.max(np.abs(r)) > self.payoff_bound + 1e-12:
                raise ValueError(f"state {s}: reward magnitude exceeds payoff_bound")
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
        for name, value in (("player_count", players), ("state_count", n),
                            ("action_counts", tuple(r.shape[1:] for r in rewards)),
                            ("R", rewards), ("T", probs), ("C", cdfs), ("stage_bound", bound),
                            ("layers", self._backward_layers())):
            object.__setattr__(self, name, value)

    def _backward_layers(self) -> tuple:
        resolved = {TERMINAL}
        layers = []
        remaining = set(range(len(self.next_states)))
        while remaining:
            ready = tuple(sorted(s for s in remaining
                                 if resolved.issuperset(self.next_states[s])))
            if not ready:
                raise ValueError("state graph has a cycle; backward induction undefined")
            layers.append(ready)
            resolved.update(ready)
            remaining.difference_update(ready)
        if len(layers) > self.horizon:
            raise ValueError(f"state graph is {len(layers)} states deep, deeper "
                             f"than horizon {self.horizon}")
        return tuple(layers)

    def stage_groups(self, states) -> list:
        """`states` split into tuples of states that share their action
        counts and successors, in order of first appearance; the stage games
        of one group stack into one array."""
        groups: dict = {}
        for s in states:
            groups.setdefault((self.action_counts[s], self.next_states[s]), []).append(s)
        return [tuple(g) for g in groups.values()]

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
        action has its probabilities added.  `players`, `states` and
        `action_counts` must fit the rows."""
        players = _exact(int, "players", d["players"])
        counts = [tuple(_exact(int, f"action_counts[{s}]", k) for k in row)
                  for s, row in enumerate(d["action_counts"])]
        for s, row in enumerate(counts):
            if any(k < 1 for k in row):
                raise ValueError(f"action_counts[{s}]: every player needs at least "
                                 f"one action, got {list(row)}")
        if not len(counts) == len(d["transitions"]) == len(d["rewards"]):
            raise ValueError("need action counts, transitions and rewards per state")
        if _exact(int, "states", d["states"]) != len(counts):
            raise ValueError(f"states {d['states']} does not match the {len(counts)} rows")
        rewards, succs, probs = [], [], []
        for s, acts in enumerate(counts):
            # Joint actions in product order are the C order of (*A_s).
            joints = list(product(*(range(k) for k in acts)))
            trans, rew = (_in_joint_order(d[key][s], joints, s)
                          for key in ("transitions", "rewards"))
            if any(len(r) != players for r in rew):
                raise ValueError(f"state {s}: a reward vector does not have "
                                 f"{players} entries")
            nxt = tuple(dict.fromkeys(_exact(int, f"state {s}: successor id", s2)
                                      for pairs in trans for s2, _ in pairs))
            t = np.zeros((len(joints), len(nxt)))
            for j, pairs in enumerate(trans):
                for s2, p in pairs:
                    t[j, nxt.index(s2)] += float(p)
            rewards.append(np.array(rew, dtype=float).T.reshape(players, *acts))
            succs.append(nxt)
            probs.append(t.reshape(*acts, len(nxt)))
        return cls(
            R=tuple(rewards),
            next_states=tuple(succs),
            T=tuple(probs),
            gamma=float(d["gamma"]),
            horizon=_exact(int, "horizon", d["horizon"]),
            initial_state=_exact(int, "initial_state", d.get("initial_state", 0)),
            zero_sum=_exact(bool, "zero_sum", d.get("zero_sum", False)),
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
        R=(stage.payoffs,) * horizon,
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
    rewards_drawn = 1 if zero_sum else player_count
    rewards, succs, probs = ([None] * state_count for _ in range(3))
    for li, layer in enumerate(layers):
        last = li + 1 == len(layers)
        nxt = (TERMINAL,) if last else tuple(layers[li + 1])
        # Per joint action in product order: the successor weights (none in
        # the last layer), then the rewards, one value per player or (x, -x).
        # `uniform(low, high)` is `low + (high - low) * random()`, so one
        # `random` block per state gives the draws of a call per value.
        m = 0 if last else len(nxt)
        for s in layer:
            u = rng.random((*acts, m + rewards_drawn))
            w = 0.05 + (1.0 - 0.05) * u[..., :m]
            t = w / w.sum(-1, keepdims=True) if m else np.ones((*acts, 1))
            x = -payoff_bound + (payoff_bound - -payoff_bound) * u[..., m:]
            r = np.concatenate([x, -x], -1) if zero_sum else x
            rewards[s], succs[s], probs[s] = np.moveaxis(r, -1, 0), nxt, t
    return TabularMarkovGame(
        R=tuple(rewards),
        next_states=tuple(succs),
        T=tuple(probs),
        gamma=gamma,
        horizon=horizon,
        zero_sum=zero_sum,
        payoff_bound=payoff_bound,
    )
