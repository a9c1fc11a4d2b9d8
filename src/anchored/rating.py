"""Multiplayer MAP Elo: fit ratings and seat biases from score shares.

Each seat's expected share of a game's total score is proportional to
exp((r_i + b_s)/c) with c = 400*log10(e).  The likelihood for fractional
scores is the cross-entropy between observed and predicted shares, which
reduces to the classic win/loss likelihood for 0/1 outcomes.  Ratings carry a
Gaussian prior centered at 0; seat biases are identified by summing to zero.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

ELO_SCALE = 400.0 * math.log10(math.e)


@dataclass
class RatingModel:
    ratings: dict = field(default_factory=dict)    # player id -> Elo
    seat_biases: np.ndarray = field(default_factory=lambda: np.zeros(0))
    scale: float = ELO_SCALE
    sigma_prior: float = 350.0
    #: `fit_ratings`'s log-posterior at the start and after each Newton step.
    ascent_history: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        self.seat_biases = np.asarray(self.seat_biases, dtype=float)
        if self.scale <= 0 or self.sigma_prior <= 0:
            raise ValueError("scale and sigma_prior must be > 0")
        if self.seat_biases.size and abs(self.seat_biases.sum()) > 1e-6:
            raise ValueError("seat biases must sum to 0")

    def to_dict(self) -> dict:
        return {
            "players": dict(sorted(self.ratings.items())),
            "seat_biases": self.seat_biases.tolist(),
            "c": self.scale,
            "sigma_prior": self.sigma_prior,
        }


def predict_shares(model: RatingModel, seats) -> np.ndarray:
    """Expected score shares for one game's seat assignment."""
    return _shares(model, seats, np.arange(len(seats))[None])[0]


def _shares(model: RatingModel, players, seat_idx) -> np.ndarray:
    """Expected score shares of games whose seats hold `players[seat_idx]`."""
    try:
        r = np.array([model.ratings[p] for p in players])
    except KeyError as exc:
        raise KeyError(f"unknown player id {exc.args[0]!r}") from None
    n = seat_idx.shape[1]
    b = model.seat_biases if model.seat_biases.size == n else np.zeros(n)
    z = (r[seat_idx] + b) / model.scale
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


@dataclass(frozen=True, eq=False)
class GameTable:
    """Games as arrays: sorted player ids, and per game and seat an index
    into them (`seat_idx`) and a score share (`obs`)."""

    players: list
    seat_idx: np.ndarray
    obs: np.ndarray

    def __len__(self) -> int:
        return len(self.obs)

    @classmethod
    def from_rows(cls, game_ids, seat_indices, player_ids, shares) -> GameTable:
        """One row per (game, seat): game ids, seat indices, player ids and
        shares, as four columns of equal length.  Games are sorted by id,
        seats by (seat index, player id, share).  Raises `ValueError` for no
        rows, columns of unequal length, unequal seat counts and shares that
        are NaN, negative or off 1 in their sum, naming the game."""
        seats, shares = np.asarray(seat_indices), np.asarray(shares, dtype=float)
        if not len(game_ids):
            raise ValueError("no games")
        (ids, game), (players, player) = _codes(game_ids), _codes(player_ids)
        order = np.lexsort((shares, player, seats, game))
        counts = np.bincount(game)
        g = (counts != counts[0]).argmax()
        if counts[g] != counts[0]:
            raise ValueError(f"game {ids[g]!r} has {counts[g]} seats, game {ids[0]!r} "
                             f"{counts[0]}")
        obs = shares[order].reshape(len(ids), counts[0])
        total = np.zeros(len(ids))
        for column in obs.T:    # left to right; a row sum adds pairwise past 8 seats
            total += column
        bad = ~((obs.min(axis=1) >= 0) & (abs(total - 1.0) <= 1e-9))    # True for NaN
        if bad.any():
            raise ValueError(f"game {ids[bad.argmax()]!r}: shares must be "
                             "nonnegative and sum to 1")
        return cls(players, player[order].reshape(obs.shape), obs)


def log_posterior(model: RatingModel, games: GameTable) -> float:
    """Cross-entropy likelihood plus the Gaussian rating log-prior (up to an
    additive constant)."""
    p = _shares(model, games.players, games.seat_idx)
    total = float(np.sum(games.obs * np.log(p)))
    for r in model.ratings.values():
        total += -0.5 * (r / model.sigma_prior) ** 2
    return total


def fit_ratings(games, sigma_prior: float = 350.0, c: float = ELO_SCALE,
                tol: float = 1e-8, max_iters: int = 200000) -> RatingModel:
    """MAP fit of a `GameTable` by damped Newton ascent with backtracking
    line search.

    Optimization runs in share space (parameters divided by c), where the
    gradient is the accumulated difference between observed and predicted
    shares; convergence is declared when its max-norm drops below `tol`.
    Deterministic: zero initialization and a deterministic line search.
    Raises `FloatingPointError` when the prior precision (c / sigma_prior)**2
    is not finite.
    """
    players, seat_idx, obs = games.players, games.seat_idx, games.obs
    n_players, n_seats = len(players), obs.shape[1]
    try:
        prior_precision = (c / sigma_prior) ** 2
    except OverflowError:
        prior_precision = math.inf
    if not math.isfinite(prior_precision):
        raise FloatingPointError(f"prior precision (c / sigma_prior)**2 is not finite "
                                 f"for c = {c!r}, sigma_prior = {sigma_prior!r}")
    n_params = n_players + n_seats   # x = (rho, beta): ratings / c, biases / c
    # Flat rating-block cell of each (game, seat, seat) entry.
    cells = (seat_idx[:, :, None] * n_players + seat_idx[:, None, :]).ravel()
    diag = np.arange(n_seats)

    def evaluate(x):
        rho, beta = x[:n_players], x[n_players:]
        z = rho[seat_idx] + beta[None, :]
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=1, keepdims=True)
        obj = float(np.sum(obs * np.log(p))) - 0.5 * prior_precision * float(rho @ rho)
        resid = obs - p
        grad = np.zeros(n_params)
        np.add.at(grad, seat_idx, resid)
        grad[n_players:] += resid.sum(axis=0)
        grad[:n_players] -= prior_precision * rho
        grad[n_players:] -= grad[n_players:].mean()  # sum-zero constraint
        return obj, p, grad

    def hessian(p):
        """Negated Hessian of the log-posterior: per game diag(p) - p p^T on
        the seat cells, scattered to parameters, plus the prior block.  The
        scatters add the games in order, as a per-game loop does; a matmul or
        a pairwise sum over games would round differently."""
        m = p[:, :, None] * p[:, None, :]
        np.negative(m, out=m)
        m[:, diag, diag] += p
        hess = np.zeros((n_params, n_params))
        hess[:n_players, :n_players] = np.bincount(
            cells, m.ravel(), minlength=n_players * n_players
        ).reshape(n_players, n_players)
        for t in range(n_seats):
            hess[:n_players, n_players + t] = np.bincount(
                seat_idx.ravel(), m[:, :, t].ravel(), minlength=n_players)
        hess[n_players:, :n_players] = hess[:n_players, n_players:].T
        hess[n_players:, n_players:] = np.add.reduce(m, axis=0)
        hess[:n_players, :n_players] += prior_precision * np.eye(n_players)
        return hess

    def max_norm(grad):
        return float(np.max(np.abs(grad)))

    x = np.zeros(n_params)
    obj, p, grad = evaluate(x)
    history = [obj]
    for _ in range(max_iters):
        gnorm = max_norm(grad)
        if gnorm < tol:
            break
        hess = hessian(p)
        # Newton direction; the tiny ridge covers the bias-sum nullspace.
        ridge = 1e-10 * (1.0 + np.trace(hess) / n_params)
        direction = np.linalg.solve(hess + ridge * np.eye(n_params), grad)
        direction[n_players:] -= direction[n_players:].mean()
        step = 1.0
        while True:
            x_new = x + step * direction
            x_new[n_players:] -= x_new[n_players:].mean()
            obj_new, p_new, grad_new = evaluate(x_new)
            # Accept a strict ascent step; once the objective saturates in
            # float precision, accept non-worsening steps that still shrink
            # the gradient so the iterate keeps contracting to stationarity.
            if obj_new > obj or (obj_new == obj
                                 and max_norm(grad_new) < gnorm):
                break
            step *= 0.5
            if step < 1e-18:
                raise RuntimeError(f"line search failed; gradient norm {gnorm}")
        x, obj, p, grad = x_new, obj_new, p_new, grad_new
        history.append(obj)
    else:
        raise RuntimeError(f"no convergence after {max_iters} iterations; "
                           f"gradient norm {max_norm(grad)}")
    rho, beta = x[:n_players], x[n_players:]
    return RatingModel(
        ratings={p: float(rho[i] * c) for i, p in enumerate(players)},
        seat_biases=beta * c,
        scale=c,
        sigma_prior=sigma_prior,
        ascent_history=history,
    )


def read_game_records(path) -> GameTable:
    """Ingest games from CSV columns game_id, seat_index, player_id and
    score_share, found by header name; blank lines are skipped.  No row is
    kept: each field goes to its column, a list of ids (one string per
    distinct id) or an array of numbers; `GameTable.from_rows` orders and
    checks them.
    A `ValueError` names a missing column, or the line of a short row or of
    a seat_index or share that does not parse."""
    ids, players, distinct = [], [], {}
    seats, shares = array("q"), array("d")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = {name: i for i, name in enumerate(next(reader, []))}
            gi, si, pi, ci = (header[name] for name in ("game_id", "seat_index",
                                                        "player_id", "score_share"))
            for row in filter(None, reader):
                ids.append(distinct.setdefault(row[gi], row[gi]))
                seats.append(int(row[si]))
                players.append(distinct.setdefault(row[pi], row[pi]))
                shares.append(float(row[ci]))
        except KeyError as exc:     # only the header lookup raises it
            raise ValueError(f"header: no {exc.args[0]} column") from None
        except IndexError:
            raise ValueError(f"line {reader.line_num}: short row") from None
        except (csv.Error, ValueError, OverflowError) as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None
    return GameTable.from_rows(ids, seats, players, shares)


def _codes(column) -> tuple:
    """The sorted distinct entries of `column`, and each entry's index in them."""
    keys = sorted(set(column))
    index = dict(zip(keys, range(len(keys))))
    return keys, np.fromiter(map(index.__getitem__, column), np.intp, len(column))

