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
from dataclasses import dataclass, field

import numpy as np

ELO_SCALE = 400.0 * math.log10(math.e)


@dataclass(frozen=True)
class GameRecord:
    """Seat -> player assignment plus observed per-seat score shares."""

    seats: tuple[str, ...]
    shares: tuple[float, ...]

    def __post_init__(self):
        if len(self.seats) != len(self.shares) or not self.seats:
            raise ValueError("seats and shares must be non-empty and equal length")
        shares = tuple(float(x) for x in self.shares)
        total = 0.0
        for x in shares:    # in order, as numpy sums up to 7 seats
            total += x
        # False for a NaN or infinite share.
        if not (min(shares) >= 0 and abs(total - 1.0) <= 1e-9):
            raise ValueError("shares must be nonnegative and sum to 1")
        object.__setattr__(self, "shares", shares)


@dataclass
class RatingModel:
    ratings: dict = field(default_factory=dict)    # player id -> Elo
    seat_biases: np.ndarray = field(default_factory=lambda: np.zeros(0))
    scale: float = ELO_SCALE
    sigma_prior: float = 350.0

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
    n = len(seats)
    try:
        r = np.array([model.ratings[p] for p in seats])
    except KeyError as exc:
        raise KeyError(f"unknown player id {exc.args[0]!r}") from None
    b = model.seat_biases if model.seat_biases.size == n else np.zeros(n)
    z = (r + b) / model.scale
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def log_posterior(model: RatingModel, games) -> float:
    """Cross-entropy likelihood plus the Gaussian rating log-prior (up to an
    additive constant)."""
    games = list(games)
    if not games:
        raise ValueError("no games")
    total = 0.0
    for g in games:
        p = predict_shares(model, g.seats)
        obs = np.asarray(g.shares)
        total += float(np.sum(obs * np.log(p)))
    for r in model.ratings.values():
        total += -0.5 * (r / model.sigma_prior) ** 2
    return total


def seat_count(games) -> int:
    """The seat count that every game in `games` shares."""
    if not games:
        raise ValueError("no games")
    n_seats = len(games[0].seats)
    if any(len(g.seats) != n_seats for g in games):
        raise ValueError("all games must have the same seat count")
    return n_seats


def _pack(games):
    players = sorted({p for g in games for p in g.seats})
    index = {p: i for i, p in enumerate(players)}
    seat_idx = np.array([[index[p] for p in g.seats] for g in games])
    obs = np.array([g.shares for g in games])
    return players, seat_idx, obs


def fit_ratings(games, sigma_prior: float = 350.0, c: float = ELO_SCALE,
                tol: float = 1e-8, max_iters: int = 200000) -> RatingModel:
    """MAP fit by damped Newton ascent with backtracking line search.

    Optimization runs in share space (parameters divided by c), where the
    gradient is the accumulated difference between observed and predicted
    shares; convergence is declared when its max-norm drops below `tol`.
    Deterministic: zero initialization and a deterministic line search.
    """
    games = list(games)
    n_seats = seat_count(games)
    players, seat_idx, obs = _pack(games)
    n_players = len(players)
    prior_precision = (c / sigma_prior) ** 2
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
    model = RatingModel(
        ratings={p: float(rho[i] * c) for i, p in enumerate(players)},
        seat_biases=beta * c,
        scale=c,
        sigma_prior=sigma_prior,
    )
    model.ascent_history = history
    return model


def read_game_records(path) -> list[GameRecord]:
    """Ingest games from CSV columns game_id, seat_index, player_id and
    score_share, found by header name; blank lines are skipped.  Games come
    sorted by id, each game's seats by (seat_index, player_id, share)."""
    rows: dict = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = {name: i for i, name in enumerate(next(reader, []))}
            gi, si, pi, ci = (header[name] for name in ("game_id", "seat_index",
                                                        "player_id", "score_share"))
            for row in reader:
                if row:
                    rows.setdefault(row[gi], []).append(
                        (int(row[si]), row[pi], float(row[ci])))
        except (csv.Error, IndexError) as exc:    # IndexError: a short row
            raise ValueError(f"line {reader.line_num}: {exc}") from exc
    games = []
    for game_id in sorted(rows):
        _, seats, shares = zip(*sorted(rows[game_id]))
        games.append(GameRecord(seats=seats, shares=shares))
    return games
