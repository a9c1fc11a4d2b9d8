"""Tests for the multiplayer MAP rating fitter.

`reference_fit` (with `reference_pack`) is the per-game Hessian loop that
`fit_ratings` ran before its Hessian became one in-order scatter, and
`reference_read` is the `csv.DictReader` reader that `read_game_records`
replaced; both are kept verbatim apart from their names.  The fit and the
reader are compared with them under exact equality.
"""

import csv
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anchored import (
    ELO_SCALE,
    GameRecord,
    RatingModel,
    fit_ratings,
    log_posterior,
    predict_shares,
)
from anchored.cli import main
from anchored.rating import read_game_records


def synthetic_games(true_ratings, seat_biases, n_games, n_seats, seed):
    """Exact-share generator; the generating model is the recovery oracle."""
    model = RatingModel(ratings=dict(true_ratings),
                        seat_biases=np.asarray(seat_biases, float))
    names = sorted(true_ratings)
    rng = np.random.default_rng(seed)
    games = []
    for _ in range(n_games):
        seats = tuple(names[k] for k in rng.integers(len(names), size=n_seats))
        shares = predict_shares(model, seats)
        games.append(GameRecord(seats=seats, shares=tuple(shares)))
    return games


# ------------------------------------------------------------- prediction

def test_predict_equal_ratings_uniform():
    model = RatingModel(ratings={c: 10.0 for c in "abcdefg"},
                        seat_biases=np.zeros(7))
    shares = predict_shares(model, tuple("abcdefg"))
    np.testing.assert_allclose(shares, np.full(7, 1 / 7), atol=1e-12)


def test_predict_400_point_gap_is_ten_to_one():
    model = RatingModel(ratings={"a": 400.0, "b": 0.0}, seat_biases=np.zeros(2))
    shares = predict_shares(model, ("a", "b"))
    np.testing.assert_allclose(shares, [10 / 11, 1 / 11], atol=1e-12)


def test_predict_invariant_to_constant_shift():
    model = RatingModel(ratings={"a": 120.0, "b": -35.0, "c": 0.0},
                        seat_biases=np.zeros(3))
    shifted = RatingModel(ratings={k: v + 777.0 for k, v in model.ratings.items()},
                          seat_biases=np.zeros(3))
    a = predict_shares(model, ("a", "b", "c"))
    b = predict_shares(shifted, ("a", "b", "c"))
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_predict_unknown_player_rejected():
    model = RatingModel(ratings={"a": 0.0}, seat_biases=np.zeros(2))
    with pytest.raises(KeyError):
        predict_shares(model, ("a", "zz"))


def test_seat_bias_shifts_shares():
    model = RatingModel(ratings={"a": 0.0, "b": 0.0},
                        seat_biases=np.array([100.0, -100.0]))
    shares = predict_shares(model, ("a", "b"))
    assert shares[0] > 0.5


# ---------------------------------------------------------------- records

def test_game_record_validation():
    with pytest.raises(ValueError):
        GameRecord(seats=("a", "b"), shares=(0.7, 0.7))
    with pytest.raises(ValueError):
        GameRecord(seats=("a",), shares=(0.5, 0.5))
    with pytest.raises(ValueError):
        GameRecord(seats=(), shares=())


# ------------------------------------------------------------- posterior

def test_log_posterior_uniform_model():
    model = RatingModel(ratings={"a": 0.0, "b": 0.0}, seat_biases=np.zeros(2))
    games = [GameRecord(seats=("a", "b"), shares=(0.3, 0.7))]
    assert log_posterior(model, games) == pytest.approx(math.log(0.5), abs=1e-12)


def test_log_posterior_local_map_optimality():
    # at exact data and zero ratings the prior pull vanishes, so any
    # perturbation lowers the posterior
    true = {c: 0.0 for c in "abcde"}
    games = synthetic_games(true, np.zeros(4), 50, 4, seed=0)
    base = RatingModel(ratings=dict(true), seat_biases=np.zeros(4))
    p0 = log_posterior(base, games)
    rng = np.random.default_rng(1)
    for _ in range(100):
        pert = {k: float(rng.normal(scale=20.0)) for k in true}
        b = rng.normal(scale=20.0, size=4)
        b -= b.mean()
        assert log_posterior(RatingModel(ratings=pert, seat_biases=b), games) <= p0


# ------------------------------------------------------------------ fitting

def test_fit_symmetric_single_game():
    games = [GameRecord(seats=("a", "b"), shares=(0.5, 0.5))]
    model = fit_ratings(games)
    assert abs(model.ratings["a"]) <= 1e-6
    assert abs(model.ratings["b"]) <= 1e-6


def test_fit_synthetic_rating_recovery_within_one_elo():
    true = {"p0": -120.0, "p1": -60.0, "p2": 0.0, "p3": 60.0, "p4": 120.0}
    games = synthetic_games(true, np.zeros(7), 500, 7, seed=0)
    model = fit_ratings(games)
    for a in true:
        for b in true:
            got = model.ratings[a] - model.ratings[b]
            assert abs(got - (true[a] - true[b])) <= 1.0


def test_fit_seat_bias_recovery_within_one_elo():
    biases = np.array([59.0, 27.0, 18.0, -16.0, -21.0, -24.0, -43.0])
    true = {f"p{i}": 0.0 for i in range(5)}
    games = synthetic_games(true, biases, 500, 7, seed=1)
    model = fit_ratings(games)
    np.testing.assert_allclose(model.seat_biases, biases, atol=1.0)


def test_fit_bias_sum_zero_exact():
    biases = np.array([30.0, -10.0, -20.0])
    games = synthetic_games({"a": 50.0, "b": 0.0, "c": -50.0}, biases, 200, 3,
                            seed=2)
    model = fit_ratings(games)
    assert model.seat_biases.sum() == pytest.approx(0.0, abs=1e-10)


def test_fit_monotone_ascent():
    games = synthetic_games({"a": 100.0, "b": 0.0, "c": -80.0}, np.zeros(3),
                            100, 3, seed=3)
    model = fit_ratings(games)
    h = model.ascent_history
    assert all(b >= a for a, b in zip(h, h[1:]))


def test_fit_wider_prior_weakly_increases_spread():
    games = synthetic_games({"a": 150.0, "b": 0.0, "c": -150.0}, np.zeros(3),
                            300, 3, seed=4)
    tight = fit_ratings(games, sigma_prior=350.0)
    wide = fit_ratings(games, sigma_prior=700.0)

    def spread(m):
        vals = list(m.ratings.values())
        return max(vals) - min(vals)

    assert spread(wide) >= spread(tight) - 1e-9


def test_fit_deterministic():
    games = synthetic_games({"a": 80.0, "b": -40.0, "c": 0.0}, np.zeros(3),
                            100, 3, seed=5)
    m1 = fit_ratings(games)
    m2 = fit_ratings(games)
    assert m1.ratings == m2.ratings
    np.testing.assert_array_equal(m1.seat_biases, m2.seat_biases)


def test_fit_rejects_empty_and_ragged():
    with pytest.raises(ValueError):
        fit_ratings([])
    with pytest.raises(ValueError):
        fit_ratings([GameRecord(("a", "b"), (0.5, 0.5)),
                     GameRecord(("a", "b", "c"), (0.4, 0.3, 0.3))])


# ----------------------------------------------------------------- model

def test_rating_model_validation():
    with pytest.raises(ValueError):
        RatingModel(ratings={}, seat_biases=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        RatingModel(ratings={}, scale=-1.0)


def test_elo_scale_constant():
    assert ELO_SCALE == pytest.approx(400.0 * math.log10(math.e), abs=1e-12)
    assert ELO_SCALE == pytest.approx(173.7178, abs=1e-4)


def test_read_game_records_csv(tmp_path):
    path = tmp_path / "games.csv"
    path.write_text(
        "game_id,seat_index,player_id,score_share\n"
        "g1,1,bob,0.25\n"
        "g1,0,alice,0.75\n"
        "g0,0,bob,0.5\n"
        "g0,1,alice,0.5\n"
    )
    games = read_game_records(path)
    assert games[0].seats == ("bob", "alice")
    assert games[1].seats == ("alice", "bob")
    assert games[1].shares == (0.75, 0.25)


# ------------------------------------------------------- references

def reference_pack(games, n_seats: int):
    players = sorted({p for g in games for p in g.seats})
    index = {p: i for i, p in enumerate(players)}
    seat_idx = np.array([[index[p] for p in g.seats] for g in games])
    obs = np.array([g.shares for g in games])
    return players, seat_idx, obs


def reference_fit(games, sigma_prior: float = 350.0, c: float = ELO_SCALE,
                  tol: float = 1e-8, max_iters: int = 200000) -> RatingModel:
    """MAP fit by damped Newton ascent with backtracking line search.

    Optimization runs in share space (parameters divided by c), where the
    gradient is the accumulated difference between observed and predicted
    shares; convergence is declared when its max-norm drops below `tol`.
    Deterministic: zero initialization and a deterministic line search.
    """
    games = list(games)
    if not games:
        raise ValueError("no games")
    n_seats = len(games[0].seats)
    if any(len(g.seats) != n_seats for g in games):
        raise ValueError("all games must have the same seat count")
    players, seat_idx, obs = reference_pack(games, n_seats)
    n_players = len(players)
    prior_precision = (c / sigma_prior) ** 2
    n_params = n_players + n_seats   # x = (rho, beta): ratings / c, biases / c

    # Column index of each (game, seat) cell within x, for scatter-adds.
    rho_cols = seat_idx
    beta_cols = np.arange(n_seats)[None, :] + n_players

    def evaluate(x):
        rho, beta = x[:n_players], x[n_players:]
        z = rho[seat_idx] + beta[None, :]
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=1, keepdims=True)
        obj = float(np.sum(obs * np.log(p))) - 0.5 * prior_precision * float(rho @ rho)
        resid = obs - p
        grad = np.zeros(n_params)
        np.add.at(grad, rho_cols, resid)
        grad[n_players:] += resid.sum(axis=0)
        grad[:n_players] -= prior_precision * rho
        grad[n_players:] -= grad[n_players:].mean()  # sum-zero constraint
        # Negated Hessian of the log-posterior: per game diag(p) - p p^T on
        # the seat cells, scattered to parameters, plus the prior block.
        hess = np.zeros((n_params, n_params))
        for g in range(p.shape[0]):
            cols = np.concatenate([rho_cols[g], beta_cols[0]])
            m = np.diag(p[g]) - np.outer(p[g], p[g])
            np.add.at(hess, (cols[:, None], cols[None, :]), np.tile(m, (2, 2)))
        hess[:n_players, :n_players] += prior_precision * np.eye(n_players)
        return obj, p, grad, hess

    def max_norm(grad):
        return float(np.max(np.abs(grad)))

    x = np.zeros(n_params)
    obj, p, grad, hess = evaluate(x)
    history = [obj]
    for _ in range(max_iters):
        gnorm = max_norm(grad)
        if gnorm < tol:
            break
        # Newton direction; the tiny ridge covers the bias-sum nullspace.
        ridge = 1e-10 * (1.0 + np.trace(hess) / n_params)
        direction = np.linalg.solve(hess + ridge * np.eye(n_params), grad)
        direction[n_players:] -= direction[n_players:].mean()
        step = 1.0
        while True:
            x_new = x + step * direction
            x_new[n_players:] -= x_new[n_players:].mean()
            obj_new, p_new, grad_new, hess_new = evaluate(x_new)
            # Accept a strict ascent step; once the objective saturates in
            # float precision, accept non-worsening steps that still shrink
            # the gradient so the iterate keeps contracting to stationarity.
            if obj_new > obj or (obj_new == obj
                                 and max_norm(grad_new) < gnorm):
                break
            step *= 0.5
            if step < 1e-18:
                raise RuntimeError(f"line search failed; gradient norm {gnorm}")
        x, obj, p, grad, hess = x_new, obj_new, p_new, grad_new, hess_new
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


def reference_read(path) -> list[GameRecord]:
    """Ingest games from CSV columns: game_id, seat_index, player_id, score_share."""
    rows: dict = {}
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.setdefault(rec["game_id"], []).append(
                (int(rec["seat_index"]), rec["player_id"], float(rec["score_share"])))
    games = []
    for gid in sorted(rows):
        entries = sorted(rows[gid])
        games.append(GameRecord(
            seats=tuple(p for _, p, _ in entries),
            shares=tuple(s for _, _, s in entries),
        ))
    return games


# ------------------------------------------------------ bit identity

def assert_same_fit(games, **kw):
    """`fit_ratings` and `reference_fit` agree exactly, or raise alike."""
    try:
        want = reference_fit(games, **kw)
    except (RuntimeError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            fit_ratings(games, **kw)
        assert str(got.value) == str(exc)
        return
    got = fit_ratings(games, **kw)
    assert got.ratings == want.ratings
    np.testing.assert_array_equal(got.seat_biases, want.seat_biases)
    assert got.ascent_history == want.ascent_history


@st.composite
def rated_games(draw):
    """2-7 seats drawn with replacement from a few players, so a player can
    sit in several seats of one game; exact model shares or noisy ones."""
    n_seats = draw(st.integers(2, 7))
    n_players = draw(st.integers(1, 6))
    n_games = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    exact = draw(st.booleans())
    ratings = rng.uniform(-200.0, 200.0, size=n_players)
    biases = rng.uniform(-60.0, 60.0, size=n_seats)
    games = []
    for _ in range(n_games):
        seats = rng.integers(n_players, size=n_seats)
        z = (ratings[seats] + biases) / ELO_SCALE
        w = np.exp(z - z.max()) if exact else rng.uniform(0.02, 1.0, size=n_seats)
        games.append(GameRecord(seats=tuple(f"p{k}" for k in seats),
                                shares=tuple(w / w.sum())))
    return games


@settings(max_examples=150, deadline=None)
@given(rated_games(), st.sampled_from([50.0, 350.0, 2000.0]))
def test_fit_matches_reference(games, sigma_prior):
    assert_same_fit(games, sigma_prior=sigma_prior)


# The line search halves its step 40 times on this fixture at sigma_prior 2000.
BACKTRACKING_GAMES = [
    GameRecord(("a", "a"), (0.0002, 0.9998)),
    GameRecord(("a", "b"), (0.999, 0.001)),
    GameRecord(("b", "a"), (0.9999999, 1e-7)),
    GameRecord(("b", "b"), (0.75, 0.25)),
]


def test_fit_matches_reference_through_backtracking(monkeypatch):
    evaluations = 0
    exp = np.exp

    def counting_exp(x):
        nonlocal evaluations
        evaluations += 1
        return exp(x)

    with monkeypatch.context() as m:
        m.setattr(np, "exp", counting_exp)
        history = reference_fit(BACKTRACKING_GAMES,
                                sigma_prior=2000.0).ascent_history
    assert evaluations > len(history)     # one evaluation per trial step
    assert_same_fit(BACKTRACKING_GAMES, sigma_prior=2000.0)
    assert_same_fit(BACKTRACKING_GAMES, sigma_prior=2000.0, max_iters=3)


READER_CASES = {
    "shuffled columns": "score_share,player_id,game_id,seat_index\n"
                        "0.25,bob,g1,1\n0.75,alice,g1,0\n0.5,bob,g0,0\n"
                        "0.5,alice,g0,1\n",
    "blank lines": "game_id,seat_index,player_id,score_share\n\n"
                   "g0,0,bob,0.5\n\n\ng0,1,alice,0.5\n\n",
    "extra column": "game_id,note,seat_index,player_id,score_share\n"
                    "g0,x,1,bob,0.4\ng0,y,0,alice,0.6\n",
    "unsorted ids and seats": "game_id,seat_index,player_id,score_share\n"
                              "g2,2,c,0.2\ng10,0,a,0.5\ng2,0,b,0.3\n"
                              "g10,1,b,0.5\ng2,1,a,0.5\n",
    "crlf": "game_id,seat_index,player_id,score_share\r\n"
            "g1,0,a,0.125\r\ng1,1,b,0.875\r\n\r\ng0,1,a,1\r\ng0,0,b,0\r\n",
    "header only": "game_id,seat_index,player_id,score_share\n",
    "repeated column name": "game_id,seat_index,player_id,score_share,player_id\n"
                            "g0,0,a,0.5,c\ng0,1,b,0.5,d\n",
}


@pytest.mark.parametrize("name", sorted(READER_CASES))
def test_read_game_records_matches_reference(tmp_path, name):
    path = tmp_path / "games.csv"
    path.write_bytes(READER_CASES[name].encode())
    assert read_game_records(path) == reference_read(path)


def reference_shares_ok(shares) -> bool:
    """The numpy check `GameRecord` made before it validated in plain Python
    (it accepted NaN)."""
    sh = np.asarray(shares, dtype=float)
    return not (np.any(sh < 0) or abs(sh.sum() - 1.0) > 1e-9)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=7),
       st.sampled_from([0.0, 1e-9, -1e-9, 0.5]), st.integers(-8, 8))
def test_game_record_accepts_what_numpy_accepted(weights, offset, ulps):
    """Up to 7 seats, also within a few ulps of the 1e-9 tolerance."""
    shares = [w / sum(weights) for w in weights]
    shares[-1] += offset + ulps * 2.0 ** -52
    try:
        GameRecord(tuple("abcdefg"[:len(shares)]), tuple(shares))
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == reference_shares_ok(shares)


def test_game_record_rejects_non_finite_shares():
    for shares in [(math.nan, 1.0), (1.0, math.nan), (math.inf, 0.0),
                   (-math.inf, 1.0)]:
        with pytest.raises(ValueError, match="nonnegative and sum to 1"):
            GameRecord(("a", "b"), shares)


# ---------------------------------------------------------- golden digest

def write_rating_csv(path, n_games: int, n_players: int, seed: int) -> None:
    """Exact-share 7-seat games under seeded ratings and seat biases."""
    rng = np.random.default_rng(seed)
    biases = np.array([59.0, 27.0, 18.0, -16.0, -21.0, -24.0, -43.0])
    ratings = rng.uniform(-40.0, 40.0, size=n_players)
    seats = rng.integers(n_players, size=(n_games, biases.size))
    z = (ratings[seats] + biases) / ELO_SCALE
    e = np.exp(z - z.max(axis=1, keepdims=True))
    shares = e / e.sum(axis=1, keepdims=True)
    lines = ["game_id,seat_index,player_id,score_share"]
    lines += [f"g{g:05d},{s},p{seats[g, s]:03d},{shares[g, s]:.17g}"
              for g in range(n_games) for s in range(biases.size)]
    path.write_text("\n".join(lines) + "\n")


# sha256 of ratings.json, taken from the per-game Hessian loop and the
# DictReader reader.
RATINGS_GOLDEN = (
    "076c2894d16d4d3779ceeafc46b94ab8e61abab6ef821e37e97efdc26d660470")


def test_run_rate_golden_digest(tmp_path, capsys):
    games_csv = tmp_path / "games.csv"
    write_rating_csv(games_csv, 3500, 75, seed=7)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "rate",
                                "rate": {"games_csv": str(games_csv)}}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    data = (tmp_path / "out" / "ratings.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == RATINGS_GOLDEN
