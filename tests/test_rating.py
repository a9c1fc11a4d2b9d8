"""Tests for the multiplayer MAP rating fitter.

`reference_fit` (with `reference_pack`) is the per-game Hessian loop that
`fit_ratings` ran before its Hessian became one in-order scatter, and
`reference_read` is the `csv.DictReader` reader that `read_game_records`
replaced; both are kept apart from their names and from holding each game as
a `(seats, shares)` pair.  The fit and the reader are compared with them
under exact equality.  `reference_shares_ok` is the left-to-right share
check of the deleted `GameRecord`, which the reader is compared with.
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
    GameTable,
    RatingModel,
    fit_ratings,
    log_posterior,
    predict_shares,
)
from anchored.cli import main
from anchored.rating import read_game_records


def table(games) -> GameTable:
    """`(seats, shares)` games as `GameTable.from_rows` rows: games in their
    order, seats in theirs."""
    return GameTable.from_rows(
        [k for k, (seats, _) in enumerate(games) for _ in seats],
        [s for seats, _ in games for s in range(len(seats))],
        [p for seats, _ in games for p in seats],
        [x for _, shares in games for x in shares])


def synthetic_games(true_ratings, seat_biases, n_games, n_seats, seed):
    """Exact-share generator; the generating model is the recovery oracle.
    Returns the games as a `GameTable`."""
    model = RatingModel(ratings=dict(true_ratings),
                        seat_biases=np.asarray(seat_biases, float))
    names = sorted(true_ratings)
    rng = np.random.default_rng(seed)
    games = []
    for _ in range(n_games):
        seats = tuple(names[k] for k in rng.integers(len(names), size=n_seats))
        shares = predict_shares(model, seats)
        games.append((seats, tuple(shares)))
    return table(games)


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


# ------------------------------------------------------------------- rows

def test_game_record_validation():
    """A game record as `from_rows` rows."""
    with pytest.raises(ValueError, match="nonnegative and sum to 1"):
        table([(("a", "b"), (0.7, 0.7))])
    with pytest.raises(ValueError):         # unequal column lengths
        table([(("a",), (0.5, 0.5))])
    with pytest.raises(ValueError, match="no games"):
        table([((), ())])


# ------------------------------------------------------------- posterior

def test_log_posterior_uniform_model():
    model = RatingModel(ratings={"a": 0.0, "b": 0.0}, seat_biases=np.zeros(2))
    games = table([(("a", "b"), (0.3, 0.7))])
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
    games = table([(("a", "b"), (0.5, 0.5))])
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
    with pytest.raises(ValueError, match="no games"):
        table([])
    with pytest.raises(ValueError, match="has 3 seats"):
        table([(("a", "b"), (0.5, 0.5)), (("a", "b", "c"), (0.4, 0.3, 0.3))])


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
    assert len(games) == 2 and games.players == ["alice", "bob"]
    assert games.seat_idx.tolist() == [[1, 0], [0, 1]]     # g0: bob, alice
    assert games.obs.tolist() == [[0.5, 0.5], [0.75, 0.25]]


@pytest.mark.parametrize("text, column", [
    ("game_id,seat_index,player_id\ng0,0,a\n", "score_share"),
    ("", "game_id"),
])
def test_read_game_records_names_a_missing_column(tmp_path, text, column):
    path = tmp_path / "games.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^header: no {column} column$"):
        read_game_records(path)


# ------------------------------------------------------- references

def reference_pack(games, n_seats: int):
    players = sorted({p for seats, _ in games for p in seats})
    index = {p: i for i, p in enumerate(players)}
    seat_idx = np.array([[index[p] for p in seats] for seats, _ in games])
    obs = np.array([shares for _, shares in games])
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
    n_seats = len(games[0][0])
    if any(len(seats) != n_seats for seats, _ in games):
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


def reference_read(path) -> list[tuple]:
    """Ingest games from CSV columns: game_id, seat_index, player_id, score_share."""
    rows: dict = {}
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.setdefault(rec["game_id"], []).append(
                (int(rec["seat_index"]), rec["player_id"], float(rec["score_share"])))
    games = []
    for gid in sorted(rows):
        entries = sorted(rows[gid])
        games.append((
            tuple(p for _, p, _ in entries),
            tuple(s for _, _, s in entries),
        ))
    return games


# ------------------------------------------------------ bit identity

def assert_same_fit(games, **kw):
    """`fit_ratings` and `reference_fit` agree exactly, or raise alike."""
    try:
        want = reference_fit(games, **kw)
    except (RuntimeError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            fit_ratings(table(games), **kw)
        assert str(got.value) == str(exc)
        return
    got = fit_ratings(table(games), **kw)
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
        games.append((tuple(f"p{k}" for k in seats), tuple(w / w.sum())))
    return games


@settings(max_examples=150, deadline=None)
@given(rated_games(), st.sampled_from([50.0, 350.0, 2000.0]))
def test_fit_matches_reference(games, sigma_prior):
    assert_same_fit(games, sigma_prior=sigma_prior)


# The line search halves its step 40 times on this fixture at sigma_prior 2000.
BACKTRACKING_GAMES = [
    (("a", "a"), (0.0002, 0.9998)),
    (("a", "b"), (0.999, 0.001)),
    (("b", "a"), (0.9999999, 1e-7)),
    (("b", "b"), (0.75, 0.25)),
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
    "unsorted ids and seats, equal seat counts":
        "game_id,seat_index,player_id,score_share\n"
        "g2,2,c,0.2\ng10,0,a,0.5\ng2,0,b,0.3\ng10,2,c,0\ng10,1,b,0.5\ng2,1,a,0.5\n",
    "crlf": "game_id,seat_index,player_id,score_share\r\n"
            "g1,0,a,0.125\r\ng1,1,b,0.875\r\n\r\ng0,1,a,1\r\ng0,0,b,0\r\n",
    "header only": "game_id,seat_index,player_id,score_share\n",
    "repeated column name": "game_id,seat_index,player_id,score_share,player_id\n"
                            "g0,0,a,0.5,c\ng0,1,b,0.5,d\n",
}


def assert_reads_as_reference(path):
    """`read_game_records` gives what `reference_pack` makes of
    `reference_read`'s games, bit for bit, or raises `ValueError` where
    those games are none or of unequal seat counts."""
    games = reference_read(path)
    if not games or len({len(seats) for seats, _ in games}) > 1:
        with pytest.raises(ValueError):
            read_game_records(path)
        return
    players, seat_idx, obs = reference_pack(games, len(games[0][0]))
    got = read_game_records(path)
    assert len(got) == len(games) and got.players == players
    for a, b in ((got.seat_idx, seat_idx), (got.obs, obs)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(READER_CASES))
def test_read_game_records_matches_reference(tmp_path, name):
    path = tmp_path / "games.csv"
    path.write_bytes(READER_CASES[name].encode())
    assert_reads_as_reference(path)


# Ids whose string order is not their numeric order, and one that is a prefix.
READER_IDS = ["g2", "g10", "g1", "g", "G3", "é", "p 1", "p,1", 'q"2']


@st.composite
def games_csvs(draw):
    """A games CSV text: shuffled rows and columns, an extra column, ids
    whose string order differs from their numeric order, a player in
    several seats of one game, ties on seat_index, blank lines and CRLF or
    LF line ends."""
    n_seats = draw(st.integers(1, 5))
    n_games = draw(st.integers(1, 8))
    ids = draw(st.permutations(READER_IDS))
    players = ids[:draw(st.integers(1, 4))]
    rows = []
    for g in ids[:n_games]:
        w = draw(st.lists(st.floats(0.0, 1.0), min_size=n_seats, max_size=n_seats))
        total = sum(w)
        shares = [x / total for x in w] if total > 0 else [1.0] + [0.0] * (n_seats - 1)
        seats = draw(st.lists(st.integers(0, n_seats), min_size=n_seats,
                              max_size=n_seats))
        for seat, share in zip(seats, shares):
            rows.append({"game_id": g, "seat_index": str(seat),
                         "player_id": draw(st.sampled_from(players)),
                         "score_share": repr(share), "note": "x"})
    rows = draw(st.permutations(rows))
    header = draw(st.permutations(["game_id", "seat_index", "player_id",
                                   "score_share", "note"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_field(row[name]) for name in header))
        if draw(st.booleans()) and draw(st.booleans()):
            lines.append("")
    return end.join(lines) + end


def _csv_field(text: str) -> str:
    return f'"{text.replace(chr(34), 2 * chr(34))}"' if any(c in text for c in ',"') \
        else text


@settings(max_examples=200, deadline=None)
@given(games_csvs())
def test_read_game_records_matches_reference_on_random_csvs(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "games.csv"
    path.write_bytes(text.encode())
    assert_reads_as_reference(path)


def test_read_game_records_matches_reference_on_a_shuffled_league_file(tmp_path):
    """9100 shuffled rows of 7-seat games among 40 players."""
    path = tmp_path / "games.csv"
    write_rating_csv(path, 1300, 40, seed=3)
    header, *rows = path.read_text().splitlines()
    np.random.default_rng(0).shuffle(rows)
    path.write_text("\n".join([header, *rows]) + "\n")
    assert_reads_as_reference(path)


def reference_numpy_shares_ok(shares) -> bool:
    """The numpy check of a game record's shares before they were checked one
    at a time (it accepted NaN)."""
    sh = np.asarray(shares, dtype=float)
    return not (np.any(sh < 0) or abs(sh.sum() - 1.0) > 1e-9)


def reference_shares_ok(shares) -> bool:
    """The check the deleted `GameRecord` made of a game's shares: each one
    nonnegative and their total, added left to right, within 1e-9 of 1
    (False for a NaN or an infinite share)."""
    shares = tuple(float(x) for x in shares)
    total = 0.0
    for x in shares:    # in order, as numpy sums up to 7 seats
        total += x
    return min(shares) >= 0 and abs(total - 1.0) <= 1e-9


def from_rows_accepts(shares) -> bool:
    """Whether `from_rows` accepts one game record with these shares."""
    try:
        table([(tuple(f"p{k}" for k in range(len(shares))), tuple(shares))])
    except ValueError as exc:
        assert "nonnegative and sum to 1" in str(exc)
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=7),
       st.sampled_from([0.0, 1e-9, -1e-9, 0.5]), st.integers(-8, 8))
def test_game_record_accepts_what_numpy_accepted(weights, offset, ulps):
    """Up to 7 seats, also within a few ulps of the 1e-9 tolerance."""
    shares = [w / sum(weights) for w in weights]
    shares[-1] += offset + ulps * 2.0 ** -52
    assert from_rows_accepts(shares) == reference_numpy_shares_ok(shares)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12),
       st.sampled_from([0.0, 1e-9, -1e-9]), st.integers(-8, 8))
def test_reader_accepts_the_shares_game_record_accepts(tmp_path_factory, weights,
                                                        offset, ulps):
    """The reader adds a game's shares left to right as the deleted
    `GameRecord` did (`reference_shares_ok`), also past 8 seats, where a numpy
    row sum would add them pairwise."""
    shares = [w / sum(weights) for w in weights]
    shares[-1] += offset + ulps * 2.0 ** -52
    path = tmp_path_factory.mktemp("csv") / "games.csv"
    path.write_text("game_id,seat_index,player_id,score_share\n" + "".join(
        f"g,{k},p{k},{x!r}\n" for k, x in enumerate(shares)))
    if reference_shares_ok(shares):
        assert read_game_records(path).obs.tolist() == [shares]
    else:
        with pytest.raises(ValueError, match="sum to 1"):
            read_game_records(path)


def test_game_record_rejects_non_finite_shares():
    for shares in [(math.nan, 1.0), (1.0, math.nan), (math.inf, 0.0),
                   (-math.inf, 1.0)]:
        with pytest.raises(ValueError, match="nonnegative and sum to 1"):
            table([(("a", "b"), shares)])


@pytest.mark.parametrize("option", [{"c": 1e300}, {"sigma_prior": 1e-300}],
                         ids=["c", "sigma_prior"])
def test_rate_prior_precision_overflow_exits_3(tmp_path, capsys, option):
    """A (c / sigma_prior)**2 past the largest double is a numerical failure,
    not a traceback."""
    games_csv = tmp_path / "games.csv"
    games_csv.write_text("game_id,seat_index,player_id,score_share\n"
                         "g0,0,a,0.75\ng0,1,b,0.25\ng1,0,b,0.5\ng1,1,a,0.5\n")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "rate",
                                "rate": {"games_csv": str(games_csv), **option}}))
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "c = " in err and "sigma_prior = " in err
    assert not (tmp_path / "out" / "ratings.json").exists()


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
