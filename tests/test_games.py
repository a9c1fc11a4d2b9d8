"""Tests for game representations, generators, and scoring."""

import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anchored import (
    NormalFormGame,
    TabularMarkovGame,
    TERMINAL,
    expected_utility,
    make_anchor,
    make_builtin_game,
    make_random_markov,
    make_repeated_markov,
    sos_score,
    uniform_policy,
)
from anchored.games import cdf, draw
from anchored.oracle import evaluate_markov_profile, uniform_anchors


def test_make_anchor_clamps_and_renormalizes():
    a = make_anchor([1.0, 0.0])
    assert a[1] > 0
    assert abs(a.sum() - 1.0) <= 1e-12
    assert a[1] == pytest.approx(1e-12, rel=1e-9)


def test_make_anchor_passthrough():
    a = make_anchor([0.8, 0.2])
    np.testing.assert_allclose(a, [0.8, 0.2], atol=1e-12)


def test_make_anchor_rejects_bad_input():
    with pytest.raises(ValueError):
        make_anchor([0.0, 0.0])
    with pytest.raises(ValueError):
        make_anchor([-0.1, 1.1])
    with pytest.raises(ValueError):
        make_anchor([[0.5, 0.5]])


def test_matching_pennies_payoffs():
    g = make_builtin_game("matching_pennies")
    assert g.action_counts == (2, 2)
    assert g.zero_sum
    assert g.payoffs[0][0, 0] == 1.0
    assert g.payoffs[0][0, 1] == -1.0
    np.testing.assert_array_equal(g.payoffs[1], -g.payoffs[0])


def test_rock_paper_scissors_payoffs():
    g = make_builtin_game("rock_paper_scissors")
    assert g.action_counts == (3, 3)
    # rock beats scissors, draws against rock
    assert g.payoffs[0][0, 2] == 1.0
    assert g.payoffs[0][0, 0] == 0.0


def test_random_game_deterministic_in_seed():
    a = make_builtin_game("random_zero_sum", {"seed": 7, "actions": (3, 3)})
    b = make_builtin_game("random_zero_sum", {"seed": 7, "actions": (3, 3)})
    np.testing.assert_array_equal(a.payoffs[0], b.payoffs[0])


def test_random_zero_sum_is_zero_sum():
    g = make_builtin_game("random_zero_sum", {"seed": 3, "actions": (4, 2)})
    np.testing.assert_allclose(g.payoffs[0] + g.payoffs[1], 0.0, atol=1e-12)


def test_unknown_builtin_raises():
    with pytest.raises(ValueError):
        make_builtin_game("tic_tac_toe")
    with pytest.raises(ValueError):
        make_builtin_game("random_zero_sum")  # missing seed


def test_payoff_bound_enforced():
    with pytest.raises(ValueError):
        NormalFormGame((2, 2), (np.ones((2, 2)) * 3, -np.ones((2, 2)) * 3),
                       payoff_bound=1.0)


def test_zero_sum_flag_validated():
    with pytest.raises(ValueError):
        NormalFormGame((2, 2), (np.ones((2, 2)), np.ones((2, 2))),
                       payoff_bound=1.0, zero_sum=True)


def test_expected_utility_uniform_pennies_is_zero():
    g = make_builtin_game("matching_pennies")
    prof = [uniform_policy(2), uniform_policy(2)]
    assert abs(expected_utility(g, prof, 0)) <= 1e-12


def test_expected_utility_pure_actions():
    g = make_builtin_game("matching_pennies")
    prof = [np.array([1.0, 0.0]), np.array([1.0, 0.0])]
    assert expected_utility(g, prof, 0) == pytest.approx(1.0, abs=1e-12)


def test_expected_utility_mixed_hand_value():
    # p1=(0.75, 0.25) against a uniform opponent in matching pennies: the
    # column player's uniform play zeroes every row, so the value is 0.
    g = make_builtin_game("matching_pennies")
    prof = [np.array([0.75, 0.25]), uniform_policy(2)]
    assert abs(expected_utility(g, prof, 0)) <= 1e-12


def test_expected_utility_multilinear():
    rng = np.random.default_rng(0)
    g = make_builtin_game("random_general_sum", {"seed": 5, "actions": (3, 2, 2)})
    for _ in range(20):
        base = [rng.dirichlet(np.ones(n)) for n in g.action_counts]
        x = rng.dirichlet(np.ones(g.action_counts[0]))
        y = rng.dirichlet(np.ones(g.action_counts[0]))
        w = rng.uniform()
        mixed = list(base)
        mixed[0] = w * x + (1 - w) * y
        lhs = expected_utility(g, mixed, 1)
        rhs = (w * expected_utility(g, [x] + base[1:], 1)
               + (1 - w) * expected_utility(g, [y] + base[1:], 1))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_zero_sum_expected_utilities_cancel():
    rng = np.random.default_rng(1)
    g = make_builtin_game("random_zero_sum", {"seed": 11, "actions": (3, 3)})
    for _ in range(20):
        prof = [rng.dirichlet(np.ones(3)) for _ in range(2)]
        total = expected_utility(g, prof, 0) + expected_utility(g, prof, 1)
        assert abs(total) <= 1e-12


def test_utility_vector_matches_expected_utility():
    rng = np.random.default_rng(2)
    g = make_builtin_game("random_general_sum", {"seed": 9, "actions": (2, 3)})
    prof = [rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(3))]
    u = g.utility_vector(0, prof)
    assert u.shape == (2,)
    assert float(u @ prof[0]) == pytest.approx(expected_utility(g, prof, 0), abs=1e-12)


def test_sos_score_equal_counts():
    np.testing.assert_allclose(sos_score([3] * 7), np.full(7, 1 / 7), atol=1e-12)


def test_sos_score_sole_survivor():
    s = sos_score([34, 0, 0, 0, 0, 0, 0])
    np.testing.assert_allclose(s, [1, 0, 0, 0, 0, 0, 0], atol=1e-12)


def test_sos_score_hand_value():
    s = sos_score([18, 16, 0, 0, 0, 0, 0])
    assert s[0] == pytest.approx(324 / 580, abs=1e-12)
    assert s[1] == pytest.approx(256 / 580, abs=1e-12)


def test_sos_score_fuzz_simplex():
    rng = np.random.default_rng(3)
    for _ in range(100):
        c = rng.uniform(0, 10, size=rng.integers(2, 8))
        if c.sum() == 0:
            continue
        s = sos_score(c)
        assert abs(s.sum() - 1.0) <= 1e-12
        assert np.all(s >= 0) and np.all(s <= 1)


def test_sos_score_rejects_degenerate():
    with pytest.raises(ValueError):
        sos_score([0, 0, 0])
    with pytest.raises(ValueError):
        sos_score([-1, 2])


@pytest.mark.parametrize("seats", [1, 2, 7, 8, 9, 16, 17, 40])
def test_sos_score_rows_match_one_game_at_a_time(seats):
    # Past 8 entries numpy sums pairwise: the rows must sum as 1-D calls do.
    c = np.random.default_rng(seats).uniform(0.0, 10.0, size=(200, seats))
    c[::7, 1:] = 0.0
    assert np.array_equal(sos_score(c), np.stack([sos_score(row) for row in c]))


SUM_SLACK = 1e-9        # well inside choice's sqrt(eps) = 1.49e-8


@st.composite
def probability_vectors(draw_):
    """Probability vectors as callers pass them: entries that may be zero,
    length 1 included, and a sum off 1 by less than sqrt(eps)."""
    n = draw_(st.integers(1, 12))
    w = np.array(draw_(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    w[draw_(st.integers(0, n - 1))] += 0.5
    p = w / w.sum() * (1.0 + draw_(st.floats(-SUM_SLACK, SUM_SLACK)))
    return p.astype(draw_(st.sampled_from([np.float64, np.float32])))


@settings(max_examples=300, deadline=None)
@given(probability_vectors(), st.integers(0, 2 ** 32 - 1))
def test_draw_matches_generator_choice(p, seed):
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    c = cdf(p)
    for _ in range(5):
        assert draw(c, rng.random()) == twin.choice(len(p), p=p)
    assert rng.random() == twin.random()        # the same stream after the draws
    # choice's cdf, and its "right" side at a uniform equal to a cdf value
    expect = np.asarray(p, dtype=float).cumsum()
    expect /= expect[-1]
    assert c == expect.tolist()
    assert [draw(c, u) for u in c] == expect.searchsorted(c, "right").tolist()


@pytest.mark.parametrize("p", [
    [np.nan, 1.0],                  # NaN
    [-0.5, 1.5],                    # a negative entry
    [0.5, 0.5 + 1e-6],              # sum off 1 by more than sqrt(eps)
    [np.inf, 0.0],                  # inf: the sum is off 1
    [0.5, np.inf, 0.2],             # inf mid-vector: Kahan's sum turns NaN
    [[0.5, 0.5]],                   # not 1-D
])
def test_cdf_raises_what_choice_raises(p):
    with pytest.raises(ValueError) as expected:
        np.random.default_rng(0).choice(len(p), p=p)
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        cdf(p)


def test_normal_form_round_trip():
    g = make_builtin_game("random_general_sum", {"seed": 4, "actions": (2, 3)})
    h = NormalFormGame.from_dict(g.to_dict())
    for u, v in zip(g.payoffs, h.payoffs):
        np.testing.assert_array_equal(u, v)
    assert h.payoff_bound == g.payoff_bound


def test_repeated_markov_structure():
    mp = make_builtin_game("matching_pennies")
    g = make_repeated_markov(mp, horizon=3, discount=1.0)
    assert g.state_count == 3
    assert g.horizon == 3
    # round advances deterministically, last round terminates
    assert g.successors(0, (0, 0)) == ((1, 1.0),)
    assert g.successors(2, (1, 0)) == ((TERMINAL, 1.0),)
    np.testing.assert_array_equal(g.reward(1, (0, 1)), [-1.0, 1.0])


def test_repeated_markov_uniform_value_zero():
    mp = make_builtin_game("matching_pennies")
    g = make_repeated_markov(mp, horizon=3, discount=1.0)
    pols = uniform_anchors(g)
    values = evaluate_markov_profile(g, pols)
    for s in range(3):
        np.testing.assert_allclose(values[s], 0.0, atol=1e-12)


def test_repeated_markov_discount_weights():
    mp = make_builtin_game("matching_pennies")
    g = make_repeated_markov(mp, horizon=2, discount=0.5)
    pols = {(s, i): np.array([1.0, 0.0]) for s in range(2) for i in range(2)}
    values = evaluate_markov_profile(g, pols)
    # (H, H) pays +1 each round; discounted sum is 1 + 0.5
    assert values[0][0] == pytest.approx(1.5, abs=1e-12)


def test_random_markov_deterministic():
    kw = dict(seed=5, state_count=4, player_count=2, actions_per_player=2,
              horizon=3, gamma=0.9, zero_sum=True)
    a = make_random_markov(**kw)
    b = make_random_markov(**kw)
    assert a.to_dict() == b.to_dict()


def test_random_markov_zero_sum_and_valid_transitions():
    g = make_random_markov(seed=8, state_count=5, player_count=2,
                           actions_per_player=3, horizon=4, gamma=1.0,
                           zero_sum=True)
    for s in range(g.state_count):
        for a in g.joint_actions(s):
            r = g.reward(s, a)
            assert abs(r[0] + r[1]) <= 1e-12
            total = sum(p for _, p in g.successors(s, a))
            assert abs(total - 1.0) <= 1e-12


def test_random_markov_gamma_zero_values_are_stage_values():
    from anchored.oracle import solve_markov_backward, stage_game_from_values
    from anchored import solve_regularized_bne, TypeDistribution

    g = make_random_markov(seed=13, state_count=4, player_count=2,
                           actions_per_player=2, horizon=3, gamma=0.0,
                           zero_sum=True)
    anchors = uniform_anchors(g)
    values, _ = solve_markov_backward(g, anchors, (0.5, 0.5))
    types = (TypeDistribution.singleton(0.5), TypeDistribution.singleton(0.5))
    for s in range(g.state_count):
        # with gamma=0 every stage game equals the immediate rewards
        stage = stage_game_from_values(g, s, {t: np.zeros(2) for t in range(4)})
        prof = solve_regularized_bne(stage, [anchors[(s, 0)], anchors[(s, 1)]], types)
        mix = [prof.mixture(0), prof.mixture(1)]
        v0 = float(stage.utility_vector(0, mix) @ mix[0])
        assert values[s][0] == pytest.approx(v0, abs=1e-8)


def test_markov_round_trip():
    g = make_random_markov(seed=21, state_count=4, player_count=2,
                           actions_per_player=2, horizon=3, gamma=0.7,
                           zero_sum=False)
    h = TabularMarkovGame.from_dict(g.to_dict())
    assert h.to_dict() == g.to_dict()


def test_max_return_bounds():
    g = make_random_markov(seed=2, state_count=3, player_count=2,
                           actions_per_player=2, horizon=4, gamma=1.0)
    assert g.max_return() == pytest.approx(4.0)
    h = make_random_markov(seed=2, state_count=3, player_count=2,
                           actions_per_player=2, horizon=4, gamma=0.5)
    assert h.max_return() == pytest.approx(1.0 * (1 - 0.5 ** 4) / 0.5)


# sha256 of json.dumps(to_dict()): any change to a generator's draw order or
# to the serialized format changes these.
GOLDEN_MARKOV = {
    "zero-sum 5 states": (dict(seed=101, state_count=5, player_count=2,
                               actions_per_player=3, horizon=4, gamma=1.0,
                               zero_sum=True),
                          "74167678395cb1dd477f35cbff7862d4f33b032589a5a67782be146af4293038"),
    "zero-sum 40 states": (dict(seed=102, state_count=40, player_count=2,
                                actions_per_player=3, horizon=4, gamma=1.0,
                                zero_sum=True),
                           "e2c8cf4a21b378ea3ce9c72e54f074a8b82002913ba08682896e0f3f7a114211"),
    "general-sum 5 states": (dict(seed=103, state_count=5, player_count=2,
                                  actions_per_player=3, horizon=4, gamma=0.9),
                             "d1ae1f1154cee391e5f8a285f81c20583b5bd3243987d22485e52c7b727ae050"),
    "general-sum 40 states, 3 players": (
        dict(seed=104, state_count=40, player_count=3, actions_per_player=2,
             horizon=4, gamma=0.9, payoff_bound=2.0),
        "c50c3bb16569bcef89c087abe8bbcb5ff696d5f3d14409ad92cb09c6d2a4fb64"),
}


def _digest(game) -> str:
    return hashlib.sha256(json.dumps(game.to_dict()).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_MARKOV))
def test_random_markov_golden_digest(name):
    kwargs, digest = GOLDEN_MARKOV[name]
    assert _digest(make_random_markov(**kwargs)) == digest


def test_repeated_markov_golden_digest():
    stage = make_builtin_game("random_general_sum", {"seed": 3, "actions": (2, 3, 2)})
    assert _digest(make_repeated_markov(stage, horizon=3, discount=0.5)) == (
        "ff9f38ef3ad262e482e1bab447b585497c57b4dd32f642d88773ff54fbf7f09f")
    rps = make_builtin_game("rock_paper_scissors")
    assert _digest(make_repeated_markov(rps, horizon=4, discount=1.0)) == (
        "7d111b4ece8fcf0bf015accc4926147418da01cf74b7e24668527949d379da1c")


@st.composite
def markov_params(draw):
    players = draw(st.integers(2, 3))
    return dict(seed=draw(st.integers(0, 2 ** 32 - 1)),
                state_count=draw(st.integers(1, 12)), player_count=players,
                actions_per_player=draw(st.integers(1, 3)),
                horizon=draw(st.integers(2, 5)),
                gamma=draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])),
                zero_sum=players == 2 and draw(st.booleans()),
                payoff_bound=draw(st.sampled_from([1.0, 2.5])))


@settings(max_examples=60, deadline=None)
@given(markov_params())
def test_markov_dict_round_trip_property(params):
    g = make_random_markov(**params)
    h = TabularMarkovGame.from_dict(json.loads(json.dumps(g.to_dict())))
    assert h.to_dict() == g.to_dict()
    assert h.next_states == g.next_states
    for s in range(g.state_count):
        np.testing.assert_array_equal(h.R[s], g.R[s])
        np.testing.assert_array_equal(h.T[s], g.T[s])


def _markov_dict():
    return make_random_markov(seed=4, state_count=3, player_count=2,
                              actions_per_player=2, horizon=2, gamma=1.0,
                              zero_sum=True).to_dict()


def test_markov_from_dict_rejects_malformed():
    d = _markov_dict()
    del d["transitions"][0]["[1, 1]"]
    with pytest.raises(ValueError, match="joint actions"):
        TabularMarkovGame.from_dict(d)
    d = _markov_dict()
    d["transitions"][1]["[0, 0]"] = [[7, 1.0]]
    with pytest.raises(ValueError, match="out of range"):
        TabularMarkovGame.from_dict(d)
    d = _markov_dict()
    d["rewards"][2]["[0, 1]"].append(0.0)
    with pytest.raises(ValueError, match="reward"):
        TabularMarkovGame.from_dict(d)
    d = _markov_dict()
    d["transitions"][0] = [[1, 1.0]]
    with pytest.raises(ValueError, match="row"):
        TabularMarkovGame.from_dict(d)


def test_markov_from_dict_successor_order_and_duplicates():
    d = _markov_dict()
    # State 0 moves to states 1 and 2; list one joint action's successors in
    # the other order and one successor twice.
    d["transitions"][0]["[0, 1]"] = [[2, 0.25], [1, 0.5], [2, 0.25]]
    g = TabularMarkovGame.from_dict(d)
    assert g.next_states[0] == (1, 2)
    assert g.successors(0, (0, 1)) == ((1, 0.5), (2, 0.5))
    assert g.next_states[1] == (TERMINAL,)


def test_sample_successor_matches_successor_list_draw():
    g = make_random_markov(seed=9, state_count=12, player_count=2,
                           actions_per_player=3, horizon=3, gamma=1.0)
    rng, ref = np.random.default_rng(0), np.random.default_rng(0)
    for s in range(g.state_count):
        for a in g.joint_actions(s):
            succ = g.successors(s, a)
            probs = np.array([p for _, p in succ])
            expect = succ[int(ref.choice(len(succ), p=probs / probs.sum()))][0]
            assert g.sample_successor(s, a, rng) == expect


@pytest.mark.parametrize("states, horizon", [(12, 3), (60, 3)])
def test_successor_cdfs_match_cdf_row_by_row(states, horizon):
    # (60, 3) gives states with about 30 successors: numpy sums them pairwise.
    g = make_random_markov(seed=4, state_count=states, player_count=2,
                           actions_per_player=3, horizon=horizon, gamma=1.0)
    for s in range(g.state_count):
        for a in g.joint_actions(s):
            row = g.T[s][a]
            assert g.C[s][a].tolist() == cdf(row / row.sum())


@pytest.mark.parametrize("bound", [float("nan"), float("inf"), 0.0, -1.0])
def test_random_markov_rejects_bad_payoff_bound(bound):
    with pytest.raises(ValueError, match="payoff_bound"):
        make_random_markov(seed=1, state_count=3, player_count=2,
                           actions_per_player=2, horizon=2, gamma=1.0,
                           zero_sum=True, payoff_bound=bound)
