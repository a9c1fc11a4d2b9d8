"""Tests for the population evaluation harness."""

import numpy as np
import pytest

from anchored import (
    TERMINAL,
    AgentSpec,
    NormalFormGame,
    TabularMarkovGame,
    TypeDistribution,
    make_builtin_game,
    mean_and_se,
    run_population_eval,
    uniform_policy,
)
from anchored.popeval import resolve_agent_policies, scorable


def seven_seat_game():
    """Symmetric 7-player game with nonnegative outcomes: each player's
    terminal count is 1 + its own action."""
    n = 7
    shape = (2,) * n
    payoffs = []
    for i in range(n):
        u = np.ones(shape)
        idx = [slice(None)] * n
        idx[i] = 1
        u[tuple(idx)] = 2.0
        payoffs.append(u)
    return NormalFormGame(shape, tuple(payoffs), payoff_bound=2.0)


def two_seat_game():
    """2-player game whose outcomes favor action 1 head-to-head."""
    c0 = np.array([[1.0, 0.0], [2.0, 1.0]])
    c1 = c0.T
    return NormalFormGame((2, 2), (c0, c1), payoff_bound=2.0)


def fixed_agent(agent_id, policy, n_seats):
    return AgentSpec(agent_id=agent_id, kind="fixed",
                     policies=tuple(np.array(policy, float)
                                    for _ in range(n_seats)))


# ------------------------------------------------------------ mean and SE

def test_mean_and_se_constant():
    m, se = mean_and_se([0.5, 0.5, 0.5])
    assert m == pytest.approx(0.5, abs=1e-15)
    assert se == pytest.approx(0.0, abs=1e-15)


def test_mean_and_se_hand_value():
    m, se = mean_and_se([0.0, 1.0])
    assert m == pytest.approx(0.5, abs=1e-15)
    assert se == pytest.approx(0.5, abs=1e-12)


def test_mean_and_se_linearity():
    scores = [0.1, 0.4, 0.7, 0.2]
    m, se = mean_and_se(scores)
    m2, se2 = mean_and_se([2 * s for s in scores])
    assert m2 == pytest.approx(2 * m, abs=1e-12)
    assert se2 == pytest.approx(2 * se, abs=1e-12)


def test_mean_and_se_needs_two_samples():
    with pytest.raises(ValueError):
        mean_and_se([0.5])


# ------------------------------------------------------------- evaluation

def test_identical_agents_score_one_seventh():
    game = seven_seat_game()
    cand = fixed_agent("cand", [0.5, 0.5], 7)
    baselines = [fixed_agent(f"b{k}", [0.5, 0.5], 7) for k in range(3)]
    report = run_population_eval(cand, baselines, game, 1000,
                                 np.random.default_rng(0))
    assert report.games_played == 1000
    assert abs(report.mean - 1 / 7) <= 2 * report.standard_error


def test_scores_per_game_sum_to_one():
    game = seven_seat_game()
    cand = fixed_agent("cand", [0.3, 0.7], 7)
    baselines = [fixed_agent("base", [0.8, 0.2], 7)]
    report = run_population_eval(cand, baselines, game, 50,
                                 np.random.default_rng(1))
    for scores in report.scores:
        assert sum(scores) == pytest.approx(1.0, abs=1e-12)
    for seating in report.seatings:
        assert "cand" in seating


def test_best_response_candidate_beats_exploitable_baseline():
    game = two_seat_game()
    cand = fixed_agent("cand", [0.0, 1.0], 2)      # plays the winning action
    base = fixed_agent("base", [1.0, 0.0], 2)      # fixed exploitable policy
    report = run_population_eval(cand, [base], game, 400,
                                 np.random.default_rng(2))
    # exact enumeration of the conditioned seat mixture: seatings (B,C),
    # (C,B), (C,C) are equally likely; candidate scores 1, 1, and 0.5/0.5,
    # so the expected per-seat mean is 0.75
    assert report.mean == pytest.approx(0.75, abs=0.05)
    assert report.mean > 0.5


def test_candidate_multi_seat_contributes_multiple_samples():
    game = two_seat_game()
    cand = fixed_agent("cand", [0.5, 0.5], 2)
    base = fixed_agent("base", [0.5, 0.5], 2)
    report = run_population_eval(cand, [base], game, 300,
                                 np.random.default_rng(3))
    both = sum(1 for seating in report.seatings
               if seating == ["cand", "cand"])
    assert len(report.candidate_scores) == 300 + both


def test_report_deterministic_in_seed():
    game = seven_seat_game()
    cand = fixed_agent("cand", [0.6, 0.4], 7)
    baselines = [fixed_agent(f"b{k}", [0.5, 0.5], 7) for k in range(2)]

    def run():
        return run_population_eval(cand, baselines, game, 100,
                                   np.random.default_rng(42))

    a, b = run(), run()
    assert a.to_dict() == b.to_dict()
    assert a.seatings == b.seatings
    assert a.scores == b.scores


def test_seat_marginal_uniform_conditioned_on_inclusion():
    game = two_seat_game()
    cand = fixed_agent("cand", [0.5, 0.5], 2)
    baselines = [fixed_agent(f"b{k}", [0.5, 0.5], 2) for k in range(2)]
    report = run_population_eval(cand, baselines, game, 4000,
                                 np.random.default_rng(4))
    # conditioned on inclusion, the candidate occupies seat 0 with
    # probability P(seat0) / P(included) = (1/3) / (1 - (2/3)^2) = 3/5
    seat0 = np.mean([seating[0] == "cand" for seating in report.seatings])
    assert abs(seat0 - 3 / 5) <= 0.03


def test_negative_outcomes_rejected():
    c = np.array([[1.0, -0.5], [0.0, 1.0]])
    game = NormalFormGame((2, 2), (c, c.T), payoff_bound=1.0)
    cand = fixed_agent("cand", [0.5, 0.5], 2)
    base = fixed_agent("base", [0.5, 0.5], 2)
    with pytest.raises(ValueError):
        run_population_eval(cand, [base], game, 50, np.random.default_rng(5))


def test_duplicate_ids_and_empty_pool_rejected():
    game = two_seat_game()
    cand = fixed_agent("dup", [0.5, 0.5], 2)
    base = fixed_agent("dup", [0.5, 0.5], 2)
    with pytest.raises(ValueError):
        run_population_eval(cand, [base], game, 10, np.random.default_rng(6))
    with pytest.raises(ValueError):
        run_population_eval(cand, [], game, 10, np.random.default_rng(6))


# ----------------------------------------------------------- agent specs

def test_agent_spec_validation():
    with pytest.raises(ValueError):
        AgentSpec(agent_id="x", kind="psychic")
    with pytest.raises(ValueError):
        AgentSpec(agent_id="x", kind="search")     # missing types


def test_fixed_agent_policy_shape_checked():
    game = two_seat_game()
    bad = AgentSpec(agent_id="x", kind="fixed",
                    policies=(np.array([0.5, 0.5]),))
    with pytest.raises(ValueError):
        resolve_agent_policies(bad, game)


def test_search_agent_resolves_to_learned_policy():
    game = make_builtin_game("matching_pennies")
    agent = AgentSpec(
        agent_id="searcher", kind="search",
        types=TypeDistribution.uniform([1e-2, 1e-1]),
        act_lambda=1e-2,
        anchor_policies=(np.array([0.7, 0.3]), np.array([0.5, 0.5])),
        search_iterations=64,
    )
    pols = resolve_agent_policies(agent, game)
    assert len(pols) == 2
    for p in pols:
        assert p.shape == (2,)
        assert abs(p.sum() - 1.0) <= 1e-12
    # deterministic resolution (expected-feedback search)
    pols2 = resolve_agent_policies(agent, game)
    np.testing.assert_array_equal(pols[0], pols2[0])


def test_search_agent_anchor_limit_plays_anchor():
    game = make_builtin_game("matching_pennies")
    tau = (np.array([0.8, 0.2]), np.array([0.5, 0.5]))
    agent = AgentSpec(
        agent_id="anchored", kind="search",
        types=TypeDistribution.singleton(1e9),
        act_lambda=1e9,
        anchor_policies=tau,
        search_iterations=32,
    )
    pols = resolve_agent_policies(agent, game)
    np.testing.assert_allclose(pols[0], tau[0], atol=1e-6)


def chain_game(r0, r1, gamma=1.0):
    """State 0 (one action each) leads to state 1 (two actions for player 0),
    then to TERMINAL; r0 and r1 hold each player's rewards there."""
    return TabularMarkovGame(
        player_count=2, state_count=2, action_counts=((1, 1), (2, 1)),
        R=(np.array(r0, float).reshape(2, 1, 1), np.array(r1, float).reshape(2, 2, 1)),
        next_states=((1,), (TERMINAL,)), T=(np.ones((1, 1, 1)), np.ones((2, 1, 1))),
        gamma=gamma, horizon=2)


@pytest.mark.parametrize("r0, r1, gamma, ok", [
    ((0, 0), ((1, 2), (0, 1)), 1.0, True),     # pays only at the end
    ((0, 0), ((1, 0), (0, 0)), 1.0, False),    # action 1 at state 1 pays nobody
    ((1, 0), ((1, 0), (0, 0)), 1.0, True),     # state 0 already pays
    ((0, 0), ((1, 2), (1, 1)), 0.0, False),    # gamma 0: only state 0 counts
    ((0, -1), ((1, 2), (1, 1)), 1.0, False),   # a negative reward
])
def test_scorable_markov(r0, r1, gamma, ok):
    assert scorable(chain_game(r0, r1, gamma)) is ok


def test_markov_fixed_agents_play_per_state_tables():
    game = chain_game((0, 0), ((1, 2), (0, 1)))
    # Seat 0 picks player 0's action at state 1; seat 1 has one action.
    cand = AgentSpec(agent_id="cand", policies=(
        {(0, 0): np.ones(1), (1, 0): np.array([0.0, 1.0])}, np.ones(1)))
    base = AgentSpec(agent_id="base", policies=(
        {(0, 0): np.ones(1), (1, 0): np.array([1.0, 0.0])}, np.ones(1)))
    report = run_population_eval(cand, [base], game, 40, np.random.default_rng(6))
    for seating, scores in zip(report.seatings, report.scores):
        # outcome (2, 1) scores (4/5, 1/5); outcome (1, 0) scores (1, 0)
        assert scores == ([0.8, 0.2] if seating[0] == "cand" else [1.0, 0.0])
