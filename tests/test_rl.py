"""Tests for tabular self-play value iteration with per-state search."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anchored import (
    INF,
    PolicyTable,
    TrainConfig,
    TypeDistribution,
    ValueTable,
    build_stage_game,
    make_builtin_game,
    make_random_markov,
    make_repeated_markov,
    nashv_update,
    run_episode,
    search_state,
    solve_markov_backward,
    solve_regularized_bne,
    train,
    evaluate_vs_oracle,
    uniform_policy,
)
from anchored.oracle import uniform_anchors
from anchored.rl import _search_types


def small_fixture():
    return make_random_markov(seed=11, state_count=3, player_count=2,
                              actions_per_player=2, horizon=2, gamma=1.0,
                              zero_sum=True)


def singleton_config(**kw):
    base = dict(
        search_iterations=64,
        types=(TypeDistribution.singleton(0.5), TypeDistribution.singleton(0.5)),
        episodes=20,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


# ------------------------------------------------------------ stage game

def test_stage_game_zero_values_equal_rewards():
    game = small_fixture()
    values = ValueTable.zeros(game)
    stage = build_stage_game(game, 0, values)
    for a in game.joint_actions(0):
        assert stage.payoffs[0][a] == pytest.approx(game.reward(0, a)[0],
                                                    abs=1e-12)


def test_stage_game_gamma_zero_ignores_values():
    game = make_random_markov(seed=12, state_count=3, player_count=2,
                              actions_per_player=2, horizon=2, gamma=0.0,
                              zero_sum=True)
    values = ValueTable.zeros(game)
    values.values[1] = np.array([5.0, -5.0])
    stage = build_stage_game(game, 0, values)
    for a in game.joint_actions(0):
        assert stage.payoffs[0][a] == pytest.approx(game.reward(0, a)[0],
                                                    abs=1e-12)


def test_stage_game_value_substitution():
    mp = make_builtin_game("matching_pennies")
    game = make_repeated_markov(mp, horizon=2, discount=1.0)
    values = ValueTable.zeros(game)
    values.values[1] = np.array([0.6, -0.6])
    stage = build_stage_game(game, 0, values)
    # every joint action moves to state 1 deterministically
    for a in game.joint_actions(0):
        expect = game.reward(0, a) + values.values[1]
        assert stage.payoffs[0][a] == pytest.approx(expect[0], abs=1e-12)


def test_stage_game_rejects_terminal():
    game = small_fixture()
    with pytest.raises(ValueError):
        build_stage_game(game, -1, ValueTable.zeros(game))


# ----------------------------------------------------------- NashV update

def test_nashv_alpha_zero_noop():
    game = small_fixture()
    values = ValueTable.zeros(game)
    values.values[0] = np.array([0.3, -0.3])
    before = values.get(0).copy()
    nashv_update(values, 0, [uniform_policy(2)] * 2,
                 build_stage_game(game, 0, values), alpha=0.0)
    np.testing.assert_array_equal(values.get(0), before)


def test_nashv_alpha_one_overwrites_with_target():
    game = small_fixture()
    values = ValueTable.zeros(game)
    sigma = [uniform_policy(2), uniform_policy(2)]
    nashv_update(values, 0, sigma, build_stage_game(game, 0, values), alpha=1.0)
    # independent expectation over joint actions and transitions
    target = np.zeros(2)
    for a in game.joint_actions(0):
        p = sigma[0][a[0]] * sigma[1][a[1]]
        cont = np.zeros(2)
        for s2, q in game.successors(0, a):
            if s2 != -1:
                cont += q * np.zeros(2)
        target += p * (game.reward(0, a) + game.gamma * cont)
    np.testing.assert_array_equal(values.get(0), target)


def test_nashv_hand_convex_combination():
    mp = make_builtin_game("matching_pennies")
    game = make_repeated_markov(mp, horizon=1, discount=1.0)
    values = ValueTable.zeros(game)
    values.values[0] = np.array([0.2, 0.8])
    # force a deterministic joint action with expected reward (1, -1)
    sigma = [np.array([1.0, 0.0]), np.array([1.0, 0.0])]
    nashv_update(values, 0, sigma, build_stage_game(game, 0, values), alpha=0.5)
    np.testing.assert_allclose(values.get(0), [0.6, -0.1], atol=1e-12)


def test_nashv_contraction_identity():
    game = small_fixture()
    rng = np.random.default_rng(5)
    for _ in range(10):
        values = ValueTable.zeros(game)
        values.values[0] = rng.normal(size=2)
        sigma = [rng.dirichlet(np.ones(2)) for _ in range(2)]
        alpha = float(rng.uniform(0.0, 1.0))
        check = values.copy()
        stage = build_stage_game(game, 0, values)
        nashv_update(check, 0, sigma, stage, alpha=1.0)
        target = check.get(0)
        old = values.get(0).copy()
        nashv_update(values, 0, sigma, stage, alpha=alpha)
        np.testing.assert_allclose(values.get(0) - target,
                                   (1 - alpha) * (old - target), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 3), st.integers(1, 3))
def test_stage_and_nashv_match_scalar_reference(seed, players, actions):
    """Both array paths equal the per-joint-action loops exactly, sigma with
    zero entries included."""
    game = make_random_markov(seed=seed, state_count=9, player_count=players,
                              actions_per_player=actions, horizon=3, gamma=0.9)
    rng = np.random.default_rng(seed)
    values = ValueTable({s: rng.normal(size=players) for s in range(9)})
    for s in range(game.state_count):
        stage = build_stage_game(game, s, values)
        sigma = [rng.dirichlet(np.ones(actions)) for _ in range(players)]
        sigma[0][rng.integers(actions)] = 0.0
        target = np.zeros(players)
        for a in game.joint_actions(s):
            cont = np.zeros(players)
            for s2, q in game.successors(s, a):
                if s2 != -1:
                    cont += q * values.get(s2)
            total = game.reward(s, a) + game.gamma * cont
            for i in range(players):
                assert stage.payoffs[i][a] == total[i]
            p = 1.0
            for i, ai in enumerate(a):
                p *= sigma[i][ai]
            if p != 0.0:
                target += p * total
        check = values.copy()
        nashv_update(check, s, sigma, stage, alpha=1.0)
        np.testing.assert_array_equal(check.get(s), target)


# ---------------------------------------------------------------- search

def test_search_state_all_anchored_bypasses_learning():
    game = small_fixture()
    stage = build_stage_game(game, 0, ValueTable.zeros(game))
    anchors = [np.array([0.7, 0.3]), np.array([0.4, 0.6])]
    types = (TypeDistribution.singleton(INF), TypeDistribution.singleton(INF))
    sigma = search_state(stage, anchors, types, iterations=16)
    np.testing.assert_array_equal(sigma[0], anchors[0])
    np.testing.assert_array_equal(sigma[1], anchors[1])


def test_search_state_approximates_stage_equilibrium():
    game = small_fixture()
    stage = build_stage_game(game, 0, ValueTable.zeros(game))
    anchors = [uniform_policy(2), uniform_policy(2)]
    types = (TypeDistribution.singleton(0.5),) * 2
    sigma = search_state(stage, anchors, types, iterations=512)
    prof = solve_regularized_bne(stage, anchors, types)
    for i in range(2):
        np.testing.assert_allclose(sigma[i], prof.mixture(i), atol=0.05)


def test_best_response_mode_type_assignment():
    cfg = singleton_config(mode="best_response", distinguished_player=1,
                           types=())
    types = _search_types(cfg, 2)
    assert types[0].lambdas == (INF,)
    assert types[1].lambdas == (0.0,)


# --------------------------------------------------------------- episodes

def test_run_episode_visits_initial_state_and_updates():
    game = small_fixture()
    values = ValueTable.zeros(game)
    anchors = uniform_anchors(game)
    table = PolicyTable.from_anchors(anchors)
    cfg = singleton_config()
    rec = run_episode(game, values, table, anchors, cfg,
                      np.random.default_rng(0))
    assert rec.states[0] == game.initial_state
    assert len(rec.states) <= game.horizon
    assert np.any(values.get(0) != 0.0)


def test_full_exploration_uniform_frequencies():
    game = small_fixture()
    anchors = uniform_anchors(game)
    cfg = singleton_config(nash_explore=1.0, search_iterations=4)
    values = ValueTable.zeros(game)
    table = PolicyTable.from_anchors(anchors)
    rng = np.random.default_rng(1)
    counts = np.zeros(2)
    n = 0
    for _ in range(1500):
        rec = run_episode(game, values, table, anchors, cfg, rng)
        for joint in rec.actions:
            counts[joint[0]] += 1
            n += 1
    freq = counts[0] / n
    sigma = np.sqrt(0.25 / n)
    assert abs(freq - 0.5) <= 3 * sigma


def test_best_response_mode_opponents_play_anchor():
    game = small_fixture()
    anchors = {
        (s, i): np.array([0.8, 0.2]) if i == 1 else uniform_policy(2)
        for s in range(game.state_count) for i in range(2)
    }
    cfg = singleton_config(mode="best_response", distinguished_player=0,
                           types=())
    values = ValueTable.zeros(game)
    table = PolicyTable.from_anchors(anchors)
    rec = run_episode(game, values, table, anchors, cfg,
                      np.random.default_rng(2))
    for s, sigmas in zip(rec.states, rec.sigmas):
        np.testing.assert_array_equal(sigmas[1], anchors[(s, 1)])


def test_episode_determinism():
    game = small_fixture()
    anchors = uniform_anchors(game)

    def run():
        cfg = singleton_config(search_iterations=32)
        values = ValueTable.zeros(game)
        table = PolicyTable.from_anchors(anchors)
        rng = np.random.default_rng(7)
        recs = [run_episode(game, values, table, anchors, cfg, rng)
                for _ in range(5)]
        return [(r.states, r.actions) for r in recs], values

    a, va = run()
    b, vb = run()
    assert a == b
    for s in range(game.state_count):
        np.testing.assert_array_equal(va.get(s), vb.get(s))


def test_npu_keeps_proposal_frozen():
    game = make_random_markov(seed=23, state_count=3, player_count=2,
                              actions_per_player=4, horizon=2, gamma=1.0,
                              zero_sum=True)
    anchors = uniform_anchors(game)
    cfg = singleton_config(mode="NPU", top_k=2, episodes=15,
                           search_iterations=32)
    values = ValueTable.zeros(game)
    table = PolicyTable.from_anchors(anchors)
    proposal = table.copy()
    frozen = {k: v.copy() for k, v in proposal.policies.items()}
    rng = np.random.default_rng(3)
    for _ in range(15):
        run_episode(game, values, table, anchors, cfg, rng,
                    proposal_table=proposal)
    for k in frozen:
        np.testing.assert_array_equal(proposal.policies[k], frozen[k])
    # the trained table did move
    assert any(np.max(np.abs(table.policies[k] - frozen[k])) > 1e-12
               for k in frozen)


# ---------------------------------------------------------------- training

def test_train_zero_sum_value_symmetry():
    game = small_fixture()
    cfg = singleton_config(episodes=30)
    values, table, metrics = train(game, uniform_anchors(game), cfg)
    for s in range(game.state_count):
        v = values.get(s)
        assert abs(v[0] + v[1]) <= 1e-9


def test_train_metrics_deterministic():
    game = small_fixture()
    anchors = uniform_anchors(game)
    oracle_values, oracle_profiles = solve_markov_backward(
        game, anchors, (0.5, 0.5))
    cfg = singleton_config(episodes=20, checkpoint_every=5)
    m1 = train(game, anchors, cfg, oracle_values, oracle_profiles)[2]
    m2 = train(game, anchors, cfg, oracle_values, oracle_profiles)[2]
    assert m1 == m2


def test_train_values_within_analytic_bound():
    game = make_random_markov(seed=29, state_count=4, player_count=2,
                              actions_per_player=2, horizon=3, gamma=1.0,
                              zero_sum=True)
    cfg = singleton_config(episodes=40)
    values, _, _ = train(game, uniform_anchors(game), cfg)
    bound = game.max_return() + 1e-9
    for s in range(game.state_count):
        assert np.max(np.abs(values.get(s))) <= bound


def test_train_horizon_one_converges_to_stage_equilibrium_value():
    mp = make_builtin_game("random_zero_sum", {"seed": 41, "actions": (2, 2)})
    game = make_repeated_markov(mp, horizon=1, discount=1.0)
    anchors = uniform_anchors(game)
    types = (TypeDistribution.singleton(0.3),) * 2
    cfg = singleton_config(types=types, episodes=200, alpha_harmonic=True,
                           search_iterations=256)
    values, _, _ = train(game, anchors, cfg)
    prof = solve_regularized_bne(mp, [uniform_policy(2)] * 2, types)
    mix = [prof.mixture(0), prof.mixture(1)]
    v_star = float(mp.utility_vector(0, mix) @ mix[0])
    assert values.get(0)[0] == pytest.approx(v_star, abs=0.01)


# -------------------------------------------------------------- evaluation

def test_evaluate_vs_oracle_zero_errors_at_oracle():
    game = small_fixture()
    anchors = uniform_anchors(game)
    oracle_values, oracle_profiles = solve_markov_backward(
        game, anchors, (0.5, 0.5))
    values = ValueTable({s: v.copy() for s, v in oracle_values.items()})
    table = PolicyTable.from_anchors(anchors)
    for s, prof in oracle_profiles.items():
        for i in range(2):
            table.policies[(s, i)] = prof.policies[i][0.5].copy()
    out = evaluate_vs_oracle(game, values, table, anchors, oracle_values,
                             oracle_profiles)
    assert out["max_value_error"] == pytest.approx(0.0, abs=1e-12)
    assert out["mean_policy_kl"] == pytest.approx(0.0, abs=1e-10)
    assert out["mean_exploitability"] == pytest.approx(0.0, abs=1e-8)


def test_evaluate_vs_oracle_zero_table_error_magnitude():
    game = small_fixture()
    anchors = uniform_anchors(game)
    oracle_values, _ = solve_markov_backward(game, anchors, (0.5, 0.5))
    out = evaluate_vs_oracle(game, ValueTable.zeros(game),
                             PolicyTable.from_anchors(anchors), anchors,
                             oracle_values)
    expect = max(float(np.max(np.abs(v))) for v in oracle_values.values())
    assert out["max_value_error"] == pytest.approx(expect, abs=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        singleton_config(nash_explore=1.5)
    with pytest.raises(ValueError):
        singleton_config(search_iterations=0)
    with pytest.raises(ValueError):
        singleton_config(mode="offline")


@pytest.mark.parametrize("field, value", [
    ("distinguished_player", 2),
    ("distinguished_player", -1),
    ("policy_step", 0.0),
    ("policy_step", 1.5),
    ("policy_step", float("nan")),
    ("episodes", 0),
    ("checkpoint_every", 0),
    ("alpha", -0.5),
    ("alpha", 1.5),
    ("alpha", float("nan")),
])
def test_config_rejects_out_of_range(field, value):
    with pytest.raises(ValueError):
        singleton_config(**{field: value})
