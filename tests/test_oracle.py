"""Tests for the exact equilibrium / regret reference computations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anchored import (
    INF,
    Learners,
    RegularizedProfile,
    TemperatureSchedule,
    TypeDistribution,
    kl_divergence,
    last_iterate_distance,
    make_builtin_game,
    make_random_markov,
    make_repeated_markov,
    regret_bound,
    regularized_exploitability,
    regularized_regret,
    run_selfplay,
    sbr_value,
    smooth_best_response,
    solve_markov_backward,
    solve_regularized_bne,
    unregularized_exploitability,
    uniform_policy,
)
from anchored.oracle import (evaluate_markov_profile, stage_game_from_values,
                             uniform_anchors)

from test_oracle_kernel import reference_bne


# ------------------------------------------------------------------- KL

def test_kl_identity():
    assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == pytest.approx(0.0, abs=1e-15)


def test_kl_hand_values():
    assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2),
                                                                  abs=1e-12)
    v = 0.5 * math.log(0.5 / 0.8) + 0.5 * math.log(0.5 / 0.2)
    assert kl_divergence([0.5, 0.5], [0.8, 0.2]) == pytest.approx(v, abs=1e-12)
    assert v == pytest.approx(0.223144, abs=1e-6)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(5e-324, 1.0)),
                min_size=1, max_size=6))
def test_kl_keeps_every_finite_value_and_takes_logs_apart_past_it(pairs):
    """Where p / q is finite the sum is the plain formula's, bit for bit;
    where it overflows (q subnormal) the term is p (log p - log q)."""
    p, q = (np.array(x) for x in zip(*pairs))
    with np.errstate(over="ignore"):
        ratio = p / q
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(ratio), 0.0)
    far = np.isinf(ratio) & (p > 0)
    terms[far] = p[far] * (np.log(p[far]) - np.log(q[far]))
    got = kl_divergence(p, q)
    assert math.isfinite(got)
    if not far.any():
        assert got == float(np.sum(p[p > 0] * np.log(p[p > 0] / q[p > 0])))
    assert got == float(np.sum(terms[p > 0]))


def test_kl_of_a_sunk_policy_entry_is_finite():
    """A policy-table entry that long top-k training sinks to 5e-324."""
    got = kl_divergence([0.4, 0.6], [1.0, 5e-324])
    assert got == 0.4 * math.log(0.4) + 0.6 * (math.log(0.6) - math.log(5e-324))


def test_kl_rejects_absolute_discontinuity():
    with pytest.raises(ValueError):
        kl_divergence([0.5, 0.5], [1.0, 0.0])
    with pytest.raises(ValueError):
        kl_divergence([0.5, 0.5], [1.0, 0.0, 0.0])


# ---------------------------------------------------- smooth best response

def test_sbr_constant_utility_returns_anchor():
    tau = np.array([0.6, 0.3, 0.1])
    np.testing.assert_allclose(smooth_best_response([2.0, 2.0, 2.0], tau, 0.7),
                               tau, atol=1e-12)


def test_sbr_hand_value():
    p = smooth_best_response([1.0, 0.0], uniform_policy(2), 1.0)
    assert p[0] == pytest.approx(math.e / (math.e + 1), abs=1e-12)
    assert p[0] == pytest.approx(0.731059, abs=1e-6)


def test_sbr_best_response_limit():
    p = smooth_best_response([1.0, 0.0], uniform_policy(2), 1e-9)
    np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-6)


def test_sbr_rejects_nonpositive_lambda():
    with pytest.raises(ValueError):
        smooth_best_response([1.0, 0.0], uniform_policy(2), 0.0)
    with pytest.raises(ValueError):
        sbr_value([1.0, 0.0], uniform_policy(2), -1.0)


def test_sbr_value_constant_shift():
    assert sbr_value([0.3, 0.3], uniform_policy(2), 0.5) == pytest.approx(
        0.3, abs=1e-12)


def test_sbr_value_hand_value():
    v = sbr_value([1.0, 0.0], uniform_policy(2), 1.0)
    assert v == pytest.approx(math.log((math.e + 1) / 2), abs=1e-12)
    assert v == pytest.approx(0.620115, abs=1e-6)


def test_sbr_value_anchor_limit():
    tau = np.array([0.7, 0.3])
    u = np.array([1.0, -1.0])
    assert sbr_value(u, tau, 1e9) == pytest.approx(float(u @ tau), abs=1e-6)


def test_sbr_value_consistent_with_sbr_policy():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        u = rng.normal(size=n)
        tau = rng.dirichlet(np.ones(n))
        tau = np.maximum(tau, 1e-9)
        tau /= tau.sum()
        lam = float(rng.uniform(0.05, 5.0))
        x = smooth_best_response(u, tau, lam)
        val = float(u @ x) - lam * kl_divergence(x, tau)
        assert sbr_value(u, tau, lam) == pytest.approx(val, abs=1e-10)


def test_sbr_value_dominates_all_policies():
    rng = np.random.default_rng(1)
    u = rng.normal(size=4)
    tau = np.array([0.4, 0.3, 0.2, 0.1])
    lam = 0.3
    v = sbr_value(u, tau, lam)
    for _ in range(1000):
        x = rng.dirichlet(np.ones(4))
        assert v + 1e-10 >= float(u @ x) - lam * kl_divergence(x, tau)


def test_sbr_continuous_in_lambda():
    rng = np.random.default_rng(2)
    u = rng.normal(size=3)
    tau = np.array([0.5, 0.3, 0.2])
    for lam in (0.01, 0.1, 1.0, 10.0):
        a = smooth_best_response(u, tau, lam)
        b = smooth_best_response(u, tau, lam * (1 + 1e-9))
        np.testing.assert_allclose(a, b, atol=1e-6)


# ------------------------------------------------------------- BNE solver

def test_bne_symmetric_fixed_point():
    game = make_builtin_game("matching_pennies")
    types = (TypeDistribution.singleton(0.3),) * 2
    prof = solve_regularized_bne(game, [uniform_policy(2)] * 2, types)
    assert prof.converged
    for i in range(2):
        np.testing.assert_allclose(prof.policies[i][0.3], [0.5, 0.5], atol=1e-9)


def test_bne_exploitability_postcondition():
    game = make_builtin_game("matching_pennies")
    anchors = [np.array([0.7, 0.3]), np.array([0.5, 0.5])]
    types = (TypeDistribution.singleton(1.0),) * 2
    prof = solve_regularized_bne(game, anchors, types, tol=1e-10)
    assert prof.converged
    assert regularized_exploitability(game, anchors, prof) < 1e-8


def test_bne_anchor_limit():
    game = make_builtin_game("matching_pennies")
    anchors = [np.array([0.7, 0.3]), np.array([0.6, 0.4])]
    types = (TypeDistribution.singleton(1e9),) * 2
    prof = solve_regularized_bne(game, anchors, types, tol=1e-12)
    for i in range(2):
        np.testing.assert_allclose(prof.policies[i][1e9], anchors[i], atol=1e-6)


def test_bne_init_invariance():
    """The Newton solve, started at anchor play, lands where the damped
    reference iteration started at uniform play does."""
    game = make_builtin_game("random_zero_sum", {"seed": 2, "actions": (3, 3)})
    anchors = [np.array([0.5, 0.3, 0.2]), uniform_policy(3)]
    types = (TypeDistribution.uniform([0.1, 1.0]),) * 2
    a = solve_regularized_bne(game, anchors, types, tol=1e-10)
    b = reference_bne(game, anchors, types, tol=1e-10, init="uniform")
    assert a.converged and b.converged
    for i in range(2):
        for lam in (0.1, 1.0):
            np.testing.assert_allclose(a.policies[i][lam], b.policies[i][lam],
                                       atol=1e-9)


def test_bne_mixture_consistency():
    game = make_builtin_game("random_zero_sum", {"seed": 6, "actions": (3, 3)})
    types = (TypeDistribution.uniform([0.2, 0.8]),) * 2
    prof = solve_regularized_bne(game, [uniform_policy(3)] * 2, types)
    for i in range(2):
        mix = 0.5 * prof.policies[i][0.2] + 0.5 * prof.policies[i][0.8]
        np.testing.assert_allclose(prof.mixture(i), mix, atol=1e-12)


def test_bne_requires_two_player_zero_sum():
    g = make_builtin_game("random_general_sum", {"seed": 1, "actions": (2, 2)})
    with pytest.raises(ValueError):
        solve_regularized_bne(g, [uniform_policy(2)] * 2,
                              (TypeDistribution.singleton(0.1),) * 2)
    mp = make_builtin_game("matching_pennies")
    with pytest.raises(ValueError):
        solve_regularized_bne(mp, [uniform_policy(2)] * 2,
                              (TypeDistribution.singleton(0.0),) * 2)


def _grid_search_bne_2x2(game, anchors, lams, res=1e-5):
    """Independent saddle-point grid search for 2-action singleton types.

    The equilibrium x* maximizes min_y [x'Ay + lam2*KL(y||tau2)] -
    lam1*KL(x||tau1); the inner optimum is available in closed form, so a
    1-D grid over x suffices (and symmetrically for y)."""
    A = game.payoffs[0]
    tau1, tau2 = anchors
    lam1, lam2 = lams
    p = np.arange(0.0, 1.0 + res / 2, res)
    x = np.stack([p, 1 - p], axis=1)

    def xlogx(v, ref):
        return np.where(v > 0, v * np.log(np.maximum(v, 1e-300) / ref), 0.0)

    # inner min over y in closed form: -sbr_value(-x'A, tau2, lam2)
    xa = x @ A
    inner = -lam2 * np.log(np.exp((-xa) / lam2) @ tau2)
    kl1 = xlogx(x[:, 0], tau1[0]) + xlogx(x[:, 1], tau1[1])
    vx = inner - lam1 * kl1
    best_x = x[int(np.argmax(vx))]

    y = x
    ay = (A @ y.T).T
    outer = lam1 * np.log(np.exp(ay / lam1) @ tau1)
    kl2 = xlogx(y[:, 0], tau2[0]) + xlogx(y[:, 1], tau2[1])
    wy = outer + lam2 * kl2
    best_y = y[int(np.argmin(wy))]
    return best_x, best_y


def test_bne_matches_independent_grid_search():
    game = make_builtin_game("matching_pennies")
    anchors = [np.array([0.7, 0.3]), np.array([0.5, 0.5])]
    types = (TypeDistribution.singleton(1.0), TypeDistribution.singleton(1.0))
    prof = solve_regularized_bne(game, anchors, types, tol=1e-10)
    gx, gy = _grid_search_bne_2x2(game, anchors, (1.0, 1.0))
    np.testing.assert_allclose(prof.policies[0][1.0], gx, atol=1e-4)
    np.testing.assert_allclose(prof.policies[1][1.0], gy, atol=1e-4)


def test_regularized_exploitability_zero_at_exact_equilibrium():
    game = make_builtin_game("matching_pennies")
    types = (TypeDistribution.singleton(1.0),) * 2
    prof = RegularizedProfile(
        policies=({1.0: uniform_policy(2)}, {1.0: uniform_policy(2)}),
        types=types,
    )
    gap = regularized_exploitability(game, [uniform_policy(2)] * 2, prof)
    assert gap == pytest.approx(0.0, abs=1e-12)


def test_regularized_exploitability_at_the_lambda_ends():
    """lambda = inf at the anchor gave NaN (inf times a zero KL), and
    lambda = 0 raised "lam must be > 0"; lambda = 0 is the unregularized
    best-response gain."""
    game = make_builtin_game("matching_pennies")
    anchors = [np.array([0.7, 0.3]), uniform_policy(2)]
    inf_types = (TypeDistribution.singleton(INF),) * 2
    at_anchor = RegularizedProfile(({INF: anchors[0]}, {INF: anchors[1]}), inf_types)
    assert regularized_exploitability(game, anchors, at_anchor) == 0.0
    off = RegularizedProfile(({INF: uniform_policy(2)}, {INF: anchors[1]}), inf_types)
    assert regularized_exploitability(game, anchors, off) == INF
    zero_types = (TypeDistribution.singleton(0.0),) * 2
    policies = [np.array([1.0, 0.0]), np.array([0.4, 0.6])]
    prof = RegularizedProfile(({0.0: policies[0]}, {0.0: policies[1]}), zero_types)
    gap = regularized_exploitability(game, anchors, prof)
    assert gap == unregularized_exploitability(game, policies) == pytest.approx(1.2)


def test_unregularized_exploitability_values():
    game = make_builtin_game("matching_pennies")
    assert unregularized_exploitability(
        game, [uniform_policy(2), uniform_policy(2)]) == pytest.approx(0.0,
                                                                       abs=1e-12)
    val = unregularized_exploitability(
        game, [np.array([1.0, 0.0]), uniform_policy(2)])
    assert val == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------ regret bound

def test_bound_hand_value():
    b = regret_bound(2.0, 100, eta=0.5, lam=0.1, anchor=uniform_policy(2))
    assert b == pytest.approx(50 + math.log(2) / 0.5, abs=1e-9)
    assert b == pytest.approx(51.386294, abs=1e-6)


def test_bound_uniform_anchor_rho_zero():
    b = regret_bound(1.0, 10, eta=1.0, lam=0.5, anchor=uniform_policy(3))
    expect = 0.25 * min(2 * math.log(10) / 0.5, 10.0) + math.log(3)
    assert b == pytest.approx(expect, abs=1e-12)


def test_bound_large_lambda_limit():
    b = regret_bound(1.0, 100, eta=0.5, lam=1e9, anchor=uniform_policy(2))
    assert b == pytest.approx(math.log(2) / 0.5, abs=1e-6)


def test_bound_invalid_parameters():
    with pytest.raises(ValueError):
        regret_bound(1.0, 0, eta=0.5, lam=0.1, anchor=uniform_policy(2))
    with pytest.raises(ValueError):
        regret_bound(1.0, 10, eta=0.0, lam=0.1, anchor=uniform_policy(2))


# --------------------------------------------------------------- regret

def _selfplay_trace(seed, iterations=500, lam=0.1):
    game = make_builtin_game("random_zero_sum", {"seed": seed, "actions": (3, 3)})
    types = TypeDistribution.singleton(lam)
    sched = TemperatureSchedule(mode="constant_eta", eta=0.5)
    learners = Learners([uniform_policy(3)] * 2, [types] * 2, sched)
    rng = np.random.default_rng(seed + 100)
    trace = run_selfplay(game, learners, iterations, rng=rng)
    return game, learners, trace


def test_regret_below_bound_on_sampled_runs():
    for seed in range(3):
        game, learners, trace = _selfplay_trace(seed)
        for i in range(2):
            rep = regularized_regret(trace, i, 0.1, learners.anchors[i],
                                     payoff_bound=1.0, eta=0.5)
            assert rep.regret <= rep.bound
            assert rep.rho_kl == pytest.approx(0.0, abs=1e-15)


def test_regret_rho_sign_convention():
    game, learners, trace = _selfplay_trace(4)
    tau = np.array([0.6, 0.3, 0.1])
    rep = regularized_regret(trace, 0, 0.1, tau)
    assert rep.rho_kl >= 0
    # the signed form is the negation of the KL form for non-uniform anchors
    assert rep.rho_signed == pytest.approx(-rep.rho_kl, abs=1e-12)


def test_regret_symmetric_single_step_zero():
    game = make_builtin_game("matching_pennies")
    types = TypeDistribution.singleton(0.1)
    sched = TemperatureSchedule(mode="constant_eta", eta=0.5)
    learners = Learners([uniform_policy(2)] * 2, [types] * 2, sched)
    trace = run_selfplay(game, learners, 1)
    rep = regularized_regret(trace, 0, 0.1, uniform_policy(2))
    assert rep.regret == pytest.approx(0.0, abs=1e-12)


def test_regret_empty_trace_rejected():
    game, learners, trace = _selfplay_trace(5, iterations=10)
    with pytest.raises(ValueError):
        regularized_regret(trace, 0, 0.1, learners.anchors[0], iterations=0)


# ------------------------------------------------ last-iterate distance

def test_distance_zero_at_equilibrium():
    game = make_builtin_game("matching_pennies")
    types = (TypeDistribution.singleton(0.1),) * 2
    prof = solve_regularized_bne(game, [uniform_policy(2)] * 2, types)
    current = [dict(prof.policies[0]), dict(prof.policies[1])]
    assert last_iterate_distance(current, prof, 0.2) == pytest.approx(
        0.0, abs=1e-12)


def test_distance_reduces_to_scaled_kl():
    game = make_builtin_game("matching_pennies")
    anchors = [np.array([0.7, 0.3]), np.array([0.5, 0.5])]
    types = (TypeDistribution.singleton(0.1),) * 2
    prof = solve_regularized_bne(game, anchors, types)
    current = [{0.1: np.array([0.5, 0.5])}, {0.1: np.array([0.4, 0.6])}]
    expect = sum(
        0.1 * kl_divergence(prof.policies[i][0.1], current[i][0.1])
        for i in range(2)
    )
    assert last_iterate_distance(current, prof, 0.0) == pytest.approx(
        expect, abs=1e-12)


def test_distance_missing_type_rejected():
    game = make_builtin_game("matching_pennies")
    types = (TypeDistribution.singleton(0.1),) * 2
    prof = solve_regularized_bne(game, [uniform_policy(2)] * 2, types)
    with pytest.raises(ValueError):
        last_iterate_distance([{}, {}], prof, 0.0)


# ----------------------------------------------------- Markov backward

def test_markov_backward_symmetric_game_is_zero():
    mp = make_builtin_game("matching_pennies")
    game = make_repeated_markov(mp, horizon=1, discount=1.0)
    values, profiles = solve_markov_backward(game, uniform_anchors(game),
                                             (0.5, 0.5))
    np.testing.assert_allclose(values[0], [0.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(profiles[0].mixture(0), [0.5, 0.5], atol=1e-8)


def test_markov_backward_anchor_limit_matches_rollout_enumeration():
    game = make_random_markov(seed=31, state_count=4, player_count=2,
                              actions_per_player=2, horizon=3, gamma=0.9,
                              zero_sum=True)
    anchors = np.array([[[0.7, 0.3], [0.4, 0.6]]] * game.state_count)
    values, _ = solve_markov_backward(game, anchors, (1e9, 1e9))

    # independent oracle: exhaustive expectation over all depth-3 histories
    def rollout(s, depth, disc):
        if s == -1 or depth == game.horizon:
            return np.zeros(2)
        total = np.zeros(2)
        for a in game.joint_actions(s):
            pa = anchors[(s, 0)][a[0]] * anchors[(s, 1)][a[1]]
            inner = game.reward(s, a).astype(float).copy()
            for s2, p in game.successors(s, a):
                inner = inner + p * game.gamma * rollout(s2, depth + 1, disc)
            total += pa * inner
        return total

    for s in range(game.state_count):
        np.testing.assert_allclose(values[s], rollout(s, 0, 1.0), atol=1e-6)


def test_markov_backward_requires_zero_sum():
    game = make_random_markov(seed=1, state_count=3, player_count=2,
                              actions_per_player=2, horizon=2, gamma=1.0,
                              zero_sum=False)
    with pytest.raises(ValueError):
        solve_markov_backward(game, uniform_anchors(game), (0.5, 0.5))


def test_stage_game_from_values_substitution():
    game = make_random_markov(seed=3, state_count=3, player_count=2,
                              actions_per_player=2, horizon=2, gamma=1.0,
                              zero_sum=True)
    values = {s: np.zeros(2) for s in range(3)}
    values[1] = np.array([0.6, -0.6])
    values[2] = np.array([-0.2, 0.2])
    stage = stage_game_from_values(game, 0, values)
    for a in game.joint_actions(0):
        cont = np.zeros(2)
        for s2, p in game.successors(0, a):
            if s2 != -1:
                cont += p * values[s2]
        expect = game.reward(0, a) + cont
        assert stage.payoffs[0][a] == expect[0]


def test_evaluate_markov_profile_matches_backward_at_anchor_limit():
    game = make_random_markov(seed=17, state_count=4, player_count=2,
                              actions_per_player=3, horizon=3, gamma=1.0,
                              zero_sum=True)
    anchors = uniform_anchors(game)
    values, _ = solve_markov_backward(game, anchors, (1e9, 1e9))
    direct = evaluate_markov_profile(game, anchors)
    for s in range(game.state_count):
        np.testing.assert_allclose(values[s], direct[s], atol=1e-6)
