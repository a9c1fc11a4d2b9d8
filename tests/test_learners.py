"""Tests for the anchored no-regret learners and their reductions."""

import math

import numpy as np
import pytest

from anchored import (
    INF,
    Learners,
    NormalFormGame,
    TemperatureSchedule,
    TypeDistribution,
    make_builtin_game,
    policy_for_type,
    run_selfplay,
    uniform_policy,
)
from anchored.cli import emit_trace
from anchored.learners import UtilityStats
from helpers import read_trace_jsonl


# ---------------------------------------------------------------- types

def test_type_distribution_validation():
    with pytest.raises(ValueError):
        TypeDistribution((0.1, 0.1), (0.5, 0.5))       # duplicates
    with pytest.raises(ValueError):
        TypeDistribution((0.2, 0.1), (0.5, 0.5))       # not sorted
    with pytest.raises(ValueError):
        TypeDistribution((0.1,), (0.5,))               # weights != 1
    with pytest.raises(ValueError):
        TypeDistribution((-1.0,), (1.0,))


def test_type_weights_raise_what_choice_raised():
    # A NaN weight passes the sum check (NaN > 1e-12 is false); the weights'
    # cdf raises the error `Generator.choice` raised at the first sample.
    with pytest.raises(ValueError, match="^Probabilities contain NaN$"):
        TypeDistribution((0.1, 0.5), (float("nan"), 0.5))


def test_uniform_type_distribution():
    td = TypeDistribution.uniform([1e-1, 1e-4])
    assert td.lambdas == (1e-4, 1e-1)
    assert td.weights == (0.5, 0.5)


# ------------------------------------------------------------ schedules

def test_kappa_constant_eta():
    sched = TemperatureSchedule(mode="constant_eta", eta=0.5)
    assert sched.kappas(4, [UtilityStats()]) == pytest.approx([0.5])
    assert sched.kappas(1, [UtilityStats()]) == pytest.approx([2.0])


def test_kappa_inverse_sqrt():
    sched = TemperatureSchedule(mode="inverse_sqrt")
    assert sched.kappas(9, [UtilityStats()]) == pytest.approx([1.0 / 3.0])


def test_kappa_adaptive_std():
    sched = TemperatureSchedule()
    stats = UtilityStats()
    for x in (0.0, 2.0):   # sample std = sqrt(2)
        stats.add(x)
    expected = 3.0 * math.sqrt(2.0) / (10.0 * 3.0)
    assert sched.kappas(9, [stats]) == pytest.approx([expected])


def test_kappa_adaptive_examples():
    sched = TemperatureSchedule()
    stats = UtilityStats()
    # std exactly 1: samples (0, 2) have std sqrt(2); use (-1, 1) for std sqrt(2)
    for x in (0.5 - 0.5, 0.5 + 0.5, 0.5):   # (0, 1, 0.5): std 0.25? compute directly
        stats.add(x)
    # direct cross-check against numpy's sample std
    assert stats.std() == pytest.approx(np.std([0.0, 1.0, 0.5], ddof=1), abs=1e-12)


def test_kappa_adaptive_floor_on_degenerate_input():
    sched = TemperatureSchedule()
    stats = UtilityStats()
    stats.add(1.0)
    stats.add(1.0)   # zero variance
    assert sched.kappas(5, [stats]) == pytest.approx([1e-6])
    # fewer than 2 samples: schedule undefined, floor engaged
    assert sched.kappas(1, [UtilityStats()]) == pytest.approx([1e-6])


def test_schedule_validation():
    with pytest.raises(ValueError):
        TemperatureSchedule(mode="constant_eta")       # missing eta
    with pytest.raises(ValueError):
        TemperatureSchedule(mode="warp_drive")
    sched = TemperatureSchedule(mode="inverse_sqrt")
    with pytest.raises(ValueError):
        sched.kappas(0, [UtilityStats()])


def test_schedule_rejects_nan_eta():
    with pytest.raises(ValueError):
        TemperatureSchedule(mode="constant_eta", eta=float("nan"))
    TemperatureSchedule(mode="constant_eta", eta=float("inf"))   # kappa == 0


def test_default_schedule_is_adaptive_and_only_constant_eta_takes_eta():
    assert TemperatureSchedule() == TemperatureSchedule(mode="adaptive_std")
    for mode in ("inverse_sqrt", "adaptive_std"):
        with pytest.raises(ValueError, match=f"takes eta, not {mode}$"):
            TemperatureSchedule(mode=mode, eta=0.5)


def test_type_mixture_sums_in_support_order():
    td = TypeDistribution((0.1, 0.5, 2.0), (0.2, 0.3, 0.5))
    pols = [np.array([0.1, 0.9]), np.array([0.6, 0.4]), np.array([1 / 3, 2 / 3])]
    expect = np.zeros(2)
    for w, p in zip(td.weights, pols):
        expect += w * p
    np.testing.assert_array_equal(td.mixture(pols), expect)


def test_welford_matches_numpy():
    rng = np.random.default_rng(4)
    xs = rng.normal(size=50)
    stats = UtilityStats()
    for x in xs:
        stats.add(float(x))
    assert stats.std() == pytest.approx(float(np.std(xs, ddof=1)), abs=1e-12)


# ------------------------------------------------------- policy formula

def test_policy_symmetric_inputs_uniform():
    p = policy_for_type(np.zeros(2), uniform_policy(2), lam=0.3, kappa=0.7)
    np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-12)


def test_policy_hand_value_anchored():
    # Q=(1,0), tau=(0.5,0.5), kappa=1, lam=1: logit gap is 0.5
    p = policy_for_type(np.array([1.0, 0.0]), np.array([0.5, 0.5]), 1.0, 1.0)
    expect = 1.0 / (1.0 + math.exp(-0.5))
    np.testing.assert_allclose(p, [expect, 1 - expect], atol=1e-9)
    assert p[0] == pytest.approx(0.622459, abs=1e-6)


def test_policy_hand_value_hedge():
    p = policy_for_type(np.array([1.0, 0.0]), np.array([0.3, 0.7]), 0.0, 1.0)
    expect = math.e / (math.e + 1.0)
    assert p[0] == pytest.approx(expect, abs=1e-9)
    assert p[0] == pytest.approx(0.731059, abs=1e-6)


def test_policy_anchor_dominance():
    p = policy_for_type(np.array([1.0, 0.0]), np.array([0.8, 0.2]), 1e9, 1.0)
    np.testing.assert_allclose(p, [0.8, 0.2], atol=1e-6)
    p = policy_for_type(np.array([1.0, 0.0]), np.array([0.8, 0.2]), INF, 1.0)
    np.testing.assert_allclose(p, [0.8, 0.2], atol=0.0)


def test_policy_fictitious_play_tie_break():
    p = policy_for_type(np.array([1.0, 1.0, 0.0]), uniform_policy(3), 0.0, 0.0)
    np.testing.assert_allclose(p, [0.5, 0.5, 0.0], atol=1e-12)


def test_policy_monotone_anchor_pull():
    from anchored import kl_divergence
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        q = rng.normal(size=n)
        tau = rng.dirichlet(np.ones(n))
        tau = np.maximum(tau, 1e-6)
        tau /= tau.sum()
        kappa = float(rng.uniform(0.1, 2.0))
        kls = [kl_divergence(policy_for_type(q, tau, lam, kappa), tau)
               for lam in (0.0, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 100.0)]
        for a, b in zip(kls, kls[1:]):
            assert b <= a + 1e-10


def test_policy_numerical_stability_extreme_q():
    p = policy_for_type(np.array([1e6, -1e6]), uniform_policy(2), 0.0, 1.0)
    assert np.isfinite(p).all()
    np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-12)


# ------------------------------------------------------------- learners

def test_learners_initial_state():
    types = (TypeDistribution.singleton(0.1), TypeDistribution.uniform([0.1, INF]))
    ln = Learners([uniform_policy(2), uniform_policy(3)], types,
                  TemperatureSchedule(mode="inverse_sqrt"))
    assert ln.t == 0 and ln.action_counts == (2, 3) and ln.row_start == [0, 1, 3]
    np.testing.assert_array_equal(ln.q, np.zeros((2, 3)))
    np.testing.assert_array_equal(ln.avg, np.zeros((3, 3)))
    assert ln.kappas() == [1.0, 1.0]


@pytest.mark.parametrize("schedule, kappa", [
    (TemperatureSchedule(mode="constant_eta", eta=0.5), 2.0),
    (TemperatureSchedule(mode="inverse_sqrt"), 1.0),
    (TemperatureSchedule(), 1e-6),
])
def test_first_kappa_is_the_schedules_kappa_1(schedule, kappa):
    ln = Learners([uniform_policy(2)], [TypeDistribution.singleton(0.1)], schedule)
    assert ln.kappas() == [kappa] == schedule.kappas(1, ln.utility_stats)


def test_learners_reject_mismatched_lengths():
    types = TypeDistribution.singleton(0.1)
    sched = TemperatureSchedule()
    with pytest.raises(ValueError, match="one type distribution per anchor"):
        Learners([uniform_policy(2)] * 2, [types], sched)
    with pytest.raises(ValueError, match="one type distribution per anchor"):
        Learners([uniform_policy(2)], [types] * 2, sched)


def test_observe_running_average():
    # Player 0's utility vector is the column of player 1's sampled action.
    game = NormalFormGame((2, 2), (np.array([[0.5, 1.5], [-0.5, 0.5]]),
                                   np.zeros((2, 2))), payoff_bound=1.5)
    learners = Learners([uniform_policy(2)] * 2,
                        [TypeDistribution.singleton(0.1)] * 2,
                        TemperatureSchedule(mode="inverse_sqrt"))
    rng = np.random.default_rng(0)
    seen = []
    for _ in range(6):
        trace = run_selfplay(game, learners, 1, rng=rng)
        seen.append(game.payoffs[0][:, trace.actions[0, 1]])
        np.testing.assert_allclose(learners.q[0], np.mean(seen, axis=0), atol=1e-15)
    assert {tuple(u) for u in seen} == {(0.5, -0.5), (1.5, 0.5)}


def test_observe_constant_utilities():
    game = NormalFormGame((2, 1), (np.full((2, 1), 0.25), np.zeros((2, 1))),
                          payoff_bound=1.0)
    learners = Learners([uniform_policy(2), uniform_policy(1)],
                        [TypeDistribution.singleton(0.1)] * 2,
                        TemperatureSchedule(mode="inverse_sqrt"))
    run_selfplay(game, learners, 10, record=False)
    np.testing.assert_allclose(learners.q[0], [0.25, 0.25], atol=1e-14)


def test_act_policy_matches_support_point():
    game = make_builtin_game("matching_pennies")
    types = TypeDistribution.uniform([1e-4, 1e-1])
    sched = TemperatureSchedule()
    learners = Learners([np.array([0.6, 0.4])] * 2, [types] * 2, sched)
    run_selfplay(game, learners, 50, record=False)
    np.testing.assert_allclose(learners.policy(0, 1e-1), policy_for_type(
        learners.q[0], learners.anchors[0], 1e-1, learners.kappas()[0]), atol=0.0)
    np.testing.assert_allclose(learners.policy(0, INF), learners.anchors[0], atol=0.0)


def test_average_policy_after_one_iteration():
    game = make_builtin_game("matching_pennies")
    types = TypeDistribution.singleton(0.1)
    sched = TemperatureSchedule(mode="constant_eta", eta=0.5)
    learners = Learners([np.array([0.7, 0.3])] * 2, [types] * 2, sched)
    first = learners.policy(0, 0.1)
    with pytest.raises(ValueError, match="no iterations completed"):
        learners.average_policy(0, 0.1)
    run_selfplay(game, learners, 1, record=False)
    np.testing.assert_allclose(learners.average_policy(0, 0.1), first, atol=1e-15)


# ------------------------------------------------------------ reductions

def _manual_pikl_replay(trace, player, anchor, lam, schedule):
    """Independent iterate-for-iterate recomputation from trace utilities."""
    u = trace.utility_matrix(player)
    realized = np.array([row[player] for row in trace.realized])
    q = np.zeros(u.shape[1])
    stats = UtilityStats()
    policies = []
    for t in range(u.shape[0]):
        kappa = schedule.kappas(max(t, 1), [stats])[0]
        policies.append(policy_for_type(q, anchor, lam, kappa))
        q = q * t / (t + 1) + u[t] / (t + 1)
        stats.add(float(realized[t]))
    return np.stack(policies)


@pytest.mark.parametrize("mode", ["sampled", "expected"])
def test_singleton_reduces_to_anchored_hedge(mode):
    game = make_builtin_game("random_zero_sum", {"seed": 3, "actions": (3, 3)})
    anchor = np.array([0.5, 0.3, 0.2])
    types = TypeDistribution.singleton(0.5)
    sched = TemperatureSchedule(mode="constant_eta", eta=0.5)
    learners = Learners([anchor] * 2, [types] * 2, sched)
    rng = np.random.default_rng(12)
    trace = run_selfplay(game, learners, 200, rng=rng if mode == "sampled" else None)
    for i in range(2):
        manual = _manual_pikl_replay(trace, i, learners.anchors[i], 0.5, sched)
        np.testing.assert_allclose(trace.policy_matrix(i, 0.5), manual,
                                   atol=1e-12)


def test_lambda_zero_reduces_to_hedge():
    game = make_builtin_game("random_zero_sum", {"seed": 4, "actions": (3, 3)})
    types = TypeDistribution.singleton(0.0)
    sched = TemperatureSchedule(mode="constant_eta", eta=0.5)
    learners = Learners([uniform_policy(3)] * 2, [types] * 2, sched)
    rng = np.random.default_rng(13)
    trace = run_selfplay(game, learners, 200, rng=rng)
    for i in range(2):
        u = trace.utility_matrix(i)
        q = np.zeros(3)
        for t in range(200):
            kappa = 1.0 / (0.5 * max(t, 1))
            z = q / kappa
            z -= z.max()
            hedge = np.exp(z) / np.exp(z).sum()
            np.testing.assert_allclose(trace.policy_matrix(i, 0.0)[t], hedge,
                                       atol=1e-12)
            q = q * t / (t + 1) + u[t] / (t + 1)


def test_zero_kappa_lambda_reduces_to_fictitious_play():
    game = make_builtin_game("random_zero_sum", {"seed": 5, "actions": (3, 3)})
    types = TypeDistribution.singleton(0.0)
    sched = TemperatureSchedule(mode="constant_eta", eta=INF)   # kappa == 0
    learners = Learners([uniform_policy(3)] * 2, [types] * 2, sched)
    rng = np.random.default_rng(14)
    trace = run_selfplay(game, learners, 100, rng=rng)
    for i in range(2):
        u = trace.utility_matrix(i)
        q = np.zeros(3)
        for t in range(100):
            best = np.isclose(q, q.max(), rtol=0.0, atol=1e-12)
            fp = best / best.sum()
            np.testing.assert_allclose(trace.policy_matrix(i, 0.0)[t], fp,
                                       atol=1e-12)
            q = q * t / (t + 1) + u[t] / (t + 1)


# --------------------------------------------------------------- stepping

def test_sampled_deterministic_in_seed():
    game = make_builtin_game("rock_paper_scissors")
    types = TypeDistribution.uniform([1e-2, 1e-1])

    def run(seed):
        sched = TemperatureSchedule()
        learners = Learners([uniform_policy(3)] * 2, [types] * 2, sched)
        rng = np.random.default_rng(seed)
        return run_selfplay(game, learners, 100, rng=rng)

    a, b = run(99), run(99)
    np.testing.assert_array_equal(a.actions, b.actions)
    np.testing.assert_array_equal(a.sampled_lambdas, b.sampled_lambdas)


def test_expected_mode_bit_identical():
    game = make_builtin_game("rock_paper_scissors")
    types = TypeDistribution.singleton(0.1)

    def run():
        sched = TemperatureSchedule(mode="constant_eta", eta=0.5)
        learners = Learners([np.array([0.5, 0.25, 0.25])] * 2, [types] * 2, sched)
        return run_selfplay(game, learners, 50)

    a, b = run(), run()
    for i in range(2):
        np.testing.assert_array_equal(a.policy_matrix(i, 0.1),
                                      b.policy_matrix(i, 0.1))


def test_expected_symmetric_fixed_point_stays_uniform():
    game = make_builtin_game("matching_pennies")
    types = TypeDistribution.singleton(0.1)
    sched = TemperatureSchedule(mode="constant_eta", eta=0.5)
    learners = Learners([uniform_policy(2)] * 2, [types] * 2, sched)
    run_selfplay(game, learners, 200, record=False)
    for i in range(2):
        np.testing.assert_allclose(learners.policy(i, 0.1), [0.5, 0.5], atol=1e-12)


def test_all_infinite_types_play_anchor_frequencies():
    game = make_builtin_game("matching_pennies")
    tau = np.array([0.7, 0.3])
    types = TypeDistribution.singleton(INF)
    sched = TemperatureSchedule()
    learners = Learners([tau] * 2, [types] * 2, sched)
    rng = np.random.default_rng(17)
    n = 10000
    trace = run_selfplay(game, learners, n, rng=rng)
    for i in range(2):
        freq = np.mean([a[i] == 0 for a in trace.actions])
        sigma = math.sqrt(0.7 * 0.3 / n)
        assert abs(freq - 0.7) <= 3 * sigma


def test_emitted_policies_are_distributions():
    game = make_builtin_game("random_zero_sum", {"seed": 6, "actions": (3, 3)})
    types = TypeDistribution.uniform([1e-1, 1.0])
    sched = TemperatureSchedule()
    learners = Learners([np.array([0.6, 0.3, 0.1])] * 2, [types] * 2, sched)
    rng = np.random.default_rng(18)
    trace = run_selfplay(game, learners, 200, rng=rng)
    for i in range(2):
        for lam in types.lambdas:
            mat = trace.policy_matrix(i, lam)
            assert np.all(mat >= 0)
            np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(mat > 0)     # anchor-supported actions, lam > 0
        avg = learners.average_policy(i, lam)
        assert abs(avg.sum() - 1.0) <= 1e-12


def test_replay_q_oracle():
    game = make_builtin_game("random_zero_sum", {"seed": 7, "actions": (3, 3)})
    types = TypeDistribution.singleton(0.1)
    sched = TemperatureSchedule()
    learners = Learners([uniform_policy(3)] * 2, [types] * 2, sched)
    rng = np.random.default_rng(19)
    trace = run_selfplay(game, learners, 500, rng=rng)
    for i in range(2):
        np.testing.assert_allclose(trace.utility_matrix(i).mean(axis=0), learners.q[i],
                                   atol=1e-10)


def test_trace_records_round_trip(tmp_path):
    game = make_builtin_game("matching_pennies")
    types = TypeDistribution.uniform([1e-2, 1e-1])
    sched = TemperatureSchedule()
    learners = Learners([uniform_policy(2)] * 2, [types] * 2, sched)
    rng = np.random.default_rng(20)
    trace = run_selfplay(game, learners, 30, rng=rng)
    emit_trace(trace, tmp_path / "trace.jsonl")
    rebuilt = read_trace_jsonl(tmp_path / "trace.jsonl", trace.type_supports)
    assert len(rebuilt) == len(trace)
    for i in range(2):
        np.testing.assert_array_equal(rebuilt.utility_matrix(i),
                                      trace.utility_matrix(i))
        for lam in types.lambdas:
            np.testing.assert_array_equal(rebuilt.policy_matrix(i, lam),
                                          trace.policy_matrix(i, lam))


def test_mismatched_learners_rejected():
    game = make_builtin_game("matching_pennies")
    types = TypeDistribution.singleton(0.1)
    sched = TemperatureSchedule()
    one = Learners([uniform_policy(2)], [types], sched)
    with pytest.raises(ValueError, match="action counts do not match"):
        run_selfplay(game, one, 1, rng=np.random.default_rng(0))
    bad = Learners([uniform_policy(3)] * 2, [types] * 2, sched)
    with pytest.raises(ValueError, match="action counts do not match"):
        run_selfplay(game, bad, 1)
