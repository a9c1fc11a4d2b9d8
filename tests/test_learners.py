"""Tests for the anchored no-regret learners and their reductions."""

import math

import numpy as np
import pytest

from anchored import (
    INF,
    Learner,
    TemperatureSchedule,
    Trace,
    TypeDistribution,
    init_learner,
    make_builtin_game,
    policy_for_type,
    run_selfplay,
    uniform_policy,
)
from anchored.learners import UtilityStats


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


def test_sample_matches_generator_choice():
    td = TypeDistribution((0.1, 0.5, 2.0), (0.2, 0.0, 0.8))
    rng, twin = np.random.default_rng(8), np.random.default_rng(8)
    for _ in range(200):
        assert td.sample(rng) == td.lambdas[twin.choice(3, p=td.weights)]
    assert rng.random() == twin.random()


def test_singleton_sample_is_constant():
    td = TypeDistribution.singleton(0.1)
    rng = np.random.default_rng(0)
    assert all(td.sample(rng) == 0.1 for _ in range(10))


def test_uniform_type_distribution():
    td = TypeDistribution.uniform([1e-1, 1e-4])
    assert td.lambdas == (1e-4, 1e-1)
    assert td.weights == (0.5, 0.5)


# ------------------------------------------------------------ schedules

def test_kappa_constant_eta():
    sched = TemperatureSchedule(mode="constant_eta", eta=0.5)
    assert sched.kappa(4) == pytest.approx(0.5)
    assert sched.kappa(1) == pytest.approx(2.0)


def test_kappa_inverse_sqrt():
    sched = TemperatureSchedule(mode="inverse_sqrt")
    assert sched.kappa(9) == pytest.approx(1.0 / 3.0)


def test_kappa_adaptive_std():
    sched = TemperatureSchedule.adaptive()
    stats = UtilityStats()
    for x in (0.0, 2.0):   # sample std = sqrt(2)
        stats.add(x)
    expected = 3.0 * math.sqrt(2.0) / (10.0 * 3.0)
    assert sched.kappa(9, stats) == pytest.approx(expected)


def test_kappa_adaptive_examples():
    sched = TemperatureSchedule.adaptive()
    stats = UtilityStats()
    # std exactly 1: samples (0, 2) have std sqrt(2); use (-1, 1) for std sqrt(2)
    for x in (0.5 - 0.5, 0.5 + 0.5, 0.5):   # (0, 1, 0.5): std 0.25? compute directly
        stats.add(x)
    # direct cross-check against numpy's sample std
    assert stats.std() == pytest.approx(np.std([0.0, 1.0, 0.5], ddof=1), abs=1e-12)


def test_kappa_adaptive_floor_on_degenerate_input():
    sched = TemperatureSchedule.adaptive(kappa_floor=1e-6)
    stats = UtilityStats()
    stats.add(1.0)
    stats.add(1.0)   # zero variance
    assert sched.kappa(5, stats) == pytest.approx(1e-6)
    # fewer than 2 samples: schedule undefined, floor engaged
    assert sched.kappa(1, UtilityStats()) == pytest.approx(1e-6)


def test_schedule_validation():
    with pytest.raises(ValueError):
        TemperatureSchedule(mode="constant_eta")       # missing eta
    with pytest.raises(ValueError):
        TemperatureSchedule(mode="warp_drive")
    sched = TemperatureSchedule(mode="inverse_sqrt")
    with pytest.raises(ValueError):
        sched.kappa(0)


def test_schedule_rejects_nan_eta():
    with pytest.raises(ValueError):
        TemperatureSchedule(mode="constant_eta", eta=float("nan"))
    TemperatureSchedule(mode="constant_eta", eta=float("inf"))   # kappa == 0


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
    with pytest.raises(ValueError):
        policy_for_type(np.zeros(2), uniform_policy(2), 0.0, 0.0,
                        argmax_fallback=False)


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


# -------------------------------------------------------------- learner

def test_init_learner_state():
    ln = init_learner(0, 2, uniform_policy(2), TypeDistribution.singleton(0.1),
                      TemperatureSchedule(mode="inverse_sqrt"))
    assert ln.t == 0
    np.testing.assert_array_equal(ln.q, [0.0, 0.0])


def test_observe_running_average():
    ln = init_learner(0, 2, uniform_policy(2), TypeDistribution.singleton(0.1),
                      TemperatureSchedule(mode="inverse_sqrt"))
    ln.observe(np.array([0.5, -0.5]), 0.5)
    np.testing.assert_allclose(ln.q, [0.5, -0.5], atol=1e-15)
    ln.observe(np.array([1.5, 0.5]), 1.5)
    np.testing.assert_allclose(ln.q, [1.0, 0.0], atol=1e-15)


def test_observe_constant_utilities():
    ln = init_learner(0, 2, uniform_policy(2), TypeDistribution.singleton(0.1),
                      TemperatureSchedule(mode="inverse_sqrt"))
    for _ in range(10):
        ln.observe(np.array([0.25, 0.25]), 0.25)
    np.testing.assert_allclose(ln.q, [0.25, 0.25], atol=1e-14)


def test_observe_monotonic_iteration_check():
    ln = init_learner(0, 2, uniform_policy(2), TypeDistribution.singleton(0.1),
                      TemperatureSchedule(mode="inverse_sqrt"))
    ln.observe(np.zeros(2), 0.0, iteration=1)
    with pytest.raises(ValueError):
        ln.observe(np.zeros(2), 0.0, iteration=1)


def test_act_policy_matches_support_point():
    game = make_builtin_game("matching_pennies")
    types = TypeDistribution.uniform([1e-4, 1e-1])
    sched = TemperatureSchedule.adaptive()
    learners = [init_learner(i, 2, np.array([0.6, 0.4]), types, sched)
                for i in range(2)]
    run_selfplay(game, learners, 50, mode="expected", record=False)
    ln = learners[0]
    np.testing.assert_allclose(ln.policy(1e-1), policy_for_type(
        ln.q, ln.anchor, 1e-1, ln.current_kappa()), atol=0.0)
    np.testing.assert_allclose(ln.policy(INF), ln.anchor, atol=0.0)


def test_average_policy_after_one_iteration():
    game = make_builtin_game("matching_pennies")
    types = TypeDistribution.singleton(0.1)
    sched = TemperatureSchedule(mode="constant_eta", eta=0.5)
    learners = [init_learner(i, 2, np.array([0.7, 0.3]), types, sched)
                for i in range(2)]
    first = learners[0].policy(0.1)
    run_selfplay(game, learners, 1, mode="expected", record=False)
    np.testing.assert_allclose(learners[0].average_policy(0.1), first, atol=1e-15)
    with pytest.raises(ValueError):
        init_learner(0, 2, uniform_policy(2), types, sched).average_policy(0.1)


# ------------------------------------------------------------ reductions

def _manual_pikl_replay(trace, player, anchor, lam, schedule):
    """Independent iterate-for-iterate recomputation from trace utilities."""
    u = trace.utility_matrix(player)
    realized = np.array([row[player] for row in trace.realized])
    q = np.zeros(u.shape[1])
    stats = UtilityStats()
    policies = []
    for t in range(u.shape[0]):
        kappa = (schedule.kappa_initial() if t == 0
                 else schedule.kappa(t, stats))
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
    learners = [init_learner(i, 3, anchor, types, sched) for i in range(2)]
    rng = np.random.default_rng(12)
    trace = run_selfplay(game, learners, 200, mode=mode, rng=rng)
    for i in range(2):
        manual = _manual_pikl_replay(trace, i, learners[i].anchor, 0.5, sched)
        np.testing.assert_allclose(trace.policy_matrix(i, 0.5), manual,
                                   atol=1e-12)


def test_lambda_zero_reduces_to_hedge():
    game = make_builtin_game("random_zero_sum", {"seed": 4, "actions": (3, 3)})
    types = TypeDistribution.singleton(0.0)
    sched = TemperatureSchedule(mode="constant_eta", eta=0.5)
    learners = [init_learner(i, 3, uniform_policy(3), types, sched)
                for i in range(2)]
    rng = np.random.default_rng(13)
    trace = run_selfplay(game, learners, 200, mode="sampled", rng=rng)
    for i in range(2):
        u = trace.utility_matrix(i)
        q = np.zeros(3)
        for t in range(200):
            kappa = sched.kappa_initial() if t == 0 else sched.kappa(t)
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
    learners = [init_learner(i, 3, uniform_policy(3), types, sched)
                for i in range(2)]
    rng = np.random.default_rng(14)
    trace = run_selfplay(game, learners, 100, mode="sampled", rng=rng)
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
        sched = TemperatureSchedule.adaptive()
        learners = [init_learner(i, 3, uniform_policy(3), types, sched)
                    for i in range(2)]
        rng = np.random.default_rng(seed)
        return run_selfplay(game, learners, 100, mode="sampled", rng=rng)

    a, b = run(99), run(99)
    np.testing.assert_array_equal(a.actions, b.actions)
    np.testing.assert_array_equal(a.sampled_lambdas, b.sampled_lambdas)


def test_expected_mode_bit_identical():
    game = make_builtin_game("rock_paper_scissors")
    types = TypeDistribution.singleton(0.1)

    def run():
        sched = TemperatureSchedule(mode="constant_eta", eta=0.5)
        learners = [init_learner(i, 3, np.array([0.5, 0.25, 0.25]), types, sched)
                    for i in range(2)]
        return run_selfplay(game, learners, 50, mode="expected")

    a, b = run(), run()
    for i in range(2):
        np.testing.assert_array_equal(a.policy_matrix(i, 0.1),
                                      b.policy_matrix(i, 0.1))


def test_expected_symmetric_fixed_point_stays_uniform():
    game = make_builtin_game("matching_pennies")
    types = TypeDistribution.singleton(0.1)
    sched = TemperatureSchedule(mode="constant_eta", eta=0.5)
    learners = [init_learner(i, 2, uniform_policy(2), types, sched)
                for i in range(2)]
    run_selfplay(game, learners, 200, mode="expected", record=False)
    for ln in learners:
        np.testing.assert_allclose(ln.policy(0.1), [0.5, 0.5], atol=1e-12)


def test_all_infinite_types_play_anchor_frequencies():
    game = make_builtin_game("matching_pennies")
    tau = np.array([0.7, 0.3])
    types = TypeDistribution.singleton(INF)
    sched = TemperatureSchedule.adaptive()
    learners = [init_learner(i, 2, tau, types, sched) for i in range(2)]
    rng = np.random.default_rng(17)
    n = 10000
    trace = run_selfplay(game, learners, n, mode="sampled", rng=rng)
    for i in range(2):
        freq = np.mean([a[i] == 0 for a in trace.actions])
        sigma = math.sqrt(0.7 * 0.3 / n)
        assert abs(freq - 0.7) <= 3 * sigma


def test_emitted_policies_are_distributions():
    game = make_builtin_game("random_zero_sum", {"seed": 6, "actions": (3, 3)})
    types = TypeDistribution.uniform([1e-1, 1.0])
    sched = TemperatureSchedule.adaptive()
    learners = [init_learner(i, 3, np.array([0.6, 0.3, 0.1]), types, sched)
                for i in range(2)]
    rng = np.random.default_rng(18)
    trace = run_selfplay(game, learners, 200, mode="sampled", rng=rng)
    for i in range(2):
        for lam in types.lambdas:
            mat = trace.policy_matrix(i, lam)
            assert np.all(mat >= 0)
            np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(mat > 0)     # anchor-supported actions, lam > 0
        avg = learners[i].average_policy(lam)
        assert abs(avg.sum() - 1.0) <= 1e-12


def test_replay_q_oracle():
    game = make_builtin_game("random_zero_sum", {"seed": 7, "actions": (3, 3)})
    types = TypeDistribution.singleton(0.1)
    sched = TemperatureSchedule.adaptive()
    learners = [init_learner(i, 3, uniform_policy(3), types, sched)
                for i in range(2)]
    rng = np.random.default_rng(19)
    trace = run_selfplay(game, learners, 500, mode="sampled", rng=rng)
    for i in range(2):
        np.testing.assert_allclose(trace.replay_q(i), learners[i].q, atol=1e-10)


def test_trace_records_round_trip():
    game = make_builtin_game("matching_pennies")
    types = TypeDistribution.uniform([1e-2, 1e-1])
    sched = TemperatureSchedule.adaptive()
    learners = [init_learner(i, 2, uniform_policy(2), types, sched)
                for i in range(2)]
    rng = np.random.default_rng(20)
    trace = run_selfplay(game, learners, 30, mode="sampled", rng=rng)
    rebuilt = Trace.from_records(trace.records(), trace.type_supports)
    assert len(rebuilt) == len(trace)
    for i in range(2):
        np.testing.assert_array_equal(rebuilt.utility_matrix(i),
                                      trace.utility_matrix(i))
        for lam in types.lambdas:
            np.testing.assert_array_equal(rebuilt.policy_matrix(i, lam),
                                          trace.policy_matrix(i, lam))


def test_uniform_first_iterate_switch():
    tau = np.array([0.9, 0.1])
    types = TypeDistribution.singleton(0.5)
    sched = TemperatureSchedule(mode="constant_eta", eta=0.5)
    ln = init_learner(0, 2, tau, types, sched, uniform_first_iterate=True)
    np.testing.assert_allclose(ln.policy(0.5), [0.5, 0.5], atol=0.0)
    ln2 = init_learner(0, 2, tau, types, sched)
    assert ln2.policy(0.5)[0] > 0.5    # anchored first iterate leans to tau


def test_mismatched_learners_rejected():
    game = make_builtin_game("matching_pennies")
    types = TypeDistribution.singleton(0.1)
    sched = TemperatureSchedule.adaptive()
    learners = [init_learner(0, 2, uniform_policy(2), types, sched)]
    with pytest.raises(ValueError):
        run_selfplay(game, learners, 1, rng=np.random.default_rng(0))
    bad = [init_learner(i, 3, uniform_policy(3), types, sched) for i in range(2)]
    with pytest.raises(ValueError):
        run_selfplay(game, bad, 1, mode="expected")
