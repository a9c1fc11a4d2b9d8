"""End-to-end acceptance checks.

Each test prints one pass/fail line (bypassing capture) and asserts the same
condition, so the verdict is visible in any pytest run.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from anchored import (
    INF,
    AgentSpec,
    Learners,
    NormalFormGame,
    TemperatureSchedule,
    TrainConfig,
    TypeDistribution,
    kl_divergence,
    last_iterate_distance,
    make_builtin_game,
    make_random_markov,
    policy_for_type,
    regularized_exploitability,
    regularized_regret,
    run_episode,
    run_population_eval,
    run_selfplay,
    solve_markov_backward,
    solve_regularized_bne,
    unregularized_exploitability,
    uniform_policy,
)
from anchored.cli import dumps_json, run_experiment
from anchored.learners import UtilityStats
from anchored.oracle import evaluate_markov_profile
from anchored.rating import GameTable, RatingModel, fit_ratings, predict_shares
from anchored.rl import evaluate_vs_oracle
from anchored.oracle import uniform_anchors
from helpers import value_array


def _verdict(capsys, num, desc, ok):
    with capsys.disabled():
        print(f"[criterion {num:02d}] {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {desc}"


# --------------------------------------------------------------------------
# 1. Reduction identities
# --------------------------------------------------------------------------

def _manual_replay(trace, player, anchor, lam, schedule):
    u = trace.utility_matrix(player)
    realized = np.array([row[player] for row in trace.realized])
    q = np.zeros(u.shape[1])
    stats = UtilityStats()
    out = []
    for t in range(u.shape[0]):
        kappa = schedule.kappas(max(t, 1), [stats])[0]
        out.append(policy_for_type(q, anchor, lam, kappa))
        q = q * t / (t + 1) + u[t] / (t + 1)
        stats.add(float(realized[t]))
    return np.stack(out)


def test_criterion_1_reduction_identities(capsys):
    game = make_builtin_game("random_zero_sum", {"seed": 0, "actions": (3, 3)})
    anchor = np.array([0.5, 0.3, 0.2])
    cases = [
        # (lambda, schedule) : anchored update, hedge, fictitious play
        (0.5, TemperatureSchedule(mode="constant_eta", eta=0.5)),
        (0.0, TemperatureSchedule(mode="constant_eta", eta=0.5)),
        (0.0, TemperatureSchedule(mode="constant_eta", eta=INF)),
    ]
    worst = 0.0
    for lam, sched in cases:
        learners = Learners([anchor] * 2, [TypeDistribution.singleton(lam)] * 2,
                            sched)
        rng = np.random.default_rng(1)
        trace = run_selfplay(game, learners, 300, rng=rng)
        for i in range(2):
            manual = _manual_replay(trace, i, learners.anchors[i], lam, sched)
            worst = max(worst, float(np.max(np.abs(
                trace.policy_matrix(i, lam) - manual))))
    _verdict(capsys, 1, f"reduction identities (max dev {worst:.2e})",
             worst <= 1e-12)


# --------------------------------------------------------------------------
# 2. Empirical regret bound
# --------------------------------------------------------------------------

def test_criterion_2_regret_bound(capsys):
    lams = (0.01, 0.1, 1.0)
    types = TypeDistribution.uniform(lams)
    sched = TemperatureSchedule(mode="constant_eta", eta=0.5)
    violations = 0
    ratio_lo, ratio_hi = [], []
    for seed in range(100):
        game = make_builtin_game("random_zero_sum",
                                 {"seed": seed, "actions": (3, 3),
                                  "payoff_bound": 1.0})
        learners = Learners([uniform_policy(3)] * 2, [types] * 2, sched)
        rng = np.random.default_rng(10_000 + seed)
        trace = run_selfplay(game, learners, 10_000, rng=rng)
        for i in range(2):
            for lam in lams:
                rep = regularized_regret(trace, i, lam, learners.anchors[i],
                                         payoff_bound=1.0, eta=0.5)
                if rep.regret > rep.bound:
                    violations += 1
            ratio_lo.append(
                regularized_regret(trace, i, 1.0, learners.anchors[i],
                                   iterations=1_000).regret / math.log(1_000))
            ratio_hi.append(
                regularized_regret(trace, i, 1.0, learners.anchors[i],
                                   iterations=10_000).regret / math.log(10_000))
    monotone = float(np.mean(ratio_hi)) <= float(np.mean(ratio_lo))
    ok = violations == 0 and monotone
    _verdict(capsys, 2,
             f"regret bound on 100 seeds x 3 lambdas "
             f"({violations} violations, regret/logT "
             f"{np.mean(ratio_lo):.4f}->{np.mean(ratio_hi):.4f})", ok)


# --------------------------------------------------------------------------
# 3. Last-iterate convergence
# --------------------------------------------------------------------------

MP_ANCHORS = (np.array([0.7, 0.3]), np.array([0.5, 0.5]))


def _pennies_equilibrium():
    game = make_builtin_game("matching_pennies")
    types = (TypeDistribution.singleton(0.1),) * 2
    prof = solve_regularized_bne(game, list(MP_ANCHORS), types, tol=1e-10)
    assert prof.converged
    return game, types, prof


def test_criterion_3_last_iterate(capsys):
    game, types, prof = _pennies_equilibrium()
    sched = TemperatureSchedule(mode="constant_eta", eta=0.5)

    # expected feedback: deterministic convergence of the last iterate
    learners = Learners(MP_ANCHORS, [types[0]] * 2, sched)
    run_selfplay(game, learners, 100_000, record=False)
    expected_kls = [
        kl_divergence(prof.policies[i][0.1], learners.policy(i, 0.1))
        for i in range(2)
    ]
    expected_ok = max(expected_kls) <= 1e-6

    # sampled feedback: 20 seeds, decade checkpoints
    checkpoints = (1_000, 10_000, 100_000)
    final_kls = []
    distances = {T: [] for T in checkpoints}
    for seed in range(20):
        learners = Learners(MP_ANCHORS, [types[0]] * 2, sched)
        rng = np.random.default_rng(777 + seed)
        done = 0
        for t in checkpoints:
            # the iterate played at step t, after t - 1 sampled steps
            run_selfplay(game, learners, t - 1 - done, rng=rng, record=False)
            done = t - 1
            kappas = learners.kappas()
            current = [{0.1: learners.policy(i, 0.1)} for i in range(2)]
            distances[t].append(last_iterate_distance(current, prof, kappas))
            if t == checkpoints[-1]:
                final_kls.append(np.mean([
                    kl_divergence(prof.policies[i][0.1],
                                  current[i][0.1])
                    for i in range(2)
                ]))
    mean_kl = float(np.mean(final_kls))
    d_means = [float(np.mean(distances[T])) for T in checkpoints]
    sampled_ok = mean_kl <= 0.01 and d_means[0] > d_means[1] > d_means[2]
    _verdict(capsys, 3,
             f"last-iterate convergence (expected KL {max(expected_kls):.2e}, "
             f"sampled mean KL {mean_kl:.2e}, d(T) "
             f"{d_means[0]:.2e}>{d_means[1]:.2e}>{d_means[2]:.2e})",
             expected_ok and sampled_ok)


# --------------------------------------------------------------------------
# 4. Oracle correctness
# --------------------------------------------------------------------------

def _grid_search_2x2(game, anchors, lam, res=1e-5):
    A = game.payoffs[0]
    tau1, tau2 = anchors
    p = np.arange(0.0, 1.0 + res / 2, res)
    pts = np.stack([p, 1 - p], axis=1)

    def xlogx(v, ref):
        return np.where(v > 0, v * np.log(np.maximum(v, 1e-300) / ref), 0.0)

    inner = -lam * np.log(np.exp(-(pts @ A) / lam) @ tau2)
    vx = inner - lam * (xlogx(pts[:, 0], tau1[0]) + xlogx(pts[:, 1], tau1[1]))
    best_x = pts[int(np.argmax(vx))]
    outer = lam * np.log(np.exp((A @ pts.T).T / lam) @ tau1)
    wy = outer + lam * (xlogx(pts[:, 0], tau2[0]) + xlogx(pts[:, 1], tau2[1]))
    best_y = pts[int(np.argmin(wy))]
    return best_x, best_y


def test_criterion_4_oracle_correctness(capsys):
    game = make_builtin_game("matching_pennies")
    anchors = list(MP_ANCHORS)
    types = (TypeDistribution.singleton(1.0),) * 2
    prof = solve_regularized_bne(game, anchors, types, tol=1e-10)
    gap = regularized_exploitability(game, anchors, prof)
    gx, gy = _grid_search_2x2(game, anchors, 1.0)
    grid_dev = max(float(np.max(np.abs(prof.policies[0][1.0] - gx))),
                   float(np.max(np.abs(prof.policies[1][1.0] - gy))))
    big = (TypeDistribution.singleton(1e9),) * 2
    prof_inf = solve_regularized_bne(game, anchors, big, tol=1e-12)
    anchor_dev = max(float(np.max(np.abs(prof_inf.policies[i][1e9] - anchors[i])))
                     for i in range(2))
    ok = gap < 1e-8 and grid_dev <= 1e-4 and anchor_dev <= 1e-6
    _verdict(capsys, 4,
             f"oracle correctness (exploitability {gap:.2e}, grid dev "
             f"{grid_dev:.2e}, anchor-limit dev {anchor_dev:.2e})", ok)


# --------------------------------------------------------------------------
# 5. Hedge average-policy equilibrium property
# --------------------------------------------------------------------------

def test_criterion_5_hedge_average(capsys):
    game = make_builtin_game("matching_pennies")
    types = TypeDistribution.singleton(0.0)
    sched = TemperatureSchedule(mode="inverse_sqrt")
    learners = Learners([uniform_policy(2)] * 2, [types] * 2, sched)
    rng = np.random.default_rng(0)
    run_selfplay(game, learners, 10_000, rng=rng, record=False)
    avg = [learners.average_policy(i, 0.0) for i in range(2)]
    gap = unregularized_exploitability(game, avg)
    _verdict(capsys, 5, f"hedge average-policy exploitability ({gap:.4f})",
             gap <= 0.05)


# --------------------------------------------------------------------------
# The distributional learner's average against the regularized BNE
# --------------------------------------------------------------------------

# Per player; the second is diplodocus_high's support.
BNE_SUPPORTS = ((0.1, 1.0), (0.01, 0.1))


def test_distributional_average_approaches_regularized_bne(capsys):
    """Expected feedback at constant eta = 0.5 on three random 3x3 zero-sum
    games, each with both supports: the worst |average - BNE| over players
    and types is at most 6e-2 at T = 1e3 and 8e-3 at 1e4, falling at least
    3x, and the next iterate is within 6.5e-3 of the BNE at 1e4.  The bounds
    are about twice the worst values of a probe (3.05e-2, 3.94e-3 and
    3.21e-3, with falls of 5.9-11.7x)."""
    sched = TemperatureSchedule(mode="constant_eta", eta=0.5)
    checkpoints = (1_000, 10_000)
    errors, last = [], []
    for seed in range(3):
        game = make_builtin_game("random_zero_sum", {"seed": seed, "actions": (3, 3)})
        for support in BNE_SUPPORTS:
            types = [TypeDistribution.uniform(support)] * 2
            learners = Learners([[0.5, 0.3, 0.2], uniform_policy(3)], types, sched)
            prof = solve_regularized_bne(game, learners.anchors, types)
            assert prof.converged

            def worst(policy):
                return max(float(np.max(np.abs(policy(i, lam) - prof.policies[i][lam])))
                           for i in range(2) for lam in support)

            run = []
            for t in checkpoints:
                run_selfplay(game, learners, t - learners.t, record=False)
                run.append(worst(learners.average_policy))
            errors.append(run)
            last.append(worst(learners.policy))
    worst_at = [max(run[k] for run in errors) for k in range(len(checkpoints))]
    least_fall = min(run[0] / run[1] for run in errors)
    ok = (worst_at[0] <= 6e-2 and worst_at[1] <= 8e-3 and least_fall >= 3
          and max(last) <= 6.5e-3)
    with capsys.disabled():
        print(f"[bne convergence] distributional average to the regularized BNE "
              f"(worst error {worst_at[0]:.2e} at 1e3, {worst_at[1]:.2e} at 1e4, "
              f"least fall {least_fall:.1f}x, last iterate {max(last):.2e}): "
              f"{'PASS' if ok else 'FAIL'}")
    assert ok, "the distributional average did not approach the regularized BNE"


# --------------------------------------------------------------------------
# 6. Value learning against the exact oracle
# --------------------------------------------------------------------------

RL_FIXTURE = dict(seed=42, state_count=5, player_count=2, actions_per_player=3,
                  horizon=4, gamma=1.0, zero_sum=True)


def test_criterion_6_value_learning(capsys):
    game = make_random_markov(**RL_FIXTURE)
    anchors = uniform_anchors(game)
    oracle_values, oracle_profiles = solve_markov_backward(
        game, anchors, (0.5, 0.5))
    cfg = TrainConfig(
        search_iterations=256,
        types=(TypeDistribution.singleton(0.5),) * 2,
        episodes=400,
        alpha_harmonic=True,
        seed=7,
    )
    values = np.zeros((game.state_count + 1, 2))
    table = anchors.copy()
    rng = np.random.default_rng(cfg.seed)
    visit_counts, searches = np.zeros(game.state_count, dtype=int), {}
    worst_asym = 0.0
    for _ in range(cfg.episodes):
        run_episode(game, values, table, anchors, cfg, rng,
                    visit_counts=visit_counts, searches=searches)
        worst_asym = max(worst_asym, max(
            abs(float(values[s][0] + values[s][1]))
            for s in range(game.state_count)))
    out = evaluate_vs_oracle(game, values, table, anchors,
                             value_array(game, oracle_values), oracle_profiles)
    ok = out["max_value_error"] <= 0.05 and worst_asym <= 1e-9
    _verdict(capsys, 6,
             f"value learning (max error {out['max_value_error']:.4f}, "
             f"value asymmetry {worst_asym:.2e})", ok)


# --------------------------------------------------------------------------
# 7. Best-response training sanity
# --------------------------------------------------------------------------

def test_criterion_7_best_response_mode(capsys):
    game = make_random_markov(**RL_FIXTURE)
    anchors = uniform_anchors(game)
    cfg = TrainConfig(
        search_iterations=128,
        types=(TypeDistribution.singleton(0.0), TypeDistribution.singleton(INF)),
        episodes=200,
        alpha_harmonic=True,
        seed=11,
    )
    values = np.zeros((game.state_count + 1, 2))
    table = anchors.copy()
    rng = np.random.default_rng(cfg.seed)
    visit_counts, searches = np.zeros(game.state_count, dtype=int), {}
    for _ in range(cfg.episodes):
        run_episode(game, values, table, anchors, cfg, rng,
                    visit_counts=visit_counts, searches=searches)
    trained = table.copy()
    trained[:, 1] = anchors[:, 1]
    v_trained = evaluate_markov_profile(game, trained)
    v_anchor = evaluate_markov_profile(game, anchors)
    score_trained = float(np.mean([v_trained[s][0]
                                   for s in range(game.state_count)]))
    score_anchor = float(np.mean([v_anchor[s][0]
                                  for s in range(game.state_count)]))
    _verdict(capsys, 7,
             f"best-response training beats anchor play "
             f"({score_trained:.4f} >= {score_anchor:.4f})",
             score_trained >= score_anchor - 1e-9)


# --------------------------------------------------------------------------
# 8. Rating recovery
# --------------------------------------------------------------------------

def _exact_share_games(true_ratings, seat_biases, n_games, n_seats, seed):
    model = RatingModel(ratings=dict(true_ratings),
                        seat_biases=np.asarray(seat_biases, float))
    names = sorted(true_ratings)
    rng = np.random.default_rng(seed)
    seats = [[names[k] for k in rng.integers(len(names), size=n_seats)]
             for _ in range(n_games)]
    return GameTable.from_rows(
        np.repeat(np.arange(n_games), n_seats), np.tile(np.arange(n_seats), n_games),
        [p for game in seats for p in game],
        np.concatenate([predict_shares(model, game) for game in seats]))


def test_criterion_8_rating_recovery(capsys):
    true = {"p0": -120.0, "p1": -60.0, "p2": 0.0, "p3": 60.0, "p4": 120.0}
    fit = fit_ratings(_exact_share_games(true, np.zeros(7), 500, 7, seed=0))
    rating_err = max(
        abs((fit.ratings[a] - fit.ratings[b]) - (true[a] - true[b]))
        for a in true for b in true)
    biases = np.array([59.0, 27.0, 18.0, -16.0, -21.0, -24.0, -43.0])
    fit_b = fit_ratings(_exact_share_games({f"q{i}": 0.0 for i in range(5)},
                                           biases, 500, 7, seed=1))
    bias_err = float(np.max(np.abs(fit_b.seat_biases - biases)))
    gap_model = RatingModel(ratings={"a": 400.0, "b": 0.0},
                            seat_biases=np.zeros(2))
    shares = predict_shares(gap_model, ("a", "b"))
    share_err = float(np.max(np.abs(shares - np.array([10 / 11, 1 / 11]))))
    ok = rating_err <= 1.0 and bias_err <= 1.0 and share_err <= 1e-12
    _verdict(capsys, 8,
             f"rating recovery (rating err {rating_err:.3f} Elo, bias err "
             f"{bias_err:.2e} Elo, 400-gap share err {share_err:.1e})", ok)


# --------------------------------------------------------------------------
# 9. Population harness
# --------------------------------------------------------------------------

def _seven_seat_game():
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


def test_criterion_9_population_harness(capsys):
    game = _seven_seat_game()

    def agent(aid):
        return AgentSpec(agent_id=aid, kind="fixed",
                         policies=tuple(uniform_policy(2) for _ in range(7)))

    def run():
        return run_population_eval(agent("cand"),
                                   [agent(f"b{k}") for k in range(3)],
                                   game, 1_000, np.random.default_rng(2024))

    report = run()
    dev = abs(report.mean - 1 / 7)
    within = dev <= 2 * report.standard_error
    h1 = hashlib.sha256(dumps_json(run().to_dict()).encode()).hexdigest()
    h2 = hashlib.sha256(dumps_json(run().to_dict()).encode()).hexdigest()
    ok = within and h1 == h2
    _verdict(capsys, 9,
             f"population harness (mean {report.mean:.4f} vs 1/7, SE "
             f"{report.standard_error:.4f}, deterministic hash {h1 == h2})", ok)


# --------------------------------------------------------------------------
# 10. Artifact determinism
# --------------------------------------------------------------------------

def test_criterion_10_artifact_determinism(capsys, tmp_path):
    configs = [
        {
            "kind": "solve",
            "seed": 5,
            "game": {"builtin": "matching_pennies"},
            "learner": {"types": [0.1],
                        "schedule": {"mode": "constant_eta", "eta": 0.5},
                        "iterations": 200},
        },
        {
            "kind": "oracle",
            "game": {"builtin": "matching_pennies"},
            "oracle": {"types": [1.0], "anchors": [[0.7, 0.3], [0.5, 0.5]]},
        },
        {
            "kind": "rl",
            "seed": 3,
            "game": {"random_markov": {"seed": 2, "states": 3, "actions": 2,
                                       "horizon": 2, "zero_sum": True}},
            "rl": {"types": [0.5], "episodes": 20, "search_iterations": 64,
                   "checkpoint_every": 10},
        },
    ]
    ok = True
    for k, config in enumerate(configs):
        m1 = run_experiment(config, out=tmp_path / f"{k}a")
        m2 = run_experiment(config, out=tmp_path / f"{k}b")
        if m1["artifacts"] != m2["artifacts"]:
            ok = False
    _verdict(capsys, 10, "artifact determinism across reruns", ok)
