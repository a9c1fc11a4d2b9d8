"""Tests for tabular self-play value iteration with per-state search."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anchored import (
    INF,
    NormalFormGame,
    TemperatureSchedule,
    TrainConfig,
    TypeDistribution,
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
from anchored import rl
from anchored.cli import load_train_config
from anchored.games import TERMINAL
from anchored.oracle import stage_game_from_values, stage_payoffs, uniform_anchors
from helpers import padded_table, value_array
from test_kernel import ScalarLearner, reference_selfplay


def small_fixture():
    return make_random_markov(seed=11, state_count=3, player_count=2,
                              actions_per_player=2, horizon=2, gamma=1.0,
                              zero_sum=True)


def zero_values(game):
    return {s: np.zeros(game.player_count) for s in range(game.state_count)}


def zero_array(game):
    """The ``(S + 1, P)`` value array at 0, TERMINAL's row last."""
    return np.zeros((game.state_count + 1, game.player_count))


def no_visits(game):
    return np.zeros(game.state_count, dtype=int)


#: Best response: player 0 at lambda = 0 against player 1 at lambda = inf.
BEST_RESPONSE = (TypeDistribution.singleton(0.0), TypeDistribution.singleton(INF))


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
    values = zero_values(game)
    stage = stage_game_from_values(game, 0, values)
    for a in game.joint_actions(0):
        assert stage.payoffs[0][a] == pytest.approx(game.reward(0, a)[0],
                                                    abs=1e-12)


def test_stage_game_gamma_zero_ignores_values():
    game = make_random_markov(seed=12, state_count=3, player_count=2,
                              actions_per_player=2, horizon=2, gamma=0.0,
                              zero_sum=True)
    values = zero_values(game)
    values[1] = np.array([5.0, -5.0])
    stage = stage_game_from_values(game, 0, values)
    for a in game.joint_actions(0):
        assert stage.payoffs[0][a] == pytest.approx(game.reward(0, a)[0],
                                                    abs=1e-12)


def test_stage_game_value_substitution():
    mp = make_builtin_game("matching_pennies")
    game = make_repeated_markov(mp, horizon=2, discount=1.0)
    values = zero_values(game)
    values[1] = np.array([0.6, -0.6])
    stage = stage_game_from_values(game, 0, values)
    # every joint action moves to state 1 deterministically
    for a in game.joint_actions(0):
        expect = game.reward(0, a) + values[1]
        assert stage.payoffs[0][a] == pytest.approx(expect[0], abs=1e-12)


def test_stage_game_rejects_terminal():
    game = small_fixture()
    with pytest.raises(ValueError):
        stage_game_from_values(game, -1, zero_values(game))


# ----------------------------------------------------------- NashV update

def test_nashv_alpha_zero_noop():
    game = small_fixture()
    values = zero_array(game)
    values[0] = np.array([0.3, -0.3])
    before = values[0].copy()
    nashv_update(values, 0, [uniform_policy(2)] * 2,
                 stage_payoffs(game, (0,), values)[0], alpha=0.0)
    np.testing.assert_array_equal(values[0], before)


def test_nashv_alpha_one_overwrites_with_target():
    game = small_fixture()
    values = zero_array(game)
    sigma = [uniform_policy(2), uniform_policy(2)]
    nashv_update(values, 0, sigma, stage_payoffs(game, (0,), values)[0], alpha=1.0)
    # independent expectation over joint actions and transitions
    target = np.zeros(2)
    for a in game.joint_actions(0):
        p = sigma[0][a[0]] * sigma[1][a[1]]
        cont = np.zeros(2)
        for s2, q in game.successors(0, a):
            if s2 != -1:
                cont += q * np.zeros(2)
        target += p * (game.reward(0, a) + game.gamma * cont)
    np.testing.assert_array_equal(values[0], target)


def test_nashv_hand_convex_combination():
    mp = make_builtin_game("matching_pennies")
    game = make_repeated_markov(mp, horizon=1, discount=1.0)
    values = zero_array(game)
    values[0] = np.array([0.2, 0.8])
    # force a deterministic joint action with expected reward (1, -1)
    sigma = [np.array([1.0, 0.0]), np.array([1.0, 0.0])]
    nashv_update(values, 0, sigma, stage_payoffs(game, (0,), values)[0], alpha=0.5)
    np.testing.assert_allclose(values[0], [0.6, -0.1], atol=1e-12)


def test_nashv_contraction_identity():
    game = small_fixture()
    rng = np.random.default_rng(5)
    for _ in range(10):
        values = zero_array(game)
        values[0] = rng.normal(size=2)
        sigma = [rng.dirichlet(np.ones(2)) for _ in range(2)]
        alpha = float(rng.uniform(0.0, 1.0))
        check = values.copy()
        stage = stage_payoffs(game, (0,), values)[0]
        nashv_update(check, 0, sigma, stage, alpha=1.0)
        target = check[0]
        old = values[0].copy()
        nashv_update(values, 0, sigma, stage, alpha=alpha)
        np.testing.assert_allclose(values[0] - target,
                                   (1 - alpha) * (old - target), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 3), st.integers(1, 3))
def test_stage_and_nashv_match_scalar_reference(seed, players, actions):
    """Both array paths equal the per-joint-action loops exactly, sigma with
    zero entries included."""
    game = make_random_markov(seed=seed, state_count=9, player_count=players,
                              actions_per_player=actions, horizon=3, gamma=0.9)
    rng = np.random.default_rng(seed)
    values = {s: rng.normal(size=players) for s in range(9)}
    for s in range(game.state_count):
        stage = stage_game_from_values(game, s, values)
        sigma = [rng.dirichlet(np.ones(actions)) for _ in range(players)]
        sigma[0][rng.integers(actions)] = 0.0
        target = np.zeros(players)
        for a in game.joint_actions(s):
            cont = np.zeros(players)
            for s2, q in game.successors(s, a):
                if s2 != -1:
                    cont += q * values[s2]
            total = game.reward(s, a) + game.gamma * cont
            for i in range(players):
                assert stage.payoffs[i][a] == total[i]
            p = 1.0
            for i, ai in enumerate(a):
                p *= sigma[i][ai]
            if p != 0.0:
                target += p * total
        check = value_array(game, values)
        nashv_update(check, s, sigma, np.array(stage.payoffs), alpha=1.0)
        np.testing.assert_array_equal(check[s], target)


# ---------------------------------------------------------------- search

def test_search_state_all_anchored_bypasses_learning():
    game = small_fixture()
    stage = stage_game_from_values(game, 0, zero_values(game))
    anchors = [np.array([0.7, 0.3]), np.array([0.4, 0.6])]
    types = (TypeDistribution.singleton(INF), TypeDistribution.singleton(INF))
    sigma = search_state(stage, anchors, types, iterations=16)
    np.testing.assert_array_equal(sigma[0], anchors[0])
    np.testing.assert_array_equal(sigma[1], anchors[1])


def test_search_state_approximates_stage_equilibrium():
    game = small_fixture()
    stage = stage_game_from_values(game, 0, zero_values(game))
    anchors = [uniform_policy(2), uniform_policy(2)]
    types = (TypeDistribution.singleton(0.5),) * 2
    sigma = search_state(stage, anchors, types, iterations=512)
    prof = solve_regularized_bne(stage, anchors, types)
    for i in range(2):
        np.testing.assert_allclose(sigma[i], prof.mixture(i), atol=0.05)


SEARCH_LAMBDAS = (0.0, 1e-3, 0.1, 0.5, 2.0, INF)


@st.composite
def search_cases(draw):
    """A stage game of 2-3 players with 1-4 actions each, and per player an
    anchor and a singleton, (0, inf) or multi-type support."""
    counts = tuple(draw(st.integers(1, 4)) for _ in range(draw(st.integers(2, 3))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    game = NormalFormGame(counts, tuple(rng.uniform(-1.0, 1.0, size=counts)
                                        for _ in counts), payoff_bound=1.0)
    types = []
    for _ in counts:
        lams = draw(st.sampled_from([
            (draw(st.sampled_from(SEARCH_LAMBDAS)),), (0.0, INF),
            tuple(sorted(draw(st.sets(st.sampled_from(SEARCH_LAMBDAS),
                                      min_size=2, max_size=3))))]))
        mass = [draw(st.integers(1, 5)) for _ in lams]
        types.append(TypeDistribution(lams, tuple(m / sum(mass) for m in mass)))
    # Anchors of small integer masses tie often, which `top_k` must break.
    anchors = []
    for n in counts:
        mass = rng.dirichlet(np.ones(n)) if draw(st.booleans()) else rng.integers(1, 3, n)
        anchors.append(mass / mass.sum())
    return game, anchors, types, draw(st.integers(64, 256))


def reference_search(game, anchors, types, iterations):
    """`search_state` from the scalar self-play of tests/test_kernel.py: each
    player's belief-weighted average policy, or its anchor when its only type
    is lambda = inf."""
    only = [td.lambdas == (INF,) for td in types]
    if all(only):
        return [np.array(a, dtype=float) for a in anchors]
    learners = [ScalarLearner(n, a, td, TemperatureSchedule())
                for n, a, td in zip(game.action_counts, anchors, types)]
    reference_selfplay(game, learners, iterations)
    sigma = []
    for a, anchored_only, ln in zip(anchors, only, learners):
        mix = np.zeros(ln.n)
        for lam, w in zip(ln.types.lambdas, ln.types.weights):
            mix += w * (ln.sums[lam] / ln.t)
        sigma.append(np.array(a, dtype=float) if anchored_only else mix)
    return sigma


@settings(max_examples=60, deadline=None)
@given(search_cases(), st.integers(1, 4))
def test_search_matches_scalar_reference(case, top_k):
    """`search_state`, and `_search` on the `top_k` actions each anchor ranks
    highest (the lower index winning ties), give the scalar reference's bits
    at the search lengths of RL."""
    game, anchors, types, iterations = case
    sigma = search_state(game, anchors, types, iterations)
    for got, want in zip(sigma, reference_search(game, anchors, types, iterations)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    keep = [sorted(sorted(range(len(a)), key=lambda k: (-a[k], k))[:top_k])
            for a in anchors]
    sub = NormalFormGame(tuple(map(len, keep)),
                         tuple(u[np.ix_(*keep)] for u in game.payoffs),
                         payoff_bound=game.payoff_bound)
    want = [np.zeros(n) for n in game.action_counts]
    for full, k, p in zip(want, keep, reference_search(
            sub, [a[k] / a[k].sum() for a, k in zip(anchors, keep)], types,
            iterations)):
        full[k] = p
    for got, w in zip(rl._search(game, anchors, types, top_k, iterations), want):
        assert np.array_equal(got, w)


def test_best_response_mode_type_assignment():
    """Best response, the `brbot` preset, is the types lambda = 0 for player 0
    and lambda = inf for the others; given types are overridden."""
    game = make_random_markov(seed=12, state_count=3, player_count=3,
                              actions_per_player=2, horizon=2, gamma=1.0)
    for spec in ({"preset": "brbot", "types": [0.5]}, {"preset": "brbot"}):
        cfg = load_train_config(spec, game)
        assert [td.lambdas for td in cfg.types] == [(0.0,), (INF,), (INF,)]


# --------------------------------------------------------------- episodes

def test_run_episode_visits_initial_state_and_updates():
    game = small_fixture()
    values = zero_array(game)
    anchors = uniform_anchors(game)
    table = anchors.copy()
    cfg = singleton_config()
    states, actions = run_episode(game, values, table, anchors, cfg,
                                  np.random.default_rng(0), no_visits(game), {})
    assert states[0] == game.initial_state
    assert len(states) <= game.horizon and len(actions) == len(states)
    assert np.any(values[0] != 0.0)


def test_full_exploration_uniform_frequencies():
    game = small_fixture()
    anchors = uniform_anchors(game)
    cfg = singleton_config(nash_explore=1.0, search_iterations=4)
    values = zero_array(game)
    table = anchors.copy()
    rng = np.random.default_rng(1)
    counts = np.zeros(2)
    n = 0
    for _ in range(1500):
        _, actions = run_episode(game, values, table, anchors, cfg, rng,
                                 no_visits(game), {})
        for joint in actions:
            counts[joint[0]] += 1
            n += 1
    freq = counts[0] / n
    sigma = np.sqrt(0.25 / n)
    assert abs(freq - 0.5) <= 3 * sigma


def test_best_response_mode_opponents_play_anchor():
    game = small_fixture()
    anchors = padded_table(game, {
        (s, i): np.array([0.8, 0.2]) if i == 1 else uniform_policy(2)
        for s in range(game.state_count) for i in range(2)
    })
    cfg = singleton_config(types=BEST_RESPONSE)
    values = zero_array(game)
    table = anchors.copy()
    searches = {}
    states, _ = run_episode(game, values, table, anchors, cfg,
                            np.random.default_rng(2), no_visits(game), searches)
    assert searches.keys() == set(states)
    for s in states:
        np.testing.assert_array_equal(searches[s][1][1], anchors[s, 1])


def test_episode_determinism():
    game = small_fixture()
    anchors = uniform_anchors(game)

    def run():
        cfg = singleton_config(search_iterations=32)
        values = zero_array(game)
        table = anchors.copy()
        rng = np.random.default_rng(7)
        visits = no_visits(game)
        recs = [run_episode(game, values, table, anchors, cfg, rng, visits, {})
                for _ in range(5)]
        return recs, values

    a, va = run()
    b, vb = run()
    assert a == b
    np.testing.assert_array_equal(va, vb)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.integers(1, 4),
       st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)))
def test_policy_table_top_k_is_the_anchors_top_k(seed, dirichlet, top_k, step):
    """At every visit during training, the `top_k` actions the policy table
    ranks highest (stable, the lower index winning ties) are those the
    anchors rank highest, which the search is restricted to."""
    game = make_random_markov(seed=seed, state_count=4, player_count=2,
                              actions_per_player=4, horizon=3, gamma=1.0,
                              zero_sum=True)
    rng = np.random.default_rng(seed)
    anchors = uniform_anchors(game)
    if dirichlet:
        anchors = np.array([[rng.dirichlet(np.ones(4)) for _ in range(2)]
                            for _ in range(game.state_count)])
    cfg = singleton_config(search_iterations=4, episodes=10, seed=seed,
                           top_k=top_k, policy_step=step)
    values, table, visited = zero_array(game), anchors.copy(), []
    search = rl._search

    def record_stage(game, states, values):
        visited.append(*states)
        return stage_payoffs(game, states, values)

    def top(p):
        return set(np.argsort(-p, kind="stable")[:top_k].tolist())

    def check_top_k(stage, st_anchors, types, k, iterations):
        assert k == top_k
        sigma = search(stage, st_anchors, types, k, iterations)
        for i, (anchor, p) in enumerate(zip(st_anchors, sigma)):
            assert top(table[visited[-1], i]) == top(anchor)
            assert set(np.flatnonzero(p).tolist()) <= top(anchor)
        return sigma

    rng, visits = np.random.default_rng(seed), no_visits(game)
    with mock.patch.object(rl, "_search", check_top_k), \
            mock.patch.object(rl, "stage_payoffs", record_stage):
        for _ in range(cfg.episodes):
            run_episode(game, values, table, anchors, cfg, rng, visits, {})
    assert visits.sum() == len(visited)


def test_run_episode_needs_types_per_player():
    game = small_fixture()
    anchors = uniform_anchors(game)
    cfg = singleton_config(types=(TypeDistribution.singleton(0.5),))
    with pytest.raises(ValueError, match="one type distribution per player"):
        run_episode(game, zero_array(game), anchors.copy(), anchors, cfg,
                    np.random.default_rng(0), no_visits(game), {})


# ------------------------------------------------------------ search cache

def _episodes(game, anchors, cfg, searches):
    """cfg.episodes episodes as `train` plays them, with the given cache, or
    with a fresh one per episode, which searches at every visit, when
    `searches` is None: the values, policy table and visit counts, each
    episode's `(states, actions)`, and the sigma of every visit, as
    `nashv_update` receives it."""
    values, table, visits, sigmas = zero_array(game), anchors.copy(), no_visits(game), []
    rng = np.random.default_rng(cfg.seed)
    update = rl.nashv_update

    def record_sigma(values, s, sigma, payoffs, alpha):
        sigmas.append(sigma)
        update(values, s, sigma, payoffs, alpha)

    with mock.patch.object(rl, "nashv_update", record_sigma):
        records = [run_episode(game, values, table, anchors, cfg, rng, visits,
                               {} if searches is None else searches)
                   for _ in range(cfg.episodes)]
    return values, table, visits, records, sigmas


def _assert_same_runs(a, b):
    (va, ta, ca, ra, sa), (vb, tb, cb, rb, sb) = a, b
    assert np.array_equal(va, vb) and np.array_equal(ta, tb)
    assert np.array_equal(ca, cb)
    assert ra == rb
    assert len(sa) == len(sb) == sum(len(states) for states, _ in ra)
    for sx, sy in zip(sa, sb):
        assert len(sx) == len(sy)
        assert all(np.array_equal(p, q) for p, q in zip(sx, sy))


CACHE_CASES = {
    "constant alpha": dict(),
    "harmonic alpha": dict(alpha_harmonic=True),
    "top_k": dict(top_k=2, policy_step=0.5),
    "best_response": dict(types=BEST_RESPONSE),
}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(sorted(CACHE_CASES)),
       st.sampled_from([(0.5,), (0.1, 1.0)]))
def test_search_cache_matches_uncached(seed, case, lambdas):
    """Episodes that share a search cache equal episodes that search at every
    visit: values, policy table, visit counts and every record."""
    game = make_random_markov(seed=seed, state_count=4, player_count=2,
                              actions_per_player=3, horizon=2, gamma=1.0,
                              zero_sum=True)
    anchors = uniform_anchors(game)
    cfg = singleton_config(search_iterations=8, episodes=12, seed=seed,
                           **{"types": (TypeDistribution.uniform(lambdas),) * 2,
                              **CACHE_CASES[case]})
    uncached = _episodes(game, anchors, cfg, None)
    with mock.patch.object(rl, "search_state", wraps=rl.search_state) as spy:
        cached = _episodes(game, anchors, cfg, {})
    _assert_same_runs(uncached, cached)
    visits = sum(len(states) for states, _ in cached[3])
    assert spy.call_count < visits  # last-layer stages never change


def test_train_with_cache_matches_uncached_loop():
    """`train`, which caches, equals the uncached episode loop with the
    oracle metrics taken at the same checkpoints."""
    game = small_fixture()
    anchors = uniform_anchors(game)
    oracle_values, oracle_profiles = solve_markov_backward(
        game, anchors, (0.5, 0.5))
    cfg = singleton_config(episodes=20, checkpoint_every=5, alpha_harmonic=True)
    values, table, metrics = train(game, anchors, cfg, oracle_values,
                                   oracle_profiles)
    ref_values, ref_table = zero_array(game), anchors.copy()
    rng, visits, ref_metrics = np.random.default_rng(cfg.seed), no_visits(game), []
    for ep in range(1, cfg.episodes + 1):
        run_episode(game, ref_values, ref_table, anchors, cfg, rng,
                    visit_counts=visits, searches={})
        if ep % cfg.checkpoint_every == 0:
            ref_metrics.append({"episode": ep, **evaluate_vs_oracle(
                game, ref_values, ref_table, anchors,
                value_array(game, oracle_values), oracle_profiles)})
    assert metrics == ref_metrics
    assert np.array_equal(values, ref_values)
    assert np.array_equal(table, ref_table)


# The game of acceptance criterion 6, with a cheaper search.
CRITERION_6_GAME = dict(seed=42, state_count=5, player_count=2,
                        actions_per_player=3, horizon=4, gamma=1.0,
                        zero_sum=True)


@pytest.mark.parametrize("top_k", [None, 2])
def test_search_runs_once_per_key_change(top_k):
    """Each state is searched on its first visit and whenever its stage
    payoffs differ from its last visit's; each last-layer state once per
    `train` call."""
    game = make_random_markov(**CRITERION_6_GAME)
    anchors = uniform_anchors(game)
    cfg = singleton_config(search_iterations=16, episodes=40, seed=7,
                           alpha_harmonic=True, top_k=top_k)
    search, search_state = rl._search, rl.search_state
    visited = []      # the state of every visit

    def record_stage(game, states, values):
        visited.append(*states)
        return stage_payoffs(game, states, values)

    def record_key(stage, anchors, types, top_k, iterations):
        visited[-1] = (visited[-1], [u.tobytes() for u in stage.payoffs])
        return search(stage, anchors, types, top_k, iterations)

    with mock.patch.object(rl, "_search", record_key), \
            mock.patch.object(rl, "stage_payoffs", record_stage):
        _episodes(game, anchors, cfg, None)
    last, changes = {}, []    # the state of every visit whose key changed
    for s, key in visited:
        if last.get(s) != key:
            changes.append(s)
        last[s] = key
    assert len(visited) > len(changes)

    searched = []     # the state of every search in `train`

    def count_search(*args):
        searched.append(visited[-1])
        return search_state(*args)

    last_layer = [s for s in range(game.state_count)
                  if game.next_states[s] == (TERMINAL,)]
    with mock.patch.object(rl, "search_state", count_search), \
            mock.patch.object(rl, "stage_payoffs", record_stage):
        for _ in range(2):
            visited.clear()
            searched.clear()
            train(game, anchors, cfg)
            assert searched == changes
            seen = [s for s in last_layer if s in visited]
            assert seen and all(searched.count(s) == 1 for s in seen)


def test_cached_sigma_is_read_only():
    game = make_random_markov(**CRITERION_6_GAME)
    anchors = uniform_anchors(game)
    cfg = singleton_config(search_iterations=8, episodes=3, top_k=2)
    searches = {}
    _episodes(game, anchors, cfg, searches)
    assert searches
    for s, (key, sigma) in searches.items():
        assert isinstance(key, bytes)
        for p in sigma:
            assert not p.flags.writeable
            with pytest.raises(ValueError):
                p[0] = 0.5


# ---------------------------------------------------------------- training

def test_train_zero_sum_value_symmetry():
    game = small_fixture()
    cfg = singleton_config(episodes=30)
    values, table, metrics = train(game, uniform_anchors(game), cfg)
    for s in range(game.state_count):
        v = values[s]
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
        assert np.max(np.abs(values[s])) <= bound


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
    assert values[0][0] == pytest.approx(v_star, abs=0.01)


# -------------------------------------------------------------- evaluation

def test_evaluate_vs_oracle_zero_errors_at_oracle():
    game = small_fixture()
    anchors = uniform_anchors(game)
    oracle_values, oracle_profiles = solve_markov_backward(
        game, anchors, (0.5, 0.5))
    values = value_array(game, oracle_values)
    table = anchors.copy()
    for s, prof in oracle_profiles.items():
        for i in range(2):
            table[s, i] = prof.policies[i][0.5]
    out = evaluate_vs_oracle(game, values, table, anchors, values.copy(),
                             oracle_profiles)
    assert out["max_value_error"] == pytest.approx(0.0, abs=1e-12)
    assert out["mean_policy_kl"] == pytest.approx(0.0, abs=1e-10)
    assert out["mean_exploitability"] == pytest.approx(0.0, abs=1e-8)


def test_evaluate_vs_oracle_zero_table_error_magnitude():
    game = small_fixture()
    anchors = uniform_anchors(game)
    oracle_values, _ = solve_markov_backward(game, anchors, (0.5, 0.5))
    out = evaluate_vs_oracle(game, zero_array(game), anchors.copy(), anchors,
                             value_array(game, oracle_values))
    expect = max(float(np.max(np.abs(v))) for v in oracle_values.values())
    assert out["max_value_error"] == pytest.approx(expect, abs=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        singleton_config(nash_explore=1.5)
    with pytest.raises(ValueError):
        singleton_config(search_iterations=0)


@pytest.mark.parametrize("field, value", [
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
