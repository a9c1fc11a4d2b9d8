"""The oracle's and RL evaluation's array passes against their per-state
definitions, under exact equality.

Each `ref_*` function is the per-state code the array passes replaced, kept
here as the reference: stage payoffs accumulated one successor at a time,
backward induction with one stage game and one profile value per state,
`regularized_exploitability` and `kl_divergence` of one state, and the
per-state checkpoint metrics of `evaluate_vs_oracle`.  The random Markov
games are layered and ragged: states of one layer draw their action counts
from a few shapes (one action included) and their successors from subsets of
the next layer, TERMINAL among them, so a layer splits into several stage
groups.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from anchored import (INF, NormalFormGame, RegularizedProfile, TabularMarkovGame,
                      TypeDistribution, evaluate_markov_profile, evaluate_vs_oracle,
                      kl_divergence, regularized_exploitability, sbr_value,
                      solve_markov_backward)
from anchored import oracle
from anchored.games import TERMINAL
from anchored.oracle import stage_game_from_values, stage_payoffs
from helpers import padded_table, tensordot_utility_vector, value_array
from test_oracle_kernel import reference_profile_value


def ref_kl(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    p, q = p[p > 0], q[p > 0]
    if np.any(q <= 0):
        raise ValueError("q has zero mass where p is positive")
    with np.errstate(over="ignore", under="ignore"):
        logs = np.log(p / q)
    far = ~np.isfinite(logs)
    logs[far] = np.log(p[far]) - np.log(q[far])
    return float(np.sum(p * logs))


def ref_sbr(u, anchor, lam) -> float:
    if lam == INF:
        return float(u @ anchor)
    z = np.log(anchor) + u / lam
    m = z.max()
    return float(lam * (m + math.log(np.sum(np.exp(z - m)))))


def ref_exploitability(game: NormalFormGame, anchors, types, profile) -> float:
    """Per-state exploitability, with lam = inf times a zero KL counting 0
    and the unregularized best-response gain at lam = 0."""
    mixtures = [profile.mixture(0), profile.mixture(1)]
    u_vecs = [tensordot_utility_vector(game, i, mixtures) for i in range(2)]
    gap = 0.0
    for i in range(2):
        for lam, w in zip(types[i].lambdas, types[i].weights):
            pol = profile.policies[i][lam]
            achieved = float(u_vecs[i] @ pol)
            if lam == 0:
                best = float(np.max(u_vecs[i]))
            else:
                kl = ref_kl(pol, anchors[i])
                achieved -= lam * kl if kl else 0.0
                best = ref_sbr(u_vecs[i], anchors[i], lam)
            gap += w * (best - achieved)
    return max(gap, 0.0)


def ref_stage(game: TabularMarkovGame, s: int, values) -> np.ndarray:
    rewards, probs = game.R[s], game.T[s]
    lift = (slice(None),) + (None,) * (rewards.ndim - 1)
    cont = np.zeros(rewards.shape)
    for k, s2 in enumerate(game.next_states[s]):
        if s2 != TERMINAL:
            cont += np.asarray(values[s2], dtype=float)[lift] * probs[..., k]
    return rewards + game.gamma * cont


def ref_stage_game(game, s, values) -> NormalFormGame:
    return NormalFormGame(game.action_counts[s], tuple(ref_stage(game, s, values)),
                          payoff_bound=game.stage_bound, zero_sum=game.zero_sum)


def ref_backward(game, anchors, lambdas, tol=1e-10):
    """Per-state stage games and profile values; one kernel call per
    (layer, action-count shape)."""
    types = tuple(TypeDistribution.singleton(l) for l in lambdas)
    values, profiles = {}, {}
    for layer in game.layers:
        stages = {s: ref_stage_game(game, s, values) for s in layer}
        groups: dict = {}
        for s in layer:
            groups.setdefault(game.action_counts[s], []).append(s)
        solved = {}
        for group in groups.values():
            solved.update(zip(group, oracle._newton_equilibria(
                [np.stack([stages[s].payoffs[i] for s in group]) for i in range(2)],
                [np.stack([anchors[(s, i)] for s in group], dtype=float)
                 for i in range(2)],
                types, tol)[0]))
        for s in layer:
            profile = solved[s]
            values[s] = reference_profile_value(stages[s], [profile.mixture(0),
                                                            profile.mixture(1)])
            profiles[s] = profile
    return values, profiles


def ref_evaluate(game, values, policy_table, anchors, oracle_values,
                 oracle_profiles) -> dict:
    errs = [float(np.max(np.abs(values[s] - oracle_values[s])))
            for s in range(game.state_count)]
    kls, gaps = [], []
    for s, profile in oracle_profiles.items():
        stage = ref_stage_game(game, s, oracle_values)
        learned = RegularizedProfile(
            tuple({lam: policy_table[(s, i)] for lam in profile.types[i].lambdas}
                  for i in range(2)), profile.types)
        gaps.append(ref_exploitability(stage, [anchors[(s, i)] for i in range(2)],
                                       profile.types, learned))
        for i in range(2):
            for lam in profile.types[i].lambdas:
                kls.append(ref_kl(profile.policies[i][lam], policy_table[(s, i)]))
    return {"max_value_error": max(errs), "mean_value_error": float(np.mean(errs)),
            "mean_policy_kl": float(np.mean(kls)),
            "mean_exploitability": float(np.mean(gaps))}


def ragged_game(rng, layer_sizes, players=2) -> TabularMarkovGame:
    """A layered game whose states draw action counts from a few shapes and
    successors from subsets of the next layer (and TERMINAL), in a shuffled
    order; zero-sum with two players."""
    shapes = ([(2, 2), (3, 2), (2, 3), (1, 3), (3, 3)] if players == 2
              else [(2, 2, 2), (1, 2, 3), (3, 1, 2)])
    starts = np.cumsum((0,) + tuple(layer_sizes))
    n = int(starts[-1])
    counts = [shapes[int(rng.integers(len(shapes)))] for _ in range(n)]
    rewards, succs, probs = [], [], []
    for li, size in enumerate(layer_sizes):
        later = list(range(starts[li + 1], starts[li + 2])) \
            if li + 1 < len(layer_sizes) else []
        for s in range(starts[li], starts[li] + size):
            nxt = [s2 for s2 in later if rng.random() < 0.6]
            if not nxt or rng.random() < 0.3:
                nxt.append(TERMINAL)
            nxt = [int(x) for x in rng.permutation(nxt)]
            w = rng.uniform(0.05, 1.0, size=(*counts[s], len(nxt)))
            probs.append(w / w.sum(axis=-1, keepdims=True))
            if players == 2:
                x = rng.uniform(-1.0, 1.0, size=counts[s])
                rewards.append(np.stack([x, -x]))
            else:
                rewards.append(rng.uniform(-1.0, 1.0, size=(players, *counts[s])))
            succs.append(tuple(nxt))
    return TabularMarkovGame(
        player_count=players, state_count=n, action_counts=tuple(counts),
        R=tuple(rewards), next_states=tuple(succs), T=tuple(probs),
        gamma=float(rng.uniform(0.5, 1.0)), horizon=len(layer_sizes),
        zero_sum=players == 2)


def bounded_values(rng, game) -> dict:
    """Random value vectors within `max_return`, zero-sum in a zero-sum game,
    so every stage game respects its bound and sum."""
    values = {}
    for s in range(game.state_count):
        v = rng.uniform(-1.0, 1.0, size=game.player_count) * game.max_return()
        values[s] = np.array([v[0], -v[0]]) if game.zero_sum else v
    return values


def with_zeros(rng, p, share=0.4):
    """`p` with entries zeroed at random (never all), renormalized."""
    p = np.array(p, dtype=float)
    drop = rng.random(len(p)) < share
    drop[int(rng.integers(len(p)))] = False
    p[drop] = 0.0
    return p / p.sum()


games = st.tuples(st.integers(0, 2 ** 32 - 1),
                  st.lists(st.integers(1, 6), min_size=1, max_size=4))


@settings(max_examples=60, deadline=None)
@given(games, st.sampled_from([2, 3]))
def test_stage_payoffs_match_per_state_reference(case, players):
    seed, sizes = case
    rng = np.random.default_rng(seed)
    game = ragged_game(rng, sizes, players)
    values = bounded_values(rng, game)
    for layer in game.layers:
        groups = game.stage_groups(layer)
        assert sorted(s for g in groups for s in g) == list(layer)
        for group in groups:
            stack = stage_payoffs(game, group, value_array(game, values))
            for s, payoffs in zip(group, stack):
                ref = ref_stage(game, s, values)
                assert np.array_equal(payoffs, ref)
                single = stage_game_from_values(game, s, values)
                assert all(np.array_equal(u, r) for u, r in zip(single.payoffs, ref))


@settings(max_examples=40, deadline=None)
@given(games)
def test_backward_matches_per_state_reference(case):
    seed, sizes = case
    rng = np.random.default_rng(seed)
    game = ragged_game(rng, sizes)
    anchors = {(s, i): rng.dirichlet(np.ones(game.action_counts[s][i]))
               for s in range(game.state_count) for i in range(2)}
    lambdas = (float(rng.choice([0.1, 0.5, 1.0])), float(rng.choice([0.2, 2.0])))
    values, profiles = solve_markov_backward(game, padded_table(game, anchors), lambdas)
    ref_values, ref_profiles = ref_backward(game, anchors, lambdas)
    assert list(values) == list(ref_values) == [s for l in game.layers for s in l]
    assert list(profiles) == list(ref_profiles)
    for s in values:
        assert np.array_equal(values[s], ref_values[s])
        a, b = profiles[s], ref_profiles[s]
        assert (a.iterations, a.residual, a.converged) == \
            (b.iterations, b.residual, b.converged)
        for i in range(2):
            assert a.policies[i].keys() == b.policies[i].keys()
            assert all(np.array_equal(a.policies[i][lam], b.policies[i][lam])
                       for lam in a.policies[i])


@settings(max_examples=60, deadline=None)
@given(games, st.sampled_from([2, 3]))
def test_evaluate_markov_profile_matches_per_state_reference(case, players):
    seed, sizes = case
    rng = np.random.default_rng(seed)
    game = ragged_game(rng, sizes, players)
    policies = {(s, i): with_zeros(rng, rng.dirichlet(np.ones(n)))
                for s, counts in enumerate(game.action_counts)
                for i, n in enumerate(counts)}
    values = evaluate_markov_profile(game, padded_table(game, policies))
    ref: dict = {}
    for s in (s for layer in game.layers for s in layer):
        stage = NormalFormGame(game.action_counts[s], tuple(ref_stage(game, s, ref)),
                               payoff_bound=game.stage_bound)
        ref[s] = reference_profile_value(stage, [policies[(s, i)]
                                                 for i in range(players)])
    assert np.array_equal(values, value_array(game, ref))


SUPPORTS = [(0.5,), (0.1, 1.0), (0.05, 0.3, 2.0)]


@settings(max_examples=60, deadline=None)
@given(games, st.sampled_from(SUPPORTS), st.sampled_from(SUPPORTS),
       st.booleans())
def test_evaluate_vs_oracle_matches_per_state_reference(case, lams0, lams1, drift):
    """Multi-type oracle profiles with exact zeros (the p > 0 mask of the
    KL), learned policies with zeros and subnormal entries (the KL's
    log-difference branch), any state order of the profiles."""
    seed, sizes = case
    rng = np.random.default_rng(seed)
    game = ragged_game(rng, sizes)
    types = (TypeDistribution.uniform(lams0), TypeDistribution.uniform(lams1))
    anchors = {(s, i): rng.dirichlet(np.ones(n))
               for s, counts in enumerate(game.action_counts)
               for i, n in enumerate(counts)}
    oracle_values = bounded_values(rng, game)
    values = {s: v + drift * rng.normal(size=2) for s, v in oracle_values.items()}
    profiles = {}
    for s in (int(x) for x in rng.permutation(game.state_count)):
        profiles[s] = RegularizedProfile(tuple(
            {lam: with_zeros(rng, rng.dirichlet(np.ones(n))) for lam in td.lambdas}
            for td, n in zip(types, game.action_counts[s])), types)
    table = {}
    for (s, i), a in anchors.items():
        p = rng.dirichlet(np.ones(len(a)))
        if len(p) > 1 and rng.random() < 0.3:
            p[int(rng.integers(len(p)))] = 5e-324
        # A zero only where no oracle type puts mass keeps every KL finite.
        unused = np.all([profiles[s].policies[i][lam] == 0
                         for lam in types[i].lambdas], axis=0)
        p[unused & (rng.random(len(p)) < 0.5)] = 0.0
        table[(s, i)] = p
    arrays = (value_array(game, values), padded_table(game, table),
              padded_table(game, anchors), value_array(game, oracle_values))
    got = evaluate_vs_oracle(game, *arrays, profiles)
    ref = ref_evaluate(game, values, table, anchors, oracle_values, profiles)
    assert got == ref
    assert evaluate_vs_oracle(game, *arrays) == {
        k: ref[k] for k in ("max_value_error", "mean_value_error")}


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 9), st.integers(1, 9),
       st.integers(1, 6),
       st.lists(st.sampled_from([0.0, 1e-3, 0.1, 0.5, 2.0, INF]), min_size=1,
                max_size=3, unique=True),
       st.lists(st.sampled_from([0.0, 0.1, 1.0, INF]), min_size=1, max_size=3,
                unique=True))
def test_exploitability_stack_matches_per_state(seed, n0, n1, batch, lams0, lams1):
    """Every lambda class (0, finite, inf) and policies at the anchor (a zero
    KL) or with zeros."""
    rng = np.random.default_rng(seed)
    types = (TypeDistribution.uniform(lams0), TypeDistribution.uniform(lams1))
    stages, profiles, anchors = [], [], []
    for _ in range(batch):
        x = rng.uniform(-1.0, 1.0, size=(n0, n1))
        stages.append(NormalFormGame((n0, n1), (x, -x), payoff_bound=1.0,
                                     zero_sum=True))
        anchors.append([rng.dirichlet(np.ones(n)) for n in (n0, n1)])
        profiles.append(RegularizedProfile(tuple(
            {lam: (anchors[-1][i] if rng.random() < 0.3
                   else with_zeros(rng, rng.dirichlet(np.ones(n))))
             for lam in td.lambdas}
            for i, (td, n) in enumerate(zip(types, (n0, n1)))), types))
    got = oracle._exploitabilities(
        np.stack([np.array(g.payoffs) for g in stages]),
        [np.stack([a[i] for a in anchors]) for i in range(2)], types,
        [[np.stack([p.policies[i][lam] for p in profiles]) for lam in td.lambdas]
         for i, td in enumerate(types)])
    ref = [ref_exploitability(g, a, types, p)
           for g, a, p in zip(stages, anchors, profiles)]
    assert got.tolist() == ref
    assert [regularized_exploitability(g, a, types, p)
            for g, a, p in zip(stages, anchors, profiles)] == ref


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 20), st.integers(1, 14))
def test_kl_and_sbr_rows_match_scalar_reference(seed, batch, n):
    """Rows with zeros of p wider than numpy's 8-wide summation block, an
    all-zero p, subnormal p and q entries."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n), size=batch)
    q = rng.dirichlet(np.ones(n), size=batch)
    p[rng.random(p.shape) < 0.3] = 0.0
    q[rng.random(q.shape) < 0.1] = 5e-324
    p[rng.random(p.shape) < 0.05] = 5e-324
    p[0] = 0.0 if rng.random() < 0.2 else p[0]
    q[p == 0] *= rng.random() < 0.5    # q may vanish where p does
    got = oracle._kl_rows(p, q).tolist()
    assert got == [ref_kl(a, b) for a, b in zip(p, q)]
    assert got == [kl_divergence(a, b) for a, b in zip(p, q)]
    u = rng.uniform(-1.0, 1.0, size=(batch, n))
    anchor = rng.dirichlet(np.ones(n), size=batch)
    for lam in (1e-3, 0.1, 1.0, INF):
        ref = [ref_sbr(a, b, lam) for a, b in zip(u, anchor)]
        assert oracle._sbr_values(u, anchor, lam).tolist() == ref
        assert [sbr_value(a, b, lam) for a, b in zip(u, anchor)] == ref


def test_sbr_rows_take_the_scalar_log():
    """`np.log` of an array rounds about 1 in 500 partition sums differently
    from `math.log`; thousands of rows show it."""
    rng = np.random.default_rng(0)
    u = rng.uniform(-1.0, 1.0, size=(4000, 3))
    anchor = rng.dirichlet(np.ones(3), size=4000)
    for lam in (0.1, 1.0):
        assert oracle._sbr_values(u, anchor, lam).tolist() == [
            ref_sbr(a, b, lam) for a, b in zip(u, anchor)]
