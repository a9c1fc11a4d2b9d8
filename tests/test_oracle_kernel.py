"""The batched Newton kernel for the regularized equilibrium against the
damped fixed point it replaced.

`reference_bne` is the per-(player, type) damped iteration that
`solve_regularized_bne` ran before the array kernels, and
`reference_backward` is backward induction with one reference solve per state
in the old topological order; both are kept verbatim apart from their names.
The kernel must reach regularized exploitability <= 1e-12 and agree with a
reference that converged at tol 1e-12 to within 1e-9; a game solved in a
batch must return exactly what it returns when solved alone.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anchored import (INF, NormalFormGame, RegularizedProfile, TabularMarkovGame,
                      TypeDistribution, make_builtin_game, make_random_markov,
                      smooth_best_response, solve_markov_backward,
                      solve_regularized_bne, uniform_policy)
from anchored import oracle
from anchored.cli import main
from anchored.games import TERMINAL
from anchored.oracle import (regularized_exploitability, stage_game_from_values,
                             uniform_anchors)
from helpers import padded_table, tensordot_utility_vector


def _player_utility_vectors(game: NormalFormGame, mixtures):
    """Utility vector of each player against the other players' mixtures."""
    return [tensordot_utility_vector(game, i, mixtures) for i in range(game.player_count)]


def reference_bne(game: NormalFormGame, anchors, types,
                  tol: float = 1e-10, max_iters: int = 100000,
                  damping: float = 0.5,
                  init: str = "anchor") -> RegularizedProfile:
    if game.player_count != 2 or not game.zero_sum:
        raise ValueError("requires a two-player zero-sum game")
    types = tuple(types)
    anchors = [np.asarray(a, dtype=float) for a in anchors]
    for td in types:
        if any(l <= 0 or l == INF for l in td.lambdas):
            raise ValueError("all lambda values must be finite and > 0")
    if init == "anchor":
        policies = [dict((lam, anchors[i].copy()) for lam in types[i].lambdas)
                    for i in range(2)]
    elif init == "uniform":
        policies = [dict((lam, uniform_policy(game.action_counts[i]))
                         for lam in types[i].lambdas) for i in range(2)]
    else:
        raise ValueError(f"unknown init {init!r}")
    profile = RegularizedProfile(tuple(policies), types)
    delta = damping
    best_residual = INF
    stale = 0
    residual = INF
    for it in range(1, max_iters + 1):
        mixtures = [profile.mixture(0), profile.mixture(1)]
        u_vecs = _player_utility_vectors(game, mixtures)
        residual = 0.0
        targets = [{}, {}]
        for i in range(2):
            for lam in types[i].lambdas:
                target = smooth_best_response(u_vecs[i], anchors[i], lam)
                targets[i][lam] = target
                residual = max(residual, float(np.max(np.abs(target - policies[i][lam]))))
        if residual < tol:
            profile.iterations = it
            profile.residual = residual
            profile.converged = True
            return profile
        for i in range(2):
            for lam in types[i].lambdas:
                policies[i][lam] = (1 - delta) * policies[i][lam] + delta * targets[i][lam]
        if residual < best_residual:
            best_residual = residual
            stale = 0
        else:
            stale += 1
            if stale >= 50:
                delta *= 0.5
                stale = 0
    profile.iterations = max_iters
    profile.residual = residual
    profile.converged = False
    return profile


def reference_order(game: TabularMarkovGame) -> list[int]:
    """States ordered so every successor appears earlier; raises on cycles."""
    resolved = {TERMINAL}
    order: list[int] = []
    remaining = set(range(game.state_count))
    while remaining:
        ready = sorted(s for s in remaining
                       if resolved.issuperset(game.next_states[s]))
        if not ready:
            raise ValueError("state graph has a cycle; backward induction undefined")
        order += ready
        resolved.update(ready)
        remaining.difference_update(ready)
    return order


def reference_profile_value(stage: NormalFormGame, profile) -> np.ndarray:
    """Each player's expected payoff when every player follows `profile`."""
    return np.array([float(tensordot_utility_vector(stage, i, profile) @ profile[i])
                     for i in range(stage.player_count)])


def reference_backward(game: TabularMarkovGame, anchors, lambdas,
                       tol: float = 1e-10):
    if game.player_count != 2 or not game.zero_sum:
        raise ValueError("requires a two-player zero-sum Markov game")
    types = tuple(TypeDistribution.singleton(l) for l in lambdas)
    values: dict = {}
    profiles: dict = {}
    for s in reference_order(game):
        stage = stage_game_from_values(game, s, values)
        st_anchors = [anchors[(s, 0)], anchors[(s, 1)]]
        profile = reference_bne(stage, st_anchors, types, tol=tol)
        if not profile.converged:
            raise RuntimeError(
                f"equilibrium solve failed at state {s}: residual {profile.residual}")
        values[s] = reference_profile_value(stage, [profile.mixture(0),
                                                    profile.mixture(1)])
        profiles[s] = profile
    return values, profiles


def assert_same_profile(a, b):
    assert (a.iterations, a.residual, a.converged) == \
        (b.iterations, b.residual, b.converged)
    assert a.types == b.types
    for x, y in zip(a.policies, b.policies):
        assert list(x) == list(y)
        for lam in x:
            assert np.array_equal(x[lam], y[lam])


def assert_close_profile(a, b, atol=1e-9):
    assert a.types == b.types
    for x, y in zip(a.policies, b.policies):
        assert list(x) == list(y)
        for lam in x:
            np.testing.assert_allclose(x[lam], y[lam], rtol=0, atol=atol)


# Lambdas from 0.01, where the damped iteration stalls, to 2.0.
LAMBDAS = (0.01, 0.05, 0.1, 0.3, 0.5, 2.0)
# Damped sweeps after which the reference counts as not converged here; the
# 1e-9 agreement is checked only where it converged.
REFERENCE_SWEEPS = 3000


@st.composite
def stage_batches(draw, max_batch=1):
    counts = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    types = []
    for _ in range(2):
        lams = sorted(draw(st.sets(st.sampled_from(LAMBDAS), min_size=1,
                                   max_size=3)))
        mass = [draw(st.integers(1, 5)) for _ in lams]
        types.append(TypeDistribution(tuple(lams),
                                      tuple(m / sum(mass) for m in mass)))
    games = []
    for _ in range(draw(st.integers(1, max_batch))):
        a = rng.uniform(-1.0, 1.0, size=counts)
        games.append((NormalFormGame(counts, (a, -a), payoff_bound=1.0,
                                     zero_sum=True),
                       [rng.dirichlet(np.ones(n)) for n in counts]))
    return {
        "games": games,
        "types": tuple(types),
        "tol": draw(st.sampled_from([1e-10, 1e-6])),
    }


@settings(max_examples=150, deadline=None)
@given(stage_batches())
def test_solve_regularized_bne_matches_reference(case):
    (game, anchors), = case["games"]
    types = case["types"]
    got = solve_regularized_bne(game, anchors, types)
    assert got.converged
    assert regularized_exploitability(game, anchors, types, got) <= 1e-12
    ref = reference_bne(game, anchors, types, tol=1e-12,
                        max_iters=REFERENCE_SWEEPS)
    if ref.converged:
        assert_close_profile(got, ref)


def batched(games, types, tol=1e-10):
    return oracle._newton_equilibria(
        [np.stack([g.payoffs[i] for g, _ in games]) for i in range(2)],
        [np.stack([a[i] for _, a in games]) for i in range(2)], types, tol)[0]


@settings(max_examples=60, deadline=None)
@given(stage_batches(max_batch=5))
def test_batched_kernel_matches_per_game_reference(case):
    """Games of one batch take different step sizes and converge at
    different steps; each returns what it returns when solved alone."""
    games = case["games"]
    got = batched(games, case["types"], case["tol"])
    assert len(got) == len(games)
    for profile, (game, anchors) in zip(got, games):
        assert_same_profile(profile, solve_regularized_bne(
            game, anchors, case["types"], tol=case["tol"]))


def test_batch_with_different_step_counts():
    """Three games that converge after different numbers of Newton steps,
    batched: the first to converge is frozen, not moved, by later steps."""
    anchors = [np.linspace(1, 2, 3) / np.linspace(1, 2, 3).sum()] * 2
    games = [(make_builtin_game("random_zero_sum", {"seed": s, "actions": (3, 3)}),
              anchors) for s in (3, 4, 5)]
    types = (TypeDistribution.uniform([0.01, 0.05]),) * 2
    got = batched(games, types)
    for profile, (game, _) in zip(got, games):
        assert profile.converged
        assert_same_profile(profile, solve_regularized_bne(game, anchors, types))
    assert len({p.iterations for p in got}) > 1


# -------------------------------------------- stalled damping, non-convergence

FOUND_ANCHORS = {"matching_pennies": [[0.7, 0.3], [0.5, 0.5]],
                 "rock_paper_scissors": [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]}


@pytest.mark.parametrize("builtin", sorted(FOUND_ANCHORS))
def test_run_oracle_small_lambda_converges(tmp_path, capsys, builtin):
    """At lambda = 0.01 the damped iteration halved its damping until the
    iterate stopped moving and exited 3 after 100000 sweeps."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "kind": "oracle", "game": {"builtin": builtin},
        "oracle": {"types": [0.01], "anchors": FOUND_ANCHORS[builtin]}}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "out" / "oracle.json").read_text())
    assert doc["converged"] and doc["iterations"] <= 20
    assert doc["exploitability"] <= 1e-12


def test_backward_induction_small_lambda():
    """40 states, 3 actions, horizon 4 at lambda = 0.01: the damped solve
    raised here at lambda = 0.02."""
    game = make_random_markov(seed=5, state_count=40, player_count=2,
                              actions_per_player=3, horizon=4, gamma=1.0,
                              zero_sum=True)
    anchors = uniform_anchors(game)
    types = (TypeDistribution.singleton(0.01),) * 2
    values, profiles = solve_markov_backward(game, anchors, (0.01, 0.01))
    assert len(values) == len(profiles) == 40
    for s, profile in profiles.items():
        stage = stage_game_from_values(game, s, values)
        assert regularized_exploitability(
            stage, [anchors[(s, 0)], anchors[(s, 1)]], types, profile) <= 1e-12


UNREACHABLE_TOL = {"kind": "oracle",
                   "game": {"builtin": "random_zero_sum", "params": {"seed": 3}},
                   "oracle": {"types": [0.5], "tol": 1e-300}}


def test_step_cap_returns_unconverged():
    game = make_builtin_game("random_zero_sum", {"seed": 3})
    profile = solve_regularized_bne(game, [uniform_policy(3)] * 2,
                                    (TypeDistribution.singleton(0.5),) * 2,
                                    tol=1e-300)
    assert not profile.converged
    assert profile.iterations == oracle.NEWTON_STEPS
    assert np.isfinite(profile.residual) and profile.residual < 1e-12


def test_run_oracle_unreachable_tol_exits_3(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(UNREACHABLE_TOL))
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "did not converge" in capsys.readouterr().err


# --------------------------------------------------------- backward induction

def ragged_markov(seed, layer_sizes=(1, 4, 5)):
    """A layered zero-sum Markov game in `from_dict` form whose states draw
    their action counts from a few shapes, so one layer holds several shape
    groups."""
    rng = np.random.default_rng(seed)
    shapes = [(2, 2), (3, 2), (2, 3), (1, 3)]
    starts = np.cumsum((0,) + layer_sizes)
    n = int(starts[-1])
    counts = [shapes[int(rng.integers(len(shapes)))] for _ in range(n)]
    transitions, rewards = [], []
    for li, size in enumerate(layer_sizes):
        nxt = list(range(starts[li + 1], starts[li + 2])) \
            if li + 1 < len(layer_sizes) else [TERMINAL]
        for s in range(starts[li], starts[li] + size):
            trans, rew = {}, {}
            for a in np.ndindex(*counts[s]):
                key = str(list(a))
                w = rng.uniform(0.05, 1.0, size=len(nxt))
                trans[key] = [[s2, float(p)] for s2, p in zip(nxt, w / w.sum())]
                x = float(rng.uniform(-1.0, 1.0))
                rew[key] = [x, -x]
            transitions.append(trans)
            rewards.append(rew)
    return TabularMarkovGame.from_dict({
        "players": 2, "states": n, "action_counts": [list(c) for c in counts],
        "transitions": transitions, "rewards": rewards,
        "gamma": float(rng.uniform(0.8, 1.0)), "horizon": len(layer_sizes),
        "zero_sum": True, "payoff_bound": 1.0,
    })


@pytest.mark.parametrize("seed", range(6))
def test_layer_batched_backward_matches_per_state_reference(seed):
    game = ragged_markov(seed)
    rng = np.random.default_rng(100 + seed)
    anchors = {(s, i): rng.dirichlet(np.ones(game.action_counts[s][i]))
               for s in range(game.state_count) for i in range(2)}
    lambdas = (float(rng.choice([0.1, 0.5, 1.0])), float(rng.choice([0.1, 0.5])))
    values, profiles = solve_markov_backward(game, padded_table(game, anchors), lambdas)
    ref_values, ref_profiles = reference_backward(game, anchors, lambdas,
                                                  tol=1e-12)
    assert list(values) == list(ref_values) == reference_order(game)
    assert list(profiles) == list(ref_profiles)
    for s in values:
        np.testing.assert_allclose(values[s], ref_values[s], rtol=0, atol=1e-9)
        assert_close_profile(profiles[s], ref_profiles[s])


def test_backward_induction_calls_kernel_once_per_layer_and_shape(monkeypatch):
    game = make_random_markov(seed=5, state_count=40, player_count=2,
                              actions_per_player=3, horizon=4, gamma=1.0,
                              zero_sum=True)
    calls = []
    kernel = oracle._newton_equilibria

    def counting(payoffs, *args, **kwargs):
        calls.append(len(payoffs[0]))
        return kernel(payoffs, *args, **kwargs)

    monkeypatch.setattr(oracle, "_newton_equilibria", counting)
    values, _ = solve_markov_backward(game, uniform_anchors(game), (0.5, 0.5))
    layers = game.layers
    assert len(values) == 40
    assert calls == [len(layer) for layer in layers]      # one shape per layer
    assert len(calls) == 4


def test_backward_induction_calls_kernel_once_per_shape_group(monkeypatch):
    game = ragged_markov(0)
    calls = []
    kernel = oracle._newton_equilibria

    def counting(payoffs, *args, **kwargs):
        calls.append(payoffs[0].shape)
        return kernel(payoffs, *args, **kwargs)

    monkeypatch.setattr(oracle, "_newton_equilibria", counting)
    solve_markov_backward(game, uniform_anchors(game), (0.5, 0.5))
    layers = game.layers
    expected = []
    for layer in layers:
        shapes = list(dict.fromkeys(game.action_counts[s] for s in layer))
        expected += [(sum(game.action_counts[s] == a for s in layer), *a)
                     for a in shapes]
    assert calls == expected
    assert len(calls) > len(layers)          # some layer holds several shapes


# ---------------------------------------------------------- non-finite targets

NAN_WARNINGS = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning")


@NAN_WARNINGS
def test_nan_target_is_not_convergence():
    """u / lambda overflows at lambda = 1e-320, so every smooth best response
    to anchor play is NaN: the solve stops before its first step,
    unconverged."""
    game = make_builtin_game("random_zero_sum", {"seed": 3})
    types = (TypeDistribution.singleton(1e-320),) * 2
    profile = solve_regularized_bne(game, [uniform_policy(3)] * 2, types)
    assert not profile.converged
    assert profile.iterations == 0
    assert np.isnan(profile.residual)


def test_nan_state_leaves_batch_alone():
    """A NaN game in a batch stops unconverged; the others are unaffected."""
    games = [make_builtin_game("random_zero_sum", {"seed": s}) for s in (3, 4)]
    anchors = [np.stack([uniform_policy(3)] * 2) for _ in range(2)]
    payoffs = [np.stack([g.payoffs[i] for g in games]) for i in range(2)]
    payoffs[0][1, 0, 0] = np.nan
    types = (TypeDistribution.singleton(0.5),) * 2
    (first, second), _ = oracle._newton_equilibria(payoffs, anchors, types)
    assert first.converged
    assert_same_profile(first, solve_regularized_bne(
        games[0], [uniform_policy(3)] * 2, types))
    assert not second.converged and second.iterations == 0
    assert np.isnan(second.residual)


@NAN_WARNINGS
@pytest.mark.parametrize("scale", [1e150, 1e200])
def test_overflowing_game_leaves_batch_alone(scale):
    """A game so large that u / lambda overflows ends unconverged, also when
    its Newton system is singular (at 1e200); the other game of its batch is
    unaffected."""
    games = [make_builtin_game("random_zero_sum", {"seed": s}) for s in (3, 4)]
    anchors = [np.stack([uniform_policy(3)] * 2) for _ in range(2)]
    payoffs = [np.stack([g.payoffs[i] for g in games]) for i in range(2)]
    for u in payoffs:
        u[1] *= scale
    types = (TypeDistribution.singleton(0.1),) * 2
    (first, second), _ = oracle._newton_equilibria(payoffs, anchors, types)
    assert_same_profile(first, solve_regularized_bne(
        games[0], [uniform_policy(3)] * 2, types))
    assert not second.converged


@NAN_WARNINGS
def test_overflowing_merit_stops_the_game():
    """At 1e307 the merit |F|^2 overflows to inf, under which the Armijo
    test accepts every trial step: the game stops within one step,
    unconverged, instead of running all `NEWTON_STEPS`."""
    game = make_builtin_game("random_zero_sum", {"seed": 3})
    big = NormalFormGame(game.action_counts, tuple(u * 1e307 for u in game.payoffs),
                         payoff_bound=game.payoff_bound * 1e307, zero_sum=True)
    profile = solve_regularized_bne(big, [uniform_policy(3)] * 2,
                                    (TypeDistribution.singleton(0.1),) * 2)
    assert profile.iterations <= 1 and not profile.converged


@NAN_WARNINGS
def test_run_oracle_nan_target_exits_3(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "kind": "oracle",
        "game": {"builtin": "random_zero_sum", "params": {"seed": 3}},
        "oracle": {"types": [1e-320]}}))
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "residual nan" in capsys.readouterr().err


# -------------------------------------------------------------- golden digests

# sha256 of oracle.json, taken from the Newton kernel.
ORACLE_GOLDEN = {
    "markov-40": (
        {"random_markov": {"seed": 11, "states": 40, "actions": 3,
                           "horizon": 4, "zero_sum": True}},
        {"lambdas": [0.5, 0.5]},
        "8b4ca974caa7a468685850f20e45b8f39fff3ca03571088980e202ba5af76ff5"),
    "random-zero-sum-3-types": (
        {"builtin": "random_zero_sum", "params": {"seed": 5, "actions": [3, 4]}},
        {"types": [0.05, 0.2, 1.0], "anchors": [[0.5, 0.3, 0.2], None]},
        "371bc04294373f2995eaf128f5fdd61db4755f779c5117b67ffc5388d53e5dfb"),
}


@pytest.mark.parametrize("name", sorted(ORACLE_GOLDEN))
def test_run_oracle_golden_digest(tmp_path, capsys, name):
    game, ocfg, digest = ORACLE_GOLDEN[name]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "oracle", "seed": 1, "game": game,
                                "oracle": ocfg}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    data = (tmp_path / "out" / "oracle.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
