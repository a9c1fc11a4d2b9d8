"""Tests for the population evaluation harness."""

import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anchored import (
    TERMINAL,
    AgentSpec,
    NormalFormGame,
    TabularMarkovGame,
    TypeDistribution,
    make_builtin_game,
    mean_and_se,
    run_population_eval,
    sos_score,
    uniform_policy,
)
from anchored.popeval import GAME_CSV_BLOCK, PopEvalReport, resolve_agent_policies, scorable


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
               if np.array_equal(seating, ["cand", "cand"]))
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
    assert np.array_equal(a.seatings, b.seatings)
    assert np.array_equal(a.scores, b.scores)


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


@pytest.mark.parametrize("n_games", [1, 0, -3])
def test_fewer_than_two_games_rejected_before_any_draw(n_games):
    game = two_seat_game()
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError, match="at least 2 games"):
        run_population_eval(fixed_agent("cand", [0.5, 0.5], 2),
                            [fixed_agent("base", [0.5, 0.5], 2)], game, n_games, rng)
    assert rng.random() == np.random.default_rng(7).random()


def test_duplicate_ids_and_empty_pool_rejected():
    game = two_seat_game()
    cand = fixed_agent("dup", [0.5, 0.5], 2)
    base = fixed_agent("dup", [0.5, 0.5], 2)
    with pytest.raises(ValueError):
        run_population_eval(cand, [base], game, 10, np.random.default_rng(6))
    with pytest.raises(ValueError):
        run_population_eval(cand, [], game, 10, np.random.default_rng(6))


def reference_population_eval(candidate, baselines, game, n_games, rng):
    """The loops `run_population_eval` replaced: one `rng.integers` per
    seating attempt until every game is seated, then the games in order with
    one `Generator.choice` per action and one `sos_score` per game; returns
    (seatings, scores, candidate scores, mean, standard error)."""
    roster = list(baselines) + [candidate]
    markov = isinstance(game, TabularMarkovGame)
    resolved = {a.agent_id: a.policies if markov else resolve_agent_policies(a, game)
                for a in roster}
    all_picks = []
    while len(all_picks) < n_games:
        picks = rng.integers(len(roster), size=game.player_count)
        if np.any(picks == len(roster) - 1):
            all_picks.append(picks)
    seatings, scores, cand = [], [], []
    for picks in all_picks:
        seating = [roster[k].agent_id for k in picks]
        pols = [resolved[aid][i] for i, aid in enumerate(seating)]
        if markov:
            outcome, s, disc = np.zeros(game.player_count), game.initial_state, 1.0
            for _ in range(game.horizon):
                joint = tuple(int(rng.choice(game.action_counts[s][i],
                                             p=p[s, i] if np.ndim(p) == 3 else p))
                              for i, p in enumerate(pols))
                outcome += disc * game.reward(s, joint)
                disc *= game.gamma
                row = game.T[s][joint]
                s = game.next_states[s][int(rng.choice(len(row), p=row / row.sum()))]
                if s == TERMINAL:
                    break
        else:
            joint = tuple(int(rng.choice(game.action_counts[i], p=p))
                          for i, p in enumerate(pols))
            outcome = np.array([u[joint] for u in game.payoffs])
        sc = sos_score(outcome)
        seatings.append(seating)
        scores.append(sc.tolist())
        cand += [float(sc[i]) for i, aid in enumerate(seating) if aid == candidate.agent_id]
    return (seatings, scores, cand, *mean_and_se(cand))


def two_state_markov_game():
    """Three seats, two actions each; state 0 moves to state 1 or TERMINAL,
    with nonnegative rewards that differ by joint action."""
    rng = np.random.default_rng(3)
    shape = (2, 2, 2)
    return TabularMarkovGame(
        R=(rng.uniform(0.1, 1.0, size=(3, *shape)), rng.uniform(0.0, 1.0, size=(3, *shape))),
        next_states=((1, TERMINAL), (TERMINAL,)),
        T=(rng.dirichlet([1.0, 1.0], size=shape), np.ones((*shape, 1))),
        gamma=0.9, horizon=2)


def ragged_game():
    """Three seats with 2, 3 and 4 actions and positive payoffs."""
    rng = np.random.default_rng(8)
    return NormalFormGame((2, 3, 4), tuple(rng.uniform(0.1, 1.0, size=(2, 3, 4))
                                           for _ in range(3)), payoff_bound=1.0)


# "ragged": unequal action counts, fixed policies with zero entries, and a
# roster of ten in which a seating holds the candidate about a quarter of
# the time.
@pytest.mark.parametrize("markov", [False, True, "ragged"])
def test_population_eval_matches_choice_reference(markov):
    if markov == "ragged":
        game = ragged_game()
        cand = AgentSpec(agent_id="cand", policies=(
            np.array([0.0, 1.0]), np.array([0.5, 0.0, 0.5]), np.array([0.0, 0.25, 0.0, 0.75])))
        base = [AgentSpec(agent_id=f"b{k}", policies=tuple(
            np.eye(n)[k % n] if k % 2 else np.full(n, 1 / n) for n in game.action_counts))
            for k in range(8)]
        base.append(AgentSpec(agent_id="s", kind="search",
                              types=TypeDistribution.uniform([0.1, 1.0]), act_lambda=0.1,
                              anchor_policies=tuple(uniform_policy(n)
                                                    for n in game.action_counts),
                              search_iterations=16))
    elif markov:
        game = two_state_markov_game()
        # (S, P, W) policy arrays, one with a zero entry, and one vector for
        # every state
        cand = AgentSpec(agent_id="cand", policies=(
            np.array([[[0.0, 1.0]] * 3, [[0.3, 0.7]] * 3]),
            np.array([0.6, 0.4]), [0.5, 0.5]))
        base = [AgentSpec(agent_id=f"b{k}", policies=(
            np.array([0.2, 0.8]), np.array([[[1.0, 0.0]] * 3, [[0.5, 0.5]] * 3]),
            np.array([0.9, 0.1]))) for k in range(2)]
    else:
        game = seven_seat_game()
        cand = AgentSpec(agent_id="cand", kind="search",
                         types=TypeDistribution.uniform([0.1, 1.0]), act_lambda=0.1,
                         anchor_policies=(np.array([0.3, 0.7]),) * 7,
                         search_iterations=16)
        base = [fixed_agent("b0", [0.5, 0.5], 7), fixed_agent("b1", [0.0, 1.0], 7),
                fixed_agent("b2", [0.8, 0.2], 7)]
    rng, twin = np.random.default_rng(21), np.random.default_rng(21)
    report = run_population_eval(cand, base, game, 300, rng)
    seatings, scores, cand_scores, mean, se = reference_population_eval(
        cand, base, game, 300, twin)
    assert report.seatings.tolist() == seatings
    assert report.scores.tolist() == scores
    assert report.candidate_scores.tolist() == cand_scores
    assert (report.mean, report.standard_error) == (mean, se)
    assert rng.random() == twin.random()


BAD_POLICIES = [
    [np.nan, 1.0],                  # NaN
    [-0.5, 1.5],                    # a negative entry
    [0.5, 0.5 + 1e-6],              # sum off 1 by more than sqrt(eps)
    [np.inf, 0.0],                  # inf
]


@pytest.mark.parametrize("markov", [False, True])
@pytest.mark.parametrize("bad", BAD_POLICIES)
def test_fixed_agent_bad_policy_raises_what_choice_raised(bad, markov):
    game = two_state_markov_game() if markov else seven_seat_game()
    with pytest.raises(ValueError) as expected:
        np.random.default_rng(0).choice(2, p=bad)
    cand = AgentSpec(agent_id="cand", policies=(np.array(bad),) * game.player_count)
    base = fixed_agent("base", [0.5, 0.5], game.player_count)
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        run_population_eval(cand, [base], game, 10, np.random.default_rng(1))


def test_markov_vector_seat_of_wrong_length_raises_before_any_draw():
    """A one-vector seat must fit the seat's action count in every state: a
    3-vector where every state has two actions, and a 2-vector where state 1
    gives seat 0 three."""
    ragged = TabularMarkovGame(
        R=(np.ones((2, 2, 2)), np.ones((2, 3, 2))), next_states=((1,), (TERMINAL,)),
        T=(np.ones((2, 2, 1)), np.ones((3, 2, 1))), gamma=1.0, horizon=2)
    base_table = np.array([[[0.5, 0.5, 0.0]] * 2, [[1 / 3] * 3, [0.5, 0.5, 0.0]]])
    cases = [(two_state_markov_game(), ([1 / 3] * 3, [0.5, 0.5], [0.5, 0.5]),
              fixed_agent("base", [0.5, 0.5], 3)),
             (ragged, ([0.5, 0.5], [0.5, 0.5]),
              AgentSpec(agent_id="base", policies=(base_table, base_table)))]
    for game, policies, base in cases:
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="^agent cand: bad policy at seat 0$"):
            run_population_eval(AgentSpec(agent_id="cand", policies=policies), [base],
                                game, 10, rng)
        assert rng.random() == np.random.default_rng(1).random()


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
        R=(np.array(r0, float).reshape(2, 1, 1), np.array(r1, float).reshape(2, 2, 1)),
        next_states=((1,), (TERMINAL,)), T=(np.ones((1, 1, 1)), np.ones((2, 1, 1))),
        gamma=gamma, horizon=2, payoff_bound=2.0)


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
    # Seat 0 picks player 0's action at state 1 from its rows of a
    # zero-padded (S, P, W) array; seat 1 has one action.
    cand = AgentSpec(agent_id="cand", policies=(
        np.array([[[1.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]]), np.ones(1)))
    base = AgentSpec(agent_id="base", policies=(
        np.array([[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]), np.ones(1)))
    report = run_population_eval(cand, [base], game, 40, np.random.default_rng(6))
    for seating, scores in zip(report.seatings, report.scores):
        # outcome (2, 1) scores (4/5, 1/5); outcome (1, 0) scores (1, 0)
        assert np.array_equal(scores, [0.8, 0.2] if seating[0] == "cand" else [1.0, 0.0])


# ------------------------------------------------------------- games CSV

def reference_write_game_csv(report: PopEvalReport, path) -> None:
    """The `csv.writer` writer that `PopEvalReport.write_game_csv` replaced."""
    game_ids, seats = np.indices(report.scores.shape).reshape(2, -1).tolist()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["game_id", "seat", "agent_id", "score"])
        w.writerows(zip(game_ids, seats, report.seatings.ravel().tolist(),
                        [f"{sc:.17g}" for sc in report.scores.ravel().tolist()]))


# Ids with every character csv quotes or the template could misread, and
# any other character numpy keeps in a str array (a trailing NUL it drops).
AGENT_IDS = st.text(st.sampled_from(list(',"\r\n% ab\u00e9\u732b')) | st.characters(
    blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=6)
SPECIAL_SCORES = [0.0, 1.0, 5e-324, 1e-310, np.nextafter(2.2250738585072014e-308, 0),
                  2.2250738585072014e-308, np.nextafter(1.0, 0.0), 1 / 3,
                  np.nextafter(1 / 3, 1.0), np.nextafter(1 / 3, 0.0), 0.1, 1e-5]


@pytest.mark.parametrize("games, seats", [
    (1, 1), (GAME_CSV_BLOCK - 1, 1), (GAME_CSV_BLOCK, 1), (GAME_CSV_BLOCK + 1, 1),
    (GAME_CSV_BLOCK // 4, 4), (GAME_CSV_BLOCK // 4 + 1, 4), (3, 7)])
@settings(max_examples=15, deadline=None)
@given(ids=st.lists(AGENT_IDS, min_size=1, max_size=5, unique=True),
       extra=st.lists(st.floats(0.0, 1.0), max_size=4), seed=st.integers(0, 2 ** 32))
def test_game_csv_matches_csv_writer(tmp_path_factory, games, seats, ids, extra, seed):
    rng = np.random.default_rng(seed)
    pool = np.array(SPECIAL_SCORES + extra)
    report = PopEvalReport("cand", games, np.array(ids)[rng.integers(len(ids), size=(games, seats))],
                           pool[rng.integers(len(pool), size=(games, seats))], np.zeros(0),
                           0.0, 0.0)
    out = tmp_path_factory.mktemp("csv")
    report.write_game_csv(out / "new.csv")
    reference_write_game_csv(report, out / "old.csv")
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()
