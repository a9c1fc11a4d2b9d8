"""The array self-play kernel against the scalar reference, bit for bit.

The reference is the per-player loop the kernel replaced, built from
`Learner.policy` (`policy_for_type`), `Learner.observe` (`UtilityStats`) and
`NormalFormGame.utility_vector`.  Every comparison is exact equality.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from anchored import (INF, NormalFormGame, TemperatureSchedule, Trace,
                      TypeDistribution, init_learner, run_selfplay)

LAMBDAS = (0.0, 1e-3, 0.1, 0.5, 2.0, INF)
SCHEDULES = (
    TemperatureSchedule(mode="constant_eta", eta=0.5),
    TemperatureSchedule(mode="constant_eta", eta=INF),       # kappa = 0
    TemperatureSchedule(mode="inverse_sqrt"),
    TemperatureSchedule.adaptive(),
    TemperatureSchedule(mode="adaptive_std", kappa_floor=0.0),
)


@st.composite
def selfplay_cases(draw):
    n_players = draw(st.integers(2, 3))
    counts = tuple(draw(st.integers(1, 4)) for _ in range(n_players))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    game = NormalFormGame(counts, tuple(rng.uniform(-1.0, 1.0, size=counts)
                                        for _ in counts), payoff_bound=1.0)
    schedule = draw(st.sampled_from(SCHEDULES))
    uniform_first = draw(st.booleans())
    specs = []
    for n in counts:
        lams = sorted(draw(st.sets(st.sampled_from(LAMBDAS), min_size=1,
                                   max_size=3)))
        mass = [draw(st.integers(1, 5)) for _ in lams]
        types = TypeDistribution(tuple(lams),
                                 tuple(m / sum(mass) for m in mass))
        anchor = rng.dirichlet(np.ones(n))
        specs.append((n, anchor, types))
    return {
        "game": game,
        "specs": specs,
        "schedule": schedule,
        "uniform_first": uniform_first,
        "mode": draw(st.sampled_from(["expected", "sampled"])),
        "seed": draw(st.integers(0, 2 ** 32 - 1)),
        "iterations": draw(st.integers(1, 25)),
    }


def make_learners(case):
    return [init_learner(i, n, anchor, types, case["schedule"],
                         uniform_first_iterate=case["uniform_first"])
            for i, (n, anchor, types) in enumerate(case["specs"])]


def reference_selfplay(game, learners, iterations, rng=None):
    """Scalar self-play, one player and one type at a time; returns the
    per-iteration columns of a trace."""
    n = game.player_count
    cols = {k: [] for k in ("kappas", "policies", "utilities", "realized",
                            "actions", "sampled_lambdas")}
    for _ in range(iterations):
        kappas = [ln.current_kappa() for ln in learners]
        by_type = [{lam: ln.policy(lam, kappa) for lam in ln.types.lambdas}
                   for ln, kappa in zip(learners, kappas)]
        if rng is not None:
            lams, joint = [], []
            for ln, pols in zip(learners, by_type):
                w = ln.types.weights
                lam = ln.types.lambdas[rng.choice(len(w), p=w) if len(w) > 1 else 0]
                lams.append(lam)
                joint.append(int(rng.choice(ln.n_actions, p=pols[lam])))
            u = [np.array(game.payoffs[i][tuple(joint[:i]) + (slice(None),)
                                          + tuple(joint[i + 1:])])
                 for i in range(n)]
            realized = [float(u[i][joint[i]]) for i in range(n)]
            cols["actions"].append(joint)
            cols["sampled_lambdas"].append(lams)
        else:
            mixtures = []
            for ln, pols in zip(learners, by_type):
                mix = np.zeros(ln.n_actions)
                for lam, w in zip(ln.types.lambdas, ln.types.weights):
                    mix += w * pols[lam]
                mixtures.append(mix)
            u = [game.utility_vector(i, mixtures) for i in range(n)]
            realized = [float(u[i] @ mixtures[i]) for i in range(n)]
        for ln, pols, u_i, x in zip(learners, by_type, u, realized):
            for lam, p in pols.items():
                ln._avg_sums[lam] += p
            ln._avg_counts += 1
            ln.observe(u_i, x)
        cols["kappas"].append(kappas)
        cols["policies"].append(by_type)
        cols["utilities"].append(u)
        cols["realized"].append(realized)
    return cols


def assert_same_state(a, b):
    for x, y in zip(a, b):
        assert x.t == y.t
        assert np.array_equal(x.q, y.q)
        assert (x.utility_stats.count, x.utility_stats.mean, x.utility_stats.m2) \
            == (y.utility_stats.count, y.utility_stats.mean, y.utility_stats.m2)
        assert x._avg_counts == y._avg_counts
        for lam in x.types.lambdas:
            assert np.array_equal(x._avg_sums[lam], y._avg_sums[lam])


def assert_trace_matches(trace, ref):
    assert np.array_equal(trace.kappas, np.array(ref["kappas"]))
    assert np.array_equal(trace.realized, np.array(ref["realized"]))
    for i, n in enumerate(trace.action_counts):
        assert np.array_equal(trace.utility_matrix(i),
                              np.stack([u[i] for u in ref["utilities"]]))
        for lam in trace.type_supports[i]:
            assert np.array_equal(trace.policy_matrix(i, lam),
                                  np.stack([p[i][lam] for p in ref["policies"]]))
    if ref["actions"]:
        assert np.array_equal(trace.actions, np.array(ref["actions"]))
        assert np.array_equal(trace.sampled_lambdas,
                              np.array(ref["sampled_lambdas"]))
    else:
        assert trace.actions is None and trace.sampled_lambdas is None


@settings(max_examples=150, deadline=None)
@given(selfplay_cases(), st.booleans())
def test_kernel_matches_scalar_reference(case, record):
    game, mode, T = case["game"], case["mode"], case["iterations"]
    kernel, scalar = make_learners(case), make_learners(case)
    rng_k = np.random.default_rng(case["seed"])
    rng_s = np.random.default_rng(case["seed"])
    trace = run_selfplay(game, kernel, T, mode=mode, rng=rng_k, record=record)
    ref = reference_selfplay(game, scalar, T,
                             rng_s if mode == "sampled" else None)
    assert_same_state(kernel, scalar)
    # A second call resumes from the written-back state.
    run_selfplay(game, kernel, 3, mode=mode, rng=rng_k, record=False)
    reference_selfplay(game, scalar, 3, rng_s if mode == "sampled" else None)
    assert_same_state(kernel, scalar)
    assert rng_k.random() == rng_s.random()      # same draws, same order
    if not record:
        assert trace is None
        return
    assert len(trace) == T
    assert_trace_matches(trace, ref)
    rebuilt = Trace.from_records(trace.records(), trace.type_supports)
    for column in ("kappas", "realized", "utilities", "policies", "actions",
                   "sampled_lambdas"):
        a, b = getattr(trace, column), getattr(rebuilt, column)
        assert (a is None and b is None) or np.array_equal(a, b)
    assert list(rebuilt.records()) == list(trace.records())


@settings(max_examples=40, deadline=None)
@given(selfplay_cases())
def test_single_steps_match_scalar_reference(case):
    game = case["game"]
    kernel, scalar = make_learners(case), make_learners(case)
    rng_k = np.random.default_rng(case["seed"])
    rng_s = np.random.default_rng(case["seed"])
    for _ in range(case["iterations"]):
        if case["mode"] == "sampled":
            trace = run_selfplay(game, kernel, 1, rng=rng_k)
            ref = reference_selfplay(game, scalar, 1, rng_s)
            assert trace.actions[0].tolist() == ref["actions"][0]
        else:
            run_selfplay(game, kernel, 1, mode="expected", record=False)
            reference_selfplay(game, scalar, 1)
    assert_same_state(kernel, scalar)
