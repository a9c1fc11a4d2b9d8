"""The array self-play kernel against the scalar reference, bit for bit.

The reference is the per-player loop the kernel replaced, built from
`policy_for_type`, `UtilityStats`, `TemperatureSchedule.kappas` and the
`np.tensordot` utility loop of `helpers`, with its own per-player state.  Every
comparison is exact equality.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from anchored import (INF, Learners, NormalFormGame, TemperatureSchedule,
                      TypeDistribution, make_anchor, policy_for_type, run_selfplay)
from anchored.cli import emit_trace
from anchored.learners import UtilityStats
from helpers import read_trace_jsonl, tensordot_utility_vector

LAMBDAS = (0.0, 1e-3, 0.1, 0.5, 2.0, INF)
SCHEDULES = (
    TemperatureSchedule(mode="constant_eta", eta=0.5),
    TemperatureSchedule(mode="constant_eta", eta=INF),       # kappa = 0
    # eta * t overflows from t = 2 on: kappa = 1/eta, then 0 (the argmax rule)
    TemperatureSchedule(mode="constant_eta", eta=1e308),
    TemperatureSchedule(mode="inverse_sqrt"),
    TemperatureSchedule(),
)


@st.composite
def selfplay_cases(draw):
    n_players = draw(st.integers(2, 5))
    # Half the games share one action count, which takes P >= 3 players
    # with two or more actions to the kernel's stacked contraction.
    if draw(st.booleans()):
        counts = (draw(st.integers(1, 4)),) * n_players
    else:
        counts = tuple(draw(st.integers(1, 4)) for _ in range(n_players))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    game = NormalFormGame(counts, tuple(rng.uniform(-1.0, 1.0, size=counts)
                                        for _ in counts), payoff_bound=1.0)
    schedule = draw(st.sampled_from(SCHEDULES))
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
        "mode": draw(st.sampled_from(["expected", "sampled"])),
        "seed": draw(st.integers(0, 2 ** 32 - 1)),
        "iterations": draw(st.integers(1, 25)),
    }


def make_learners(case):
    anchors = [anchor for _, anchor, _ in case["specs"]]
    types = [td for _, _, td in case["specs"]]
    return Learners(anchors, types, case["schedule"])


class ScalarLearner:
    """One player's state in the reference: Q, the utility statistics and a
    running sum of iterates per type."""

    def __init__(self, n, anchor, types, schedule):
        self.n, self.anchor, self.types = n, make_anchor(anchor), types
        self.schedule = schedule
        self.t = 0
        self.q = np.zeros(n)
        self.stats = UtilityStats()
        self.sums = {lam: np.zeros(n) for lam in types.lambdas}

    def kappa(self):
        return self.schedule.kappas(max(self.t, 1), [self.stats])[0]

    def policy(self, lam, kappa):
        return policy_for_type(self.q, self.anchor, lam, kappa)

    def observe(self, policies, utility_vector, realized):
        for lam, p in policies.items():
            self.sums[lam] += p
        self.t += 1
        self.q += (utility_vector - self.q) / self.t
        self.stats.add(realized)


def make_scalar(case):
    return [ScalarLearner(n, anchor, types, case["schedule"])
            for n, anchor, types in case["specs"]]


def reference_selfplay(game, learners, iterations, rng=None):
    """Scalar self-play, one player and one type at a time; returns the
    per-iteration columns of a trace."""
    n = game.player_count
    cols = {k: [] for k in ("kappas", "policies", "utilities", "realized",
                            "actions", "sampled_lambdas")}
    for _ in range(iterations):
        kappas = [ln.kappa() for ln in learners]
        by_type = [{lam: ln.policy(lam, kappa) for lam in ln.types.lambdas}
                   for ln, kappa in zip(learners, kappas)]
        if rng is not None:
            lams, joint = [], []
            for ln, pols in zip(learners, by_type):
                w = ln.types.weights
                lam = ln.types.lambdas[rng.choice(len(w), p=w) if len(w) > 1 else 0]
                lams.append(lam)
                joint.append(int(rng.choice(ln.n, p=pols[lam])))
            u = [np.array(game.payoffs[i][tuple(joint[:i]) + (slice(None),)
                                          + tuple(joint[i + 1:])])
                 for i in range(n)]
            realized = [float(u[i][joint[i]]) for i in range(n)]
            cols["actions"].append(joint)
            cols["sampled_lambdas"].append(lams)
        else:
            mixtures = []
            for ln, pols in zip(learners, by_type):
                mix = np.zeros(ln.n)
                for lam, w in zip(ln.types.lambdas, ln.types.weights):
                    mix += w * pols[lam]
                mixtures.append(mix)
            u = [tensordot_utility_vector(game, i, mixtures) for i in range(n)]
            realized = [float(u[i] @ mixtures[i]) for i in range(n)]
        for ln, pols, u_i, x in zip(learners, by_type, u, realized):
            ln.observe(pols, u_i, x)
        cols["kappas"].append(kappas)
        cols["policies"].append(by_type)
        cols["utilities"].append(u)
        cols["realized"].append(realized)
    return cols


def assert_same_state(learners, scalar):
    assert learners.kappas() == [ln.kappa() for ln in scalar]
    for i, ln in enumerate(scalar):
        assert learners.t == ln.t
        assert np.array_equal(learners.q[i, :ln.n], ln.q)
        assert not learners.q[i, ln.n:].any()
        st = learners.utility_stats[i]
        assert (st.count, st.mean, st.m2) == (ln.stats.count, ln.stats.mean,
                                               ln.stats.m2)
        for k, lam in enumerate(ln.types.lambdas):
            row = learners.avg[learners.row_start[i] + k]
            assert np.array_equal(row[:ln.n], ln.sums[lam])
            assert not row[ln.n:].any()
            assert np.array_equal(learners.policy(i, lam),
                                  ln.policy(lam, ln.kappa()))


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
    kernel, scalar = make_learners(case), make_scalar(case)
    rng_k = np.random.default_rng(case["seed"])
    rng_s = np.random.default_rng(case["seed"])
    feedback_k, feedback_s = (rng_k, rng_s) if mode == "sampled" else (None, None)
    trace = run_selfplay(game, kernel, T, rng=feedback_k, record=record)
    ref = reference_selfplay(game, scalar, T, feedback_s)
    assert_same_state(kernel, scalar)
    # A second call resumes from the state the first call left.
    run_selfplay(game, kernel, 3, rng=feedback_k, record=False)
    reference_selfplay(game, scalar, 3, feedback_s)
    assert_same_state(kernel, scalar)
    assert rng_k.random() == rng_s.random()      # same draws, same order
    if not record:
        assert trace is None
        return
    assert len(trace) == T
    assert_trace_matches(trace, ref)
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "trace.jsonl", Path(tmp) / "again.jsonl"
        emit_trace(trace, path)
        rebuilt = read_trace_jsonl(path, trace.type_supports)
        emit_trace(rebuilt, again)
        assert again.read_bytes() == path.read_bytes()
    for column in ("kappas", "realized", "utilities", "policies", "actions",
                   "sampled_lambdas"):
        a, b = getattr(trace, column), getattr(rebuilt, column)
        assert (a is None and b is None) or np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(selfplay_cases())
def test_single_steps_match_scalar_reference(case):
    game = case["game"]
    kernel, scalar = make_learners(case), make_scalar(case)
    rng_k = np.random.default_rng(case["seed"])
    rng_s = np.random.default_rng(case["seed"])
    for _ in range(case["iterations"]):
        if case["mode"] == "sampled":
            trace = run_selfplay(game, kernel, 1, rng=rng_k)
            ref = reference_selfplay(game, scalar, 1, rng_s)
            assert trace.actions[0].tolist() == ref["actions"][0]
        else:
            run_selfplay(game, kernel, 1, record=False)
            reference_selfplay(game, scalar, 1)
    assert_same_state(kernel, scalar)
