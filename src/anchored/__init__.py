"""Anchored no-regret learning on small games: learners, exact oracles,
tabular self-play value iteration, multiplayer MAP Elo, and population
evaluation."""

from .games import (NormalFormGame, TabularMarkovGame, TERMINAL, make_anchor,
                    make_builtin_game, make_random_markov, make_repeated_markov,
                    sos_score, uniform_policy)
from .learners import (INF, Learners, TemperatureSchedule, Trace,
                       TypeDistribution, policy_for_type, run_selfplay)
from .oracle import (RegretReport, RegularizedProfile, kl_divergence,
                     last_iterate_distance, regret_bound, regularized_exploitability,
                     regularized_regret, sbr_value, smooth_best_response,
                     solve_markov_backward, solve_regularized_bne,
                     unregularized_exploitability, uniform_anchors,
                     evaluate_markov_profile)
from .popeval import AgentSpec, PopEvalReport, mean_and_se, run_population_eval
from .rating import (ELO_SCALE, GameTable, RatingModel, fit_ratings, log_posterior,
                     predict_shares)
from .rl import (TrainConfig, evaluate_vs_oracle, nashv_update, run_episode,
                 search_state, train)

__all__ = [name for name in dir() if not name.startswith("_")]
