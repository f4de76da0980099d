"""Half-truth attacks on a myopic Bayesian observer of a two-stage network.

An adversary watches nature's stage-0 outcomes and hides (or flips) up to k of
them; the observer, unaware of the adversary, predicts stage-1 marginals from
what it sees, marginalizing hidden variables with their priors.  This package
provides exact posterior computation under masks, the expected-Lp distance the
attacker optimizes, exact and approximate mask solvers, instance generators,
and a Monte Carlo / sweep harness.
"""

from .model import (
    ADDITIVE,
    FLIP,
    GENERAL,
    HIDE,
    LINEAR,
    PARENT_CAP,
    DbnModel,
    HalfTruthError,
    Mask,
    Stage1Node,
    Transition,
    ValidationError,
    additive,
    additive_to_general,
    general,
    linear,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
    transition_prob,
    validate_model,
)
from .inference import (
    Evaluator,
    disagreement,
    flipped_posterior,
    induced_posterior,
    lkm_distance,
    lkm_from_counts,
    masked_posterior,
    objective_value,
    poisson_binomial_pmf,
    true_posterior,
)
from .attacks import (
    ALGORITHMS,
    AttackProblem,
    AttackResult,
    approx_attack,
    brute_force_attack,
    combined_attack,
    flip_approx_attack,
    flip_linear_exact_attack,
    heuristic_attack,
    linear_exact_attack,
    linear_gains,
    random_mask_baseline,
    solve,
)
from .generators import (
    FAMILIES,
    GenSpec,
    gen_heuristic_adversarial,
    gen_random,
    gen_theorem1,
    generate,
    theorem1_closed_form,
    theorem1_oracle_adversary,
)
from .simulate import (
    SimConfig,
    SimReport,
    empty_policy,
    make_algorithm_policy,
    oracle_policy,
    run_expectation,
    run_sampled_distance,
)

__version__ = "0.1.0"
