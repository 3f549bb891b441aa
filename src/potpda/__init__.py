"""potpda: partial optimal transport toolkit for partial domain adaptation.

Solvers for the fixed-mass partial transport problem, the constructive
source/target weights its optimal couplings induce, evaluators for the two
target-loss bounds with their PAC-Bayes wrapper, the WARMPOT trainer, and a
synthetic benchmark harness.
"""

from .bounds import (
    BoundReport,
    FiniteClassifierSet,
    PacBayesConfig,
    bound_check,
    difficulty_term,
    loss_difference_check,
    optimal_lambda,
    pac_bayes_experiment,
    pac_bayes_rhs,
    feature_bound_report,
    joint_bound_report,
    min_decomposition_gap,
)
from .measures import (
    Hypothesis,
    LinearFeatureMap,
    LipschitzClassifier,
    PdaDataset,
    clipped_abs_loss,
    empirical_feature_measure,
    feature_cost_matrix,
    joint_cost_matrix,
    load_dataset,
    save_dataset,
)
from .pot import (
    SolverConfig,
    TransportPlan,
    entropic_partial_ot,
    exact_partial_ot,
)
from .synthbench import (
    BenchResult,
    TaskSpec,
    final_source_weights,
    generate_pda_task,
    outlier_weight_share,
    run_ablation,
    target_accuracy,
)
from .warmpot import (
    ModelParams,
    TrainConfig,
    alpha_schedule,
    fixed_plan_gradients,
    fixed_plan_value,
    train,
    warmpot_objective,
    warmpot_step,
)
from .weights import (
    ArpmConfig,
    WeightVector,
    gamma_constrained_weights,
    marginal_weights,
    scheme_arpm,
    scheme_ba3us,
    scheme_uniform,
    tv_term,
    weight_histogram,
)

__version__ = "0.1.0"
