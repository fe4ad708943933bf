"""Adaptive regularization and smoothing reductions for composite convex
minimization.

Public surface: dataset handling, scalar loss/regularizer algebra with
closed-form smoothing and conjugacy, composite objectives with case
classification, four inner solvers with factor-4 certification budgets,
the three adaptive reductions plus classical fixed-parameter baselines,
certified reference minimizers, analysis-inequality verification, and the
experiment harness behind the `adaptreduce` CLI.
"""

from .data import (Dataset, matvec, normalize_rows, parse_libsvm, rmatvec,
                   row_dot, serialize_libsvm)
from .errors import ConfigError, DataError, NumericalError
from .harness import (CSV_HEADER, ConvergenceTrace, ExperimentConfig,
                      SweepResult, TraceRow, build_objective,
                      dense_to_dataset, emit_csv, gen_classification,
                      gen_regression, parse_config_file, parse_trace_csv,
                      run_experiment, sweep, sweep_summary, write_dataset)
from .losses import (ScalarLoss, conjugate_domain, loss_conjugate,
                     loss_deriv, loss_lipschitz, loss_smoothness, loss_value,
                     smoothed_conjugate, smoothed_deriv, smoothed_value)
from .objectives import Case, CompositeObjective
from .reductions import (EpochRecord, HALVING, ReductionParams, adapt_reg,
                         adapt_smooth, classical_reg, classical_smooth,
                         default_params, joint_adapt)
from .references import base_reference
from .regularizers import Regularizer, soft_threshold
from .solvers import (FixedIterations, OracleReport, PracticalGapQuarter,
                      PracticalGradThird, STAT_FLOOR, TheoryBudget,
                      apg_hood, prox_gd_hood, reference_minimize,
                      sdca_hood, svrg_hood)
from .verify import (BoundCheck, BoundReport, CHECK_NAMES,
                     brute_force_conjugate, brute_force_reg_conjugate,
                     brute_force_smoothed, exact_oracle, quadratic_reference,
                     verify_bound)

__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER", "CHECK_NAMES", "HALVING", "STAT_FLOOR",
    "BoundCheck", "BoundReport", "Case", "CompositeObjective",
    "ConfigError", "ConvergenceTrace", "DataError", "Dataset", "EpochRecord",
    "ExperimentConfig", "FixedIterations", "NumericalError", "OracleReport",
    "PracticalGapQuarter", "PracticalGradThird", "ReductionParams",
    "Regularizer", "ScalarLoss", "SweepResult",
    "TheoryBudget", "TraceRow",
    "adapt_reg", "adapt_smooth", "apg_hood", "base_reference",
    "brute_force_conjugate", "brute_force_reg_conjugate",
    "brute_force_smoothed", "build_objective", "classical_reg",
    "classical_smooth", "conjugate_domain", "default_params",
    "dense_to_dataset", "emit_csv", "exact_oracle", "gen_classification",
    "gen_regression", "joint_adapt", "loss_conjugate", "loss_deriv",
    "loss_lipschitz", "loss_smoothness", "loss_value", "matvec",
    "normalize_rows", "parse_config_file", "parse_libsvm", "parse_trace_csv",
    "prox_gd_hood", "quadratic_reference", "reference_minimize", "rmatvec",
    "row_dot", "run_experiment", "sdca_hood", "serialize_libsvm",
    "smoothed_conjugate", "smoothed_deriv", "smoothed_value",
    "soft_threshold", "svrg_hood", "sweep", "sweep_summary", "verify_bound",
    "write_dataset",
]
