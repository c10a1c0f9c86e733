"""Desk-scale audit of data leakage from oversampling and imputation placed
before the train/test partition in imbalanced clinical classification."""

from .cohort_etl import (CohortConfig, RawTables, build_dataset, extract_cohort,
                         label_los, load_tables)
from .evaluation import (ContaminationReport, FoldPlan, FoldResult,
                         UndefinedAUROCError, auroc, confusion_matrix,
                         contamination_check, stratified_kfold, summarize)
from .experiment import (ExperimentReport, RunConfig, SETUP_AFTER, SETUP_BEFORE,
                         SETUP_LEAKY_HOLDOUT, SETUP_NO_OVERSAMPLING, render_report,
                         run_experiment)
from .forest import ForestConfig, ForestModel, majority_baseline, predict_proba, train_forest
from .resampling import AdasynConfig, adasyn, allocate_counts
from .synth import SynthConfig, generate_cohort
from .tabular import (BINARY, Column, Dataset, ImputerModel, NUMERIC, apply_imputer,
                      fit_imputer, read_dataset, write_dataset)

__version__ = "0.1.0"

__all__ = [
    "AdasynConfig", "BINARY", "CohortConfig", "Column",
    "ContaminationReport", "Dataset", "ExperimentReport", "FoldPlan",
    "FoldResult", "ForestConfig", "ForestModel", "ImputerModel", "NUMERIC",
    "RawTables", "RunConfig", "SETUP_AFTER", "SETUP_BEFORE",
    "SETUP_LEAKY_HOLDOUT", "SETUP_NO_OVERSAMPLING", "SynthConfig",
    "UndefinedAUROCError", "adasyn", "allocate_counts", "apply_imputer",
    "auroc", "build_dataset", "confusion_matrix", "contamination_check",
    "extract_cohort", "fit_imputer", "generate_cohort", "label_los",
    "load_tables", "majority_baseline", "predict_proba", "read_dataset",
    "render_report", "run_experiment", "stratified_kfold", "summarize",
    "train_forest", "write_dataset",
]
