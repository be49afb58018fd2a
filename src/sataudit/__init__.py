"""Audit search interaction logs for differential user satisfaction.

The toolkit ingests impression-level search logs, computes per-query
satisfaction metrics, and estimates group-level satisfaction differences
three ways: context-matched comparison on shared query cohorts, a
multilevel regression that adjusts for query difficulty, and a pairwise
preference model trained on rule-labeled impression pairs.  A seeded
synthetic generator with recorded ground truth exercises all of it.
"""

from ._version import __version__
from .audit import (AuditConfig, AuditResult, audit_meta, run_audit,
                    write_audit)
from .aggregate import (Factor, METRICS, NormalizedScores, RawScores,
                        head_tail_classify, normalize, query_averaged_scores,
                        query_kl)
from .difficulty import DifficultyTable, estimate_difficulty
from .errors import (ConfigError, ConvergenceError, DataError,
                     InsufficientSignalError, SatauditError)
from .logmodel import (AgeGroup, Click, DemographicProfile, Gender,
                       Impression, LogCorpus, all_profiles, emit, ingest,
                       normalize_query)
from .matching import MatchConfig, MatchedCohort, match_contexts, \
    matched_raw_scores
from .metrics import MetricKind, MetricVector, metric_vector
from .multilevel import (MultilevelFit, PriorConfig, build_observations,
                         fit_multilevel, max_group_gap, prediction_grid)
from .pairwise import (DEFAULT_THRESHOLDS, PairModel, PairThresholds,
                       derive_thresholds_from_deltas, eligible_queries,
                       fit_pair_model, label_sample, predict_pair_prob,
                       probability_grid, sample_pairs)
from .synth import (BehaviorModel, GroundTruth, QuerySpec, ScenarioConfig,
                    generate, scenario_presets)

__all__ = [
    "__version__",
    "AgeGroup", "AuditConfig", "AuditResult", "BehaviorModel", "Click",
    "ConfigError", "ConvergenceError", "DEFAULT_THRESHOLDS", "DataError",
    "DemographicProfile", "DifficultyTable", "Factor", "Gender",
    "GroundTruth", "Impression", "InsufficientSignalError", "LogCorpus",
    "METRICS", "MatchConfig", "MatchedCohort", "MetricKind",
    "MetricVector", "MultilevelFit", "NormalizedScores", "PairModel",
    "PairThresholds", "PriorConfig", "QuerySpec", "RawScores",
    "SatauditError", "ScenarioConfig", "all_profiles", "audit_meta",
    "build_observations", "derive_thresholds_from_deltas",
    "eligible_queries", "emit", "estimate_difficulty", "fit_multilevel",
    "fit_pair_model", "generate", "head_tail_classify", "ingest",
    "label_sample", "match_contexts", "matched_raw_scores",
    "max_group_gap", "metric_vector", "normalize", "normalize_query",
    "predict_pair_prob", "prediction_grid", "probability_grid",
    "query_averaged_scores", "query_kl", "run_audit", "sample_pairs",
    "scenario_presets", "write_audit",
]
