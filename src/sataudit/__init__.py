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
from .aggregate import (Factor, METRICS, RawScores, group_spans,
                        query_averaged_scores)
from .difficulty import DifficultyTable, estimate_difficulty
from .errors import (ConfigError, ConvergenceError, DataError,
                     InsufficientSignalError, SatauditError)
from .logmodel import (AgeGroup, DemographicProfile, Gender, LogCorpus,
                       StringTable, all_profiles, emit, ingest,
                       normalize_query)
from .matching import MatchedCohort, match_contexts, matched_raw_scores
from .metrics import MetricKind
from .multilevel import (MultilevelFit, build_observations, cell_curves,
                         fit_multilevel, max_group_gap)
from .pairwise import (DEFAULT_THRESHOLDS, PairCounts, PairModel,
                       PairThresholds, count_pair_labels,
                       derive_thresholds_from_deltas, eligible_queries,
                       fit_pair_model, probability_grid)
from .synth import (BehaviorModel, GroundTruth, QuerySpec, ScenarioConfig,
                    generate)

__all__ = [
    "__version__",
    "AgeGroup", "AuditConfig", "AuditResult", "BehaviorModel",
    "ConfigError", "ConvergenceError", "DEFAULT_THRESHOLDS", "DataError",
    "DemographicProfile", "DifficultyTable", "Factor", "Gender",
    "GroundTruth", "InsufficientSignalError", "LogCorpus",
    "METRICS", "MatchedCohort", "MetricKind",
    "MultilevelFit", "PairCounts", "PairModel",
    "PairThresholds", "QuerySpec", "RawScores",
    "SatauditError", "ScenarioConfig", "StringTable", "all_profiles",
    "audit_meta",
    "build_observations", "cell_curves", "count_pair_labels",
    "derive_thresholds_from_deltas",
    "eligible_queries", "emit", "estimate_difficulty", "fit_multilevel",
    "fit_pair_model", "generate", "group_spans", "ingest",
    "match_contexts", "matched_raw_scores",
    "max_group_gap", "normalize_query",
    "probability_grid",
    "query_averaged_scores", "run_audit",
    "write_audit",
]
