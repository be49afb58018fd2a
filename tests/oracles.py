"""Scalar reference rules that tests compare the library's columns against.

Each works on one `corpus_builders.Impression` record at a time, the
plain way: the metric definitions of :mod:`sataudit.metrics`, the final
successful click that context matching keys on, the NDJSON record
dict that :func:`sataudit.logmodel.emit` writes, and query-averaged
group scores summed in loops, the reference for
:func:`sataudit.aggregate.query_averaged_scores`, and the enumerated
cross-group pairs of one query, the reference for the pair picks of
`sample_pairs`.  `sample_pairs` and `label_sample` draw and label a whole
pair sample at once, and `fit_pair_model_from_pairs` fits the pair model
from its labelled pairs: the references for the per-query counts of
:func:`sataudit.pairwise.count_pair_labels` and for
:func:`sataudit.pairwise.fit_pair_model`, with `pattern_counts` tallying
a sample's counts pair by pair.  `difficulty_from_group_scores`
ranks and averages per-group ``{query: GU}`` maps in loops, the
reference for :func:`sataudit.difficulty.rank_and_average`, with
`loop_midrank` the reference for its ranks.  `match_contexts` runs the
matching funnel on per-query dicts of row lists, the reference for
:func:`sataudit.matching.match_contexts`;
`navigational_queries_proxy` tallies each (query, final click) count on
its own, the reference for the matching proxy; and `normalize` maps group
scores onto a common scale one (metric, group) at a time, the reference
for :func:`sataudit.aggregate.normalize`.  `cell_coefficients`
and `predict` compose one cell's multilevel prediction at one
difficulty, the scalar reference for
:func:`sataudit.multilevel.cell_curves`.  `predict_pair_prob` evaluates
the pair model for one pair of profiles, the reference for
:func:`sataudit.pairwise.probability_grid`.  `reference_generate` is the
generator as a loop over impressions, the reference for
:func:`sataudit.synth.generate`.  `dict_write_csv` writes a report CSV
from one dict per row, the reference for
:func:`sataudit.reports.write_csv`.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from corpus_builders import Impression, from_records
from sataudit.errors import ConfigError, DataError, InsufficientSignalError
from sataudit.logmodel import AgeGroup, Gender, LogCorpus, all_profiles, \
    normalize_query
from sataudit import matching, pairwise
from sataudit.aggregate import Factor, RawScores
from sataudit.glmfit import CellDesign, Family, fit_penalized_glm
from sataudit.metrics import DEFAULT_DWELL_THRESHOLD_S, METRICS, MetricKind, \
    metric_table
from sataudit.multilevel import MultilevelFit
from sataudit.pairwise import PairModel
from sataudit.reports import META_KEYS
from sataudit.synth import GroundTruth, ScenarioConfig

_AGES = list(AgeGroup)


@dataclass(frozen=True)
class MetricVector:
    """The four metric values for one impression.

    Values computed by :func:`metric_vector` satisfy the natural
    invariants (GU on its four-level grid, 0 <= SCC <= PCC, reformulation
    binary); the container itself stays permissive so callers can probe
    labelers with off-grid values.
    """

    graded_utility: float
    reformulation: int
    page_click_count: int
    successful_click_count: int

    def value(self, kind: MetricKind) -> float:
        return getattr(self, kind.value)


def page_click_count(imp: Impression) -> int:
    return len(imp.clicks)


def successful_click_count(imp: Impression,
                           dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S) -> int:
    """Clicks whose dwell strictly exceeds the threshold.

    Raises DataError when a click lacks dwell fidelity; clicks-only logs
    cannot support dwell-based metrics.
    """
    n = 0
    for c in imp.clicks:
        if math.isnan(c.dwell_seconds):
            raise DataError(
                f"impression {imp.impression_id}: dwell missing; "
                "successful clicks need dwell fidelity")
        if c.dwell_seconds > dwell_threshold_s:
            n += 1
    return n


def reformulation(imp: Impression) -> int:
    if imp.reformulated is None:
        raise DataError(
            f"impression {imp.impression_id}: reformulated flag unset; "
            "run ingest (which derives missing flags) first")
    return int(imp.reformulated)


def metric_vector(imp: Impression,
                  dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S) -> MetricVector:
    """All four metrics for one impression (single pass over clicks)."""
    pcc = page_click_count(imp)
    scc = successful_click_count(imp, dwell_threshold_s)
    reform = reformulation(imp)
    if pcc == 0:
        gu = -1.0
    elif scc == 0:
        gu = -1.0 / 3.0
    elif pcc <= 2 and reform == 0:
        gu = 1.0
    else:
        gu = 1.0 / 3.0
    return MetricVector(graded_utility=gu, reformulation=reform,
                        page_click_count=pcc, successful_click_count=scc)


def _loop_sum(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def query_averaged_scores(imps: list[Impression], factor: Factor,
                          dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S
                          ) -> dict:
    """Each group's ``(n_queries, n_impressions, {metric: (score,
    stderr)})``: a (group, query) cell's mean, its impressions' sum of
    thirds (exact, as every metric is a whole number of thirds) over
    three times their count, then the mean and standard error of the
    group's cell means in query-text order, each sum a left-to-right
    loop."""
    cells: dict = {}
    for imp in imps:
        group = getattr(imp.demographics, factor.value)
        cells.setdefault(group, {}).setdefault(imp.query_text, []).append(
            metric_vector(imp, dwell_threshold_s))
    out = {}
    for group, by_query in cells.items():
        n_q = len(by_query)
        stats = {}
        for kind in METRICS:
            means = [sum(round(3 * v.value(kind)) for v in vectors)
                     / (3 * len(vectors))
                     for _, vectors in sorted(by_query.items())]
            mean = _loop_sum(means) / n_q
            var = _loop_sum((v - mean) ** 2 for v in means) / max(n_q - 1, 1)
            stats[kind] = (mean, math.sqrt(var / n_q) if n_q > 1
                           else float("nan"))
        out[group] = (n_q, sum(len(v) for v in by_query.values()), stats)
    return out


def cross_pairs(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (a, b), a < b, whose codes differ, in lexicographic order:
    all n(n-1)/2 position pairs enumerated, then filtered."""
    ia, ib = np.triu_indices(len(codes), 1)
    keep = codes[ia] != codes[ib]
    return ia[keep], ib[keep]


def enumerated_pairs(codes: np.ndarray, pairs_per_query: int,
                     rng: np.random.Generator
                     ) -> tuple[np.ndarray, np.ndarray]:
    """One query's sampled pairs the enumerating way: with replacement
    when it has fewer cross pairs than the quota, all of them when it
    has exactly the quota, else the quota drawn without replacement."""
    ia, ib = cross_pairs(codes)
    n_cross = len(ia)
    if n_cross < pairs_per_query:
        picks = rng.integers(0, n_cross, size=pairs_per_query)
    elif n_cross == pairs_per_query:
        picks = np.arange(n_cross)
    else:
        picks = rng.choice(n_cross, size=pairs_per_query, replace=False)
    return ia[picks], ib[picks]


@dataclass
class PairSample:
    """Sampled cross-group impression pairs, as int32 row indices into
    the corpus."""

    i_idx: np.ndarray
    j_idx: np.ndarray
    queries: list[str]

    def __len__(self) -> int:
        return len(self.i_idx)


def sample_pairs(corpus: LogCorpus, queries: list[str], seed: int,
                 fraction: float = pairwise.DEFAULT_QUERY_FRACTION,
                 pairs_per_query: int = pairwise.DEFAULT_PAIRS_PER_QUERY,
                 factor: Factor = Factor.AGE) -> PairSample:
    """Seeded two-stage sample, every pair kept: a slice of queries, then
    per query up to `pairs_per_query` unordered cross-group pairs, with
    replacement when a query has fewer distinct cross-group pairs."""
    if not 0 < fraction <= 1:
        raise ConfigError("query fraction must be in (0, 1]")
    if pairs_per_query < 1:
        raise ConfigError("pairs_per_query must be >= 1")
    rng = np.random.default_rng(seed)
    ordered_queries = sorted(set(queries))
    if not ordered_queries:
        raise DataError("no eligible queries to sample from")
    n_take = math.ceil(fraction * len(ordered_queries))
    chosen_idx = np.sort(rng.choice(len(ordered_queries), size=n_take,
                                    replace=False))
    chosen = [ordered_queries[int(i)] for i in chosen_idx]

    query_code = {q: c for c, q in enumerate(corpus.queries)}
    group = factor.codes(corpus)
    i_idx = np.empty(len(chosen) * pairs_per_query, dtype=np.int32)
    j_idx = np.empty_like(i_idx)
    filled = 0
    for q in chosen:
        members = np.flatnonzero(corpus.query == query_code.get(q, -1))
        n = len(members)
        codes = group[members]
        per_group = np.bincount(codes)
        n_cross = (n * n - int(per_group @ per_group)) // 2
        if n_cross == 0:
            continue
        if n_cross <= max(4 * pairs_per_query, 200_000):
            if n_cross < pairs_per_query:
                picks = rng.integers(0, n_cross, size=pairs_per_query)
            elif n_cross == pairs_per_query:
                picks = np.arange(n_cross)
            else:
                picks = rng.choice(n_cross, size=pairs_per_query,
                                   replace=False)
            i_sel, j_sel = pairwise._cross_pairs_at(codes, picks)
        else:
            have = np.empty(0, dtype=np.int64)
            while have.size < pairs_per_query:
                draw = max(2 * (pairs_per_query - have.size), 1024)
                a = rng.integers(0, n, size=draw)
                b = rng.integers(0, n, size=draw)
                lo, hi = np.minimum(a, b), np.maximum(a, b)
                ok = codes[lo] != codes[hi]
                keys = lo[ok] * np.int64(n) + hi[ok]
                have = np.unique(np.concatenate([have, keys]))
            if have.size > pairs_per_query:
                have = rng.choice(have, size=pairs_per_query, replace=False)
            i_sel, j_sel = have // n, have % n
        stop = filled + len(i_sel)
        i_idx[filled:stop] = members[i_sel]
        j_idx[filled:stop] = members[j_sel]
        filled = stop
    return PairSample(i_idx=i_idx[:filled], j_idx=j_idx[:filled],
                      queries=chosen)


# pairs labelled per block by `label_sample`
LABEL_BLOCK = 1 << 16


def label_sample(corpus: LogCorpus, sample: PairSample,
                 thresholds=pairwise.DEFAULT_THRESHOLDS,
                 mode: str = "internal",
                 dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S
                 ) -> np.ndarray:
    """Labels for a whole pair sample, `LABEL_BLOCK` pairs at a time."""
    if mode not in ("internal", "external"):
        raise ConfigError(f"unknown labeling mode {mode!r}")
    if mode == "internal" and not corpus.has_dwell:
        raise DataError("internal labeling needs dwell fidelity; this corpus "
                        "is clicks-only (use the external labeler)")
    if mode == "internal":
        gu, reform, _, scc = metric_table(corpus, dwell_threshold_s).T

        def label_block(i, j):
            return pairwise.label_batch_internal(
                gu[i], reform[i], scc[i], gu[j], reform[j], scc[j],
                thresholds)
    else:
        pcc = corpus.click_count

        def label_block(i, j):
            return pairwise.label_batch_external(pcc[i], pcc[j], thresholds)

    labels = np.empty(len(sample), dtype=np.int8)
    for lo in range(0, len(sample), LABEL_BLOCK):
        block = slice(lo, lo + LABEL_BLOCK)
        labels[block] = label_block(sample.i_idx[block], sample.j_idx[block])
    return labels


def pattern_counts(corpus: LogCorpus, sample: PairSample, labels
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(8, 8) win and loss counts of labelled pairs, one pair at a time."""
    wins, losses = np.zeros((8, 8), np.int64), np.zeros((8, 8), np.int64)
    profile = corpus.profile.tolist()
    for i, j, lab in zip(sample.i_idx.tolist(), sample.j_idx.tolist(),
                         np.asarray(labels).tolist()):
        if lab:
            (wins if lab == 1 else losses)[profile[i], profile[j]] += 1
    return wins, losses


def fit_pair_model_from_pairs(corpus: LogCorpus, sample: PairSample, labels,
                              prior_variance: float = 1.0) -> PairModel:
    """The pair model fitted from every labelled pair: rows symmetrized,
    then aggregated by slot-profile pattern with ``np.unique``."""
    if prior_variance <= 0:
        raise ConfigError("prior variance must be positive")
    labels = np.asarray(labels)
    keep = labels != 0
    label = labels[keep]
    if len(label) == 0:
        raise InsufficientSignalError(
            "no nonzero-labeled pairs; the labeler abstained everywhere")

    shape = (4, 2, 4, 2)
    profile = corpus.profile
    i, j = profile[sample.i_idx[keep]], profile[sample.j_idx[keep]]
    key = np.concatenate([i * 8 + j, j * 8 + i])
    win = np.concatenate([label == 1, label == -1]).astype(float)
    patterns, pattern_of = np.unique(key, return_inverse=True)
    successes = np.bincount(pattern_of, weights=win)
    trials = np.bincount(pattern_of).astype(float)

    n_pat = len(patterns)
    p = 1 + 4 + 4 + 2 + 2 + n_pat
    ma = np.zeros((n_pat, p))
    a, g, b, h = np.unravel_index(patterns, shape)
    c = np.arange(n_pat)
    ma[:, 0] = 1.0
    ma[c, 1 + a] = ma[c, 5 + b] = ma[c, 9 + g] = ma[c, 11 + h] = 1.0
    ma[c, 13 + c] = 1.0
    penalty = np.full(p, 1.0 / prior_variance)
    penalty[0] = 0.0
    design = CellDesign(intercept_map=ma, slope_map=np.zeros_like(ma),
                        penalty=penalty)
    solution = fit_penalized_glm(successes, np.zeros(n_pat), c, design,
                                 Family.BINOMIAL_LOGIT, trials=trials)
    theta = solution.theta
    raw = np.full((8, 8), np.nan)
    raw.flat[patterns] = theta[13:]
    half = 0.5 * (raw - raw.T)
    interaction = np.where(np.tri(8, dtype=bool), -half.T, half)
    return PairModel(mu0=0.0, age=0.5 * (theta[1:5] - theta[5:9]),
                     gender=0.5 * (theta[9:11] - theta[11:13]),
                     interaction=interaction.reshape(shape),
                     prior_variance=prior_variance,
                     convergence=solution.convergence, n_pairs=len(label))


def final_successful_click(imp: Impression,
                           dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S
                           ) -> str | None:
    """Result id of the last click with dwell above threshold, else None."""
    for c in reversed(imp.clicks):
        if not math.isnan(c.dwell_seconds) and c.dwell_seconds > dwell_threshold_s:
            return c.result_id
    return None


def _most_common(values):
    """The most frequent value, ties to the smallest; None when empty."""
    counts = Counter(values)
    return min(counts, key=lambda v: (-counts[v], v), default=None)


def _pages(corpus: LogCorpus, rows: list[int],
           prefix_len: int) -> list[tuple[str, ...]]:
    """Each row's page: its first `prefix_len` result ids, as a tuple."""
    offsets, result = corpus.result_offsets.tolist(), corpus.result.tolist()
    return [tuple(corpus.result_ids[c] for c in
                  result[offsets[k]:offsets[k + 1]][:prefix_len])
            for k in rows]


def match_contexts(corpus: LogCorpus, factor: Factor,
                   navigational: set[str] | None = None, *,
                   min_impressions: int = matching.DEFAULT_MIN_IMPRESSIONS,
                   serp_prefix: int = matching.DEFAULT_SERP_PREFIX,
                   nav_share: float = matching.DEFAULT_NAV_SHARE,
                   dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S
                   ) -> tuple[dict[str, list[int]], list]:
    """The five-stage funnel on ``{query: rows}`` dicts, one dict per
    stage: the surviving rows by query and each stage's
    :class:`sataudit.matching.StageCount`."""
    group = factor.codes(corpus)
    n_groups = len(factor.groups())

    by_query: dict[str, list[int]] = {q: [] for q in corpus.queries}
    for k, code in enumerate(corpus.query.tolist()):
        by_query[corpus.queries[code]].append(k)
    stages: dict[str, dict[str, list[int]]] = {"input": by_query}

    if navigational is None:
        navigational = matching.navigational_queries_proxy(
            corpus, nav_share, dwell_threshold_s)
    stages["navigational"] = by_query = {
        q: rows for q, rows in by_query.items() if q in navigational}

    def meets_floor(rows: list[int]) -> bool:
        per_group = np.bincount(group[rows], minlength=n_groups)
        return bool(per_group.min() >= min_impressions)

    stages["min_impressions"] = by_query = {
        q: rows for q, rows in by_query.items() if meets_floor(rows)}

    final = corpus.derived("final_click", matching._final_click_column,
                           dwell_threshold_s).tolist()
    result_ids = corpus.result_ids + [None]       # code -1 reads None
    stage2 = [k for rows in by_query.values() for k in rows]
    page_of = dict(zip(stage2, _pages(corpus, stage2, serp_prefix)))
    stage3 = stages["final_click"] = {}
    stage4 = stages["serp"] = {}
    for q, rows in by_query.items():
        finals = [result_ids[final[k]] for k in rows]
        dominant = _most_common(f for f in finals if f is not None)
        if dominant is None:
            continue
        pages = [page_of[k] for k in rows]
        modal = _most_common(pages)
        stage3[q] = [k for k, f in zip(rows, finals) if f == dominant]
        kept = [k for k, f, page in zip(rows, finals, pages)
                if f == dominant and page == modal]
        if kept:
            stage4[q] = kept

    stages["min_impressions_recheck"] = by_query = {
        q: rows for q, rows in stage4.items() if meets_floor(rows)}

    attrition = [matching.StageCount(
                     stage, sum(len(rows) for rows in kept.values()),
                     len(kept)) for stage, kept in stages.items()]
    return by_query, attrition


def navigational_queries_proxy(
        corpus: LogCorpus, nav_share: float = matching.DEFAULT_NAV_SHARE,
        dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S) -> set[str]:
    """Queries where at least `nav_share` of the final successful clicks
    land on one result, from a count of every (query, result) pair."""
    final = matching._final_click_column(corpus, dwell_threshold_s)
    has = final >= 0
    keys, counts = np.unique(
        corpus.query[has].astype(np.int64) * len(corpus.result_ids)
        + final[has], return_counts=True)
    query = keys // len(corpus.result_ids)
    top = np.zeros(len(corpus.queries), dtype=np.int64)
    np.maximum.at(top, query, counts)
    total = np.bincount(query, weights=counts, minlength=len(corpus.queries))
    return {corpus.queries[q] for q in np.flatnonzero(top).tolist()
            if top[q] / total[q] >= nav_share}


def normalize(scores: RawScores, reference: dict | None = None
              ) -> tuple[dict, dict, set]:
    """Min-max normalized group scores as ``({metric: {group: value}},
    {metric: (lo, hi)}, degenerate metrics)``, one cell at a time; a
    `reference` maps each metric to the (lo, hi) to reuse."""
    groups = scores.groups
    out: dict = {}
    bounds: dict = {}
    degenerate: set = set()
    for k, kind in enumerate(METRICS):
        vals = dict(zip(groups, scores.raw[k].tolist()))
        stderr = dict(zip(groups, scores.stderr[k].tolist()))
        if reference is not None:
            lo, hi = reference[kind]
            span = hi - lo
            is_degenerate = span == 0
        else:
            g_lo = min(groups, key=lambda g: vals[g])
            g_hi = max(groups, key=lambda g: vals[g])
            lo, hi = vals[g_lo], vals[g_hi]
            span = hi - lo
            noise = 0.0
            for se in (stderr[g_lo], stderr[g_hi]):
                if not math.isnan(se):
                    noise += se * se
            is_degenerate = span == 0 or span <= 2.0 * math.sqrt(noise)
        bounds[kind] = (lo, hi)
        if is_degenerate:
            degenerate.add(kind)
        out[kind] = {g: 0.0 if is_degenerate else (vals[g] - lo) / span
                     for g in groups}
    return out, bounds, degenerate


def impression_to_dict(imp: Impression) -> dict:
    return {
        "impression_id": imp.impression_id,
        "user_id": imp.user_id,
        "session_id": imp.session_id,
        "timestamp": imp.timestamp,
        "query_text": imp.query_text,
        "topic": imp.topic,
        "results": list(imp.results),
        "clicks": [{"result_id": c.result_id, "position": c.position,
                    "dwell_seconds": c.dwell_seconds,
                    "terminated_query": c.terminated_query}
                   for c in imp.clicks],
        "reformulated": imp.reformulated,
        "demographics": {"age": imp.demographics.age.name,
                         "gender": imp.demographics.gender.code},
    }


def loop_midrank(values: np.ndarray) -> np.ndarray:
    """Reference midranks: walk the stably sorted values, giving each run
    of equal values the mean of its 1-based ranks."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=float)
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def difficulty_from_group_scores(group_scores: dict) -> dict[str, float]:
    """Reference rank-and-average over ``{group: {query: mean GU}}`` maps.

    Each group's queries, in text order, get the percentile
    1 - (midrank - 0.5) / n of their GU; a query's difficulty is the mean
    of its percentiles, added in the maps' group order.
    """
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for by_query in group_scores.values():
        queries = sorted(by_query)
        gu = np.array([by_query[q] for q in queries], dtype=float)
        pct = 1.0 - (loop_midrank(gu) - 0.5) / len(queries)
        for q, p in zip(queries, pct.tolist()):
            sums[q] = sums.get(q, 0.0) + p
            counts[q] = counts.get(q, 0) + 1
    return {q: sums[q] / counts[q] for q in sums}


def score_cells(group_scores: dict) -> tuple[np.ndarray, np.ndarray,
                                              np.ndarray, list[str]]:
    """``{group: {query: mean GU}}`` maps as the cell arrays that
    :func:`sataudit.difficulty.rank_and_average` reads: group index in map
    order, query code, GU, and the query texts, sorted, that the codes
    index."""
    queries = sorted({q for by_query in group_scores.values()
                      for q in by_query})
    code = {q: i for i, q in enumerate(queries)}
    cells = [(g, code[q], v)
             for g, by_query in enumerate(group_scores.values())
             for q, v in by_query.items()]
    return (np.array([c[0] for c in cells], dtype=np.intp),
            np.array([c[1] for c in cells], dtype=np.intp),
            np.array([c[2] for c in cells], dtype=float), queries)


def cell_coefficients(fit: MultilevelFit, age: AgeGroup, gender: Gender,
                      topic: str) -> tuple[float, float, bool]:
    """Composed (intercept, slope) for a cell.

    The returned flag is False when the topic was not seen in training;
    topic and interaction contributions are then zero, as is the
    interaction of a cell without observations.
    """
    e = fit.effects
    a, g = _AGES.index(age), list(Gender).index(gender)
    a0, a1 = e.age[a].tolist()
    g0, g1 = e.gender[g].tolist()
    seen = topic in fit.topics
    t0 = t1 = i0 = i1 = 0.0
    if seen:
        t = fit.topics.index(topic)
        t0, t1 = e.topic[t].tolist()
        if not np.isnan(e.interaction[t, a, g]).any():
            i0, i1 = e.interaction[t, a, g].tolist()
    return (e.mu0 + a0 + g0 + t0 + i0, e.mu1 + a1 + g1 + t1 + i1, seen)


def predict(fit: MultilevelFit, age: AgeGroup, gender: Gender, topic: str,
            difficulty: float) -> float:
    """Mean response for one cell at one difficulty (response scale)."""
    alpha, beta, _ = cell_coefficients(fit, age, gender, topic)
    return float(fit.family.linkinv(np.asarray(alpha + beta * difficulty)))


def predict_pair_prob(model: PairModel, age_i: AgeGroup, gender_i: Gender,
                      age_j: AgeGroup, gender_j: Gender) -> float:
    """P(slot i more satisfied than slot j), one profile pair at a time.

    Swapping the two slots gives the exact complement: the linear
    predictor negates term by term under the antisymmetric coefficients,
    and the sigmoid is taken on the non-negative branch with the
    complement formed by an exact subtraction.
    """
    a, b = _AGES.index(age_i), _AGES.index(age_j)
    g, h = list(Gender).index(gender_i), list(Gender).index(gender_j)
    age_term = model.age[a] - model.age[b]
    gender_term = model.gender[g] - model.gender[h]
    inter = np.nan_to_num(model.interaction[a, g, b, h])
    eta = ((age_term + gender_term) + inter) + model.mu0
    if eta >= 0:
        return 1.0 / (1.0 + math.exp(-eta))
    return 1.0 - 1.0 / (1.0 + math.exp(eta))


def _gate(s: float, center: float, width: float, floor: float,
          scale: float) -> float:
    z = (s - center) / width
    if z > 40:
        sig = 1.0
    elif z < -40:
        sig = 0.0
    else:
        sig = 1.0 / (1.0 + math.exp(-z))
    return floor + scale * sig


def reference_generate(config: ScenarioConfig
                       ) -> tuple[LogCorpus, GroundTruth]:
    """The scalar reference for :func:`sataudit.synth.generate`: the same
    draws, walked one impression at a time into record tuples."""
    b = config.behavior
    rng = np.random.default_rng(config.seed)
    queries = config.queries
    n_q = len(queries)
    n_res = {q.text: len(q.results) for q in queries}

    # per-profile cumulative query distribution
    age_w = np.array([q.age_weights for q in queries])          # (Q, 4)
    gender_w = np.array([q.gender_weights for q in queries])    # (Q, 2)
    cum_by_profile: dict[str, np.ndarray] = {}
    for p in all_profiles():
        w = age_w[:, p.age - 1] * gender_w[:, 0 if p.gender is Gender.MALE
                                           else 1]
        total = w.sum()
        if total <= 0:
            raise ConfigError(f"no positive query weight for profile {p.key}")
        cum_by_profile[p.key] = np.cumsum(w / total)

    # roster: impressions per user, profile order fixed
    profiles, counts = [], []
    for p in all_profiles():
        n_users = config.users_per_profile.get(p.key, 0)
        if n_users == 0:
            continue
        extra = rng.poisson(b.mean_extra_impressions, size=n_users)
        extra = np.minimum(extra, b.max_impressions_per_user - 1)
        profiles.extend([p] * n_users)
        counts.extend((1 + extra).tolist())
    n_total = int(sum(counts))

    age_idx = np.repeat([p.age - 1 for p in profiles], counts)
    user_ord = np.repeat(np.arange(len(profiles)), counts)
    pos_in_user = np.concatenate([np.arange(c) for c in counts])
    is_last = np.concatenate([np.arange(c) == c - 1 for c in counts])

    z_sat = rng.standard_normal(n_total)
    u_query = rng.random(n_total)
    u_reform = rng.random(n_total)
    u_success = rng.random(n_total)
    u_click = rng.random(n_total)
    u_conc = rng.random(n_total)
    u_swap = rng.random(n_total)
    swap_at = rng.integers(0, 1 << 30, size=n_total)
    browse_slot = rng.integers(0, 1 << 30, size=n_total)
    final_slot = rng.integers(0, 1 << 30, size=n_total)
    click_mult = np.array([config.click_multipliers.get(a, 1.0)
                           for a in _AGES])
    stray = rng.poisson(b.stray_click_rate * click_mult[age_idx])
    z_browse = rng.standard_normal(n_total)
    z_final = rng.standard_normal(n_total)
    z_stray = rng.standard_normal(int(stray.sum()))
    stray_slot = rng.integers(0, 1 << 30, size=int(stray.sum()))

    latent: list[float] = []

    def records():
        # one logmodel record tuple at a time, so the corpus holds its
        # columns only
        stray_ptr = 0
        prev_query = -1
        prev_reform = False
        for i in range(n_total):
            p = profiles[user_ord[i]]
            if pos_in_user[i] == 0:
                prev_query, prev_reform = -1, False
            if prev_reform and prev_query >= 0:
                qi = prev_query
            else:
                qi = int(np.searchsorted(cum_by_profile[p.key], u_query[i]))
                qi = min(qi, n_q - 1)
            q = queries[qi]
            dwell_mult = config.dwell_multipliers.get(p.age, 1.0)

            s = (b.base_sat(q.difficulty) + config.offset_for(p)
                 + b.satisfaction_noise * float(z_sat[i]))
            s = min(1.0, max(0.0, s))

            # reformulation fires when satisfaction is LOW: mirror the gate
            reform_intent = u_reform[i] < _gate(-s, -b.reform_center,
                                                b.channel_width, b.reform_floor,
                                                b.reform_scale)
            success = u_success[i] < _gate(s, b.success_center, b.channel_width,
                                           b.success_floor, b.success_scale)
            p_browse = _gate(s, b.click_center, b.channel_width, b.click_floor,
                             b.click_scale) * config.click_multipliers.get(p.age,
                                                                           1.0)
            browse = u_click[i] < min(p_browse, 0.98)

            r = n_res[q.text]
            serp = list(q.results)
            if u_swap[i] < b.serp_swap_prob and r >= 2:
                k = int(swap_at[i] % (r - 1))
                serp[k], serp[k + 1] = serp[k + 1], serp[k]

            short_med = (b.short_dwell_base + b.short_dwell_slope * s) * dwell_mult
            # (result_id, position, dwell_seconds, terminated_query)
            clicks: list[tuple] = []
            if browse:
                slot = 1 + int(browse_slot[i] % (r - 1)) if r > 1 else 0
                dwell = short_med * math.exp(b.short_dwell_sigma * z_browse[i])
                clicks.append((q.results[slot],
                               serp.index(q.results[slot]) + 1,
                               round(dwell, 2), False))
            for _ in range(int(stray[i])):
                slot = int(stray_slot[stray_ptr] % r)
                dwell = short_med * math.exp(
                    b.short_dwell_sigma * z_stray[stray_ptr])
                clicks.append((q.results[slot],
                               serp.index(q.results[slot]) + 1,
                               round(dwell, 2), False))
                stray_ptr += 1
            if success:
                conc = (b.nav_concentration if q.navigational
                        else b.other_concentration)
                if u_conc[i] < conc or r == 1:
                    target = q.results[0]
                else:
                    target = q.results[1 + int(final_slot[i] % (r - 1))]
                med = (b.success_dwell_base + b.success_dwell_slope * s) \
                    * dwell_mult
                dwell = max(med * math.exp(b.success_dwell_sigma * z_final[i]),
                            b.success_dwell_min)
                clicks.append((target, serp.index(target) + 1,
                               round(dwell, 2), True))

            uid = f"u{user_ord[i]:06d}"
            yield (f"imp{i:08d}", uid, f"s-{uid}",
                   1_600_000_000 + int(user_ord[i]) * 600
                   + int(pos_in_user[i]) * 45,
                   q.text, q.topic, list(serp), clicks,
                   bool(reform_intent and not is_last[i]), p)
            latent.append(s)
            prev_query, prev_reform = qi, reform_intent and not is_last[i]

    corpus = from_records(records())
    latent_column = np.array(latent, dtype=float)
    latent_column.setflags(write=False)

    truth = GroundTruth(
        latent=latent_column,
        difficulty={normalize_query(q.text): q.difficulty for q in queries},
        navigational={normalize_query(q.text) for q in queries
                      if q.navigational})
    return corpus, truth


def dict_write_csv(path, fieldnames: list[str], rows: list[dict],
                   meta: dict) -> None:
    """A report CSV: the metadata block, then `rows` by ``csv.DictWriter``."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        for key in META_KEYS:
            f.write(f"# {key}: {meta[key]}\n")
        writer = csv.DictWriter(f, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
