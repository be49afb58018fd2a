"""Scalar reference rules that tests compare the library's columns against.

Each works on one `corpus_builders.Impression` record at a time, the
plain way: the metric definitions of :mod:`sataudit.metrics`, the final
successful click that context matching keys on, the NDJSON record
dict that :func:`sataudit.logmodel.emit` writes, and query-averaged
group scores summed in loops, the reference for
:func:`sataudit.aggregate.query_averaged_scores`, and the enumerated
cross-group pairs of one query, the reference for the pair picks of
:func:`sataudit.pairwise.sample_pairs`.  `cell_coefficients`
and `predict` compose one cell's multilevel prediction at one
difficulty, the scalar reference for
:func:`sataudit.multilevel.cell_curves`.  `reference_generate` is the
generator as a loop over impressions, the reference for
:func:`sataudit.synth.generate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from corpus_builders import Impression, from_records
from sataudit.errors import ConfigError, DataError
from sataudit.logmodel import AgeGroup, Gender, LogCorpus, all_profiles, \
    normalize_query
from sataudit.aggregate import Factor
from sataudit.metrics import DEFAULT_DWELL_THRESHOLD_S, METRICS, MetricKind
from sataudit.multilevel import MultilevelFit
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
    stderr)})``: a (group, query) cell's mean over its impressions in
    order, then the mean and standard error of the group's cell means in
    first-appearance order, every sum a left-to-right loop."""
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
            means = [_loop_sum(v.value(kind) for v in vectors) / len(vectors)
                     for vectors in by_query.values()]
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


def final_successful_click(imp: Impression,
                           dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S
                           ) -> str | None:
    """Result id of the last click with dwell above threshold, else None."""
    for c in reversed(imp.clicks):
        if not math.isnan(c.dwell_seconds) and c.dwell_seconds > dwell_threshold_s:
            return c.result_id
    return None


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


def cell_coefficients(fit: MultilevelFit, age: AgeGroup, gender: Gender,
                      topic: str) -> tuple[float, float, bool]:
    """Composed (intercept, slope) for a cell.

    The returned flag is False when the topic was not seen in training;
    topic and interaction contributions are then zero.
    """
    e = fit.effects
    a0, a1 = e.age[age]
    g0, g1 = e.gender[gender]
    seen = topic in e.topic
    t0, t1 = e.topic.get(topic, (0.0, 0.0))
    i0, i1 = e.interaction.get((age, gender, topic), (0.0, 0.0))
    return (e.mu0 + a0 + g0 + t0 + i0, e.mu1 + a1 + g1 + t1 + i1, seen)


def predict(fit: MultilevelFit, age: AgeGroup, gender: Gender, topic: str,
            difficulty: float) -> float:
    """Mean response for one cell at one difficulty (response scale)."""
    alpha, beta, _ = cell_coefficients(fit, age, gender, topic)
    return float(fit.family.linkinv(np.asarray(alpha + beta * difficulty)))


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
