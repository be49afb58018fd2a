"""Direct pairwise satisfaction comparison across demographic groups.

Within a query, impressions from users of different groups are paired
and a rule cascade labels which side looks more satisfied (+1, -1, or 0
when too close to call).  The cascade compares reformulation first, then
graded utility against a strong threshold, then successful click count,
then a weaker joint condition; all comparisons are strict, so ties and
sub-threshold differences abstain.  Thresholds derive from the
multilevel model's largest predicted group gap delta as k * delta
(strong) and k * delta / 2 (weak); count-valued thresholds snap to
integers, while graded-utility thresholds stay continuous because GU
differences live on a 1/3-spaced grid and any threshold between grid
points acts identically.

A penalized logistic model then regresses the labels on slot indicator
features (age and gender of each side plus their four-way interaction).
Training data is symmetrized -- every pair enters in both orders with
the label negated -- which makes the fitted coefficients antisymmetric
under slot swap, so predicted probabilities satisfy
P(i beats j) = 1 - P(j beats i) exactly.

An external variant labels on page click count alone, for logs without
dwell fidelity.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, InsufficientSignalError
from .aggregate import Factor
from .glmfit import CellDesign, Convergence, Family, fit_penalized_glm
from .logmodel import AgeGroup, Gender, LogCorpus
from .metrics import DEFAULT_DWELL_THRESHOLD_S, MetricKind, metric_table

logger = logging.getLogger(__name__)

_AGES = list(AgeGroup)
_GENDERS = list(Gender)

DEFAULT_QUERY_FRACTION = 0.1
DEFAULT_PAIRS_PER_QUERY = 10_000
# the (row, column) genders of the age grid that audits report
GRID_GENDERS = (Gender.MALE, Gender.FEMALE)


@dataclass(frozen=True)
class PairThresholds:
    """Labeling thresholds; defaults are the internal cascade's published
    operating point."""

    gu_strong: float = 0.4
    scc_strong: float = 2.0
    gu_weak: float = 0.2
    scc_weak: float = 1.0
    pcc_external: float = 2.0
    k: float = 2.5

    def __post_init__(self):
        if not (self.gu_strong > self.gu_weak > 0):
            raise ConfigError("need gu_strong > gu_weak > 0")
        if not (self.scc_strong > self.scc_weak >= 1):
            raise ConfigError("need scc_strong > scc_weak >= 1")
        if self.pcc_external < 1:
            raise ConfigError("need pcc_external >= 1")


DEFAULT_THRESHOLDS = PairThresholds()


def _round_half_up(v: float) -> int:
    return int(math.floor(v + 0.5))


def derive_thresholds_from_deltas(deltas: dict[MetricKind, float],
                                  k: float = 2.5) -> PairThresholds:
    """Thresholds from per-metric group-gap deltas.

    Any metric whose delta is missing or non-positive falls back to its
    default threshold with a warning.
    """
    if k <= 0:
        raise ConfigError("k must be positive")
    gu = deltas.get(MetricKind.GRADED_UTILITY, 0.0)
    scc = deltas.get(MetricKind.SUCCESSFUL_CLICK_COUNT, 0.0)
    pcc = deltas.get(MetricKind.PAGE_CLICK_COUNT, 0.0)
    if gu > 0:
        gu_strong, gu_weak = k * gu, k * gu / 2.0
    else:
        logger.warning("graded-utility delta unavailable; "
                       "falling back to default GU thresholds")
        gu_strong, gu_weak = DEFAULT_THRESHOLDS.gu_strong, DEFAULT_THRESHOLDS.gu_weak
    if scc > 0:
        scc_weak = max(1, _round_half_up(k * scc / 2.0))
        scc_strong = max(scc_weak + 1, _round_half_up(k * scc))
    else:
        logger.warning("successful-click delta unavailable; "
                       "falling back to default SCC thresholds")
        scc_strong, scc_weak = (DEFAULT_THRESHOLDS.scc_strong,
                                DEFAULT_THRESHOLDS.scc_weak)
    if pcc > 0:
        pcc_external = max(1, _round_half_up(k * pcc))
    else:
        logger.warning("page-click delta unavailable; "
                       "falling back to the default external threshold")
        pcc_external = DEFAULT_THRESHOLDS.pcc_external
    return PairThresholds(gu_strong=gu_strong, scc_strong=float(scc_strong),
                          gu_weak=gu_weak, scc_weak=float(scc_weak),
                          pcc_external=float(pcc_external), k=k)


# ---------------------------------------------------------------------------
# labeling

def label_batch_internal(gu_i, reform_i, scc_i, gu_j, reform_j, scc_j,
                         thresholds: PairThresholds = DEFAULT_THRESHOLDS
                         ) -> np.ndarray:
    """Internal rule cascade over arrays of pairs; first matching rule wins.

    Reformulation decides first, then graded utility against the strong
    threshold, then successful click count, then the weak joint rule.
    All comparisons are strict, so a difference at exactly a threshold
    abstains (0).
    """
    gu = np.asarray(gu_i, dtype=float) - np.asarray(gu_j, dtype=float)
    scc = np.asarray(scc_i, dtype=float) - np.asarray(scc_j, dtype=float)
    reform_i = np.asarray(reform_i)
    reform_j = np.asarray(reform_j)
    conds = [
        reform_i < reform_j, reform_i > reform_j,
        gu > thresholds.gu_strong, -gu > thresholds.gu_strong,
        scc > thresholds.scc_strong, -scc > thresholds.scc_strong,
        (gu > thresholds.gu_weak) & (scc > thresholds.scc_weak),
        (-gu > thresholds.gu_weak) & (-scc > thresholds.scc_weak),
    ]
    outs = [1, -1, 1, -1, 1, -1, 1, -1]
    return np.select(conds, outs, default=0).astype(np.int8)


def label_batch_external(pcc_i, pcc_j,
                         thresholds: PairThresholds = DEFAULT_THRESHOLDS
                         ) -> np.ndarray:
    """Clicks-only label: page click count difference beyond threshold."""
    pcc = np.asarray(pcc_i, dtype=float) - np.asarray(pcc_j, dtype=float)
    return np.select([pcc > thresholds.pcc_external,
                      -pcc > thresholds.pcc_external],
                     [1, -1], default=0).astype(np.int8)


# ---------------------------------------------------------------------------
# eligibility and sampling

def eligible_queries(corpus: LogCorpus, factor: Factor = Factor.AGE,
                     min_groups: int = 3, min_impressions: int = 10) -> list[str]:
    """Queries issued by at least `min_groups` distinct groups with at
    least `min_impressions` impressions, sorted for determinism."""
    n_groups = len(factor.groups())
    per_group = np.bincount(corpus.query * n_groups + factor.codes(corpus),
                            minlength=len(corpus.queries) * n_groups)
    return sorted(q for q, row in zip(corpus.queries,
                                      per_group.reshape(-1, n_groups).tolist())
                  if sum(n > 0 for n in row) >= min_groups
                  and sum(row) >= min_impressions)


@dataclass
class PairSample:
    """Sampled cross-group impression pairs, as indices into the corpus."""

    i_idx: np.ndarray
    j_idx: np.ndarray
    queries: list[str]

    def __len__(self) -> int:
        return len(self.i_idx)


def sample_pairs(corpus: LogCorpus, queries: list[str], seed: int,
                 fraction: float = DEFAULT_QUERY_FRACTION,
                 pairs_per_query: int = DEFAULT_PAIRS_PER_QUERY,
                 factor: Factor = Factor.AGE) -> PairSample:
    """Seeded two-stage sample: a slice of queries, then per query up to
    `pairs_per_query` unordered cross-group pairs.

    When a query has fewer distinct cross-group pairs than requested,
    pairs are drawn with replacement, so small queries still contribute
    the full quota.  Deterministic given the seed.
    """
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
    order = corpus.id_order
    query_in_order = corpus.query[order]
    group = factor.codes(corpus)
    i_out, j_out = [], []
    for q in chosen:
        # the query's impressions, in impression_id order
        members = order[query_in_order == query_code.get(q, -1)]
        n = len(members)
        codes = group[members]
        per_group = np.bincount(codes)
        n_cross = (n * n - int(per_group @ per_group)) // 2
        if n_cross == 0:
            continue
        if n_cross <= max(4 * pairs_per_query, 200_000):
            ia, ib = np.triu_indices(n, 1)
            keep = codes[ia] != codes[ib]
            ia, ib = ia[keep], ib[keep]
            if n_cross < pairs_per_query:
                picks = rng.integers(0, n_cross, size=pairs_per_query)
            elif n_cross == pairs_per_query:
                picks = np.arange(n_cross)
            else:
                picks = rng.choice(n_cross, size=pairs_per_query,
                                   replace=False)
            i_sel, j_sel = ia[picks], ib[picks]
        else:
            # too many pairs to enumerate: batched rejection sampling on
            # packed (a, b) keys, deduplicated until the quota is met
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
            i_sel = (have // n).astype(np.intp)
            j_sel = (have % n).astype(np.intp)
        i_out.append(members[i_sel])
        j_out.append(members[j_sel])
    if i_out:
        i_idx, j_idx = np.concatenate(i_out), np.concatenate(j_out)
    else:
        i_idx = j_idx = np.empty(0, dtype=np.intp)
    return PairSample(i_idx=i_idx, j_idx=j_idx, queries=chosen)


@dataclass
class LabeledPairSet:
    """Nonzero-labeled pairs reduced to slot demographics, for fitting."""

    age_i: np.ndarray
    gender_i: np.ndarray
    age_j: np.ndarray
    gender_j: np.ndarray
    label: np.ndarray

    def __len__(self) -> int:
        return len(self.label)


def label_sample(corpus: LogCorpus, sample: PairSample,
                 thresholds: PairThresholds = DEFAULT_THRESHOLDS,
                 mode: str = "internal",
                 dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S
                 ) -> np.ndarray:
    """Labels for a pair sample under the internal or external rule set."""
    if mode not in ("internal", "external"):
        raise ConfigError(f"unknown labeling mode {mode!r}")
    if mode == "internal" and not corpus.has_dwell:
        raise DataError("internal labeling needs dwell fidelity; this corpus "
                        "is clicks-only (use the external labeler)")
    i, j = sample.i_idx, sample.j_idx
    if mode == "internal":
        gu, reform, _, scc = metric_table(corpus, dwell_threshold_s).T
        return label_batch_internal(gu[i], reform[i], scc[i],
                                    gu[j], reform[j], scc[j], thresholds)
    pcc = corpus.click_count
    return label_batch_external(pcc[i], pcc[j], thresholds)


def build_labeled_pairs(corpus: LogCorpus, sample: PairSample,
                        labels: np.ndarray) -> LabeledPairSet:
    """Keep the nonzero-labeled pairs with their slot demographics."""
    labels = np.asarray(labels)
    keep = labels != 0
    i, j = sample.i_idx[keep], sample.j_idx[keep]
    age, gender = corpus.age, corpus.gender
    return LabeledPairSet(age_i=age[i], gender_i=gender[i], age_j=age[j],
                          gender_j=gender[j],
                          label=labels[keep].astype(np.int8))


# ---------------------------------------------------------------------------
# pair preference model

@dataclass
class PairModel:
    """Logistic preference model over slot demographics.

    Coefficients are stored antisymmetrized (slot-i and slot-j blocks are
    exact negations, interactions negate under slot swap, mu0 is zero),
    which the symmetrized training objective already implies at its
    optimum; storing the projection makes the complement identity exact.
    """

    mu0: float
    age_i: dict[AgeGroup, float]
    age_j: dict[AgeGroup, float]
    gender_i: dict[Gender, float]
    gender_j: dict[Gender, float]
    interaction: dict[tuple[AgeGroup, Gender, AgeGroup, Gender], float]
    prior_variance: float
    convergence: Convergence
    n_pairs: int = 0
    thresholds: PairThresholds | None = None

    def to_dict(self) -> dict:
        return {
            "mu0": self.mu0,
            "age_i": {a.name: v for a, v in self.age_i.items()},
            "age_j": {a.name: v for a, v in self.age_j.items()},
            "gender_i": {g.code: v for g, v in self.gender_i.items()},
            "gender_j": {g.code: v for g, v in self.gender_j.items()},
            "interaction": {
                f"{a.name}|{g.code}|{b.name}|{h.code}": v
                for (a, g, b, h), v in sorted(
                    self.interaction.items(),
                    key=lambda kv: (kv[0][0].name, kv[0][1].code,
                                    kv[0][2].name, kv[0][3].code))},
            "prior_variance": self.prior_variance,
            "n_pairs": self.n_pairs,
        }


def fit_pair_model(pairs: LabeledPairSet,
                   prior_variance: float = 1.0) -> PairModel:
    """Penalized logistic fit of P(side i beats side j).

    Training rows are symmetrized (both orders, negated label) and then
    aggregated by slot-demographic pattern into binomial counts, so the
    fit cost is independent of the pair count.
    """
    if prior_variance <= 0:
        raise ConfigError("prior variance must be positive")
    if len(pairs) == 0:
        raise InsufficientSignalError(
            "no nonzero-labeled pairs; the labeler abstained everywhere")

    ai = np.concatenate([pairs.age_i, pairs.age_j])
    gi = np.concatenate([pairs.gender_i, pairs.gender_j])
    aj = np.concatenate([pairs.age_j, pairs.age_i])
    gj = np.concatenate([pairs.gender_j, pairs.gender_i])
    win = np.concatenate([pairs.label == 1, pairs.label == -1]).astype(float)

    key = ((ai * 2 + gi) * 8) + (aj * 2 + gj)
    patterns, pattern_of = np.unique(key, return_inverse=True)
    successes = np.bincount(pattern_of, weights=win)
    trials = np.bincount(pattern_of).astype(float)

    n_pat = len(patterns)
    combos = [(int(k) // 16, (int(k) // 8) % 2, (int(k) % 8) // 2, int(k) % 2)
              for k in patterns]
    p = 1 + 4 + 4 + 2 + 2 + n_pat
    ma = np.zeros((n_pat, p))
    ma[:, 0] = 1.0
    for c, (a, g, b, h) in enumerate(combos):
        ma[c, 1 + a] = 1.0
        ma[c, 5 + b] = 1.0
        ma[c, 9 + g] = 1.0
        ma[c, 11 + h] = 1.0
        ma[c, 13 + c] = 1.0
    penalty = np.full(p, 1.0 / prior_variance)
    penalty[0] = 0.0
    design = CellDesign(intercept_map=ma, slope_map=np.zeros_like(ma),
                        penalty=penalty)
    zeros = np.zeros(n_pat)
    solution = fit_penalized_glm(successes, zeros, np.arange(n_pat), design,
                                 Family.BINOMIAL_LOGIT, trials=trials)
    theta = solution.theta

    age_i, age_j = {}, {}
    for a in range(4):
        v = 0.5 * (theta[1 + a] - theta[5 + a])
        age_i[_AGES[a]] = float(v)
        age_j[_AGES[a]] = float(-v)
    gender_i, gender_j = {}, {}
    for g in range(2):
        v = 0.5 * (theta[9 + g] - theta[11 + g])
        gender_i[_GENDERS[g]] = float(v)
        gender_j[_GENDERS[g]] = float(-v)

    # symmetrized training data contains every pattern's mirror, so each
    # canonical orientation pairs with an observed reverse
    raw_inter = {combo: float(theta[13 + c]) for c, combo in enumerate(combos)}
    interaction: dict[tuple[AgeGroup, Gender, AgeGroup, Gender], float] = {}
    for (a, g, b, h), v in raw_inter.items():
        if (a, g) > (b, h):
            continue
        half = 0.5 * (v - raw_inter[(b, h, a, g)])
        interaction[(_AGES[a], _GENDERS[g], _AGES[b], _GENDERS[h])] = half
        interaction[(_AGES[b], _GENDERS[h], _AGES[a], _GENDERS[g])] = -half

    return PairModel(mu0=0.0, age_i=age_i, age_j=age_j, gender_i=gender_i,
                     gender_j=gender_j, interaction=interaction,
                     prior_variance=prior_variance,
                     convergence=solution.convergence, n_pairs=len(pairs))


def _sigmoid_nonneg(z: float) -> float:
    # z >= 0, result in [0.5, 1]
    return 1.0 / (1.0 + math.exp(-z))


def predict_pair_prob(model: PairModel, age_i: AgeGroup, gender_i: Gender,
                      age_j: AgeGroup, gender_j: Gender) -> float:
    """P(slot i more satisfied than slot j).

    Evaluated so that swapping the two slots gives the exact complement:
    the linear predictor negates term-by-term under the antisymmetric
    coefficients, and the sigmoid is taken on the non-negative branch
    with the complement formed by an exact subtraction.
    """
    age_term = model.age_i[age_i] + model.age_j[age_j]
    gender_term = model.gender_i[gender_i] + model.gender_j[gender_j]
    inter = model.interaction.get((age_i, gender_i, age_j, gender_j), 0.0)
    eta = ((age_term + gender_term) + inter) + model.mu0
    if eta >= 0:
        return _sigmoid_nonneg(eta)
    return 1.0 - _sigmoid_nonneg(-eta)


def probability_grid(model: PairModel
                     ) -> dict[AgeGroup, dict[AgeGroup, float]]:
    """4x4 age grid of P(row beats column), the row of gender
    GRID_GENDERS[0] and the column of GRID_GENDERS[1]."""
    gender_i, gender_j = GRID_GENDERS
    return {a: {b: predict_pair_prob(model, a, gender_i, b, gender_j)
                for b in _AGES}
            for a in _AGES}
