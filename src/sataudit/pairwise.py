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
It reads only how many pairs of each (profile i, profile j) pattern won
and lost, so the pair stage keeps those counts and no pair.
Training data is symmetrized -- every pair enters in both orders with
the label negated -- which makes the fitted coefficients antisymmetric
under slot swap, so predicted probabilities satisfy
P(i beats j) = 1 - P(j beats i) exactly.

An external variant labels on page click count alone, for logs without
dwell fidelity.
"""

from __future__ import annotations

import itertools
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

    Any metric whose delta is missing, NaN or non-positive falls back to
    its default threshold with a warning; a positive delta whose
    ``k * delta`` is not finite is a ConfigError.
    """
    if k <= 0:
        raise ConfigError("k must be positive")
    kinds = (MetricKind.GRADED_UTILITY, MetricKind.SUCCESSFUL_CLICK_COUNT,
             MetricKind.PAGE_CLICK_COUNT)
    gu, scc, pcc = (deltas.get(kind, 0.0) for kind in kinds)
    for kind, delta in zip(kinds, (gu, scc, pcc)):
        if delta > 0 and not math.isfinite(k * delta):
            raise ConfigError(f"k = {k!r} is too large for the {kind.value} "
                              f"delta {delta!r}: k * delta is not finite")
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
                     min_groups: int | None = None,
                     min_impressions: int = 10) -> list[str]:
    """Queries issued by at least `min_groups` distinct groups (None: 3
    for age, 2 for gender; a pair needs two, so fewer is a ConfigError)
    with at least `min_impressions` impressions in total (where matching
    asks that many of every group), in code order, which is text order."""
    n_groups = len(factor.groups())
    if min_groups is None:
        min_groups = 3 if factor is Factor.AGE else 2
    if min_groups < 2:
        raise ConfigError(f"min_groups must be at least 2, got {min_groups}")
    per_group = np.bincount(corpus.query * n_groups + factor.codes(corpus),
                            minlength=len(corpus.queries) * n_groups
                            ).reshape(-1, n_groups)
    keep = (((per_group > 0).sum(axis=1) >= min_groups)
            & (per_group.sum(axis=1) >= min_impressions))
    return [corpus.queries[q] for q in np.flatnonzero(keep).tolist()]


@dataclass(frozen=True)
class PairCounts:
    """What the pair stage keeps of one labeller's run: the sampled
    queries (in text order), the number of pairs drawn, and per (slot i
    profile, slot j profile) pattern (:attr:`LogCorpus.profile` codes) the
    pairs labelled +1 (`wins`) and -1 (`losses`), each an (8, 8) int64
    matrix.  The pair model reads nothing else."""

    queries: list[str]
    n_pairs: int
    wins: np.ndarray
    losses: np.ndarray


def _cross_pairs_at(codes: np.ndarray, picks: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Positions (a, b), a < b, of the `picks`-th cross-group pairs.

    Cross-group pairs are numbered in lexicographic (a, b) order, the
    order of ``np.triu_indices`` filtered to differing codes, without
    building the n(n-1)/2 position pairs: each member's count of later
    partners gives a pick's `a`, and its `b` is found by position among
    the members of the other groups.  Besides O(n) per-member arrays this
    holds one int32 owner per cross pair, which the enumeration limit in
    :func:`_draw_pairs` caps.
    """
    n = len(codes)
    pos = np.arange(n)
    per_group = np.bincount(codes)
    by_group = np.argsort(codes, kind="stable")
    rank = np.empty(n, dtype=np.intp)      # position within its own group
    rank[by_group] = pos - (np.cumsum(per_group) - per_group)[codes[by_group]]
    # members after each one outside its group, and its first pick
    later = (n - 1 - pos) - (per_group[codes] - 1 - rank)
    first_pick = np.cumsum(later) - later
    # the other groups' members in position order, one block per group;
    # `pos - rank` of a member's block lie at or before it
    others = np.concatenate([pos[codes != g] for g in range(len(per_group))])
    block = np.cumsum(n - per_group) - (n - per_group)
    first = block[codes] + pos - rank - first_pick
    a = np.repeat(pos.astype(np.int32), later)[picks]
    return a, others[first[a] + picks]


def _draw_pairs(codes: np.ndarray, pairs_per_query: int,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One query's draw of up to `pairs_per_query` unordered cross-group
    pairs, as positions (a, b), a < b, into its `codes`: with replacement
    when it has fewer distinct ones than the quota, so small queries still
    contribute the full quota."""
    n = len(codes)
    per_group = np.bincount(codes)
    n_cross = (n * n - int(per_group @ per_group)) // 2
    if n_cross == 0:
        return codes[:0], codes[:0]
    if n_cross <= max(4 * pairs_per_query, 200_000):
        if n_cross < pairs_per_query:
            picks = rng.integers(0, n_cross, size=pairs_per_query)
        elif n_cross == pairs_per_query:
            picks = np.arange(n_cross)
        else:
            picks = rng.choice(n_cross, size=pairs_per_query, replace=False)
        return _cross_pairs_at(codes, picks)
    # too many pairs to enumerate: batched rejection sampling on packed
    # (a, b) keys, deduplicated until the quota is met
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
    return have // n, have % n


def count_pair_labels(corpus: LogCorpus, queries: list[str], seed: int,
                      thresholds: PairThresholds = DEFAULT_THRESHOLDS,
                      mode: str = "internal",
                      fraction: float = DEFAULT_QUERY_FRACTION,
                      pairs_per_query: int = DEFAULT_PAIRS_PER_QUERY,
                      factor: Factor = Factor.AGE,
                      dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S
                      ) -> PairCounts:
    """The pair stage, one query at a time: a seeded slice of `queries`,
    then per query up to `pairs_per_query` unordered cross-group pairs,
    labelled under the internal or external rule set and added to the
    win and loss counts of their profile patterns.

    Deterministic given the seed.  Only the counts outlive a query, so
    memory grows with one query's quota, not with the sample's size.
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

    if mode not in ("internal", "external"):
        raise ConfigError(f"unknown labeling mode {mode!r}")
    if mode == "internal" and not corpus.has_dwell:
        raise DataError("internal labeling needs dwell fidelity; this corpus "
                        "is clicks-only (use the external labeler)")
    if mode == "internal":
        gu, reform, _, scc = metric_table(corpus, dwell_threshold_s).T

        def label(i, j):
            return label_batch_internal(gu[i], reform[i], scc[i],
                                        gu[j], reform[j], scc[j], thresholds)
    else:
        pcc = corpus.click_count

        def label(i, j):
            return label_batch_external(pcc[i], pcc[j], thresholds)

    query_code = {q: c for c, q in enumerate(corpus.queries)}
    group, profile = factor.codes(corpus), corpus.profile
    wins = np.zeros(64, dtype=np.int64)
    losses = np.zeros(64, dtype=np.int64)
    n_pairs = 0
    for q in chosen:
        # the query's impressions, in row (impression-id) order
        members = np.flatnonzero(corpus.query == query_code.get(q, -1))
        a, b = _draw_pairs(group[members], pairs_per_query, rng)
        i, j = members[a], members[b]
        labels = label(i, j)
        pattern = profile[i] * 8 + profile[j]
        wins += np.bincount(pattern[labels == 1], minlength=64)
        losses += np.bincount(pattern[labels == -1], minlength=64)
        n_pairs += len(i)
    return PairCounts(queries=chosen, n_pairs=n_pairs,
                      wins=wins.reshape(8, 8), losses=losses.reshape(8, 8))


# ---------------------------------------------------------------------------
# pair preference model

@dataclass
class PairModel:
    """Logistic preference model over slot demographics;
    :func:`probability_grid` evaluates it for every pair of profiles.

    Coefficients are stored antisymmetrized (slot j's effects negate slot
    i's `age` and `gender`, `interaction[a, g, b, h]` negates under slot
    swap and is NaN for a pattern never observed, mu0 is zero), which the
    symmetrized training objective already implies at its optimum; storing
    the projection makes the complement identity exact.
    """

    mu0: float
    age: np.ndarray                # (4,)
    gender: np.ndarray             # (2,)
    interaction: np.ndarray        # (4, 2, 4, 2)
    prior_variance: float
    convergence: Convergence
    n_pairs: int = 0
    thresholds: PairThresholds | None = None

    def to_dict(self) -> dict:
        age, gender = self.age.tolist(), self.gender.tolist()
        inter = {f"{a.name}|{g.code}|{b.name}|{h.code}": v
                 for (a, g, b, h), v in zip(
                     itertools.product(_AGES, _GENDERS, _AGES, _GENDERS),
                     self.interaction.ravel().tolist())
                 if not math.isnan(v)}
        return {
            "mu0": self.mu0,
            "age_i": {a.name: v for a, v in zip(_AGES, age)},
            "age_j": {a.name: -v for a, v in zip(_AGES, age)},
            "gender_i": {g.code: v for g, v in zip(_GENDERS, gender)},
            "gender_j": {g.code: -v for g, v in zip(_GENDERS, gender)},
            # fixed-width names and codes: text order is tuple order
            "interaction": dict(sorted(inter.items())),
            "prior_variance": self.prior_variance,
            "n_pairs": self.n_pairs,
        }


def fit_pair_model(counts: PairCounts,
                   prior_variance: float = 1.0) -> PairModel:
    """Penalized logistic fit of P(side i beats side j) on the labelled
    pairs' win and loss counts.

    Training pairs are symmetrized (both orders, negated label), so the
    binomial cell of pattern (i, j) has successes ``W + L.T`` and trials
    ``(W + L) + (W + L).T`` at (i, j), for the win and loss matrices W
    and L; the observed patterns enter in flat-index order.  The fit cost
    is independent of the pair count.
    """
    if prior_variance <= 0:
        raise ConfigError("prior variance must be positive")
    wins, losses = counts.wins, counts.losses
    fired = wins + losses
    n_labelled = int(fired.sum())
    if n_labelled == 0:
        raise InsufficientSignalError(
            "no nonzero-labeled pairs; the labeler abstained everywhere")

    shape = (4, 2, 4, 2)            # slot i's age and gender, then slot j's
    trials = (fired + fired.T).ravel()
    patterns = np.flatnonzero(trials)
    successes = (wins + losses.T).ravel()[patterns].astype(float)
    trials = trials[patterns].astype(float)

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

    # symmetrized training data contains every pattern's mirror; over the
    # 8x8 profile pairs, slot i's profile below slot j's keeps the half
    # difference and the rest (the diagonal too, as -0.0) its negation
    raw = np.full((8, 8), np.nan)
    raw.flat[patterns] = theta[13:]
    half = 0.5 * (raw - raw.T)
    interaction = np.where(np.tri(8, dtype=bool), -half.T, half)
    return PairModel(mu0=0.0, age=0.5 * (theta[1:5] - theta[5:9]),
                     gender=0.5 * (theta[9:11] - theta[11:13]),
                     interaction=interaction.reshape(shape),
                     prior_variance=prior_variance,
                     convergence=solution.convergence, n_pairs=n_labelled)


def probability_grid(model: PairModel) -> np.ndarray:
    """P(profile (a, g) beats profile (b, h)) as a (4, 2, 4, 2) array
    indexed like `model.interaction`.

    Swapping the profiles gives the exact complement: the linear
    predictor negates term by term under the antisymmetric coefficients,
    the sigmoid (`math.exp`, one value at a time) is taken on its absolute
    value, and a negative predictor's probability is an exact subtraction.
    """
    age = model.age[:, None, None, None] - model.age[None, None, :, None]
    gender = (model.gender[None, :, None, None]
              - model.gender[None, None, None, :])
    eta = ((age + gender) + np.nan_to_num(model.interaction)) + model.mu0
    p = np.array([1.0 / (1.0 + math.exp(-z))
                  for z in np.abs(eta).ravel().tolist()]).reshape(eta.shape)
    return np.where(eta < 0, 1.0 - p, p)
