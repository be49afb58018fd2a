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

A seeded share of the eligible queries is sampled, and each counts the
labels a draw of :data:`QUERY_WEIGHT` of its cross-group pairs would
give on average, exactly, without drawing a pair.
A penalized logistic model then regresses the labels on slot indicator
features (age and gender of each side plus their four-way interaction).
It reads only how many pairs of each (profile i, profile j) pattern won
and lost, so the pair stage keeps those counts and no pair.
Training data is symmetrized -- every pair enters in both orders with
the label negated -- which makes the fitted coefficients antisymmetric
under slot swap, so predicted probabilities satisfy
P(i beats j) = 1 - P(j beats i) exactly.

An external variant labels on page click count alone, for logs without
dwell fidelity, always at the default threshold.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError, InsufficientSignalError
from .aggregate import Factor, count_table, query_group_counts
from .glmfit import CellDesign, Convergence, Family, fit_penalized_glm
from .logmodel import AgeGroup, Gender, LogCorpus
from .metrics import DEFAULT_DWELL_THRESHOLD_S, GU_LEVELS, MetricKind

logger = logging.getLogger(__name__)

_AGES = list(AgeGroup)
_GENDERS = list(Gender)

DEFAULT_QUERY_FRACTION = 0.1
# the weight of one sampled query, in pairs: its label counts are those
# expected of a draw of this many of its cross-group pairs
QUERY_WEIGHT = 10_000
# state pairs labelled at once, which bounds the labeller's temporaries
STATE_PAIR_BLOCK = 1 << 14
# the largest graded-utility difference of two impressions; no strong
# threshold at or beyond it can fire
GU_SPAN = GU_LEVELS[-1] - GU_LEVELS[0]


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
                                  k: float = 2.5,
                                  source: dict[str, str] | None = None
                                  ) -> PairThresholds:
    """The internal cascade's thresholds from per-metric group-gap deltas.

    Graded utility and successful click count each derive from their
    delta.  A metric whose delta is missing, NaN or non-positive, and
    graded utility when ``k * delta`` is at or beyond :data:`GU_SPAN`,
    falls back to its default thresholds with a warning; a positive
    delta whose ``k * delta`` is not finite is a ConfigError.  The
    external threshold is always the default.  Each derived metric's
    value is set in `source`, if given, to "derived" or "fallback".
    """
    if k <= 0:
        raise ConfigError("k must be positive")
    kinds = (MetricKind.GRADED_UTILITY, MetricKind.SUCCESSFUL_CLICK_COUNT)
    values, fallbacks = {}, {}
    for kind in kinds:
        delta = deltas.get(kind, 0.0)
        strong = k * delta
        if not delta > 0:
            fallbacks[kind] = "delta unavailable"
            continue
        if not math.isfinite(strong):
            raise ConfigError(f"k = {k!r} is too large for the {kind.value} "
                              f"delta {delta!r}: k * delta is not finite")
        if kind is MetricKind.GRADED_UTILITY:
            if strong >= GU_SPAN:
                fallbacks[kind] = (f"strong threshold k * delta = {strong!r} "
                                   f"is at or beyond its span {GU_SPAN!r}")
                continue
            values.update(gu_strong=strong, gu_weak=strong / 2.0)
        else:
            weak = max(1, _round_half_up(strong / 2.0))
            values.update(scc_weak=float(weak), scc_strong=float(
                max(weak + 1, _round_half_up(strong))))
    # warned only once no ConfigError can follow, so that one comes alone
    for kind, reason in fallbacks.items():
        logger.warning(f"{kind.value} {reason}; falling back to its default "
                       f"thresholds")
    if source is not None:
        source.update({kind.value: "fallback" if kind in fallbacks
                       else "derived" for kind in kinds})
    return replace(DEFAULT_THRESHOLDS, k=k, **values)


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
# eligibility and label counts

def eligible_queries(corpus: LogCorpus, factor: Factor = Factor.AGE,
                     min_groups: int | None = None,
                     min_impressions: int = 10) -> list[str]:
    """Queries issued by at least `min_groups` distinct groups (None: 3
    for age, 2 for gender; a pair needs two, so fewer is a ConfigError)
    with at least `min_impressions` impressions in total (where matching
    asks that many of every group), in code order, which is text order."""
    if min_groups is None:
        min_groups = 3 if factor is Factor.AGE else 2
    if min_groups < 2:
        raise ConfigError(f"min_groups must be at least 2, got {min_groups}")
    per_group = query_group_counts(corpus, factor)
    keep = (((per_group > 0).sum(axis=1) >= min_groups)
            & (per_group.sum(axis=1) >= min_impressions))
    return [corpus.queries[q] for q in np.flatnonzero(keep).tolist()]


@dataclass(frozen=True)
class PairCounts:
    """What the pair stage keeps of one labeller's run: the sampled
    queries (in text order), the pairs they weigh (:data:`QUERY_WEIGHT`
    per query that has a cross-group pair), and per (slot i profile, slot
    j profile) pattern (:attr:`LogCorpus.profile` codes) the expected
    pairs slot i wins, an (8, 8) float matrix `wins`; the pairs it loses
    are ``wins.T``, as each labelled pair enters in both orders.  The
    pair model reads nothing else."""

    queries: list[str]
    n_pairs: int
    wins: np.ndarray


def count_pair_labels(corpus: LogCorpus, queries: list[str], seed: int,
                      thresholds: PairThresholds = DEFAULT_THRESHOLDS,
                      mode: str = "internal",
                      fraction: float = DEFAULT_QUERY_FRACTION,
                      factor: Factor = Factor.AGE,
                      dwell_threshold_s: float = DEFAULT_DWELL_THRESHOLD_S
                      ) -> PairCounts:
    """The pair stage: a seeded slice of `queries`, then per query the
    label counts expected of a draw of :data:`QUERY_WEIGHT` cross-group
    pairs, exactly, under the internal or external rule set.

    A label reads only each side's state ((GU, reformulation, SCC), or
    page clicks for the external rule), so an (8, S) histogram H of
    (profile, state), the query's block of the count table, gives the
    ordered cross-group pairs slot i wins as ``H @ [L == +1] @ H.T`` over
    the state labels L, masked to profiles of different groups.  Each
    labelled pair enters in both orders at half weight.
    """
    if not 0 < fraction <= 1:
        raise ConfigError("query fraction must be in (0, 1]")
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
    keys, counts, state = count_table(
        corpus, dwell_threshold_s if mode == "internal" else None)
    label = label_batch_external
    if mode == "internal":
        gu, reform, _, scc = state.T
        state, label = np.column_stack([gu, reform, scc]), label_batch_internal

    query_code = {q: c for c, q in enumerate(corpus.queries)}
    group_of = factor.group_of(np.arange(8))
    cross = group_of[:, None] != group_of[None, :]
    bounds = np.searchsorted(keys[:, 0], np.arange(len(corpus.queries) + 1))
    wins = np.zeros((8, 8))
    n_pairs = 0
    for q in chosen:
        code = query_code.get(q, -1)
        if code < 0:
            continue
        block = slice(bounds[code], bounds[code + 1])
        # the query's distinct states, one column each
        local, state_of = np.unique(keys[block, 3], return_inverse=True)
        columns = state[local].T
        hist = np.zeros((8, len(local)), dtype=np.int64)
        np.add.at(hist, (keys[block, 1], state_of), counts[block])
        n_cross = hist.sum(axis=1) @ cross @ hist.sum(axis=1) // 2
        if n_cross == 0:
            continue
        won = np.zeros((8, 8), dtype=np.int64)
        step = max(1, STATE_PAIR_BLOCK // len(local))
        for lo in range(0, len(local), step):
            won_block = label(*columns[:, lo:lo + step, None],
                              *columns[:, None], thresholds) == 1
            won += hist[:, lo:lo + step] @ won_block @ hist.T
        wins += np.where(cross, won, 0) * QUERY_WEIGHT / (2 * n_cross)
        n_pairs += QUERY_WEIGHT
    return PairCounts(queries=chosen, n_pairs=n_pairs, wins=wins)


# ---------------------------------------------------------------------------
# pair preference model

@dataclass
class PairModel:
    """Logistic preference model over slot demographics;
    :func:`probability_grid` evaluates it for every pair of profiles.

    Coefficients are stored antisymmetrized (slot j's effects negate slot
    i's `age` and `gender`, `interaction[a, g, b, h]` negates under slot
    swap and is NaN for a pattern never observed), which the
    symmetrized training objective already implies at its optimum; storing
    the projection makes the complement identity exact.  `n_pairs` is the
    labelled pairs it was fitted on, an expected count from the pair
    stage.
    """

    age: np.ndarray                # (4,)
    gender: np.ndarray             # (2,)
    interaction: np.ndarray        # (4, 2, 4, 2)
    prior_variance: float
    convergence: Convergence
    n_pairs: float = 0.0
    thresholds: PairThresholds | None = None

    def to_dict(self) -> dict:
        age, gender = self.age.tolist(), self.gender.tolist()
        inter = {f"{a.name}|{g.code}|{b.name}|{h.code}": v
                 for (a, g, b, h), v in zip(
                     itertools.product(_AGES, _GENDERS, _AGES, _GENDERS),
                     self.interaction.ravel().tolist())
                 if not math.isnan(v)}
        return {
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
    pairs' win counts.

    Training pairs are symmetrized (both orders, negated label), so for
    the win matrix W, whose losses are W.T, the binomial cell of pattern
    (i, j) has successes ``2 W`` and trials ``2 (W + W.T)`` at (i, j); the
    observed patterns enter in flat-index order.  The fit cost is
    independent of the pair count.
    """
    if prior_variance <= 0:
        raise ConfigError("prior variance must be positive")
    wins = counts.wins
    n_labelled = 2 * math.fsum(wins.flat)
    if n_labelled == 0:
        raise InsufficientSignalError(
            "no nonzero-labeled pairs; the labeler abstained everywhere")

    shape = (4, 2, 4, 2)            # slot i's age and gender, then slot j's
    trials = (2 * (wins + wins.T)).ravel()
    patterns = np.flatnonzero(trials)
    successes = (2 * wins).ravel()[patterns].astype(float)
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
    return PairModel(age=0.5 * (theta[1:5] - theta[5:9]),
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
    eta = (age + gender) + np.nan_to_num(model.interaction)
    p = np.array([1.0 / (1.0 + math.exp(-z))
                  for z in np.abs(eta).ravel().tolist()]).reshape(eta.shape)
    return np.where(eta < 0, 1.0 - p, p)
