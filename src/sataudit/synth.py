"""Deterministic synthetic search-log generator with known ground truth.

Every impression carries a latent satisfaction s in [0, 1]:

    s = clamp(base_sat(d) + age_offset + gender_offset + noise, 0, 1)

where base_sat(d) = 0.9 - 0.6 d decreases in query difficulty.  Observable
behavior is emitted from s through monotone channels: reformulation
probability decreases in s, click count and dwell medians increase in s,
and a successful (long-dwell, terminating) final click appears when s
clears a threshold.  The channels are steep logistic gates with narrow
transition bands (width ~0.02 in s) plus small floor noise, so two
impressions whose latent values differ by more than the band almost
never emit behavior in the wrong order; this is what lets the pairwise
labeler be validated against the latent ordering.

Confounds are injected without touching s: per-group dwell multipliers
(slow readers cross the success threshold more), per-group click
propensity multipliers, and per-group query sampling weights (groups
issue different query mixes).  True differential satisfaction is
injected through the offset table.  Presets cover the audit scenarios:
null, query_mix_confound, dwell_confound, true_gap, and mixed; ``PRESETS``
maps each name to its factory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, check_fields, check_keys, is_int, \
    is_number
from .logmodel import AgeGroup, CorpusMetadata, DemographicProfile, Gender, \
    LogCorpus, StringTable, all_profiles, normalize_query, vocabulary_codes

_AGES = list(AgeGroup)


def _age_from_key(key: str) -> AgeGroup:
    """Accept either the enum name ("G2") or the display label ("18-34")."""
    try:
        return AgeGroup[key]
    except KeyError:
        for a in AgeGroup:
            if a.label == key:
                return a
        raise

DEFAULT_TOPICS = ("news", "shopping", "health", "travel", "tech", "sports")
_PROFILE_KEYS = [p.key for p in all_profiles()]


def _weights(n: int):
    return (f"{n} numbers, none negative",
            lambda v: isinstance(v, tuple) and len(v) == n
            and all(is_number(w) and w >= 0 for w in v))


# every text a generated log or truth file writes, since both are UTF-8
_UTF8 = ("encodable as UTF-8", StringTable.encodable)

# the ranges a QuerySpec field needs beyond its type: (rule, test) pairs
_QUERY_RULES = {
    "text": [_UTF8],
    "topic": [_UTF8],
    "difficulty": [("a number in [0, 1]", lambda v: 0 <= v <= 1)],
    "results": [("a list of strings", lambda v: isinstance(v, tuple)),
                ("a list of strings encodable as UTF-8",
                 lambda v: all(map(StringTable.encodable, v)))],
    "age_weights": [_weights(len(AgeGroup))],
    "gender_weights": [_weights(len(Gender))],
}


@dataclass(frozen=True)
class QuerySpec:
    """One vocabulary entry: text, topic, true difficulty, intent, the
    canonical result list, and per-group sampling weights.  A value of
    the wrong type is a ConfigError, never coerced."""

    text: str
    topic: str
    difficulty: float
    navigational: bool
    results: tuple[str, ...]
    age_weights: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    gender_weights: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        check_fields(self, _QUERY_RULES, f"query {self.text!r}: ")
        if not normalize_query(self.text):
            raise ConfigError("empty query text")
        if not self.results:
            raise ConfigError(f"empty result list for {self.text!r}")
        if len(set(self.results)) != len(self.results):
            raise ConfigError(f"duplicate result id for {self.text!r}")


# numpy's Poisson sampler refuses a mean above about 9.2e18 (the int64
# range less ten standard deviations)
_POISSON_MEAN_CAP = 1e18
# math.exp overflows past 709.78, and numpy's standard normal draws stay
# within 13.8 of 0 (its ziggurat tail comes from a 53-bit uniform), so
# exp(sigma * z) is finite for every draw while |sigma| <= 50
_DWELL_SIGMA_CAP = 50.0

_AT_LEAST_0 = ("at least 0", lambda v: v >= 0)
_POISSON_MEAN = (f"at most {_POISSON_MEAN_CAP:g}",
                 lambda v: v <= _POISSON_MEAN_CAP)
_DWELL_SIGMA = (f"at most {_DWELL_SIGMA_CAP:g} in absolute value",
                lambda v: abs(v) <= _DWELL_SIGMA_CAP)

# the ranges a behavior field needs beyond its type: (rule, test) pairs,
# checked in order
_BEHAVIOR_RANGES = {
    "channel_width": [("positive", lambda v: v > 0)],
    "stray_click_rate": [_AT_LEAST_0, _POISSON_MEAN],
    "mean_extra_impressions": [_AT_LEAST_0, _POISSON_MEAN],
    "max_impressions_per_user": [("at least 1", lambda v: v >= 1)],
    "short_dwell_sigma": [_DWELL_SIGMA],
    "success_dwell_sigma": [_DWELL_SIGMA],
}


@dataclass(frozen=True)
class BehaviorModel:
    """Emission-channel parameters shared by all scenarios.

    Channel gates are logistic in s with a common narrow width; dwell
    draws are log-normal with medians linear in s.  Values are kept as
    given; one that breaks its field's annotation (a float field takes an
    int or a finite float, never a bool) or range is a ConfigError.
    """

    base_intercept: float = 0.9
    base_slope: float = -0.6
    satisfaction_noise: float = 0.10
    channel_width: float = 0.012
    reform_center: float = 0.38
    reform_floor: float = 0.002
    reform_scale: float = 0.92
    success_center: float = 0.50
    success_floor: float = 0.001
    success_scale: float = 0.9985
    click_center: float = 0.25
    click_floor: float = 0.002
    click_scale: float = 0.997
    stray_click_rate: float = 0.001
    short_dwell_base: float = 3.0
    short_dwell_slope: float = 7.0
    short_dwell_sigma: float = 0.5
    success_dwell_base: float = 45.0
    success_dwell_slope: float = 50.0
    success_dwell_sigma: float = 0.3
    success_dwell_min: float = 30.5
    nav_concentration: float = 0.93
    other_concentration: float = 0.45
    serp_swap_prob: float = 0.08
    mean_extra_impressions: float = 0.8
    max_impressions_per_user: int = 6

    def __post_init__(self):
        check_fields(self, _BEHAVIOR_RANGES, "behavior ")

    def base_sat(self, difficulty: float) -> float:
        return self.base_intercept + self.base_slope * difficulty


# each group-keyed table of a scenario: how its keys are written to JSON
# and read back
_AGE_KEY = (lambda a: a.name, _age_from_key)
_GROUP_TABLES = {"age_offsets": _AGE_KEY,
                 "gender_offsets": (lambda g: g.code, Gender),
                 "dwell_multipliers": _AGE_KEY,
                 "click_multipliers": _AGE_KEY}


@dataclass(frozen=True)
class ScenarioConfig:
    """Full generator configuration; two generate() calls with equal
    configs produce byte-identical corpora."""

    name: str
    seed: int
    users_per_profile: dict[str, int]
    queries: tuple[QuerySpec, ...]
    age_offsets: dict[AgeGroup, float] = field(default_factory=dict)
    gender_offsets: dict[Gender, float] = field(default_factory=dict)
    dwell_multipliers: dict[AgeGroup, float] = field(default_factory=dict)
    click_multipliers: dict[AgeGroup, float] = field(default_factory=dict)
    behavior: BehaviorModel = BehaviorModel()

    def __post_init__(self):
        check_fields(self, {"seed": [_AT_LEAST_0]})
        unknown = [k for k in self.users_per_profile
                   if k not in _PROFILE_KEYS]
        if unknown:
            raise ConfigError(f"unknown profiles in users_per_profile: "
                              f"{', '.join(map(repr, unknown))}; choose "
                              f"from {', '.join(_PROFILE_KEYS)}")
        for n in self.users_per_profile.values():
            if not (is_int(n) and n >= 0):
                raise ConfigError(f"user counts must be non-negative "
                                  f"integers, got {n!r}")
        if not self.queries:
            raise ConfigError("empty query vocabulary")
        first: dict[str, int] = {}
        for k, q in enumerate(self.queries):
            j = first.setdefault(normalize_query(q.text), k)
            if j != k:
                raise ConfigError(f"query texts {self.queries[j].text!r} and "
                                  f"{q.text!r} normalize to the same query")
        if not any(n > 0 for n in self.users_per_profile.values()):
            raise ConfigError("zero users in every profile")
        for a in _AGES:
            if not any(q.age_weights[a - 1] > 0 for q in self.queries):
                raise ConfigError(f"no positive query weight for {a.label}")
        for table in (self.age_offsets, self.gender_offsets):
            if not all(map(is_number, table.values())):
                raise ConfigError("satisfaction offsets must be finite "
                                  "numbers")
        for table in (self.dwell_multipliers, self.click_multipliers):
            if not all(is_number(v) and v > 0 for v in table.values()):
                raise ConfigError("multipliers must be positive numbers")
        # each age's stray-click mean is the rate times its click multiplier
        stray = self.behavior.stray_click_rate * max(
            self.click_multipliers.get(a, 1.0) for a in _AGES)
        if stray > _POISSON_MEAN_CAP:
            raise ConfigError(f"behavior stray_click_rate times a click "
                              f"multiplier must be at most "
                              f"{_POISSON_MEAN_CAP:g}, got {stray!r}")

    def offset_for(self, profile: DemographicProfile) -> float:
        return (self.age_offsets.get(profile.age, 0.0)
                + self.gender_offsets.get(profile.gender, 0.0))

    def to_dict(self) -> dict:
        b = self.behavior
        return {
            "name": self.name,
            "seed": self.seed,
            "users_per_profile": dict(sorted(self.users_per_profile.items())),
            **{name: dict(sorted((write(k), v) for k, v in
                                 getattr(self, name).items()))
               for name, (write, _) in _GROUP_TABLES.items()},
            "behavior": {k: getattr(b, k) for k in sorted(
                b.__dataclass_fields__)},
            "queries": [{
                "text": q.text, "topic": q.topic,
                "difficulty": q.difficulty,
                "navigational": q.navigational,
                "results": list(q.results),
                "age_weights": list(q.age_weights),
                "gender_weights": list(q.gender_weights),
            } for q in self.queries],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        """The config a JSON object describes, its values as given (a
        JSON array becomes a tuple).  A key that neither the scenario, its
        ``behavior`` block nor a query defines is a ConfigError."""
        try:
            check_keys(d, cls.__dataclass_fields__, "scenario")
            for q in d["queries"]:
                check_keys(q, QuerySpec.__dataclass_fields__, "query")
            behavior = BehaviorModel(**d.get("behavior", {}))
            queries = tuple(QuerySpec(**{
                "age_weights": (1, 1, 1, 1), "gender_weights": (1, 1),
                **{k: tuple(v) if isinstance(v, list) else v
                   for k, v in q.items()}}) for q in d["queries"])
            return cls(
                name=d["name"], seed=d["seed"],
                users_per_profile=dict(d["users_per_profile"]),
                queries=queries, behavior=behavior,
                **{name: {read(k): v for k, v in d.get(name, {}).items()}
                   for name, (_, read) in _GROUP_TABLES.items()})
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(f"bad scenario config: {exc}") from exc


@dataclass
class GroundTruth:
    """Oracle record: the latent quantities the audits try to recover that
    the scenario config does not hold (its ``offset_for`` gives each
    profile's injected offset).  ``latent`` is the read-only latent
    satisfaction of each corpus row."""

    latent: np.ndarray
    difficulty: dict[str, float]
    navigational: set[str]


def _gate(s: np.ndarray, center: float, width: float, floor: float,
          scale: float) -> np.ndarray:
    """floor + scale * sigmoid((s - center) / width), saturated beyond
    |z| = 40; each sigmoid takes ``math.exp``, which ``np.exp`` does not
    match to the last bit."""
    z = (s - center) / width
    sig = (z > 40).astype(float)
    mid = ~((z > 40) | (z < -40))
    sig[mid] = [1.0 / (1.0 + math.exp(-v)) for v in z[mid].tolist()]
    return floor + scale * sig


def _dwell(med: np.ndarray, sigma: float, z: np.ndarray,
           least: float = -math.inf) -> list[float]:
    """``max(med * exp(sigma * z), least)`` in hundredths, by ``math.exp``
    and Python's ``round`` (``np.round`` rounds differently)."""
    d = med * np.array([math.exp(v) for v in (sigma * z).tolist()])
    return [round(v, 2) for v in np.where(least > d, least, d).tolist()]


def generate(config: ScenarioConfig) -> tuple[LogCorpus, GroundTruth]:
    """Synthesize a corpus and its ground truth, fully seed-determined.

    All randomness is drawn up front, and every per-impression quantity,
    then every corpus column, is computed from the draws as an array.
    ``tests/oracles.py`` holds the same model as a loop over impressions.
    """
    b = config.behavior
    rng = np.random.default_rng(config.seed)
    queries = config.queries

    # roster: impressions per user, profile order fixed
    user_profile, counts = [], []
    for code, p in enumerate(all_profiles()):
        n_users = config.users_per_profile.get(p.key, 0)
        extra = rng.poisson(b.mean_extra_impressions, size=n_users)
        extra = np.minimum(extra, b.max_impressions_per_user - 1)
        user_profile.extend([code] * n_users)
        counts.extend((1 + extra).tolist())
    counts = np.array(counts)
    n_total = int(counts.sum())

    profile = np.repeat(np.array(user_profile, dtype=np.int32), counts)
    age_idx = profile >> 1
    user_ord = np.repeat(np.arange(len(counts)), counts)
    pos_in_user = np.arange(n_total) - np.repeat(np.cumsum(counts) - counts,
                                                 counts)
    is_last = pos_in_user == np.repeat(counts - 1, counts)

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

    # the query each impression would issue fresh, from its profile's mix
    age_w = np.array([q.age_weights for q in queries])          # (Q, 4)
    gender_w = np.array([q.gender_weights for q in queries])    # (Q, 2)
    fresh = np.empty(n_total, dtype=np.int64)
    for code, p in enumerate(all_profiles()):
        w = age_w[:, code >> 1] * gender_w[:, code & 1]
        total = w.sum()
        if total <= 0:
            raise ConfigError(f"no positive query weight for profile {p.key}")
        rows = profile == code
        fresh[rows] = np.searchsorted(np.cumsum(w / total), u_query[rows])
    fresh = np.minimum(fresh, len(queries) - 1)

    base = np.array([b.base_sat(q.difficulty) for q in queries])
    offset = np.array([config.offset_for(p) for p in all_profiles()])
    s, reform = np.empty(n_total), np.empty(n_total, dtype=bool)

    def settle(rows):
        v = (base[qi[rows]] + offset[profile[rows]]) \
            + b.satisfaction_noise * z_sat[rows]
        v = np.where(v > 0.0, v, 0.0)
        s[rows] = v = np.where(v < 1.0, v, 1.0)
        # reformulation fires when satisfaction is LOW: mirror the gate
        reform[rows] = u_reform[rows] < _gate(
            -v, -b.reform_center, b.channel_width, b.reform_floor,
            b.reform_scale)

    # An impression after a reformulation (not its user's last) re-issues
    # that query, which depends on the predecessor's latent value.  Resolve
    # the chains by fixed-point iteration: each pass settles one more
    # impression per user, so it ends within max_impressions_per_user.
    everyone = np.arange(n_total)
    qi = fresh
    settle(everyone)
    carried = np.zeros(n_total, dtype=bool)
    while True:
        now = np.concatenate([[False], reform[:-1]]) & (pos_in_user > 0)
        if np.array_equal(now, carried):
            break
        carried = now
        issued = fresh[np.maximum.accumulate(np.where(carried, 0, everyone))]
        changed = np.flatnonzero(issued != qi)
        qi = issued
        settle(changed)
    s.setflags(write=False)

    success = u_success < _gate(s, b.success_center, b.channel_width,
                                b.success_floor, b.success_scale)
    p_browse = _gate(s, b.click_center, b.channel_width, b.click_floor,
                     b.click_scale) * click_mult[age_idx]
    browse = u_click < np.minimum(p_browse, 0.98)

    # result pages: each query's results, with slots k and k + 1 swapped
    # on some pages
    n_res = np.array([len(q.results) for q in queries])
    r = n_res[qi]
    gaps = np.maximum(r - 1, 1)
    swap = np.where((u_swap < b.serp_swap_prob) & (r >= 2),
                    swap_at % gaps, -2)
    # only the queries in use enter the vocabularies
    in_use = np.isin(np.arange(len(queries)), qi)
    used = np.flatnonzero(in_use).tolist()
    page = np.zeros((len(queries), n_res.max()), dtype=np.int32)
    slots = (np.arange(page.shape[1]) < n_res[:, None]) & in_use[:, None]
    result_ids, page[slots] = vocabulary_codes(
        [x for q in used for x in queries[q].results])
    page = page[qi]
    swapped, k = np.flatnonzero(swap >= 0), swap[swap >= 0]
    page[swapped, k], page[swapped, k + 1] = \
        page[swapped, k + 1], page[swapped, k]
    result = page[np.arange(page.shape[1]) < r[:, None]]
    # free what no later stage reads, so the columns below reuse the
    # memory instead of growing the heap past what emit can reuse
    del page, z_sat, u_query, u_reform, u_success, u_click, u_swap, \
        swap_at, fresh

    # clicks, each on a slot of its query's results: browse (never the
    # top slot), strays, and the final click, which terminates the query;
    # a stable sort by row keeps that order within each impression
    top = (u_conc < np.where([q.navigational for q in queries],
                             b.nav_concentration,
                             b.other_concentration)[qi]) | (r == 1)
    dwell_mult = np.array([config.dwell_multipliers.get(a, 1.0)
                           for a in _AGES])[age_idx]
    short_med = (b.short_dwell_base + b.short_dwell_slope * s) * dwell_mult
    success_med = (b.success_dwell_base + b.success_dwell_slope * s) \
        * dwell_mult
    stray_row = np.repeat(everyone, stray)
    click_row = np.concatenate([everyone[browse], stray_row,
                                everyone[success]])
    order = np.argsort(click_row, kind="stable")
    click_row = click_row[order]
    click_slot = np.concatenate([
        np.where(r > 1, 1 + browse_slot % gaps, 0)[browse],
        stray_slot % r[stray_row],
        np.where(top, 0, 1 + final_slot % gaps)[success]])[order]
    click_dwell = np.array(
        _dwell(short_med[browse], b.short_dwell_sigma, z_browse[browse])
        + _dwell(short_med[stray_row], b.short_dwell_sigma, z_stray)
        + _dwell(success_med[success], b.success_dwell_sigma,
                 z_final[success], b.success_dwell_min), dtype=float)[order]
    if (click_dwell < 0).any():
        raise ConfigError("behavior model gives a negative dwell time")
    del u_conc, browse_slot, final_slot, z_browse, z_final, z_stray, \
        stray_slot, short_med, success_med
    k = swap[click_row]
    click_position = click_slot + 1 + (click_slot == k) - (click_slot == k + 1)
    result_offsets = np.concatenate([[0], np.cumsum(r)])

    texts = [normalize_query(q.text) for q in queries]
    query, topic = np.zeros((2, len(queries)), dtype=np.int32)
    query_texts, query[used] = vocabulary_codes([texts[q] for q in used])
    topics, topic[used] = vocabulary_codes([queries[q].topic for q in used])
    users, user = vocabulary_codes([f"u{u:06d}" for u in range(len(counts))])
    user = user[user_ord]
    corpus = LogCorpus(
        ids=StringTable.of(f"imp{i:08d}" for i in range(n_total)),
        user=user, users=StringTable.of(users), session=user.copy(),
        sessions=StringTable.of(f"s-{u}" for u in users),
        timestamp=1_600_000_000 + user_ord * 600 + pos_in_user * 45,
        age=age_idx, gender=profile & 1, query=query[qi],
        queries=query_texts, topic=topic[qi], topics=topics,
        reformulated=(reform & ~is_last).astype(np.int8),
        result_offsets=result_offsets, result=result, result_ids=result_ids,
        click_offsets=np.concatenate([[0],
                                      np.cumsum(browse + stray + success)]),
        click_result=result[result_offsets[click_row] + click_position - 1],
        click_position=click_position.astype(np.int32),
        click_dwell=click_dwell,
        click_terminated=order >= len(order) - success.sum(),
        metadata=CorpusMetadata(accepted=n_total))
    truth = GroundTruth(
        latent=s,
        difficulty={t: q.difficulty for t, q in zip(texts, queries)},
        navigational={t for t, q in zip(texts, queries) if q.navigational})
    return corpus, truth


# ---------------------------------------------------------------------------
# scenario presets

def _users_for(n_impressions: int, behavior: BehaviorModel) -> dict[str, int]:
    per = max(1, round(n_impressions
                       / (8 * (1.0 + behavior.mean_extra_impressions))))
    return {p.key: per for p in all_profiles()}


def _result_list(idx: int, n: int = 10) -> tuple[str, ...]:
    return tuple(f"r{idx:04d}x{k}" for k in range(n))


def _uniform_vocab(n_queries: int, d_lo: float, d_hi: float,
                   topics: tuple[str, ...] = DEFAULT_TOPICS
                   ) -> tuple[QuerySpec, ...]:
    out = []
    for q in range(n_queries):
        frac = q / max(n_queries - 1, 1)
        out.append(QuerySpec(
            text=f"{topics[q % len(topics)]} query {q:04d}",
            topic=topics[q % len(topics)],
            difficulty=round(d_lo + (d_hi - d_lo) * frac, 6),
            navigational=False,
            results=_result_list(q)))
    return tuple(out)


def preset_null(n_impressions: int = 200_000,
                seed: int = 20240601) -> ScenarioConfig:
    """Zero offsets, unit multipliers, one shared query distribution.

    Sized so per-profile sampling luck stays well inside the 0.48..0.52
    band the pairwise null check expects."""
    b = BehaviorModel()
    return ScenarioConfig(name="null", seed=seed,
                          users_per_profile=_users_for(n_impressions, b),
                          queries=_uniform_vocab(240, 0.1, 0.8), behavior=b)


def preset_query_mix_confound(n_impressions: int = 200_000,
                              seed: int = 20240602) -> ScenarioConfig:
    """Zero true satisfaction difference, but each age group samples a
    different slice of the vocabulary.

    Non-navigational queries carry an age position p in [1, 4]; group a
    only sees queries with |a - p| <= 1 (weight exp(-1.5 |a - p|)), and
    difficulty falls with p, so younger groups issue harder queries and
    raw per-group scores diverge.  A shared set of easy navigational
    queries takes roughly half the traffic and is what context matching
    recovers; query distributions order as D(G1,G2) < D(G1,G4).
    """
    b = BehaviorModel()
    topics = DEFAULT_TOPICS
    n_nav, n_other = 14, 386
    kappa = 1.5
    nav_share = 0.47

    other: list[QuerySpec] = []
    window = np.zeros(4)
    for j in range(n_other):
        q = n_nav + j
        p_pos = 1.0 + 3.0 * j / (n_other - 1)
        weights = []
        for a in range(1, 5):
            dist = abs(a - p_pos)
            weights.append(math.exp(-kappa * dist) if dist <= 1.0 else 0.0)
        window += np.array(weights)
        other.append(QuerySpec(
            text=f"{topics[q % len(topics)]} query {q:04d}",
            topic=topics[q % len(topics)],
            difficulty=round(0.85 - 0.55 * (p_pos - 1.0) / 3.0, 6),
            navigational=False,
            results=_result_list(q),
            age_weights=tuple(weights)))

    # navigational weight per age chosen so navigational traffic is the
    # same share of every group's impressions
    nav_w = tuple(float(window[a] * nav_share / (1.0 - nav_share) / n_nav)
                  for a in range(4))
    nav = tuple(QuerySpec(
        text=f"brand{q:03d} homepage", topic=topics[q % len(topics)],
        difficulty=0.05, navigational=True, results=_result_list(q),
        age_weights=nav_w) for q in range(n_nav))

    return ScenarioConfig(name="query_mix_confound", seed=seed,
                          users_per_profile=_users_for(n_impressions, b),
                          queries=nav + tuple(other), behavior=b)


def preset_dwell_confound(n_impressions: int = 60_000,
                          seed: int = 20240603) -> ScenarioConfig:
    """Zero offsets, shared query mix, but G4 dwells 1.5x longer, so
    clicks cross the 30 s success threshold more often for G4."""
    b = BehaviorModel(short_dwell_base=6.0, short_dwell_slope=10.0)
    return ScenarioConfig(name="dwell_confound", seed=seed,
                          users_per_profile=_users_for(n_impressions, b),
                          queries=_uniform_vocab(240, 0.1, 0.8),
                          dwell_multipliers={AgeGroup.G4: 1.5}, behavior=b)


def preset_true_gap(offset: float = 0.15, n_impressions: int = 60_000,
                    seed: int = 20240604) -> ScenarioConfig:
    """Genuine satisfaction gap: +offset for G4, no confounds."""
    b = BehaviorModel()
    return ScenarioConfig(name="true_gap", seed=seed,
                          users_per_profile=_users_for(n_impressions, b),
                          queries=_uniform_vocab(240, 0.05, 0.75),
                          age_offsets={AgeGroup.G4: offset}, behavior=b)


def preset_mixed(n_impressions: int = 120_000,
                 seed: int = 20240605) -> ScenarioConfig:
    """Query-mix and dwell confounds on top of a modest real +0.10 G4
    gap; the hard case where methods must disagree informatively."""
    base = preset_query_mix_confound(n_impressions=n_impressions, seed=seed)
    return replace(base, name="mixed",
                   age_offsets={AgeGroup.G4: 0.10},
                   dwell_multipliers={AgeGroup.G4: 1.3})


# The documented scenarios by name; each factory takes n_impressions and
# seed (preset_true_gap also takes offset).
PRESETS = {
    "null": preset_null,
    "query_mix_confound": preset_query_mix_confound,
    "dwell_confound": preset_dwell_confound,
    "true_gap": preset_true_gap,
    "mixed": preset_mixed,
}
