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
null, query_mix_confound, dwell_confound, true_gap, and mixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .logmodel import AgeGroup, DemographicProfile, Gender, LogCorpus, \
    all_profiles, normalize_query

_AGES = list(AgeGroup)
_GENDERS = list(Gender)


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


@dataclass(frozen=True)
class QuerySpec:
    """One vocabulary entry: text, topic, true difficulty, intent, the
    canonical result list, and per-group sampling weights."""

    text: str
    topic: str
    difficulty: float
    navigational: bool
    results: tuple[str, ...]
    age_weights: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    gender_weights: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        if not 0.0 <= self.difficulty <= 1.0:
            raise ConfigError(f"difficulty out of [0,1] for {self.text!r}")
        if not self.results:
            raise ConfigError(f"empty result list for {self.text!r}")
        if any(w < 0 for w in self.age_weights + self.gender_weights):
            raise ConfigError(f"negative sampling weight for {self.text!r}")


@dataclass(frozen=True)
class BehaviorModel:
    """Emission-channel parameters shared by all scenarios.

    Channel gates are logistic in s with a common narrow width; dwell
    draws are log-normal with medians linear in s.
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

    def base_sat(self, difficulty: float) -> float:
        return self.base_intercept + self.base_slope * difficulty


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
        if not self.queries:
            raise ConfigError("empty query vocabulary")
        if not any(n > 0 for n in self.users_per_profile.values()):
            raise ConfigError("zero users in every profile")
        if any(n < 0 for n in self.users_per_profile.values()):
            raise ConfigError("negative user count")
        for a in _AGES:
            if not any(q.age_weights[a - 1] > 0 for q in self.queries):
                raise ConfigError(f"no positive query weight for {a.label}")
        for table in (self.age_offsets, self.gender_offsets):
            if any(not math.isfinite(v) for v in table.values()):
                raise ConfigError("non-finite satisfaction offset")
        for table in (self.dwell_multipliers, self.click_multipliers):
            if any(v <= 0 for v in table.values()):
                raise ConfigError("multipliers must be positive")

    def offset_for(self, profile: DemographicProfile) -> float:
        return (self.age_offsets.get(profile.age, 0.0)
                + self.gender_offsets.get(profile.gender, 0.0))

    def to_dict(self) -> dict:
        b = self.behavior
        return {
            "name": self.name,
            "seed": self.seed,
            "users_per_profile": dict(sorted(self.users_per_profile.items())),
            "age_offsets": {a.name: v for a, v in
                            sorted(self.age_offsets.items())},
            "gender_offsets": {g.code: v for g, v in
                               sorted(self.gender_offsets.items(),
                                      key=lambda kv: kv[0].code)},
            "dwell_multipliers": {a.name: v for a, v in
                                  sorted(self.dwell_multipliers.items())},
            "click_multipliers": {a.name: v for a, v in
                                  sorted(self.click_multipliers.items())},
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
        try:
            behavior = BehaviorModel(**d.get("behavior", {}))
            queries = tuple(QuerySpec(
                text=q["text"], topic=q["topic"],
                difficulty=q["difficulty"],
                navigational=q["navigational"],
                results=tuple(q["results"]),
                age_weights=tuple(q.get("age_weights", (1, 1, 1, 1))),
                gender_weights=tuple(q.get("gender_weights", (1, 1))),
            ) for q in d["queries"])
            return cls(
                name=d["name"], seed=int(d["seed"]),
                users_per_profile={k: int(v) for k, v in
                                   d["users_per_profile"].items()},
                queries=queries,
                age_offsets={_age_from_key(k): float(v) for k, v in
                             d.get("age_offsets", {}).items()},
                gender_offsets={Gender(k): float(v) for k, v in
                                d.get("gender_offsets", {}).items()},
                dwell_multipliers={_age_from_key(k): float(v) for k, v in
                                   d.get("dwell_multipliers", {}).items()},
                click_multipliers={_age_from_key(k): float(v) for k, v in
                                   d.get("click_multipliers", {}).items()},
                behavior=behavior)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad scenario config: {exc}") from exc


@dataclass
class GroundTruth:
    """Oracle record: the latent quantities the audits try to recover."""

    latent: dict[str, float]
    age_offsets: dict[AgeGroup, float]
    gender_offsets: dict[Gender, float]
    difficulty: dict[str, float]
    navigational: set[str]

    def offset_for(self, profile: DemographicProfile) -> float:
        return (self.age_offsets.get(profile.age, 0.0)
                + self.gender_offsets.get(profile.gender, 0.0))


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


def generate(config: ScenarioConfig) -> tuple[LogCorpus, GroundTruth]:
    """Synthesize a corpus and its ground truth, fully seed-determined."""
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

    latent: dict[str, float] = {}

    def records():
        # one record at a time (Impression fields, clicks as tuples), so
        # the corpus holds its columns only
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

            imp_id = f"imp{i:08d}"
            uid = f"u{user_ord[i]:06d}"
            yield (imp_id, uid, f"s-{uid}",
                   1_600_000_000 + int(user_ord[i]) * 600
                   + int(pos_in_user[i]) * 45,
                   q.text, q.topic, list(serp), clicks,
                   bool(reform_intent and not is_last[i]), p)
            latent[imp_id] = s
            prev_query, prev_reform = qi, reform_intent and not is_last[i]

    corpus = LogCorpus.from_records(records())

    truth = GroundTruth(
        latent=latent,
        age_offsets=dict(config.age_offsets),
        gender_offsets=dict(config.gender_offsets),
        difficulty={normalize_query(q.text): q.difficulty for q in queries},
        navigational={normalize_query(q.text) for q in queries
                      if q.navigational})
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


def true_gap_scenario(offset: float, seed: int = 20240604,
                      n_impressions: int = 60_000) -> ScenarioConfig:
    """A true_gap variant with the injected offset dialed to taste."""
    cfg = preset_true_gap(offset=offset, n_impressions=n_impressions,
                          seed=seed)
    return replace(cfg, name=f"true_gap_{offset:g}")


def preset_mixed(n_impressions: int = 120_000,
                 seed: int = 20240605) -> ScenarioConfig:
    """Query-mix and dwell confounds on top of a modest real +0.10 G4
    gap; the hard case where methods must disagree informatively."""
    base = preset_query_mix_confound(n_impressions=n_impressions, seed=seed)
    return replace(base, name="mixed",
                   age_offsets={AgeGroup.G4: 0.10},
                   dwell_multipliers={AgeGroup.G4: 1.3})


def scenario_presets() -> dict[str, ScenarioConfig]:
    """The five documented audit scenarios at their default sizes."""
    return {
        "null": preset_null(),
        "query_mix_confound": preset_query_mix_confound(),
        "dwell_confound": preset_dwell_confound(),
        "true_gap": preset_true_gap(),
        "mixed": preset_mixed(),
    }
