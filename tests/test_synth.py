"""Synthetic log generator: determinism, validity, injected structure."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from corpus_builders import from_records, records
from oracles import metric_vector, reference_generate
from sataudit.aggregate import Factor, query_averaged_scores, query_kl
from sataudit.errors import ConfigError
from sataudit.logmodel import AgeGroup, Gender, all_profiles, emit, ingest
from sataudit.metrics import MetricKind
from sataudit.synth import (PRESETS, BehaviorModel, QuerySpec,
                            ScenarioConfig, generate, preset_null,
                            preset_query_mix_confound, preset_true_gap)

G1, G2, G3, G4 = AgeGroup


def tiny_config(seed: int = 99, users: int = 8, **kw) -> ScenarioConfig:
    queries = (
        QuerySpec(text="brand zero", topic="news", difficulty=0.05,
                  navigational=True, results=("n0", "n1", "n2")),
        QuerySpec(text="alpha news", topic="news", difficulty=0.3,
                  navigational=False, results=("a0", "a1", "a2", "a3")),
        QuerySpec(text="beta travel", topic="travel", difficulty=0.6,
                  navigational=False, results=("b0", "b1")),
        QuerySpec(text="gamma tech", topic="tech", difficulty=0.85,
                  navigational=False, results=("c0", "c1", "c2")),
    )
    params = dict(name="tiny", seed=seed,
                  users_per_profile={p.key: users for p in all_profiles()},
                  queries=queries)
    params.update(kw)
    return ScenarioConfig(**params)


class TestConfigValidation:
    def test_query_spec_bounds(self):
        with pytest.raises(ConfigError, match="difficulty"):
            QuerySpec(text="q", topic="t", difficulty=1.2,
                      navigational=False, results=("r0",))
        with pytest.raises(ConfigError, match="result"):
            QuerySpec(text="q", topic="t", difficulty=0.5,
                      navigational=False, results=())
        with pytest.raises(ConfigError, match="weight"):
            QuerySpec(text="q", topic="t", difficulty=0.5,
                      navigational=False, results=("r0",),
                      age_weights=(1.0, 1.0, -0.5, 1.0))

    def test_scenario_rejects_empty_vocabulary(self):
        with pytest.raises(ConfigError, match="vocabulary"):
            tiny_config(queries=())

    def test_scenario_rejects_userless_roster(self):
        with pytest.raises(ConfigError, match="zero users"):
            tiny_config(users=0)
        with pytest.raises(ConfigError, match="negative"):
            tiny_config(users_per_profile={"G1-M": -2, "G1-F": 5})

    def test_scenario_rejects_unreachable_age_group(self):
        queries = (QuerySpec(text="q", topic="t", difficulty=0.5,
                             navigational=False, results=("r0",),
                             age_weights=(1.0, 1.0, 1.0, 0.0)),)
        with pytest.raises(ConfigError, match="55-74"):
            tiny_config(queries=queries)

    def test_scenario_rejects_bad_tables(self):
        with pytest.raises(ConfigError, match="finite"):
            tiny_config(age_offsets={G4: float("inf")})
        with pytest.raises(ConfigError, match="positive"):
            tiny_config(dwell_multipliers={G4: 0.0})
        with pytest.raises(ConfigError, match="positive"):
            tiny_config(click_multipliers={G2: -1.0})

    def test_query_spec_rejects_what_a_log_cannot_hold(self):
        for text in ("", " \t "):
            with pytest.raises(ConfigError, match="empty query text"):
                QuerySpec(text=text, topic="t", difficulty=0.5,
                          navigational=False, results=("r0",))
        with pytest.raises(ConfigError, match="duplicate result id"):
            QuerySpec(text="q", topic="t", difficulty=0.5,
                      navigational=False, results=("r0", "r1", "r0"))

    def test_scenario_rejects_query_texts_that_normalize_alike(self):
        base = tiny_config().queries
        twin = dataclasses.replace(base[1], text="Alpha  News",
                                   difficulty=0.7)
        with pytest.raises(ConfigError,
                           match="'alpha news' and 'Alpha  News'"):
            tiny_config(queries=base + (twin,))

    def test_generate_stores_query_text_normalized(self, tmp_path):
        queries = tuple(dataclasses.replace(q, text=f" {q.text.upper()}  ")
                        for q in tiny_config().queries)
        corpus, truth = generate(tiny_config(queries=queries))
        assert sorted(corpus.queries) == sorted(truth.difficulty) == [
            "alpha news", "beta travel", "brand zero", "gamma tech"]
        emit(corpus, tmp_path / "c.ndjson")
        assert ingest(tmp_path / "c.ndjson").queries == corpus.queries

    def test_negative_dwell_is_a_config_error(self):
        with pytest.raises(ConfigError, match="negative dwell"):
            generate(tiny_config(behavior=BehaviorModel(
                short_dwell_base=-50.0, click_floor=1.0, click_scale=0.0)))


class TestConfigSerialization:
    def _rich(self) -> ScenarioConfig:
        return tiny_config(age_offsets={G4: 0.2, G2: -0.1},
                           gender_offsets={Gender.FEMALE: -0.05},
                           dwell_multipliers={G2: 1.5},
                           click_multipliers={G1: 1.2})

    def test_round_trip_through_json(self):
        cfg = self._rich()
        restored = ScenarioConfig.from_dict(
            json.loads(json.dumps(cfg.to_dict())))
        assert restored == cfg

    def test_from_dict_accepts_age_labels(self):
        d = tiny_config().to_dict()
        d["age_offsets"] = {"55-74": 0.1}
        d["dwell_multipliers"] = {"G2": 1.5}
        cfg = ScenarioConfig.from_dict(d)
        assert cfg.age_offsets == {G4: 0.1}
        assert cfg.dwell_multipliers == {G2: 1.5}

    def test_from_dict_wraps_errors(self):
        with pytest.raises(ConfigError, match="bad scenario config"):
            ScenarioConfig.from_dict({"name": "x", "seed": 1})
        d = tiny_config().to_dict()
        d["age_offsets"] = {"G9": 0.1}
        with pytest.raises(ConfigError, match="bad scenario config"):
            ScenarioConfig.from_dict(d)


class TestDeterminism:
    def test_same_config_same_bytes(self, tmp_path):
        cfg = tiny_config()
        corpus_a, truth_a = generate(cfg)
        corpus_b, truth_b = generate(cfg)
        assert truth_a.latent.tolist() == truth_b.latent.tolist()
        pa, pb = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        emit(corpus_a, str(pa), "ndjson")
        emit(corpus_b, str(pb), "ndjson")
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_different_corpus(self):
        corpus_a, _ = generate(tiny_config(seed=99))
        corpus_b, _ = generate(tiny_config(seed=100))
        da = [repr(i) for i in records(corpus_a)[:50]]
        db = [repr(i) for i in records(corpus_b)[:50]]
        assert da != db


@pytest.fixture(scope="module")
def tiny(request):
    return generate(tiny_config(users=20))


class TestGeneratedCorpus:
    def test_every_impression_is_valid(self, tiny):
        corpus, _ = tiny
        recs = records(corpus)
        # every record passes the invariants again on the way back in
        from_records(recs)
        assert all(i.reformulated is not None for i in recs)
        assert corpus.has_dwell

    def test_truth_covers_the_corpus(self, tiny):
        corpus, truth = tiny
        # one read-only value per corpus row
        assert truth.latent.shape == (len(corpus),)
        assert not truth.latent.flags.writeable
        assert all(0.0 <= s <= 1.0 for s in truth.latent.tolist())
        assert truth.difficulty == {"brand zero": 0.05, "alpha news": 0.3,
                                    "beta travel": 0.6, "gamma tech": 0.85}
        assert truth.navigational == {"brand zero"}
        assert all(tiny_config().offset_for(p) == 0.0 for p in all_profiles())

    def test_user_sessions_are_bounded_and_ordered(self, tiny):
        corpus, _ = tiny
        by_user: dict[str, list] = {}
        for imp in records(corpus):
            by_user.setdefault(imp.user_id, []).append(imp)
        cap = BehaviorModel().max_impressions_per_user
        for imps in by_user.values():
            assert 1 <= len(imps) <= cap
            stamps = [i.timestamp for i in imps]
            assert stamps == sorted(stamps)
            assert len(set(stamps)) == len(stamps)

    def test_reformulation_flag_repeats_the_query(self, tiny):
        corpus, _ = tiny
        by_user: dict[str, list] = {}
        for imp in records(corpus):
            by_user.setdefault(imp.user_id, []).append(imp)
        flagged = 0
        for imps in by_user.values():
            imps.sort(key=lambda i: i.timestamp)
            assert imps[-1].reformulated is False
            for cur, nxt in zip(imps, imps[1:]):
                if cur.reformulated:
                    flagged += 1
                    assert nxt.query_text == cur.query_text
        assert flagged > 0

    def test_volume_tracks_request(self):
        corpus, _ = generate(preset_null(n_impressions=4000, seed=77))
        assert abs(len(corpus) - 4000) / 4000 < 0.05


def _assert_same_generation(cfg: ScenarioConfig) -> None:
    """generate() and the loop reference give the same columns, exactly."""
    corpus, truth = generate(cfg)
    ref, ref_truth = reference_generate(cfg)
    for f in dataclasses.fields(corpus):
        if not f.init:                      # the derived-column cache
            continue
        got, want = getattr(corpus, f.name), getattr(ref, f.name)
        if isinstance(got, np.ndarray):
            assert got.dtype == want.dtype, f.name
            assert np.array_equal(got, want), f.name
        else:
            assert got == want, f.name
    assert np.array_equal(truth.latent, ref_truth.latent)
    assert (truth.difficulty, truth.navigational) == \
        (ref_truth.difficulty, ref_truth.navigational)


class TestAgainstReference:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_presets_match_the_loop(self, preset, seed):
        _assert_same_generation(PRESETS[preset](n_impressions=3000,
                                                seed=seed))

    def test_reformulation_chain_spans_a_whole_user(self):
        # every impression reformulates, so each user re-issues its first
        # query up to the cap
        behavior = BehaviorModel(reform_floor=1.0,
                                 mean_extra_impressions=50.0)
        cfg = tiny_config(behavior=behavior)
        _assert_same_generation(cfg)
        corpus, _ = generate(cfg)
        cap = behavior.max_impressions_per_user
        assert np.array_equal(np.bincount(corpus.user),
                              np.full(len(corpus.users), cap))
        chains = corpus.query.reshape(-1, cap)
        assert (chains == chains[:, :1]).all()
        assert corpus.reformulated.reshape(-1, cap).tolist() == \
            [[1] * (cap - 1) + [0]] * len(corpus.users)

    def test_stray_clicks_match_the_loop(self):
        # a profile without users draws nothing
        users = {p.key: 0 if p.age is G2 else 12 for p in all_profiles()}
        cfg = tiny_config(click_multipliers={G1: 3.0, G3: 0.5},
                          users_per_profile=users,
                          behavior=BehaviorModel(stray_click_rate=0.5))
        _assert_same_generation(cfg)
        corpus, _ = generate(cfg)
        # browse and final clicks make at most two; the rest are strays
        assert (corpus.click_count > 2).any()


class TestPresets:
    def test_catalog(self):
        presets = {name: factory() for name, factory in PRESETS.items()}
        assert set(presets) == {"null", "query_mix_confound",
                                "dwell_confound", "true_gap", "mixed"}
        for name, cfg in presets.items():
            assert cfg.name == name
        assert presets["null"].seed == 20240601
        assert presets["mixed"].seed == 20240605
        assert presets["mixed"].age_offsets == {G4: 0.10}
        assert presets["mixed"].dwell_multipliers == {G4: 1.3}

    def test_query_mix_vocabulary_structure(self):
        cfg = preset_query_mix_confound()
        nav = [q for q in cfg.queries if q.navigational]
        other = [q for q in cfg.queries if not q.navigational]
        assert len(nav) == 14 and len(other) == 386
        assert all(q.difficulty == 0.05 for q in nav)
        assert all(q.text.startswith("brand") for q in nav)
        first, last = other[0], other[-1]
        assert first.age_weights[0] == pytest.approx(1.0)
        assert first.age_weights[1] == pytest.approx(np.exp(-1.5))
        assert first.age_weights[2] == first.age_weights[3] == 0.0
        assert last.age_weights[3] == pytest.approx(1.0)
        assert last.age_weights[0] == last.age_weights[1] == 0.0
        assert first.difficulty == pytest.approx(0.85)
        assert last.difficulty == pytest.approx(0.30)

    def test_scenario_name_never_enters_generation(self):
        cfg = tiny_config()
        corpus_a, truth_a = generate(cfg)
        corpus_b, truth_b = generate(dataclasses.replace(cfg,
                                                         name="renamed"))
        assert records(corpus_a) == records(corpus_b)
        assert truth_a.latent.tolist() == truth_b.latent.tolist()

    def test_truth_offset_lookup(self):
        cfg = preset_true_gap()
        for p in all_profiles():
            expected = 0.15 if p.age is G4 else 0.0
            assert cfg.offset_for(p) == expected


class TestInjectedStructure:
    def test_null_group_scores_agree_within_noise(self, null_data):
        corpus, _ = null_data
        scores = query_averaged_scores(corpus, Factor.AGE)
        for metric in (MetricKind.SUCCESSFUL_CLICK_COUNT,
                       MetricKind.GRADED_UTILITY):
            raw = scores.raw[metric]
            se = scores.stderr[metric]
            for a in AgeGroup:
                for b in AgeGroup:
                    if a >= b:
                        continue
                    gap = abs(raw[a] - raw[b])
                    noise = 2.0 * np.sqrt(se[a] ** 2 + se[b] ** 2)
                    assert gap <= noise, (metric, a, b, gap, noise)

    def test_dwell_confound_inflates_observed_success_only(self, dwell_data):
        corpus, truth = dwell_data
        scores = query_averaged_scores(corpus, Factor.AGE)
        scc = scores.raw[MetricKind.SUCCESSFUL_CLICK_COUNT]
        assert scc[G4] > 1.10 * max(scc[G1], scc[G2], scc[G3])
        by_age: dict[AgeGroup, list[float]] = {a: [] for a in AgeGroup}
        for imp, s in zip(records(corpus), truth.latent.tolist()):
            by_age[imp.demographics.age].append(s)
        means = {a: float(np.mean(v)) for a, v in by_age.items()}
        assert abs(means[G4] - means[G1]) < 0.01

    def test_query_mix_separates_query_distributions(self, qmix_small):
        corpus, _ = qmix_small
        near = query_kl(corpus, G1, G2, Factor.AGE)
        far = query_kl(corpus, G1, G4, Factor.AGE)
        assert 0.0 < near < far
        assert far > 0.5

    def test_true_gap_shifts_latent_satisfaction(self, truegap_data):
        corpus, truth = truegap_data
        assert preset_true_gap().age_offsets == {G4: 0.15}
        by_age: dict[AgeGroup, list[float]] = {a: [] for a in AgeGroup}
        for imp, s in zip(records(corpus), truth.latent.tolist()):
            by_age[imp.demographics.age].append(s)
        means = {a: float(np.mean(v)) for a, v in by_age.items()}
        others = np.mean([means[G1], means[G2], means[G3]])
        assert 0.10 < means[G4] - others <= 0.16

    def test_emission_channels_are_monotone_in_latent(self, truegap_data):
        corpus, truth = truegap_data
        recs = records(corpus)
        s = truth.latent
        mv = [metric_vector(i) for i in recs]
        scc = np.array([m.successful_click_count for m in mv], dtype=float)
        reform = np.array([m.reformulation for m in mv], dtype=float)
        lo, hi = np.quantile(s, [1.0 / 3.0, 2.0 / 3.0])
        assert scc[s < lo].mean() < scc[s > hi].mean()
        assert reform[s < lo].mean() > reform[s > hi].mean()