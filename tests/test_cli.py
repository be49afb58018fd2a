"""End-to-end command tests, driven in process through main(argv).

Each command writes into a pytest temp directory; generated corpora are
shared at module scope because synthesis dominates the runtime.
"""

import csv
import dataclasses
import json
import logging
import math
import os
import pathlib
import subprocess
import sys

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10; pytest depends on tomli there
    import tomli as tomllib

import sataudit
from corpus_builders import click, corpus, imp
from oracles import predict
from sataudit.aggregate import Factor
from sataudit.audit import AuditConfig, audit_meta, run_audit, write_audit
from sataudit.cli import build_parser, main
from sataudit.errors import ConfigError, ConvergenceError
from sataudit.logmodel import AgeGroup, Gender, LogCorpus, emit, ingest
from sataudit.metrics import MetricKind
from sataudit.multilevel import PREDICTION_GRID
from sataudit.pairwise import derive_thresholds_from_deltas, eligible_queries
from sataudit import audit, logmodel, synth


def read_report_csv(path: pathlib.Path) -> tuple[dict, list[dict]]:
    """Read a CSV written by ``reports.write_csv`` back into (meta, rows)."""
    meta: dict = {}
    lines = path.read_text(encoding="utf-8").splitlines()
    body_start = 0
    for i, line in enumerate(lines):
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
            body_start = i + 1
        else:
            break
    return meta, list(csv.DictReader(lines[body_start:]))


GU = MetricKind.GRADED_UTILITY


def run(*argv) -> int:
    return main([str(a) for a in argv])


def _with_and_without(src: pathlib.Path, tmp_path: pathlib.Path, k: int,
                      **fields) -> list[pathlib.Path]:
    """Two copies of NDJSON log `src`, each named ``corpus.ndjson`` in its
    own directory: one with `fields` set in line `k`, one without line
    `k`."""
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    edited = json.dumps({**json.loads(lines[k]), **fields}) + "\n"
    logs = []
    for name, line in (("with", [edited]), ("without", [])):
        (tmp_path / name).mkdir()
        logs.append(tmp_path / name / "corpus.ndjson")
        logs[-1].write_text("".join(lines[:k] + line + lines[k + 1:]),
                            encoding="utf-8")
    return logs


@pytest.fixture(scope="module")
def tg_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("gen_true_gap")
    assert run("generate", "--preset", "true_gap", "--impressions", 4000,
               "--out", d) == 0
    return d


@pytest.fixture(scope="module")
def qmix_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("gen_qmix")
    assert run("generate", "--preset", "query_mix_confound",
               "--impressions", 16000, "--out", d) == 0
    return d


@pytest.fixture(scope="module")
def null_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("gen_null")
    assert run("generate", "--preset", "null", "--impressions", 30000,
               "--out", d) == 0
    return d


@pytest.fixture(scope="module")
def qmix_audit(qmix_dir, tmp_path_factory):
    d = tmp_path_factory.mktemp("audit_qmix")
    assert run("audit", "--input", qmix_dir / "corpus.ndjson",
               "--out", d) == 0
    return d


# ---------------------------------------------------------------------------
# generate

class TestGenerate:
    def test_writes_corpus_truth_and_manifest(self, tg_dir):
        assert (tg_dir / "corpus.ndjson").exists()
        assert (tg_dir / "ground_truth.csv").exists()
        assert (tg_dir / "query_truth.csv").exists()
        manifest = json.loads((tg_dir / "manifest.json").read_text(
            encoding="utf-8"))
        n_lines = sum(1 for line in
                      (tg_dir / "corpus.ndjson").read_text(
                          encoding="utf-8").splitlines()
                      if line)
        assert manifest["preset"] == "true_gap"
        assert manifest["counts"]["impressions"] == n_lines
        assert manifest["scenario"]["seed"] == 20240604

    def test_no_navigational_sidecar_without_navigational_queries(
            self, tg_dir):
        # the true_gap vocabulary is all non-navigational
        assert not (tg_dir / "navigational_queries.txt").exists()
        manifest = json.loads((tg_dir / "manifest.json").read_text(
            encoding="utf-8"))
        assert manifest["files"]["navigational"] is None

    def test_navigational_sidecar_lists_brand_queries(self, qmix_dir):
        lines = (qmix_dir / "navigational_queries.txt") \
            .read_text(encoding="utf-8").splitlines()
        assert len(lines) == 14
        assert all(q.startswith("brand") for q in lines)
        manifest = json.loads((qmix_dir / "manifest.json").read_text(
            encoding="utf-8"))
        assert manifest["files"]["navigational"] == "navigational_queries.txt"

    def test_ground_truth_aligns_with_corpus(self, tg_dir):
        _, rows = read_report_csv(tg_dir / "ground_truth.csv")
        data = ingest(tg_dir / "corpus.ndjson")
        assert len(rows) == len(data)
        ids = sorted(data.ids)
        assert [r["impression_id"] for r in rows] == ids
        for r in rows[:50]:
            float(r["latent_satisfaction"])

    def test_csv_format(self, tmp_path):
        assert run("generate", "--preset", "null", "--impressions", 800,
                   "--format", "csv", "--out", tmp_path) == 0
        data = ingest(tmp_path / "corpus.csv", fmt="csv")
        manifest = json.loads((tmp_path / "manifest.json").read_text(
            encoding="utf-8"))
        assert len(data) == manifest["counts"]["impressions"]
        assert data.has_dwell

    def test_scenario_config_file_with_seed_override(self, tmp_path):
        cfg_file = tmp_path / "scenario.json"
        cfg_file.write_text(json.dumps(
            synth.preset_null(n_impressions=600).to_dict()), encoding="utf-8")
        out = tmp_path / "out"
        assert run("generate", "--scenario-config", cfg_file, "--seed", 123,
                   "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text(
            encoding="utf-8"))
        assert manifest["scenario"]["seed"] == 123

    def test_preset_and_scenario_config_are_exclusive(self, tmp_path):
        cfg_file = tmp_path / "scenario.json"
        cfg_file.write_text(json.dumps(
            synth.preset_null(n_impressions=600).to_dict()), encoding="utf-8")
        assert run("generate", "--preset", "null",
                   "--scenario-config", cfg_file, "--out", tmp_path) == 1
        assert run("generate", "--out", tmp_path) == 1

    def test_impressions_flag_rejected_with_scenario_config(self, tmp_path):
        cfg_file = tmp_path / "scenario.json"
        cfg_file.write_text(json.dumps(
            synth.preset_null(n_impressions=600).to_dict()), encoding="utf-8")
        assert run("generate", "--scenario-config", cfg_file,
                   "--impressions", 5000, "--out", tmp_path) == 1

    def test_offset_only_applies_to_true_gap(self, tmp_path):
        assert run("generate", "--preset", "null", "--offset", 0.2,
                   "--out", tmp_path) == 1

    def test_unknown_preset_is_usage_error(self, tmp_path):
        assert run("generate", "--preset", "bogus", "--out", tmp_path) == 1

    def test_query_truth_keys_by_the_corpus_text(self, tmp_path):
        scenario = synth.preset_null(n_impressions=600, seed=1).to_dict()
        scenario["queries"][0]["text"] = "News  Query 0000 "
        cfg_file = tmp_path / "scenario.json"
        cfg_file.write_text(json.dumps(scenario), encoding="utf-8")
        assert run("generate", "--scenario-config", cfg_file,
                   "--out", tmp_path / "out") == 0
        _, rows = read_report_csv(tmp_path / "out" / "query_truth.csv")
        texts = [r["query_text"] for r in rows]
        assert texts == sorted(texts) and "news query 0000" in texts
        assert set(texts) >= set(
            ingest(tmp_path / "out" / "corpus.ndjson").queries)


def _query(**fields):
    return lambda d: d["queries"][0].update(fields)


def _roster(**counts):
    return lambda d: d["users_per_profile"].update(counts)


def _behavior(**values):
    return lambda d: d["behavior"].update(values)


@pytest.mark.parametrize("edit,message", [
    (_query(age_weights=[1, 1, 1]), "query 'news query 0000': age_weights "
     "must be 4 numbers, none negative, got [1, 1, 1]"),
    (_query(age_weights=[1, 1, 1, 1, 1]), "query 'news query 0000': "
     "age_weights must be 4 numbers, none negative, got [1, 1, 1, 1, 1]"),
    (_query(gender_weights=[1]), "query 'news query 0000': gender_weights "
     "must be 2 numbers, none negative, got [1]"),
    (_query(text=5), "query 5: text must be a string, got 5"),
    (_query(topic=7), "query 'news query 0000': topic must be a string, "
     "got 7"),
    (_query(results=[1, 2, 3]), "query 'news query 0000': results must be "
     "a list of strings, got [1, 2, 3]"),
    (_query(results="r1"), "query 'news query 0000': results must be a "
     "list of strings, got 'r1'"),
    (_roster(**{"G2-m": 20, "G9-X": 20}),
     "unknown profiles in users_per_profile: 'G2-m', 'G9-X'; choose from "
     "G1-M, G1-F, G2-M, G2-F, G3-M, G3-F, G4-M, G4-F"),
    (lambda d: d.update(seed=1.5), "seed must be an integer, got 1.5"),
    (_roster(**{"G1-M": 2.7}),
     "user counts must be non-negative integers, got 2.7"),
    (_behavior(max_impressions_per_user=2.5),
     "behavior max_impressions_per_user must be an integer, got 2.5"),
    (_behavior(channel_width="0.01"),
     "behavior channel_width must be a finite number, got '0.01'"),
    (_behavior(mean_extra_impressions=-1.0),
     "behavior mean_extra_impressions must be at least 0, got -1.0"),
    (_behavior(success_dwell_min=math.nan),
     "behavior success_dwell_min must be a finite number, got nan"),
    (_behavior(channel_width=0),
     "behavior channel_width must be positive, got 0"),
    (_behavior(max_impressions_per_user=0),
     "behavior max_impressions_per_user must be at least 1, got 0"),
    (_behavior(reform_center=True),
     "behavior reform_center must be a finite number, got True"),
    (_behavior(stray_click_rate=-0.5),
     "behavior stray_click_rate must be at least 0, got -0.5"),
    (_behavior(success_dwell_sigma=1000.0),
     "behavior success_dwell_sigma must be at most 50 in absolute value, "
     "got 1000.0"),
    (_behavior(mean_extra_impressions=1e300),
     "behavior mean_extra_impressions must be at most 1e+18, got 1e+300"),
    (_behavior(short_dwell_base=-100.0),
     "behavior model gives a negative dwell time"),
    (_behavior(stray_click_rate=1e300),
     "behavior stray_click_rate must be at most 1e+18, got 1e+300"),
    (lambda d: d.update(click_multipliers={"G1": 1e300}),
     "behavior stray_click_rate times a click multiplier must be at most "
     "1e+18, got 1e+297"),
    (lambda d: d.update(age_offset={"G4": 0.1}, seeds=2),
     "unknown scenario keys: age_offset, seeds"),
    (_query(age_weight=[1, 2, 3, 4]),
     "unknown query keys: age_weight"),
    (lambda d: d.update(name=5), "name must be a string, got 5"),
    # JSON may escape a lone surrogate, which no UTF-8 file can hold
    (_query(text="odd \ud800 query"), "query 'odd \\ud800 query': text "
     "must be encodable as UTF-8, got 'odd \\ud800 query'"),
    (_query(topic="news\ud800"), "query 'news query 0000': topic must be "
     "encodable as UTF-8, got 'news\\ud800'"),
    (_query(results=["r0", "r\udc00"]), "query 'news query 0000': results "
     "must be a list of strings encodable as UTF-8, got ['r0', 'r\\udc00']"),
], ids=["age3", "age5", "gender1", "text", "topic", "result-ints",
        "result-string", "unknown-profile", "float-seed", "float-users",
        "float-max-impressions", "string-width", "negative-extra",
        "nan-dwell-min", "zero-width", "zero-max-impressions", "bool-center",
        "negative-stray", "huge-dwell-sigma", "huge-extra",
        "negative-dwell-base", "huge-stray", "huge-stray-multiplier",
        "unknown-scenario", "unknown-query", "int-name", "surrogate-text",
        "surrogate-topic", "surrogate-result"])
def test_bad_scenario_value_is_one_config_error(tmp_path, capsys, edit,
                                                message):
    scenario = synth.preset_null(n_impressions=2000, seed=1).to_dict()
    edit(scenario)
    cfg_file = tmp_path / "scenario.json"
    cfg_file.write_text(json.dumps(scenario), encoding="utf-8")
    assert run("generate", "--scenario-config", cfg_file,
               "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_csv_emit_refusal_leaves_no_corpus(tmp_path, capsys):
    # a result id holding ':' cannot be packed into a CSV row; the ids
    # are checked before the output directory is made, so nothing is left
    scenario = synth.preset_null(n_impressions=600, seed=1).to_dict()
    for query in scenario["queries"]:
        query["results"][1] = "r:1"
    cfg_file = tmp_path / "scenario.json"
    cfg_file.write_text(json.dumps(scenario), encoding="utf-8")
    assert run("generate", "--scenario-config", cfg_file, "--format", "csv",
               "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == (
        "data error: result id 'r:1' contains a reserved character; CSV "
        "packing requires ids without ':' or ';'\n")
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# metrics

class TestMetrics:
    def test_internal_corpus_gets_full_vector(self, tg_dir, tmp_path):
        assert run("metrics", "--input", tg_dir / "corpus.ndjson",
                   "--out", tmp_path) == 0
        _, rows = read_report_csv(tmp_path / "metrics.csv")
        data = ingest(tg_dir / "corpus.ndjson")
        assert len(rows) == len(data)
        assert list(rows[0]) == ["impression_id", "age", "gender",
                                 "query_text", "topic", "graded_utility",
                                 "reformulation", "page_click_count",
                                 "successful_click_count"]
        levels = {-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0}
        for r in rows:
            assert float(r["graded_utility"]) in levels
            assert r["reformulation"] in ("0", "1")
            assert int(r["successful_click_count"]) >= 0

    def test_clicks_only_corpus_blanks_dwell_metrics(self, tmp_path):
        imps = [imp(query="blanks", clicks=(click(dwell=float("nan")),),
                    reformulated=True, user_id="u1"),
                imp(query="blanks", clicks=(), reformulated=False,
                    user_id="u2")]
        emit(corpus(imps), tmp_path / "c.ndjson")
        out = tmp_path / "m"
        assert run("metrics", "--input", tmp_path / "c.ndjson",
                   "--out", out) == 0
        _, rows = read_report_csv(out / "metrics.csv")
        by_clicks = sorted(rows, key=lambda r: r["page_click_count"],
                           reverse=True)
        assert [r["page_click_count"] for r in by_clicks] == ["1", "0"]
        for r in rows:
            assert r["graded_utility"] == ""
            assert r["successful_click_count"] == ""
        assert sorted(r["reformulation"] for r in rows) == ["0", "1"]

    @pytest.mark.parametrize("case,reason", [
        ("huge-int-dwell", "int too large to convert to float"),
        ("nested-too-deep", "maximum recursion depth exceeded")],
        ids=["huge-int-dwell", "nested-too-deep"])
    def test_record_no_float_or_stack_can_hold_is_skipped(
            self, tmp_path, caplog, case, reason):
        path = tmp_path / "c.ndjson"
        emit(corpus([imp(f"m{i}", clicks=(click(),)) for i in range(4)]),
             path)
        rec = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        rec["impression_id"] = "bad"
        rec["clicks"][0]["dwell_seconds"] = 10 ** 400
        with path.open("a", encoding="utf-8") as f:
            f.write({"huge-int-dwell": json.dumps(rec),
                     "nested-too-deep": "[" * 200_000}[case] + "\n")
        with caplog.at_level(logging.WARNING, logger="sataudit.logmodel"):
            assert run("metrics", "--input", path,
                       "--out", tmp_path / "m") == 0
        assert "skipped 1/5 records" in caplog.text and reason in caplog.text
        _, rows = read_report_csv(tmp_path / "m" / "metrics.csv")
        assert len(rows) == 4

    def test_id_with_a_surrogate_skips_its_record(self, tg_dir, tmp_path):
        # the metrics of a log with that record are those of the log
        # without it
        logs = _with_and_without(tg_dir / "corpus.ndjson", tmp_path, 0,
                                 impression_id="bad\ud800id")
        for log in logs:
            assert run("metrics", "--input", log,
                       "--out", log.parent / "out") == 0
        a, b = (log.parent / "out" / "metrics.csv" for log in logs)
        assert a.read_bytes() == b.read_bytes()

    def test_format_inference_failure(self, tmp_path):
        assert run("metrics", "--input", tmp_path / "corpus.txt",
                   "--out", tmp_path) == 1

    def test_dwell_fidelity_is_read_once(self, monkeypatch, tmp_path):
        # has_dwell scans every click; reading it per row made the command
        # quadratic in the corpus size
        imps = [imp(f"m{i}", clicks=(click(),), user_id=f"u{i}")
                for i in range(6)]
        emit(corpus(imps), tmp_path / "c.ndjson")
        reads = []
        scan = LogCorpus.has_dwell.fget

        def counting(self):
            reads.append(1)
            return scan(self)

        monkeypatch.setattr(LogCorpus, "has_dwell", property(counting))
        out = tmp_path / "m"
        assert run("metrics", "--input", tmp_path / "c.ndjson",
                   "--out", out) == 0
        _, rows = read_report_csv(out / "metrics.csv")
        assert len(rows) == 6
        assert all(r["graded_utility"] != "" for r in rows)
        assert len(reads) == 1


# ---------------------------------------------------------------------------
# audit

def _clicks_only_corpus() -> LogCorpus:
    # click-count spread across age groups, dwell never observed; both
    # older and younger sides win somewhere so the external labeler emits
    # both signs
    clicks_for = {AgeGroup.G1: 0, AgeGroup.G2: 4, AgeGroup.G3: 1,
                  AgeGroup.G4: 4}
    imps = []
    for age, n_clicks in clicks_for.items():
        for i in range(12):
            gender = Gender.MALE if i % 2 == 0 else Gender.FEMALE
            imps.append(imp(
                query="shared news", age=age, gender=gender,
                user_id=f"u{age.value}{i:02d}", reformulated=False,
                results=("r0", "r1", "r2", "r3"),
                clicks=tuple(click(result_id=f"r{c}", position=c + 1,
                                   dwell=float("nan"))
                             for c in range(n_clicks))))
    return corpus(imps)


class TestAudit:
    def test_default_methods_raw_and_matched(self, qmix_audit):
        summary = json.loads((qmix_audit / "summary.json").read_text(
            encoding="utf-8"))
        assert summary["methods"] == ["raw", "matched"]
        assert (qmix_audit / "raw_scores.csv").exists()
        assert (qmix_audit / "matched_scores.csv").exists()
        assert (qmix_audit / "attrition.csv").exists()

    def test_query_mix_confound_flags_divergence(self, qmix_audit):
        summary = json.loads((qmix_audit / "summary.json").read_text(
            encoding="utf-8"))
        assert summary["divergence"]["raw_vs_matched"] is True
        assert summary["divergence"]["metrics"]["graded_utility"] is True
        gu_raw = summary["raw"]["span"]["graded_utility"]
        gu_matched = summary["matched"]["span"]["graded_utility"]
        assert summary["raw"]["distinguishable"]["graded_utility"]
        assert gu_raw >= 0.15
        assert gu_matched <= gu_raw / 3.0

    def test_attrition_stages_in_order(self, qmix_audit):
        _, rows = read_report_csv(qmix_audit / "attrition.csv")
        assert [r["stage"] for r in rows] == \
            ["input", "navigational", "min_impressions", "final_click",
             "serp", "min_impressions_recheck"]
        counts = [int(r["impressions"]) for r in rows]
        assert counts == sorted(counts, reverse=True)

    def test_null_gender_raw_gaps_are_small(self, null_dir, tmp_path):
        assert run("audit", "--input", null_dir / "corpus.ndjson",
                   "--methods", "raw", "--factor", "gender",
                   "--out", tmp_path) == 0
        summary = json.loads((tmp_path / "summary.json").read_text(
            encoding="utf-8"))
        assert summary["factor"] == "gender"
        for kind, span in summary["raw"]["span"].items():
            assert span <= 0.05, (kind, span)

    def test_multilevel_and_pairwise_outputs(self, tg_dir, tmp_path):
        assert run("audit", "--input", tg_dir / "corpus.ndjson",
                   "--methods", "raw,multilevel,pairwise",
                   "--out", tmp_path) == 0
        assert (tmp_path / "difficulty.csv").exists()
        for kind in MetricKind:
            fit = json.loads(
                (tmp_path / f"fit_{kind.value}.json").read_text(
                    encoding="utf-8"))
            assert fit["metric"] == kind.value
            assert "effects" in fit and "convergence" in fit
        assert (tmp_path / "prediction_grid.csv").exists()
        model = json.loads((tmp_path / "pair_model.json").read_text(
            encoding="utf-8"))
        assert model["labeler"] == "internal"
        assert model["labels"]["total"] > 0
        assert model["thresholds"]["k"] == 2.5
        grid = json.loads((tmp_path / "pair_grid.json").read_text(
            encoding="utf-8"))
        assert set(grid) == {"meta", "probabilities"}
        probs = grid["probabilities"]
        # an age grid per gender, both sides of that gender
        assert set(probs) == {g.code for g in Gender}
        for g in Gender:
            for a in AgeGroup:
                assert probs[g.code][a.label][a.label] == 0.5
                for b in AgeGroup:
                    assert 0.0 < probs[g.code][a.label][b.label] < 1.0
        summary = json.loads((tmp_path / "summary.json").read_text(
            encoding="utf-8"))
        assert summary["pairwise"]["grid"] == probs
        assert set(summary["multilevel"]["deltas"]) == \
            {k.value for k in MetricKind}
        deltas = {MetricKind(k): v
                  for k, v in summary["multilevel"]["deltas"].items()}
        assert model["thresholds"] == dataclasses.asdict(
            derive_thresholds_from_deltas(deltas, k=2.5))

    def test_threshold_source_names_where_each_threshold_came_from(
            self, tg_dir, tmp_path):
        log = tg_dir / "corpus.ndjson"
        assert run("audit", "--input", log, "--methods",
                   "multilevel,pairwise", "--out", tmp_path / "derived") == 0
        assert run("audit", "--input", log, "--methods", "pairwise",
                   "--default-thresholds", "--out", tmp_path / "default") == 0
        derived, default = (json.loads((tmp_path / name / "summary.json")
                                       .read_text(encoding="utf-8"))
                            for name in ("derived", "default"))
        block = derived["pairwise"]
        # the true_gap graded-utility delta exceeds 0.8, so k * delta is
        # beyond the largest GU difference and the GU defaults stand
        assert derived["multilevel"]["deltas"]["graded_utility"] > 0.8
        assert block["threshold_source"] == {
            "graded_utility": "fallback", "successful_click_count": "derived",
            "page_click_count": "default"}
        assert (block["thresholds"]["gu_strong"],
                block["thresholds"]["gu_weak"]) == (0.4, 0.2)
        assert default["pairwise"]["threshold_source"] == dict.fromkeys(
            block["threshold_source"], "default")
        model = json.loads((tmp_path / "derived" / "pair_model.json")
                           .read_text(encoding="utf-8"))
        assert model["threshold_source"] == block["threshold_source"]

    def test_k_too_large_for_a_delta_is_one_config_error(self, tg_dir,
                                                          tmp_path, capsys):
        assert run("audit", "--input", tg_dir / "corpus.ndjson",
                   "--methods", "multilevel,pairwise", "--k", "1.7e308",
                   "--out", tmp_path / "out") == 1
        out, err = capsys.readouterr()
        assert out == ""
        # the true_gap graded-utility delta exceeds 1.06
        assert err.startswith("config error: k = 1.7e+308 is too large for "
                              "the graded_utility delta ")
        assert err.endswith(": k * delta is not finite\n")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_gender_pairs_come_from_queries_of_both_genders(self, tg_dir,
                                                            tmp_path):
        path = tg_dir / "corpus.ndjson"
        assert run("audit", "--input", path, "--factor", "gender",
                   "--methods", "pairwise", "--default-thresholds",
                   "--out", tmp_path) == 0
        summary = json.loads((tmp_path / "summary.json").read_text(
            encoding="utf-8"))
        c = ingest(path)
        eligible = eligible_queries(c, Factor.GENDER)
        assert eligible == eligible_queries(c, Factor.GENDER, min_groups=2)
        assert summary["pairwise"]["n_eligible_queries"] == len(eligible) > 0

    def test_pairwise_without_multilevel_needs_default_thresholds(
            self, tg_dir, tmp_path):
        assert run("audit", "--input", tg_dir / "corpus.ndjson",
                   "--methods", "pairwise", "--out", tmp_path) == 1
        assert run("audit", "--input", tg_dir / "corpus.ndjson",
                   "--methods", "pairwise", "--default-thresholds",
                   "--out", tmp_path) == 0

    def test_external_rejects_dwell_corpus(self, tg_dir, tmp_path):
        assert run("audit", "--input", tg_dir / "corpus.ndjson",
                   "--methods", "external", "--default-thresholds",
                   "--out", tmp_path) == 1

    def test_external_on_clicks_only_corpus(self, tmp_path):
        emit(_clicks_only_corpus(), tmp_path / "c.ndjson")
        out = tmp_path / "audit"
        assert run("audit", "--input", tmp_path / "c.ndjson",
                   "--methods", "external", "--default-thresholds",
                   "--out", out) == 0
        model = json.loads((out / "external_pair_model.json").read_text(
            encoding="utf-8"))
        assert model["labeler"] == "external"
        assert set(model["threshold_source"].values()) == {"default"}
        assert model["labels"]["positive"] > 0
        assert model["labels"]["negative"] > 0
        grid = json.loads((out / "external_pair_grid.json").read_text(
            encoding="utf-8"))
        young, old = AgeGroup.G1.label, AgeGroup.G4.label
        for probs in grid["probabilities"].values():
            assert probs[old][young] > 0.5
            assert probs[young][old] < 0.5

    @pytest.mark.parametrize("method", audit.METHODS)
    @pytest.mark.parametrize("log", ["empty.ndjson", "header.csv"])
    def test_log_without_impressions_is_one_data_error(
            self, tmp_path, capsys, caplog, method, log):
        path = tmp_path / log
        path.write_text("" if log.endswith(".ndjson")
                        else ",".join(logmodel.CSV_FIELDS) + "\n",
                        encoding="utf-8")
        assert run("audit", "--input", path, "--methods", method,
                   "--default-thresholds", "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err.splitlines() == [
            "data error: the corpus holds no impressions"]
        assert caplog.records == []

    def test_all_zero_labels_is_a_data_error(self, tmp_path, capsys):
        # no clicks anywhere: every pair metric difference is zero, the
        # labeler abstains on all pairs and the fit has nothing to use
        imps = [imp(query="dead query", age=age, gender=Gender.MALE,
                    user_id=f"u{age.value}{i:02d}", reformulated=False)
                for age in AgeGroup for i in range(10)]
        emit(corpus(imps), tmp_path / "c.ndjson")
        assert run("audit", "--input", tmp_path / "c.ndjson",
                   "--methods", "pairwise", "--default-thresholds",
                   "--out", tmp_path / "audit") == 2
        assert "abstained" in capsys.readouterr().err

    def test_convergence_failure_exit_code(self, monkeypatch, tg_dir,
                                           tmp_path):
        def blow_up(obs, prior_variance=1.0, empirical_bayes=False):
            raise ConvergenceError("synthetic stall", iterations=7,
                                   objective=1.0, gradient_norm=9.9)

        monkeypatch.setattr("sataudit.multilevel.fit_multilevel", blow_up)
        assert run("audit", "--input", tg_dir / "corpus.ndjson",
                   "--methods", "multilevel", "--out", tmp_path) == 3

    def test_missing_input_file(self, tmp_path):
        assert run("audit", "--input", tmp_path / "nothing.ndjson",
                   "--methods", "raw", "--out", tmp_path) == 2

    def test_missing_csv_input_file(self, tmp_path, capsys):
        assert run("audit", "--input", tmp_path / "nothing.csv",
                   "--methods", "raw", "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "cannot read" in err and "nothing.csv" in err

    @pytest.mark.parametrize("fmt", ["ndjson", "csv"])
    def test_non_utf8_input_is_a_data_error(self, tmp_path, capsys, fmt):
        good = tmp_path / f"good.{fmt}"
        emit(corpus([imp("a1", clicks=[click()]), imp("a2")]), good, fmt=fmt)
        lines = good.read_bytes().splitlines(keepends=True)
        if fmt == "ndjson":
            payload = b"\xff\xfe" + b"".join(lines)     # a UTF-16 BOM
        else:
            payload = lines[0] + lines[1].replace(b"news", b"n\xffws") \
                + b"".join(lines[2:])
        bad = tmp_path / f"bad.{fmt}"
        bad.write_bytes(payload)
        assert run("audit", "--input", bad, "--methods", "raw",
                   "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "cannot read" in err[0] and f"bad.{fmt}" in err[0]

    def test_config_file_with_flag_precedence(self, tg_dir, tmp_path):
        cfg = tmp_path / "audit.json"
        cfg.write_text(json.dumps({"methods": "raw", "factor": "gender"}),
                       encoding="utf-8")
        out = tmp_path / "out"
        assert run("audit", "--input", tg_dir / "corpus.ndjson",
                   "--config", cfg, "--factor", "age", "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text(
            encoding="utf-8"))
        assert summary["methods"] == ["raw"]
        assert summary["factor"] == "age"

    def test_unknown_config_key(self, tg_dir, tmp_path):
        cfg = tmp_path / "audit.json"
        cfg.write_text(json.dumps({"verbosity": 3}), encoding="utf-8")
        assert run("audit", "--input", tg_dir / "corpus.ndjson",
                   "--config", cfg, "--out", tmp_path) == 1

    @pytest.mark.parametrize("command,flag", [
        ("audit", "--config"), ("generate", "--scenario-config")])
    @pytest.mark.parametrize("text", [
        "{not json", "[1,2]",
        pytest.param("[" * 200_000, id="nested-too-deep")])
    def test_config_file_must_hold_a_json_object(self, tmp_path, capsys,
                                                  command, flag, text):
        cfg = tmp_path / "config.json"
        cfg.write_text(text, encoding="utf-8")
        argv = [command, flag, cfg, "--out", tmp_path / "out"]
        if command == "audit":
            # absent: the config file is read first
            argv += ["--input", tmp_path / "absent.ndjson"]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("variance", ["0", "-1"])
    def test_nonpositive_prior_variance_is_a_config_error(
            self, tmp_path, capsys, via, variance):
        cfg = tmp_path / "audit.json"
        cfg.write_text(json.dumps({"prior_variance": float(variance)}),
                       encoding="utf-8")
        given = (["--prior-variance", variance] if via == "flag"
                 else ["--config", cfg])
        # absent: the config is refused before the input is read
        assert run("audit", "--input", tmp_path / "absent.ndjson",
                   "--methods", "raw,multilevel", *given,
                   "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == (
            "config error: prior_variance must be a positive number, got "
            f"{float(variance)!r}\n")

    def test_prior_variance_must_be_a_number(self):
        with pytest.raises(ConfigError, match="positive number, got '1'"):
            AuditConfig(prior_variance="1")     # a string in a config file

    @pytest.mark.parametrize("given,message", [
        ({"k": "x"}, "k must be a finite number, got 'x'"),
        ({"dwell_threshold": math.inf},
         "dwell_threshold must be a finite number, got inf"),
        (["--k", "nan"], "k must be a finite number, got nan"),
        ({"min_impressions": "5"},
         "min_impressions must be an integer, got '5'"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"methods": 5},
         "methods must be a string or a list of strings, got 5"),
        ({"methods": "raw,matched", "serp_prefix": "8"},
         "serp_prefix must be an integer, got '8'"),
        ({"empirical_bayes": "no"},
         "empirical_bayes must be true or false, got 'no'"),
        (["--serp-prefix", "-3"], "serp_prefix must be at least 1, got -3"),
        ({"factor": "region"}, "factor must be age or gender, got 'region'"),
        (["--factor", "region"],
         "factor must be age or gender, got 'region'"),
    ])
    def test_wrong_config_value_is_one_config_error(self, tmp_path, capsys,
                                                    given, message):
        argv = ["audit", "--input", tmp_path / "absent.ndjson",
                "--out", tmp_path / "out"]
        if isinstance(given, dict):
            cfg = tmp_path / "audit.json"
            cfg.write_text(json.dumps(given), encoding="utf-8")
            argv += ["--config", cfg]
        else:
            argv += given
        # absent: the config is refused before the input is read
        assert run(*argv) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_non_utf8_navigational_list_is_a_data_error(self, tg_dir,
                                                        tmp_path, capsys):
        nav = tmp_path / "nav.txt"
        nav.write_bytes(b"brand \xff query\n")
        assert run("audit", "--input", tg_dir / "corpus.ndjson",
                   "--methods", "raw,matched", "--navigational", nav,
                   "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: cannot read")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["ndjson", "csv"])
    def test_log_with_a_byte_order_mark_reads_as_without(self, tmp_path,
                                                          capsys, fmt):
        # spreadsheet exports start a UTF-8 file with a byte-order mark
        good = tmp_path / "plain" / f"c.{fmt}"
        good.parent.mkdir()
        emit(corpus([imp("a1", clicks=[click()]), imp("a2")]), good, fmt=fmt)
        marked = tmp_path / "marked" / f"c.{fmt}"
        marked.parent.mkdir()
        marked.write_bytes(b"\xef\xbb\xbf" + good.read_bytes())
        for log in (good, marked):
            assert run("metrics", "--input", log,
                       "--out", log.parent / "out") == 0
        assert capsys.readouterr().err == ""
        assert (marked.parent / "out" / "metrics.csv").read_bytes() == \
            (good.parent / "out" / "metrics.csv").read_bytes()

    def test_navigational_list_with_a_byte_order_mark(self, qmix_dir,
                                                      tmp_path):
        plain = qmix_dir / "navigational_queries.txt"
        marked = tmp_path / "nav.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for name, nav in (("plain", plain), ("marked", marked)):
            assert run("audit", "--input", qmix_dir / "corpus.ndjson",
                       "--methods", "raw,matched", "--navigational", nav,
                       "--out", tmp_path / name) == 0
        # the first listed query is kept, so every stage counts the same
        assert (tmp_path / "marked" / "attrition.csv").read_bytes() == \
            (tmp_path / "plain" / "attrition.csv").read_bytes()

    @pytest.mark.parametrize("command,flag", [
        ("audit", "--config"), ("generate", "--scenario-config")])
    def test_config_file_with_a_byte_order_mark(self, tg_dir, tmp_path,
                                                 command, flag):
        values = ({"methods": "raw", "factor": "gender"} if command == "audit"
                  else synth.preset_true_gap(n_impressions=500).to_dict())
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b"\xef\xbb\xbf" + json.dumps(values).encode())
        argv = [command, flag, cfg, "--out", tmp_path / "out"]
        if command == "audit":
            argv += ["--input", tg_dir / "corpus.ndjson"]
        assert run(*argv) == 0
        if command == "audit":
            summary = json.loads((tmp_path / "out" / "summary.json")
                                 .read_text(encoding="utf-8"))
            assert (summary["factor"], summary["methods"]) == \
                ("gender", ["raw"])
        else:
            manifest = json.loads((tmp_path / "out" / "manifest.json")
                                  .read_text(encoding="utf-8"))
            assert manifest["scenario"] == values

    @pytest.mark.parametrize("command,flag", [
        ("audit", "--config"), ("generate", "--scenario-config")])
    def test_missing_config_file_is_a_config_error(self, tmp_path, capsys,
                                                    command, flag):
        argv = [command, flag, tmp_path / "absent.json",
                "--out", tmp_path / "out"]
        if command == "audit":
            argv += ["--input", tmp_path / "absent.ndjson"]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read "
                              f"{tmp_path / 'absent.json'}: ")
        assert err.count("\n") == 1

    def test_missing_navigational_list_is_a_data_error(self, tg_dir,
                                                       tmp_path, capsys):
        assert run("audit", "--input", tg_dir / "corpus.ndjson",
                   "--methods", "raw,matched",
                   "--navigational", tmp_path / "absent.txt",
                   "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot read "
                              f"{tmp_path / 'absent.txt'}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("log", ["dwell", "clicks-only", "absent"])
    def test_pairwise_with_external_is_one_config_error(
            self, tg_dir, tmp_path, capsys, log):
        # internal labels need dwell times and external refuses a log that
        # has them, so the pair is refused before any input is read
        path = {"dwell": tg_dir / "corpus.ndjson",
                "clicks-only": tmp_path / "c.ndjson",
                "absent": tmp_path / "absent.ndjson"}[log]
        emit(_clicks_only_corpus(), tmp_path / "c.ndjson")
        assert run("audit", "--input", path, "--methods",
                   "pairwise,external", "--default-thresholds",
                   "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: external runs alone")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()
        with pytest.raises(ConfigError, match="external runs alone"):
            AuditConfig(methods=("external", "pairwise"),
                        default_thresholds=True)

    @pytest.mark.parametrize("other", ["raw", "matched", "multilevel",
                                       "pairwise"])
    @pytest.mark.parametrize("defaults", [[], ["--default-thresholds"]])
    def test_external_with_any_other_method_is_one_config_error(
            self, tmp_path, capsys, other, defaults):
        # every other method needs dwell times; the input does not exist,
        # so the line comes before any input is read
        assert run("audit", "--input", tmp_path / "absent.ndjson",
                   "--methods", f"{other},external", *defaults,
                   "--out", tmp_path / "out") == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: external runs alone")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_external_alone_labels_at_the_default_thresholds(self,
                                                             tmp_path):
        # external needs no multilevel fit, and --default-thresholds
        # changes nothing but the configuration hash
        emit(_clicks_only_corpus(), tmp_path / "c.ndjson")
        outs = [tmp_path / "alone", tmp_path / "defaults"]
        for out, extra in zip(outs, ([], ["--default-thresholds"])):
            assert run("audit", "--input", tmp_path / "c.ndjson",
                       "--methods", "external", *extra, "--out", out) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        assert "external_pair_model.json" in names
        sha = [json.loads((out / "summary.json").read_text(
            encoding="utf-8"))["meta"]["config_sha256"].encode()
            for out in outs]
        assert sha[0] != sha[1]
        for name in names:
            alone = (outs[0] / name).read_bytes()
            assert sha[0] in alone, name
            assert alone.replace(sha[0], sha[1]) == \
                (outs[1] / name).read_bytes(), name

    def test_unknown_method(self, tg_dir, tmp_path):
        assert run("audit", "--input", tg_dir / "corpus.ndjson",
                   "--methods", "raw,bogus", "--out", tmp_path) == 1

    def test_flags_config_keys_and_fields_are_one_set(self, tg_dir,
                                                      tmp_path):
        args = vars(build_parser().parse_args(["audit", "--input", "c.csv"]))
        flags = set(args) - {"command", "func", "input", "format", "config",
                             "navigational", "out"}
        fields = {f.name for f in dataclasses.fields(AuditConfig)}
        assert flags == fields
        assert len(fields) == 13
        # a config file may set every field; test_unknown_config_key
        # checks that any other key is refused
        cfg = tmp_path / "audit.json"
        cfg.write_text(json.dumps(
            {**dataclasses.asdict(AuditConfig()), "methods": "raw"}),
                       encoding="utf-8")
        assert run("audit", "--input", tg_dir / "corpus.ndjson",
                   "--config", cfg, "--out", tmp_path / "out") == 0

    def test_config_hash_is_pinned(self, qmix_audit, tg_dir, tmp_path):
        # every output file carries this hash of the config values exactly
        # as given, so a change in how they are gathered changes them all
        meta = json.loads((qmix_audit / "summary.json").read_text(
            encoding="utf-8"))["meta"]
        assert meta["config_sha256"] == \
            "1719b9347423696ab52c8fdf8b6b24078f87ad467a78c04194dba9f10ee6940e"
        cfg = tmp_path / "audit.json"
        cfg.write_text(json.dumps({"k": 3, "methods": "raw"}),
                       encoding="utf-8")  # an int k
        out = tmp_path / "out"
        assert run("audit", "--input", tg_dir / "corpus.ndjson",
                   "--config", cfg, "--out", out) == 0
        meta = json.loads((out / "summary.json").read_text(
            encoding="utf-8"))["meta"]
        assert meta["config_sha256"] == \
            "cf3a1f7c8d91e396596884f33a0eb9d08e7cb8cb04ba6fdb57b7e2d67ccda1e2"

    def test_prediction_grid_rows_follow_the_scalar_oracle(self, tg_dir,
                                                           tmp_path):
        cfg = AuditConfig(methods="multilevel")
        result = run_audit(ingest(tg_dir / "corpus.ndjson"), cfg)
        write_audit(result, tmp_path, audit_meta(cfg))
        _, rows = read_report_csv(tmp_path / "prediction_grid.csv")
        want = [{"metric": kind.value, "topic": topic, "age": age.label,
                 "gender": gender.code, "difficulty": repr(d),
                 "value": repr(predict(fit, age, gender, topic, d))}
                for kind, fit in result.fits.items()
                for gender in (Gender.MALE, Gender.FEMALE)
                for topic in fit.topics
                for age in AgeGroup
                for d in PREDICTION_GRID]
        assert rows == want

    def test_library_audit_writes_what_the_cli_writes(self, tg_dir,
                                                      tmp_path):
        methods = "raw,multilevel,pairwise"
        assert run("audit", "--input", tg_dir / "corpus.ndjson", "--methods",
                   methods, "--out", tmp_path / "cli") == 0
        cfg = AuditConfig(methods=methods)
        result = run_audit(ingest(tg_dir / "corpus.ndjson"), cfg)
        result.summary["input"] = "corpus.ndjson"
        lib = tmp_path / "lib"
        lib.mkdir()
        write_audit(result, lib, audit_meta(
            cfg, command="audit", input="corpus.ndjson", format="ndjson"))
        names = sorted(p.name for p in (tmp_path / "cli").iterdir())
        assert names == sorted(p.name for p in lib.iterdir())
        for name in names:
            assert (lib / name).read_bytes() == \
                (tmp_path / "cli" / name).read_bytes(), name

    def test_repeated_audit_is_byte_identical(self, qmix_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("audit", "--input", qmix_dir / "corpus.ndjson",
                       "--out", out) == 0
        for name in ("raw_scores.csv", "matched_scores.csv",
                     "attrition.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


    def test_query_with_a_surrogate_skips_its_record(self, tg_dir,
                                                     tmp_path):
        # the audit of a log with that record is the audit of the log
        # without it
        outs = []
        for log in _with_and_without(tg_dir / "corpus.ndjson", tmp_path, 7,
                                     query_text="odd \ud800 query"):
            outs.append(log.parent / "out")
            assert run("audit", "--input", log, "--methods", "raw,multilevel",
                       "--out", outs[-1]) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert "difficulty.csv" in names
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes(), name

    # matching needs navigational queries, which three presets lack
    @pytest.mark.parametrize("preset,impressions,methods", [
        pytest.param(preset, n, methods, id=preset)
        for preset, n, methods in (
            ("mixed", 4000, "raw,matched,multilevel,pairwise"),
            ("query_mix_confound", 2000, "raw,matched,multilevel,pairwise"),
            ("null", 2000, "raw,multilevel,pairwise"),
            ("dwell_confound", 2000, "raw,multilevel,pairwise"),
            ("true_gap", 2000, "raw,multilevel,pairwise"))])
    def test_audit_does_not_depend_on_the_hash_seed(self, tmp_path, preset,
                                                    impressions, methods):
        # Each audit runs in its own interpreter, so string hashing (and
        # with it set and dict-of-set iteration order) differs between them.
        gen = tmp_path / "gen"
        assert run("generate", "--preset", preset, "--impressions",
                   impressions, "--seed", 3, "--out", gen) == 0
        src = str(pathlib.Path(sataudit.__file__).resolve().parents[1])
        outs = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"audit_{hash_seed}"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run(
                [sys.executable, "-m", "sataudit.cli", "audit", "--input",
                 str(gen / "corpus.ndjson"), "--methods", methods,
                 "--pair-fraction", "1.0", "--out", str(out)],
                capture_output=True, text=True, timeout=300, env=env,
                cwd=tmp_path, encoding="utf-8")
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        assert {"pair_model.json", "prediction_grid.csv",
                "summary.json"} <= set(names)
        assert ("matched_scores.csv" in names) == ("matched" in methods)
        for name in names:
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes(), name

    def test_audit_path_builds_no_record_objects(self, tmp_path,
                                                 monkeypatch):
        gen = tmp_path / "gen"
        assert run("generate", "--preset", "mixed", "--impressions", 4000,
                   "--seed", 3, "--format", "csv", "--out", gen) == 0
        corpus_csv = gen / "corpus.csv"
        blank = tmp_path / "blank.csv"
        emit(_clicks_only_corpus(), blank, fmt="csv")

        def forbidden(*args, **kwargs):
            raise AssertionError("a record object was built")

        # the only code that rebuilds records from the columns
        monkeypatch.setattr(logmodel, "_records", forbidden)
        for k, extra in enumerate(
                ([], ["--navigational", gen / "navigational_queries.txt"],
                 ["--factor", "gender"])):
            assert run("audit", "--input", corpus_csv, "--methods",
                       "raw,matched,multilevel,pairwise", "--pair-fraction",
                       "1.0", *extra, "--out", tmp_path / f"a{k}") == 0
        assert run("audit", "--input", blank, "--methods", "external",
                   "--default-thresholds", "--pair-fraction", "1.0",
                   "--out", tmp_path / "ext") == 0
        for source in (corpus_csv, blank):
            assert run("metrics", "--input", source,
                       "--out", tmp_path / source.stem) == 0

    def test_no_csv_is_written_from_row_dicts(self, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a CSV was written from row dicts")

        monkeypatch.setattr(csv, "DictWriter", forbidden)
        gen = tmp_path / "gen"
        assert run("generate", "--preset", "mixed", "--impressions", 4000,
                   "--seed", 3, "--format", "csv", "--out", gen) == 0
        blank = tmp_path / "blank.csv"
        emit(_clicks_only_corpus(), blank, fmt="csv")
        for source in (gen / "corpus.csv", blank):
            assert run("metrics", "--input", source,
                       "--out", tmp_path / source.stem) == 0
        assert run("audit", "--input", gen / "corpus.csv", "--methods",
                   "raw,matched,multilevel,pairwise", "--pair-fraction",
                   "1.0", "--navigational", gen / "navigational_queries.txt",
                   "--out", tmp_path / "audit") == 0
        assert run("audit", "--input", blank, "--methods", "external",
                   "--default-thresholds", "--pair-fraction", "1.0",
                   "--out", tmp_path / "ext") == 0
        for audit_dir in ("audit", "ext"):
            assert run("report", "--audit-dir", tmp_path / audit_dir,
                       "--out", tmp_path / f"{audit_dir}_report") == 0
        assert (tmp_path / "audit_report" / "plot_gaps.csv").exists()
        assert (tmp_path / "ext_report" /
                "plot_external_pair_probs.csv").exists()


# ---------------------------------------------------------------------------
# setting ranges

# (command and settings, the one stderr line after "config error: ")
OUT_OF_RANGE = [
    (["audit", "--methods", "raw,matched", "--min-impressions", "0"],
     "min_impressions must be at least 1, got 0"),
    (["audit", "--methods", "raw,matched", "--nav-share", "5"],
     "nav_share must be in (0, 1], got 5.0"),
    (["audit", "--dwell-threshold", "-5"],
     "dwell_threshold must be at least 0, got -5.0"),
    (["audit", "--seed", "-1"], "seed must be at least 0, got -1"),
    (["audit", "--methods", "pairwise", "--default-thresholds",
      "--min-groups", "0"], "min_groups must be null or from 2 to 4, got 0"),
    (["audit", "--methods", "pairwise", "--default-thresholds",
      "--min-impressions", "-4"],
     "min_impressions must be at least 1, got -4"),
    (["audit", "--methods", "pairwise", "--default-thresholds", "--k", "-1"],
     "k must be positive, got -1.0"),
    (["audit", "--methods", "raw,multilevel,pairwise", "--min-groups", "9"],
     "min_groups must be null or from 2 to 4, got 9"),
    (["audit", "--factor", "gender", "--min-groups", "3"],
     "min_groups must be null or from 2 to 2, got 3"),
    (["audit", "--methods", "raw,multilevel,pairwise",
      "--pair-fraction", "0"], "pair_fraction must be in (0, 1], got 0.0"),
    (["audit", "--methods", "raw,multilevel,pairwise",
      "--pair-fraction", "1.5"], "pair_fraction must be in (0, 1], got 1.5"),
    (["metrics", "--dwell-threshold", "-5"],
     "dwell_threshold must be at least 0, got -5.0"),
    (["metrics", "--dwell-threshold", "nan"],
     "dwell_threshold must be a finite number, got nan"),
    (["generate", "--preset", "null", "--impressions", "0"],
     "impressions must be at least 1, got 0"),
    (["generate", "--preset", "null", "--impressions", "-5"],
     "impressions must be at least 1, got -5"),
    (["generate", "--preset", "null", "--seed", "-1"],
     "seed must be at least 0, got -1"),
]


@pytest.mark.parametrize("argv,message", OUT_OF_RANGE)
def test_out_of_range_setting_is_one_config_error(tmp_path, capsys, argv,
                                                  message):
    if argv[0] != "generate":
        # absent: the setting is refused before the input is read
        argv = argv + ["--input", tmp_path / "absent.ndjson"]
    assert run(*argv, "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_pairs_need_two_groups(tmp_path, capsys, seed):
    # a query that one group issues holds no pair, so it may not be
    # eligible: at one group a sampled "solo" query ended the audit with
    # "the labeler abstained everywhere" though no pair was drawn
    imps = [imp(f"s{k:02d}", query="solo", age=AgeGroup.G1,
                clicks=[click(dwell=60.0)]) for k in range(15)]
    imps += [imp(f"p{k:02d}", query="pair", age=(AgeGroup.G1,
                                                 AgeGroup.G2)[k % 2],
                 clicks=[click(dwell=60.0)] if k % 2 == 0 else [])
             for k in range(15)]
    emit(corpus(imps), tmp_path / "c.ndjson")
    capsys.readouterr()
    assert run("audit", "--input", tmp_path / "c.ndjson",
               "--methods", "pairwise", "--default-thresholds",
               "--min-groups", "1", "--pair-fraction", "0.5",
               "--seed", seed, "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err == \
        "config error: min_groups must be null or from 2 to 4, got 1\n"
    assert not (tmp_path / "out").exists()


def _wrong_type_cases():
    query = dict(text="q", topic="t", difficulty=0.5, navigational=False,
                 results=("r0",))
    for cls, given, prefix in ((AuditConfig, {}, ""),
                               (synth.BehaviorModel, {}, "behavior "),
                               (synth.QuerySpec, query, "query 'q': ")):
        for f in dataclasses.fields(cls):
            yield pytest.param(
                cls, given, f.name, "query {}: " if f.name == "text"
                else prefix, id=f"{cls.__name__}-{f.name}")


@pytest.mark.parametrize("cls,given,name,prefix", _wrong_type_cases())
def test_every_field_refuses_a_value_of_the_wrong_type(cls, given, name,
                                                       prefix):
    with pytest.raises(ConfigError) as err:
        cls(**{**given, name: {}})
    head, _, rule = str(err.value).partition(f"{name} must be ")
    assert head == prefix and rule.endswith(", got {}")


def test_every_config_field_has_one_range_rule():
    # in field order: min_groups' rule reads the factor checked before it
    assert list(audit._RANGE_RULES) == \
        [f.name for f in dataclasses.fields(AuditConfig)]


# ---------------------------------------------------------------------------
# report

class TestReport:
    def test_report_renders_tables(self, qmix_audit, tmp_path):
        assert run("report", "--audit-dir", qmix_audit,
                   "--out", tmp_path) == 0
        text = (tmp_path / "report.txt").read_text(encoding="utf-8")
        assert "raw-vs-matched divergence: FLAGGED" in text
        assert "matching attrition funnel" in text
        _, rows = read_report_csv(tmp_path / "plot_gaps.csv")
        assert [r["metric"] for r in rows] == \
            [k.value for k in MetricKind]

    def test_report_prints_a_pair_table_per_gender(self, tmp_path):
        emit(_clicks_only_corpus(), tmp_path / "c.ndjson")
        audit_dir = tmp_path / "audit"
        assert run("audit", "--input", tmp_path / "c.ndjson",
                   "--methods", "external", "--out", audit_dir) == 0
        assert run("report", "--audit-dir", audit_dir,
                   "--out", tmp_path / "report") == 0
        text = (tmp_path / "report" / "report.txt").read_text(
            encoding="utf-8")
        assert text.index("external P(row beats column) (M vs M):") < \
            text.index("external P(row beats column) (F vs F):")
        grid = json.loads((audit_dir / "summary.json").read_text(
            encoding="utf-8"))["external"]["grid"]
        _, rows = read_report_csv(tmp_path / "report" /
                                  "plot_external_pair_probs.csv")
        assert list(rows[0]) == ["gender", "age_i", "age_j", "probability"]
        assert [r["gender"] for r in rows] == ["M"] * 16 + ["F"] * 16
        assert all(float(r["probability"]) ==
                   grid[r["gender"]][r["age_i"]][r["age_j"]] for r in rows)
        assert {r["probability"] for r in rows
                if r["age_i"] == r["age_j"]} == {"0.5"}

    def test_report_without_summary(self, tmp_path):
        assert run("report", "--audit-dir", tmp_path,
                   "--out", tmp_path) == 2

    @pytest.mark.parametrize("text,message", [
        ("{not json", "is not valid JSON"),
        ("[1, 2]", "must hold a JSON object"),
        pytest.param("[" * 200_000, "is not valid JSON",
                     id="nested-too-deep")])
    def test_summary_that_is_not_a_json_object(self, tmp_path, capsys,
                                               text, message):
        (tmp_path / "summary.json").write_text(text, encoding="utf-8")
        assert run("report", "--audit-dir", tmp_path,
                   "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("summary,message", [
        ({"multilevel": {}}, "KeyError: 'deltas'"),
        ({"pairwise": {"grid": {"M": {"<18": {"<18": 0.5}}}}},
         "KeyError: '18-34'"),
        ({"raw": {"span": {"graded_utility": "0.3"}}},
         "ValueError: Unknown format code 'f'")])
    def test_malformed_summary_is_a_data_error(self, tmp_path, capsys,
                                               summary, message):
        (tmp_path / "summary.json").write_text(json.dumps(summary),
                                               encoding="utf-8")
        assert run("report", "--audit-dir", tmp_path,
                   "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {tmp_path / 'summary.json'} "
                              "is malformed: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("summary,message", [
        # the spans table comes before the failing multilevel block
        ({"raw": {"span": dict.fromkeys(
            [k.value for k in MetricKind], 0.1)}, "multilevel": {}},
         "KeyError: 'deltas'"),
        ({"raw": {"span": dict.fromkeys(
            [k.value for k in MetricKind], 0.1)}}, "KeyError: 'meta'"),
        ({"meta": {"seed": 0}}, "KeyError: 'version'"),
        # a summary written before the spans replaced the gaps
        ({"raw": {"gaps": {"graded_utility": 0.1}}}, "KeyError: 'span'")])
    def test_failed_report_writes_no_file(self, tmp_path, capsys, summary,
                                          message):
        (tmp_path / "summary.json").write_text(json.dumps(summary),
                                               encoding="utf-8")
        out = tmp_path / "out"
        assert run("report", "--audit-dir", tmp_path, "--out", out) == 2
        err = capsys.readouterr().err
        assert err == (f"data error: {tmp_path / 'summary.json'} is "
                       f"malformed: {message}\n")
        assert not out.exists() or not any(out.iterdir())


# ---------------------------------------------------------------------------
# process-level wiring

class TestEntryPoints:
    def test_help_exits_cleanly(self):
        assert run("--help") == 0

    def test_missing_command_is_usage_error(self):
        assert main([]) == 1

    def test_public_names_resolve_and_are_listed_once(self):
        names = sataudit.__all__
        assert len(names) == len(set(names))
        assert [n for n in names if not hasattr(sataudit, n)] == []

    def test_readme_library_snippet_runs(self, tmp_path, monkeypatch):
        # the "Library use" block, read from the README so the test follows
        # edits to it, run where it expects data/corpus.ndjson
        readme = (pathlib.Path(__file__).parents[1] / "README.md") \
            .read_text(encoding="utf-8")
        section = readme.split("\n## Library use\n", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        assert run("generate", "--preset", "true_gap", "--impressions", 4000,
                   "--out", tmp_path / "data") == 0
        monkeypatch.chdir(tmp_path)
        exec(compile(code, "README.md", "exec"), {})
        assert (tmp_path / "audit" / "summary.json").exists()

    def test_console_script_smoke(self, tmp_path):
        # Run what the installer's `sataudit` wrapper runs for the declared
        # [project.scripts] target, in a fresh interpreter that imports the
        # package under test, so no installed executable is needed on PATH.
        pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
        with pyproject.open("rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["sataudit"]
        module, attr = target.split(":")
        code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        src = str(pathlib.Path(sataudit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", code, "generate", "--preset", "null",
             "--impressions", "400", "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path,
                              encoding="utf-8")
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "corpus.ndjson").exists()
