"""End-to-end command tests, driven in process through main(argv).

Each command writes into a pytest temp directory; generated corpora are
shared at module scope because synthesis dominates the runtime.
"""

import dataclasses
import json
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
from sataudit.audit import AuditConfig, audit_meta, run_audit, write_audit
from sataudit.cli import build_parser, main
from sataudit.errors import ConvergenceError
from sataudit.logmodel import AgeGroup, Gender, LogCorpus, emit, ingest
from sataudit.metrics import MetricKind
from sataudit.pairwise import derive_thresholds_from_deltas
from sataudit.reports import read_report_csv
from sataudit import logmodel, synth

GU = MetricKind.GRADED_UTILITY


def run(*argv) -> int:
    return main([str(a) for a in argv])


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
        manifest = json.loads((tg_dir / "manifest.json").read_text())
        n_lines = sum(1 for line in
                      (tg_dir / "corpus.ndjson").read_text().splitlines()
                      if line)
        assert manifest["preset"] == "true_gap"
        assert manifest["counts"]["impressions"] == n_lines
        assert manifest["scenario"]["seed"] == 20240604

    def test_no_navigational_sidecar_without_navigational_queries(
            self, tg_dir):
        # the true_gap vocabulary is all non-navigational
        assert not (tg_dir / "navigational_queries.txt").exists()
        manifest = json.loads((tg_dir / "manifest.json").read_text())
        assert manifest["files"]["navigational"] is None

    def test_navigational_sidecar_lists_brand_queries(self, qmix_dir):
        lines = (qmix_dir / "navigational_queries.txt") \
            .read_text().splitlines()
        assert len(lines) == 14
        assert all(q.startswith("brand") for q in lines)
        manifest = json.loads((qmix_dir / "manifest.json").read_text())
        assert manifest["files"]["navigational"] == "navigational_queries.txt"

    def test_ground_truth_aligns_with_corpus(self, tg_dir):
        _, rows = read_report_csv(tg_dir / "ground_truth.csv")
        data = ingest(tg_dir / "corpus.ndjson")
        assert len(rows) == len(data.impressions)
        ids = sorted(i.impression_id for i in data.impressions)
        assert [r["impression_id"] for r in rows] == ids
        for r in rows[:50]:
            float(r["latent_satisfaction"])

    def test_csv_format(self, tmp_path):
        assert run("generate", "--preset", "null", "--impressions", 800,
                   "--format", "csv", "--out", tmp_path) == 0
        data = ingest(tmp_path / "corpus.csv", fmt="csv")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(data.impressions) == manifest["counts"]["impressions"]
        assert data.has_dwell

    def test_scenario_config_file_with_seed_override(self, tmp_path):
        cfg_file = tmp_path / "scenario.json"
        cfg_file.write_text(json.dumps(
            synth.preset_null(n_impressions=600).to_dict()))
        out = tmp_path / "out"
        assert run("generate", "--scenario-config", cfg_file, "--seed", 123,
                   "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenario"]["seed"] == 123

    def test_preset_and_scenario_config_are_exclusive(self, tmp_path):
        cfg_file = tmp_path / "scenario.json"
        cfg_file.write_text(json.dumps(
            synth.preset_null(n_impressions=600).to_dict()))
        assert run("generate", "--preset", "null",
                   "--scenario-config", cfg_file, "--out", tmp_path) == 1
        assert run("generate", "--out", tmp_path) == 1

    def test_impressions_flag_rejected_with_scenario_config(self, tmp_path):
        cfg_file = tmp_path / "scenario.json"
        cfg_file.write_text(json.dumps(
            synth.preset_null(n_impressions=600).to_dict()))
        assert run("generate", "--scenario-config", cfg_file,
                   "--impressions", 5000, "--out", tmp_path) == 1

    def test_offset_only_applies_to_true_gap(self, tmp_path):
        assert run("generate", "--preset", "null", "--offset", 0.2,
                   "--out", tmp_path) == 1

    def test_unknown_preset_is_usage_error(self, tmp_path):
        assert run("generate", "--preset", "bogus", "--out", tmp_path) == 1


# ---------------------------------------------------------------------------
# metrics

class TestMetrics:
    def test_internal_corpus_gets_full_vector(self, tg_dir, tmp_path):
        assert run("metrics", "--input", tg_dir / "corpus.ndjson",
                   "--out", tmp_path) == 0
        _, rows = read_report_csv(tmp_path / "metrics.csv")
        data = ingest(tg_dir / "corpus.ndjson")
        assert len(rows) == len(data.impressions)
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
        summary = json.loads((qmix_audit / "summary.json").read_text())
        assert summary["methods"] == ["raw", "matched"]
        assert (qmix_audit / "raw_scores.csv").exists()
        assert (qmix_audit / "matched_scores.csv").exists()
        assert (qmix_audit / "attrition.csv").exists()

    def test_query_mix_confound_flags_divergence(self, qmix_audit):
        summary = json.loads((qmix_audit / "summary.json").read_text())
        assert summary["divergence"]["raw_vs_matched"] is True
        assert summary["divergence"]["metrics"]["graded_utility"] is True
        gu_raw = summary["raw"]["gaps"]["graded_utility"]
        gu_common = summary["matched"]["gaps_common_scale"]["graded_utility"]
        assert gu_raw >= 0.15
        assert gu_common <= gu_raw / 3.0

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
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["factor"] == "gender"
        for kind, gap in summary["raw"]["gaps"].items():
            assert gap <= 0.05, (kind, gap)

    def test_multilevel_and_pairwise_outputs(self, tg_dir, tmp_path):
        assert run("audit", "--input", tg_dir / "corpus.ndjson",
                   "--methods", "raw,multilevel,pairwise",
                   "--out", tmp_path) == 0
        assert (tmp_path / "difficulty.csv").exists()
        for kind in MetricKind:
            fit = json.loads(
                (tmp_path / f"fit_{kind.value}.json").read_text())
            assert fit["metric"] == kind.value
            assert "effects" in fit and "convergence" in fit
        assert (tmp_path / "prediction_grid.csv").exists()
        model = json.loads((tmp_path / "pair_model.json").read_text())
        assert model["labeler"] == "internal"
        assert model["labels"]["total"] > 0
        assert model["thresholds"]["k"] == 2.5
        grid = json.loads((tmp_path / "pair_grid.json").read_text())
        probs = grid["probabilities"]
        for a in AgeGroup:
            for b in AgeGroup:
                assert 0.0 < probs[a.label][b.label] < 1.0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary["multilevel"]["deltas"]) == \
            {k.value for k in MetricKind}
        deltas = {MetricKind(k): v
                  for k, v in summary["multilevel"]["deltas"].items()}
        assert model["thresholds"] == dataclasses.asdict(
            derive_thresholds_from_deltas(deltas, k=2.5))

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
        model = json.loads((out / "external_pair_model.json").read_text())
        assert model["labeler"] == "external"
        assert model["labels"]["positive"] > 0
        assert model["labels"]["negative"] > 0
        grid = json.loads((out / "external_pair_grid.json").read_text())
        probs = grid["probabilities"]
        young, old = AgeGroup.G1.label, AgeGroup.G4.label
        assert probs[old][young] > 0.5
        assert probs[young][old] < 0.5

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
        def blow_up(obs, priors=None, **kw):
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
        cfg.write_text(json.dumps({"methods": "raw", "factor": "gender"}))
        out = tmp_path / "out"
        assert run("audit", "--input", tg_dir / "corpus.ndjson",
                   "--config", cfg, "--factor", "age", "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["methods"] == ["raw"]
        assert summary["factor"] == "age"

    def test_unknown_config_key(self, tg_dir, tmp_path):
        cfg = tmp_path / "audit.json"
        cfg.write_text(json.dumps({"verbosity": 3}))
        assert run("audit", "--input", tg_dir / "corpus.ndjson",
                   "--config", cfg, "--out", tmp_path) == 1

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
        assert len(fields) == 14
        # a config file may set every field; test_unknown_config_key
        # checks that any other key is refused
        cfg = tmp_path / "audit.json"
        cfg.write_text(json.dumps(
            {**dataclasses.asdict(AuditConfig()), "methods": "raw"}))
        assert run("audit", "--input", tg_dir / "corpus.ndjson",
                   "--config", cfg, "--out", tmp_path / "out") == 0

    def test_config_hash_is_pinned(self, qmix_audit, tg_dir, tmp_path):
        # every output file carries this hash of the config values exactly
        # as given, so a change in how they are gathered changes them all
        meta = json.loads((qmix_audit / "summary.json").read_text())["meta"]
        assert meta["config_sha256"] == \
            "cbe24f9603c982b4911c33a6d7752ca8fe91a85d4f6c77fb0c808710e0bffa62"
        cfg = tmp_path / "audit.json"
        cfg.write_text(json.dumps({"k": 3, "methods": "raw"}))  # an int k
        out = tmp_path / "out"
        assert run("audit", "--input", tg_dir / "corpus.ndjson",
                   "--config", cfg, "--out", out) == 0
        meta = json.loads((out / "summary.json").read_text())["meta"]
        assert meta["config_sha256"] == \
            "794c4723d03934b7a442442f474feb22367265b2dcfb57b5130e7d374945e7c4"

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


    def test_audit_does_not_depend_on_the_hash_seed(self, tmp_path):
        # Each audit runs in its own interpreter, so string hashing (and
        # with it set and dict-of-set iteration order) differs between them.
        gen = tmp_path / "gen"
        assert run("generate", "--preset", "mixed", "--impressions", 4000,
                   "--seed", 3, "--out", gen) == 0
        src = str(pathlib.Path(sataudit.__file__).resolve().parents[1])
        outs = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"audit_{hash_seed}"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run(
                [sys.executable, "-m", "sataudit.cli", "audit", "--input",
                 str(gen / "corpus.ndjson"), "--methods",
                 "raw,matched,multilevel,pairwise", "--pair-fraction", "1.0",
                 "--out", str(out)],
                capture_output=True, text=True, timeout=300, env=env,
                cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        assert {"matched_scores.csv", "pair_model.json",
                "prediction_grid.csv", "summary.json"} <= set(names)
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

        monkeypatch.setattr(logmodel, "Impression", forbidden)
        monkeypatch.setattr(logmodel, "Click", forbidden)
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


# ---------------------------------------------------------------------------
# report

class TestReport:
    def test_report_renders_tables(self, qmix_audit, tmp_path):
        assert run("report", "--audit-dir", qmix_audit,
                   "--out", tmp_path) == 0
        text = (tmp_path / "report.txt").read_text()
        assert "raw-vs-matched divergence: FLAGGED" in text
        assert "matching attrition funnel" in text
        _, rows = read_report_csv(tmp_path / "plot_gaps.csv")
        assert [r["metric"] for r in rows] == \
            [k.value for k in MetricKind]

    def test_report_without_summary(self, tmp_path):
        assert run("report", "--audit-dir", tmp_path,
                   "--out", tmp_path) == 2


# ---------------------------------------------------------------------------
# process-level wiring

class TestEntryPoints:
    def test_help_exits_cleanly(self):
        assert run("--help") == 0

    def test_missing_command_is_usage_error(self):
        assert main([]) == 1

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
            capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "corpus.ndjson").exists()
