"""Log schema, validation, reformulation derivation, and round trips."""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import random

import pytest

from corpus_builders import click, corpus, imp
from sataudit import logmodel
from sataudit.errors import DataError
from sataudit.logmodel import (AgeGroup, Click, Gender, all_profiles,
                               derive_reformulation_flags, emit,
                               impression_to_dict, ingest, normalize_query,
                               validate_impression)


def test_normalize_query_lowercases_and_collapses_whitespace():
    assert normalize_query("  Cheap   FLIGHTS\tLondon ") == "cheap flights london"
    assert normalize_query("already clean") == "already clean"


def test_age_groups_and_gender_codes():
    assert [int(a) for a in AgeGroup] == [1, 2, 3, 4]
    assert [a.label for a in AgeGroup] == ["<18", "18-34", "35-54", "55-74"]
    assert [g.code for g in Gender] == ["M", "F"]


def test_all_profiles_enumerates_eight_in_canonical_order():
    profiles = all_profiles()
    assert len(profiles) == 8
    assert profiles[0].key == "G1-M"
    assert profiles[-1].key == "G4-F"
    assert len({p.key for p in profiles}) == 8


class TestValidation:
    def test_clean_impression_passes(self):
        assert validate_impression(imp(clicks=[click()])) is None

    @pytest.mark.parametrize("mutate,reason_part", [
        (dict(results=[]), "empty results"),
        (dict(results=["r0", "r0"]), "duplicate result_id"),
        (dict(query=""), "empty query_text"),
        (dict(clicks=[click("zzz")]), "absent from results"),
        (dict(clicks=[click(position=0)]), "position 0 out of range"),
        (dict(clicks=[click(position=4)]), "position 4 out of range"),
        (dict(clicks=[click(dwell=-1.0)]), "negative dwell"),
        (dict(clicks=[click(terminated=True),
                      click("r1", 2, 50.0, True)]),
         "more than one terminating"),
    ])
    def test_rejects_bad_impressions(self, mutate, reason_part):
        reason = validate_impression(imp(**mutate))
        assert reason is not None and reason_part in reason

    def test_rejects_empty_id(self):
        assert validate_impression(imp("")) == "empty impression_id"

    def test_nan_dwell_is_allowed(self):
        bad = imp(clicks=[click(dwell=float("nan"))])
        assert validate_impression(bad) is None


class TestReformulationDerivation:
    def _session(self, *queries, flags=None):
        flags = flags or [None] * len(queries)
        return [imp(query=q, reformulated=f, user_id="u1", timestamp=i)
                for i, (q, f) in enumerate(zip(queries, flags))]

    def test_token_overlap_marks_reformulation(self):
        imps = self._session("cheap flights london",
                             "cheap flights london june")
        derive_reformulation_flags(imps)
        assert imps[0].reformulated is True
        assert imps[1].reformulated is False   # last in session

    def test_edit_distance_route(self):
        # zero token overlap, but one character apart
        imps = self._session("color", "colour")
        derive_reformulation_flags(imps)
        assert imps[0].reformulated is True

    def test_dissimilar_queries_not_flagged(self):
        imps = self._session("cheap flights london", "python dataclass")
        derive_reformulation_flags(imps)
        assert imps[0].reformulated is False

    def test_existing_flags_untouched(self):
        imps = self._session("cheap flights london",
                             "cheap flights london june",
                             flags=[False, None])
        derive_reformulation_flags(imps)
        assert imps[0].reformulated is False

    def test_recurring_pairs_get_one_verdict_each(self, monkeypatch):
        # three sessions repeat the same query sequence; the flags must
        # equal a per-pair evaluation, with one similarity call per pair
        queries = ["cheap flights london", "cheap flight london",
                   "python dataclass", "cheap flights london june"]
        imps = [imp(query=q, reformulated=None, user_id=f"u{s}",
                    timestamp=t)
                for s in range(3) for t, q in enumerate(queries)]
        want = []
        for s in range(3):
            sess = imps[4 * s:4 * s + 4]
            want += [any(later.query_text != cur.query_text
                         and logmodel._queries_similar(
                             cur.query_text, later.query_text, 0.5, 0.5)
                         for later in sess[k + 1:])
                     for k, cur in enumerate(sess)]
        calls = []
        similar = logmodel._queries_similar

        def counting(*args):
            calls.append(args[:2])
            return similar(*args)

        monkeypatch.setattr(logmodel, "_queries_similar", counting)
        derive_reformulation_flags(imps)
        assert [i.reformulated for i in imps] == want
        assert want[:4] == [True, True, False, False]
        assert len(calls) == len(set(calls))
        assert set(calls) == {(queries[1], queries[2]),
                              (queries[1], queries[3]),
                              (queries[2], queries[3]),
                              (queries[0], queries[1])}

    def test_sessions_are_independent(self):
        a = imp(query="cheap flights", reformulated=None, user_id="u1",
                timestamp=0)
        b = imp(query="cheap flights june", reformulated=None, user_id="u2",
                timestamp=1)
        derive_reformulation_flags([a, b])
        assert a.reformulated is False and b.reformulated is False


def _reference_edit_distance(a: str, b: str) -> int:
    """Textbook Wagner-Fischer DP, one row at a time."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


class TestEditDistance:
    @pytest.mark.parametrize("a,b,want", [
        ("", "", 0), ("", "abc", 3), ("abc", "", 3), ("same", "same", 0),
        ("color", "colour", 1), ("kitten", "sitting", 3),
        ("café", "cafe", 1), ("x" * 100, "", 100), ("a" * 70, "a" * 70, 0),
    ])
    def test_known_distances(self, a, b, want):
        assert logmodel._edit_distance(a, b) == want
        assert logmodel._edit_distance(b, a) == want

    def test_matches_reference_dp_on_random_pairs(self):
        # lengths reach past 64, the width of one machine word, and the
        # alphabet mixes ASCII, accented and CJK characters with spaces
        rng = random.Random(20170530)
        alphabet = "abcde é中"
        for trial in range(1500):
            hi = 8 if trial % 2 else 140
            a = "".join(rng.choice(alphabet)
                        for _ in range(rng.randint(0, hi)))
            if trial % 7 == 0:
                b = a
            else:
                b = "".join(rng.choice(alphabet)
                            for _ in range(rng.randint(0, hi)))
            want = _reference_edit_distance(a, b)
            assert logmodel._edit_distance(a, b) == want, (a, b)
            assert logmodel._edit_distance(b, a) == want, (b, a)


class TestRoundTrips:
    def _small_corpus(self):
        return corpus([
            imp("a1", clicks=[click("r0", 1, 42.5, True)], age=AgeGroup.G2,
                gender=Gender.FEMALE, reformulated=True),
            imp("a2", clicks=[], age=AgeGroup.G4),
            imp("a3", clicks=[click("r1", 2, 3.25), click("r0", 1, 31.0)],
                reformulated=None, user_id="u9", timestamp=5),
        ])

    @pytest.mark.parametrize("fmt", ["ndjson", "csv"])
    def test_emit_ingest_preserves_impressions(self, tmp_path, fmt):
        src = self._small_corpus()
        path = tmp_path / f"corpus.{fmt}"
        assert emit(src, path, fmt=fmt) == 3
        back = ingest(path, fmt=fmt)
        assert back.metadata.accepted == 3 and back.metadata.skipped == 0
        by_id = {i.impression_id: i for i in back.impressions}
        for orig in src.impressions:
            got = by_id[orig.impression_id]
            want = impression_to_dict(orig)
            # ingest fills the one missing flag from session context
            if want["reformulated"] is None:
                want["reformulated"] = False
            assert impression_to_dict(got) == want

    def test_ingest_normalizes_query_text(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        rec = impression_to_dict(imp("a1", clicks=[click()]))
        rec["query_text"] = "  News   ALPHA "
        path.write_text(json.dumps(rec) + "\n")
        back = ingest(path)
        assert back.impressions[0].query_text == "news alpha"

    def test_ingest_skips_malformed_records(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        good = json.dumps(impression_to_dict(imp("a1", clicks=[click()])))
        bad = json.dumps({"impression_id": "a2"})
        path.write_text("\n".join([good, "not json{", bad, good.replace("a1", "a3")]) + "\n")
        back = ingest(path)
        assert back.metadata.accepted == 2
        assert back.metadata.skipped == 2

    def test_ingest_mostly_malformed_is_fatal(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        good = json.dumps(impression_to_dict(imp("a1", clicks=[click()])))
        path.write_text("\n".join([good, "{", "{", "{"]) + "\n")
        with pytest.raises(DataError, match="malformed"):
            ingest(path)

    def test_ingest_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            ingest(tmp_path / "nope.ndjson")

    def test_ingest_rejects_unknown_format(self, tmp_path):
        with pytest.raises(DataError, match="unknown log format"):
            ingest(tmp_path / "x", fmt="parquet")

    def test_csv_missing_columns_is_fatal(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("impression_id,user_id\na,b\n")
        with pytest.raises(DataError, match="missing columns"):
            ingest(path, fmt="csv")

    def test_csv_reserved_characters_rejected_on_emit(self, tmp_path):
        bad = corpus([imp("a1", results=("r:0", "r1"),
                          clicks=[click("r:0")])])
        with pytest.raises(DataError, match="reserved character"):
            emit(bad, tmp_path / "corpus.csv", fmt="csv")

    def test_clicks_only_corpus_detected_as_external(self, tmp_path):
        src = corpus([imp("a1", clicks=[click(dwell=float("nan"))]),
                      imp("a2", clicks=[click()])])
        assert src.has_dwell is False
        path = tmp_path / "corpus.ndjson"
        emit(src, path)
        back = ingest(path)
        assert back.has_dwell is False
        assert math.isnan(back.impressions[0].clicks[0].dwell_seconds)

    def test_full_dwell_corpus_stays_internal(self, tmp_path):
        src = self._small_corpus()
        assert src.has_dwell is True
        path = tmp_path / "corpus.ndjson"
        emit(src, path)
        assert ingest(path).has_dwell is True


class TestStreamingIngest:
    def _corpus(self):
        return corpus([
            imp("b1", clicks=[click("r0", 1, 42.5, True)], age=AgeGroup.G2,
                gender=Gender.FEMALE, reformulated=True),
            imp("b2", clicks=[], age=AgeGroup.G2, gender=Gender.FEMALE),
            imp("b3", clicks=[click("r1", 2, 3.25)], age=AgeGroup.G4,
                reformulated=None, user_id="u9", timestamp=5),
        ])

    def _dicts(self, c):
        return [impression_to_dict(i) for i in c.impressions]

    @pytest.mark.parametrize("fmt", ["ndjson", "csv"])
    def test_crlf_line_endings(self, tmp_path, fmt):
        lf = tmp_path / f"lf.{fmt}"
        emit(self._corpus(), lf, fmt=fmt)
        crlf = tmp_path / f"crlf.{fmt}"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert b"\r\n" in crlf.read_bytes()
        back = ingest(crlf, fmt=fmt)
        assert back.metadata.accepted == 3 and back.metadata.skipped == 0
        assert self._dicts(back) == self._dicts(ingest(lf, fmt=fmt))

    def test_blank_ndjson_lines_are_ignored(self, tmp_path):
        path = tmp_path / "c.ndjson"
        emit(self._corpus(), path)
        lines = path.read_text().splitlines()
        path.write_text("\n" + "\n  \t\n".join(lines) + "\n\n \r\n")
        back = ingest(path)
        assert back.metadata.accepted == 3 and back.metadata.skipped == 0

    def test_missing_csv_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            ingest(tmp_path / "nope.csv", fmt="csv")

    @pytest.mark.parametrize("fmt", ["ndjson", "csv"])
    def test_bad_demographics_are_skipped_with_reasons(self, tmp_path, fmt,
                                                        caplog):
        src = tmp_path / f"src.{fmt}"
        emit(corpus([imp(f"c{i}", clicks=[click()]) for i in range(5)]),
             src, fmt=fmt)
        text = src.read_text()
        if fmt == "ndjson":
            text = text.replace('"age": "G1"', '"age": "G9"', 1)
            text = text.replace('"gender": "M"', '"gender": "X"', 2)
        else:
            head, *rows = text.splitlines()
            rows[0] = rows[0][:-len(",G1,M")] + ",G9,M"
            rows[1] = rows[1][:-len(",G1,M")] + ",G1,X"
            text = "\n".join([head, *rows]) + "\n"
        path = tmp_path / f"bad.{fmt}"
        path.write_text(text)
        with caplog.at_level(logging.WARNING, logger="sataudit.logmodel"):
            back = ingest(path, fmt=fmt)
        assert back.metadata.accepted == 3 and back.metadata.skipped == 2
        assert "(first errors: [\"'G9'\", \"'X' is not a valid Gender\"])" \
            in caplog.text

    @pytest.mark.parametrize("fmt", ["ndjson", "csv"])
    def test_equal_demographics_share_one_profile(self, tmp_path, fmt):
        path = tmp_path / f"c.{fmt}"
        emit(self._corpus(), path, fmt=fmt)
        by_id = {i.impression_id: i for i in ingest(path, fmt=fmt).impressions}
        assert by_id["b1"].demographics is by_id["b2"].demographics
        assert by_id["b1"].demographics is not by_id["b3"].demographics
        assert by_id["b3"].demographics.key == "G4-M"


def test_emit_orders_by_impression_id(tmp_path):
    src = corpus([imp("z9", clicks=[click()]), imp("a1", clicks=[click()])])
    path = tmp_path / "corpus.ndjson"
    emit(src, path)
    ids = [json.loads(line)["impression_id"]
           for line in path.read_text().splitlines()]
    assert ids == ["a1", "z9"]


def test_click_dataclass_fields():
    c = Click(result_id="r0", position=1, dwell_seconds=10.0,
              terminated_query=False)
    assert dataclasses.asdict(c)["position"] == 1
