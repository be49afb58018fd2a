"""Log schema, validation, reformulation derivation, and round trips."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import logging
import math
import random

import numpy as np
import pytest

from corpus_builders import Click, click, corpus, from_records, imp, records
from oracles import impression_to_dict
from sataudit import logmodel, matching
from sataudit.errors import DataError
from sataudit.logmodel import (AgeGroup, Gender, LogCorpus, all_profiles,
                               derive_reformulation_flags, emit, ingest,
                               normalize_query)
from sataudit.metrics import metric_table


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


def validate_impression(record) -> str | None:
    """The reason ``from_records`` rejects `record` for, else None."""
    try:
        from_records([record])
    except DataError as exc:
        prefix = f"impression {record.impression_id!r}: "
        assert str(exc).startswith(prefix)
        return str(exc)[len(prefix):]
    return None


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
    @staticmethod
    def _derive(imps):
        """`imps` with the flags derived on the corpus columns."""
        flags = derive_reformulation_flags(corpus(imps))
        return [i._replace(reformulated=bool(flag))
                for i, flag in zip(imps, flags.tolist())]

    def _session(self, *queries, flags=None):
        flags = flags or [None] * len(queries)
        return [imp(query=q, reformulated=f, user_id="u1", timestamp=i)
                for i, (q, f) in enumerate(zip(queries, flags))]

    def test_token_overlap_marks_reformulation(self):
        imps = self._session("cheap flights london",
                             "cheap flights london june")
        imps = self._derive(imps)
        assert imps[0].reformulated is True
        assert imps[1].reformulated is False   # last in session

    def test_edit_distance_route(self):
        # zero token overlap, but one character apart
        imps = self._session("color", "colour")
        imps = self._derive(imps)
        assert imps[0].reformulated is True

    def test_dissimilar_queries_not_flagged(self):
        imps = self._session("cheap flights london", "python dataclass")
        imps = self._derive(imps)
        assert imps[0].reformulated is False

    def test_existing_flags_untouched(self):
        imps = self._session("cheap flights london",
                             "cheap flights london june",
                             flags=[False, None])
        imps = self._derive(imps)
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
                             cur.query_text, later.query_text)
                         for later in sess[k + 1:])
                     for k, cur in enumerate(sess)]
        calls = []
        similar = logmodel._queries_similar

        def counting(*args):
            calls.append(args[:2])
            return similar(*args)

        monkeypatch.setattr(logmodel, "_queries_similar", counting)
        imps = self._derive(imps)
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
        a, b = self._derive([a, b])
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
        by_id = {i.impression_id: i for i in records(back)}
        for orig in records(src):
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
        assert records(back)[0].query_text == "news alpha"

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
        assert math.isnan(records(back)[0].clicks[0].dwell_seconds)

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
        return [impression_to_dict(i) for i in records(c)]

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
        by_id = {i.impression_id: i for i in records(ingest(path, fmt=fmt))}
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


def test_click_record_fields():
    c = Click(result_id="r0", position=1, dwell_seconds=10.0,
              terminated_query=False)
    assert c._asdict()["position"] == 1
    # the test records follow the from_records order, so a click comes
    # back from the columns as it went in
    assert records(corpus([imp(clicks=[c])]))[0].clicks == [c]


class TestColumns:
    def _corpus(self):
        shapes = [("news alpha", "news", AgeGroup.G3, Gender.FEMALE),
                  ("sports beta", "sports", AgeGroup.G1, Gender.MALE),
                  ("news alpha", "news", AgeGroup.G4, Gender.MALE),
                  ("news gamma", "news", AgeGroup.G2, Gender.FEMALE),
                  ("travel delta", "travel", AgeGroup.G1, Gender.FEMALE),
                  ("sports beta", "sports", AgeGroup.G2, Gender.MALE)]
        return corpus(imp(query=q, topic=t, age=a, gender=g,
                          clicks=[click(dwell=10.0 * k)])
                      for k, (q, t, a, g) in enumerate(shapes))

    def test_columns_follow_the_per_impression_definitions(self):
        cols = self._corpus()
        imps = records(cols)
        assert cols.queries == ["news alpha", "sports beta", "news gamma",
                                "travel delta"]
        assert cols.topics == ["news", "sports", "travel"]
        assert cols.age.tolist() == [list(AgeGroup).index(i.demographics.age)
                                     for i in imps]
        assert cols.gender.tolist() == [
            list(Gender).index(i.demographics.gender) for i in imps]
        assert [cols.queries[q] for q in cols.query] == \
            [i.query_text for i in imps]
        assert [cols.topics[t] for t in cols.topic] == [i.topic for i in imps]
        for column in (cols.age, cols.gender, cols.query, cols.topic):
            assert column.dtype == np.int32 and not column.flags.writeable

    def test_columns_are_built_once(self):
        c = self._corpus()
        for name in ("id_order", "click_count", "click_row"):
            assert getattr(c, name) is getattr(c, name)

    def test_first_appearance_codes(self):
        distinct, codes = logmodel.first_appearance_codes(
            np.array([5, 3, 5, 1, 3]))
        assert distinct.tolist() == [5, 3, 1]
        assert codes.tolist() == [0, 1, 0, 2, 1]

    def test_empty_corpus_has_empty_columns(self):
        cols = corpus([])
        assert cols.queries == [] and cols.topics == []
        assert cols.age.shape == cols.query.shape == (0,)


class TestCorpusCache:
    def test_from_records_accepts_every_record(self):
        c = corpus([imp(f"i{k}") for k in range(3)])
        assert c.metadata.accepted == len(c) == 3
        assert c.metadata.skipped == 0

    def test_replace_starts_an_empty_cache(self):
        c = corpus([imp(clicks=[click(dwell=60.0)])])
        metric_table(c)
        assert c._derived
        assert dataclasses.replace(c)._derived == {}

    def test_ingest_keeps_nothing_cached_before_the_flags(self, tmp_path,
                                                          monkeypatch):
        path = tmp_path / "c.ndjson"
        emit(corpus([imp(f"i{k}", clicks=[click(dwell=60.0)],
                         reformulated=None) for k in range(2)]), path)
        with open(path, "a") as fh:
            fh.write("{}\n")
        before = []
        derive = logmodel.derive_reformulation_flags

        def caching(c):
            # a final-click column built while the flags are still unset
            before.append(c)
            matching._final_clicks(c, 30.0)
            return derive(c)

        monkeypatch.setattr(logmodel, "derive_reformulation_flags", caching)
        back = ingest(path)
        assert before[0]._derived and back._derived == {}
        assert back.metadata is before[0].metadata
        assert (back.metadata.accepted, back.metadata.skipped) == (2, 1)


def _assert_columns_equal(a, b):
    for f in dataclasses.fields(a):
        if not f.init:                      # the derived-column cache
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype, f.name
            np.testing.assert_array_equal(x, y, err_msg=f.name)
        else:
            assert x == y, f.name


# One record per invariant, in this order, with the reason ingest logs.
_INVALID = [
    ("empty id", "empty impression_id"),
    ("empty results", "empty results list"),
    ("duplicate result", "duplicate result_id in results"),
    ("empty query", "empty query_text"),
    ("absent click", "click on result 'zzz' absent from results"),
    ("position", "click position 9 out of range"),
    ("negative dwell", "negative dwell"),
    ("two terminating", "more than one terminating click"),
]


def _invalid_record(kind: str, rec: dict) -> dict:
    """`rec` (an NDJSON record dict) broken in one way."""
    rec = json.loads(json.dumps(rec))
    click = {"result_id": "r0", "position": 1, "dwell_seconds": 40.0,
             "terminated_query": False}
    if kind == "empty id":
        rec["impression_id"] = ""
    elif kind == "empty results":
        rec["results"], rec["clicks"] = [], []
    elif kind == "duplicate result":
        rec["results"] = ["r0", "r1", "r0"]
    elif kind == "empty query":
        rec["query_text"] = "  \t "
    elif kind == "absent click":
        rec["clicks"] = [dict(click, result_id="zzz")]
    elif kind == "position":
        rec["clicks"] = [dict(click, position=9)]
    elif kind == "negative dwell":
        rec["clicks"] = [dict(click, dwell_seconds=-1.0)]
    else:
        rec["clicks"] = [dict(click, terminated_query=True),
                         dict(click, result_id="r1", position=2,
                              terminated_query=True)]
    return rec


def _write_records(path, fmt: str, records: list[dict]) -> None:
    """Write NDJSON record dicts in either format, in the given order."""
    if fmt == "ndjson":
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, logmodel.CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        for r in records:
            writer.writerow({
                **{k: r[k] for k in ("impression_id", "user_id",
                                     "session_id", "timestamp",
                                     "query_text", "topic")},
                "results": ";".join(r["results"]),
                "clicks": ";".join(
                    f"{c['position']}:{c['result_id']}:"
                    f"{c['dwell_seconds']}:{int(c['terminated_query'])}"
                    for c in r["clicks"]),
                "reformulated": int(r["reformulated"]),
                "age": r["demographics"]["age"],
                "gender": r["demographics"]["gender"]})


class TestColumnarIngest:
    def test_ndjson_and_csv_give_equal_columns(self, tmp_path):
        from sataudit import synth
        c, _ = synth.generate(synth.preset_mixed(n_impressions=3000, seed=5))
        emit(c, tmp_path / "c.ndjson")
        emit(c, tmp_path / "c.csv", fmt="csv")
        a = ingest(tmp_path / "c.ndjson")
        b = ingest(tmp_path / "c.csv", fmt="csv")
        assert a.metadata == b.metadata
        _assert_columns_equal(a, b)
        # emit writes in id order; synth's ids are already in that order
        _assert_columns_equal(a, c)

    @pytest.mark.parametrize("fmt", ["ndjson", "csv"])
    def test_each_invariant_is_skipped_with_its_reason(self, tmp_path, fmt,
                                                       caplog):
        good = [impression_to_dict(imp(f"g{k:02d}", clicks=[click()]))
                for k in range(12)]
        bad = [_invalid_record(kind, good[0]) for kind, _ in _INVALID]
        path = tmp_path / f"c.{fmt}"
        _write_records(path, fmt, [r for pair in zip(good, bad)
                                   for r in pair] + good[len(bad):])
        with caplog.at_level(logging.WARNING, logger="sataudit.logmodel"):
            back = ingest(path, fmt=fmt)
        assert back.metadata.accepted == 12 and back.metadata.skipped == 8
        assert f"skipped 8/20 records (first errors: " \
            f"{[reason for _, reason in _INVALID[:5]]})" in caplog.text
        assert back.ids.tolist() == [r["impression_id"] for r in good]
        # the rest are counted too: each alone is one skipped record
        for kind, reason in _INVALID[5:]:
            _write_records(path, fmt, good + [_invalid_record(kind, good[0])])
            caplog.clear()
            with caplog.at_level(logging.WARNING,
                                 logger="sataudit.logmodel"):
                assert ingest(path, fmt=fmt).metadata.skipped == 1
            assert f"(first errors: {[reason]})" in caplog.text

    @pytest.mark.parametrize("fmt", ["ndjson", "csv"])
    def test_mostly_invalid_stays_fatal(self, tmp_path, fmt):
        good = [impression_to_dict(imp(f"g{k}", clicks=[click()]))
                for k in range(3)]
        path = tmp_path / f"c.{fmt}"
        _write_records(path, fmt, good + [_invalid_record(kind, good[0])
                                          for kind, _ in _INVALID])
        reasons = [reason for _, reason in _INVALID[:5]]
        with pytest.raises(DataError) as err:
            ingest(path, fmt=fmt)
        assert str(err.value) == (f"8/11 records malformed in {path}; "
                                  f"first errors: {reasons}")

    @pytest.mark.parametrize("fmt", ["ndjson", "csv"])
    def test_timestamp_outside_int64_is_skipped(self, tmp_path, fmt, caplog):
        good = [impression_to_dict(imp(f"g{k}", clicks=[click()]))
                for k in range(3)]
        huge = dict(good[0], impression_id="big", timestamp=2 ** 63)
        path = tmp_path / f"c.{fmt}"
        _write_records(path, fmt, good + [huge])
        with caplog.at_level(logging.WARNING, logger="sataudit.logmodel"):
            back = ingest(path, fmt=fmt)
        assert back.metadata.skipped == 1
        assert f"timestamp {2 ** 63} out of range" in caplog.text
        edge = dict(good[0], impression_id="edge", timestamp=2 ** 63 - 1)
        _write_records(path, fmt, good + [edge])
        assert ingest(path, fmt=fmt).timestamp[-1] == 2 ** 63 - 1

    @pytest.mark.parametrize("field, value, reason", [
        ("impression_id", None, "impression_id must be a string or number, got None"),
        ("user_id", None, "user_id must be a string or number, got None"),
        ("query_text", None, "query_text must be a string or number, got None"),
        ("timestamp", 5.9, "timestamp must be an integer, got 5.9"),
        ("timestamp", True, "timestamp must be an integer, got True"),
        ("timestamp", "5", "timestamp must be an integer, got '5'"),
        ("position", 1.7, "position must be an integer, got 1.7"),
        ("position", False, "position must be an integer, got False"),
        ("result_id", None, "result_id must be a string or number, got None"),
        ("results", "r1x",
         "results must be an array without nulls, got 'r1x'"),
        ("results", ["r0", None],
         "results must be an array without nulls, got ['r0', None]"),
        ("clicks", {"result_id": "r0"},
         "clicks must be an array without nulls, "
         "got {'result_id': 'r0'}"),
    ])
    def test_mistyped_ndjson_field_is_skipped(self, tmp_path, caplog, field,
                                              value, reason):
        good = [impression_to_dict(imp(f"g{k}", clicks=[click()]))
                for k in range(3)]
        bad = json.loads(json.dumps(good[0]))
        if field in ("position", "result_id"):
            bad["clicks"][0][field] = value
        else:
            bad[field] = value
        path = tmp_path / "c.ndjson"
        _write_records(path, "ndjson", good + [bad])
        with caplog.at_level(logging.WARNING, logger="sataudit.logmodel"):
            back = ingest(path)
        assert (back.metadata.accepted, back.metadata.skipped) == (3, 1)
        assert f"(first errors: {[reason]})" in caplog.text

    def test_numeric_ndjson_ids_are_taken_as_text(self, tmp_path):
        rec = impression_to_dict(imp("g0", clicks=[click()]))
        rec.update(impression_id=17, user_id=4, session_id=5.5)
        path = tmp_path / "c.ndjson"
        _write_records(path, "ndjson", [rec])
        back = ingest(path)
        assert back.ids.tolist() == ["17"]
        assert (back.users, back.sessions) == (["4"], ["5.5"])

    def test_short_csv_row_is_skipped(self, tmp_path, caplog):
        path = tmp_path / "c.csv"
        emit(corpus([imp(f"g{k}", clicks=[click()]) for k in range(3)]),
             path, fmt="csv")
        with open(path, "a") as fh:
            fh.write("b1,u1,s1,5\n")
        with caplog.at_level(logging.WARNING, logger="sataudit.logmodel"):
            back = ingest(path, fmt="csv")
        assert back.metadata.accepted == 3 and back.metadata.skipped == 1
        assert ("missing fields: query_text, topic, results, clicks, "
                "reformulated, age, gender") in caplog.text

    def test_oversized_csv_field_is_a_data_error(self, tmp_path):
        path = tmp_path / "c.csv"
        emit(corpus([imp("g0", clicks=[click()])]), path, fmt="csv")
        with open(path, "a") as fh:
            fh.write("b1,u1,s1,5," + "x" * 200_000 + ",t,r0,,0,G1,M\n")
        with pytest.raises(DataError, match="cannot read .*field larger"):
            ingest(path, fmt="csv")

    def test_from_records_rejects_an_invalid_record(self):
        with pytest.raises(DataError,
                           match="impression 'x1': empty results list"):
            corpus([imp("x0"), imp("x1", results=())])


class TestEmit:
    def _corpus(self):
        odd = 'q "quoted" \\ back\tslash é 中 😀 \x01'
        return corpus([
            imp("b2", query=odd, topic="t ", user_id='u"1',
                session_id="s\\1", timestamp=-(2 ** 63),
                results=("r0", "ré1", 'r"2'),
                clicks=[click('r"2', 3, float("nan")),
                        click("ré1", 2, float("inf"), True)],
                reformulated=None, age=AgeGroup.G4, gender=Gender.FEMALE),
            imp("a1", clicks=[click("r0", 1, 1e-7), click("r1", 2, 30.0)],
                timestamp=2 ** 63 - 1, reformulated=True),
            imp("a0", clicks=[], reformulated=False, age=AgeGroup.G2),
            imp("b2", query="same id, later row", results=("r0",)),
        ])

    def test_ndjson_lines_equal_json_dumps_of_each_record(self, tmp_path):
        c = self._corpus()
        path = tmp_path / "c.ndjson"
        assert emit(c, path) == 4
        ordered = sorted(records(c), key=lambda i: i.impression_id)
        assert path.read_text(encoding="utf-8") == "".join(
            json.dumps(impression_to_dict(i)) + "\n" for i in ordered)

    def test_csv_rows_equal_the_record_packing(self, tmp_path):
        c = self._corpus()
        path = tmp_path / "c.csv"
        emit(c, path, fmt="csv")
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(logmodel.CSV_FIELDS)
        for i in sorted(records(c), key=lambda i: i.impression_id):
            writer.writerow([
                i.impression_id, i.user_id, i.session_id, i.timestamp,
                i.query_text, i.topic, ";".join(i.results),
                ";".join(f"{k.position}:{k.result_id}:"
                         f"{'' if math.isnan(k.dwell_seconds) else repr(k.dwell_seconds)}"
                         f":{int(k.terminated_query)}" for k in i.clicks),
                "" if i.reformulated is None else int(i.reformulated),
                i.demographics.age.name, i.demographics.gender.code])
        with open(path, newline="", encoding="utf-8") as fh:
            assert fh.read() == want.getvalue()

    @pytest.mark.parametrize("fmt", ["ndjson", "csv"])
    def test_blocks_emit_the_same_bytes(self, tmp_path, monkeypatch, fmt):
        # id order is not row order here, so blocks of 3 rows cut the
        # corpus at rows that are not neighbours
        c = self._corpus()
        c = corpus([*records(c), *(imp(f"a{k}", clicks=[click("r1", 2, 5.0)])
                                   for k in range(5, 0, -1))])
        assert not (np.diff(c.id_order) > 0).all()
        emit(c, tmp_path / "whole", fmt=fmt)
        monkeypatch.setattr(logmodel, "_EMIT_BLOCK", 3)
        emit(c, tmp_path / "blocks", fmt=fmt)
        assert (tmp_path / "blocks").read_bytes() == \
            (tmp_path / "whole").read_bytes()

    @pytest.mark.parametrize("fmt", ["ndjson", "csv"])
    def test_round_trip_keeps_every_column(self, tmp_path, fmt):
        # ingest normalizes query text and derives unset flags, so the
        # record that needs both is left out
        c = corpus(i for i in records(self._corpus())
                   if i.reformulated is not None)
        path = tmp_path / f"c.{fmt}"
        emit(c, path, fmt=fmt)
        back = ingest(path, fmt=fmt)
        assert [impression_to_dict(i) for i in records(back)] == [
            impression_to_dict(i) for i in sorted(
                records(c), key=lambda i: i.impression_id)]
