"""Log schema, validation, reformulation derivation, and round trips."""

from __future__ import annotations

import csv
import dataclasses
import gc
import io
import json
import logging
import math
import random
import tracemalloc

import numpy as np
import pytest

from corpus_builders import Click, click, corpus, from_records, imp, records
from oracles import impression_to_dict
from sataudit import logmodel, synth
from sataudit.errors import DataError
from sataudit.logmodel import (AgeGroup, Gender, LogCorpus, StringTable,
                               all_profiles, derive_reformulation_flags, emit,
                               ingest, normalize_query)
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
        # the unset flag comes back unset: ingest keeps flags as written
        assert records(src)[2].reformulated is None
        for orig in records(src):
            got = by_id[orig.impression_id]
            assert impression_to_dict(got) == impression_to_dict(orig)

    def test_ingest_normalizes_query_text(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        rec = impression_to_dict(imp("a1", clicks=[click()]))
        rec["query_text"] = "  News   ALPHA "
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        back = ingest(path)
        assert records(back)[0].query_text == "news alpha"

    def test_ingest_skips_malformed_records(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        good = json.dumps(impression_to_dict(imp("a1", clicks=[click()])))
        bad = json.dumps({"impression_id": "a2"})
        path.write_text("\n".join([good, "not json{", bad, good.replace("a1", "a3")]) + "\n",
                        encoding="utf-8")
        back = ingest(path)
        assert back.metadata.accepted == 2
        assert back.metadata.skipped == 2

    def test_ingest_mostly_malformed_is_fatal(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        good = json.dumps(impression_to_dict(imp("a1", clicks=[click()])))
        path.write_text("\n".join([good, "{", "{", "{"]) + "\n",
                        encoding="utf-8")
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
        path.write_text("impression_id,user_id\na,b\n", encoding="utf-8")
        with pytest.raises(DataError, match="missing columns"):
            ingest(path, fmt="csv")

    def test_csv_reserved_characters_rejected_on_emit(self, tmp_path):
        bad = corpus([imp("a1", results=("r:0", "r1"),
                          clicks=[click("r:0")])])
        with pytest.raises(DataError, match="reserved character"):
            emit(bad, tmp_path / "corpus.csv", fmt="csv")
        # "r:0" sorts first among the ids, but "r;9" comes first in the
        # rows; the check runs before the file is opened
        bad = corpus([imp("a1", results=("r0", "r;9")),
                      imp("a2", results=("r:0",))])
        assert bad.result_ids == ["r0", "r:0", "r;9"]
        with pytest.raises(DataError, match="result id 'r;9' contains"):
            emit(bad, tmp_path / "corpus.csv", fmt="csv")
        assert not (tmp_path / "corpus.csv").exists()

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


# A flag that is no boolean, per format and field: NDJSON numbers other
# than 0 and 1, and CSV text that is none of the boolean words.
_BAD_BOOLEANS = [
    *(("ndjson", key, v) for key in ("reformulated", "terminated_query")
      for v in (2, -1, 0.5, float("nan"), "2")),
    *(("csv", key, v) for key in ("reformulated", "terminated")
      for v in ("2", "-1", "0.5")),
]


@pytest.mark.parametrize("fmt,key,value", _BAD_BOOLEANS)
def test_a_bad_boolean_skips_its_record(tmp_path, caplog, fmt, key, value):
    path = tmp_path / f"c.{fmt}"
    emit(corpus([imp(f"g{k}", clicks=[click("r0", 1, 40.0, True)])
                 for k in range(2)]), path, fmt=fmt)
    # a third record, the first with one flag set to `value`
    if fmt == "ndjson":
        rec = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        target = rec if key == "reformulated" else rec["clicks"][0]
        target[key] = value
        rec["impression_id"] = "bad"
        line = json.dumps(rec) + "\n"
    else:
        with open(path, newline="", encoding="utf-8") as fh:
            row = next(csv.DictReader(fh))
        if key == "reformulated":
            row[key] = value
        else:
            row["clicks"] = row["clicks"].rsplit(":", 1)[0] + ":" + value
        row["impression_id"] = "bad"
        buf = io.StringIO()
        csv.DictWriter(buf, logmodel.CSV_FIELDS,
                       lineterminator="\n").writerow(row)
        line = buf.getvalue()
    with open(path, "a", newline="", encoding="utf-8") as fh:
        fh.write(line)
    caplog.set_level(logging.WARNING)
    back = ingest(path, fmt=fmt)
    assert back.ids.tolist() == ["g0", "g1"] and back.metadata.skipped == 1
    assert f"bad boolean {value!r}" in caplog.text


@pytest.mark.parametrize("value,want", [
    (1, True), (0, False), (1.0, True), (0.0, False), (True, True),
    ("1", True), ("false", False), ("", None), (None, None)])
def test_boolean_values_either_format_accepts(value, want):
    assert logmodel._parse_bool(value) is want


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
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n" + "\n  \t\n".join(lines) + "\n\n \r\n",
                        encoding="utf-8")
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
        text = src.read_text(encoding="utf-8")
        if fmt == "ndjson":
            text = text.replace('"age": "G1"', '"age": "G9"', 1)
            text = text.replace('"gender": "M"', '"gender": "X"', 2)
        else:
            head, *rows = text.splitlines()
            rows[0] = rows[0][:-len(",G1,M")] + ",G9,M"
            rows[1] = rows[1][:-len(",G1,M")] + ",G1,X"
            text = "\n".join([head, *rows]) + "\n"
        path = tmp_path / f"bad.{fmt}"
        path.write_text(text, encoding="utf-8")
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


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
def test_ingest_peak_stays_within_twice_the_kept_corpus(tmp_path, fmt):
    # The builder holds one machine value per column entry, so what ingest
    # allocates at its peak stays under twice what the corpus keeps (about
    # 1.7 times on this log).
    path = tmp_path / f"mixed.{fmt}"
    generated, _ = synth.generate(synth.preset_mixed(n_impressions=5000,
                                                     seed=5))
    emit(generated, path, fmt=fmt)
    del generated
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        kept = ingest(path, fmt=fmt)
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(kept) == 4935
    assert peak - start <= 2.0 * (now - start)


def test_emit_orders_by_impression_id(tmp_path):
    src = corpus([imp("z9", clicks=[click()]), imp("a1", clicks=[click()])])
    path = tmp_path / "corpus.ndjson"
    emit(src, path)
    ids = [json.loads(line)["impression_id"]
           for line in path.read_text(encoding="utf-8").splitlines()]
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
        assert cols.queries == ["news alpha", "news gamma", "sports beta",
                                "travel delta"]
        assert cols.topics == ["news", "sports", "travel"]
        assert cols.age.tolist() == [list(AgeGroup).index(i.demographics.age)
                                     for i in imps]
        assert cols.gender.tolist() == [
            list(Gender).index(i.demographics.gender) for i in imps]
        assert [cols.queries[q] for q in cols.query] == \
            [i.query_text for i in imps]
        assert [cols.topics[t] for t in cols.topic] == [i.topic for i in imps]
        assert [all_profiles()[p] for p in cols.profile] == \
            [i.demographics for i in imps]
        for column in (cols.age, cols.gender, cols.query, cols.topic,
                       cols.profile):
            assert column.dtype == np.int32 and not column.flags.writeable

    def test_columns_are_built_once(self):
        c = self._corpus()
        for name in ("click_count", "click_row", "profile"):
            assert getattr(c, name) is getattr(c, name)

    def test_vocabulary_codes_follow_text_order_past_zero_padding(self):
        # a six-digit name misorders against a seventh digit: u1000000
        # sorts before u999999
        texts, codes = logmodel.vocabulary_codes(
            ["u999999", "u1000000", "u000001", "u999999"])
        assert texts == ["u000001", "u1000000", "u999999"]
        assert codes.dtype == np.int32 and codes.tolist() == [2, 1, 0, 2]
        c = corpus([imp(user_id=u) for u in ("u999999", "u1000000")])
        assert c.users.tolist() == ["u1000000", "u999999"]
        assert c.user.tolist() == [1, 0]

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
    ("infinite dwell", "infinite dwell"),
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
    elif kind == "infinite dwell":
        rec["clicks"] = [dict(click, dwell_seconds=math.inf)]
    else:
        rec["clicks"] = [dict(click, terminated_query=True),
                         dict(click, result_id="r1", position=2,
                              terminated_query=True)]
    return rec


def _write_records(path, fmt: str, records: list[dict]) -> None:
    """Write NDJSON record dicts in either format, in the given order."""
    if fmt == "ndjson":
        path.write_text("".join(json.dumps(r) + "\n" for r in records),
                        encoding="utf-8")
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
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
    def test_shuffled_log_gives_equal_columns(self, tmp_path, fmt):
        from sataudit import synth
        c, _ = synth.generate(synth.preset_mixed(n_impressions=3000, seed=5))
        c = corpus([*records(c), *_odd_records()])
        emit(c, tmp_path / "c", fmt=fmt)
        lines = (tmp_path / "c").read_text(encoding="utf-8").splitlines(
            keepends=True)
        head = lines[:1] if fmt == "csv" else []
        body = lines[len(head):]
        random.Random(3).shuffle(body)
        (tmp_path / "s").write_text("".join(head + body), encoding="utf-8")
        shuffled = ingest(tmp_path / "s", fmt=fmt)
        _assert_columns_equal(shuffled, ingest(tmp_path / "c", fmt=fmt))
        for vocab in (shuffled.users.tolist(), shuffled.sessions.tolist(),
                      shuffled.queries, shuffled.topics, shuffled.result_ids):
            assert vocab == sorted(vocab)

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
        assert back.metadata.accepted == 12 and back.metadata.skipped == 9
        assert f"skipped 9/21 records (first errors: " \
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
        assert str(err.value) == (f"9/12 records malformed in {path}; "
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
        back = ingest(path, fmt=fmt)
        assert back.timestamp[back.ids.tolist().index("edge")] == 2 ** 63 - 1

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
        ("impression_id", True,
         "impression_id must be a string or number, got True"),
        ("impression_id", [1],
         "impression_id must be a string or number, got [1]"),
        ("user_id", {"x": 1},
         "user_id must be a string or number, got {'x': 1}"),
        # JSON has no NaN or infinity; Python's reader takes both
        ("impression_id", math.nan,
         "impression_id must be a string or number, got nan"),
        ("session_id", -math.inf,
         "session_id must be a string or number, got -inf"),
        ("results", ["r0", {"a": 1}],
         "results entries must be strings or numbers, got {'a': 1}"),
        ("dwell_seconds", True,
         "dwell_seconds must be a number, got True"),
        ("dwell_seconds", "40", "dwell_seconds must be a number, got '40'"),
        # written as 1e400, which JSON reads as infinity
        ("dwell_seconds", math.inf, "infinite dwell"),
    ])
    def test_mistyped_ndjson_field_is_skipped(self, tmp_path, caplog, field,
                                              value, reason):
        good = [impression_to_dict(imp(f"g{k}", clicks=[click()]))
                for k in range(3)]
        bad = json.loads(json.dumps(good[0]))
        if field in ("position", "result_id", "dwell_seconds"):
            bad["clicks"][0][field] = value
        else:
            bad[field] = value
        path = tmp_path / "c.ndjson"
        _write_records(path, "ndjson", good + [bad])
        path.write_text(path.read_text(
            encoding="utf-8").replace("Infinity", "1e400"),
                        encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="sataudit.logmodel"):
            back = ingest(path)
        assert (back.metadata.accepted, back.metadata.skipped) == (3, 1)
        assert f"(first errors: {[reason]})" in caplog.text

    @pytest.mark.parametrize("field", ["impression_id", "user_id",
                                       "session_id", "query_text", "topic",
                                       "result_id"])
    def test_a_surrogate_skips_its_record(self, tmp_path, caplog, field):
        # JSON may escape a lone surrogate, which no UTF-8 file can hold
        good = [impression_to_dict(imp(f"g{k}", clicks=[click()]))
                for k in range(3)]
        bad = json.loads(json.dumps(good[0]))
        bad["impression_id"] = "bad"
        if field == "result_id":            # a shown and clicked result
            bad["results"][0] = bad["clicks"][0][field] = "r\ud800"
        else:
            bad[field] = "odd \ud800 text"
        # an escaped surrogate pair is one astral character, and is kept
        pair = dict(good[1], impression_id="\ud83d\ude00",
                    user_id="\ud83d\ude00")
        path = tmp_path / "c.ndjson"
        _write_records(path, "ndjson", good + [bad, pair])
        assert "\\ud800" in path.read_text(encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="sataudit.logmodel"):
            back = ingest(path)
        assert (back.metadata.accepted, back.metadata.skipped) == (4, 1)
        reason = f"{field} holds a surrogate, which UTF-8 cannot encode"
        assert f"(first errors: {[reason]})" in caplog.text
        assert back.ids.tolist() == ["g0", "g1", "g2", "\U0001F600"]
        assert "\U0001F600" in back.users.tolist()

    def test_numeric_ndjson_ids_are_taken_as_text(self, tmp_path):
        rec = impression_to_dict(imp("g0", clicks=[click()]))
        rec.update(impression_id=17, user_id=4, session_id=5.5)
        path = tmp_path / "c.ndjson"
        _write_records(path, "ndjson", [rec])
        back = ingest(path)
        assert back.ids.tolist() == ["17"]
        assert (back.users.tolist(), back.sessions.tolist()) == (["4"], ["5.5"])

    def test_short_csv_row_is_skipped(self, tmp_path, caplog):
        path = tmp_path / "c.csv"
        emit(corpus([imp(f"g{k}", clicks=[click()]) for k in range(3)]),
             path, fmt="csv")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("b1,u1,s1,5\n")
        with caplog.at_level(logging.WARNING, logger="sataudit.logmodel"):
            back = ingest(path, fmt="csv")
        assert back.metadata.accepted == 3 and back.metadata.skipped == 1
        assert ("missing fields: query_text, topic, results, clicks, "
                "reformulated, age, gender") in caplog.text

    def test_oversized_csv_field_is_accepted(self, tmp_path):
        # past the csv module's default limit of 131,072 characters; the
        # limit is process-wide, so it must be back afterwards, also when
        # the read fails
        path = tmp_path / "c.csv"
        emit(corpus([imp("g0", clicks=[click()])]), path, fmt="csv")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("b1,u1,s1,5," + "x" * 200_000 + ",t,r0,,0,G1,M\n")
        limit = csv.field_size_limit()
        c = ingest(path, fmt="csv")
        assert len(c) == 2 and c.queries[-1] == "x" * 200_000
        assert csv.field_size_limit() == limit
        with open(path, "ab") as fh:
            fh.write(b"b2,\xff\n")
        with pytest.raises(DataError, match="cannot read .*utf-8"):
            ingest(path, fmt="csv")
        assert csv.field_size_limit() == limit

    def test_from_records_rejects_an_invalid_record(self):
        with pytest.raises(DataError,
                           match="impression 'x1': empty results list"):
            corpus([imp("x0"), imp("x1", results=())])


# Texts on each side of the UTF-8 length steps (U+0800, U+10000), where
# UTF-16 order would differ from code-point order, and numeric-looking
# texts, which sort as text ("10" before "9").
_ODD_TEXTS = ["10", "9", "1e3", "-0", "\u00e9", "z", "\u07ff", "\u0800",
              "\ue000", "\uffff", "\U00010000", "\U0001F600", "\uff5a"]


def _odd_records():
    """One record per odd text, used as its impression, user and session
    id, in the order of `_ODD_TEXTS`."""
    return [imp(t, user_id=t, session_id=f"s{t}", clicks=[click()])
            for t in _ODD_TEXTS]


class TestStringTable:
    def test_reads_as_a_sequence_of_its_texts(self, monkeypatch):
        texts = ["", "a", "\u00e9t\u00e9", "\U0001F600", "zz", ""]
        t = StringTable.of(texts)
        assert len(t) == 6 and t.tolist() == texts
        assert [t[k] for k in range(6)] == texts
        assert t[-3] == "\U0001F600" and t[np.int64(2)] == "\u00e9t\u00e9"
        with pytest.raises(IndexError):
            t[6]
        assert t[1:4].tolist() == texts[1:4] and t[4:2].tolist() == []
        assert t[::2].tolist() == texts[::2]
        assert t[np.array([3, 0, 3])].tolist() == [texts[3], texts[0],
                                                   texts[3]]
        monkeypatch.setattr(logmodel, "_EMIT_BLOCK", 4)
        assert list(t) == texts
        assert t == StringTable.of(texts) and t[1:] == StringTable.of(
            texts[1:])
        assert t != StringTable.of(texts[:-1]) and t != texts
        assert not (t.data.flags.writeable or t.offsets.flags.writeable)
        empty = StringTable.of([])
        assert len(empty) == 0 and empty.tolist() == list(empty) == []
        # a NUL byte is text too
        for texts in (["a\0b", "", "\0"], ["", ""]):
            assert StringTable.of(texts).tolist() == texts

    def test_order_is_the_order_of_the_strs(self):
        shuffled = _odd_records()
        random.Random(7).shuffle(shuffled)
        c = corpus(shuffled)
        assert c.ids.tolist() == sorted(_ODD_TEXTS)
        assert c.users.tolist() == sorted(_ODD_TEXTS)
        assert c.sessions.tolist() == sorted(f"s{t}" for t in _ODD_TEXTS)
        # each row's user is its own id
        assert [c.users[u] for u in c.user.tolist()] == c.ids.tolist()

    def test_generated_columns_cost_under_48_bytes_a_row(self):
        # On mixed, ids ("imp" and eight digits) and, for the 0.56 users
        # and sessions a row, user ("u" and six digits) and session ids
        # ("s-u" and six) hold 11 + 0.56 * 16 = 20 bytes of text a row,
        # and an 8-byte offset a text: about 37 bytes a row.  48 leaves
        # room for the arrays' headers but not for a str object per id
        # (at least 49 bytes and an 8-byte pointer); lists and object
        # arrays of str held about 140.
        cfg = synth.preset_mixed(n_impressions=20000, seed=5)
        synth.generate(cfg)                 # first-call caches
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            c = synth.generate(cfg)[0]
            kept = (c.ids, c.users, c.sessions)
            del c
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        rows = len(kept[0])
        assert 19000 < rows < 21000
        assert held < 48 * rows, held / rows

    def test_a_megabyte_id_is_held_unpadded(self, tmp_path):
        big = "x" * (1 << 20)
        path = tmp_path / "c.ndjson"
        emit(corpus([*(imp(f"i{k:03d}", clicks=[click()])
                       for k in range(999)), imp(big, clicks=[click()])]),
             path)
        c = ingest(path)
        assert len(c) == 1000 and c.ids[999] == big
        # the id bytes, 1,000 four-byte ids and 1,001 offsets
        assert c.ids.data.nbytes + c.ids.offsets.nbytes == \
            len(big) + 4 * 999 + 8 * 1001
        emit(c, tmp_path / "back.ndjson")
        assert (tmp_path / "back.ndjson").read_bytes() == path.read_bytes()
        emit(c, tmp_path / "c.csv", fmt="csv")
        rows = (tmp_path / "c.csv").read_text(encoding="utf-8").splitlines()
        assert len(rows) == 1001 and rows[-1].startswith(big + ",u0,")
        assert rows[1] == rows[-1].replace(big, "i000")
        assert ingest(tmp_path / "c.csv", fmt="csv").ids == c.ids


class TestEmit:
    def _corpus(self):
        odd = 'q "quoted" \\ back\tslash é 中 😀 \x01'
        return corpus([
            imp("b2", query=odd, topic="t ", user_id='u"1',
                session_id="s\\1", timestamp=-(2 ** 63),
                results=("r0", "ré1", 'r"2'),
                clicks=[click('r"2', 3, float("nan")),
                        click("ré1", 2, 1e300, True)],
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
        # records built out of id order; blocks of 3 rows cut the corpus
        # inside the rows that sorting moved
        c = self._corpus()
        c = corpus([*records(c), *(imp(f"a{k}", clicks=[click("r1", 2, 5.0)])
                                   for k in range(5, 0, -1))])
        assert c.ids.tolist() == ["a0", "a1", "a1", "a2", "a3", "a4", "a5",
                                  "b2", "b2"]
        emit(c, tmp_path / "whole", fmt=fmt)
        monkeypatch.setattr(logmodel, "_EMIT_BLOCK", 3)
        emit(c, tmp_path / "blocks", fmt=fmt)
        assert (tmp_path / "blocks").read_bytes() == \
            (tmp_path / "whole").read_bytes()

    @pytest.mark.parametrize("fmt", ["ndjson", "csv"])
    def test_short_last_block_and_rows_without_clicks(self, tmp_path,
                                                      monkeypatch, fmt):
        # blocks of 3, 3 and 2 rows: the middle block has no click, and
        # the short last block ends on a row without one
        c = corpus(imp(f"c{k}", clicks=[click("r1", 2, 5.0)]
                       if k in (0, 2, 6) else []) for k in range(8))
        emit(c, tmp_path / "whole", fmt=fmt)
        monkeypatch.setattr(logmodel, "_EMIT_BLOCK", 3)
        emit(c, tmp_path / "blocks", fmt=fmt)
        assert (tmp_path / "blocks").read_bytes() == \
            (tmp_path / "whole").read_bytes()

    @pytest.mark.parametrize("fmt", ["ndjson", "csv"])
    def test_round_trip_keeps_every_column(self, tmp_path, fmt):
        # ingest normalizes query text, so each record carries its query
        # normalized; flags come back as written, the unset one included
        c = corpus(i._replace(query_text=normalize_query(i.query_text))
                   for i in records(self._corpus()))
        assert None in [i.reformulated for i in records(c)]
        path = tmp_path / f"c.{fmt}"
        emit(c, path, fmt=fmt)
        back = ingest(path, fmt=fmt)
        # compared as JSON text, where a missing dwell (NaN) equals itself
        assert [json.dumps(impression_to_dict(i)) for i in records(back)] == [
            json.dumps(impression_to_dict(i)) for i in sorted(
                records(c), key=lambda i: i.impression_id)]
