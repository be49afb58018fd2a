"""Search interaction log schema and serialization.

An interaction log is a sequence of impressions: one query issued by one
user, the result page shown, and the clicks that followed.  Each user
carries a demographic profile (an age group crossed with a binary gender
marker).  Two interchange formats are supported:

* NDJSON -- one JSON object per line, nested clicks.
* CSV -- one row per impression with clicks packed into a single column
  as ``position:result_id:dwell_seconds:terminated`` entries joined by
  ``;`` (result ids must therefore avoid ``:`` and ``;``).

Query text is normalized at ingest (lowercased, internal whitespace
collapsed, trimmed).  Records that violate the impression invariants are
counted and skipped; if more than half of a file is malformed the ingest
fails outright.

A corpus is held as read-only columns (:class:`LogCorpus`): ingest
parses each record into flat lists and freezes them into numpy
arrays, so no per-record object outlives its line.  A record is a tuple
of the impression fields in this order: ``impression_id``, ``user_id``,
``session_id``, ``timestamp``, ``query_text``, ``topic``, ``results``,
``clicks``, ``reformulated`` and ``demographics``, with each click a
``(result_id, position, dwell_seconds, terminated_query)`` tuple.
"""

from __future__ import annotations

import enum
import json
import math
import csv as _csv
import logging
import re
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DataError

logger = logging.getLogger(__name__)

_WS = re.compile(r"\s+")


class AgeGroup(enum.IntEnum):
    """Age bins; G1 is the youngest group."""

    G1 = 1  # under 18
    G2 = 2  # 18-34
    G3 = 3  # 35-54
    G4 = 4  # 55-74

    @property
    def label(self) -> str:
        return {1: "<18", 2: "18-34", 3: "35-54", 4: "55-74"}[int(self)]


class Gender(enum.Enum):
    MALE = "M"
    FEMALE = "F"

    @property
    def code(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class DemographicProfile:
    age: AgeGroup
    gender: Gender

    @property
    def key(self) -> str:
        return f"{self.age.name}-{self.gender.code}"


def all_profiles() -> list[DemographicProfile]:
    """The eight age-by-gender profiles in canonical order."""
    return [DemographicProfile(a, g) for a in AgeGroup for g in Gender]


# Columns code a profile as its index here, (age - 1) * 2 + gender, and
# records parsed or rebuilt from columns share these objects.
_PROFILES = all_profiles()
_PROFILE_CODES = {p: k for k, p in enumerate(_PROFILES)}
_BY_NAMES = {(p.age.name, p.gender.code): p for p in _PROFILES}


def _profile(age: str, gender: str) -> DemographicProfile:
    shared = _BY_NAMES.get((age, gender))
    if shared is not None:
        return shared
    # unknown codes raise the same KeyError / ValueError as direct lookup
    return DemographicProfile(AgeGroup[age], Gender(gender))


@dataclass
class CorpusMetadata:
    accepted: int = 0
    skipped: int = 0


def first_appearance_codes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct values of `keys` in order of first appearance;
    returns ``(distinct, codes)`` with ``distinct[codes] == keys``."""
    distinct, first, inverse = np.unique(keys, return_index=True,
                                         return_inverse=True)
    order = np.argsort(first)
    return distinct[order], np.argsort(order)[inverse]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class LogCorpus:
    """A validated interaction log, held as read-only columns, one row per
    impression.

    ``ids`` holds the impression ids (an object array of str).  ``user``,
    ``session``, ``query`` and ``topic`` are int32 codes into ``users``,
    ``sessions``, ``queries`` and ``topics``, each listed in order of first
    appearance; ``age`` and ``gender`` index ``AgeGroup`` and ``Gender``
    order.  ``reformulated`` is int8: 1, 0, or -1 when the flag is unset.

    Result pages and clicks are CSR: row k's results are
    ``result[result_offsets[k]:result_offsets[k + 1]]``, codes into
    ``result_ids``, and its clicks, in log order, are entries
    ``click_offsets[k]:click_offsets[k + 1]`` of the ``click_*`` arrays
    (``click_dwell`` is NaN where the log has no dwell time).

    Metric tables and other per-impression columns computed from the
    corpus are cached on it, keyed by what they depend on;
    ``dataclasses.replace`` starts an empty cache.
    """

    ids: np.ndarray
    user: np.ndarray
    users: list[str]
    session: np.ndarray
    sessions: list[str]
    timestamp: np.ndarray          # int64
    age: np.ndarray
    gender: np.ndarray
    query: np.ndarray
    queries: list[str]
    topic: np.ndarray
    topics: list[str]
    reformulated: np.ndarray
    result_offsets: np.ndarray
    result: np.ndarray
    result_ids: list[str]
    click_offsets: np.ndarray
    click_result: np.ndarray
    click_position: np.ndarray
    click_dwell: np.ndarray
    click_terminated: np.ndarray
    metadata: CorpusMetadata = field(default_factory=CorpusMetadata)
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                _frozen(value)

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def id_order(self) -> np.ndarray:
        """Rows in impression-id order; equal ids keep row order."""
        return _frozen(np.argsort(self.ids, kind="stable"))

    @cached_property
    def click_count(self) -> np.ndarray:
        """Clicks per impression (the page click count)."""
        return _frozen(np.diff(self.click_offsets))

    @cached_property
    def click_row(self) -> np.ndarray:
        """The row of each click."""
        return _frozen(np.repeat(np.arange(len(self)), self.click_count))

    @property
    def has_dwell(self) -> bool:
        """False when any click lacks a dwell time (clicks-only fidelity)."""
        return not np.isnan(self.click_dwell).any()


class _ColumnBuilder:
    """Flat lists that validated records are appended to, one record (see
    the module docstring) at a time, and frozen at the end into a
    :class:`LogCorpus`.
    """

    def __init__(self):
        self.ids: list[str] = []
        self.user, self.session, self.timestamp = [], [], []
        self.query, self.topic, self.profile, self.reformulated = \
            [], [], [], []
        self.result, self.result_end = [], [0]
        self.click_result, self.click_position = [], []
        self.click_dwell, self.click_terminated, self.click_end = [], [], [0]
        self.users: dict[str, int] = {}
        self.sessions: dict[str, int] = {}
        self.queries: dict[str, int] = {}
        self.topics: dict[str, int] = {}
        self.result_ids: dict[str, int] = {}

    def add(self, impression_id, user_id, session_id, timestamp, query_text,
            topic, results, clicks, reformulated, demographics) -> str | None:
        """Append one record; returns the reason instead when it violates
        an invariant."""
        reason = _invalid(impression_id, timestamp, query_text, results,
                          clicks)
        if reason is not None:
            return reason
        self.ids.append(impression_id)
        users, sessions = self.users, self.sessions
        queries, topics = self.queries, self.topics
        self.user.append(users.setdefault(user_id, len(users)))
        self.session.append(sessions.setdefault(session_id, len(sessions)))
        self.timestamp.append(timestamp)
        self.query.append(queries.setdefault(query_text, len(queries)))
        self.topic.append(topics.setdefault(topic, len(topics)))
        self.profile.append(_PROFILE_CODES[demographics])
        self.reformulated.append(-1 if reformulated is None
                                 else int(reformulated))
        vocab = self.result_ids
        codes = list(map(vocab.get, results))
        if None in codes:           # a result id not seen before
            codes = [vocab.setdefault(r, len(vocab)) for r in results]
        self.result.extend(codes)
        self.result_end.append(len(self.result))
        for result_id, position, dwell, terminated in clicks:
            self.click_result.append(vocab[result_id])
            self.click_position.append(position)
            self.click_dwell.append(dwell)
            self.click_terminated.append(terminated)
        self.click_end.append(len(self.click_result))
        return None

    def freeze(self, skipped: int) -> LogCorpus:
        profile = np.array(self.profile, dtype=np.int32)
        return LogCorpus(
            ids=np.array(self.ids, dtype=object),
            user=np.array(self.user, dtype=np.int32), users=list(self.users),
            session=np.array(self.session, dtype=np.int32),
            sessions=list(self.sessions),
            timestamp=np.array(self.timestamp, dtype=np.int64),
            age=profile >> 1, gender=profile & 1,
            query=np.array(self.query, dtype=np.int32),
            queries=list(self.queries),
            topic=np.array(self.topic, dtype=np.int32),
            topics=list(self.topics),
            reformulated=np.array(self.reformulated, dtype=np.int8),
            result_offsets=np.array(self.result_end, dtype=np.int64),
            result=np.array(self.result, dtype=np.int32),
            result_ids=list(self.result_ids),
            click_offsets=np.array(self.click_end, dtype=np.int64),
            click_result=np.array(self.click_result, dtype=np.int32),
            click_position=np.array(self.click_position, dtype=np.int32),
            click_dwell=np.array(self.click_dwell, dtype=float),
            click_terminated=np.array(self.click_terminated, dtype=bool),
            metadata=CorpusMetadata(accepted=len(self.ids), skipped=skipped))


# rows whose result-id and click strings emit builds at one time
_EMIT_BLOCK = 8192


def _entries(offsets: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, list]:
    """The CSR entries of `rows`, concatenated, and each row's bounds."""
    lo = offsets[rows]
    n = offsets[rows + 1] - lo
    bounds = np.concatenate([[0], np.cumsum(n)])
    return np.repeat(lo - bounds[:-1], n) + np.arange(bounds[-1]), \
        bounds.tolist()


def _records(corpus: LogCorpus, rows, click, text=str):
    """The record of each row, rebuilt from the corpus columns.

    Each click is ``click(text(result_id), position, dwell_seconds,
    terminated_query)``, vocabulary strings (not ids) go through `text`
    once per entry, and `reformulated` stays coded as 1, 0 or -1.
    """
    users, sessions, queries, topics, rid = (
        [text(v) for v in vocab] for vocab in (
            corpus.users, corpus.sessions, corpus.queries, corpus.topics,
            corpus.result_ids))
    columns = (corpus.ids, corpus.user, corpus.session, corpus.timestamp,
               corpus.query, corpus.topic, corpus.reformulated,
               corpus.age * 2 + corpus.gender)
    for start in range(0, len(rows), _EMIT_BLOCK):
        k = np.asarray(rows[start:start + _EMIT_BLOCK], dtype=np.intp)
        r, rb = _entries(corpus.result_offsets, k)
        c, cb = _entries(corpus.click_offsets, k)
        res = [rid[v] for v in corpus.result[r].tolist()]
        clicks = [click(rid[v], p, d, t) for v, p, d, t in zip(
            corpus.click_result[c].tolist(), corpus.click_position[c].tolist(),
            corpus.click_dwell[c].tolist(), corpus.click_terminated[c].tolist())]
        for n, (i, u, s, t, q, tp, f, p) in enumerate(
                zip(*(col[k].tolist() for col in columns))):
            yield (i, users[u], sessions[s], t, queries[q], topics[tp],
                   res[rb[n]:rb[n + 1]], clicks[cb[n]:cb[n + 1]], f,
                   _PROFILES[p])


def normalize_query(text: str) -> str:
    """Lowercase, collapse internal whitespace, trim."""
    return _WS.sub(" ", text.strip()).lower()


class _Normalized(dict):
    """Raw query text to its normalized form, each text normalized once."""

    def __missing__(self, text: str) -> str:
        self[text] = out = normalize_query(text)
        return out


def _invalid(impression_id, timestamp, query_text, results,
             clicks) -> str | None:
    """The first invariant a record's fields violate, else None."""
    if not impression_id:
        return "empty impression_id"
    if not results:
        return "empty results list"
    shown = set(results)
    if len(shown) != len(results):
        return "duplicate result_id in results"
    if not query_text:
        return "empty query_text"
    terminating = 0
    for result_id, position, dwell, terminated in clicks:
        if result_id not in shown:
            return f"click on result {result_id!r} absent from results"
        if position < 1 or position > len(results):
            return f"click position {position} out of range"
        if dwell < 0:              # False for NaN, which means no dwell
            return "negative dwell"
        terminating += terminated
    if terminating > 1:
        return "more than one terminating click"
    if not -(1 << 63) <= timestamp < 1 << 63:
        return f"timestamp {timestamp} out of range"
    return None


# ---------------------------------------------------------------------------
# reformulation flag derivation
#
# When a record does not carry the reformulated flag it is derived from
# session context: the flag is set when a later query in the same session
# differs from this one but either shares at least half of its tokens or
# sits within 0.5 normalized edit distance.

REFORMULATION_OVERLAP = 0.5     # least share of the query's tokens kept
REFORMULATION_EDIT = 0.5        # most edit distance over the longer length

def _edit_distance(a: str, b: str) -> int:
    """Levenshtein distance, bit-parallel over the DP columns (Hyyro 2001).

    The shorter string is the pattern: bit i of ``pv``/``mv`` holds the
    +1/-1 vertical delta at pattern row i, so each character of the
    longer string advances a whole DP column in a few integer operations.
    Python ints are unbounded, so any pattern length works; ``mask``
    drops the bits that ``~`` and the shifts set above the last row.
    """
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    if m == 0:
        return len(a)
    peq: dict[str, int] = {}
    for i, ch in enumerate(b):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    pv, mv, dist = mask, 0, m
    for ch in a:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        ph = (ph << 1) | 1          # row 0 of column j holds j
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return dist


def _queries_similar(orig: str, nxt: str) -> bool:
    orig_tokens = set(orig.split())
    if orig_tokens:
        shared = len(orig_tokens & set(nxt.split())) / len(orig_tokens)
        if shared >= REFORMULATION_OVERLAP:
            return True
    longest = max(len(orig), len(nxt))
    return (longest > 0
            and _edit_distance(orig, nxt) / longest <= REFORMULATION_EDIT)


def derive_reformulation_flags(corpus: LogCorpus) -> np.ndarray:
    """The reformulated column with unset flags filled from in-session
    successors.

    Each session is scanned in (timestamp, impression_id) order, and an
    unset flag becomes 1 at the first later, different query that is
    similar; set flags are kept.  The last query of a session can never
    be a reformulation source, so it gets 0.  Each (query, later query)
    pair is judged once per call.

    This rule and the generator define a reformulation differently.
    :mod:`sataudit.synth` models one as re-issuing the identical query,
    which this rule never flags, while it does flag a later, different
    same-topic query that shares enough tokens.  Flags derived on a
    generated log whose flags were blanked therefore do not estimate the
    generator's rate: on the dwell_confound preset (seed 1, 60k
    impressions, CSV with dwell and flags blanked) they give 33.3%, where
    the generator's own flags give 2.6%.
    """
    flags = corpus.reformulated
    if not (flags < 0).any():
        return flags
    n = len(corpus)
    id_rank = np.empty(n, dtype=np.intp)
    id_rank[corpus.id_order] = np.arange(n)
    order = np.lexsort((id_rank, corpus.timestamp, corpus.session))
    session = corpus.session[order].tolist()
    query = corpus.query[order].tolist()
    flag = flags[order].tolist()
    texts = corpus.queries
    similar: dict[tuple[int, int], bool] = {}
    for k in range(n):
        if flag[k] >= 0:
            continue
        s, q = session[k], query[k]
        found = 0
        j = k + 1
        while j < n and session[j] == s:
            later = query[j]
            if later != q:
                verdict = similar.get((q, later))
                if verdict is None:
                    verdict = similar[q, later] = _queries_similar(
                        texts[q], texts[later])
                if verdict:
                    found = 1
                    break
            j += 1
        flag[k] = found
    out = np.empty(n, dtype=np.int8)
    out[order] = flag
    return out


# ---------------------------------------------------------------------------
# NDJSON

def _json_click(result_id: str, position: int, dwell: float,
                terminated: bool) -> str:
    dwell = repr(dwell) if math.isfinite(dwell) else json.dumps(dwell)
    return (f'{{"result_id": {result_id}, "position": {position}, '
            f'"dwell_seconds": {dwell}, '
            f'"terminated_query": {"true" if terminated else "false"}}}')


def _ndjson_lines(corpus: LogCorpus, rows):
    """The NDJSON line of each row, from strings encoded once per
    vocabulary entry and per click.

    A line is byte for byte ``json.dumps`` of the record as a dict keyed
    by its field names, each click a dict keyed by its field names,
    ``reformulated`` a bool or null and ``demographics`` the age name and
    gender code, ``{"age": "G1", "gender": "M"}``.
    """
    enc = json.encoder.encode_basestring_ascii
    flag = ("false", "true", "null")        # indexed by 0, 1 and -1
    demographics = {p: json.dumps({"age": p.age.name,
                                   "gender": p.gender.code})
                    for p in _PROFILES}
    for f in _records(corpus, rows, _json_click, enc):
        yield (f'{{"impression_id": {enc(f[0])}, "user_id": {f[1]}, '
               f'"session_id": {f[2]}, "timestamp": {f[3]}, '
               f'"query_text": {f[4]}, "topic": {f[5]}, '
               f'"results": [{", ".join(f[6])}], '
               f'"clicks": [{", ".join(f[7])}], '
               f'"reformulated": {flag[f[8]]}, '
               f'"demographics": {demographics[f[9]]}}}\n')


def _parse_bool(v) -> bool | None:
    if v is None or v == "":
        return None
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, float)):
        return bool(v)
    s = str(v).strip().lower()
    if s in ("1", "true", "t", "yes"):
        return True
    if s in ("0", "false", "f", "no"):
        return False
    raise ValueError(f"bad boolean {v!r}")


_JSON_TYPES = {str: "a string or number", int: "an integer",
               list: "an array without nulls"}


def _field(obj: dict, key: str, kind: type = str):
    """A field of JSON type `kind`: never null, an integer never a bool or
    a float, and a string field takes a number as its text."""
    v = obj[key]
    if (v is None or kind is not str and type(v) is not kind
            or kind is list and None in v):
        raise ValueError(f"{key} must be {_JSON_TYPES[kind]}, got {v!r}")
    return str(v) if kind is str else v


def _fields_from_line(line: str, normalized: dict) -> tuple:
    rec = json.loads(line)
    demo = rec["demographics"]
    clicks = [
        (_field(c, "result_id"), _field(c, "position", int),
         (float("nan") if c.get("dwell_seconds") is None
          else float(c["dwell_seconds"])),
         bool(_parse_bool(c.get("terminated_query")) or False))
        for c in _field(rec, "clicks", list)
    ]
    return (_field(rec, "impression_id"), _field(rec, "user_id"),
            _field(rec, "session_id"), _field(rec, "timestamp", int),
            normalized[_field(rec, "query_text")], _field(rec, "topic"),
            [str(r) for r in _field(rec, "results", list)], clicks,
            _parse_bool(rec.get("reformulated")),
            _profile(str(demo["age"]), str(demo["gender"])))


# ---------------------------------------------------------------------------
# CSV

CSV_FIELDS = ["impression_id", "user_id", "session_id", "timestamp",
              "query_text", "topic", "results", "clicks", "reformulated",
              "age", "gender"]

_RESERVED = (":", ";")


def _csv_click(result_id: str, position: int, dwell: float,
               terminated: bool) -> str:
    return f"{position}:{result_id}:{'' if math.isnan(dwell) else repr(dwell)}" \
        f":{int(terminated)}"


def _csv_rows(corpus: LogCorpus, rows):
    """The CSV row of each row, as a list in ``CSV_FIELDS`` order."""
    reserved = {r for r in corpus.result_ids
                if any(ch in r for ch in _RESERVED)}
    flag = (0, 1, "")                       # indexed by 0, 1 and -1
    for f in _records(corpus, rows, _csv_click):
        if reserved and not reserved.isdisjoint(f[6]):
            bad = next(r for r in f[6] if r in reserved)
            raise DataError(
                f"result id {bad!r} contains a reserved character; "
                "CSV packing requires ids without ':' or ';'")
        yield [*f[:6], ";".join(f[6]), ";".join(f[7]), flag[f[8]],
               f[9].age.name, f[9].gender.code]


def _unpack_clicks(packed: str) -> list[tuple]:
    clicks = []
    if not packed:
        return clicks
    for part in packed.split(";"):
        pos, rid, dwell, term = part.split(":")
        clicks.append((rid, int(pos),
                       float(dwell) if dwell else float("nan"),
                       bool(int(term))))
    return clicks


def _fields_from_row(row: dict, normalized: dict) -> tuple:
    if None in row.values():            # a short row; the reader fills None
        missing = [f for f in CSV_FIELDS if row[f] is None]
        if missing:
            raise ValueError(f"missing fields: {', '.join(missing)}")
    return (row["impression_id"], row["user_id"], row["session_id"],
            int(row["timestamp"]), normalized[row["query_text"]],
            row["topic"],
            row["results"].split(";") if row["results"] else [],
            _unpack_clicks(row["clicks"]), _parse_bool(row["reformulated"]),
            _profile(row["age"], row["gender"]))


# ---------------------------------------------------------------------------
# ingest / emit

def ingest(path: str | Path, fmt: str = "ndjson") -> LogCorpus:
    """Load a log file into a validated corpus.

    Invalid records are skipped (counted in metadata); more than 50%
    malformed is fatal.  Missing reformulated flags are derived from
    session context after the full file is read.
    """
    path = Path(path)
    if fmt not in ("ndjson", "csv"):
        raise DataError(f"unknown log format {fmt!r}")

    builder = _ColumnBuilder()
    normalized = _Normalized()
    skipped = 0
    first_errors: list[str] = []
    # One streaming pass: records are parsed as lines are read, so the raw
    # text is never held whole.  newline="" lets the csv module see quoted
    # line breaks; json.loads ignores a line's trailing "\r\n".
    try:
        with path.open(encoding="utf-8", newline="") as fh:
            if fmt == "ndjson":
                parse = _fields_from_line
                records = (line for line in fh if not line.isspace())
            else:
                parse = _fields_from_row
                records = reader = _csv.DictReader(fh)
                if reader.fieldnames is not None and set(CSV_FIELDS) - set(reader.fieldnames):
                    missing = sorted(set(CSV_FIELDS) - set(reader.fieldnames))
                    raise DataError(f"CSV header missing columns: {', '.join(missing)}")
            for record in records:
                try:
                    parsed = parse(record, normalized)
                except (KeyError, ValueError, TypeError, IndexError,
                        AttributeError) as exc:
                    reason = str(exc)
                else:
                    reason = builder.add(*parsed)
                if reason is not None:
                    skipped += 1
                    if len(first_errors) < 5:
                        first_errors.append(reason)
    except (OSError, UnicodeDecodeError, _csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    accepted = len(builder.ids)
    total = accepted + skipped
    if total > 0 and skipped * 2 > total:
        raise DataError(
            f"{skipped}/{total} records malformed in {path}; "
            f"first errors: {first_errors}")
    if skipped:
        logger.warning("ingest %s: skipped %d/%d records (first errors: %s)",
                       path, skipped, total, first_errors)

    corpus = builder.freeze(skipped)
    del builder
    return replace(corpus, reformulated=derive_reformulation_flags(corpus))


def emit(corpus: LogCorpus, path: str | Path, fmt: str = "ndjson") -> int:
    """Write a corpus in stable impression_id order; returns record count."""
    path = Path(path)
    rows = corpus.id_order
    if fmt == "ndjson":
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(_ndjson_lines(corpus, rows))
    elif fmt == "csv":
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = _csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_FIELDS)
            writer.writerows(_csv_rows(corpus, rows))
    else:
        raise DataError(f"unknown log format {fmt!r}")
    return len(corpus)
