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
parses each record into typed column buffers (``array.array``, one
machine value per entry, and one UTF-8 byte buffer for the impression
ids) and freezes them into numpy arrays, so no per-record object
outlives its line.  A record is
a tuple of the impression fields in this order: ``impression_id``,
``user_id``, ``session_id``, ``timestamp``, ``query_text``, ``topic``,
``results``, ``clicks``, ``reformulated`` and ``demographics``, with each
click a ``(result_id, position, dwell_seconds, terminated_query)`` tuple.
"""

from __future__ import annotations

import contextlib
import enum
import itertools
import json
import math
import csv as _csv
import logging
import operator
import re
from array import array
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DataError, reading

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


# Columns code a profile as its index here (:attr:`LogCorpus.profile`),
# and records parsed or rebuilt from columns share these objects.
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


def vocabulary_codes(keys: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct texts of `keys` in sorted order, the order a
    :class:`LogCorpus` lists a vocabulary in, and each key's int32 code,
    found by binary search, not by a dict whose Python ints stay on the
    heap."""
    texts = sorted(set(keys))
    codes = np.searchsorted(np.array(texts, dtype=object),
                            np.array(keys, dtype=object))
    return texts, codes.astype(np.int32)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class StringTable:
    """Read-only texts held as one UTF-8 byte buffer: text k is
    ``data[offsets[k]:offsets[k + 1]]``, decoded.  ``data`` is uint8 and
    ``offsets`` int64, starting at 0, so a table costs the bytes of its
    texts plus eight per text, however long the longest one is.

    ``t[k]`` is text k as a str; ``t[a:b]`` (a view) and ``t[rows]``
    (a gather by an integer array) are tables.  Iteration decodes a
    block of texts at a time.  Two tables are equal when they hold the
    same texts in the same order.
    """

    __slots__ = ("data", "offsets")

    def __init__(self, data: np.ndarray, offsets: np.ndarray):
        self.data = _frozen(data)
        self.offsets = _frozen(offsets)

    @classmethod
    def of(cls, texts) -> StringTable:
        """The table of `texts`, encoded together."""
        texts = list(texts)
        joined = "".join(texts)
        data = joined.encode()
        # in ASCII text, a character is a byte
        lengths = (map(len, texts) if len(data) == len(joined)
                   else (len(t.encode()) for t in texts))
        offsets = np.zeros(len(texts) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(lengths, np.int64, len(texts)),
                  out=offsets[1:])
        return cls(np.frombuffer(data, dtype=np.uint8), offsets)

    @staticmethod
    def encodable(text: str) -> bool:
        """False when UTF-8 cannot encode `text`: it holds a surrogate
        code point, which a JSON escape such as ``"\\ud800"`` can put in
        a str.  No table, and no file the package writes, can hold it."""
        try:
            text.encode()
        except UnicodeEncodeError:
            return False
        return True

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            if step != 1:
                key = np.arange(start, stop, step)
            else:
                stop = max(start, stop)
                lo, hi = self.offsets[start], self.offsets[stop]
                return StringTable(self.data[lo:hi],
                                   self.offsets[start:stop + 1] - lo)
        if isinstance(key, np.ndarray):
            take, offsets = _entries(self.offsets, key)
            return StringTable(self.data[take], offsets)
        k = range(len(self))[operator.index(key)]
        return self.data[self.offsets[k]:self.offsets[k + 1]].tobytes() \
            .decode()

    def tolist(self) -> list[str]:
        if len(self) and self.data.all():
            # no NUL byte in the texts, so one can separate them
            return np.insert(self.data, self.offsets[1:-1], 0).tobytes() \
                .decode().split("\0")
        buf, ends = self.data.tobytes(), self.offsets.tolist()
        return [buf[a:b].decode() for a, b in zip(ends, ends[1:])]

    def __iter__(self):
        return itertools.chain.from_iterable(
            self[start:start + _EMIT_BLOCK].tolist()
            for start in range(0, len(self), _EMIT_BLOCK))

    def __eq__(self, other):
        if not isinstance(other, StringTable):
            return NotImplemented
        return (np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.data, other.data))

    __hash__ = None

    def __repr__(self) -> str:
        return (f"StringTable({len(self)} texts, "
                f"{self.data.size} bytes)")


@dataclass(frozen=True, eq=False)
class LogCorpus:
    """A validated interaction log, held as read-only columns, one row per
    impression.

    ``ids`` holds the impression ids, a :class:`StringTable`.  A built
    corpus is canonical: its rows are in impression-id order, with equal
    ids in the order the log gave them, so a log and any reordering of
    its lines make the same corpus as long as its ids are distinct.
    ``user``, ``session``, ``query`` and ``topic`` are int32 codes into
    ``users``, ``sessions`` (string tables), ``queries`` and ``topics``
    (lists of str), each in sorted text order, so comparing codes
    compares texts; UTF-8 byte order is code-point order, so a table's
    bytes sort as its texts do.  ``age`` and
    ``gender`` index ``AgeGroup`` and ``Gender`` order.  ``reformulated``
    is int8, the flags as the log wrote them: 1, 0, or -1 when unset.

    Result pages and clicks are CSR: row k's results are
    ``result[result_offsets[k]:result_offsets[k + 1]]``, codes into
    ``result_ids`` (sorted likewise), and its clicks, in log order, are
    entries ``click_offsets[k]:click_offsets[k + 1]`` of the ``click_*`` arrays
    (``click_dwell`` is NaN where the log has no dwell time).

    Metric tables and other columns computed from the corpus are kept on
    it by :meth:`derived`; ``dataclasses.replace`` starts an empty cache.
    """

    ids: StringTable
    user: np.ndarray
    users: StringTable
    session: np.ndarray
    sessions: StringTable
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

    def derived(self, name: str, build, *args):
        """``build(self, *args)``, built once and kept under `name`, `args`
        read-only: the array, or each array of the tuple, it returns."""
        key = (name, *args)
        if key not in self._derived:
            value = self._derived[key] = build(self, *args)
            for a in value if isinstance(value, tuple) else (value,):
                _frozen(a)
        return self._derived[key]

    @cached_property
    def click_count(self) -> np.ndarray:
        """Clicks per impression (the page click count)."""
        return _frozen(np.diff(self.click_offsets))

    @cached_property
    def click_row(self) -> np.ndarray:
        """The row of each click."""
        return _frozen(np.repeat(np.arange(len(self)), self.click_count))

    @cached_property
    def profile(self) -> np.ndarray:
        """``age * 2 + gender``: each row's index into :func:`all_profiles`."""
        return _frozen(self.age * 2 + self.gender)

    @property
    def has_dwell(self) -> bool:
        """False when any click lacks a dwell time (clicks-only fidelity)."""
        return not np.isnan(self.click_dwell).any()


class _ColumnBuilder:
    """Typed buffers that validated records are appended to, one record
    (see the module docstring) at a time, and frozen at the end into a
    :class:`LogCorpus`.  A record is checked whole before any value goes
    in, and every checked value fits its buffer's type.  Impression ids
    go in as UTF-8 bytes, compared on the way with the id before them,
    so ids that arrive sorted are never decoded again.
    """

    def __init__(self):
        self.id_data, self.id_end = bytearray(), array("q", [0])
        self.last_id, self.ids_sorted = b"", True
        self.user, self.session, self.query, self.topic = (
            array("i") for _ in range(4))
        self.timestamp = array("q")
        self.profile, self.reformulated = array("b"), array("b")
        self.result, self.result_end = array("i"), array("q", [0])
        self.click_result, self.click_position = array("i"), array("i")
        self.click_dwell, self.click_terminated = array("d"), array("b")
        self.click_end = array("q", [0])
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
        try:
            encoded = impression_id.encode()
        except UnicodeEncodeError:
            return _NOT_UTF8.format("impression_id")
        if not (user_id.isascii() and session_id.isascii()
                and query_text.isascii() and topic.isascii()):
            reason = _not_utf8(zip(
                ("user_id", "session_id", "query_text", "topic"),
                (user_id, session_id, query_text, topic)))
            if reason is not None:
                return reason
        vocab = self.result_ids
        codes = list(map(vocab.get, results))
        if None in codes:           # a result id not seen before
            # clicks are on shown results, so this covers theirs too
            reason = _not_utf8(("result_id", r) for r in results
                               if r not in vocab)
            if reason is not None:
                return reason
            codes = [vocab.setdefault(r, len(vocab)) for r in results]
        if encoded < self.last_id:
            self.ids_sorted = False
        self.last_id = encoded
        self.id_data += encoded
        self.id_end.append(len(self.id_data))
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
        self.result.extend(codes)
        self.result_end.append(len(self.result))
        for result_id, position, dwell, terminated in clicks:
            self.click_result.append(vocab[result_id])
            self.click_position.append(position)
            self.click_dwell.append(dwell)
            self.click_terminated.append(terminated)
        self.click_end.append(len(self.click_result))
        return None

    def __len__(self) -> int:
        return len(self.id_end) - 1

    def freeze(self, skipped: int) -> LogCorpus:
        """The corpus, canonical (see :class:`LogCorpus`): rows stably
        sorted by impression id, and each vocabulary numbered in sorted
        text order.  Vocabularies and buffers are dropped as they are used,
        and the ids are decoded, sorted and gathered only when they came
        unsorted."""
        # a vocabulary lists its texts in code order
        vocab = {}
        for name in ("users", "sessions", "queries", "topics", "result_ids"):
            texts, codes = vocabulary_codes(list(vars(self).pop(name)))
            if name in ("users", "sessions"):
                texts = StringTable.of(texts)
            vocab[name] = texts, codes

        def column(name, dtype, coded=None):
            values = np.array(getattr(self, name), dtype=dtype)
            setattr(self, name, None)
            if coded is not None:       # renumbered in place
                np.take(vocab[coded][1], values, out=values, mode="clip")
            return values

        def csr(end, *columns):
            """A CSR group's offsets and columns, in row order."""
            values = [column(*c) for c in columns]
            offsets = column(end, np.int64)
            if isinstance(rows, slice):
                return offsets, values
            take, offsets = _entries(offsets, rows)
            return offsets, [v[take] for v in values]

        rows = slice(None)              # the ids came sorted
        ids = StringTable(np.array(self.id_data, dtype=np.uint8),
                          column("id_end", np.int64))
        self.id_data = self.last_id = None
        if not self.ids_sorted:
            rows = np.argsort(np.array(ids.tolist(), dtype=object),
                              kind="stable")
            ids = ids[rows]
        profile = column("profile", np.int32)[rows]
        row_columns = {name: column(name, dtype, *coded)[rows]
                       for name, dtype, *coded in (
                           ("user", np.int32, "users"),
                           ("session", np.int32, "sessions"),
                           ("timestamp", np.int64),
                           ("query", np.int32, "queries"),
                           ("topic", np.int32, "topics"),
                           ("reformulated", np.int8))}
        result_offsets, (result,) = csr("result_end",
                                        ("result", np.int32, "result_ids"))
        click_offsets, clicks = csr(
            "click_end", ("click_result", np.int32, "result_ids"),
            ("click_position", np.int32), ("click_dwell", float),
            ("click_terminated", bool))
        return LogCorpus(
            ids=ids, **row_columns, age=profile >> 1, gender=profile & 1,
            **{name: texts for name, (texts, _) in vocab.items()},
            result_offsets=result_offsets, result=result,
            click_offsets=click_offsets, click_result=clicks[0],
            click_position=clicks[1], click_dwell=clicks[2],
            click_terminated=clicks[3],
            metadata=CorpusMetadata(accepted=len(ids), skipped=skipped))


# rows whose result-id and click strings emit builds at one time
_EMIT_BLOCK = 8192


def _entries(offsets: np.ndarray, rows: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """The CSR entries of `rows`, concatenated, and their offsets there."""
    lo = offsets[rows]
    n = offsets[rows + 1] - lo
    bounds = np.concatenate([[0], np.cumsum(n)])
    # a running sum of ones, where each row's first entry steps from the
    # entry before it to the row's own first: one array of the entries'
    # size, not three
    kept = n > 0
    lo, n = lo[kept], n[kept]
    step = np.ones(bounds[-1], dtype=np.int64)
    step[bounds[:-1][kept]] = lo - np.concatenate([[0], lo[:-1] + n[:-1] - 1])
    return np.cumsum(step, out=step), bounds


def _records(corpus: LogCorpus, click, text=str):
    """The record of each row, in row (impression-id) order, rebuilt from
    the corpus columns.

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
               corpus.profile)
    for start in range(0, len(corpus), _EMIT_BLOCK):
        # a block is a run of rows, so its entries are a run of each column
        rows = slice(start, start + _EMIT_BLOCK)
        rb, cb = (o[start:start + _EMIT_BLOCK + 1]
                  for o in (corpus.result_offsets, corpus.click_offsets))
        res = [rid[v] for v in corpus.result[rb[0]:rb[-1]].tolist()]
        c = slice(cb[0], cb[-1])
        clicks = [click(rid[v], p, d, t) for v, p, d, t in zip(
            corpus.click_result[c].tolist(), corpus.click_position[c].tolist(),
            corpus.click_dwell[c].tolist(), corpus.click_terminated[c].tolist())]
        rb, cb = (rb - rb[0]).tolist(), (cb - cb[0]).tolist()
        for n, (i, u, s, t, q, tp, f, p) in enumerate(
                zip(*(col[rows].tolist() for col in columns))):
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


_NOT_UTF8 = "{} holds a surrogate, which UTF-8 cannot encode"


def _not_utf8(named) -> str | None:
    """The skip reason for the first ``(field, text)`` pair of `named`
    whose text UTF-8 cannot encode (see :meth:`StringTable.encodable`),
    else None."""
    for name, text in named:
        if not StringTable.encodable(text):
            return _NOT_UTF8.format(name)
    return None


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
        if dwell == math.inf:
            return "infinite dwell"
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
    """The reformulated column as the reformulation metric reads it, with
    unset flags filled from in-session successors.

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
    # rows are in impression-id order and the sort is stable
    order = np.lexsort((corpus.timestamp, corpus.session))
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
    return _frozen(out)


# ---------------------------------------------------------------------------
# NDJSON

def _json_click(result_id: str, position: int, dwell: float,
                terminated: bool) -> str:
    dwell = repr(dwell) if math.isfinite(dwell) else json.dumps(dwell)
    return (f'{{"result_id": {result_id}, "position": {position}, '
            f'"dwell_seconds": {dwell}, '
            f'"terminated_query": {"true" if terminated else "false"}}}')


def _ndjson_lines(corpus: LogCorpus):
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
    for f in _records(corpus, _json_click, enc):
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
    if v in (0, 1):         # a bool or 0 or 1; other numbers fail as text
        return v == 1
    s = str(v).strip().lower()
    if s in ("1", "true", "t", "yes"):
        return True
    if s in ("0", "false", "f", "no"):
        return False
    raise ValueError(f"bad boolean {v!r}")


_TEXT = {str, int, float}
# what a field of each kind may hold: (description, its JSON types)
_JSON_TYPES = {str: ("a string or number", _TEXT), int: ("an integer", {int}),
               float: ("a number", {int, float}),
               list: ("an array without nulls", {list})}


def _field(obj: dict, key: str, kind: type = str):
    """A field of JSON type `kind`: a bool is never a number, an integer
    is never a float, and a string field takes a finite number as text."""
    v = obj[key]
    if type(v) is kind and kind is not list:
        return v
    what, types = _JSON_TYPES[kind]
    if (type(v) not in types or kind is list and None in v
            or kind is str and type(v) is float and not math.isfinite(v)):
        raise ValueError(f"{key} must be {what}, got {v!r}")
    return str(v) if kind is str else v


def _texts(values: list, key: str) -> list[str]:
    """An array field's entries as text; each must be a string or number."""
    kinds = set(map(type, values))
    if not kinds <= _TEXT:
        bad = next(v for v in values if type(v) not in _TEXT)
        raise ValueError(f"{key} entries must be strings or numbers, "
                         f"got {bad!r}")
    return values if kinds <= {str} else [str(v) for v in values]


def _fields_from_line(line: str, normalized: dict) -> tuple:
    rec = json.loads(line)
    demo = rec["demographics"]
    clicks = [
        (_field(c, "result_id"), _field(c, "position", int),
         (float("nan") if c.get("dwell_seconds") is None
          else float(_field(c, "dwell_seconds", float))),
         bool(_parse_bool(c.get("terminated_query"))))
        for c in _field(rec, "clicks", list)
    ]
    return (_field(rec, "impression_id"), _field(rec, "user_id"),
            _field(rec, "session_id"), _field(rec, "timestamp", int),
            normalized[_field(rec, "query_text")], _field(rec, "topic"),
            _texts(_field(rec, "results", list), "results"), clicks,
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


def _csv_rows(corpus: LogCorpus):
    """The CSV rows, lists in ``CSV_FIELDS`` order; a page's result id with
    a reserved character (the first in row order) raises at the call."""
    reserved = [k for k, r in enumerate(corpus.result_ids)
                if any(ch in r for ch in _RESERVED)]
    bad = corpus.result[np.isin(corpus.result, reserved)]
    if len(bad):
        raise DataError(
            f"result id {corpus.result_ids[bad[0]]!r} contains a reserved "
            "character; CSV packing requires ids without ':' or ';'")
    flag = (0, 1, "")                       # indexed by 0, 1 and -1
    return ([*f[:6], ";".join(f[6]), ";".join(f[7]), flag[f[8]],
             f[9].age.name, f[9].gender.code]
            for f in _records(corpus, _csv_click))


def _unpack_clicks(packed: str) -> list[tuple]:
    clicks = []
    if not packed:
        return clicks
    for part in packed.split(";"):
        pos, rid, dwell, term = part.split(":")
        clicks.append((rid, int(pos),
                       float(dwell) if dwell else float("nan"),
                       bool(_parse_bool(term))))
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
    malformed is fatal.  Reformulated flags are kept as written, -1 where
    unset; the reformulation metric derives the missing ones.
    """
    path = Path(path)
    if fmt not in ("ndjson", "csv"):
        raise DataError(f"unknown log format {fmt!r}")

    builder = _ColumnBuilder()
    normalized = _Normalized()
    skipped = 0
    first_errors: list[str] = []
    # One streaming pass: records are parsed as lines are read, so the raw
    # text is never held whole; json.loads ignores a line's trailing "\r\n".
    with reading(path, DataError) as fh, contextlib.ExitStack() as restore:
        if fmt == "ndjson":
            parse = _fields_from_line
            records = (line for line in fh if not line.isspace())
        else:
            parse = _fields_from_row
            # lift the csv module's process-wide field limit for this read
            # alone, to 2**31 - 1 characters, which every platform accepts
            restore.callback(_csv.field_size_limit,
                             _csv.field_size_limit(2 ** 31 - 1))
            records = reader = _csv.DictReader(fh)
            if reader.fieldnames is not None and set(CSV_FIELDS) - set(reader.fieldnames):
                missing = sorted(set(CSV_FIELDS) - set(reader.fieldnames))
                raise DataError(f"CSV header missing columns: {', '.join(missing)}")
        for record in records:
            try:
                parsed = parse(record, normalized)
            except (KeyError, ValueError, TypeError, IndexError,
                    AttributeError, OverflowError,
                    RecursionError) as exc:
                reason = str(exc)
            else:
                reason = builder.add(*parsed)
            if reason is not None:
                skipped += 1
                if len(first_errors) < 5:
                    first_errors.append(reason)

    accepted = len(builder)
    total = accepted + skipped
    if total > 0 and skipped * 2 > total:
        raise DataError(
            f"{skipped}/{total} records malformed in {path}; "
            f"first errors: {first_errors}")
    if skipped:
        logger.warning("ingest %s: skipped %d/%d records (first errors: %s)",
                       path, skipped, total, first_errors)

    return builder.freeze(skipped)


def emit(corpus: LogCorpus, path: str | Path, fmt: str = "ndjson") -> int:
    """Write a corpus in row order, which is impression-id order, making
    the file's directory; returns the record count."""
    path = Path(path)
    if fmt not in ("ndjson", "csv"):
        raise DataError(f"unknown log format {fmt!r}")
    # the CSV ids are checked before the directory or the file is made
    rows = _csv_rows(corpus) if fmt == "csv" else None
    path.parent.mkdir(parents=True, exist_ok=True)
    if rows is None:
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(_ndjson_lines(corpus))
    else:
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = _csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_FIELDS)
            writer.writerows(rows)
    return len(corpus)
