"""Hand-built corpora and impressions for unit tests.

`Impression` and `Click` are records in the order :func:`from_records`
reads them, so a list of them is a corpus source as it stands.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from sataudit import logmodel
from sataudit.errors import DataError
from sataudit.logmodel import AgeGroup, DemographicProfile, Gender, LogCorpus

_ids = itertools.count()


class Click(NamedTuple):
    result_id: str
    position: int            # 1-based rank on the result page
    dwell_seconds: float     # NaN when the source log lacks dwell fidelity
    terminated_query: bool   # user left the query on this click


class Impression(NamedTuple):
    impression_id: str
    user_id: str
    session_id: str
    timestamp: int
    query_text: str
    topic: str
    results: list[str]
    clicks: list[Click]
    reformulated: bool | None
    demographics: DemographicProfile


def click(result_id: str = "r0", position: int = 1, dwell: float = 45.0,
          terminated: bool = False) -> Click:
    return Click(result_id=result_id, position=position,
                 dwell_seconds=dwell, terminated_query=terminated)


def imp(impression_id: str | None = None, *, query: str = "news alpha",
        topic: str = "news", results=("r0", "r1", "r2"), clicks=(),
        reformulated: bool | None = False, age: AgeGroup = AgeGroup.G1,
        gender: Gender = Gender.MALE, user_id: str = "u0",
        session_id: str | None = None, timestamp: int = 0) -> Impression:
    if impression_id is None:
        impression_id = f"t{next(_ids):06d}"
    return Impression(
        impression_id=impression_id, user_id=user_id,
        session_id=session_id or f"s-{user_id}", timestamp=timestamp,
        query_text=query, topic=topic, results=list(results),
        clicks=list(clicks), reformulated=reformulated,
        demographics=DemographicProfile(age, gender))


def from_records(records) -> LogCorpus:
    """A corpus of records (see the :mod:`sataudit.logmodel` docstring),
    read one at a time.  An invalid record raises DataError."""
    builder = logmodel._ColumnBuilder()
    for record in records:
        reason = builder.add(*record)
        if reason is not None:
            raise DataError(f"impression {record[0]!r}: {reason}")
    return builder.freeze(skipped=0)


def corpus(impressions) -> LogCorpus:
    return from_records(impressions)


def records(c: LogCorpus) -> list[Impression]:
    """The corpus's rows as records, rebuilt from its columns."""
    return [Impression(*f[:8], None if f[8] < 0 else f[8] == 1, f[9])
            for f in logmodel._records(c, Click)]


def satisfied(impression_id: str | None = None, **kw) -> Impression:
    """One long-dwell click on the top result; GU comes out +1."""
    return imp(impression_id, clicks=[click("r0", 1, 60.0, True)], **kw)


def dissatisfied(impression_id: str | None = None, **kw) -> Impression:
    """Short-dwell click only; GU comes out -1/3."""
    return imp(impression_id, clicks=[click("r1", 2, 4.0)], **kw)
