"""Hand-built corpora and impressions for unit tests."""

from __future__ import annotations

import itertools

from sataudit.logmodel import (AgeGroup, Click, DemographicProfile, Gender,
                               Impression, LogCorpus)

_ids = itertools.count()


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


def corpus(impressions) -> LogCorpus:
    return LogCorpus.from_impressions(impressions)


def satisfied(impression_id: str | None = None, **kw) -> Impression:
    """One long-dwell click on the top result; GU comes out +1."""
    return imp(impression_id, clicks=[click("r0", 1, 60.0, True)], **kw)


def dissatisfied(impression_id: str | None = None, **kw) -> Impression:
    """Short-dwell click only; GU comes out -1/3."""
    return imp(impression_id, clicks=[click("r1", 2, 4.0)], **kw)
