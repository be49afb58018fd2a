"""Deterministic report writers.

Every output file carries a metadata block with the package version, the
run seed, and a SHA-256 over the resolved run configuration, and is
written with sorted keys, fixed line endings, and no timestamps, so a
rerun with identical inputs produces byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from ._version import __version__


# the metadata block's keys, in the order a CSV file's header lists them
META_KEYS = ("version", "seed", "config_sha256")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True, allow_nan=False)


def config_sha256(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def run_meta(seed: int, config: dict) -> dict:
    return {"version": __version__, "seed": seed,
            "config_sha256": config_sha256(config)}


def csv_value(v) -> str:
    """A value as CSV cell text: blank for None and NaN, floats by repr."""
    if v is None or (isinstance(v, float) and v != v):
        return ""
    return repr(v) if isinstance(v, float) else str(v)


def _clean(value):
    """Make a value JSON-safe: NaN/inf become None, tuples become lists."""
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return None
        return value
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


def write_json(path: Path, payload: dict, meta: dict) -> None:
    body = {"meta": meta, **_clean(payload)}
    path.write_text(json.dumps(body, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def write_csv(path: Path, fieldnames: list[str], rows: list[dict],
              meta: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        for key in META_KEYS:
            f.write(f"# {key}: {meta[key]}\n")
        writer = csv.DictWriter(f, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

