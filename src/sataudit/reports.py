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
        for key in ("version", "seed", "config_sha256"):
            f.write(f"# {key}: {meta[key]}\n")
        writer = csv.DictWriter(f, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def read_report_csv(path: Path) -> tuple[dict, list[dict]]:
    """Read a CSV written by write_csv back into (meta, rows)."""
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
    reader = csv.DictReader(lines[body_start:])
    return meta, list(reader)
