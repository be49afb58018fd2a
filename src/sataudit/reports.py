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

import numpy as np

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
    """A value as CSV cell text: blank for None and NaN, a float (numpy's
    too) by the repr of the Python float it holds, anything else by str.
    Every CSV cell the package writes is formatted here."""
    if isinstance(v, (float, np.floating)):
        return "" if v != v else repr(float(v))
    return "" if v is None else str(v)


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


def write_csv(path: Path, columns: dict, meta: dict) -> None:
    """Write the metadata block, then a table from `columns`: field names
    in column order, each to its values in row order (a list, tuple,
    1-D array or string table, all of one length), every cell as
    :func:`csv_value` text."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        for key in META_KEYS:
            f.write(f"# {key}: {meta[key]}\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(map(csv_value, row)
                         for row in zip(*columns.values(), strict=True))

