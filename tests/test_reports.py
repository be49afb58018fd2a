"""The report writers: CSV cell text and the column writer's bytes."""

from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import dict_write_csv
from sataudit.reports import csv_value, write_csv

META = {"version": "0.0", "seed": 7, "config_sha256": "ab" * 32}

# columns of awkward cells; "array" also goes in as a numpy array
COLUMNS = {
    "float": [None, math.nan, -0.0, 1e-300, 0.1, math.inf],
    "int": [0, -3, 2 ** 70, 7, 1, 42],
    "text": [np.str_("np"), "a,b", 'say "hi"', "two\nlines", "", " pad "],
    "array": [0.1, math.nan, -0.0, 1e-300, 1 / 3, 2.5],
}


def _row_cell(v):
    """A cell as callers of the row writer passed it: a float as its repr
    or blank for NaN, anything else left to ``csv``."""
    if isinstance(v, float):
        return "" if v != v else repr(v)
    return v


@pytest.mark.parametrize("n_rows", [6, 0])
def test_columns_write_the_row_writer_bytes(tmp_path, n_rows):
    columns = {name: values[:n_rows] for name, values in COLUMNS.items()}
    rows = [dict(zip(columns, map(_row_cell, row)))
            for row in zip(*columns.values())]
    dict_write_csv(tmp_path / "rows.csv", list(columns), rows, META)
    write_csv(tmp_path / "columns.csv",
              {**columns, "array": np.array(columns["array"])}, META)
    assert (tmp_path / "columns.csv").read_bytes() == \
        (tmp_path / "rows.csv").read_bytes()


def test_unequal_columns_raise(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "x.csv", {"a": [1, 2], "b": np.zeros(1)}, META)


def test_numpy_floats_are_written_as_python_floats():
    assert csv_value(np.float64(0.1)) == "0.1"
    assert csv_value(np.float32(0.5)) == "0.5"
    assert csv_value(np.float64("nan")) == ""
    assert csv_value(np.int64(3)) == "3"
