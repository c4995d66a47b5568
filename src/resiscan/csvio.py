"""CSV input: the one reader behind every file the pipeline loads.

Text the csv module rejects (an unterminated quote, a field over its size
limit) raises ``ValueError``, as a malformed row does, so a stage given a
bad file fails with a message instead of a traceback.
"""

from __future__ import annotations

import csv
from typing import Iterator


def csv_rows(fh, what: str) -> Iterator[list[str]]:
    """Rows of a CSV file; ``csv.Error`` becomes ``ValueError`` naming ``what``."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{what} line {reader.line_num}: {exc}") from None


def table_rows(path: str, what: str) -> Iterator[list[str]]:
    """Data rows of a reference table file; blank and ``#`` comment rows are skipped."""
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv_rows(fh, what):
            if row and not row[0].lstrip().startswith("#"):
                yield row
