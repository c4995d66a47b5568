"""The one CSV codec behind every file the pipeline writes or reads, and
the one way a stage output is opened for writing (``open_output``).

Rows end in ``\n`` and fields are quoted only where they must be. Readers
skip blank rows and rows whose first field starts with ``#``; a wrong
header, a wrong field count, a byte that is not UTF-8, text the csv module
rejects or a field the format module cannot map raises
``ValueError("<what> line N: ...")`` for the line that holds it, so a bad
file ends a stage with a message. Open files with ``newline=""``, so a
quoted line end reads back as written. Format modules supply only the
mapping between a record and its row.
"""

from __future__ import annotations

import contextlib
import csv
import os
from typing import Callable, Iterable, Iterator, Sequence


@contextlib.contextmanager
def open_output(path: str):
    """``path`` opened for writing UTF-8 text with ``newline=""``, its directory
    made as needed. The text goes to ``<path>.tmp``, which replaces ``path``
    only when the block ends without error and is removed otherwise, so
    ``path`` holds one whole write or is left as it was, after a crash too."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())  # on disk before the rename, so a crash leaves no torn file
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write or the rename failed
            os.remove(tmp)


def write_rows(fh, rows: Iterable[Sequence], header: Sequence[str] | None = None) -> None:
    # csv quotes for the line terminator's characters only, and a bare "\r"
    # reads back as a line end: a row holding one is quoted in full.
    plain = csv.writer(fh, lineterminator="\n")
    quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
    if header is not None:
        plain.writerow(header)
    for row in rows:
        if any(type(f) is str and "\r" in f for f in row):
            quoted.writerow(row)
        else:
            plain.writerow(row)


def read_rows(
    fh,
    what: str,
    width: int | None = None,
    header: Sequence[str] | None = None,
    parse: Callable[[list[str]], object] | None = None,
) -> Iterator:
    """Data rows of ``fh``, each passed through ``parse`` when one is given.

    A ``ValueError`` from ``parse`` is re-raised with the file and line.
    """
    reader = csv.reader(fh)
    try:
        if header is not None and next(reader, None) != list(header):
            raise ValueError(f"expected header {','.join(header)}")
        for row in reader:
            first = row[0].strip() if row else ""
            if (len(row) < 2 and not first) or first.startswith("#"):
                continue
            if width is not None and len(row) != width:
                raise ValueError(f"expected {width} fields, got {len(row)}")
            yield row if parse is None else parse(row)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{what} line {undecodable_line(fh, exc)}: {exc}") from None
    except (csv.Error, ValueError) as exc:
        raise ValueError(f"{what} line {max(reader.line_num, 1)}: {exc}") from None


def undecodable_line(fh, exc: UnicodeDecodeError) -> int:
    """The line of the byte ``exc`` failed on in ``fh``, as the csv reader counts lines."""
    at = fh.buffer.tell() - len(exc.object) + exc.start  # fh decodes ahead of the lines read
    fh.buffer.seek(0)
    return len(fh.buffer.read(at + 1).splitlines())  # that byte ends no line


def table_rows(
    path: str,
    what: str,
    width: int | None = None,
    parse: Callable[[list[str]], object] | None = None,
) -> list:
    """Data rows of a reference table file, each passed through ``parse`` as in ``read_rows``."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(read_rows(fh, what, width, parse=parse))
