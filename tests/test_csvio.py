import io

import pytest

from resiscan.csvio import open_output, read_rows, write_rows


def _read(text, **kw):
    return list(read_rows(io.StringIO(text, newline=""), "test file", **kw))


def test_blank_whitespace_and_comment_rows_skipped():
    text = "a,b\n\n   \n# note, with a comma\n  #indented\nc,d\n"
    assert _read(text, width=2) == [["a", "b"], ["c", "d"]]


def test_errors_name_the_file_and_line():
    with pytest.raises(ValueError, match="^test file line 3: expected 2 fields, got 3$"):
        _read("a,b\n# c\nd,e,f\n", width=2)
    with pytest.raises(ValueError, match="^test file line 1: expected header x,y$"):
        _read("x,z\n", header=("x", "y"))
    with pytest.raises(ValueError, match="^test file line 1: expected header x,y$"):
        _read("", header=("x", "y"))
    with pytest.raises(ValueError, match="^test file line 2: "):
        _read('a,b\n"c\n', width=2)  # unterminated quote: csv.Error


def test_parse_errors_get_the_line():
    def parse(row):
        return int(row[0])

    assert _read("1\n2\n", parse=parse) == [1, 2]
    with pytest.raises(ValueError, match="^test file line 2: invalid literal"):
        _read("1\nx\n", parse=parse)


def test_plain_rows_match_hand_framed_lines():
    rows = [("2001:db8::1", "2001:db8::2", "echo_reply", "", 64, 17), ("a", "1:3", 0, "x y")]
    buf = io.StringIO()
    write_rows(buf, rows, header=("h1", "h2"))
    assert buf.getvalue() == (
        "h1,h2\n2001:db8::1,2001:db8::2,echo_reply,,64,17\na,1:3,0,x y\n"
    )


def test_bare_carriage_return_row_reads_back_whole():
    rows = [["a\rb", "1"], ["c,d", 'q"q'], ["e\r\nf", ""]]
    buf = io.StringIO(newline="")
    write_rows(buf, rows)
    assert buf.getvalue().startswith('"a\rb","1"\n')
    buf.seek(0)
    assert list(read_rows(buf, "test file")) == rows


def test_open_output_replaces_only_a_whole_write(tmp_path):
    path = tmp_path / "sub" / "rows.csv"
    with open_output(str(path)) as fh:
        write_rows(fh, [("a", 1)], header=("h", "n"))
    assert path.read_bytes() == b"h,n\na,1\n"

    # A write that raises after some rows leaves the earlier file as it was
    # and no .tmp beside it.
    with pytest.raises(OSError, match="disk full"):
        with open_output(str(path)) as fh:
            write_rows(fh, [("b", n) for n in range(1000)])
            fh.flush()
            assert (tmp_path / "sub" / "rows.csv.tmp").stat().st_size > 0
            raise OSError("disk full")
    assert path.read_bytes() == b"h,n\na,1\n"
    assert sorted(p.name for p in path.parent.iterdir()) == ["rows.csv"]
