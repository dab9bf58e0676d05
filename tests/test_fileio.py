import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrankpen import cli, fileio
from lowrankpen.fileio import (
    InputFormatError,
    detect_format,
    read_dense_matrix,
    read_triplets,
    write_dense_matrix,
    write_triplets,
)


def test_dense_round_trip(tmp_path):
    a = np.array([[1.5, -2.0, 0.1], [0.0, 3.25, 1e-9]])
    path = tmp_path / "m.csv"
    write_dense_matrix(path, a)
    assert np.array_equal(read_dense_matrix(path), a)
    # byte-stable across rewrites
    path2 = tmp_path / "m2.csv"
    write_dense_matrix(path2, a)
    assert path.read_bytes() == path2.read_bytes()


def test_dense_bytes_are_the_repr_of_each_element(tmp_path):
    # a 200 x 200 matrix with values across the float range, as each
    # element's repr(float(x)), comma separated, one row per line
    rng = np.random.default_rng(49)
    a = rng.standard_normal((200, 200)) * np.exp(rng.uniform(-300.0, 300.0, (200, 200)))
    a[0, :4] = [0.0, -0.0, 1e-320, 1.0]
    path = tmp_path / "m.csv"
    write_dense_matrix(path, a)
    expected = "".join(",".join(repr(float(x)) for x in row) + "\n" for row in a)
    assert path.read_bytes() == expected.encode()
    write_dense_matrix(path, np.array([3.5, -1.0]))  # one row
    assert path.read_bytes() == b"3.5,-1.0\n"


def test_dense_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n1.0,x\n")
    with pytest.raises(InputFormatError) as err:
        read_dense_matrix(path)
    assert err.value.line == 2

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(InputFormatError) as err:
        read_dense_matrix(ragged)
    assert err.value.line == 2


def test_triplets_parse_with_and_without_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("j,k,value\n0,1,2.5\n3,2,-1.0\n")
    triplets, lines = read_triplets(path)
    assert triplets.tolist() == [[0.0, 1.0, 2.5], [3.0, 2.0, -1.0]]
    assert lines.tolist() == [2, 3]

    bare = tmp_path / "bare.csv"
    bare.write_text("0,1,2.5\n")
    triplets, lines = read_triplets(bare)
    assert triplets.tolist() == [[0.0, 1.0, 2.5]]
    assert lines.tolist() == [1]


def test_triplets_bad_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1,2.5\n0,oops,1.0\n")
    with pytest.raises(InputFormatError) as err:
        read_triplets(path)
    assert err.value.line == 2

    neg = tmp_path / "neg.csv"
    neg.write_text("0,-1,2.5\n")
    with pytest.raises(InputFormatError) as err:
        read_triplets(neg)
    assert err.value.line == 1


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_values_name_their_line(tmp_path, token):
    triplets = tmp_path / "t.csv"
    triplets.write_text(f"j,k,value\n0,1,2.5\n1,0,1.0\n2,2,{token}\n")
    dense = tmp_path / "d.csv"
    dense.write_text(f"1.0,2.0\n3.0,{token}\n4.0,5.0\n")
    for read, path, line in ((read_triplets, triplets, 4), (read_dense_matrix, dense, 2)):
        with pytest.raises(InputFormatError, match="must be finite") as err:
            read(path)
        assert err.value.line == line


def test_write_triplets_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    data = np.array([[0, 1, 2.5], [4, 0, -0.125]])
    write_triplets(path, data)
    back, _ = read_triplets(path)
    assert np.array_equal(back, data)


def test_detect_format(tmp_path):
    trip = tmp_path / "t.csv"
    trip.write_text("0,1,2.5\n")
    assert detect_format(trip) == "triplets"

    headered = tmp_path / "h.csv"
    headered.write_text("j,k,value\n0,0,1.0\n")
    assert detect_format(headered) == "triplets"

    dense = tmp_path / "d.csv"
    dense.write_text("1.5,2.0,3.0\n4.0,5.0,6.0\n")
    assert detect_format(dense) == "dense"  # first field is not an int literal

    wide = tmp_path / "w.csv"
    wide.write_text("1,2,3,4\n")
    assert detect_format(wide) == "dense"

    empty = tmp_path / "e.csv"
    empty.write_text("\n")
    with pytest.raises(InputFormatError):
        detect_format(empty)


def read_outcome(path):
    """What read_triplets gives for ``path``: its arrays, or its error."""
    try:
        triplets, lines = read_triplets(path)
    except InputFormatError as exc:
        return "error", str(exc), exc.line
    return "read", triplets.dtype, triplets.tolist(), lines.dtype, lines.tolist()


def row_parser_outcome(path, monkeypatch):
    """read_outcome with the vectorised pass declining every file, so the
    row parser reads it."""
    with monkeypatch.context() as patch:
        patch.setattr(fileio, "_read_plain_triplets", lambda path: None)
        return read_outcome(path)


# (file, whether the vectorised pass reads it, and what read_triplets gives:
# the line numbers of the rows read, or the error's line and message)
READER_PARITY = {
    "header": ("j,k,value\n0,1,2.5\n3,2,-1.0\n", True, [2, 3]),
    "spaced header": (" J , K ,Value \n0,1,2.5\n", True, [2]),
    "no header": ("0,1,2.5\n3,2,-1.0\n", True, [1, 2]),
    "index +1": ("+1,0,2.5\n", True, [1]),
    "index spaced": (" 1 ,0,2.5\n", True, [1]),
    "index 1_0": ("1_0,0,2.5\n", False, [1]),
    "index in Arabic-Indic digits": ("\u0661,0,2.5\n", False, [1]),
    "index 2**63": ("9223372036854775808,0,2.5\n", False, [1]),
    "index 1.0": ("0,1,2.5\n1.0,0,2.5\n", False, (2, "invalid literal for int()")),
    "BOM": ("\ufeffj,k,value\n0,1,2.5\n", False, (1, "invalid literal for int()")),
    "quoted": ('"j","k","value"\n"0","1","2.5"\n', False, [2]),
    "CRLF": ("j,k,value\r\n0,1,2.5\r\n1,0,1.0\r\n", False, [2, 3]),
    "blank lines": ("0,1,2.5\n\n1,0,1.0\n\n", False, [1, 3]),
    "whitespace-only line": ("0,1,2.5\n   \n1,0,1.0\n", False, [1, 3]),
    "# in a value": ("0,1,2.5\n1,0,1#5\n", False, (2, "could not convert string to float")),
    "4 fields": ("0,1,2.5,7\n", False, (1, "expected 3 fields (j,k,value), found 4")),
    "commas only": ("0,1,2.5\n,\n", False, (2, "expected 3 fields (j,k,value), found 2")),
    "negative index": ("0,1,2.5\n0,-1,2.5\n", False, (2, "indices must be nonnegative")),
    "nan": ("0,1,nan\n", False, (1, "values must be finite")),
    "inf": ("0,1,2.5\n1,1,inf\n", False, (2, "values must be finite")),
    "1e400": ("j,k,value\n0,1,1e400\n", False, (2, "values must be finite")),
    "\\x1c blank": ("0,1,2.5\x1c\n", False, (1, "could not convert string to float")),
    "no trailing newline": ("j,k,value\n0,1,2.5\n1,0,-1e-3", True, [2, 3]),
    "one row": ("4,2,0.5\n", True, [1]),
    "header only": ("j,k,value\n", False, (None, "file contains no data rows")),
}


@pytest.mark.parametrize("text,plain,expected", READER_PARITY.values(), ids=READER_PARITY)
def test_reader_parity(tmp_path, monkeypatch, text, plain, expected):
    # every file reads as the row parser reads it, by the vectorised pass
    # when the file is plain
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    assert (fileio._read_plain_triplets(path) is not None) is plain
    outcome = read_outcome(path)
    assert outcome == row_parser_outcome(path, monkeypatch)
    if isinstance(expected, list):
        assert outcome[0] == "read" and outcome[4] == expected
        assert outcome[1] == np.float64 and outcome[3] == np.int64
    else:
        line, message = expected
        assert outcome[0] == "error" and outcome[2] == line and message in outcome[1]


def test_reader_parity_values(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("9223372036854775807,+1,-0\n 7 ,\t00,.5\n")  # 2**63 - 1
    assert read_triplets(path)[0].tolist() == [[9223372036854775807.0, 1.0, -0.0], [7.0, 0.0, 0.5]]
    path.write_text("\u0661,1_0,1_0.5\n")
    assert read_triplets(path)[0].tolist() == [[1.0, 10.0, 10.5]]


def test_an_index_written_as_a_float_exits_2(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text("j,k,value\n0,1,2.5\n1.0,0,1.0\n")
    assert cli.main(["fit", str(path), str(tmp_path / "out"), "--sigma", "0.1"]) == 2
    assert "line 3: bad triplet" in capsys.readouterr().err


INDEX_TOKENS = [
    "0", "3", "+1", " 2 ", "00", "\t1", "\x0c2", "-0", "1_0", "\u0661", "1.0", "-1", "1e2", "",
]
VALUE_TOKENS = [
    "2.5", "-1e-3", ".5", "5.", " 3 ", "+2", "1E5", "4.9e-324", "1_0", "nan", "-inf", "1e400",
    "0x10", "1#", "2 3", "\x1c1", "",
]
TEXT_NOISE = ["", ",", "\n", "\r", '"', "\ufeff", " ", "\x00", "j,k,value\n"]


@settings(max_examples=300)
@given(
    header=st.sampled_from(["", "j,k,value\n", " J , K ,Value \n"]),
    rows=st.lists(
        st.tuples(st.sampled_from(INDEX_TOKENS), st.sampled_from(INDEX_TOKENS),
                  st.sampled_from(VALUE_TOKENS)),
        min_size=1, max_size=5,
    ),
    end=st.sampled_from(["", "\n"]),
    noise=st.tuples(st.sampled_from(TEXT_NOISE), st.floats(0.0, 1.0)),
)
def test_reader_matches_the_row_parser(tmp_path_factory, header, rows, end, noise):
    text = header + "\n".join(",".join(row) for row in rows) + end
    token, where = noise
    at = int(where * len(text))
    text = text[:at] + token + text[at:]
    path = tmp_path_factory.mktemp("parity") / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert read_outcome(path) == row_parser_outcome(path, monkeypatch)
