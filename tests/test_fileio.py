import numpy as np
import pytest

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
