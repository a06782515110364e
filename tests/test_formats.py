"""Text formats for codes and matroids, with positional error reporting."""

import os

import pytest

from hncodes import InvariantViolation, ParseError, zoo
from hncodes.formats import (
    parse_code_file,
    parse_code_text,
    parse_matroid_file,
    parse_matroid_text,
)
from hncodes.matroid import uniform_matroid

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_parse_bundled_examples():
    C = parse_code_file(os.path.join(DATA, "binary_9_7.code"))
    assert C == zoo.binary_9_7()
    assert parse_code_file(os.path.join(DATA, "binary_5_2.code")) == zoo.binary_5_2()
    assert parse_code_file(os.path.join(DATA, "binary_3_2_2.code")) == zoo.binary_3_2()
    assert parse_code_file(
        os.path.join(DATA, "binary_5_2_square.code")) == zoo.binary_5_2_square()


def test_parse_gf4_file():
    C = parse_code_file(os.path.join(DATA, "gf4_4_2.code"))
    assert (C.n, C.k) == (4, 2)
    assert C.field.q == 4


def test_digit_rows_and_spaced_rows_agree():
    a = parse_code_text("field 2 1\ncode 3 2\n101\n011\n")
    b = parse_code_text("field 2 1\ncode 3 2\n1 0 1\n0 1 1\n")
    assert a == b


def test_comments_and_blank_lines_ignored():
    C = parse_code_text(
        "# header comment\n\nfield 2 1   # inline\ncode 3 2\n\n101\n011  # tail\n")
    assert (C.n, C.k) == (3, 2)


def test_int_bases_accepted():
    C = parse_code_text("field 0x2 1\ncode 0b11 2\n101\n011\n")
    assert (C.n, C.k) == (3, 2)


@pytest.mark.parametrize("text,fragment", [
    ("", "empty input"),
    ("code 3 2\n101\n011\n", "expected 'field', got 'code'"),
    ("field 2\ncode 3 2\n101\n011\n", "field line takes 2 or 3 integers"),
    ("field 2 1\nkode 3 2\n101\n011\n", "line 2, column 1: expected 'code'"),
    ("field 2 1\ncode 3 2\n101\n01\n", "line 4, column 1: row has 2 entries"),
    ("field 2 1\ncode 3 2\n101\n013\n",
     "line 4, column 3: entry 3 outside the field range"),
    ("field 2 1\ncode 3 2\n101\n011\n110\n",
     "line 5, column 1: expected 2 generator rows, found 3"),
    ("field 2 1\ncode 3 2\n101\n", "line 4, column 1: expected 2 generator rows"),
    ("field 2 2\ncode 2 1\n1 2\n", "modulus required for extension fields"),
    ("field 2 1\ncode 3 x\n101\n011\n", "expected an integer, got 'x'"),
])
def test_parse_code_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_code_text(text)
    assert fragment in str(err.value)


def test_declared_rank_mismatch():
    with pytest.raises(InvariantViolation) as err:
        parse_code_text("field 2 1\ncode 3 2\n101\n101\n")
    assert "declared dimension 2 but the rows have rank 1" in str(err.value)


def test_field_errors_surface_positionally():
    # the field itself is invalid, not the syntax
    with pytest.raises(Exception) as err:
        parse_code_text("field 4 1\ncode 2 1\n11\n")
    assert "prime" in str(err.value).lower()


def test_parse_matroid_bases():
    M = parse_matroid_text("matroid 4 2\n0b0011\n0b0101\n0b1001\n"
                           "0b0110\n0b1010\n0b1100\n")
    assert M == uniform_matroid(2, 4)


def test_parse_matroid_file_and_from_code():
    M = parse_matroid_file(os.path.join(DATA, "u24.matroid"))
    assert M == uniform_matroid(2, 4)
    N = parse_matroid_file(os.path.join(DATA, "from_code_9_7.matroid"))
    assert N.n == 9 and N.k == 7


def test_parse_matroid_from_code_relative_to_text_dir():
    M = parse_matroid_text("from-code data/binary_5_2.code\n",
                           base_dir=os.path.dirname(__file__))
    assert M.n == 5 and M.k == 2


@pytest.mark.parametrize("text,fragment", [
    ("", "empty input"),
    ("matroid 2 3\n0b11\n", "need 0 <= k <= n"),
    ("matroid 2 1\n", "no bases listed"),
    ("matroid 2 1\n0b101\n", "outside the ground set"),
    ("matroid 2 1\n0b11\n", "has 2 elements, expected 1"),
    # open() refuses a NUL with ValueError, which no exit code maps
    ("from-code \0binary_9_7.code\n", "line 1, column 11: from-code path "
     "contains a NUL byte"),
])
def test_parse_matroid_errors(text, fragment):
    with pytest.raises((ParseError, InvariantViolation)) as err:
        parse_matroid_text(text)
    assert fragment in str(err.value)


def test_missing_from_code_target():
    with pytest.raises(OSError):
        parse_matroid_text("from-code does_not_exist.code\n", base_dir=DATA)
