"""Fuzzing the code and matroid parsers: any text either parses or raises
an `hncodes.Error` (or `OSError` for a `from-code` path), which the command
line maps to exit 2, 3 or 4, never to a traceback.

Texts are built from the formats' own keywords, integers at and past every
bound the parsers and constructors check (huge and negative ones too),
digit runs and stray characters, so that most examples get past the header
lines.  Ground sets stay at n <= 12 or go past the matroid cap, because an
n = 13..16 basis list is valid input that costs seconds to build and check.
The run is derandomized and the example count bounded.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import (HealthCheck, example, given, settings,  # noqa: E402
                        strategies as st)

from hncodes import Error  # noqa: E402
from hncodes.formats import parse_code_text, parse_matroid_text  # noqa: E402

SETTINGS = settings(max_examples=300, derandomize=True, deadline=None,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

INTS = st.one_of(
    st.integers(-2, 12),
    st.sampled_from([17, 34, 255, 256, 257, 285, 2**61 - 1, 10**10,
                     -10**10]),
)
WORDS = st.sampled_from(["field", "code", "matroid", "from-code", "#", "x",
                         "0b", "0x1f", "1_0", "²", "٣", "1e3", "-", ""])
TOKEN = st.one_of(
    INTS.map(str),
    INTS.map(hex),
    WORDS,
    st.text(alphabet="0123456789 #bx-²", max_size=12),
)
LINE = st.lists(TOKEN, max_size=5).map(" ".join)
SMALL = st.integers(0, 4)
FIELD_LINE = st.sampled_from(["field 2 1", "field 3 1", "field 2 2 7",
                              "field 3 2 10", "field 2 8 285"])
FIELD_LINE |= st.tuples(
    st.sampled_from([2, 3, 5]) | INTS, SMALL | INTS,
    st.none() | st.sampled_from([7, 10, 11, 19]) | INTS).map(
    lambda t: "field " + " ".join(str(x) for x in t if x is not None))


@st.composite
def with_one_line_fuzzed(draw, lines):
    """The lines, one of them replaced by a fuzzed line half of the time."""
    if draw(st.booleans()):
        lines[draw(st.integers(0, len(lines) - 1))] = draw(LINE)
    return "\n".join(lines)


@st.composite
def code_files(draw):
    """A field line, a `code n k` line and k rows of n digits."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    digits = draw(st.sampled_from(["01", "0123"]))
    rows = [draw(st.text(digits, min_size=n, max_size=n)) for _ in range(k)]
    return draw(with_one_line_fuzzed(
        [draw(FIELD_LINE), f"code {n} {k}", *rows]))


@st.composite
def matroid_files(draw):
    """A `matroid n k` line and k-subsets of the first 8 elements, for a
    ground set within or past the cap."""
    n = draw(st.integers(0, 8) | st.sampled_from([17, 34, 10**10]))
    k = draw(st.integers(0, min(n, 8)))
    subset = st.permutations(range(min(n, 8))).map(
        lambda order: sum(1 << e for e in order[:k]))
    bases = draw(st.lists(subset, min_size=1, max_size=10))
    return draw(with_one_line_fuzzed(
        [f"matroid {n} {k}", *map(str, bases)]))


CODE_TEXT = st.text(max_size=60) | st.lists(LINE, max_size=8).map(
    "\n".join) | code_files()
MATROID_TEXT = st.text(max_size=60) | st.lists(LINE, max_size=8).map(
    "\n".join) | matroid_files()


def _parses_or_refuses(parse, text):
    try:
        parse(text)
    except (Error, OSError):
        pass


@SETTINGS
@given(CODE_TEXT)
@example("field 2 1\ncode 2 1\n1\u00b2\n")  # '²' passes isdigit, not int
@example("field 2 2 -1\ncode 1 1\n1\n")   # base-p digits of -1 never end
def test_code_parser_parses_or_refuses(text):
    _parses_or_refuses(parse_code_text, text)


@SETTINGS
@given(MATROID_TEXT)
def test_matroid_parser_parses_or_refuses(tmp_path_factory, text):
    # no file there has a name a fuzzed `from-code` token can spell
    base = tmp_path_factory.getbasetemp()
    _parses_or_refuses(lambda t: parse_matroid_text(t, base_dir=str(base)),
                       text)
