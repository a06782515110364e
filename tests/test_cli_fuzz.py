"""Fuzzing the command line's arguments: any mix of `--J`, `--max-enum`,
`--side`, `--format` and `--all`, given to a subcommand over the files in
`tests/data`, either runs to exit 0, 1, 3 or 4 or is a usage error that
argparse ends with exit 2.  Nothing else escapes `cli.main`.

Cap values stay at or below the default of 20, so no example enumerates
more than 2^20 of anything: every product past 20 columns is refused
before it is built.  The run is derandomized and the example count
bounded.
"""

import contextlib
import io
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import (HealthCheck, example, given, settings,  # noqa: E402
                        strategies as st)

from hncodes import cli  # noqa: E402

DATA = Path(__file__).resolve().parent / "data"
CODES = sorted(str(p) for p in DATA.glob("*.code"))
MATROIDS = sorted(str(p) for p in DATA.glob("*.matroid"))
COMMANDS = ["weights", "polygon", "filtration", "semistable", "dual", "rr",
            "tensor", "matroid"]

SETTINGS = settings(max_examples=300, derandomize=True, deadline=None,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

JUNK = st.sampled_from(["1e3", "0x10", "²", "x", "", "-"])
NUMBER = st.integers(0, 15) | st.integers(-2, 600) | st.sampled_from(
    [2**61 - 1, 10**10])
J_VALUE = NUMBER.map(str) | NUMBER.map(hex) | JUNK
CAP_VALUE = st.integers(0, 20).map(str) | st.sampled_from(
    ["-1", "1_0", " 7", "٣"]) | JUNK
FLAG = st.one_of(
    st.tuples(st.just("--J"), J_VALUE),
    st.just(("--all",)),
    st.tuples(st.just("--max-enum"), CAP_VALUE),
    st.tuples(st.just("--side"), st.sampled_from(["code", "subset", "x"])),
    st.tuples(st.just("--format"), st.sampled_from(["json", "csv", "xml"])),
    st.sampled_from(["--J", "--max-enum", "--side", "--format"]).map(
        lambda flag: (flag,)),
)


@st.composite
def argvs(draw):
    """A subcommand, input files of the kind it reads, and up to three
    flags, each with a value or without."""
    command = draw(st.sampled_from(COMMANDS))
    files = st.sampled_from(MATROIDS if command == "matroid" else CODES)
    count = 2 if command == "tensor" else 1
    flags = draw(st.lists(FLAG, max_size=3))
    return [command, *(draw(files) for _ in range(count)),
            *(token for flag in flags for token in flag)]


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as e:
            assert e.code == 2, argv
            return "usage"


@SETTINGS
@given(argvs())
@example(["rr", CODES[0]])
@example(["rr", CODES[0], "--J", "5", "--all"])
def test_cli_arguments_exit_with_a_documented_code(argv):
    assert _exit_code(argv) in (0, 1, 3, 4, "usage"), argv
