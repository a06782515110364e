"""Fuzzing the command line.  Any mix of `--J`, `--max-enum`, `--side`,
`--format` and `--all`, given to a subcommand over the files in
`tests/data`, either runs to exit 0, 1, 3 or 4 or is a usage error that
argparse ends with exit 2; and the bytes of those files, mutated, are read
to exit 0 to 4.  Nothing else escapes `cli.main`.

Cap values stay at or below the default of 20, so no example enumerates
more than 2^20 of anything: every product past 20 columns is refused
before it is built.  The runs are derandomized and the example counts
bounded.
"""

import contextlib
import io
import re
import shutil
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import (HealthCheck, assume, example, given,  # noqa: E402
                        settings, strategies as st)

from hncodes import cli, formats  # noqa: E402
from hncodes.matroid import MATROID_CAP  # noqa: E402

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


# -- raw file bytes ----------------------------------------------------------
#
# The files of `tests/data` with their bytes flipped, inserted (non-UTF-8
# sequences among them) and truncated, and code files with their field line
# swapped for any modulus in range over q <= 32, reducible ones included.
# Each example is written into a fresh copy of `tests/data`, so a
# `from-code` directive still finds its code file.

FILES = CODES + MATROIDS
FIELD_LINES = [f"field {p} {m} {f}".encode()
               for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
               for m in range(1, 6) if p ** m <= 32
               for f in range(p ** m, 2 * p ** m)]
NON_UTF8 = st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xe2\x82",
                            b"\xed\xa0\x80", b"\xf4\x90\x80\x80"])
POSITION = st.integers(0, 200)
MUTATION = st.one_of(
    st.tuples(st.just("flip"), POSITION, st.integers(0, 7)),
    st.tuples(st.just("insert"), POSITION,
              st.binary(min_size=1, max_size=3) | NON_UTF8),
    st.tuples(st.just("truncate"), POSITION),
)
CODE_COMMANDS = [["weights"], ["polygon"], ["filtration"], ["semistable"],
                 ["dual"], ["rr", "--all"], ["rr", "--J", "5"], ["tensor"]]


def _mutate(data: bytes, mutations) -> bytes:
    buf = bytearray(data)
    for kind, pos, *arg in mutations:
        at = pos % (len(buf) + 1)
        if kind == "flip":
            if buf:
                buf[at % len(buf)] ^= 1 << arg[0]
        elif kind == "insert":
            buf[at:at] = arg[0]
        else:
            del buf[at:]
    return bytes(buf)


def _matroid_header_n(data: bytes):
    """n of a `matroid n k` first line, or None."""
    lines = formats._tokenize(data.decode("utf-8", errors="replace"))
    head = [tok[0] for tok in lines[0]] if lines else []
    if len(head) == 3 and head[0] == "matroid":
        try:
            return int(head[1], 0)
        except ValueError:
            return None
    return None


@st.composite
def mutated_runs(draw):
    """The name and mutated bytes of a data file, then the subcommand,
    the files it reads and its flags."""
    source = Path(draw(st.sampled_from(FILES)))
    data = source.read_bytes()
    if source.suffix == ".code" and draw(st.booleans()):
        data = re.sub(rb"(?m)^field .*$", draw(st.sampled_from(FIELD_LINES)),
                      data, count=1)
    data = _mutate(data, draw(st.lists(MUTATION, max_size=4)))
    name = "example" + source.suffix
    if source.suffix == ".matroid":
        # ground sets past 12 and within the cap are valid input that
        # costs seconds to build and check
        n = _matroid_header_n(data)
        assume(n is None or not 12 < n <= MATROID_CAP)
        return name, data, "matroid", [name], []
    command, *flags = draw(st.sampled_from(CODE_COMMANDS))
    files = [name]
    if command == "tensor":
        files.insert(draw(st.integers(0, 1)),
                     Path(draw(st.sampled_from(CODES))).name)
    return name, data, command, files, [*flags, "--max-enum", "12"]


@SETTINGS
@given(mutated_runs())
@example(("x.code", b"field 2 2 6\ncode 2 1\n1 1\n", "weights", ["x.code"],
          ["--max-enum", "12"]))
@example(("x.matroid", b"from-code \x00binary_9_7.code\n", "matroid",
          ["x.matroid"], []))
def test_cli_reads_mutated_file_bytes_with_a_documented_exit(run):
    name, data, command, files, flags = run
    with tempfile.TemporaryDirectory() as tmp:
        for path in DATA.iterdir():
            shutil.copyfile(path, Path(tmp, path.name))
        Path(tmp, name).write_bytes(data)
        argv = [command, *(str(Path(tmp, f)) for f in files), *flags]
        assert _exit_code(argv) in (0, 1, 2, 3, 4, "usage"), argv
