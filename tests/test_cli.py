"""Command line behavior: golden outputs, determinism, exit codes, formats."""

import csv
import io
import json
import random
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

import hncodes.algebra as algebra
import hncodes.cli as cli
import hncodes.code as code
import hncodes.rr as rr
import hncodes.tensor as tensor
from hncodes import LinearCode, matroid_from_code, zoo
from hncodes.formats import parse_code_file
from conftest import SRC, run_cli, run_python

import oracles

HERE = Path(__file__).resolve().parent

GOLDEN_CASES = [
    ("weights_9_7.json", ["weights", "data/binary_9_7.code"]),
    ("semistable_9_7.json", ["semistable", "data/binary_9_7.code"]),
    ("semistable_5_2.json", ["semistable", "data/binary_5_2.code"]),
    ("semistable_5_2_square.json",
     ["semistable", "data/binary_5_2_square.code"]),
    ("weights_3_2_2.json", ["weights", "data/binary_3_2_2.code"]),
    ("filtration_9_7.json", ["filtration", "data/binary_9_7.code"]),
    ("dual_5_2.json", ["dual", "data/binary_5_2.code"]),
    ("dual_9_7.json", ["dual", "data/binary_9_7.code"]),
    ("rr_all_5_2.json", ["rr", "data/binary_5_2.code", "--all"]),
    ("tensor_3_2_2_5_2.json",
     ["tensor", "data/binary_3_2_2.code", "data/binary_5_2.code"]),
    ("matroid_u24.json", ["matroid", "data/u24.matroid"]),
    ("matroid_from_code_9_7.json", ["matroid", "data/from_code_9_7.matroid"]),
]


def test_child_imports_checkout_src():
    """The CLI children import `hncodes` from this checkout's `src`, even
    though they run with `cwd=tests/` (a relative `PYTHONPATH=src` inherited
    unchanged would point at the missing `tests/src`)."""
    proc = run_python("-c", "import hncodes, sys; print(hncodes.__file__)")
    assert proc.returncode == 0, proc.stderr
    path = Path(proc.stdout.strip()).resolve()
    assert path.is_relative_to((SRC / "hncodes").resolve()), path


@pytest.mark.parametrize("golden,args", GOLDEN_CASES,
                         ids=[g.removesuffix(".json") for g, _ in GOLDEN_CASES])
def test_golden_outputs(golden, args):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    text = (HERE / "golden" / golden).read_text()
    assert proc.stdout == text
    json.loads(text)                             # goldens are valid JSON


def test_byte_identical_reruns():
    for args in (["weights", "data/binary_9_7.code"],
                 ["polygon", "data/binary_9_7.code", "--side", "subset"],
                 ["filtration", "data/binary_9_7.code"],
                 ["dual", "data/binary_5_2.code"],
                 ["rr", "data/binary_5_2.code", "--all"],
                 ["tensor", "data/binary_3_2_2.code", "data/binary_5_2.code"],
                 ["matroid", "data/u24.matroid"],
                 ["matroid", "data/from_code_9_7.matroid"]):
        a, b = run_cli(*args), run_cli(*args)
        assert a.returncode == 0 and b.returncode == 0, (args, a.stderr)
        assert a.stdout == b.stdout
        assert a.stderr.startswith("# timing:")
        assert "timing" not in a.stdout


def test_usage_errors_exit_2():
    assert run_cli("nonsense").returncode == 2
    assert run_cli("weights").returncode == 2
    assert run_cli("weights", "data/binary_5_2.code",
                   "--max-enum", "-1").returncode == 2
    proc = run_cli("weights", "data/absent.code")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert proc.stdout == ""
    # rr takes exactly one of --J and --all; matroid (bounded by its
    # ground-set cap) and selftest (built-in sizes) take no --max-enum
    path = str(HERE / "data" / "binary_5_2.code")
    for argv in (["rr", path], ["rr", path, "--J", "5", "--all"],
                 ["matroid", str(HERE / "data" / "u24.matroid"),
                  "--max-enum", "24"],
                 ["selftest", "--max-enum", "0"]):
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        assert exit_.value.code == 2, argv


def test_parse_error_exits_2(tmp_path):
    bad = tmp_path / "bad.code"
    bad.write_text("field 2 1\ncode 3 2\n101\n011\n1\n")
    proc = run_cli("weights", str(bad))
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    # bytes that are not UTF-8 fail in position, not with a traceback
    bad.write_bytes(b"field 2 1\ncode 1 1\n\xff\n")
    proc = run_cli("weights", str(bad))
    assert proc.returncode == 2
    assert "line 3, column 1" in proc.stderr
    bad_matroid = tmp_path / "bad.matroid"
    bad_matroid.write_bytes(b"matroid 2 1\n\xff\n")
    proc = run_cli("matroid", str(bad_matroid))
    assert proc.returncode == 2
    assert "line 2, column 1" in proc.stderr


def test_invariant_violation_exits_3(tmp_path):
    bad = tmp_path / "dependent.code"
    bad.write_text("field 2 1\ncode 3 2\n101\n101\n")
    proc = run_cli("weights", str(bad))
    assert proc.returncode == 3
    assert "error:" in proc.stderr


def test_rr_all_on_the_full_space_exits_0(tmp_path):
    # the full space's dual is the zero code, whose rank table is all
    # zeros, so both identities hold; its own rank table is read first, so
    # the cap still decides past it
    full = tmp_path / "full_5.code"
    full.write_text("field 2 1\ncode 5 5\n"
                    + "".join(f"{1 << i:05b}\n" for i in range(5)))
    proc = run_cli("rr", str(full), "--all")
    assert proc.returncode == 0
    results = json.loads(proc.stdout)["results"]
    assert results["rr_ok"] is True and results["serre_ok"] is True
    assert run_cli("rr", str(full), "--all",
                   "--max-enum", "4").returncode == 4


def test_cap_exceeded_exits_4():
    proc = run_cli("semistable", "data/binary_9_7.code", "--max-enum", "4")
    assert proc.returncode == 4
    assert "error:" in proc.stderr


def test_tensor_of_20_columns_runs_at_the_default_cap(tmp_path, capsys):
    a = tmp_path / "a.code"
    a.write_text("field 2 1\ncode 4 2\n1100\n0011\n")
    b = str(HERE / "data" / "binary_5_2.code")
    assert cli.main(["tensor", str(a), b]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["product"]["n"] == 20
    assert results["semistable"]["preservation"]["ok"] is True
    assert cli.main(["tensor", str(a), b, "--max-enum", "19"]) == 4


# Bounds tests run the child under a 1 GB address space and a timeout, so
# a bound checked only after the work it guards fails fast, not by hanging.
BOUNDED = dict(timeout=20, max_memory=1 << 30)


def test_matroid_ground_set_refused_before_its_table(tmp_path):
    # 2^34 rank-table bytes would be allocated if the cap came second
    big = tmp_path / "big.matroid"
    big.write_text("matroid 34 1\n1\n")
    proc = run_cli("matroid", str(big), **BOUNDED)
    assert proc.returncode == 4
    assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("field_line", [
    "field 2305843009213693951 1",     # a Mersenne prime: no trial division
    "field 2 10000000000 7",           # no 2^(10^10) field order
])
def test_field_bounds_checked_before_work(tmp_path, field_line):
    bad = tmp_path / "huge_field.code"
    bad.write_text(f"{field_line}\ncode 1 1\n1\n")
    proc = run_cli("weights", str(bad), **BOUNDED)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("modulus", [283, 285])
def test_weights_over_gf256_finds_a_generator(tmp_path, modulus):
    # x has order 51 modulo 283 and x^7 + ... + x + 1 (the integer 255)
    # has order 51 modulo 285, so a generator search that starts at either
    # end passes over a candidate in one of the two fields
    rng = random.Random(modulus)
    rows = [[rng.randrange(256) for _ in range(7)] for _ in range(3)]
    path = tmp_path / f"gf256_{modulus}.code"
    path.write_text(f"field 2 8 {modulus}\ncode 7 3\n"
                    + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    proc = run_cli("weights", str(path))
    assert proc.returncode == 0, proc.stderr
    C = code.LinearCode.from_rows(algebra.FieldSpec(2, 8, modulus), rows)
    results = json.loads(proc.stdout)["results"]
    assert results["q"] == 256
    assert results["weight_hierarchy"] == list(C.weight_hierarchy())


def test_reducible_degree_8_modulus_exits_3(tmp_path):
    # 284 = x^8 + x^4 + x^3 + x^2 is divisible by x
    path = tmp_path / "gf256_284.code"
    path.write_text("field 2 8 284\ncode 2 1\n1 2\n")
    proc = run_cli("weights", str(path))
    assert proc.returncode == 3
    assert "reducible" in proc.stderr
    assert "Traceback" not in proc.stderr


def write_random_binary_code(path, seed, n, k):
    C = zoo.random_code(random.Random(seed), zoo.gf2(), n, k)
    rows = ["".join(map(str, C.gen.row(i))) for i in range(k)]
    path.write_text("\n".join(["field 2 1", f"code {n} {k}", *rows]) + "\n")
    return str(path)


def test_dual_honours_a_raised_cap(tmp_path, capsys):
    path = write_random_binary_code(tmp_path / "b21.code", 2101, 21, 11)
    assert cli.main(["dual", path]) == 4
    capsys.readouterr()
    assert cli.main(["dual", path, "--max-enum", "22"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["subset_polygon_duality_ok"] is True
    assert results["slope_map"]["ok"] is True


def test_sum_past_the_cap_runs_at_the_default_cap(tmp_path, capsys):
    # a shuffled binary [40,20] = [20,10] + [20,10] is searched block by
    # block, so each least-rank subcommand answers at the default cap, and
    # its answers are those merged from the blocks' own searches; a cap
    # below its largest block, 20 columns, still refuses it
    from test_hn import merged_from_blocks, shuffled_sum
    rng = random.Random(3806)
    blocks = [zoo.random_code(rng, zoo.gf2(), 20, 10) for _ in range(2)]
    C, at = shuffled_sum(rng, blocks)
    _, _, hier, vertices = merged_from_blocks(blocks, at)
    rows = ["".join(map(str, C.gen.row(i))) for i in range(C.k)]
    path = tmp_path / "sum40.code"
    path.write_text("\n".join(["field 2 1", "code 40 20", *rows]) + "\n")
    out = {}
    for command in ("weights", "polygon", "filtration", "semistable"):
        assert cli.main([command, str(path)]) == 0
        out[command] = json.loads(capsys.readouterr().out)["results"]
        assert cli.main([command, str(path), "--max-enum", "19"]) == 4
        capsys.readouterr()
    assert out["weights"]["weight_hierarchy"] == list(hier)
    polygon = [[x, str(Fraction(y))] for x, y in vertices]
    assert [[x, str(Fraction(y))] for x, y in
            out["polygon"]["polygon"]["vertices"]] == polygon
    assert out["filtration"]["length"] == len(vertices) - 1
    assert out["semistable"]["semistable"] == (len(vertices) == 2)


def test_from_code_matroid_runs_past_the_table_cap(tmp_path, capsys):
    # a `from-code` file reads as its code, at the default cap of 2^20
    # columns, not as a rank table refused past MATROID_CAP = 16 elements;
    # its Riemann-Roch line compares the code's table with its dual's
    from hncodes.matroid import MATROID_CAP
    path = write_random_binary_code(tmp_path / "b18.code", 1809, 18, 9)
    (tmp_path / "b18.matroid").write_text("from-code b18.code\n")
    assert cli.main(["matroid", str(tmp_path / "b18.matroid")]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    C = zoo.random_code(random.Random(1809), zoo.gf2(), 18, 9)
    assert (results["n"], results["k"]) == (18, 9) and MATROID_CAP < 18
    rr_ok, serre_ok = oracles.table_rr_serre(18, C.rank_table(),
                                             C.dual().rank_table())
    assert results["checks"]["rr"] is rr_ok is serre_ok is True
    assert results["all_ok"] is True
    assert results["hierarchy"] == list(C.weight_hierarchy()[1:])
    assert parse_code_file(path) == C


def test_from_code_matroid_reports_match_the_table_path(tmp_path, capsys,
                                                        monkeypatch):
    # the `matroid` report of a `from-code` file, read as its code, is the
    # one built on `matroid_from_code`, its rank table; a full-space code,
    # which has no dual LinearCode, is read as that table
    from test_hn import codes_with_loops_and_copies
    rng = random.Random(4101)
    codes = codes_with_loops_and_copies(rng, 40, nmax=10, kmax=5)
    codes.append(LinearCode.from_rows(zoo.gf3(), [[1, 2, 0], [0, 1, 1],
                                                  [0, 0, 2]]))
    assert codes[-1].k == codes[-1].n
    assert sum(not C.is_full_support for C in codes) >= 5

    def report(path):
        rc = cli.main(["matroid", path])
        return rc, capsys.readouterr().out
    for i, C in enumerate(codes):
        f = C.field
        head = f"field {f.p} {f.m}" + (f" {f.modulus}" if f.m > 1 else "")
        rows = ["".join(map(str, C.gen.row(r))) for r in range(C.k)]
        (tmp_path / f"c{i}.code").write_text(
            "\n".join([head, f"code {C.n} {C.k}", *rows]) + "\n")
        path = tmp_path / f"c{i}.matroid"
        path.write_text(f"from-code c{i}.code\n")
        got = report(str(path))
        with monkeypatch.context() as m:
            m.setattr(cli, "parse_matroid_file",
                      lambda _: matroid_from_code(C))
            assert report(str(path)) == got
        assert got[0] == 0


def test_rr_honours_a_raised_cap(tmp_path, capsys):
    path = write_random_binary_code(tmp_path / "b21.code", 2106, 21, 6)
    assert cli.main(["rr", path, "--J", "5"]) == 4
    capsys.readouterr()
    assert cli.main(["rr", path, "--J", "5", "--max-enum", "22"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    C = zoo.random_code(random.Random(2106), zoo.gf2(), 21, 6)
    d1 = min(sum(x != 0 for x in w) for w in C.codewords() if any(w))
    assert results["genus"] == 21 - 6 - d1 + 1
    assert results["normalized_degree"] == 2 - d1


def test_tensor_searches_each_code_once(monkeypatch, capsys):
    # cmd_tensor and tensor_semistable_check share one product code
    lengths = []
    search = algebra.min_column_rank_by_size

    def spy(M, *args, **kwargs):
        lengths.append(M.n)
        return search(M, *args, **kwargs)
    monkeypatch.setattr(algebra, "min_column_rank_by_size", spy)
    data = HERE / "data"
    assert cli.main(["tensor", str(data / "binary_3_2_2.code"),
                     str(data / "binary_5_2.code")]) == 0
    report = json.loads(capsys.readouterr().out)["results"]
    assert report["semistable"]["preservation"]["ok"] is True
    assert sorted(lengths) == [3, 5, 15]


def test_tensor_reads_each_factors_chain_levels_once(monkeypatch, capsys):
    # the chain verdicts cmd_tensor reports are kept on the factors, so
    # wei_yang_check reads them instead of each factor's levels again
    read = []
    levels = tensor._levels

    def spy(C):
        read.append(C.n)
        return levels(C)
    monkeypatch.setattr(tensor, "_levels", spy)
    data = HERE / "data"
    assert cli.main(["tensor", str(data / "binary_3_2_2.code"),
                     str(data / "binary_5_2.code")]) == 0
    report = json.loads(capsys.readouterr().out)["results"]
    assert report["wei_yang"] == {"applicable": True, "ok": True}
    assert sorted(read) == [3, 5]


def test_rr_all_checks_every_subset_it_reports(tmp_path, capsys,
                                                monkeypatch):
    # the checks read the full rank tables of the code and its dual
    seen = []
    rank_table = code.column_rank_table

    def spy(*args, **kwargs):
        table = rank_table(*args, **kwargs)
        seen.append(len(table))
        return table
    monkeypatch.setattr(code, "column_rank_table", spy)
    path = write_random_binary_code(tmp_path / "b17.code", 1701, 17, 6)
    assert cli.main(["rr", path, "--all"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["subsets"] == 1 << 17
    assert seen == [1 << 17, 1 << 17]


def test_rr_all_compares_the_tables_once(monkeypatch, capsys):
    # Riemann-Roch and Serre duality are one table identity, so `rr --all`
    # fills both verdicts from a single rr_check
    calls = []
    rr_check = rr.rr_check

    def spy(*args, **kwargs):
        calls.append(args)
        return rr_check(*args, **kwargs)
    monkeypatch.setattr(rr, "rr_check", spy)
    monkeypatch.setattr(cli, "rr_check", spy)
    path = str(HERE / "data" / "binary_9_7.code")
    assert cli.main(["rr", path, "--all"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["rr_ok"] is results["serre_ok"] is True
    assert len(calls) == 1


def test_check_violation_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "dual_subset_polygon_check",
                        lambda C: False)
    rc = cli.main(["dual", str(HERE / "data" / "binary_5_2.code")])
    assert rc == 1
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["subset_polygon_duality_ok"] is False


def test_svg_output(tmp_path):
    out = tmp_path / "poly.svg"
    proc = run_cli("polygon", "data/binary_9_7.code", "--svg", str(out))
    assert proc.returncode == 0, proc.stderr
    root = ET.parse(out).getroot()
    assert root.tag.split("}")[-1] == "svg"
    tags = {el.tag.split("}")[-1] for el in root.iter()}
    assert "polyline" in tags


def test_csv_format_round_trip():
    proc = run_cli("weights", "data/binary_5_2.code", "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["key", "value"]
    table = dict(rows[1:])
    assert table["results.n"] == "5"
    assert table["results.weight_hierarchy[2]"] == "5"
    assert table["results.dlp[5]"] == "2"


def test_selftest_passes():
    proc = run_cli("selftest")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["results"]["all_ok"] is True
    names = [c["name"] for c in report["results"]["checks"]]
    assert len(names) == len(set(names)) == 11
    assert all(c["ok"] for c in report["results"]["checks"])
