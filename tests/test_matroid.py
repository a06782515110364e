"""Rank-table matroids: axioms, duality, minors, and slope data."""

import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import hncodes.algebra as algebra
import hncodes.cli as cli
from hncodes import (
    InvariantViolation,
    LinearCode,
    SizeLimitExceeded,
    matroid_from_bases,
    matroid_from_code,
    subset_polygon,
    zoo,
)
from hncodes.algebra import (enumeration_cap, least_ranks,
                             least_ranks_of_table, popcounts, subsets_where)
from hncodes.code import mask_of
from hncodes.formats import parse_code_file
from hncodes.matroid import (
    Matroid,
    dual_polygon_check,
    gap_counts_check,
    gap_duality_check,
    rr_matroid_check,
    uniform_matroid,
    wei_partition_check,
)
from hncodes.rr import rr_check, serre_check

import oracles

GF2, GF3, GF4 = zoo.gf2(), zoo.gf3(), zoo.gf4()


def random_matroids(rng, count, nmax=8):
    out = []
    for _ in range(count):
        field = rng.choice([GF2, GF3])
        n = rng.randrange(1, nmax + 1)
        k = rng.randrange(1, n + 1)
        out.append(matroid_from_code(zoo.random_code(rng, field, n, k)))
    return out


# ---------------------------------------------------------------------------
# construction and axioms
# ---------------------------------------------------------------------------

def test_uniform_matroid_basics():
    M = uniform_matroid(2, 4)
    assert (M.n, M.k) == (4, 2)
    assert M.rank_of(0b0110) == 2
    assert M.rank_of(0b0100) == 1
    assert M.hierarchy() == (3, 4)
    assert M.profile() == (0, 0, 0, 1, 2)
    assert M.gaps() == (1, 2)
    assert M.nongaps() == (3, 4)
    assert M.polygon().vertices == ((0, Fraction(2)), (4, Fraction(0)))
    assert M.is_semistable()
    with pytest.raises(InvariantViolation):
        uniform_matroid(3, 2)


def test_rank_axiom_validation():
    with pytest.raises(InvariantViolation):
        Matroid.from_ranks(2, [1, 1, 1, 2])       # empty set must have rank 0
    with pytest.raises(InvariantViolation):
        Matroid.from_ranks(2, [0, 2, 1, 2])       # unit increments only
    with pytest.raises(InvariantViolation):
        Matroid.from_ranks(2, [0, 0, 0, 1])       # fails semimodularity
    with pytest.raises(InvariantViolation):
        Matroid.from_ranks(2, [0, 1, 1])          # wrong table size
    Matroid.from_ranks(2, [0, 1, 1, 2])           # valid, no raise


def test_rank_axioms_against_the_subset_scan():
    # the whole-table check accepts and refuses exactly the tables the
    # subset-by-subset scan does, with the scan's message: valid tables,
    # one-entry corruptions, entries above n and tables that shrink
    rng = random.Random(383)
    kinds = {"valid": 0, "corrupt": 0, "above": 0, "shrink": 0}
    refused = 0
    pool = [M.ranks for M in table_oracle_pool(rng)]
    pool += [M.ranks for M in random_matroids(rng, 150, nmax=9)]
    for _ in range(600):
        r = bytearray(rng.choice(pool))
        n = len(r).bit_length() - 1
        kind = rng.choice(sorted(kinds))
        J = rng.randrange(len(r))
        if kind == "corrupt":
            r[J] = rng.randrange(n + 2)
        elif kind == "above":
            r[J] = rng.randrange(n + 1, 256)
        elif kind == "shrink" and J:
            sub = J & (J - 1) if rng.random() < 0.5 else 0
            r[J] = max(0, r[sub] - 1)
        kinds[kind] += 1
        expect = oracles.rank_axiom_failure(n, r)
        if expect is None:
            assert Matroid.from_ranks(n, r).ranks == bytes(r)
        else:
            refused += 1
            with pytest.raises(InvariantViolation) as err:
                Matroid.from_ranks(n, r)
            assert str(err.value) == expect
    assert min(kinds.values()) >= 100 and 150 <= refused <= 450


def test_corrupted_code_table_caught():
    C = zoo.binary_5_2()
    table = bytearray(C.rank_table())
    table[0b00111] = 0
    with pytest.raises(InvariantViolation):
        Matroid.from_ranks(C.n, bytes(table))


def test_bases_of_a_non_matroid_rejected_above_twelve_elements():
    # U_{4,13} less the two bases {0,1,6,9} and {1,2,6,9}: both 4-subsets
    # over J = {1,6,9} now have rank 3 while their union keeps rank 4, so
    # local semimodularity fails at J and nowhere else; every subset of
    # the ground set must be checked to find it
    J = 0b1001000010
    bases = [mask_of(c) for c in itertools.combinations(range(13), 4)
             if mask_of(c) not in (J | 0b1, J | 0b100)]
    with pytest.raises(InvariantViolation, match="subset 578, elements 0, 2"):
        matroid_from_bases(13, bases)


def test_validation_agrees_with_global_axioms():
    rng = random.Random(307)
    for M in random_matroids(rng, 12, nmax=7):
        assert oracles.brute_semimodular(M.n, M.ranks)


def test_rank_table_entries_outside_a_byte_refused():
    for table in ([0, 300], [0, -1], [0, 1.0], [0, "1"]):
        with pytest.raises(InvariantViolation):
            Matroid.from_ranks(1, table)


def test_bases_table_matches_the_basis_formula(monkeypatch):
    # the table matroid_from_bases hands to from_ranks is max #(B & J),
    # also for families that are not the bases of a matroid
    tables = []
    monkeypatch.setattr(Matroid, "from_ranks",
                        classmethod(lambda cls, n, r: tables.append(r)))
    rng = random.Random(367)
    for _ in range(300):
        n = rng.randrange(1, 9)
        bases = [rng.randrange(1 << n) for _ in range(rng.randrange(1, 7))]
        matroid_from_bases(n, bases)
        assert bytes(tables[-1]) == oracles.bases_rank_table(n, bases)


def test_bases_of_a_large_uniform_matroid_are_read_fast():
    bases = [mask_of(c) for c in itertools.combinations(range(14), 7)]
    assert len(bases) == 3432
    t0 = time.perf_counter()
    M = matroid_from_bases(14, bases)
    assert time.perf_counter() - t0 < 2.0
    assert M == uniform_matroid(7, 14)


def test_ground_set_cap():
    with pytest.raises(SizeLimitExceeded):
        Matroid.from_ranks(17, bytes(1 << 17))
    # a code matroid is refused by the matroid cap, which no --max-enum
    # raises, not by the code's enumeration cap
    C = LinearCode.from_rows(GF2, [(1,) * 9 + (0,) * 9, (0,) * 9 + (1,) * 9])
    with pytest.raises(SizeLimitExceeded) as err:
        matroid_from_code(C)
    assert "matroid ground sets" in str(err.value)
    assert "--max-enum" not in str(err.value)


def test_negative_ground_set_refused():
    # refused by the ground-set check, before any 1 << n is formed
    with pytest.raises(InvariantViolation):
        Matroid.from_ranks(-1, [])
    with pytest.raises(InvariantViolation):
        matroid_from_bases(-2, [0])


# ---------------------------------------------------------------------------
# code matroids
# ---------------------------------------------------------------------------

def test_from_code_ranks_match_column_ranks():
    rng = random.Random(311)
    for _ in range(8):
        field = rng.choice([GF2, GF3])
        n = rng.randrange(1, 7)
        k = rng.randrange(1, n + 1)
        C = zoo.random_code(rng, field, n, k)
        M = matroid_from_code(C)
        rows = oracles.rows_of(C)
        for J in range(1 << n):
            cols = [i for i in range(n) if (J >> i) & 1]
            assert M.rank_of(J) == oracles.brute_column_rank(field, rows, cols)


def test_matroid_cohomology_matches_code():
    rng = random.Random(313)
    for _ in range(8):
        field = rng.choice([GF2, GF3])
        n = rng.randrange(1, 7)
        k = rng.randrange(1, n + 1)
        C = zoo.random_code(rng, field, n, k)
        M = matroid_from_code(C)
        rows = oracles.rows_of(C)
        for J in range(1 << n):
            bits = [i for i in range(n) if (J >> i) & 1]
            h1 = oracles.matroid_h1(M, J)
            assert oracles.matroid_h0(M, J) == oracles.brute_h0(field, rows,
                                                                bits)
            assert h1 == oracles.brute_h1(field, rows, bits)
            # h1 here is h0 of the dual matroid on the complement
            assert h1 == oracles.matroid_h0(M.dual(), ((1 << n) - 1) ^ J)


def test_matroid_invariants_match_code_invariants():
    rng = random.Random(317)
    pool = [zoo.binary_9_7(), zoo.binary_5_2(), zoo.simplex(3)]
    for _ in range(10):
        n = rng.randrange(2, 9)
        pool.append(zoo.random_code(rng, rng.choice([GF2, GF3]), n,
                                    rng.randrange(1, min(4, n) + 1)))
    for C in pool:
        M = matroid_from_code(C)
        assert M.hierarchy() == C.weight_hierarchy()[1:]
        assert M.profile() == C.dlp()
        assert M.polygon() == subset_polygon(C)


def test_simplex_matroid_hierarchy():
    M = matroid_from_code(zoo.simplex(3))
    d, kj, gaps, nongaps = M.hierarchy(), M.profile(), M.gaps(), M.nongaps()
    assert d == (4, 6, 7)
    assert kj == (0, 0, 0, 0, 1, 1, 2, 3)
    assert gaps == (1, 2, 3, 5)
    assert nongaps == (4, 6, 7)


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def test_dual_involution_and_uniform_dual():
    rng = random.Random(331)
    for M in random_matroids(rng, 12, nmax=8) + [uniform_matroid(2, 5)]:
        D = M.dual()
        assert D.dual() == M
        assert D.k == M.n - M.k
    assert uniform_matroid(2, 5).dual() == uniform_matroid(3, 5)


def test_dual_matches_code_dual():
    rng = random.Random(337)
    for _ in range(10):
        field = rng.choice([GF2, GF3])
        n = rng.randrange(2, 9)
        k = rng.randrange(1, n)
        C = zoo.random_code(rng, field, n, k)
        assert matroid_from_code(C).dual() == matroid_from_code(C.dual())


def test_dual_via_cobases():
    # rank from complements of bases equals the rank-formula dual
    M = matroid_from_code(zoo.binary_5_2())
    full = (1 << M.n) - 1
    bases = [J for J in range(1 << M.n)
             if J.bit_count() == M.k and M.rank_of(J) == M.k]
    cobases = [full ^ B for B in bases]
    assert matroid_from_bases(M.n, cobases) == M.dual()


def test_matroid_check_functions():
    rng = random.Random(347)
    pool = random_matroids(rng, 15, nmax=8)
    pool += [uniform_matroid(k, n) for n in range(1, 7) for k in range(n + 1)]
    for M in pool:
        assert rr_matroid_check(M)
        assert gap_counts_check(M)
        assert gap_duality_check(M)
        assert wei_partition_check(M)
        assert dual_polygon_check(M)


# ---------------------------------------------------------------------------
# minors and slope data
# ---------------------------------------------------------------------------

def test_restrict_and_contract():
    # both are minors of the one table: contract S, keep the given elements
    M = matroid_from_code(zoo.binary_9_7())
    R = M._minor([0, 1, 2, 3], 0)
    assert R.n == 4
    assert R.k == M.rank_of(0b1111)
    for S in range(1 << 4):
        assert R.rank_of(S) == M.rank_of(S)      # low bits map to themselves
    Cn = M._minor([4, 5, 6, 7, 8], 0b1111)
    assert Cn.n == 5
    assert Cn.k == M.k - M.rank_of(0b1111)
    for S in range(1 << 5):
        assert Cn.rank_of(S) == M.rank_of((S << 4) | 0b1111) - M.rank_of(0b1111)


def test_filtration_of_9_7_matroid():
    M = matroid_from_code(zoo.binary_9_7())
    filt = M.filtration()
    assert filt.ranks == (0, 4, 9)
    assert filt.slopes == (Fraction(-3, 4), Fraction(-4, 5))
    assert filt.steps[1].bit_count() == 4
    for A, B in zip(filt.steps, filt.steps[1:]):
        assert A & ~B == 0                       # nested subsets


def test_graded_minors_are_semistable():
    M = matroid_from_code(zoo.binary_9_7())
    pieces = M.graded()
    assert [(g.n, g.k) for g in pieces] == [(4, 3), (5, 4)]
    assert [g.polygon().slopes for g in pieces] == \
        [(Fraction(-3, 4),), (Fraction(-4, 5),)]
    rng = random.Random(353)
    for M in random_matroids(rng, 20, nmax=8):
        for piece in M.graded():
            assert piece.is_semistable()
    # uniform matroids are semistable: one piece, the matroid itself
    U = uniform_matroid(2, 4)
    assert U.graded() == [U]


def test_graded_minors_take_one_table_pass(monkeypatch):
    # each piece is one minor of the matroid's own table; no intermediate
    # contraction or restriction is built on the way
    minors = []
    minor = Matroid._minor

    def counted(self, elems, S):
        minors.append((self, S))
        return minor(self, elems, S)
    monkeypatch.setattr(Matroid, "_minor", counted)
    M = matroid_from_code(zoo.binary_9_7())
    assert [(g.n, g.k) for g in M.graded()] == [(4, 3), (5, 4)]
    assert minors == [(M, 0), (M, M.filtration().steps[1])]
    U = uniform_matroid(2, 4)
    (piece,) = U.graded()
    assert piece is U
    assert len(minors) == 2


def test_semistable_matches_subset_side():
    rng = random.Random(359)
    for M in random_matroids(rng, 20, nmax=8):
        assert M.is_semistable() == (M.polygon().N <= 1)


# ---------------------------------------------------------------------------
# the column searches on the rank-table oracle
# ---------------------------------------------------------------------------

def partition_bases(sizes):
    """Bases of the partition matroid with one element per block."""
    bases = [0]
    off = 0
    for size in sizes:
        bases = [b | (1 << (off + e)) for b in bases for e in range(size)]
        off += size
    return bases


def direct_sum(A, B):
    low = (1 << A.n) - 1
    return Matroid.from_ranks(A.n + B.n, [A.ranks[J & low] + B.ranks[J >> A.n]
                                          for J in range(1 << (A.n + B.n))])


def vamos():
    """The Vamos matroid V8: rank 4 on four couples {0,1}, ..., {6,7};
    every 4-set has rank 4 except the union of two couples, other than the
    last two.  No code over any field has it as its column matroid."""
    couples = [0b11 << (2 * i) for i in range(4)]
    planes = {a | b for a, b in itertools.combinations(couples, 2)}
    planes.remove(couples[2] | couples[3])
    return Matroid.from_ranks(8, [3 if J in planes else min(J.bit_count(), 4)
                                  for J in range(1 << 8)])


def code_matroid_with_loops_and_copies(rng, field, n):
    """Column matroid of a random code whose columns are fresh, copies of
    earlier ones, or zero."""
    k = rng.randrange(1, min(3, n) + 1)
    base = oracles.rows_of(zoo.random_code(rng, field, k, k))
    cols = [[r[i] for r in base] for i in range(k)]
    while len(cols) < n:
        kind = rng.choice(("fresh", "copy", "zero"))
        if kind == "fresh":
            cols.append([rng.randrange(field.q) for _ in range(k)])
        elif kind == "copy":
            cols.append(list(rng.choice(cols)))
        else:
            cols.append([0] * k)
    rng.shuffle(cols)
    rows = [[c[i] for c in cols] for i in range(k)]
    return matroid_from_code(LinearCode.from_rows(field, rows))


def table_oracle_pool(rng):
    pool = [uniform_matroid(k, n) for n, k in ((1, 0), (4, 2), (6, 6), (7, 3))]
    pool += [matroid_from_bases(sum(sizes), partition_bases(sizes))
             for sizes in ((2, 3, 1), (3, 3, 3), (1, 1, 4), (4,))]
    codes = [code_matroid_with_loops_and_copies(
                 rng, rng.choice((GF2, GF3, GF4)), rng.randrange(1, 9))
             for _ in range(30)]
    pool += codes
    small = [M for M in codes if M.n <= 6]
    pool += [direct_sum(rng.choice(small), rng.choice(small))
             for _ in range(12)]
    V = vamos()
    pool += [V, direct_sum(V, uniform_matroid(1, 4)),
             direct_sum(uniform_matroid(3, 3), V)]
    return pool


def test_table_oracle_against_table_scans():
    rng = random.Random(373)
    multi = 0
    for M in table_oracle_pool(rng):
        n, k, ranks = M.n, M.k, M.ranks
        minr = oracles.table_minima(n, ranks)
        best, wits = least_ranks(M)
        assert best == minr
        for s, w in enumerate(wits):
            assert w.bit_count() == s and ranks[w] == minr[s]
        # each witness is the least mask of its size attaining the minimum
        assert (best, wits) == oracles.table_least_masks(n, ranks)
        targets = [(s, rng.randrange(k + 1)) for s in range(n + 1)
                   if rng.random() < 0.5]
        hits = {s: subsets_where(M.rank_table(), s, r) for s, r in targets}
        assert hits == oracles.table_subsets_attaining(ranks, targets)
        # the invariants the matroid reads from its least-rank search
        assert M.profile() == tuple(k - minr[n - j] for j in range(n + 1))
        poly = M.polygon()
        assert list(poly.vertices) == \
            oracles.envelope_vertices([k - m for m in minr])
        filt = M.filtration()
        for (s, v), step in zip(poly.vertices, filt.steps):
            assert oracles.table_subsets_attaining(
                ranks, [(s, k - v)]) == {s: [step]}
        pieces = M.graded()
        assert len(pieces) == poly.N
        for a, piece in enumerate(pieces):
            prev, new = filt.steps[a], filt.steps[a + 1] & ~filt.steps[a]
            elems = [e for e in range(n) if (new >> e) & 1]
            expect = [ranks[prev | sum(1 << elems[i] for i in range(len(elems))
                                       if (X >> i) & 1)] - ranks[prev]
                      for X in range(1 << len(elems))]
            assert piece.ranks == bytes(expect)
            pm = oracles.table_minima(piece.n, piece.ranks)
            (x0, y0), (x1, y1) = oracles.envelope_vertices(
                [piece.k - m for m in pm])
            assert Fraction(y1 - y0, x1 - x0) == filt.slopes[a]
        multi += poly.N > 1
    assert multi >= 10


def test_whole_tables_against_the_subset_scans():
    # the dual table, the Riemann-Roch and Serre checks and the uniform
    # tables against the subset-by-subset references, on code matroids up
    # to n = 12 and one n = 16 code
    rng = random.Random(389)
    pool = [matroid_from_code(zoo.random_code(rng, rng.choice((GF2, GF3)), n,
                                              rng.randrange(1, n + 1)))
            for n in [9, 10, 11, 12] * 3]
    pool.append(matroid_from_code(zoo.random_code(rng, GF2, 16, 7)))
    for M in pool:
        dual = oracles.dual_rank_table(M.n, M.ranks)
        assert M.dual().ranks == dual
        assert oracles.table_rr_serre(M.n, M.ranks, dual) == (True, True)
        assert rr_check(M) and serre_check(M)
    for n in range(13):
        for k in range(n + 1):
            assert uniform_matroid(k, n).ranks == \
                oracles.uniform_rank_table(n, k)


def test_rr_serre_tables_against_the_subset_scan():
    # the two table checks agree with the per-subset h0/h1 scan on the
    # table-oracle pool (Vamos included), and both fail when the dual the
    # matroid keeps has one wrong entry below the top
    rng = random.Random(379)
    for M in table_oracle_pool(rng):
        n, ranks = M.n, M.ranks
        dual = oracles.dual_rank_table(n, ranks)
        assert M.dual().ranks == dual
        assert ((rr_check(M), serre_check(M))
                == oracles.table_rr_serre(n, ranks, dual) == (True, True))
        assert rr_matroid_check(M)
        bad = bytearray(dual)
        bad[rng.randrange((1 << n) - 1)] += 1
        N = Matroid(n, ranks)
        N._dual = Matroid(n, bytes(bad))
        assert ((rr_check(N), serre_check(N))
                == oracles.table_rr_serre(n, ranks, bad) == (False, False))
        assert not rr_matroid_check(N)


def test_least_ranks_of_table_against_the_table_scan():
    # the byte-key read of a whole table against a scan of it: the minima
    # and, at each size, the least mask attaining the minimum, on the
    # table-oracle pool, matroids with loops and parallel classes, column
    # matroids of codes with zero and repeated columns, and the duals and
    # graded minors of all of them.  Uniform matroids U(k, n) for n <= 16,
    # n = 0 and U(8, 16) among them, have the closed form min(s, k) with the
    # first s elements as witness, and are scanned too up to n = 10
    from test_algebra import parallel_class_matroids
    rng = random.Random(2501)
    base = table_oracle_pool(rng) + parallel_class_matroids(rng, 60)
    base += [code_matroid_with_loops_and_copies(
                 rng, rng.choice((GF2, GF3, GF4)), rng.randrange(1, 11))
             for _ in range(60)]
    def and_minors(M):
        # the graded minors are built from witnesses read by the function
        # under test, so M and its dual are checked first
        yield from (M, M.dual())
        yield from M.graded() + M.dual().graded()

    checked = ties = 0
    for M in base:
        for X in and_minors(M):
            minima, witnesses = oracles.table_least_masks(X.n, X.ranks)
            assert least_ranks_of_table(X.ranks) == (minima, witnesses)
            hits = oracles.table_subsets_attaining(X.ranks, enumerate(minima))
            ties += sum(len(h) > 1 for h in hits.values())
            checked += 1
    assert checked >= 500 and ties >= 1000
    for n in range(17):
        for k in {0, 1, n // 2, n - 1, n} if n > 10 else range(n + 1):
            for M in (uniform_matroid(k, n), uniform_matroid(k, n).dual()):
                expect = ([min(s, M.k) for s in range(n + 1)],
                          [(1 << s) - 1 for s in range(n + 1)])
                assert least_ranks_of_table(M.ranks) == expect
                if n <= 10:
                    assert oracles.table_least_masks(n, M.ranks) == expect


def test_least_ranks_of_table_refuses_past_its_keys():
    # past 21 elements the byte keys of (size, rank) would carry into the
    # next lane; a trusted table that large is refused, not misread, also
    # when the enumeration cap admits it.  At 21 the keys still fit.
    table = popcounts(21).translate(bytes(min(i, 10) for i in range(256)))
    assert least_ranks_of_table(table) == ([min(s, 10) for s in range(22)],
                                           [(1 << s) - 1 for s in range(22)])
    table = popcounts(22).translate(bytes(min(i, 11) for i in range(256)))
    M = Matroid(22, table)
    with enumeration_cap(22):
        for read in (lambda: least_ranks_of_table(table),
                     lambda: least_ranks(M), M.profile):
            with pytest.raises(SizeLimitExceeded) as err:
                read()
            assert (err.value.limit, err.value.needed) == (21, 22)
    assert M._minr is None


def no_matroid_searches(monkeypatch) -> list:
    """Make the column search raise when it is handed a Matroid; returns
    the list of what it searched."""
    search, searched = algebra.min_column_rank_by_size, []

    def spy(X):
        assert not isinstance(X, Matroid), "a matroid was searched"
        searched.append(X)
        return search(X)
    monkeypatch.setattr(algebra, "min_column_rank_by_size", spy)
    return searched


def test_matroids_never_run_the_column_search(monkeypatch, capsys):
    # `least_ranks` reads a matroid's table: the `matroid` command on a
    # table file, and the graded minors and dual polygon check of a
    # 16-element matroid, with two sides and a loop.  A `from-code` file
    # reads as its code, so the command searches that code and its dual
    # (built from a nullspace) and no matroid; both outputs are the goldens
    searched = no_matroid_searches(monkeypatch)
    here = Path(__file__).resolve().parent
    C97 = parse_code_file(str(here / "data" / "binary_9_7.code"))
    for data, golden, codes in [
            ("u24.matroid", "matroid_u24.json", []),
            ("from_code_9_7.matroid", "matroid_from_code_9_7.json",
             [C97, C97.dual()])]:
        path = str(here / "data" / data)
        assert cli.main(["matroid", path]) == 0
        out = json.loads(capsys.readouterr().out)
        expect = json.loads((here / "golden" / golden).read_text())
        assert out["results"] == expect["results"]
        assert searched == codes
        searched.clear()
    M = direct_sum(direct_sum(uniform_matroid(2, 7), uniform_matroid(6, 8)),
                   uniform_matroid(0, 1))
    assert M.n == 16 and len(M.graded()) == 3
    assert dual_polygon_check(M)
    C = LinearCode.from_rows(GF2, [[1, 1, 0, 0], [0, 0, 1, 1]])
    assert least_ranks(C)[0] == [0, 1, 1, 2, 2] and searched == [C]


def test_matroid_verdicts_refuse_before_the_table_is_read(monkeypatch):
    # under a cap below n the profile, the polygon and the filtration are
    # refused by `least_ranks` itself, with no engine run
    def forbidden(*args):
        raise AssertionError("read past the cap")
    monkeypatch.setattr(algebra, "least_ranks_of_table", forbidden)
    monkeypatch.setattr(algebra, "min_column_rank_by_size", forbidden)
    M = direct_sum(uniform_matroid(2, 5), uniform_matroid(4, 7))
    assert M.n == 12
    with enumeration_cap(M.n - 1):
        for read in (M.profile, M.polygon, M.filtration):
            with pytest.raises(SizeLimitExceeded) as err:
                read()
            assert err.value.needed == M.n
    assert M._minr is None
