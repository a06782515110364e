"""Dimension-level cohomology, duality identities, and dual slope data."""

import random
from fractions import Fraction

import pytest

import hncodes.algebra
from hncodes import (
    InvariantViolation,
    LinearCode,
    NotFullSupport,
    SizeLimitExceeded,
    canonical_filtration,
    code_polygon,
    cohomology,
    dual_dlp_check,
    dual_polygon,
    enumeration_cap,
    rr_check,
    serre_check,
    subset_polygon,
    wei_duality_check,
    zoo,
)
from hncodes.algebra import least_ranks_of_table
from hncodes.code import bits_of
from hncodes.rr import (
    clifford_check,
    dual_code_slopes,
    dual_filtration_check,
    dual_subset_polygon_check,
    full_support_status,
    les_check,
    rr_normalized,
    weight_one_span,
)

import oracles

GF2, GF3, GF4 = zoo.gf2(), zoo.gf3(), zoo.gf4()


def small_codes(rng, count, fields=(GF2, GF3), nmax=7, kmax=4):
    out = []
    for _ in range(count):
        field = rng.choice(fields)
        n = rng.randrange(1, nmax + 1)
        k = rng.randrange(1, min(kmax, n) + 1)
        out.append(zoo.random_code(rng, field, n, k))
    return out


# ---------------------------------------------------------------------------
# cohomology pairs
# ---------------------------------------------------------------------------

def test_cohomology_against_oracle():
    rng = random.Random(401)
    for C in small_codes(rng, 10, nmax=6):
        rows = oracles.rows_of(C)
        for J in range(1 << C.n):
            P = cohomology(C, J)
            bits = bits_of(J)
            assert P.h0 == oracles.brute_h0(C.field, rows, bits)
            assert P.h1 == oracles.brute_h1(C.field, rows, bits)
            assert P.euler() == J.bit_count() + C.k - C.n
            assert P.h0_basis.rows == P.h0
            for b in range(P.h0):
                row = P.h0_basis.row(b)
                assert all(x == 0 or (J >> i) & 1 for i, x in enumerate(row))
                assert oracles.in_row_space(C.field, rows, row)
            assert len(P.h1_coords) == P.h1
            assert all(not (J >> i) & 1 for i in P.h1_coords)
            # exactly the outside columns in the span of those before them
            out = [i for i in range(C.n) if not (J >> i) & 1]
            rank = [oracles.brute_column_rank(C.field, rows, out[:a])
                    for a in range(len(out) + 1)]
            assert P.h1_coords == tuple(
                c for a, c in enumerate(out) if rank[a + 1] == rank[a])


def test_cohomology_builds_matrices_by_rank_not_by_columns(monkeypatch):
    # the walk up the columns outside J builds a span only where the rank
    # grows and no matrix for a column itself: on codes with zero and
    # repeated columns the matrices of one cohomology call number the
    # rank of the outside columns plus one constant, however many
    # columns lie outside J
    Matrix = hncodes.algebra.Matrix
    init, built = Matrix.__init__, []

    def spy(M, *args):
        built.append(args)
        init(M, *args)
    rng = random.Random(4007)
    codes = [LinearCode.from_rows(GF2, [(1, 1, 0, 1, 1, 0),
                                        (0, 0, 1, 1, 0, 0)]),
             LinearCode.from_rows(GF3, [(1, 2, 0, 0, 1), (0, 0, 1, 2, 2)])]
    codes += [zoo.random_code(rng, f, 6, rng.randrange(1, 4))
              for f in (GF2, GF3, GF4) for _ in range(3)]
    offsets = set()
    for C in codes:
        full, ranks = (1 << C.n) - 1, C.rank_table()
        for J in range(1 << C.n):
            built.clear()
            monkeypatch.setattr(Matrix, "__init__", spy)
            P = cohomology(C, J)
            monkeypatch.setattr(Matrix, "__init__", init)
            assert P.h1 == (full ^ J).bit_count() - ranks[full ^ J]
            offsets.add(len(built) - ranks[full ^ J])
    assert len(offsets) == 1


def test_cohomology_extremes():
    C = zoo.hamming_7_4()
    full = (1 << 7) - 1
    assert cohomology(C, full).h0 == 4
    assert cohomology(C, full).h1 == 0
    assert cohomology(C, 0).h0 == 0
    assert cohomology(C, 0).h1 == 7 - 4


# ---------------------------------------------------------------------------
# the two duality identities
# ---------------------------------------------------------------------------

def test_rr_identity_directly():
    rng = random.Random(409)
    for C in small_codes(rng, 10, nmax=6):
        if C.k == C.n:
            continue
        D = C.dual()
        full = (1 << C.n) - 1
        rowsC, rowsD = oracles.rows_of(C), oracles.rows_of(D)
        for J in range(1 << C.n):
            h0 = oracles.brute_h0(C.field, rowsC, bits_of(J))
            h0d = oracles.brute_h0(C.field, rowsD, bits_of(full ^ J))
            assert h0 - h0d == J.bit_count() + C.k - C.n


def test_serre_identity_directly():
    rng = random.Random(419)
    for C in small_codes(rng, 10, nmax=6):
        if C.k == C.n:
            continue
        D = C.dual()
        full = (1 << C.n) - 1
        for J in range(1 << C.n):
            assert cohomology(C, J).h1 == cohomology(D, full ^ J).h0


def test_rr_and_serre_checks():
    rng = random.Random(421)
    for C in small_codes(rng, 20, fields=(GF2, GF3, GF4), nmax=8, kmax=5):
        if C.k == C.n:
            continue
        assert rr_check(C)
        assert serre_check(C)


def test_rr_check_reads_the_zero_dual_of_the_full_space():
    # the full space has no dual LinearCode: its dual is the zero code, of
    # rank table all zeros and k* = 0; with k* taken as 1 the identity
    # fails at every subset
    for field in (GF2, GF3, GF4):
        for n in range(1, 9):
            F = zoo.full_space(field, n)
            zeros = bytes(1 << n)
            assert rr_check(F) and serre_check(F)
            assert oracles.table_rr_serre(n, F.rank_table(), zeros) == (
                True, True)
            assert oracles.table_rr_serre(n, F.rank_table(), zeros,
                                          dual_k=1) == (False, False)


def test_rr_serre_and_clifford_enumerate_under_the_cap():
    # every subset is checked up to the cap and none past it: there is no
    # sampled fallback
    rng = random.Random(431)
    C = zoo.random_code(rng, GF2, 17, 3)
    assert rr_check(C)
    assert serre_check(C)
    with pytest.raises(SizeLimitExceeded), enumeration_cap(16):
        rr_check(C)
    with pytest.raises(SizeLimitExceeded), enumeration_cap(16):
        serre_check(C)
    with pytest.raises(SizeLimitExceeded), enumeration_cap(7):
        clifford_check(zoo.extended_hamming_8_4())


def self_dual_sums(rng, blocks):
    """Direct sum of self-dual codes, columns shuffled: self-dual again."""
    n = sum(B.n for B in blocks)
    rows, off = [], 0
    for B in blocks:
        rows += [(0,) * off + B.gen.row(i) + (0,) * (n - off - B.n)
                 for i in range(B.k)]
        off += B.n
    perm = rng.sample(range(n), n)
    return LinearCode.from_rows(blocks[0].field,
                                [[r[p] for p in perm] for r in rows])


def test_whole_table_checks_against_the_subset_scans():
    # rr_check and serre_check on codes up to n = 12 and clifford_check on
    # self-dual codes up to n = 16 agree with the subset-by-subset scans
    rng = random.Random(433)
    for C in small_codes(rng, 24, fields=(GF2, GF3, GF4), nmax=12, kmax=8):
        if C.k == C.n:
            continue
        tab, dual = C.rank_table(), C.dual().rank_table()
        assert oracles.table_rr_serre(C.n, tab, dual) == (True, True)
        assert rr_check(C) and serre_check(C)
    pair, ham = zoo.repetition(GF2, 2), zoo.extended_hamming_8_4()
    tetra = LinearCode.from_rows(GF3, [(1, 0, 1, 1), (0, 1, 1, 2)])
    for blocks in ([pair], [pair, pair, pair], [ham, pair], [ham, ham],
                   [tetra, tetra], [tetra] * 3, [zoo.repetition(GF4, 2)] * 5):
        C = self_dual_sums(rng, blocks)
        assert C.dual() == C
        assert oracles.table_clifford(C.n, C.rank_table())
        assert clifford_check(C)
        # one entry lowered in the table the code keeps: lowering
        # r(E - {e}) makes h0({e}) = 1, over the bound
        full, tab = (1 << C.n) - 1, C.rank_table()
        for J in (full ^ (1 << rng.randrange(C.n)), rng.randrange(1, full)):
            bad = bytearray(tab)
            bad[J] -= bad[J] > 0
            C._rtab = bytes(bad)
            C._minr = least_ranks_of_table(bytes(bad))
            assert clifford_check(C) == oracles.table_clifford(C.n, bad)
            if (full ^ J).bit_count() == 1:
                assert not clifford_check(C)


def test_rr_normalized_examples():
    H = zoo.hamming_7_4()                        # d1 = 3, genus 7 - 4 - 3 + 1 = 1
    assert rr_normalized(H, 0) == (-3, 1)
    assert rr_normalized(H, 0b111) == (0, 1)
    assert rr_normalized(H, (1 << 7) - 1) == (4, 1)
    R = zoo.repetition(GF2, 4)                   # MDS: genus 0
    assert rr_normalized(R, 0b0011)[1] == 0


def test_les_check():
    rng = random.Random(433)
    H = zoo.hamming_7_4()
    assert les_check(H, 0b11, 0b1100)
    with pytest.raises(InvariantViolation):
        les_check(H, 0b11, 0b110)                # overlapping subsets
    for C in small_codes(rng, 8, nmax=6):
        for _ in range(6):
            J = rng.randrange(1 << C.n)
            Jp = rng.randrange(1 << C.n) & ~J
            assert les_check(C, J, Jp)


def test_clifford_self_dual():
    E = zoo.extended_hamming_8_4()
    assert clifford_check(E)
    # h0 <= #J / 2 spot check at a middle subset
    assert cohomology(E, 0b1111).h0 <= 2
    with pytest.raises(InvariantViolation):
        clifford_check(zoo.binary_5_2())         # not self dual


# ---------------------------------------------------------------------------
# Wei duality and the dual DLP identity
# ---------------------------------------------------------------------------

def test_wei_duality_exhaustive_small_binary():
    for n in range(1, 6):
        for C in zoo.iter_all_codes(GF2, n):
            assert wei_duality_check(C)
            if C.k < C.n:
                assert dual_dlp_check(C)


def test_wei_duality_other_fields():
    rng = random.Random(439)
    for C in small_codes(rng, 20, fields=(GF3, GF4), nmax=6, kmax=4):
        assert wei_duality_check(C)
        if C.k < C.n:
            assert dual_dlp_check(C)


def dual_dlp_steps(monkeypatch, C) -> int:
    """The rows `dual_dlp_check(C)` steps (`algebra._rref_step`), with the
    dual, both profiles and the witnesses computed beforehand."""
    C.dual().dlp()
    C.dlp_witnesses()
    step, stepped = hncodes.algebra._rref_step, []

    def counted(rows, piv, v, f):
        stepped.append(v)
        return step(rows, piv, v, f)
    monkeypatch.setattr(hncodes.algebra, "_rref_step", counted)
    assert dual_dlp_check(C)
    monkeypatch.undo()
    return len(stepped)


def test_dual_dlp_check_steps_on_from_nested_witnesses(monkeypatch):
    # the [9,7] code's witnesses form a chain, so each is stepped on from
    # the last one's span: one column each, 9 rows, where stepping every
    # witness from none took 0 + 1 + ... + 9 = 45
    C = zoo.binary_9_7()
    wits = C.dlp_witnesses()
    assert all(not a & ~b for a, b in zip(wits, wits[1:]))
    assert dual_dlp_steps(monkeypatch, C) == C.n
    assert sum(w.bit_count() for w in wits) == 45


def test_dual_dlp_check_restarts_where_witnesses_do_not_nest(monkeypatch):
    # <110>: witness 1 is {2} and witness 2 is {0, 1}.  The dual's columns
    # on their union have rank 2 but on {0, 1} rank 1, so a span kept
    # across them would fail the transfer; the check steps {0, 1} afresh
    C = LinearCode.from_rows(GF2, [[1, 1, 0]])
    wits = C.dlp_witnesses()
    assert wits == (0, 0b100, 0b011, 0b111)
    D = C.dual()
    assert (D.gen.column_span([0, 1, 2]).rows, D.gen.column_span([0, 1]).rows
            ) == (2, 1)
    assert dual_dlp_steps(monkeypatch, C) == 1 + 2 + 1


def padded_code(rng, zeros, units):
    """A random code with n <= 8 padded with `zeros` zero columns and
    `units` unit-vector summands (new coordinates carrying weight-1 words),
    its two sides kept small enough for the subspace oracle."""
    while True:
        field = rng.choice((GF2, GF3, GF4))
        n0 = rng.randrange(1, 5)
        base = zoo.random_code(rng, field, n0, rng.randrange(1, n0 + 1))
        n = n0 + zeros + units
        rows = [list(base.gen.row(i)) + [0] * (zeros + units)
                for i in range(base.k)]
        rows += [[0] * (n0 + zeros) + [int(j == u) for j in range(units)]
                 for u in range(units)]
        C = LinearCode.from_rows(field, rows)
        if 0 < C.n - C.k and max(C.k, C.n - C.k) <= (4 if field.q == 2 else 3):
            return C


def test_wei_duality_without_full_support(monkeypatch):
    # Wei's partition holds for every code, so it is checked on C itself
    rng = random.Random(457)
    pads = {(False, True): (1, 0), (True, False): (0, 1),
            (False, False): (1, 1)}
    by_status = {status: [] for status in pads}
    while min(len(codes) for codes in by_status.values()) < 10:
        for status, (zeros, units) in pads.items():
            C = padded_code(rng, zeros + rng.randrange(2) * zeros,
                            units + rng.randrange(2) * units)
            codes = by_status.get(full_support_status(C))
            if codes is not None and len(codes) < 10:
                codes.append(C)
    for codes in by_status.values():
        for C in codes:
            field = C.field
            d = oracles.brute_weight_hierarchy(field, oracles.rows_of(C))
            dd = oracles.brute_weight_hierarchy(field,
                                                oracles.rows_of(C.dual()))
            mirrored = [C.n + 1 - x for x in dd[1:]]
            assert sorted(list(d[1:]) + mirrored) == list(range(1, C.n + 1))
            assert wei_duality_check(C)
    # once both hierarchies are memoized the check searches nothing more
    searches = []
    search = hncodes.algebra.min_column_rank_by_size

    def counted(M, *args, **kwargs):
        searches.append(M.n)
        return search(M, *args, **kwargs)
    monkeypatch.setattr(hncodes.algebra, "min_column_rank_by_size", counted)
    for codes in by_status.values():
        for C in codes:
            C.weight_hierarchy()
            C.dual().weight_hierarchy()
            del searches[:]
            assert wei_duality_check(C)
            assert searches == []
    # the [9,7] code plus the square, n = 14, has a coloop, its dual a
    # loop; each side is searched block by block, then nothing more either
    from test_hn import code_direct_sum
    W = code_direct_sum(zoo.binary_9_7(), zoo.binary_5_2_square())
    W.weight_hierarchy()
    W.dual().weight_hierarchy()
    assert sorted(searches) == [2, 2, 2, 2, 9, 9]
    del searches[:]
    assert wei_duality_check(W) and searches == []


def test_wei_partition_by_hand():
    C = zoo.binary_9_7()                         # d: 2,3,4,5,7,8,9
    D = C.dual()
    dd = D.weight_hierarchy()[1:]                # dual d_i
    primal = set(C.weight_hierarchy()[1:])
    mirrored = {C.n + 1 - d for d in dd}
    assert primal | mirrored == set(range(1, C.n + 1))
    assert primal & mirrored == set()


# ---------------------------------------------------------------------------
# dual polygons and slopes
# ---------------------------------------------------------------------------

def test_dual_subset_polygon_relation():
    rng = random.Random(443)
    for n in range(2, 6):
        for C in zoo.iter_all_codes(GF2, n, kmax=n - 1):
            assert dual_subset_polygon_check(C)
    for C in small_codes(rng, 15, fields=(GF3, GF4), nmax=6, kmax=4):
        if C.k < C.n:
            assert dual_subset_polygon_check(C)


def test_dual_polygon_affine_form():
    C = zoo.binary_9_7()
    P = subset_polygon(C)
    assert dual_polygon(C) == P.opposite().affine(C.n - C.k, -1, 1)
    assert dual_polygon(C) == subset_polygon(C.dual())


def test_dual_slope_law_values():
    assert dual_code_slopes(zoo.binary_5_2()) == (Fraction(-5, 3),)
    assert dual_code_slopes(zoo.binary_9_7()) == (Fraction(-4), Fraction(-5))
    # mu = -2 is the fixed point
    assert dual_code_slopes(zoo.repetition(GF2, 2)) == (Fraction(-2),)


def test_dual_slope_law_random_full_support():
    rng = random.Random(449)
    checked = 0
    for C in small_codes(rng, 120, fields=(GF2, GF3, GF4), nmax=8, kmax=5):
        if C.k == C.n or full_support_status(C) != (True, True):
            continue
        mus = code_polygon(C).slopes
        expect = tuple(-1 + Fraction(1, mu + 1) for mu in reversed(mus))
        assert dual_code_slopes(C) == expect
        assert code_polygon(C.dual()).slopes == expect
        checked += 1
    assert checked >= 25


def test_dual_filtration_correspondence():
    # shortening the dual to the complement of each step support, reversed,
    # on the [9,7] code and on the random codes of the slope-law test
    rng = random.Random(449)
    codes = [zoo.binary_9_7()]
    codes += [C for C in small_codes(rng, 120, fields=(GF2, GF3, GF4),
                                     nmax=8, kmax=5)
              if C.k < C.n and full_support_status(C) == (True, True)]
    for C in codes:
        D = C.dual()
        filt = canonical_filtration(C)
        dfilt = canonical_filtration(D)
        full = (1 << C.n) - 1
        expect = [D.shorten(full ^ s.support_mask) for s in reversed(filt.steps[:-1])]
        assert dual_filtration_check(C)
        assert len(dfilt.steps) == len(expect) + 1
        for s, e in zip(dfilt.steps[1:], expect):
            assert s.dim == e.dim and s.meet(e).dim == s.dim
    assert len(codes) >= 26


def test_dual_slopes_not_full_support_payloads():
    padded = LinearCode.from_rows(GF2, [(1, 0, 1, 0), (0, 0, 1, 1)])
    with pytest.raises(NotFullSupport) as err:
        dual_code_slopes(padded)
    assert err.value.side == "primal"
    assert err.value.zero_columns == 0b10
    with pytest.raises(NotFullSupport) as err:
        dual_code_slopes(zoo.binary_5_2_square())
    assert err.value.side == "dual"
    W = err.value.weight_one_span
    assert W.dim == 1 and W.support_mask == 0b1


def test_weight_one_span():
    assert weight_one_span(zoo.binary_9_7()).dim == 0
    assert weight_one_span(zoo.binary_5_2_square()).dim == 1
    assert weight_one_span(zoo.full_space(GF2, 3)).dim == 3


def test_full_support_status():
    assert full_support_status(zoo.binary_9_7()) == (True, True)
    assert full_support_status(zoo.binary_5_2_square()) == (True, False)
    padded = LinearCode.from_rows(GF2, [(1, 0, 1, 0), (0, 0, 1, 1)])
    assert full_support_status(padded) == (False, True)
