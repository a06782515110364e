"""Canonical polygons, filtrations, semistability, and the two lattices."""

import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from hncodes import (
    EmptyProfile,
    InvariantViolation,
    LinearCode,
    NotASubcode,
    NotFullSupport,
    SizeLimitExceeded,
    canonical_filtration,
    code_polygon,
    enumeration_cap,
    gap_condition_check,
    graded_pieces,
    is_semistable,
    is_stable,
    matroid_from_code,
    semistability_witness,
    subset_polygon,
    zoo,
)
from hncodes.algebra import (FieldSpec, Matrix, column_rank_table,
                             least_ranks, min_column_rank_by_size, rref_at,
                             subspaces, subsets_where)
from hncodes.code import Subcode, mask_of
from hncodes.hn import (
    CanonicalPolygon,
    SubspaceLattice,
    polygon_from_profile,
    subset_filtration,
    subset_to_subcode,
    verify_galois,
    verify_parallelogram,
)
from hncodes.rr import dual_dlp_check, wei_duality_check

import hncodes.algebra
import hncodes.code
import hncodes.hn as hn
import hncodes.rr as rr
import hncodes.tensor as tensor
import oracles

GF2, GF3, GF4 = zoo.gf2(), zoo.gf3(), zoo.gf4()


@pytest.fixture
def steps(monkeypatch):
    """The rows stepped into RREF rows (`algebra._rref_step`), whichever
    method steps them: every row reduction of the library is listed."""
    step, stepped = hncodes.algebra._rref_step, []

    def counted(rows, piv, v, f):
        stepped.append(v)
        return step(rows, piv, v, f)
    monkeypatch.setattr(hncodes.algebra, "_rref_step", counted)
    return stepped


def small_codes(rng, count, fields=(GF2, GF3), nmax=7, kmax=4):
    out = []
    for _ in range(count):
        field = rng.choice(fields)
        n = rng.randrange(1, nmax + 1)
        k = rng.randrange(1, min(kmax, n) + 1)
        out.append(zoo.random_code(rng, field, n, k))
    return out


# ---------------------------------------------------------------------------
# polygons
# ---------------------------------------------------------------------------

def test_polygon_from_profile_known():
    P = polygon_from_profile([9, 4, 3, 0])
    assert P.vertices == ((0, Fraction(9)), (3, Fraction(0)))
    assert P.slopes == (Fraction(-3),)
    Q = polygon_from_profile([0, 2, 3, 3])
    assert Q.vertices == ((0, Fraction(0)), (1, Fraction(2)),
                          (2, Fraction(3)), (3, Fraction(3)))
    assert Q.slopes == (Fraction(2), Fraction(1), Fraction(0))
    assert (Q.mu_max, Q.mu_min) == (2, 0)
    assert Q.total_rank == 3
    assert Q.N == 3


def test_polygon_validation():
    with pytest.raises(EmptyProfile):
        polygon_from_profile([])
    with pytest.raises(InvariantViolation):
        CanonicalPolygon([(0, 0), (1, 1), (2, 3)])   # convex corner
    with pytest.raises(InvariantViolation):
        CanonicalPolygon([(0, 0), (0, 1)])


def test_polygon_against_envelope_oracle():
    rng = random.Random(211)
    for _ in range(60):
        n = rng.randrange(1, 8)
        values = [rng.randrange(-6, 7) for _ in range(n + 1)]
        P = polygon_from_profile(values)
        env = oracles.brute_envelope(values)
        for x in range(n + 1):
            assert P.value_at(x) == env[x]
        assert list(P.vertices) == oracles.envelope_vertices(values)
        assert all(a > b for a, b in zip(P.slopes, P.slopes[1:]))


def test_polygon_value_at_interpolates():
    P = polygon_from_profile([0, 2, 3, 3])
    assert P.value_at(Fraction(1, 2)) == 1
    assert P.value_at(Fraction(3, 2)) == Fraction(5, 2)
    with pytest.raises(InvariantViolation):
        P.value_at(-1)
    with pytest.raises(InvariantViolation):
        P.value_at(4)


def test_affine_transform():
    P = polygon_from_profile([0, 2, 3, 3])
    Q = P.affine(1, Fraction(1, 2), 2)
    # pointwise y -> a + b*x + c*y
    for x in range(4):
        assert Q.value_at(x) == 1 + Fraction(x, 2) + 2 * P.value_at(x)
    assert Q.slopes == tuple(Fraction(1, 2) + 2 * mu for mu in P.slopes)
    with pytest.raises(InvariantViolation):
        P.affine(0, 0, 0)             # c must be positive
    with pytest.raises(InvariantViolation):
        P.affine(0, 0, -1)


def test_opposite_and_reflected():
    P = polygon_from_profile([0, 2, 3, 3])
    O = P.opposite()
    assert O.vertices == ((0, Fraction(3)), (1, Fraction(3)),
                          (2, Fraction(2)), (3, Fraction(0)))
    assert O.opposite() == P
    D = polygon_from_profile([9, 8, 6, 0])
    R = D.reflected()
    assert R.vertices == ((0, Fraction(3)), (6, Fraction(2)),
                          (8, Fraction(1)), (9, Fraction(0)))
    assert R.reflected() == D
    with pytest.raises(InvariantViolation):
        P.reflected()                            # needs strictly decreasing


def test_code_and_subset_polygon_examples():
    C = zoo.binary_9_7()
    assert code_polygon(C).vertices == \
        ((0, Fraction(9)), (4, Fraction(4)), (7, Fraction(0)))
    assert code_polygon(C).slopes == (Fraction(-5, 4), Fraction(-4, 3))
    assert subset_polygon(C).vertices == \
        ((0, Fraction(7)), (4, Fraction(4)), (9, Fraction(0)))
    S = zoo.binary_5_2()
    assert code_polygon(S).vertices == ((0, Fraction(5)), (2, Fraction(0)))
    assert code_polygon(S).slopes == (Fraction(-5, 2),)


def test_subset_polygon_is_reflection_for_full_support():
    # code_polygon is built as this reflection, so the hierarchy's own
    # polygon is what makes the comparison mean something
    rng = random.Random(223)
    for C in small_codes(rng, 40):
        if C.is_full_support:
            assert subset_polygon(C) == code_polygon(C).reflected()
            hier = polygon_from_profile([C.n - d for d in C.weight_hierarchy()])
            assert subset_polygon(C) == hier.reflected()


def test_separation_without_full_support():
    # a dead coordinate forces a flat initial subset-side segment
    C = LinearCode.from_rows(GF2, [(1, 0, 1, 0), (0, 0, 1, 1)])
    assert subset_polygon(C).vertices == \
        ((0, Fraction(2)), (1, Fraction(2)), (4, Fraction(0)))
    assert code_polygon(C).vertices == ((0, Fraction(4)), (2, Fraction(1)))
    assert code_polygon(C).reflected().vertices == ((1, Fraction(2)), (4, Fraction(0)))
    # the reflected polygon is dominated by the subset polygon where defined
    for x in range(1, 5):
        assert subset_polygon(C).value_at(x) >= code_polygon(C).reflected().value_at(x)


# ---------------------------------------------------------------------------
# semistability and the canonical filtration
# ---------------------------------------------------------------------------

def test_semistable_against_oracle_exhaustive_binary():
    for n in range(1, 5):
        for C in zoo.iter_all_codes(GF2, n):
            rows = oracles.rows_of(C)
            levels = oracles.subspaces_by_dim(GF2, rows)
            assert is_semistable(C) == oracles.brute_semistable(GF2, rows, levels)
            assert is_stable(C) == oracles.brute_stable(GF2, rows, levels)
    for C in zoo.iter_all_codes(GF2, 5, kmax=3):
        rows = oracles.rows_of(C)
        levels = oracles.subspaces_by_dim(GF2, rows)
        assert is_semistable(C) == oracles.brute_semistable(GF2, rows, levels)
        assert is_stable(C) == oracles.brute_stable(GF2, rows, levels)


def test_semistable_against_oracle_gf3():
    rng = random.Random(227)
    for C in small_codes(rng, 25, fields=(GF3,), nmax=5, kmax=3):
        rows = oracles.rows_of(C)
        assert is_semistable(C) == oracles.brute_semistable(GF3, rows)
        assert is_stable(C) == oracles.brute_stable(GF3, rows)


def test_semistability_cross_route():
    rng = random.Random(229)
    for C in small_codes(rng, 60, nmax=9, kmax=5):
        ss = is_semistable(C)
        assert ss == (code_polygon(C).N <= 1)
        assert ss == (semistability_witness(C) is None)


def test_witness_violates_the_rate():
    rng = random.Random(233)
    seen = 0
    for C in small_codes(rng, 80, nmax=9, kmax=5):
        W = semistability_witness(C)
        if W is None:
            continue
        seen += 1
        assert W.effective_rate > C.effective_rate
        filt = canonical_filtration(C)
        assert W == filt.steps[1]                # maximal destabilizing step
    assert seen >= 10


def test_witness_honours_the_cap():
    with pytest.raises(SizeLimitExceeded), enumeration_cap(8):
        semistability_witness(zoo.binary_9_7())
    # the square splits into blocks of 2, 2 and 1 columns, charged at 2;
    # its witness is the weight-1 word
    with pytest.raises(SizeLimitExceeded) as err, enumeration_cap(1):
        semistability_witness(zoo.binary_5_2_square())
    assert err.value.needed == 2
    with enumeration_cap(2):
        assert semistability_witness(
            zoo.binary_5_2_square()).support_mask == 0b1


def test_verdicts_honour_the_cap():
    for verdict in (is_semistable, is_stable):
        with pytest.raises(SizeLimitExceeded), enumeration_cap(8):
            verdict(zoo.binary_9_7())
        with enumeration_cap(9):
            assert verdict(zoo.binary_9_7()) is False
        # a code that splits is charged at its largest block
        with pytest.raises(SizeLimitExceeded) as err, enumeration_cap(1):
            verdict(zoo.binary_5_2_square())
        assert err.value.needed == 2
        with enumeration_cap(2):
            assert verdict(zoo.binary_5_2_square()) is False


def test_filtration_of_binary_9_7():
    C = zoo.binary_9_7()
    filt = canonical_filtration(C)
    assert filt.ranks == (0, 4, 7)
    assert filt.slopes == (Fraction(-5, 4), Fraction(-4, 3))
    assert filt.polygon == code_polygon(C)
    assert [s.dim for s in filt.steps] == [0, 4, 7]
    assert filt.steps[1].support_mask == 0b111110000
    assert filt.steps[1].weight == 5


def test_filtration_structure_random():
    rng = random.Random(239)
    for C in small_codes(rng, 50, nmax=8, kmax=4):
        filt = canonical_filtration(C)
        assert filt.polygon == code_polygon(C)
        assert filt.steps[0].dim == 0
        assert filt.steps[-1].dim == C.k
        for a, b in zip(filt.steps, filt.steps[1:]):
            assert b.contains(a) and b.dim > a.dim
        for s in filt.steps[1:]:
            assert s.closure() == s              # steps are closed subcodes
        # vertex data matches the steps
        for (x, y), s in zip(filt.polygon.vertices, filt.steps):
            assert s.dim == x
            assert Fraction(C.n - s.weight) == y
        if is_semistable(C):
            assert len(filt.steps) == 2 or C.k == 0


def filtration_codes(rng, count, nmax=8, kmax=None):
    """Random q in {2, 3, 4}, n <= nmax codes: plain, padded with zero
    columns, and direct sums of two blocks (often multi-slope).  k is at
    most kmax, by default 4 over GF(2) and 3 otherwise."""
    out = []
    for _ in range(count):
        field = rng.choice((GF2, GF3, GF4))
        kmax_f = kmax or (4 if field.q == 2 else 3)
        shape = rng.choice(("plain", "zeros", "sum"))
        if shape == "sum":
            n1 = rng.randrange(1, 5)
            n2 = rng.randrange(1, nmax + 1 - n1)
            k1 = rng.randrange(1, min(n1, kmax_f - 1) + 1)
            k2 = rng.randrange(1, min(n2, kmax_f - k1) + 1)
            A = zoo.random_code(rng, field, n1, k1)
            B = zoo.random_code(rng, field, n2, k2)
            rows = ([r + (0,) * n2 for r in oracles.rows_of(A)]
                    + [(0,) * n1 + r for r in oracles.rows_of(B)])
        else:
            n = rng.randrange(2 if shape == "zeros" else 1, nmax + 1)
            zeros = rng.randrange(1, n) if shape == "zeros" else 0
            k = rng.randrange(1, min(kmax_f, n - zeros) + 1)
            base = oracles.rows_of(zoo.random_code(rng, field, n - zeros, k))
            dead = set(rng.sample(range(n), zeros))
            rows = []
            for r in base:
                it = iter(r)
                rows.append(tuple(0 if j in dead else next(it)
                                  for j in range(n)))
        out.append(LinearCode.from_rows(field, rows))
    return out


def test_filtration_against_oracle():
    rng = random.Random(251)
    multi = padded = unstable = 0
    for C in filtration_codes(rng, 80):
        rows = oracles.rows_of(C)
        expect = oracles.brute_filtration(C.field, rows)
        filt = canonical_filtration(C)
        got = [frozenset(oracles.codewords(C.field, s.basis.row_list()))
               if s.dim else frozenset([(0,) * C.n]) for s in filt.steps]
        assert got == expect
        levels = oracles.subspaces_by_dim(C.field, rows)
        ss = oracles.brute_semistable(C.field, rows, levels)
        assert is_semistable(C) == ss
        assert is_stable(C) == oracles.brute_stable(C.field, rows, levels)
        multi += filt.polygon.N >= 2
        padded += not C.is_full_support
        unstable += not ss
    assert multi >= 10 and padded >= 10 and unstable >= 10


def test_matroid_filtration_is_the_galois_preimage():
    rng = random.Random(257)
    seen = 0
    for C in filtration_codes(rng, 80):
        if not C.is_full_support:
            continue
        seen += 1
        full = (1 << C.n) - 1
        expect = oracles.brute_filtration(C.field, oracles.rows_of(C))
        cosupports = tuple(full ^ mask_of(oracles.support_of(S))
                           for S in reversed(expect))
        assert matroid_from_code(C).filtration().steps == cosupports
    assert seen >= 20


def test_code_and_matroid_share_the_subset_filtration():
    # the code path (generator oracle, then the Galois image) and the
    # matroid path (rank-table oracle) agree: the matroid's steps are the
    # cosupports of the code's steps in reverse, after a leading empty set
    # when the code has zero columns
    rng = random.Random(263)
    multi = padded = 0
    for C in filtration_codes(rng, 80):
        M = matroid_from_code(C)
        steps = canonical_filtration(C).steps
        full = (1 << C.n) - 1
        expect = tuple(full ^ S.support_mask for S in reversed(steps))
        if not C.is_full_support:
            expect = (0,) + expect
        assert M.filtration().steps == expect
        assert M.polygon() == subset_polygon(C)
        multi += len(steps) >= 3
        padded += not C.is_full_support
    assert multi >= 10 and padded >= 10


def codes_with_loops_and_copies(rng, count, nmax, kmax, padded=0.4):
    """Random GF(2/3/4) codes of length at most nmax; a share `padded` of
    those with n >= 3 get at least one zero and one repeated column.  k is
    at most kmax, and at most 4 over GF(2) and 3 otherwise when n <= 8, so
    the brute-force oracles stay cheap."""
    out = []
    for _ in range(count):
        field = rng.choice((GF2, GF3, GF4))
        n = rng.randrange(1, nmax + 1)
        pad = n >= 3 and rng.random() < padded
        zeros = rng.randrange(1, n - 1) if pad else 0
        copies = rng.randrange(1, n - zeros) if pad else 0
        m = n - zeros - copies
        cap = kmax if n > 8 else (4 if field.q == 2 else 3)
        k = rng.randrange(1, min(cap, m) + 1)
        cols = list(zip(*oracles.rows_of(zoo.random_code(rng, field, m, k))))
        cols += [rng.choice(cols) for _ in range(copies)]
        cols += [(0,) * k] * zeros
        rng.shuffle(cols)
        out.append(LinearCode.from_rows(field, list(zip(*cols))))
    return out


def shuffled_sums(rng, count):
    """Direct sums of 1-3 random blocks [n_i <= 5, k_i <= 3] over
    GF(2/3/4/256), half of them padded with up to 3 zero and repeated
    columns, all with shuffled columns."""
    fields = (GF2, GF3, GF4, FieldSpec(2, 8, 0x11B))
    out = []
    for _ in range(count):
        field = rng.choice(fields)
        blocks = []
        for _ in range(rng.randrange(1, 4)):
            n = rng.randrange(1, 6)
            blocks.append(oracles.rows_of(zoo.random_code(
                rng, field, n, rng.randrange(1, min(n, 3) + 1))))
        k = sum(map(len, blocks))
        cols, above = [], 0
        for rows in blocks:
            cols += [(0,) * above + col + (0,) * (k - above - len(rows))
                     for col in zip(*rows)]
            above += len(rows)
        if rng.random() < 0.5:
            cols += [rng.choice(cols) if rng.random() < 0.5 else (0,) * k
                     for _ in range(rng.randrange(1, 4))]
        rng.shuffle(cols)
        out.append(LinearCode.from_rows(field, list(zip(*cols))))
    return out


def test_least_ranks_of_blocks_against_the_whole_search():
    # the blocks' least ranks, convolved, against the search of the whole
    # generator: on shuffled sums of 1-3 blocks padded with zero and
    # repeated columns, and on connected codes.  The minima agree, each
    # witness has its size and its rank (row-reduced from the columns), at
    # every polygon vertex the witness is the whole search's, each block
    # is a separator (its rank and its complement's add up to k), and
    # `least_ranks`, which searches a code of at most 8 columns whole,
    # agrees with both
    rng = random.Random(3803)
    codes = shuffled_sums(rng, 600)
    codes += [zoo.random_code(rng, rng.choice((GF2, GF3, GF4)), n,
                              rng.randrange(1, n + 1))
              for n in rng.choices(range(2, 13), k=80)]

    def rank(C, J):
        cols = [C.gen.column(j) for j in range(C.n) if J >> j & 1]
        return len(oracles.brute_rref(C.field, cols, C.k)[1])
    split = vertices = long = 0
    for C in codes:
        blocks, full = C.blocks(), (1 << C.n) - 1
        assert sum(blocks) == full and len(set(blocks)) == len(blocks)
        assert all(rank(C, b) + rank(C, full ^ b) == C.k for b in blocks)
        minr, wit = min_column_rank_by_size(C)
        got = hncodes.algebra._least_ranks_of_blocks(C)
        assert got[0] == minr
        assert [(J.bit_count(), rank(C, J)) for J in got[1]] == list(
            enumerate(minr))
        sizes = polygon_from_profile([C.k - m for m in minr]).vertex_ranks
        assert [got[1][s] for s in sizes] == [wit[s] for s in sizes]
        dispatched = least_ranks(C)
        assert dispatched[0] == minr
        assert [dispatched[1][s] for s in sizes] == [wit[s] for s in sizes]
        split += len(blocks) > 1
        long += len(blocks) > 1 and C.n > 8
        vertices += len(sizes) - 2
    assert split >= 500 and long >= 150 and vertices >= 300


def test_filtration_steps_are_the_least_rank_witnesses():
    # subset_filtration reads its steps off the least-rank witnesses at the
    # vertex sizes.  A scan of the whole rank table finds exactly one
    # least-rank subset at each vertex, and it is that step.  At every size
    # a code's witness is the first least-rank subset in the order of sorted
    # column indices, the order the walk meets them in, which is the
    # premise of taking it for the vertex subset; a matroid's, read off its
    # table, is the least mask there
    from test_matroid import table_oracle_pool
    rng = random.Random(283)
    codes = codes_with_loops_and_copies(rng, 520, nmax=13, kmax=6)
    assert sum(not C.is_full_support for C in codes) >= 0.3 * len(codes)
    interior = brute = 0
    for X in codes + table_oracle_pool(rng):
        is_code = isinstance(X, LinearCode)
        minr, wit = min_column_rank_by_size(X) if is_code else least_ranks(X)
        filt = subset_filtration(X)
        least = oracles.table_subsets_attaining(
            X.rank_table(), [(s, minr[s]) for s in range(X.n + 1)])
        assert [(s, X.k - v) for s, v in filt.polygon.vertices] == [
            (s, minr[s]) for s in filt.ranks]
        assert [least[s] for s in filt.ranks] == [[S] for S in filt.steps]

        if is_code:
            def lex(J):
                return [i for i in range(X.n) if (J >> i) & 1]
            assert tuple(min(least[s], key=lex)
                         for s in range(X.n + 1)) == tuple(wit)
        else:
            assert minr == oracles.table_minima(X.n, X.rank_table())
            assert wit == [least[s][0] for s in range(X.n + 1)]
        interior += filt.polygon.N > 1
        if is_code and X.n <= 8:
            brute += 1
            got = [frozenset(oracles.codewords(X.field, S.basis.row_list()))
                   if S.dim else frozenset([(0,) * X.n])
                   for S in canonical_filtration(X).steps]
            assert got == oracles.brute_filtration(X.field, oracles.rows_of(X))
    assert interior >= 100 and brute >= 200


def test_code_polygon_and_verdict_against_the_brute_hierarchy():
    # the code polygon is the subset polygon turned over, less the loop
    # vertex that zero columns add; it and the one-side verdict are
    # compared with the polygon of the brute-force weight hierarchy
    rng = random.Random(293)
    codes = codes_with_loops_and_copies(rng, 800, nmax=8, kmax=4, padded=0.8)
    seen = {True: 0, False: 0}
    for C in codes:
        rows = oracles.rows_of(C)
        levels = oracles.subspaces_by_dim(C.field, rows)
        hier = oracles.brute_weight_hierarchy(C.field, rows, levels)
        assert code_polygon(C) == polygon_from_profile([C.n - d for d in hier])
        ss = is_semistable(C)
        assert ss == oracles.brute_semistable(C.field, rows, levels)
        seen[ss] += 1
    assert sum(not C.is_full_support for C in codes) >= 500
    assert min(seen.values()) >= 100


def test_pruned_vertex_search_against_the_rank_table():
    # the filtration against the brute-force one, and the whole-table read
    # of the subsets of given sizes and ranks against a scan of all 2^n
    # subsets: at the filtration vertices, at every size's least rank, and
    # at random ranks
    rng = random.Random(281)
    codes = filtration_codes(rng, 60)
    for C in codes:
        expect = oracles.brute_filtration(C.field, oracles.rows_of(C))
        got = [frozenset(oracles.codewords(C.field, s.basis.row_list()))
               if s.dim else frozenset([(0,) * C.n])
               for s in canonical_filtration(C).steps]
        assert got == expect
    for _ in range(30):
        field = rng.choice((GF2, GF3, GF4))
        n = rng.randrange(1, 13)
        codes.append(zoo.random_code(rng, field, n, rng.randrange(1, min(n, 6) + 1)))
    interior = 0
    for C in codes:
        with enumeration_cap(C.n):
            minr, _ = min_column_rank_by_size(C.gen)
        vertices = [(int(v), C.k - i)
                    for i, v in code_polygon(C).vertices[1:-1]]
        interior += bool(vertices)
        sizes = range(C.n + 1)
        picks = rng.sample(sizes, rng.randrange(1, C.n + 2))
        tab = C.rank_table()
        for targets in (vertices,
                        [(s, minr[s]) for s in sizes],
                        [(s, rng.randrange(minr[s], C.k + 1)) for s in picks]):
            assert {s: subsets_where(tab, s, r) for s, r in targets} == \
                oracles.table_subsets_attaining(tab, targets)
    assert interior >= 20


def test_filtration_builds_no_rank_table(monkeypatch):
    tables = []

    def counted(*args, **kwargs):
        tables.append(args)
        return column_rank_table(*args, **kwargs)
    monkeypatch.setattr(hncodes.algebra, "column_rank_table", counted)
    monkeypatch.setattr(hncodes.code, "column_rank_table", counted)
    C = zoo.binary_9_7()
    assert canonical_filtration(C).polygon.N == 2     # an interior vertex
    assert tables == []


def test_graded_pieces():
    C = zoo.binary_9_7()
    pieces = graded_pieces(C)
    assert [(g.n, g.k) for g in pieces] == [(5, 4), (4, 3)]
    mus = code_polygon(C).slopes
    for g, mu in zip(pieces, mus):
        assert is_semistable(g)
        assert code_polygon(g).slopes == (mu,)
    S = zoo.binary_5_2()
    assert graded_pieces(S) == [S]
    padded = LinearCode.from_rows(GF2, [(1, 0, 1, 0), (0, 0, 1, 1)])
    with pytest.raises(NotFullSupport):
        graded_pieces(padded)


def test_graded_pieces_shorten_no_filtration_step_again(monkeypatch):
    # each piece punctures the canonical-filtration step the code keeps,
    # so the pieces and the filtration together shorten once per interior
    # step, in either order
    shortened = []
    shorten = LinearCode.shorten
    monkeypatch.setattr(LinearCode, "shorten",
                        lambda C, J: shortened.append(J) or shorten(C, J))
    for first in (canonical_filtration, graded_pieces):
        C = zoo.binary_9_7()
        first(C)
        assert [(g.n, g.k) for g in graded_pieces(C)] == [(5, 4), (4, 3)]
        assert len(canonical_filtration(C).steps) == 3
        assert len(shortened) == 1
        shortened.clear()


def test_semistable_code_is_searched_once(monkeypatch):
    # a semistable code is its own only graded piece, so graded_pieces
    # reads the code's memoized search instead of searching a copy
    searches = []
    search = hncodes.algebra.min_column_rank_by_size

    def counted(M, *args, **kwargs):
        searches.append(M.n)
        return search(M, *args, **kwargs)
    monkeypatch.setattr(hncodes.algebra, "min_column_rank_by_size", counted)
    C = zoo.binary_5_2()
    assert is_semistable(C) and C.is_full_support
    C.weight_hierarchy()
    assert graded_pieces(C) == [C]
    assert searches == [5]
    # the sum of two copies, n = 10, is semistable too: each block is
    # searched once, and the sum never whole
    del searches[:]
    D = code_direct_sum(zoo.binary_5_2(), zoo.binary_5_2())
    assert is_semistable(D) and D.is_full_support
    D.weight_hierarchy()
    assert graded_pieces(D) == [D]
    assert searches == [5, 5]


def test_graded_pieces_random_full_support():
    rng = random.Random(241)
    for C in small_codes(rng, 40, nmax=8, kmax=4):
        if not C.is_full_support:
            continue
        pieces = graded_pieces(C)
        mus = code_polygon(C).slopes
        assert len(pieces) == len(mus)
        assert sum(g.k for g in pieces) == C.k
        assert sum(g.n for g in pieces) == C.n
        for g, mu in zip(pieces, mus):
            assert is_semistable(g)
            assert Fraction(g.n - g.weight) == 0  # full support pieces
            assert -Fraction(1, 1) / g.effective_rate == -Fraction(g.n, g.k)
            assert code_polygon(g).slopes == (mu,)


def code_direct_sum(A, B):
    rows = [row + (0,) * B.n for row in oracles.rows_of(A)]
    rows += [(0,) * A.n + row for row in oracles.rows_of(B)]
    return LinearCode.from_rows(A.field, rows)


def full_support_codes(rng, field, count, nmin, nmax):
    out = []
    while len(out) < count:
        n = rng.randrange(nmin, nmax + 1)
        C = zoo.random_code(rng, field, n, rng.randrange(1, n + 1))
        if C.is_full_support:
            out.append(C)
    return out


def test_graded_pieces_are_the_matroid_minors_reversed():
    # the code pieces (shorten, then puncture) and the table minors of the
    # column matroid are one subset-side construction in reverse order;
    # both must be the projections of consecutive canonical-filtration
    # steps onto the coordinates each step's support adds
    rng = random.Random(257)
    codes = []
    for field in (GF2, GF3, GF4):
        codes += full_support_codes(rng, field, 12, 2, 10)
        for _ in range(8):                   # multi-slope direct sums
            A, B = full_support_codes(rng, field, 2, 2, 5)
            codes.append(code_direct_sum(A, B))
    multi = 0
    for C in codes:
        assert C.n <= 10 and C.is_full_support
        pieces = graded_pieces(C)
        assert ([matroid_from_code(P) for P in pieces]
                == matroid_from_code(C).graded()[::-1])
        steps = canonical_filtration(C).steps
        expect = []
        for lo, hi in zip(steps, steps[1:]):
            cols = [i for i in range(C.n)
                    if (hi.support_mask & ~lo.support_mask) >> i & 1]
            expect.append(LinearCode.span(hi.basis.col_submatrix(cols)))
        assert pieces == expect
        multi += len(pieces) > 1
    assert len(codes) >= 50 and multi >= 20


# ---------------------------------------------------------------------------
# lattices and the order-reversing correspondence
# ---------------------------------------------------------------------------

def test_subspace_lattice_structure():
    C = zoo.binary_5_2()
    L = SubspaceLattice(C)
    assert len(L) == 5                           # 1 + 3 + 1 subspaces
    dims = sorted(L.rank(i) for i in range(len(L)))
    assert dims == [0, 1, 1, 1, 2]
    for i in range(len(L)):
        for j in range(len(L)):
            m, jn = L.meet(i, j), L.join(i, j)
            assert L.leq(m, i) and L.leq(m, j)
            assert L.leq(i, jn) and L.leq(j, jn)
            # modular rank identity
            assert L.rank(m) + L.rank(jn) == L.rank(i) + L.rank(j)
    W = C.whole_subcode()
    assert L.rank(L.index_of(W)) == 2
    assert L.degree(L.index_of(W)) == 0
    with pytest.raises(NotASubcode):
        L.index_of(zoo.binary_9_7().whole_subcode())


def test_subspace_lattice_cap():
    with pytest.raises(SizeLimitExceeded):
        SubspaceLattice(zoo.full_space(GF2, 13))
    # the cap counts subcodes: F_2^4 has 1 + 15 + 35 + 15 + 1 = 67
    # subspaces, so 2^6 is refused and 2^7 is enough
    C = zoo.full_space(GF2, 4)
    with pytest.raises(SizeLimitExceeded) as err, enumeration_cap(6):
        SubspaceLattice(C)
    assert "subcodes" in str(err.value) and err.value.needed == 7
    with pytest.raises(SizeLimitExceeded), enumeration_cap(6):
        hn.subcode_lattice(C)
    with enumeration_cap(7):
        assert len(hn.subcode_lattice(C)) == 67
    # the memo checks the cap on every call, not only when it builds
    with pytest.raises(SizeLimitExceeded), enumeration_cap(6):
        hn.subcode_lattice(C)


def test_large_lattice_refused_before_enumerating(monkeypatch):
    # F_2^9 has 8,283,458 subspaces (q^k = 512); none may be built
    def refuse(*args):
        raise AssertionError("the lattice was enumerated")
    monkeypatch.setattr(hn, "iter_rref_matrices", refuse)
    C = zoo.full_space(GF2, 9)
    for build in (SubspaceLattice, hn.subcode_lattice, verify_galois):
        with pytest.raises(SizeLimitExceeded):
            build(C)


def test_sampled_lattice_charges_its_points_to_the_cap(monkeypatch):
    # a sampled lattice keeps masks over the (q^k - 1)/(q - 1) points of
    # P^(k-1): GF(256)^4 has 16,843,009 of them (2^24.0), refused at the
    # default cap before any element is interned and accepted under 2^25
    interned, intern = [], SubspaceLattice._intern

    def counted(self, X):
        interned.append(X)
        return intern(self, X)
    monkeypatch.setattr(SubspaceLattice, "_intern", counted)
    C = zoo.random_code(random.Random(293), FieldSpec(2, 8, 0x11D), 5, 4)
    samples = [C.zero_subcode(), C.whole_subcode()]
    with pytest.raises(SizeLimitExceeded) as err:
        SubspaceLattice(C, subcodes=samples)
    assert err.value.needed == 25 and "points" in str(err.value)
    assert not interned
    with enumeration_cap(25):
        assert len(SubspaceLattice(C, subcodes=samples)) == 2
    # parity [14, 13]: 2^13 points, within the default cap
    P = zoo.parity(GF2, 14)
    lat = SubspaceLattice(P, subcodes=[P.zero_subcode(), P.whole_subcode()])
    assert lat.leq(0, 1) and not lat.leq(1, 0) and lat.meet(0, 1) == 0


def test_sampled_lattice_masks_at_the_point_cap():
    # the largest sampled lattices the default cap admits: 2^20 - 1 points
    # over GF(2), 65,793 over GF(256) and 797,161 over GF(3).  The whole
    # subcode sets every point's bit once and a hyperplane those of its
    # (q^(k-1) - 1)/(q - 1) points.  Building both masks takes memory
    # linear in the points, traced over GF(256), where q^k = 2^24 vectors
    # would not fit the bound
    rng = random.Random(307)
    GF256 = FieldSpec(2, 8, 0x11D)
    for field, k in ((GF2, 20), (GF256, 3), (FieldSpec(3), 13)):
        q = field.q
        points = (q ** k - 1) // (q - 1)
        C = zoo.random_code(rng, field, k + 1, k)
        H = zoo.random_subcode(rng, C, k - 1)
        line = zoo.random_subcode(rng, C, 1)
        lat = SubspaceLattice(C, subcodes=[C.zero_subcode(), C.whole_subcode(),
                                           H, line])
        if field == GF256:
            tracemalloc.start()
            try:
                lat.leq(2, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * points
        assert lat.leq(2, 1) and not lat.leq(1, 2)
        assert lat._masks[1] == (1 << points) - 1
        assert lat._masks[2].bit_count() == (q ** (k - 1) - 1) // (q - 1)
        assert lat.meet(1, 2) == 2 and lat.join(2, 1) == 1
        on = H.contains(line)
        assert lat.leq(3, 2) == on
        assert lat.meet(2, 3) == (3 if on else 0)
        assert lat.join(2, 3) == (2 if on else 1)


def test_gap_condition_on_a_large_field_with_a_small_lattice():
    # q^k = 65,536, but the [4,2] code over GF(256) has 259 subcodes
    C = LinearCode.from_rows(FieldSpec(2, 8, 0x11D),
                             [(1, 1, 1, 0), (0, 0, 0, 1)])
    assert len(code_polygon(C).vertices) == 3
    assert gap_condition_check(C)
    assert len(hn.subcode_lattice(C)) == 259


def _check_lattice_pairs(C, L, pairs, levels):
    """Meet, join, order, degree and index_of of L, and Subcode.meet/join,
    against codeword sets on the given index pairs."""
    f, n = C.field, C.n
    subs, words = {}, {}

    def words_of(S):
        return oracles.span_words(f, S.basis.row_list(), n)

    def element(i):
        if i not in subs:
            subs[i] = L.subcode(i)
            words[i] = words_of(subs[i])
        return subs[i], words[i]

    for i, j in pairs:
        (A, wa), (B, wb) = element(i), element(j)
        M, meet = element(L.meet(i, j))
        V, join = element(L.join(i, j))
        assert meet == wa & wb
        assert join == oracles.least_subspace_containing(levels, wa | wb)
        assert L.leq(i, j) == (wa <= wb)
        assert L.degree(i) == n - len(oracles.support_of(wa))
        assert L.rank(i) == A.dim
        assert L.index_of(A) == i
        # the public Subcode operations (equal subcodes have equal RREF
        # bases, and M, V were just checked against the codeword sets)
        assert A.meet(B) == M and A.join(B) == V
        assert A.contains(B) == (wb <= wa)


def test_subspace_lattice_against_codeword_sets():
    rng = random.Random(269)
    padded = big = 0
    for C in filtration_codes(rng, 32, nmax=6, kmax=3):
        rows = oracles.rows_of(C)
        levels = oracles.subspaces_by_dim(C.field, rows)
        padded += not C.is_full_support
        L = SubspaceLattice(C)
        big += len(L) >= 16
        words = [oracles.span_words(C.field, L.subcode(i).basis.row_list(),
                                    C.n) for i in range(len(L))]
        assert sorted(words, key=sorted) == sorted(
            (S for level in levels for S in level), key=sorted)
        idx = range(len(L))
        _check_lattice_pairs(C, L, [(i, j) for i in idx for j in idx],
                             levels)
        # a lattice started from samples interns only what it reaches
        samples = [zoo.random_subcode(rng, C, rng.randrange(1, C.k + 1))
                   for _ in range(3)] + [C.zero_subcode()]
        P = SubspaceLattice(C, subcodes=samples)
        assert len(P) == len(set(samples))
        got = [P.index_of(S) for S in samples]
        assert len(P) == len(set(samples))      # known keys intern nothing
        assert [P.subcode(i) for i in got] == samples
        _check_lattice_pairs(C, P, [(i, j) for i in got for j in got],
                             levels)
        assert len(P) <= len(L)
    assert padded >= 5 and big >= 5
    # larger fields, where each point has q - 1 nonzero multiples: masks
    # hold a point once, led by 1, and a subcode given by scaled rows is
    # the element that its RREF rows key
    GF5, GF8 = FieldSpec(5), FieldSpec(2, 3, 0b1011)
    for field, k in [(GF5, 2), (GF5, 3)] + [(GF8, 2)] * 2:
        C = zoo.random_code(rng, field, rng.randrange(k, 6), k)
        levels = oracles.subspaces_by_dim(field, oracles.rows_of(C))
        L = SubspaceLattice(C)
        assert len(L) == sum(map(len, levels))
        idx = range(len(L))
        _check_lattice_pairs(C, L, [(i, j) for i in idx for j in idx],
                             levels)
        for i in idx[1:]:                # the zero subcode has no rows
            basis = L.subcode(i).basis.row_list()
            rows = [tuple(field.mul(c, x) for x in row)
                    for c, row in zip(range(field.q - 1, 0, -1), basis)]
            assert L.index_of(Subcode.from_rows(C, rows)) == i


def test_sampled_lattice_on_a_large_field():
    # the GF(256) [4,2] code of the gap-condition test: sampled pairs read
    # against codeword sets, with the levels made of the sampled subcodes
    # (their meets and joins stay among them, as k = 2)
    rng = random.Random(281)
    f = FieldSpec(2, 8, 0x11D)
    C = LinearCode.from_rows(f, [(1, 1, 1, 0), (0, 0, 0, 1)])
    line = Subcode.from_rows(C, [(1, 1, 1, 9)])
    # three sampled lines, distinct and off that line by construction:
    # distinct indices of rref_at, skipping the line's own key
    keys = [rref_at(f, 1, C.k, x) for x in range(subspaces(f.q, C.k, 1))]
    keys.remove(line.key)
    lines = [Subcode(C, key) for key in rng.sample(keys, 3)]
    lines.append(Subcode.from_rows(C, [(7, 7, 7, f.mul(7, 9))]))
    lines.append(line)                                     # the same line
    samples = [C.zero_subcode(), C.whole_subcode()] + lines
    P = SubspaceLattice(C, subcodes=samples)
    assert len(P) == len(set(samples)) == 6
    got = [P.index_of(S) for S in samples]
    words = {S: oracles.span_words(f, S.basis.row_list(), C.n)
             for S in samples}
    levels = [[words[S] for S in set(samples) if S.dim == r]
              for r in range(3)]
    _check_lattice_pairs(C, P, [(i, j) for i in got for j in got], levels)


def test_parallelogram_exhaustive_small():
    rng = random.Random(251)
    for C in small_codes(rng, 12, nmax=6, kmax=3):
        assert verify_parallelogram(SubspaceLattice(C))


def test_parallelogram_makes_no_matrix_joins(monkeypatch):
    # meets are mask ANDs and joins complements of meets, so the pair laws
    # eliminate only for complements (one nullspace per element) and for
    # meets not seen before: at most two fresh RREFs per element
    rref, fresh = Matrix.rref, []

    def counted(self):
        fresh.append(self._rref is None)
        return rref(self)
    monkeypatch.setattr(Matrix, "rref", counted)
    rng = random.Random(283)
    for field, n, k, size in ((GF2, 6, 3, 16), (GF4, 5, 2, 7)):
        C = zoo.random_code(rng, field, n, k)
        fresh.clear()
        lat = hn.subcode_lattice(C)
        assert verify_parallelogram(lat) and len(lat) == size
        assert 0 < sum(fresh) <= 2 * len(lat)


def test_parallelogram_counts_its_pairs_against_the_cap():
    # 2^11 elements make 2^22 pairs, past the default cap of 2^20: refused
    # before any pair is read
    lat = oracles.SubsetLattice(11, lambda J: 0)

    def unread(I, J):
        raise AssertionError("a pair was read past the cap")

    lat.meet = lat.join = unread
    with pytest.raises(SizeLimitExceeded, match="pairs of lattice"):
        verify_parallelogram(lat)


def test_parallelogram_reads_any_rank_degree_lattice():
    # the check stays generic: on the coordinate-subset lattice the degree
    # k - r(J) satisfies the law because rank is submodular, and a degree
    # that is strictly concave in #J breaks it
    rng = random.Random(919)
    codes = [zoo.extended_hamming_8_4(), zoo.binary_5_2()]
    codes += small_codes(rng, 6, fields=(GF2, GF3, GF4), nmax=8)
    for C in codes:
        assert verify_parallelogram(oracles.SubsetLattice.for_code(C))
    assert not verify_parallelogram(
        oracles.SubsetLattice(4, lambda J: -J.bit_count() ** 2))


def test_parallelogram_reads_both_orders_of_a_pair():
    # a meet that is right for I <= J and empty for I > J breaks the rank
    # law only on the second order of each overlapping pair, which a check
    # over unordered pairs would never read
    class OneSidedMeet(oracles.SubsetLattice):
        def meet(self, I, J):
            return I & J if I <= J else 0

    C = zoo.binary_5_2()
    assert verify_parallelogram(oracles.SubsetLattice.for_code(C))
    assert not verify_parallelogram(OneSidedMeet.for_code(C))


def test_subset_lattice_for_code():
    C = zoo.binary_9_7()
    S = oracles.SubsetLattice.for_code(C)
    rows = oracles.rows_of(C)
    for J in [0, 0b111, 0b111110000, (1 << 9) - 1]:
        assert S.rank(J) == J.bit_count()
        comp = ((1 << 9) - 1) ^ J
        assert S.degree(J) == oracles.brute_h0(GF2, rows, [i for i in range(9)
                                                           if (comp >> i) & 1])
    assert S.meet(0b110, 0b011) == 0b010
    assert S.join(0b110, 0b011) == 0b111
    assert S.leq(0b010, 0b011) and not S.leq(0b100, 0b011)


def test_galois_adjunction():
    rng = random.Random(257)
    pool = [zoo.binary_5_2(),
            LinearCode.from_rows(GF2, [(1, 0, 1, 0), (0, 0, 1, 1)])]
    pool += small_codes(rng, 10, nmax=6, kmax=3)
    for C in pool:
        assert verify_galois(C)


def test_galois_catches_a_support_that_misses_a_column():
    # degree and cosupport read one support, so a wrong support is caught
    # only by a law that ties cosupports to the column images: the
    # singleton adjunction s <= img[cos(s)]
    C = LinearCode.from_rows(GF2, [(1, 0, 1, 1, 0), (0, 1, 1, 0, 1)])
    lat = hn.subcode_lattice(C)
    s = next(i for i in range(len(lat)) if lat.rank(i))
    sup = lat.support(s)
    lat._supports[s] = sup & (sup - 1)   # drop its lowest column
    assert not lat.leq(s, lat.vanishing(lat.cosupport(s)))
    assert not verify_galois(C)


def test_one_lattice_per_code_and_no_elimination_per_subset(monkeypatch,
                                                           steps):
    # the first exhaustive lattice of a code is the code's own, whichever
    # entry point builds it, and the Galois check reads it: after the
    # parallelogram has compared every element, the subset images come
    # one step each from the spans the code keeps, with no fresh RREF of
    # any column (only the empty set's span is reduced, from no rows), no
    # more row steps than new spans, and no new point mask
    rref, point_mask = Matrix.rref, SubspaceLattice._point_mask
    fresh, masks = [], []

    def counted_rref(self):
        fresh.append(self._rref is None and self.rows > 0)
        return rref(self)

    def counted_mask(self, i):
        masks.append(i)
        return point_mask(self, i)
    monkeypatch.setattr(Matrix, "rref", counted_rref)
    monkeypatch.setattr(SubspaceLattice, "_point_mask", counted_mask)
    rng = random.Random(929)
    for field, n, k in ((GF2, 5, 3), (GF3, 5, 2), (GF4, 5, 2)):
        C = zoo.random_code(rng, field, n, k)
        sampled = SubspaceLattice(C, subcodes=[C.zero_subcode()])
        assert C._lattice is None and len(sampled) == 1
        lat = SubspaceLattice(C)
        assert hn.subcode_lattice(C) is lat
        assert SubspaceLattice(C) is not lat and C._lattice is lat
        assert verify_parallelogram(lat)
        fresh.clear()
        masks.clear()
        steps.clear()
        kept = len(lat._spans)
        assert verify_galois(C)
        assert sum(fresh) == 0 and masks == []
        assert 0 < len(steps) <= len(lat._spans) - kept


def test_subcode_questions_step_no_kept_row_again(steps):
    # cohomology eliminates the columns outside J once, one step each, and
    # reduces only their span's nullspace (one step per row of C_J), and
    # keeps nothing on the code; a join or a membership test steps in the
    # other subcode's rows and no kept row; a meet that names no known
    # element steps the rows of the second complement into the first,
    # which are kept, and then reduces the meet's own nullspace
    rng = random.Random(953)
    for field, n, k in ((GF2, 5, 3), (GF3, 4, 2), (GF4, 4, 2)):
        C = zoo.random_code(rng, field, n, k)
        for J in range(1 << n):
            steps.clear()
            slots = {s: getattr(C, s) for s in LinearCode.__slots__}
            P = rr.cohomology(C, J)
            assert len(steps) == n - J.bit_count() + P.h0
            assert all(getattr(C, s) is v for s, v in slots.items())
        lat = SubspaceLattice(C)
        subs = [lat.subcode(i) for i in range(len(lat))]
        for i, U in enumerate(subs):
            for j, W in enumerate(subs):
                steps.clear()
                UW = U.join(W)
                assert len(steps) == W.dim
                assert UW == lat.subcode(lat.join(i, j))
                steps.clear()
                has = U.contains(W)
                assert len(steps) == (W.dim if U.dim >= W.dim else 0)
                assert has == lat.leq(j, i)
                pair = SubspaceLattice(C, subcodes=[U, W])
                a, b = pair.index_of(U), pair.index_of(W)
                pair._perps[a], pair._perps[b]      # both complements, first
                steps.clear()
                m = pair.meet(a, b)
                assert len(steps) <= k - W.dim + pair.rank(m)
                assert pair.subcode(m) == U.meet(W) == lat.subcode(
                    lat.meet(i, j))


def test_galois_adjunction_sampled_on_larger_code():
    # exhaustive lattices blow up past k ~ 4; larger codes use sampled sides
    rng = random.Random(259)
    C = zoo.binary_9_7()
    subcodes = [C.zero_subcode(), C.whole_subcode()]
    subcodes += [zoo.random_subcode(rng, C, rng.randrange(1, 4)) for _ in range(8)]
    subsets = [rng.randrange(1 << C.n) for _ in range(40)] + [0, (1 << C.n) - 1]
    assert verify_galois(C, subcodes=subcodes, subsets=subsets)


def test_galois_sampled_never_enumerates_the_lattice():
    # the exhaustive lattice of k = 13 is refused: sampled mode must not
    # enumerate
    rng = random.Random(271)
    C = zoo.parity(GF2, 14)
    with pytest.raises(SizeLimitExceeded):
        hn.subcode_lattice(C)
    subcodes = [C.zero_subcode(), C.whole_subcode()]
    subcodes += [zoo.random_subcode(rng, C, rng.randrange(1, 4))
                 for _ in range(8)]
    subsets = [rng.randrange(1 << C.n) for _ in range(28)]
    subsets += [0, (1 << C.n) - 1]
    assert verify_galois(C, subcodes=subcodes, subsets=subsets)


def test_exhaustive_galois_laws_are_capped_by_their_pairs(monkeypatch):
    # the laws walk 4^n subset pairs: n = 11 is 2^22 of them, refused
    # before any subset is read
    def refuse(*args):
        raise AssertionError("the subsets were walked")
    monkeypatch.setattr(SubspaceLattice, "vanishing", refuse)
    C = LinearCode.from_rows(GF2, [(1,) * 6 + (0,) * 5, (0,) * 6 + (1,) * 5])
    with pytest.raises(SizeLimitExceeded) as err:
        verify_galois(C)
    assert err.value.needed == 22 and "pairs" in str(err.value)


def test_one_key_per_subcode(monkeypatch):
    # a subcode is named by its RREF key in F^k alone: the products that
    # multiply a key by the generator all happen in Subcode.__init__, the
    # lattice interns a subcode's key as it stands, and shortening, the
    # lattice's vanishing subcodes and from_rows agree on the key
    codes = [
        LinearCode.from_rows(GF2, [(0, 1, 1, 0, 1), (0, 0, 0, 1, 1)]),
        LinearCode.from_rows(GF2, [(1, 0, 1, 1), (0, 1, 1, 0)]),
        LinearCode.from_rows(GF3, [(1, 2, 0, 1, 0), (0, 0, 1, 2, 1),
                                   (0, 0, 0, 0, 1)]),
        LinearCode.from_rows(GF4, [(0, 1, 2, 0, 3), (0, 0, 0, 1, 2)]),
    ]
    product, built = Matrix.matmul, Matrix.__init__
    callers, matrices = [], []

    def spy_product(M, other):
        callers.append(sys._getframe(1).f_code)
        return product(M, other)

    def spy_build(M, *args):
        matrices.append(args)
        built(M, *args)

    monkeypatch.setattr(Matrix, "matmul", spy_product)
    rng = random.Random(907)
    for C in codes:
        full = (1 << C.n) - 1
        L = SubspaceLattice(C)
        shortened = [C.shorten(J) for J in range(1 << C.n)]
        subcodes = [L.subcode(i) for i in range(len(L))]
        subcodes += [zoo.random_subcode(rng, C, r) for r in range(1, C.k + 1)]
        subcodes += canonical_filtration(C).steps
        for A, B in zip(subcodes, subcodes[1:]):
            assert A.meet(B).dim + A.join(B).dim == A.dim + B.dim
        for J, S in enumerate(shortened):
            assert S.key == L.elements[L.vanishing(full ^ J)]
        for S in subcodes:
            assert Subcode.from_rows(C, S.basis.row_list()) == S
            monkeypatch.setattr(Matrix, "__init__", spy_build)
            i = L.index_of(S)
            monkeypatch.setattr(Matrix, "__init__", built)
            assert L.subcode(i) == S
        assert matrices == []
        # another code with the same k: no order or lattice operation
        # mixes their subcodes
        other = LinearCode(Matrix.identity(C.field, C.k)).whole_subcode()
        for op in (Subcode.contains, Subcode.meet, Subcode.join):
            with pytest.raises(NotASubcode):
                op(C.whole_subcode(), other)
            with pytest.raises(NotASubcode):
                op(C.zero_subcode(), other)
    assert callers and all(c is Subcode.__init__.__code__ for c in callers)


def test_subset_to_subcode_and_cosupport():
    C = zoo.binary_9_7()
    S = subset_to_subcode(C, 0b1111)             # vanish on the first four
    assert S.dim == 4
    assert S.support_mask == 0b111110000
    full = (1 << C.n) - 1
    assert full ^ S.support_mask == 0b1111
    # adjunction: S' vanishes on J iff J inside the cosupport of S'
    T = subset_to_subcode(C, 0b11)
    assert (full ^ T.support_mask) & 0b11 == 0b11


def test_one_analysis_per_code(monkeypatch):
    # the filtration and the subcode lattice are built once per code and
    # read by every check that needs them: the code's own least-rank search
    # runs once, no check here builds its rank table, and only the lattice
    # laws build a lattice, never the gap condition
    tables, searches, builds = [], [], []
    table, search = (hncodes.algebra.column_rank_table,
                     hncodes.algebra.min_column_rank_by_size)
    build = hn.SubspaceLattice.__init__

    def counted_table(*args):
        tables.append(args)
        return table(*args)

    def counted_search(*args):
        searches.append(args)
        return search(*args)

    def counted_build(self, *args, **kwargs):
        builds.append(args)
        build(self, *args, **kwargs)
    monkeypatch.setattr(hncodes.code, "column_rank_table", counted_table)
    monkeypatch.setattr(hncodes.algebra, "min_column_rank_by_size",
                        counted_search)
    monkeypatch.setattr(hn.SubspaceLattice, "__init__", counted_build)
    C = zoo.binary_9_7()                 # unstable, full support
    W = semistability_witness(C)
    filt = canonical_filtration(C)
    assert W == filt.steps[1]
    assert [(P.n, P.k) for P in graded_pieces(C)] == [(5, 4), (4, 3)]
    assert gap_condition_check(C) and gap_condition_check(C)
    assert len(tables) == 0 and len(builds) == 0
    assert sum(args[0] is C for args in searches) == 1
    # the exhaustive Galois laws on a q^k = 8 code build its lattice; its
    # gap condition does not, nor that of the [9,7] code, whose lattice
    # would have 29,212 elements
    S = zoo.binary_5_2_square()
    assert not is_semistable(S) and S.is_full_support
    assert gap_condition_check(S) and verify_galois(S)
    assert len(builds) == 1


def connected_21_2():
    """The binary [21, 2] code <1^19 0 1, 0^19 1 1>: its columns are 19
    copies of (1, 0), then (0, 1) and (1, 1), all three points of F_2^2, so
    its column matroid and its dual's are connected, one block of 21."""
    return LinearCode.from_rows(GF2, [(1,) * 19 + (0, 1), (0,) * 19 + (1, 1)])


def test_lattice_checks_honour_a_raised_cap():
    # n = 21 is past the default cap, yet the subcode lattice has 5 elements
    C = connected_21_2()
    with enumeration_cap(22):
        assert gap_condition_check(C)
    assert len(hn.subcode_lattice(C)) == 5
    with enumeration_cap(22):
        assert wei_duality_check(C)
        assert dual_dlp_check(C)
    for check in (gap_condition_check, wei_duality_check, dual_dlp_check):
        with pytest.raises(SizeLimitExceeded):
            check(connected_21_2())


def test_every_enumerating_entry_point_honours_a_raised_cap():
    # The connected binary [21, 2] code and its [21, 19] dual have full
    # support, so each call below searches the 2^21 column subsets of one
    # of them or of the product with a [1, 1] factor: each is refused at
    # the default cap of 20 and answers under enumeration_cap(22).  One
    # code object serves every call, so the memos are shared and every
    # later refusal is made with them filled.
    C = connected_21_2()
    R1 = zoo.repetition(GF2, 1)
    whole = C.tensor(R1).whole_subcode()
    top, low, full = 0b11 << 19, (1 << 19) - 1, (1 << 21) - 1

    def unstable_factor():
        # C is not semistable, which the check can tell only past the cap
        with pytest.raises(InvariantViolation, match="semistable"):
            tensor.tensor_semistable_check(C, R1)
        return True

    answers = [
        (C.weight_hierarchy, (0, 2, 21)),
        (C.dlp, (0, 0) + (1,) * 19 + (2,)),
        (lambda: C.dlp_witnesses()[:3], (0, 1 << 20, top)),
        (lambda: len(C.rank_table()), 1 << 21),
        (lambda: C.subset_dim(top), 1),
        (lambda: code_polygon(C).vertices, ((0, 21), (1, 19), (2, 0))),
        (lambda: subset_polygon(C).vertices, ((0, 2), (19, 1), (21, 0))),
        (lambda: canonical_filtration(C).ranks, (0, 1, 2)),
        (lambda: subset_filtration(C).steps, (0, low, full)),
        (lambda: is_semistable(C), False),
        (lambda: is_stable(C), False),
        (lambda: semistability_witness(C).support_mask, top),
        (lambda: [(P.n, P.k) for P in graded_pieces(C)], [(2, 1), (19, 1)]),
        (lambda: hn.gap_rival_degrees(C), (1,)),
        (lambda: gap_condition_check(C), True),
        (lambda: rr.rr_check(C), True),
        (lambda: rr.serre_check(C), True),
        (lambda: rr.rr_normalized(C, top), (0, 18)),
        (lambda: wei_duality_check(C), True),
        (lambda: dual_dlp_check(C), True),
        (lambda: rr.dual_polygon(C).vertices, ((0, 19), (2, 18), (21, 0))),
        (lambda: rr.dual_subset_polygon_check(C), True),
        (lambda: rr.dual_filtration_check(C), True),
        (lambda: rr.dual_code_slopes(C), (Fraction(-19, 18), Fraction(-2))),
        (lambda: tensor.is_chained(C), True),
        (lambda: tensor.tensor_product(C, R1) == C, True),
        (lambda: tensor.schaathun_bound_table(C, R1), (0, 2, 21)),
        (lambda: tensor.schaathun_verify(C, R1), True),
        (lambda: tensor.wei_yang_check(C, R1), True),
        (lambda: tensor.witness(whole, C, R1).cost, 21),
        (unstable_factor, True),
    ]
    for call, expect in answers:
        with pytest.raises(SizeLimitExceeded) as err:
            call()
        assert err.value.needed == 21
        with enumeration_cap(22):
            assert call() == expect


def shuffled_sum(rng, blocks):
    """The direct sum of the codes `blocks` with its columns shuffled, and
    where each column of the unshuffled sum went."""
    n, rows, before = sum(B.n for B in blocks), [], 0
    for B in blocks:
        rows += [(0,) * before + r + (0,) * (n - before - B.n)
                 for r in oracles.rows_of(B)]
        before += B.n
    perm = rng.sample(range(n), n)
    at = {j: p for p, j in enumerate(perm)}
    return LinearCode.from_rows(blocks[0].field,
                                [[r[p] for p in perm] for r in rows]), at


def merged_from_blocks(blocks, at):
    """The least ranks and their witnesses, the hierarchy and the code
    polygon of a sum, from each block's own exhaustive search: minima and
    hierarchies by min-plus over the blocks, witnesses as unions (column j
    of the unshuffled sum at `at[j]`), and the polygon from the blocks'
    sides merged by slope."""
    minr, wit, hier, sides, before = [0], [0], [0], [], 0
    for B in blocks:
        m, w = min_column_rank_by_size(B)
        w = [sum(1 << at[before + i] for i in range(B.n) if J >> i & 1)
             for J in w]
        best = {}
        for s, (r, J) in enumerate(zip(minr, wit)):
            for t, (x, K) in enumerate(zip(m, w)):
                if s + t not in best or r + x < best[s + t][0]:
                    best[s + t] = (r + x, J | K)
        minr, wit = map(list, zip(*[best[s] for s in range(len(best))]))
        d = B.weight_hierarchy()
        hier = [min(hier[i] + d[r - i] for i in range(len(hier))
                    if 0 <= r - i < len(d))
                for r in range(len(hier) + len(d) - 1)]
        vs = code_polygon(B).vertices
        sides += [(b[0] - a[0], b[1] - a[1]) for a, b in zip(vs, vs[1:])]
        before += B.n
    sides.sort(key=lambda side: Fraction(side[1], side[0]), reverse=True)
    vertices = [(0, sum(B.n for B in blocks))]
    for dx, dy in sides:
        x, y = vertices[-1]
        if len(vertices) > 1 and Fraction(dy, dx) == Fraction(
                y - vertices[-2][1], x - vertices[-2][0]):
            vertices.pop()
        vertices.append((x + dx, y + dy))
    return minr, wit, tuple(hier), tuple(vertices)


def test_sums_past_the_cap_answer_from_their_blocks():
    # at the default cap, a sum past n = 20 whose largest block is within
    # it answers: its hierarchy, both polygons, the filtration and the
    # verdicts equal those merged from each block's own exhaustive search.
    # The rank table's readers still need 2^n entries, so they refuse.
    # The sums are the [21,2] code <1^19 0^2, 0^19 1^2>, whose blocks are
    # two parallel classes, a shuffled binary [40,20] = [20,10] + [20,10],
    # and a shuffled [54,26] = [20,10] + [18,4] + [16,12]
    rng = random.Random(3805)
    sums = [(LinearCode.from_rows(GF2, [(1,) * 19 + (0, 0),
                                        (0,) * 19 + (1, 1)]),
             [zoo.repetition(GF2, 19), zoo.repetition(GF2, 2)],
             dict(enumerate(range(21))))]
    for shape in ([(20, 10), (20, 10)], [(20, 10), (18, 4), (16, 12)]):
        blocks = [zoo.random_code(rng, GF2, n, k) for n, k in shape]
        C, at = shuffled_sum(rng, blocks)
        sums.append((C, blocks, at))
    sides = []
    for C, blocks, at in sums:
        assert C.n > 20 >= max(b.bit_count() for b in C.blocks())
        minr, wit, hier, vertices = merged_from_blocks(blocks, at)
        poly = polygon_from_profile([C.k - m for m in minr])
        assert subset_polygon(C) == poly
        assert subset_filtration(C).steps == tuple(
            wit[s] for s in poly.vertex_ranks)
        assert C.weight_hierarchy() == hier
        assert code_polygon(C).vertices == vertices
        filt = canonical_filtration(C)
        assert [(S.dim, S.degree) for S in filt.steps] == list(vertices)
        assert is_semistable(C) == (len(vertices) == 2)
        assert semistability_witness(C) == (
            None if is_semistable(C) else filt.steps[1])
        # a proper summand is at least as steep as the sum, so no sum is
        # stable
        assert is_stable(C) is False
        for read in (C.rank_table, lambda: rr.rr_check(C)):
            with pytest.raises(SizeLimitExceeded) as err:
                read()
            assert err.value.needed == C.n
        sides.append(len(vertices) - 1)
    assert sides == [2, 2, 4]


def test_derived_memos_leave_the_cap_to_its_owners(monkeypatch):
    # `least_ranks` alone charges the least-rank unit and the rank table
    # its own: with every memo filled, no polygon, filtration, verdict,
    # hierarchy or chain condition reaches a cap check of its own.  The
    # GF(3) code [2,1] + [3,2] has a zero column, so its subset polygon
    # starts flat, and the [16,9] sum is searched block by block.
    def refuse(*args):
        raise AssertionError("a derived memo charged the cap itself")
    codes = [zoo.binary_9_7(),
             LinearCode.from_rows(GF3, [(1, 2, 0, 0, 0, 0),
                                        (0, 0, 1, 0, 1, 0),
                                        (0, 0, 0, 1, 1, 0)]),
             three_sided_16_9()]
    calls = [subset_filtration, canonical_filtration, subset_polygon,
             code_polygon, is_semistable, semistability_witness,
             tensor.is_chained]

    def answers():
        return [[call(C) for call in calls] for C in codes], graded_pieces(
            codes[0])
    before = answers()
    hierarchies = [C.weight_hierarchy() for C in codes]
    assert [code_polygon(C).N for C in codes] == [2, 2, 3]
    assert subset_polygon(codes[1]).vertices[:2] == ((0, 3), (1, 3))
    monkeypatch.setattr(hn, "_check_cap", refuse)
    monkeypatch.setattr(tensor, "_check_cap", refuse)
    assert answers() == before
    # `rank_table` owns the name in `hncodes.code`, which `is_chained`
    # reads above, so it is patched only for the hierarchy
    monkeypatch.setattr(hncodes.code, "_check_cap", refuse)
    assert [C.weight_hierarchy() for C in codes] == hierarchies


def test_one_hull_per_object(monkeypatch):
    # `subset_filtration` builds the hull of the least ranks once and keeps
    # its polygon; both polygons and both verdicts read it back
    hulls = []
    hull = hn._upper_hull
    monkeypatch.setattr(hn, "_upper_hull",
                        lambda pts: hulls.append(len(pts)) or hull(pts))
    for C, sides in ((zoo.binary_9_7(), 2), (zoo.binary_5_2(), 1)):
        canonical_filtration(C)
        assert hulls == [C.n + 1]
        for _ in range(3):
            assert subset_polygon(C).N == code_polygon(C).N == sides
            assert is_semistable(C) == (semistability_witness(C) is None)
        assert hulls == [C.n + 1]
        hulls.clear()


def test_gap_rival_degrees_against_the_lattice_scan():
    # at each interior vertex, the largest degree of a rival subcode read
    # off the contractions' least ranks against a scan of the whole subcode
    # lattice, on plain, zero-padded and direct-sum GF(2/3/4) codes, n <= 10
    rng = random.Random(331)
    vertices = padded = 0
    for C in filtration_codes(rng, 900, nmax=10):
        got = hn.gap_rival_degrees(C)
        assert got == oracles.lattice_rival_degrees(SubspaceLattice(C),
                                                    canonical_filtration(C))
        assert gap_condition_check(C)
        vertices += len(got)
        padded += bool(got) and not C.is_full_support
    assert vertices >= 300 and padded >= 50


def test_gap_rival_degrees_search_once_per_parallel_class(monkeypatch):
    # the GF(3) sum <1100, 0012> + [3,1] repetition: the filtration step of
    # rank 2 has support {0, 1, 2, 3}, where column 1 repeats column 0 and
    # column 3 is twice column 2, so two contractions are searched, not four
    searches = []
    search = hncodes.algebra.min_column_rank_by_size

    def counted(M, *args, **kwargs):
        searches.append(M.n)
        return search(M, *args, **kwargs)
    monkeypatch.setattr(hncodes.algebra, "min_column_rank_by_size", counted)
    C = code_direct_sum(LinearCode.from_rows(GF3, [(1, 1, 0, 0),
                                                  (0, 0, 1, 2)]),
                        zoo.repetition(GF3, 3))
    filt = canonical_filtration(C)
    assert filt.ranks == (0, 2, 3)
    assert filt.steps[1].support_mask == 0b1111
    assert hn.gap_rival_degrees(C) == (2,)
    assert searches == [7, 6, 6]
    assert hn.gap_rival_degrees(C) == oracles.lattice_rival_degrees(
        SubspaceLattice(C), filt)


def three_sided_16_9():
    """The binary [16,9] sum F_2^3 + [5,4] parity + <1^4 0^4, 0^4 1^4>,
    whose polygon has three sides."""
    blocks = [zoo.full_space(GF2, 3), zoo.parity(GF2, 5),
              LinearCode.from_rows(GF2, [(1,) * 4 + (0,) * 4,
                                         (0,) * 4 + (1,) * 4])]
    C = blocks[0]
    for B in blocks[1:]:
        C = code_direct_sum(C, B)
    return C


def test_lattice_bits_sum_the_gaussian_binomials():
    # the count read off algebra.subspaces equals the running product of
    # [k, r]_q over r that it replaced
    for f in (FieldSpec(2), FieldSpec(3), zoo.gf4(), FieldSpec(2, 8, 0x11D)):
        for k in range(1, 9):
            q, total, g = f.q, 0, 1
            for r in range(k + 1):
                total += g
                g = g * (q ** (k - r) - 1) // (q ** (r + 1) - 1)
            bits = (total - 1).bit_length()
            assert hn._lattice_bits(zoo.full_space(f, k)) == bits


def test_gap_condition_past_the_lattice_cap(monkeypatch):
    # a binary [16,9] code with three sides: F_2^9 has 8,283,458 subspaces,
    # past the lattice cap, but the gap condition reads least ranks and
    # builds no lattice
    def refuse(*args, **kwargs):
        raise AssertionError("a subcode lattice was built")
    monkeypatch.setattr(hn.SubspaceLattice, "__init__", refuse)
    C = three_sided_16_9()
    assert (C.n, C.k) == (16, 9) and code_polygon(C).N == 3
    assert hn._lattice_bits(C) > 20
    # vertices (3, 13), (7, 8) and slopes -1, -5/4, -4: the best rival of
    # rank 3 is two unit words and a weight-2 parity word (degree 12 <=
    # 13 - 1/4), and of rank 7 the [8,7] block less one unit word plus one
    # weight-4 word (degree 5 <= 8 - 11/4)
    assert hn.gap_rival_degrees(C) == (12, 5)
    assert gap_condition_check(C)


def test_gap_and_clifford_build_no_rank_table(monkeypatch):
    # both checks read least ranks by size, never the 2^n table
    def refuse(*args):
        raise AssertionError("a rank table was built")
    monkeypatch.setattr(hncodes.code, "column_rank_table", refuse)
    self_dual = code_direct_sum(zoo.extended_hamming_8_4(),
                                zoo.repetition(GF2, 2))
    cases = [(zoo.binary_9_7(), (3,)), (three_sided_16_9(), (12, 5)),
             (self_dual, ()),
             (code_direct_sum(zoo.full_space(GF2, 2), self_dual), (9,))]
    for C, degrees in cases:
        assert hn.gap_rival_degrees(C) == degrees
        assert gap_condition_check(C)
    assert self_dual.dual() == self_dual and rr.clifford_check(self_dual)
    for C, _ in cases[:2]:
        with pytest.raises(InvariantViolation, match="self-dual"):
            rr.clifford_check(C)


def test_gap_condition():
    rng = random.Random(263)
    for C in [zoo.binary_5_2(), zoo.binary_9_7()] + small_codes(rng, 15, nmax=6):
        assert gap_condition_check(C)
