"""Field construction, exact linear algebra, and subset-rank machinery."""

import hashlib
import itertools
import math
import random
import threading
import types
from pathlib import Path

import pytest

from hncodes import (
    DivisionByZero,
    FieldMismatch,
    FieldTooLarge,
    InvariantViolation,
    LinearCode,
    NonPrime,
    ReducibleModulus,
    SizeLimitExceeded,
    algebra,
    zoo,
)
from hncodes.algebra import (
    FieldSpec,
    Matrix,
    column_rank_table,
    enumeration_cap,
    iter_rref_matrices,
    least_ranks,
    min_column_rank_by_size,
    rref_at,
    subsets_where,
    subspaces,
)
from hncodes.code import Subcode
from hncodes.matroid import Matroid

import oracles

FIELDS = [FieldSpec(2), FieldSpec(3), FieldSpec(5),
          FieldSpec(2, 2, 0b111), FieldSpec(2, 3, 0b1011),
          FieldSpec(3, 2, 10)]  # 10 = 1 + 0*3 + 1*9, i.e. x^2 + 1


def gauss_binom(q, n, k):
    num = den = 1
    for i in range(k):
        num *= q ** n - q ** i
        den *= q ** k - q ** i
    return num // den


# ---------------------------------------------------------------------------
# field axioms, exhaustive over every element
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"q{f.q}")
def test_field_axioms_exhaustive(field):
    els = list(field.elements())
    assert els == list(range(field.q))
    for a in els:
        assert field.add(a, 0) == a
        assert field.mul(a, 1) == a
        assert field.mul(a, 0) == 0
        assert field.add(a, field.neg(a)) == 0
        if a:
            assert field.mul(a, field.inv(a)) == 1
        for b in els:
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            assert field.sub(a, b) == field.add(a, field.neg(b))
            for c in els:
                assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
                assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
                assert field.mul(a, field.add(b, c)) == \
                    field.add(field.mul(a, b), field.mul(a, c))


def test_gf4_sample_products():
    # elements are little-endian p-digit encodings: 2 = x, 3 = x + 1
    f4 = FieldSpec(2, 2, 0b111)
    assert f4.mul(2, 3) == 1          # x * (x + 1) = x^2 + x = 1
    assert f4.mul(2, 2) == 3          # x^2 = x + 1
    assert f4.add(2, 3) == 1
    assert f4.inv(2) == 3
    assert f4.pow(2, 3) == 1          # multiplicative order 3


def test_gf8_and_gf9_powers():
    f8 = FieldSpec(2, 3, 0b1011)
    seen = {f8.pow(2, i) for i in range(7)}
    assert len(seen) == 7             # x generates the multiplicative group
    f9 = FieldSpec(3, 2, 10)
    assert f9.mul(2, 2) == 1          # 2 * 2 = 4 = 1 mod 3
    assert f9.inv(2) == 2


def test_scalar_module_helpers():
    f3 = FieldSpec(3)
    assert f3.add(2, 2) == 1
    assert f3.mul(2, 2) == 1
    assert f3.inv(2) == 2


def test_field_construction_errors():
    with pytest.raises(NonPrime):
        FieldSpec(6)
    with pytest.raises(NonPrime):
        FieldSpec(4)
    with pytest.raises(FieldTooLarge):
        FieldSpec(2, 9)
    with pytest.raises(FieldTooLarge):
        FieldSpec(257)
    with pytest.raises(ReducibleModulus):
        FieldSpec(2, 2, 0b110)        # x^2 + x
    with pytest.raises(ReducibleModulus):
        FieldSpec(3, 2, 9)            # x^2 = x * x
    with pytest.raises(InvariantViolation):
        FieldSpec(2, 2)               # modulus required for extensions
    with pytest.raises(DivisionByZero):
        FieldSpec(5).inv(0)
    assert FieldSpec(2, 8, 0b100011011).q == 256    # largest allowed order


def test_field_rebuild_agrees():
    a, b = FieldSpec(2, 2, 0b111), FieldSpec(2, 2, 0b111)
    assert (a.p, a.m, a.q, a.modulus) == (b.p, b.m, b.q, b.modulus)
    assert all(a.mul(x, y) == b.mul(x, y) for x in range(4) for y in range(4))


def _agrees_with_oracle(F, rows):
    """add and mul on the given rows (all columns) equal the digit
    polynomial reference; neg, sub, inv and pow agree with them."""
    p, m, q, f = F.p, F.m, F.q, F.modulus
    for a in rows:
        for b in range(q):
            assert F.add(a, b) == oracles.field_add(p, m, a, b), (f, a, b)
            assert F.mul(a, b) == oracles.field_mul(p, m, f, a, b), (f, a, b)
            assert F.add(F.sub(a, b), b) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert oracles.field_mul(p, m, f, a, F.inv(a)) == 1
        power = 1
        for e in range(q + 1):
            assert F.pow(a, e) == power, (f, a, e)
            power = oracles.field_mul(p, m, f, power, a)
        if a:
            assert F.pow(a, -1) == F.inv(a)
            assert F.pow(a, -2) == F.mul(F.inv(a), F.inv(a))


def test_fields_match_the_polynomial_oracle_up_to_order_32():
    # every (p, m, modulus) with q <= 32: the field is refused exactly when
    # trial division finds a factor, and otherwise its tables are GF(p)[x]
    # modulo the modulus
    specs = [(p, m, f) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
             for m in range(1, 6) if p ** m <= 32
             for f in range(p ** m, 2 * p ** m)]
    assert len(specs) == 281
    refused = 0
    for p, m, f in specs:
        if not oracles.is_irreducible(p, m, f):
            with pytest.raises(ReducibleModulus):
                FieldSpec(p, m, f)
            refused += 1
            continue
        F = FieldSpec(p, m, f)
        _agrees_with_oracle(F, range(F.q))
    # the 160 moduli of degree 1 are irreducible, and of degree 2..5 there
    # are 1, 2, 3, 6 over GF(2), 3 and 8 over GF(3) and 10 over GF(5)
    assert refused == 281 - 160 - (1 + 2 + 3 + 6) - (3 + 8) - 10


def test_gf256_matches_the_polynomial_oracle_on_sampled_rows():
    rng = random.Random(0x100)
    for f in (285, 283):
        assert oracles.is_irreducible(2, 8, f)
        _agrees_with_oracle(FieldSpec(2, 8, f),
                            [0, 1, 2, 255] + rng.sample(range(3, 255), 6))
    assert not oracles.is_irreducible(2, 8, 284)
    with pytest.raises(ReducibleModulus):
        FieldSpec(2, 8, 284)


def _field_specs():
    """The 1,411 specs (p, m, modulus) with q <= 256: each prime p with the
    modulus p, and every modulus in [q, 2q) for m >= 2."""
    primes = [p for p in range(2, 257) if all(p % d for d in range(2, p))]
    return [(p, 1, p) for p in primes] + [
        (p, m, f) for p in primes for m in range(2, 9) if p ** m <= 256
        for f in range(p ** m, 2 * p ** m)]


def _table_digest(F):
    # subtraction has no table of its own: its rows are hashed through F.sub
    h, q = hashlib.sha256(), F.q
    sub = [list(map(F.sub, [a] * q, range(q))) for a in range(q)]
    for table in (F._add, F._mul, [F._neg], sub, [F._inv]):
        for row in table:
            h.update(bytes(row))
    return h.hexdigest()


def test_field_tables_match_their_pinned_digests():
    # every table of all 404 fields with q <= 256 is byte-identical to the
    # pinned one, and the other 1,007 moduli are refused
    pinned = {}
    text = Path(__file__).with_name("field_table_digests.txt").read_text()
    for line in text.splitlines():
        if not line.startswith("#"):
            p, m, f, digest = line.split()
            pinned[int(p), int(m), int(f)] = digest
    specs = _field_specs()
    assert (len(specs), len(pinned)) == (1411, 404)
    for spec in specs:
        if spec in pinned:
            assert _table_digest(FieldSpec(*spec)) == pinned[spec], spec
        else:
            with pytest.raises(ReducibleModulus):
                FieldSpec(*spec)


def test_fields_past_order_32_match_the_polynomial_oracle():
    # past q = 32 a field is refused exactly when trial division finds a
    # factor, and rows 0, 1, p and q - 1 of its first modulus are GF(p)[x]
    # modulo it
    checked = set()
    for p, m, f in _field_specs():
        q = p ** m
        if q <= 32:
            continue
        if not oracles.is_irreducible(p, m, f):
            with pytest.raises(ReducibleModulus):
                FieldSpec(p, m, f)
        elif (p, m) not in checked:
            checked.add((p, m))
            _agrees_with_oracle(FieldSpec(p, m, f), {0, 1, p % q, q - 1})
    assert len(checked) == 43 + 9       # 43 primes past 32, 9 extensions


def test_field_repr_tells_unequal_fields_apart():
    # over GF(2), x + 1 (the integer 3) is as good a modulus as x
    a, b = FieldSpec(2, 1, 3), FieldSpec(2)
    assert a != b and repr(a) != repr(b)
    assert repr(b) == "FieldSpec(2)"
    assert repr(FieldSpec(2, 1, 2)) == "FieldSpec(2)"
    for f in FIELDS + [a]:
        assert eval(repr(f)) == f


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def test_matrix_validation():
    f2 = FieldSpec(2)
    with pytest.raises(InvariantViolation):
        Matrix.from_rows(f2, [(1, 0), (1,)])
    with pytest.raises(InvariantViolation):
        Matrix.from_rows(f2, [(2, 0)])


def test_rref_small_example():
    f2 = FieldSpec(2)
    M = Matrix.from_rows(f2, [(1, 1, 0), (1, 1, 1), (0, 0, 1)])
    R, piv = M.rref()
    assert piv == (0, 2)
    assert R.row(0) == (1, 1, 0)
    assert R.row(1) == (0, 0, 1)
    assert M.rank() == 2


def test_rref_properties_random():
    import random
    rng = random.Random(11)
    for field in FIELDS:
        for _ in range(25):
            r = rng.randrange(1, 4)
            c = rng.randrange(1, 5)
            M = Matrix.from_rows(field, [[rng.randrange(field.q)
                                          for _ in range(c)] for _ in range(r)])
            R, piv = M.rref()
            assert R.rref()[0] == R                      # idempotent
            assert len(piv) == M.rank()
            for t, j in enumerate(piv):                  # pivot columns are units
                col = R.column(j)
                assert col[t] == 1
                assert all(x == 0 for i, x in enumerate(col) if i != t)
            for i in range(r):                           # row space preserved
                assert oracles.in_row_space(field, R.row_list(), M.row(i))
            # rank equals the oracle projection count
            assert M.rank() == oracles.brute_column_rank(
                field, [M.row(i) for i in range(r)], range(c))


def test_extend_matches_the_oracle_rref():
    # any rows extended by more rows give the RREF of all of them, as the
    # scalar Gauss-Jordan oracle reduces them, zero rows dropped, whether
    # or not the first rows are in RREF; rows that add no rank give back
    # the first rows when they keep themselves as their RREF
    rng = random.Random(13)
    for field in FIELDS:
        for _ in range(25):
            c = rng.randrange(1, 6)
            A, B = (Matrix(field, r, c, tuple(
                rng.choice((0, 0, rng.randrange(field.q)))
                for _ in range(r * c)))
                for r in (rng.randrange(4), rng.randrange(4)))
            rows, piv = oracles.brute_rref(
                field, A.row_list() + B.row_list(), c)
            for R in (A, A.rref()[0]):
                E = R.extend(B)
                assert (E.entries, E.rows, E.rref()) == (
                    sum(rows, ()), len(rows), (E, piv))
            assert (E is R) == (len(piv) == R.rows)     # R keeps its RREF
    R = Matrix.identity(FIELDS[0], 2)
    with pytest.raises(InvariantViolation):
        R.extend(Matrix.identity(FIELDS[0], 3))
    with pytest.raises(FieldMismatch):
        R.extend(Matrix.identity(FIELDS[1], 2))


def test_column_span_matches_the_oracle_rref():
    # columns stepped into no rows, or into a span that column_span
    # returned before, give the RREF of all of them as the scalar
    # Gauss-Jordan oracle reduces them, and the span stepped into comes
    # back itself exactly when no column adds rank.  The matrices are
    # padded with zero rows, rarely square, and carry a zero column and
    # a column repeated up to a scalar; the column lists repeat columns
    # too.  And rref() of any matrix, all-zero ones included, has
    # rank-many rows
    rng = random.Random(4003)
    fields = [FieldSpec(2), FieldSpec(3), FieldSpec(2, 2, 0b111),
              FieldSpec(2, 8, 0x11B)]
    for field in fields:
        for _ in range(40):
            height, width = rng.randrange(1, 6), rng.randrange(3, 8)
            zero_rows = set(rng.sample(range(height),
                                       rng.randrange(height)))
            cols = [tuple(0 if i in zero_rows else rng.choice(
                (0, rng.randrange(field.q))) for i in range(height))
                for _ in range(width)]
            a, b, z = rng.sample(range(width), 3)
            c = rng.randrange(1, field.q)
            cols[b] = tuple(field.mul(c, x) for x in cols[a])
            cols[z] = (0,) * height
            M = Matrix(field, height, width, tuple(
                cols[j][i] for i in range(height) for j in range(width)))
            R, piv = M.rref()
            assert R.rows == len(piv) == len(oracles.brute_rref(
                field, M.row_list(), width)[1])
            first = rng.choices(range(width), k=rng.randrange(width + 1))
            then = rng.choices(range(width), k=rng.randrange(width + 1))
            S = M.column_span(first)
            T = M.column_span(then, S)
            for span, js in ((S, first), (T, first + then)):
                rows, piv = oracles.brute_rref(
                    field, [cols[j] for j in js], height)
                assert (span.entries, span.rows, span.cols,
                        span.rref()) == (sum(rows, ()), len(rows), height,
                                         (span, piv))
            assert (T is S) == (T.rows == S.rows)
        Z = Matrix(field, height, width, (0,) * (height * width))
        assert Z.rref()[0].rows == 0 and Z.rref()[1] == ()
        assert Z.column_span(range(width)).rows == 0


def test_nullspace():
    import random
    rng = random.Random(7)
    for field in FIELDS:
        for _ in range(15):
            r = rng.randrange(1, 4)
            c = rng.randrange(1, 5)
            M = Matrix.from_rows(field, [[rng.randrange(field.q)
                                          for _ in range(c)] for _ in range(r)])
            N = M.right_nullspace()
            assert N.rows == c - M.rank()               # rank-nullity
            rows, piv = oracles.brute_rref(field, N.row_list(), c)
            assert (N.entries, N.rref()) == (sum(rows, ()), (N, piv))
            for i in range(N.rows):
                v = Matrix.from_rows(field, [[x] for x in N.row(i)])
                prod = M.matmul(v)
                assert all(prod.entry(a, 0) == 0 for a in range(r))


def test_kron_entries():
    f3 = FieldSpec(3)
    A = Matrix.from_rows(f3, [(1, 2), (0, 1)])
    B = Matrix.from_rows(f3, [(2, 1, 0)])
    K = A.kron(B)
    assert (K.rows, K.cols) == (2, 6)
    for i in range(2):
        for j in range(1):
            for a in range(2):
                for b in range(3):
                    assert K.entry(i * 1 + j, a * 3 + b) == \
                        f3.mul(A.entry(i, a), B.entry(j, b))


def test_kron_of_rref_factors_keeps_its_rref(monkeypatch):
    # the product of two RREF matrices with no zero row is RREF: row (i, j)
    # leads at column p_i * n_B + p'_j, where every other row is 0.  So
    # `kron` keeps the product as its own RREF, which must equal the brute
    # elimination of its rows, on random GF(2/3/4) generator pairs; a
    # factor that is not its own RREF leaves the product to be reduced
    rng = random.Random(3801)
    fields = [FieldSpec(2), FieldSpec(3), FieldSpec(2, 2, 0b111)]
    for _ in range(150):
        f = rng.choice(fields)
        A, B = [zoo.random_code(rng, f, n, rng.randrange(1, n + 1)).gen
                for n in (rng.randrange(1, 6), rng.randrange(1, 6))]
        K = A.kron(B)
        assert K.rref()[0] is K
        assert (K.row_list(), K.rref()[1]) == oracles.brute_rref(
            f, K.row_list(), K.cols)
        shuffled = Matrix.from_rows(f, A.row_list()[::-1])
        if A.rows > 1:
            P = shuffled.kron(B)
            assert P._rref is None
            R, piv = P.rref()
            assert (R.row_list()[:len(piv)], piv) == oracles.brute_rref(
                f, P.row_list(), P.cols)
    # and a tensor product steps no row into RREF
    stepped, step = [], algebra._rref_step

    def counted(rows, piv, v, f):
        stepped.append(v)
        return step(rows, piv, v, f)
    A, B = zoo.binary_9_7(), zoo.random_code(rng, FieldSpec(2), 6, 3)
    monkeypatch.setattr(algebra, "_rref_step", counted)
    T = A.tensor(B)
    assert (T.n, T.k) == (54, 21) and stepped == []


def test_row_space_intersection():
    # Subcode.meet intersects row spaces, here inside the full space F^4
    f2 = FieldSpec(2)
    F = zoo.full_space(f2, 4)
    A = Subcode.from_rows(F, [(1, 0, 0, 0), (0, 1, 0, 0)])
    B = Subcode.from_rows(F, [(0, 1, 0, 0), (0, 0, 1, 0)])
    I = A.meet(B).basis
    assert I.rows == 1
    assert I.row(0) == (0, 1, 0, 0)
    # brute cross-check: exactly the words lying in both spans
    for field in [f2, FieldSpec(3)]:
        import random
        rng = random.Random(3)
        F = zoo.full_space(field, 4)
        zero = F.zero_subcode()
        for _ in range(20):
            rows = lambda: [[rng.randrange(field.q) for _ in range(4)]
                            for _ in range(2)]
            A = Matrix.from_rows(field, rows())
            B = Matrix.from_rows(field, rows())
            SA = Subcode.from_rows(F, A.row_list())
            SB = Subcode.from_rows(F, B.row_list())
            I = SA.meet(SB).basis
            words_a = set(oracles.codewords(field, [A.row(i) for i in range(2)]))
            words_b = set(oracles.codewords(field, [B.row(i) for i in range(2)]))
            both = words_a & words_b
            assert len(both) == field.q ** I.rows
            for i in range(I.rows):
                assert I.row(i) in both
            # the zero subcode meets anything in itself
            assert SA.meet(zero) == zero and zero.meet(SB) == zero


# ---------------------------------------------------------------------------
# subset rank machinery
# ---------------------------------------------------------------------------

def test_column_rank_table_matches_direct_ranks():
    import random
    rng = random.Random(23)
    for field in [FieldSpec(2), FieldSpec(3), FieldSpec(2, 2, 0b111)]:
        for _ in range(8):
            r = rng.randrange(1, 4)
            c = rng.randrange(1, 7)
            M = Matrix.from_rows(field, [[rng.randrange(field.q)
                                          for _ in range(c)] for _ in range(r)])
            tab = column_rank_table(M)
            assert len(tab) == 1 << c
            for J in range(1 << c):
                cols = [j for j in range(c) if (J >> j) & 1]
                assert tab[J] == oracles.brute_column_rank(
                    field, [M.row(i) for i in range(r)], cols)


def test_min_column_rank_by_size():
    import random
    rng = random.Random(29)
    f2 = FieldSpec(2)
    for _ in range(10):
        r = rng.randrange(1, 5)
        c = rng.randrange(1, 8)
        M = Matrix.from_rows(f2, [[rng.randrange(2) for _ in range(c)]
                                  for _ in range(r)])
        tab = column_rank_table(M)
        mins, _ = min_column_rank_by_size(M)
        for s in range(c + 1):
            expect = min(tab[J] for J in range(1 << c) if J.bit_count() == s)
            assert mins[s] == expect
        mins_w, wits = min_column_rank_by_size(M)
        assert tuple(mins_w) == tuple(mins)
        for s in range(c + 1):
            assert wits[s].bit_count() == s
            assert tab[wits[s]] == mins[s]


def random_columns(rng, f, k, n, least_scale=1):
    """n random columns of length k over f, often zero, repeats or scalar
    multiples (by least_scale or more) of earlier ones, so that closures
    hold many columns and ties are common."""
    cols = []
    for _ in range(n):
        shape = rng.random()
        if cols and shape < 0.15:
            cols.append(rng.choice(cols))
        elif cols and shape < 0.3:
            a = rng.randrange(least_scale, f.q)
            cols.append([f.mul(a, x) for x in rng.choice(cols)])
        elif shape < 0.4:
            cols.append([0] * k)
        else:
            cols.append([rng.randrange(f.q) for _ in range(k)])
    return cols


def columned_matrices(rng, count, nmax=12):
    """Random k x n matrices over GF(2), GF(3), GF(4) and GF(256), n <= nmax,
    with `random_columns`."""
    fields = [FieldSpec(2), FieldSpec(3), FieldSpec(2, 2, 0b111),
              FieldSpec(2, 8, 0x11B)]
    out = []
    for _ in range(count):
        f = rng.choice(fields)
        k, n = rng.randrange(1, 6), rng.randrange(1, nmax + 1)
        cols = random_columns(rng, f, k, n)
        out.append(Matrix.from_rows(f, [[c[i] for c in cols]
                                        for i in range(k)]))
    return out


def test_min_rank_search_matches_rank_table():
    # the least-rank search cuts the siblings after a dependent column and
    # prunes by one lookup; the full rank table is its oracle
    import random
    from test_hn import filtration_codes
    rng = random.Random(31)
    mats = columned_matrices(rng, 300)
    mats += [C.gen for C in filtration_codes(rng, 100, nmax=10)]
    for M in mats:
        n = M.cols
        tab = column_rank_table(M)
        expect = [n + 1] * (n + 1)
        for J, r in enumerate(tab):
            s = J.bit_count()
            expect[s] = min(expect[s], r)
        best, wits = min_column_rank_by_size(M)
        assert best == expect
        for s in range(n + 1):
            assert wits[s].bit_count() == s and tab[wits[s]] == best[s]


def parallel_class_matroids(rng, count, nmax=10):
    """Table matroids: a uniform matroid U(r, m) whose elements are blown up
    into parallel classes, plus loops (class -1)."""
    out = []
    for _ in range(count):
        n = rng.randrange(1, nmax + 1)
        m = rng.randrange(1, n + 1)
        cls = [rng.randrange(-1, m) for _ in range(n)]
        r = rng.randrange(0, m + 1)
        out.append(Matroid(n, bytes(
            min(r, len({cls[e] for e in range(n)
                        if (J >> e) & 1 and cls[e] >= 0}))
            for J in range(1 << n))))
    return out


def test_column_searches_against_brute_ranks():
    # the table, the least-rank search, and the subsets of given sizes and
    # ranks read off the table, against ranks row-reduced subset by subset:
    # codes over GF(2/3/4/256) with zero, repeated and proportional columns,
    # their column matroids, and matroids with loops and parallel classes.
    # A matroid reads its least ranks off its own table: the scan's minima,
    # each witness the least mask attaining its minimum
    rng = random.Random(37)
    pool = []
    for M in columned_matrices(rng, 90, nmax=10):
        table = oracles.brute_rank_table(M.field, M.row_list())
        pool += [(M, table), (Matroid(M.cols, table), table)]
    pool += [(M, M.ranks) for M in parallel_class_matroids(rng, 40)]
    for X, table in pool:
        n = len(table).bit_length() - 1
        if isinstance(X, Matroid):
            got = X.rank_table()
            minima, witnesses = oracles.table_least_masks(n, table)
            assert least_ranks(X) == (minima, witnesses)
        else:
            got = column_rank_table(X)
            assert got == table
            # witnesses: the first least-rank subset of each size in the
            # order of sorted column indices, which is the DFS's visiting
            # order
            minima, first = oracles.table_least_ranks(n, table)
            assert min_column_rank_by_size(X) == (minima, first)
        sizes = sorted(rng.sample(range(n + 1), rng.randrange(1, n + 2)))
        targets = [(s, rng.choice([minima[s], rng.randrange(s + 1)]))
                   for s in sizes]
        expect = oracles.table_subsets_attaining(table, targets)
        assert {s: subsets_where(got, s, r) for s, r in targets} == expect


DEEP_SHAPES = [
    # (q, blocks): the codes of n = 13..17 the benchmark's deep load runs,
    # random codes and shuffled direct sums of blocks [n_i, k_i]
    (2, [(17, 8)]), (2, [(16, 7)]), (2, [(16, 8)]), (3, [(13, 6)]),
    (4, [(13, 6)]), (256, [(13, 6)]), (2, [(4, 3), (6, 3), (7, 2)]),
    (2, [(5, 4), (5, 3), (6, 2)]), (2, [(6, 5), (10, 3)]),
    (3, [(6, 4), (9, 3)]), (4, [(5, 4), (8, 3)]),
]


def deep_shaped_codes(rng):
    """One code of each of `DEEP_SHAPES`, columns shuffled, and its dual."""
    fields = {2: FieldSpec(2), 3: FieldSpec(3), 4: FieldSpec(2, 2, 0b111),
              256: FieldSpec(2, 8, 0x11B)}
    out = []
    for q, blocks in DEEP_SHAPES:
        n = sum(bn for bn, _ in blocks)
        rows, off = [], 0
        for bn, bk in blocks:
            for r in oracles.rows_of(zoo.random_code(rng, fields[q], bn, bk)):
                rows.append((0,) * off + r + (0,) * (n - off - bn))
            off += bn
        perm = rng.sample(range(n), n)
        C = LinearCode.from_rows(fields[q], [[r[p] for p in perm]
                                             for r in rows])
        out += [C, C.dual()]
    return out


def test_least_rank_search_against_brute_tables():
    # the minima and the lexicographically first witnesses of the least-rank
    # search, whose bands read the tail's zero and repeated points, against
    # tables row-reduced subset by subset: matrices over GF(2/3/4/256) with
    # zero, repeated and proportional columns, codes padded with zero
    # columns and direct sums, and one code of each deep shape and its dual,
    # against its rank table.  That table is row-reduced too where
    # `column_rank_table` would walk the DFS (q^k > 2^n), which runs the
    # same contraction as the search.  The matrices' column matroids and
    # table matroids with loops and parallel classes read their least ranks
    # off their tables: the scan's minima and least masks attaining them.
    from test_hn import filtration_codes
    rng = random.Random(2101)
    pool = []
    for M in columned_matrices(rng, 500, nmax=9):
        table = oracles.brute_rank_table(M.field, M.row_list())
        pool += [(M, table), (Matroid(M.cols, table), table)]
    for C in filtration_codes(rng, 150):
        pool.append((C, oracles.brute_rank_table(C.field, oracles.rows_of(C))))
    pool += [(M, M.ranks) for M in parallel_class_matroids(rng, 150)]
    for C in deep_shaped_codes(rng):
        pool.append((C, oracles.brute_rank_table(C.field, oracles.rows_of(C))
                     if C.field.q ** C.k > 1 << C.n else column_rank_table(C)))
    assert len(pool) >= 1000
    for X, table in pool:
        n = len(table).bit_length() - 1
        if isinstance(X, Matroid):
            assert least_ranks(X) == oracles.table_least_masks(n, table)
        else:
            assert min_column_rank_by_size(X) == oracles.table_least_ranks(
                n, table)


def test_least_rank_search_contracts_within_the_bound():
    # at most sum_{i<k} C(n, i) + n contractions, k the rank of all n
    # columns (the proof is in the docstring of the search), counted
    # through an oracle that wraps the matrix's: on matrices with zero,
    # repeated and proportional columns, on plain random codes over
    # GF(2/3/4/8/16/256), and on one code of each deep shape and its dual
    rng = random.Random(2102)
    fields = [FieldSpec(2), FieldSpec(3), FieldSpec(2, 2, 0b111),
              FieldSpec(2, 8, 0x11B)]
    pool = columned_matrices(rng, 600, nmax=12)
    for _ in range(400):
        f, n = rng.choice(fields), rng.randrange(1, 12)
        pool.append(zoo.random_code(rng, f, n, rng.randrange(1, n + 1)).gen)
    pool += [C.gen for C in deep_shaped_codes(rng)]
    for f in [FieldSpec(2, 3, 0b1011), FieldSpec(2, 4, 0b10011)]:
        for _ in range(60):
            n = rng.randrange(1, 12)
            C = zoo.random_code(rng, f, n, rng.randrange(1, n + 1))
            pool.append(C.gen)
    worst = 0
    for M in pool:
        cols, contract, q = M.independence()
        calls = []

        def counted(tail, v):
            calls.append(v)
            return contract(tail, v)
        minima, _ = min_column_rank_by_size(types.SimpleNamespace(
            independence=lambda: (cols, counted, q)))
        n, k = M.cols, minima[-1]
        bound = sum(math.comb(n, i) for i in range(k)) + n
        assert len(calls) <= bound, (M, len(calls), bound)
        worst = max(worst, len(calls) / bound)
    assert len(pool) >= 1000 and worst > 0.2


# every field of characteristic 2 past GF(2), GF(256) under two moduli
CHAR2_FIELDS = [FieldSpec(2, 2, 0b111), FieldSpec(2, 3, 0b1011),
                FieldSpec(2, 4, 0b10011), FieldSpec(2, 5, 0b100101),
                FieldSpec(2, 6, 0b1000011), FieldSpec(2, 7, 0b10000011),
                FieldSpec(2, 8, 285), FieldSpec(2, 8, 0x11B)]


def test_column_tokens_against_brute_tables():
    # GF(2^m) tokens for m > 1 are ints with one coordinate per byte, and
    # other fields' are tuples.  Over every such field and GF(3), GF(9) and
    # GF(251), on matrices with zero, repeated and scaled columns: two
    # tokens are equal exactly when their columns are the same point, before
    # and after one contraction; the least-rank search equals the
    # row-reduced table's minima and first witnesses; and so does the rank
    # table where it walks the DFS (q^k > 2^n), for about half the matrices
    def same(table, base, rb, i, j):
        """Columns i and j are one point modulo the span of `base`, of rank
        rb, or both lie in it."""
        ri, rj = table[base | 1 << i], table[base | 1 << j]
        return ri == rj == table[base | 1 << i | 1 << j] == rb + (ri > rb)

    rng = random.Random(2201)
    fields = CHAR2_FIELDS + [FieldSpec(3), FieldSpec(3, 2, 10), FieldSpec(251)]
    for f in fields:
        dfs = 0
        for _ in range(40):
            n = rng.randrange(1, 10)
            k = rng.choice([rng.randrange(1, 7),
                            next(k for k in range(1, 9) if f.q ** k > 1 << n)])
            cols = random_columns(rng, f, k, n, least_scale=2)
            M = Matrix.from_rows(f, [[c[i] for c in cols] for i in range(k)])
            table = oracles.brute_rank_table(f, M.row_list())
            tokens, contract, q = M.independence()
            assert q == f.q
            pairs = itertools.combinations(range(n), 2)
            assert all((tokens[i] == tokens[j]) == same(table, 0, 0, i, j)
                       for i, j in pairs)
            v = next((j for j in range(n) if tokens[j]), None)
            if v is not None:
                tail = contract(tokens[v + 1:], tokens[v])
                pairs = itertools.combinations(range(v + 1, n), 2)
                assert all((tail[i - v - 1] == tail[j - v - 1])
                           == same(table, 1 << v, 1, i, j) for i, j in pairs)
            assert min_column_rank_by_size(M) == oracles.table_least_ranks(
                n, table)
            if f.q ** k > 1 << n:
                dfs += 1
                assert column_rank_table(M) == table
        assert dfs >= 15, f
    # column j is the tuple of entries (i, j), and GF(2) tokens are the
    # sums x_i 2^i of the columns, on 0 x n, m x 0 and random matrices
    rng = random.Random(2903)
    for f in [FieldSpec(2)] + fields:
        shapes = [(0, 0), (0, 5), (4, 0)] + [
            (rng.randrange(1, 7), rng.randrange(1, 10)) for _ in range(10)]
        for k, n in shapes:
            M = Matrix(f, k, n, tuple(rng.randrange(f.q)
                                      for _ in range(k * n)))
            assert [M.column(j) for j in range(n)] == [
                tuple(M.entry(i, j) for i in range(k)) for j in range(n)]
            if f.q == 2:
                assert M.independence()[0] == [
                    sum(M.entry(i, j) << i for i in range(k))
                    for j in range(n)]


def rank_table_pool(rng):
    """k x n matrices over GF(2/3/4/5/256), n = 0..10, with k = 0, 1, the
    last k of the q^k <= 2^n rule (q^k = 2^n for GF(2) and GF(4)), the
    first k past it, k = n and a random k, two of each, with
    `random_columns`; a row is sometimes zero or a combination of two
    earlier rows."""
    fields = [FieldSpec(2), FieldSpec(3), FieldSpec(2, 2, 0b111),
              FieldSpec(5), FieldSpec(2, 8, 0x11B)]
    out = []
    for f in fields:
        for n in range(11):
            last = max(k for k in range(n + 1) if f.q ** k <= 1 << n)
            ks = sorted({0, 1, last, last + 1, n, rng.randrange(n + 2)})
            for k in ks + ks:
                cols = random_columns(rng, f, k, n)
                rows = [[c[i] for c in cols] for i in range(k)]
                if k >= 2 and rng.random() < 0.3:
                    rows[rng.randrange(k)] = [0] * n
                if k >= 3 and rng.random() < 0.4:
                    i, j = rng.sample(range(k - 1), 2)
                    a, b = rng.randrange(f.q), rng.randrange(1, f.q)
                    rows[-1] = [f.add(f.mul(a, x), f.mul(b, y))
                                for x, y in zip(rows[i], rows[j])]
                out.append(Matrix(f, k, n, tuple(x for r in rows for x in r)))
    return out


def test_word_rank_table_against_brute_ranks_and_the_dfs(monkeypatch):
    # the word-count table against ranks row-reduced subset by subset and
    # against the DFS, reached through an object with only the contraction
    # oracle; `column_rank_table` takes the word path exactly when
    # q^rows <= 2^cols.  Blocks of 4 subsets run the passes between blocks
    # at these n too.
    pool = rank_table_pool(random.Random(41))
    assert len(pool) >= 300
    taken = []

    def spy(M):
        taken.append(M)
        return word_rank_table(M)
    word_rank_table = algebra._word_rank_table
    monkeypatch.setattr(algebra, "_word_rank_table", spy)
    for M in pool:
        q, k, n = M.field.q, M.rows, M.cols
        table = (oracles.brute_rank_table(M.field, M.row_list()) if k
                 else bytes(1 << n))
        dfs = column_rank_table(types.SimpleNamespace(
            independence=M.independence))
        assert dfs == table
        if q ** k <= 1 << 16:
            assert word_rank_table(M) == table
            with monkeypatch.context() as patch:
                patch.setattr(algebra, "_BLOCK_BITS", 2)
                assert word_rank_table(M) == table
        taken.clear()
        assert column_rank_table(M) == table
        assert taken == ([M] if q ** k <= 1 << n else [])


def test_subsets_where_against_the_table_scan():
    # the whole-table read of the subsets of one size and rank, against a
    # scan of the table mask by mask: at each size's least rank and at a
    # random rank (one past the largest included), over the matrices of
    # `rank_table_pool` and the matroids of `table_oracle_pool`
    from test_matroid import table_oracle_pool
    rng = random.Random(43)
    tables = [column_rank_table(M) for M in rank_table_pool(rng)]
    tables += [M.ranks for M in table_oracle_pool(rng)]
    hits = 0
    for table in tables:
        n = len(table).bit_length() - 1
        minima = oracles.table_minima(n, table)
        top = max(table)
        for targets in ([(s, minima[s]) for s in range(n + 1)],
                        [(s, rng.randrange(top + 2)) for s in range(n + 1)]):
            expect = oracles.table_subsets_attaining(table, targets)
            assert {s: subsets_where(table, s, r)
                    for s, r in targets} == expect
            hits += sum(map(len, expect.values()))
    assert len(tables) >= 300 and hits >= 10000


def test_word_rank_table_cap(monkeypatch):
    # the word path refuses before it enumerates a word or builds a lane
    def forbidden(*args):
        raise AssertionError("enumerated past the cap")
    M = Matrix.from_rows(FieldSpec(2), [[1] * 21])
    N = Matrix.from_rows(FieldSpec(3), [[1, 2, 0, 1, 1], [0, 1, 1, 2, 0]])
    with monkeypatch.context() as patch:
        patch.setattr(algebra, "_projective_supports", forbidden)
        patch.setattr(algebra, "lanes", forbidden)
        for X, cap in [(M, 0), (M, 20), (N, 4)]:
            with pytest.raises(SizeLimitExceeded), enumeration_cap(cap):
                column_rank_table(X)
    with enumeration_cap(21):
        table = column_rank_table(M)
    assert table[0] == 0 and table[1:] == b"\1" * ((1 << 21) - 1)


def test_rank_machinery_cap():
    f2 = FieldSpec(2)
    M = Matrix.from_rows(f2, [[1] * 21])
    with pytest.raises(SizeLimitExceeded):
        column_rank_table(M)
    with pytest.raises(SizeLimitExceeded):
        min_column_rank_by_size(M)
    with enumeration_cap(21):
        assert len(column_rank_table(M)) == 1 << 21


def test_enumeration_cap_is_scoped():
    # the cap in force is what `_check_cap` refuses past: a block sets it,
    # leaving the block, normally or by an exception, restores the one
    # outside, and a new thread starts from the default
    def cap_in_force():
        with pytest.raises(SizeLimitExceeded) as err:
            algebra._check_cap(1000)
        return err.value.limit

    assert cap_in_force() == algebra.SUBSET_ENUM_CAP == 20
    with enumeration_cap(22):
        assert cap_in_force() == 22
        with enumeration_cap(4):
            assert cap_in_force() == 4
        assert cap_in_force() == 22
    assert cap_in_force() == 20
    M = Matrix.from_rows(FieldSpec(2), [[1] * 8])
    with pytest.raises(SizeLimitExceeded), enumeration_cap(7):
        column_rank_table(M)
    assert cap_in_force() == 20
    seen = []
    with enumeration_cap(3):
        worker = threading.Thread(target=lambda: seen.append(cap_in_force()))
        worker.start()
        worker.join(timeout=10)
        assert cap_in_force() == 3
    assert not worker.is_alive() and seen == [20]


def test_iter_rref_matrices_counts():
    for q, field in [(2, FieldSpec(2)), (3, FieldSpec(3)),
                     (4, FieldSpec(2, 2, 0b111))]:
        for c in range(1, 4):
            for r in range(0, c + 1):
                mats = list(iter_rref_matrices(field, r, c))
                assert len(mats) == gauss_binom(q, c, r)
                assert len(set(mats)) == len(mats)
                for M in mats:
                    assert M.rank() == r


def test_rref_at_unranks_every_rref_matrix_once():
    # the indices below [c, r]_q go onto the r x c RREF matrices of rank
    # r, each one exactly once, and each kept as its own fresh RREF
    for field, cmax in [(FieldSpec(2), 5), (FieldSpec(3), 5),
                        (FieldSpec(2, 2, 0b111), 5),
                        (FieldSpec(2, 8, 0x11D), 3)]:
        for c in range(cmax + 1):
            for r in range(c + 1):
                count = subspaces(field.q, c, r)
                assert count == gauss_binom(field.q, c, r)
                got = [rref_at(field, r, c, x) for x in range(count)]
                assert sorted(M.entries for M in got) == sorted(
                    M.entries for M in iter_rref_matrices(field, r, c))
                for M in got:
                    assert M.rref()[0] is M
                    assert M.rref() == Matrix(field, r, c, M.entries).rref()


def test_random_subcode_draws_one_index(monkeypatch):
    # one randrange call below [k, r]_q per draw, and no row reduction
    C = zoo.random_code(random.Random(619), FieldSpec(3), 7, 4)
    reduced = []
    rref = Matrix.rref
    monkeypatch.setattr(Matrix, "rref",
                        lambda M: reduced.append(M) or rref(M))
    for r in range(C.k + 1):
        rng, ref, calls = random.Random(r), random.Random(r), []
        monkeypatch.setattr(rng, "randrange", lambda *args: calls.append(
            args) or random.Random.randrange(rng, *args))
        S = zoo.random_subcode(rng, C, r)
        ref.randrange(subspaces(3, C.k, r))
        assert calls == [(subspaces(3, C.k, r),)] and S.dim == r
        assert rng.getstate() == ref.getstate()
    assert reduced == []


def test_support_matches_a_column_scan():
    # random entries of every density, one row zeroed when there is one,
    # and the 0 x n and m x 0 shapes
    rng = random.Random(631)
    for field in (FieldSpec(2), FieldSpec(3), FieldSpec(2, 2, 0b111),
                  FieldSpec(2, 8, 0x11D)):
        for rows, cols in itertools.product(range(5), range(8)):
            for density in (0.0, 0.3, 1.0):
                ent = [rng.randrange(1, field.q) if rng.random() < density
                       else 0 for _ in range(rows * cols)]
                if rows:
                    i = rng.randrange(rows) * cols
                    ent[i:i + cols] = [0] * cols
                M = Matrix(field, rows, cols, tuple(ent))
                scan = sum(1 << j for j in range(cols) if any(M.column(j)))
                assert M.support() == scan
