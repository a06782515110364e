"""Linear codes: supports, shortening, duals, hierarchies, products."""

import random
from fractions import Fraction

import pytest

from hncodes import (
    FieldMismatch,
    InvariantViolation,
    LinearCode,
    NotASubcode,
    SizeLimitExceeded,
    ZeroSubcode,
    canonical_filtration,
    enumeration_cap,
    zoo,
)
from hncodes.algebra import FieldSpec, Matrix, rref_at, subspaces
from hncodes.code import Subcode, bits_of, mask_of
from hncodes.hn import SubspaceLattice

import oracles

GF2, GF3, GF4 = zoo.gf2(), zoo.gf3(), zoo.gf4()


def small_codes(rng, count, fields=(GF2, GF3), nmax=7, kmax=3):
    out = []
    for _ in range(count):
        field = rng.choice(fields)
        n = rng.randrange(1, nmax + 1)
        k = rng.randrange(1, min(kmax, n) + 1)
        out.append(zoo.random_code(rng, field, n, k))
    return out


# ---------------------------------------------------------------------------
# construction and basic invariants
# ---------------------------------------------------------------------------

def test_mask_helpers_roundtrip():
    for mask in range(64):
        assert mask_of(bits_of(mask)) == mask
    assert mask_of([0, 3]) == 0b1001
    assert bits_of(0b1001) == [0, 3]


def test_from_rows_requires_independent_rows():
    with pytest.raises(InvariantViolation):
        LinearCode.from_rows(GF2, [(1, 0, 1), (1, 0, 1)])
    C = LinearCode.span(Matrix.from_rows(GF2, [(1, 0, 1), (1, 0, 1), (0, 1, 1)]))
    assert (C.n, C.k) == (3, 2)


def test_codewords_count_and_membership():
    C = zoo.binary_5_2()
    words = C.codewords()
    assert len(words) == 4
    assert set(words) == set(oracles.codewords(GF2, oracles.rows_of(C)))


def test_support_weight_degree_rate():
    C = zoo.binary_9_7()
    assert C.is_full_support
    assert C.weight == 9
    assert C.degree == 0
    assert C.effective_rate == Fraction(7, 9)
    padded = LinearCode.from_rows(GF2, [(1, 0, 1, 0), (0, 0, 1, 1)])
    assert padded.support_mask == 0b1101
    assert padded.weight == 3
    assert padded.degree == 1
    assert not padded.is_full_support


# ---------------------------------------------------------------------------
# worked examples kept exact
# ---------------------------------------------------------------------------

def test_binary_9_7_hierarchy_and_dlp():
    C = zoo.binary_9_7()
    assert C.weight_hierarchy() == (0, 2, 3, 4, 5, 7, 8, 9)
    kj = C.dlp()
    assert kj == (0, 0, 1, 2, 3, 4, 4, 5, 6, 7)
    wits = C.dlp_witnesses()
    for j in range(C.n + 1):
        assert wits[j].bit_count() == j
        assert C.subset_dim(wits[j]) == kj[j]


def test_binary_5_2_and_square():
    C = zoo.binary_5_2()
    assert C.weight_hierarchy() == (0, 3, 5)
    S = C.schur_product(C)
    assert S.k == 3
    assert S == zoo.binary_5_2_square()
    assert S.weight_hierarchy() == (0, 1, 3, 5)


def test_simplex_and_hamming():
    S = zoo.simplex(3)
    assert (S.n, S.k) == (7, 3)
    assert S.weight_hierarchy() == (0, 4, 6, 7)
    H = zoo.hamming_7_4()
    assert H.weight_hierarchy() == (0, 3, 5, 6, 7)
    assert H.dual() == S
    E = zoo.extended_hamming_8_4()
    assert E.dual() == E                       # self dual
    assert E.weight_hierarchy()[1] == 4


def test_repetition_parity_full():
    R = zoo.repetition(GF3, 4)
    assert R.weight_hierarchy() == (0, 4)
    P = zoo.parity(GF3, 4)
    assert P.weight_hierarchy() == (0, 2, 3, 4)
    assert R.dual() == P
    F = zoo.full_space(GF2, 3)
    assert F.weight_hierarchy() == (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# hierarchies and DLPs against the naive oracles
# ---------------------------------------------------------------------------


def test_memo_honours_the_cap():
    # a smaller cap raises whatever the code has already computed
    C = zoo.binary_9_7()
    with enumeration_cap(20):
        assert C.weight_hierarchy() == (0, 2, 3, 4, 5, 7, 8, 9)
        C.rank_table()
        C.dlp_witnesses()
    for call in (C.weight_hierarchy, C.dlp, C.dlp_witnesses, C.rank_table):
        with pytest.raises(SizeLimitExceeded), enumeration_cap(5):
            call()
    with enumeration_cap(9):
        assert C.weight_hierarchy() == (0, 2, 3, 4, 5, 7, 8, 9)
    with enumeration_cap(20):
        assert canonical_filtration(C).ranks == (0, 4, 7)
    with pytest.raises(SizeLimitExceeded), enumeration_cap(5):
        canonical_filtration(C)
    # a code that splits is charged at its largest block: the square's
    # blocks have 2, 2 and 1 columns, so cap 1 refuses every least-rank
    # read and cap 2 answers them, while the rank table's 2^5 entries are
    # refused below 5
    S = zoo.binary_5_2_square()
    with enumeration_cap(2):
        assert S.weight_hierarchy() == (0, 1, 3, 5)
        S.dlp_witnesses()
    for call in (S.weight_hierarchy, S.dlp, S.dlp_witnesses):
        with pytest.raises(SizeLimitExceeded) as err, enumeration_cap(1):
            call()
        assert err.value.needed == 2
    with pytest.raises(SizeLimitExceeded) as err, enumeration_cap(4):
        S.rank_table()
    assert err.value.needed == 5


def test_hierarchy_is_kept_on_the_code(monkeypatch):
    # a second call reads the memo, not the profile; the cap is still
    # checked on it (test_memo_honours_the_cap)
    import hncodes.hn as hn
    C = zoo.binary_9_7()
    d = C.weight_hierarchy()
    reached = []
    profile = hn.subset_profile
    monkeypatch.setattr(hn, "subset_profile",
                        lambda X: reached.append(X) or profile(X))
    assert C.weight_hierarchy() == d and reached == []
    assert zoo.binary_9_7().weight_hierarchy() == d and len(reached) == 1


def test_hierarchy_against_oracle():
    rng = random.Random(101)
    pool = small_codes(rng, 30) + small_codes(rng, 6, fields=(GF4,), nmax=6, kmax=2)
    for C in pool:
        rows = oracles.rows_of(C)
        assert C.weight_hierarchy() == oracles.brute_weight_hierarchy(C.field, rows)
        assert C.dlp() == oracles.brute_dlp(C.field, rows)


def test_hierarchy_strictly_increasing_and_monotone_dlp():
    rng = random.Random(103)
    for C in small_codes(rng, 40, nmax=9, kmax=5):
        d = C.weight_hierarchy()
        assert all(a < b for a, b in zip(d, d[1:]))
        assert d[C.k] == C.weight
        kj = C.dlp()
        assert kj[0] == 0 and kj[C.n] == C.k
        assert all(kj[j + 1] - kj[j] in (0, 1) for j in range(C.n))


def test_hierarchy_is_matroidal():
    # the same generator rows read over GF(2) and GF(4) give one hierarchy
    rng = random.Random(107)
    for _ in range(12):
        n = rng.randrange(1, 8)
        k = rng.randrange(1, min(4, n) + 1)
        C2 = zoo.random_code(rng, GF2, n, k)
        C4 = LinearCode.from_rows(GF4, oracles.rows_of(C2))
        assert C2.weight_hierarchy() == C4.weight_hierarchy()
        assert C2.dlp() == C4.dlp()


def test_subset_dim_against_oracle():
    rng = random.Random(109)
    for C in small_codes(rng, 12, nmax=6):
        rows = oracles.rows_of(C)
        for J in range(1 << C.n):
            assert C.subset_dim(J) == oracles.brute_h0(C.field, rows, bits_of(J))


# ---------------------------------------------------------------------------
# shorten, puncture, dual
# ---------------------------------------------------------------------------

def test_shorten_is_the_kernel_of_projection():
    rng = random.Random(113)
    for C in small_codes(rng, 12, nmax=6):
        rows = oracles.rows_of(C)
        words = oracles.codewords(C.field, rows)
        for J in range(1 << C.n):
            S = C.shorten(J)
            inside = {w for w in words
                      if all(x == 0 or (J >> i) & 1 for i, x in enumerate(w))}
            assert S.dim == oracles.qlog(len(inside), C.field.q)
            for b in range(S.dim):
                assert S.basis.row(b) in inside


def _codes_with_zero_and_repeated_columns(rng, count):
    """Random codes over GF(2), GF(3), GF(4) and GF(8), n <= 7, whose
    generators have a zero column and a column repeated up to a scalar."""
    GF8 = FieldSpec(2, 3, 0b1011)
    out = []
    while len(out) < count:
        f = rng.choice((GF2, GF3, GF4, GF8))
        n = rng.randrange(3, 8)
        k = rng.randrange(1, min(n, 4) + 1)
        G = zoo.random_code(rng, f, n, k).gen
        cols = [G.column(j) for j in range(n)]
        a, b, z = rng.sample(range(n), 3)
        c = rng.randrange(1, f.q)
        cols[b] = tuple(f.mul(c, x) for x in cols[a])
        cols[z] = (0,) * k
        M = Matrix(f, k, n, tuple(cols[j][i] for i in range(k)
                                  for j in range(n)))
        if M.rank():
            out.append(LinearCode.span(M))
    return out


def test_kept_column_spans_match_a_fresh_elimination():
    # a span built in one step from the kept span of J minus its top
    # column must be the RREF of J's columns: the same entries, rows and
    # pivots as the scalar Gauss-Jordan oracle, whichever order the
    # subsets are asked for in
    rng = random.Random(911)
    for C in _codes_with_zero_and_repeated_columns(rng, 16):
        want = {}
        for J in range(1 << C.n):
            rows, piv = oracles.brute_rref(
                C.field, [C.gen.column(j) for j in bits_of(J)], C.k)
            want[J] = (sum(rows, ()), len(rows), piv)
        up = list(range(1 << C.n))
        shuffled = up[:]
        rng.shuffle(shuffled)
        for order in (up, up[::-1], shuffled):
            lat = SubspaceLattice(C, subcodes=[])    # keeps no span yet
            for J in order:
                image = lat.vanishing(J)
                span = lat._spans[J]
                R, piv = span.rref()
                assert R is span and lat.vanishing(J) == image
                assert lat._spans[J] is span
                assert (span.entries, span.rows, piv) == want[J]
                assert span.cols == C.k


def test_a_shorten_loop_keeps_one_span_per_column_set():
    # the lattice's span memo grows with the distinct column sets asked
    # for and no further: a repeated loop over every J adds nothing, and
    # each kept span is at most k x k; shortening keeps nothing on the code
    C = zoo.random_code(random.Random(937), GF3, 9, 4)
    full = (1 << C.n) - 1
    lat = SubspaceLattice(C, subcodes=[])
    assert lat._spans == {}
    for _ in range(3):
        for J in range(1 << C.n):
            lat.vanishing(J)
        assert sorted(lat._spans) == list(range(1 << C.n))
    assert all(s.rows <= C.k and s.cols == C.k for s in lat._spans.values())
    assert sum(len(s.entries) for s in lat._spans.values()) <= C.k ** 2 << C.n
    slots = {s: getattr(C, s) for s in LinearCode.__slots__}
    for J in range(1 << C.n):
        C.shorten(J)
    assert all(getattr(C, s) is v for s, v in slots.items())
    assert C.shorten(full).dim == C.k and C.shorten(0).dim == 0


def test_puncture_is_the_projection_image():
    rng = random.Random(127)
    for C in small_codes(rng, 10, nmax=6):
        rows = oracles.rows_of(C)
        words = oracles.codewords(C.field, rows)
        for J in range(1, 1 << C.n):
            keep = bits_of(J)
            img = {tuple(w[i] for i in keep) for w in words}
            if len(img) == 1:
                with pytest.raises(InvariantViolation):
                    C.puncture(J)          # image is the zero space
                continue
            P = C.puncture(J)
            assert P.n == len(keep)
            assert P.k == oracles.qlog(len(img), C.field.q)
            assert set(P.codewords()) == img
    with pytest.raises(InvariantViolation):
        zoo.binary_5_2().puncture(0)


def test_dual_orthogonality_and_involution():
    rng = random.Random(131)
    for C in small_codes(rng, 25, fields=(GF2, GF3, GF4), nmax=7, kmax=6):
        if C.k == C.n:
            with pytest.raises(InvariantViolation):
                C.dual()
            continue
        D = C.dual()
        assert D.n == C.n and D.k == C.n - C.k
        for u in C.codewords():
            for v in D.codewords():
                s = 0
                for a, b in zip(u, v):
                    s = C.field.add(s, C.field.mul(a, b))
                assert s == 0
        if D.k < D.n:
            assert D.dual() == C


def test_dual_is_cached():
    C = zoo.binary_5_2()
    assert C.dual() is C.dual()


# ---------------------------------------------------------------------------
# subcodes
# ---------------------------------------------------------------------------

def test_subcode_membership_and_errors():
    C = zoo.binary_5_2()
    S = Subcode.from_rows(C, [(1, 0, 0, 1, 1)])
    assert S.dim == 1 and S.weight == 3
    assert S.effective_rate == Fraction(1, 3)
    assert S.slope == Fraction(-3, 1)
    with pytest.raises(NotASubcode):
        Subcode.from_rows(C, [(1, 1, 0, 0, 0)])
    Z = C.zero_subcode()
    assert Z.dim == 0 and Z.weight == 0
    with pytest.raises(ZeroSubcode):
        Z.effective_rate
    W = C.whole_subcode()
    assert W.dim == C.k and W.weight == C.weight


def test_subcode_of_no_rows_is_the_zero_subcode():
    # no rows span the zero subcode, whatever the parent's length
    for C in (zoo.binary_9_7(), zoo.full_space(GF3, 2)):
        Z = Subcode.from_rows(C, [])
        assert Z == C.zero_subcode() and Z.dim == 0
        assert Z.basis.cols == C.n and Z.key.cols == C.k


def test_subcode_meet_join_closure():
    C = zoo.full_space(GF2, 4)
    A = Subcode.from_rows(C, [(1, 0, 0, 0), (0, 1, 0, 0)])
    B = Subcode.from_rows(C, [(0, 1, 0, 0), (0, 0, 1, 0)])
    assert A.meet(B).dim == 1
    assert A.join(B).dim == 3
    assert A.meet(B).basis.row(0) == (0, 1, 0, 0)
    # closure: all of C supported inside the support of S
    C2 = zoo.binary_9_7()
    S = Subcode.from_rows(C2, [(1, 1, 0, 0, 0, 0, 0, 0, 0)])
    assert S.closure().dim == C2.shorten(S.support_mask).dim
    assert S.closure().contains(S)


def test_subcode_join_refuses_another_code():
    # the join of two whole [4,1] codes would be 2-dimensional, so it
    # cannot be a subcode of either
    A = LinearCode.from_rows(GF2, [(1, 1, 0, 0)])
    B = LinearCode.from_rows(GF2, [(0, 0, 1, 1)])
    with pytest.raises(NotASubcode):
        A.whole_subcode().join(B.whole_subcode())
    assert A.zero_subcode().join(A.whole_subcode()) == A.whole_subcode()


def test_subcode_closure_oracle():
    rng = random.Random(137)
    for C in small_codes(rng, 10, nmax=6):
        words = oracles.codewords(C.field, oracles.rows_of(C))
        for r in range(1, C.k + 1):
            S = zoo.random_subcode(rng, C, r)
            sup = S.support_mask
            inside = {w for w in words
                      if all(x == 0 or (sup >> i) & 1 for i, x in enumerate(w))}
            cl = S.closure()
            assert cl.dim == oracles.qlog(len(inside), C.field.q)
            assert cl.contains(S)


def checked_key(field, r, k, rng):
    """The key random_subcode draws: one index below [k, r]_q, unranked by
    rref_at and rebuilt through from_rows' checks, of rank r."""
    x = rng.randrange(subspaces(field.q, k, r))
    coeffs = Matrix.from_rows(field, rref_at(field, r, k, x).row_list())
    assert coeffs.rank() == r
    return coeffs


def test_random_subcode_is_reduced_in_coefficient_space():
    # the basis is RREF coefficients times the RREF generator: already its
    # own RREF, and the RREF of the drawn coefficients times the generator
    for field in (GF3, GF4, FieldSpec(2, 8, 0x11B)):
        rng = random.Random(149)
        for _ in range(15):
            n = rng.randrange(2, 8)
            C = zoo.random_code(rng, field, n, rng.randrange(1, n + 1))
            r = rng.randrange(1, C.k + 1)
            state = rng.getstate()
            S = zoo.random_subcode(rng, C, r)
            rng.setstate(state)
            coeffs = checked_key(field, r, C.k, rng)      # the same draw
            assert S.dim == r and S.parent is C
            assert S.basis == S.basis.rref()[0]
            assert S.basis == coeffs.matmul(C.gen).rref()[0]


def test_zoo_draws_match_a_checked_draw():
    # random_code skips from_rows' checks on the entries it draws, and
    # random_subcode on the key it unranks, but they draw the same entries
    # and the same index in the same order
    for field in (GF2, GF3, GF4):
        rng = random.Random(157)
        for _ in range(30):
            n = rng.randrange(1, 6)
            k = rng.randrange(1, n + 1)
            r = rng.randrange(1, k + 1)
            state = rng.getstate()
            C = zoo.random_code(rng, field, n, k)
            S = zoo.random_subcode(rng, C, r)
            after = rng.getstate()
            rng.setstate(state)
            while True:
                M = Matrix.from_rows(field, [
                    [rng.randrange(field.q) for _ in range(n)]
                    for _ in range(k)])
                if M.rank() == k:
                    break
            coeffs = checked_key(field, r, k, rng)
            assert C.gen == M.rref()[0]
            assert S.basis == coeffs.rref()[0].matmul(C.gen)
            assert rng.getstate() == after


def test_field_mismatch_rejected():
    A = zoo.binary_5_2()
    B = LinearCode.from_rows(GF3, [(1, 0, 0, 1, 1)])
    with pytest.raises(FieldMismatch):
        A.tensor(B)
    with pytest.raises(FieldMismatch):
        A.schur_product(B)


# ---------------------------------------------------------------------------
# tensor and Schur products
# ---------------------------------------------------------------------------

def test_tensor_parameters_and_rows():
    A, B = zoo.binary_3_2(), zoo.binary_5_2()
    T = A.tensor(B)
    assert (T.n, T.k) == (15, 4)
    expect = oracles.kron_rows(GF2, oracles.rows_of(A), oracles.rows_of(B))
    assert LinearCode.from_rows(GF2, expect) == T


def test_tensor_codewords_are_matrices_with_code_rows_and_columns():
    A, B = zoo.binary_3_2(), zoo.binary_3_2()
    T = A.tensor(B)
    nA, nB = A.n, B.n
    for w in T.codewords():
        for j in range(nB):                    # column j lives in A
            col = tuple(w[i * nB + j] for i in range(nA))
            assert oracles.in_row_space(GF2, oracles.rows_of(A), col)
        for i in range(nA):                    # row i lives in B
            row = tuple(w[i * nB + j] for j in range(nB))
            assert oracles.in_row_space(GF2, oracles.rows_of(B), row)


def test_tensor_min_distance_multiplicative():
    cases = [(zoo.binary_3_2(), zoo.binary_5_2()),
             (zoo.repetition(GF2, 2), zoo.hamming_7_4())]
    for A, B in cases:
        T = A.tensor(B)
        assert T.weight_hierarchy()[1] == \
            A.weight_hierarchy()[1] * B.weight_hierarchy()[1]


def test_schur_product_span():
    A = zoo.binary_5_2()
    S = A.schur_product(A)
    words = oracles.codewords(GF2, oracles.rows_of(A))
    prods = {tuple(GF2.mul(x, y) for x, y in zip(u, v))
             for u in words for v in words}
    assert all(oracles.in_row_space(GF2, oracles.rows_of(S), w)
               for w in prods)
    assert S.k == 3
