"""Tensor products: the Schaathun lower bound, chain-condition equality,
and semistability preservation."""

import itertools
import random

import pytest

from hncodes import (
    FieldMismatch,
    InvalidHierarchy,
    InvariantViolation,
    LinearCode,
    NotASubcode,
    SizeLimitExceeded,
    enumeration_cap,
    is_chained,
    is_semistable,
    schaathun_bound_table,
    tensor_semistable_check,
    zoo,
)
from hncodes.algebra import FieldSpec, Matrix
from hncodes.code import Subcode
from hncodes.tensor import (
    schaathun_bound,
    schaathun_verify,
    wei_yang_check,
    witness,
)

import hncodes.tensor as tensor
import oracles

GF2, GF3 = zoo.gf2(), zoo.gf3()

NON_CHAINED_GF3 = LinearCode.from_rows(
    GF3, [(1, 0, 0, 0, 0, 1), (0, 1, 0, 1, 1, 0), (0, 0, 1, 1, 2, 0)])


def hierarchies(nmax, kmax):
    """All strictly increasing weight hierarchies (0, d_1, ..., d_k)."""
    for k in range(1, kmax + 1):
        for combo in itertools.combinations(range(1, nmax + 1), k):
            yield (0,) + combo


# ---------------------------------------------------------------------------
# the bound itself
# ---------------------------------------------------------------------------

def test_schaathun_small_square():
    d = (0, 2, 3)
    assert [schaathun_bound(d, d, r) for r in range(5)] == [0, 4, 6, 8, 9]
    assert schaathun_bound_table(zoo.binary_3_2(), zoo.binary_5_2()) == \
        (0, 6, 9, 13, 15)


def test_schaathun_endpoints():
    for dA, dB in [((0, 1, 4), (0, 2, 3, 5)), ((0, 3), (0, 2, 4))]:
        kA, kB = len(dA) - 1, len(dB) - 1
        assert schaathun_bound(dA, dB, 1) == dA[1] * dB[1]
        assert schaathun_bound(dA, dB, kA * kB) == \
            sum((dA[i] - dA[i - 1]) * dB[kB] for i in range(1, kA + 1))


def test_schaathun_validation():
    d = (0, 2, 3)
    with pytest.raises(InvalidHierarchy):
        schaathun_bound((0, 3, 2), d, 1)
    with pytest.raises(InvalidHierarchy):
        schaathun_bound(d, (0, 2, 2), 1)
    with pytest.raises(InvalidHierarchy):
        schaathun_bound((1, 2), d, 1)
    with pytest.raises(InvariantViolation):
        schaathun_bound(d, d, 5)
    with pytest.raises(InvariantViolation):
        schaathun_bound(d, d, -1)


def test_schaathun_dp_matches_enumeration():
    pool = list(hierarchies(6, 3))
    rng = random.Random(501)
    for _ in range(400):
        dA, dB = rng.choice(pool), rng.choice(pool)
        kA, kB = len(dA) - 1, len(dB) - 1
        for r in range(1, kA * kB + 1):
            assert schaathun_bound(dA, dB, r) == \
                oracles.schaathun_oracle(dA, dB, r)


def test_schaathun_exact_sum_agrees():
    # requiring the t-sequence to sum exactly to r never changes the optimum
    pool = list(hierarchies(8, 4))
    rng = random.Random(503)
    for _ in range(150):
        dA, dB = rng.choice(pool), rng.choice(pool)
        kA, kB = len(dA) - 1, len(dB) - 1
        for r in range(kA * kB + 1):
            assert schaathun_bound(dA, dB, r) == \
                schaathun_bound(dA, dB, r, exact_sum=True)


def test_bound_table_is_one_pass_and_witness_validates_nothing(monkeypatch):
    # the table is the suffix minima of one exact pass, and a witness reads
    # the pass for its r off the hierarchies its codes already hold
    passes, validated = [], []
    costs, validate = tensor._exact_costs, tensor._validate_hierarchy
    monkeypatch.setattr(tensor, "_exact_costs",
                        lambda dA, dB: passes.append((dA, dB))
                        or costs(dA, dB))
    monkeypatch.setattr(tensor, "_validate_hierarchy",
                        lambda d, label: validated.append(label)
                        or validate(d, label))
    A, B = zoo.binary_3_2(), zoo.binary_5_2()
    assert schaathun_bound_table(A, B) == (0, 6, 9, 13, 15)
    assert passes == [((0, 2, 3), (0, 3, 5))]
    D = zoo.random_subcode(random.Random(541), A.tensor(B), 3)
    assert witness(D, A, B).bound == 13
    assert len(passes) == 2 and validated == []
    assert witness(D, A, B).bound == 13 and len(passes) == 2
    # the public bound validates each of its inputs once
    assert schaathun_bound((0, 2, 3), (0, 3, 5), 3) == 13
    assert validated == ["first hierarchy", "second hierarchy"]
    assert len(passes) == 3


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def test_witness_inequality_chain():
    rng = random.Random(509)
    seen = 0
    for _ in range(150):
        nA, nB = rng.randrange(2, 4), rng.randrange(2, 5)
        A = zoo.random_code(rng, GF2, nA, rng.randrange(1, nA + 1))
        B = zoo.random_code(rng, GF2, nB, rng.randrange(1, nB + 1))
        T = A.tensor(B)
        D = zoo.random_subcode(rng, T, rng.randrange(1, T.k + 1))
        w = witness(D, A, B)
        assert w.weight >= w.cost >= w.bound
        assert w.r == D.dim
        assert w.bound == schaathun_bound(
            A.weight_hierarchy(), B.weight_hierarchy(), w.r)
        assert len(w.column_dims) == B.n
        assert all(w.t[i] >= w.t[i + 1] for i in range(len(w.t) - 1))
        assert sum(w.t) >= w.r
        seen += 1
    assert seen == 150


def test_witness_whole_tensor_and_rank_one():
    A, B = zoo.binary_3_2(), zoo.binary_5_2()
    T = A.tensor(B)
    whole = Subcode.from_rows(T, [T.gen.row(i) for i in range(T.k)])
    w = witness(whole, A, B)
    assert w.r == T.k and w.weight == T.support_mask.bit_count()
    # a Kronecker product of minimum weight words meets the r = 1 bound
    a = min((v for v in oracles.codewords(A.field, oracles.rows_of(A))
             if any(v)), key=lambda v: sum(x != 0 for x in v))
    b = min((v for v in oracles.codewords(B.field, oracles.rows_of(B))
             if any(v)), key=lambda v: sum(x != 0 for x in v))
    prod = tuple(A.field.mul(x, y) for x in a for y in b)
    rank1 = Subcode.from_rows(T, [prod])
    w1 = witness(rank1, A, B)
    assert w1.weight == w1.bound == schaathun_bound(
        A.weight_hierarchy(), B.weight_hierarchy(), 1)


def test_witness_rejects_foreign_subcode():
    D = Subcode.from_rows(zoo.full_space(GF2, 15),
                          [(1,) + (0,) * 14])
    with pytest.raises(NotASubcode):
        witness(D, zoo.binary_3_2(), zoo.binary_5_2())
    # only a subcode of the product code itself skips the membership
    # test: a subcode of another code of length nA nB is still refused,
    # also once the product is built and kept
    A, B = zoo.binary_3_2(), zoo.binary_5_2()
    T = A.tensor(B)
    outside = (1,) + (0,) * 14
    C = LinearCode.from_rows(GF2, oracles.rows_of(T) + [outside])
    with pytest.raises(NotASubcode):
        witness(Subcode.from_rows(C, [outside]), A, B)


def test_witness_refuses_a_subcode_over_another_field():
    # the membership test compares fields before it compares rows: a
    # subcode of a ternary code of length nA nB is refused with the
    # mismatch, not read as binary rows
    A, B = zoo.binary_3_2(), zoo.binary_5_2()
    D = zoo.random_code(random.Random(547), GF3, 15, 3).whole_subcode()
    with pytest.raises(FieldMismatch, match="operands live over different"):
        witness(D, A, B)


def test_witness_of_a_product_subcode_stacks_no_generator(monkeypatch):
    # a subcode of the code A.tensor(B) returns lies in the product by
    # construction, so its witness runs no membership rank test: the
    # generator is not extended by D's basis
    A, B = zoo.binary_3_2(), zoo.binary_5_2()
    D = zoo.random_subcode(random.Random(541), A.tensor(B), 3)
    extended = []
    extend = Matrix.extend
    monkeypatch.setattr(Matrix, "extend",
                        lambda M, other: extended.append(M) or extend(M, other))
    assert witness(D, A, B).r == 3
    assert extended == []


def test_witness_of_a_product_subcode_compares_no_generators(monkeypatch):
    # D.parent is the product itself, so no code is compared with it
    A, B = zoo.binary_3_2(), zoo.binary_5_2()
    T = A.tensor(B)
    D = zoo.random_subcode(random.Random(541), T, 3)
    compared = []
    eq = LinearCode.__eq__
    monkeypatch.setattr(LinearCode, "__eq__",
                        lambda X, Y: compared.append((X, Y)) or eq(X, Y))
    assert witness(D, A, B).r == 3
    assert not any(X is T or Y is T for X, Y in compared)


def test_witness_reads_its_columns_off_one_token_pass(monkeypatch):
    # no per-column matrix is built or reduced, and the only support read
    # is D's own weight, once
    A, B = zoo.binary_3_2(), zoo.binary_5_2()
    D = zoo.random_subcode(random.Random(541), A.tensor(B), 3)
    calls, supports = [], []
    for name in ("rref", "col_submatrix"):
        method = getattr(Matrix, name)
        monkeypatch.setattr(Matrix, name,
                            lambda M, *args, name=name, method=method:
                            calls.append(name) or method(M, *args))
    support = Matrix.support
    monkeypatch.setattr(Matrix, "support",
                        lambda M: supports.append(M) or support(M))
    w = witness(D, A, B)
    assert w.r == 3 and calls == []
    assert [M is D.basis for M in supports] == [True]


def test_semistable_check_runs_one_bound_pass_per_product(monkeypatch):
    # all 20 certificates of a fresh pair read the product's one table
    passes, certified = [], []
    costs, certify = tensor._exact_costs, tensor.witness
    monkeypatch.setattr(tensor, "_exact_costs",
                        lambda dA, dB: passes.append((dA, dB))
                        or costs(dA, dB))
    monkeypatch.setattr(tensor, "witness",
                        lambda D, A, B: certified.append(D)
                        or certify(D, A, B))
    assert tensor_semistable_check(zoo.binary_5_2(), zoo.binary_3_2())
    assert len(certified) == 20
    assert passes == [((0, 3, 5), (0, 2, 3))]


def test_witness_columns_against_brute_projections():
    # column dimensions and supports against the projections of the
    # subcode's words, over GF(2), GF(3), GF(4) and GF(256), on random,
    # zero and whole subcodes of products of factors with zero columns
    rng = random.Random(2929)
    for field in (GF2, GF3, zoo.gf4(), FieldSpec(2, 8, 0x11B)):
        seen = {"zero": 0, "whole": 0, "random": 0, "zero column": 0}
        while sum(seen.values()) - seen["zero column"] < 60:
            nA, nB = rng.randrange(1, 4), rng.randrange(1, 5)
            A, B = (_zero_padded(rng, zoo.random_code(
                rng, field, n, rng.randrange(1, min(n, 2) + 1)),
                rng.randrange(2)) for n in (nA, nB))
            T = A.tensor(B)
            kind = rng.choice(["zero", "whole", "random"])
            r = {"zero": 0, "whole": T.k,
                 "random": rng.randrange(1, T.k + 1)}[kind]
            if field.q ** r > 4096:
                continue
            D = zoo.random_subcode(rng, T, r)
            w = witness(D, A, B)
            assert (w.column_dims, w.supports) == \
                oracles.brute_column_projections(
                    field, D.basis.row_list(), A.n, B.n)
            seen[kind] += 1
            seen["zero column"] += not (A.is_full_support
                                        and B.is_full_support)
        assert min(seen.values()) >= 10, (field, seen)


def _inside_product_by_words(D, A, B) -> bool:
    """Every basis row of D, read as an nA x nB array, has each column a
    codeword of A and each row a codeword of B."""
    words_A = set(oracles.codewords(A.field, oracles.rows_of(A)))
    words_B = set(oracles.codewords(B.field, oracles.rows_of(B)))
    nA, nB = A.n, B.n
    for b in range(D.dim):
        w = D.basis.row(b)
        if any(tuple(w[i * nB:(i + 1) * nB]) not in words_B
               for i in range(nA)):
            return False
        if any(tuple(w[i * nB + j] for i in range(nA)) not in words_A
               for j in range(nB)):
            return False
    return True


def test_witness_refuses_exactly_the_subcodes_outside_the_product():
    rng = random.Random(0x7E5)
    outcomes = {True: 0, False: 0}

    def rand(field, n):
        return zoo.random_code(rng, field, n, rng.randrange(1, n + 1))

    for _ in range(400):
        field = rng.choice([GF2, GF3, zoo.gf4()])
        nA, nB = rng.randrange(1, 5), rng.randrange(1, 5)
        A, B = rand(field, nA), rand(field, nB)
        parent = rng.choice([
            lambda: A.tensor(B),
            lambda: rand(field, nA * nB),
            lambda: rand(field, nA).tensor(rand(field, nB)),
        ])()
        D = zoo.random_subcode(rng, parent, rng.randrange(1, parent.k + 1))
        inside = _inside_product_by_words(D, A, B)
        outcomes[inside] += 1
        if inside:
            assert witness(D, A, B).r == D.dim
        else:
            with pytest.raises(NotASubcode):
                witness(D, A, B)
    assert min(outcomes.values()) >= 100, outcomes


def test_schaathun_verify_pairs():
    rng = random.Random(521)
    for _ in range(10):
        nA, nB = rng.randrange(2, 4), rng.randrange(2, 4)
        field = rng.choice([GF2, GF3])
        A = zoo.random_code(rng, field, nA, rng.randrange(1, nA + 1))
        B = zoo.random_code(rng, field, nB, rng.randrange(1, nB + 1))
        assert schaathun_verify(A, B)


# ---------------------------------------------------------------------------
# the chain condition
# ---------------------------------------------------------------------------

def test_is_chained_known_examples():
    assert is_chained(zoo.repetition(GF2, 5))
    assert is_chained(zoo.simplex(3))
    block = LinearCode.from_rows(GF2, [(1, 0, 0, 0, 0, 0),
                                       (0, 1, 1, 0, 0, 0),
                                       (0, 0, 0, 1, 1, 1)])
    assert is_chained(block)
    assert not is_chained(NON_CHAINED_GF3)



def test_is_chained_honours_the_cap():
    # the verdict is kept on the code, and the memo checks the cap on
    # every call, also once it is filled
    C = zoo.binary_9_7()
    with pytest.raises(SizeLimitExceeded), enumeration_cap(8):
        is_chained(C)
    with enumeration_cap(9):
        chained = is_chained(C)
    assert chained == is_chained(zoo.binary_9_7())
    with pytest.raises(SizeLimitExceeded), enumeration_cap(8):
        is_chained(C)


def test_is_chained_against_oracle():
    for n in range(1, 5):
        for C in zoo.iter_all_codes(GF2, n):
            assert is_chained(C) == oracles.brute_chained(
                C.field, oracles.rows_of(C))
    rng = random.Random(523)
    for _ in range(12):
        n = rng.randrange(2, 6)
        C = zoo.random_code(rng, GF3, n, rng.randrange(1, min(3, n) + 1))
        assert is_chained(C) == oracles.brute_chained(
            C.field, oracles.rows_of(C))
    assert oracles.brute_chained(GF3, oracles.rows_of(NON_CHAINED_GF3)) is False


def _zero_padded(rng, C, zeros):
    cols = list(zip(*oracles.rows_of(C)))
    for _ in range(zeros):
        cols.insert(rng.randrange(len(cols) + 1), (0,) * C.k)
    return LinearCode.from_rows(C.field, list(zip(*cols)))


def test_is_chained_against_oracle_with_non_chained_codes():
    # the levels read off the rank table against nested codeword sets, on
    # NON_CHAINED_GF3, its direct sums with [n, 1] codes on either side,
    # zero-column paddings of those, and random GF(2/3/4) codes
    from test_hn import code_direct_sum
    rng = random.Random(541)
    GF4 = zoo.gf4()
    pool = [NON_CHAINED_GF3]
    for _ in range(12):
        B = zoo.random_code(rng, GF3, rng.randrange(1, 4), 1)
        pool.append(code_direct_sum(NON_CHAINED_GF3, B) if rng.random() < 0.5
                    else code_direct_sum(B, NON_CHAINED_GF3))
    pool += [_zero_padded(rng, C, rng.randrange(1, 3)) for C in pool[:11]]
    for _ in range(40):
        field = rng.choice((GF2, GF3, GF4))
        n = rng.randrange(1, 7)
        C = zoo.random_code(rng, field, n, rng.randrange(1, min(3, n) + 1))
        pool.append(_zero_padded(rng, C, rng.randrange(2)))
    seen = {True: 0, False: 0}
    for C in pool:
        chained = oracles.brute_chained(C.field, oracles.rows_of(C))
        assert is_chained(C) == chained
        seen[chained] += 1
    assert seen[False] >= 20 and seen[True] >= 20


def test_wei_yang_equality_on_chained_pairs():
    A, B = zoo.binary_3_2(), zoo.binary_5_2()
    assert wei_yang_check(A, B)
    assert wei_yang_check(zoo.repetition(GF2, 3), zoo.simplex(2))
    # the equality it certifies, spelled out for one pair
    T = A.tensor(A)
    assert T.weight_hierarchy() == schaathun_bound_table(A, A)
    with pytest.raises(InvariantViolation):
        wei_yang_check(NON_CHAINED_GF3, A)


def test_tensor_checks_honour_a_raised_cap():
    # n = 21 product: every hierarchy these checks read must be read at
    # the cap they were given, not at the default of 20
    A, B = zoo.repetition(GF2, 7), zoo.repetition(GF2, 3)
    with enumeration_cap(22):
        assert schaathun_verify(A, B)
        assert wei_yang_check(A, B)
    with pytest.raises(SizeLimitExceeded), enumeration_cap(20):
        schaathun_verify(A, B)
    with pytest.raises(SizeLimitExceeded), enumeration_cap(6):
        schaathun_bound_table(A, B)
    # the weight certificates read the factor hierarchies at the cap too
    R21, R1 = zoo.repetition(GF2, 21), zoo.repetition(GF2, 1)
    with enumeration_cap(22):
        assert tensor_semistable_check(R21, R1)
    with pytest.raises(SizeLimitExceeded), enumeration_cap(20):
        tensor_semistable_check(R21, R1)


def test_products_have_the_default_cap_of_any_code():
    # a product's columns count against the same 2^20 as any code's
    A = LinearCode.from_rows(GF2, [(1, 1, 0, 0), (0, 0, 1, 1)])
    B = zoo.binary_5_2()
    assert schaathun_verify(A, B)
    assert tensor_semistable_check(A, B)
    with pytest.raises(SizeLimitExceeded):
        schaathun_verify(zoo.repetition(GF2, 7), zoo.repetition(GF2, 3))


# ---------------------------------------------------------------------------
# semistability of products
# ---------------------------------------------------------------------------

def test_tensor_semistable_check():
    assert tensor_semistable_check(zoo.binary_5_2(), zoo.binary_3_2())
    assert tensor_semistable_check(zoo.repetition(GF2, 2), zoo.simplex(2))
    with pytest.raises(InvariantViolation):
        tensor_semistable_check(zoo.binary_9_7(), zoo.binary_3_2())


def test_tensor_semistable_exhaustive_spot():
    rng = random.Random(541)
    pairs = 0
    pool = [C for n in range(1, 4) for C in zoo.iter_all_codes(GF2, n)
            if is_semistable(C)]
    for A, B in itertools.product(pool, repeat=2):
        if A.n * B.n > 9:
            continue
        assert tensor_semistable_check(A, B)
        assert is_semistable(A.tensor(B))
        pairs += 1
    assert pairs > 50
