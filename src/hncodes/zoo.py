"""Small catalogue of fields and codes used in examples and tests."""

from __future__ import annotations

import random

from .algebra import (FieldSpec, Matrix, iter_rref_matrices, rref_at,
                      subspaces)
from .code import LinearCode, Subcode


def gf2() -> FieldSpec:
    return FieldSpec(2, 1)


def gf3() -> FieldSpec:
    return FieldSpec(3, 1)


def gf4() -> FieldSpec:
    # x^2 + x + 1 over GF(2): digits (1, 1, 1) little-endian, i.e. 7
    return FieldSpec(2, 2, 7)


def repetition(field: FieldSpec, n: int) -> LinearCode:
    """[n, 1] code spanned by the all-ones word."""
    return LinearCode.from_rows(field, [[1] * n])


def parity(field: FieldSpec, n: int) -> LinearCode:
    """[n, n-1] sum-zero code."""
    rows = []
    for i in range(n - 1):
        row = [0] * n
        row[i] = 1
        row[n - 1] = field.neg(1)
        rows.append(row)
    return LinearCode.from_rows(field, rows)


def full_space(field: FieldSpec, n: int) -> LinearCode:
    """[n, n] code F^n."""
    return LinearCode(Matrix.identity(field, n))


def simplex(k: int) -> LinearCode:
    """Binary [2^k - 1, k] simplex code: columns are the nonzero vectors."""
    f = gf2()
    n = (1 << k) - 1
    rows = [[(c >> i) & 1 for c in range(1, n + 1)] for i in range(k)]
    return LinearCode.from_rows(f, rows)


def hamming_7_4() -> LinearCode:
    """[7, 4] Hamming code (dual of the [7, 3] simplex)."""
    return simplex(3).dual()


def extended_hamming_8_4() -> LinearCode:
    """Self-dual [8, 4] extended Hamming code."""
    rows = [
        [1, 0, 0, 0, 0, 1, 1, 1],
        [0, 1, 0, 0, 1, 0, 1, 1],
        [0, 0, 1, 0, 1, 1, 0, 1],
        [0, 0, 0, 1, 1, 1, 1, 0],
    ]
    return LinearCode.from_rows(gf2(), rows)


def binary_3_2() -> LinearCode:
    """[3, 2, 2] even-weight code; stable, hierarchy (0, 2, 3)."""
    return LinearCode.from_rows(gf2(), [[1, 0, 1], [0, 1, 1]])


def binary_5_2() -> LinearCode:
    """[5, 2] stable code of slope -5/2, hierarchy (0, 3, 5)."""
    return LinearCode.from_rows(gf2(), [[1, 0, 0, 1, 1], [0, 1, 1, 1, 1]])


def binary_5_2_square() -> LinearCode:
    """Schur square of the [5, 2] code above: unstable with a weight-1
    word, hierarchy (0, 1, 3, 5)."""
    return LinearCode.from_rows(
        gf2(), [[1, 0, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 0, 1, 1]])


def binary_9_7() -> LinearCode:
    """[9, 7] code with a two-slope polygon (0,9)-(4,4)-(7,0); its
    destabilizing subcode is the span of the last four rows."""
    rows = [
        [1, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 1, 0, 0, 1],
        [0, 0, 0, 0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 0, 0, 0, 1, 1],
        [0, 1, 0, 1, 0, 0, 0, 0, 1],
    ]
    return LinearCode.from_rows(gf2(), rows)


def random_code(rng: random.Random, field: FieldSpec, n: int,
                k: int) -> LinearCode:
    """Uniformly random [n, k] code: whole k x n matrices are drawn,
    entry by entry in row-major order, until one has rank k, and the code
    is its row space."""
    while True:
        M = Matrix(field, k, n,
                   tuple([rng.randrange(field.q) for _ in range(k * n)]))
        if M.rank() == k:
            return LinearCode(M)


def random_subcode(rng: random.Random, C: LinearCode, r: int) -> Subcode:
    """Uniformly random r-dimensional subcode of C, exactly: its key is the
    RREF at one index drawn below [k, r]_q, by the bijection `rref_at`."""
    return Subcode(C, rref_at(C.field, r, C.k,
                              rng.randrange(subspaces(C.field.q, C.k, r))))


def iter_all_codes(field: FieldSpec, n: int, kmin: int = 1,
                   kmax: int | None = None):
    """Every code of length n over the field, once per subspace, in
    increasing dimension."""
    top = n if kmax is None else kmax
    for k in range(kmin, top + 1):
        for M in iter_rref_matrices(field, k, n):
            yield LinearCode(M)
