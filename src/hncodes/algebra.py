"""Exact arithmetic over small finite fields GF(p^m) and dense matrices.

Field elements are plain integers in [0, q).  The integer's little-endian
base-p digits are the coefficients of the residue polynomial, so 0 and 1 are
the field's zero and one for every (p, m) and prime subfields embed as the
integers [0, p).  Every operation is a lookup in addition and
multiplication tables built once at construction, each row one or two
`bytes.translate` calls on earlier rows: addition rows from the digits,
multiplication rows from the powers of a generator of the nonzero
elements (`FieldSpec._build_tables`).  All matrix routines are exact (no
floats anywhere) and deterministic.

The subset-rank helpers at the bottom enumerate column subsets by
depth-first extension, in the lexicographic order of sorted column
indices.  Each node keeps the later columns reduced modulo the span of its
subset, and a child that takes an independent column reduces them by one
elimination step against it.  A Matrix keeps each reduced column (its
token) in one int over GF(2^m), bit-packed over GF(2) and in byte lanes
past it, and as a tuple in odd characteristic, whose subtraction is not
XOR (`Matrix.independence`).  They take any M whose `independence()` is
such a contraction oracle, a Matrix's column matroid, so they serve weight
hierarchies, profiles and cohomology tables alike, and are capped because
the enumeration is exponential.  `column_rank_table` visits every subset;
the least-rank search, behind a code's polygons, filtrations and verdicts,
cuts the later siblings of every dependent column and the subtrees that
cannot improve a minimum, which it tells from how many later tokens are
zero or repeat a point.  A code's least ranks are searched one block
at a time: the connected components of its column matroid, read off its
RREF generator (`column_blocks`), have additive ranks, so the least ranks
of the code are the min-plus convolution of the blocks' and the cap counts
the columns of the largest block (`least_ranks`).  A Matroid reads its
least ranks off its rank table (`least_ranks_of_table`), and every other
question over all column subsets is whole-table arithmetic on the rank
table too (`popcounts`, `subsets_where`).

`column_rank_table` has a second engine for a Matrix with q^rows <= 2^cols:
the number of coefficient vectors whose word lies inside each column set U
is q to the dimension of the words there, and that number is a subset sum,
over the supports inside U, of the words' count at each support.  So the
table is one subset-sum transform of the words' supports, in lanes of one
int (`lanes`), with no search (`_word_rank_table`).  Other matrices walk
the DFS.
"""

from __future__ import annotations

import bisect
import collections
import contextlib
import contextvars
import functools
import itertools
import types

from .errors import (
    DivisionByZero,
    FieldMismatch,
    FieldTooLarge,
    InvariantViolation,
    NonPrime,
    ReducibleModulus,
    SizeLimitExceeded,
)

MAX_FIELD_ORDER = 256


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FieldSpec:
    """A concrete finite field GF(p^m) with q = p^m <= 256.

    Parameters
    ----------
    p : prime characteristic.
    m : extension degree, m >= 1.
    modulus : the irreducible monic modulus polynomial encoded as an
        integer (little-endian base-p digits).  Required when m > 1; for
        m = 1 it defaults to the canonical degree-1 encoding (the integer
        p, i.e. the polynomial x).  No canonicalization is applied: two
        fields with distinct moduli are distinct specifications.

    Elements are ints in [0, q).  Methods do not range-check their
    arguments on the hot path.  The constructor checks the cheap bounds
    (p and m) before the primality test and before computing p^m, and the
    modulus range before any table is built.  Irreducibility is checked
    by the search for a generator of the nonzero elements, before any
    multiplication row is built: the modulus is refused with
    ReducibleModulus when a nonzero element shows itself a non-unit or no
    element generates, so the refusal costs the addition rows and at most
    q - 1 walks of at most q - 1 powers.
    """

    __slots__ = ("p", "m", "q", "modulus",
                 "_add", "_neg", "_mul", "_inv", "_plus", "_times")

    def __init__(self, p: int, m: int = 1, modulus: int | None = None):
        if p > MAX_FIELD_ORDER:
            raise FieldTooLarge(
                f"characteristic {p} exceeds {MAX_FIELD_ORDER}")
        if not _is_prime(p):
            raise NonPrime(f"characteristic {p} is not prime")
        if m < 1:
            raise InvariantViolation(f"extension degree must be >= 1, got {m}")
        # p >= 2, so m > 8 alone gives p^m > 256 and p^m stays small
        if m > 8 or p ** m > MAX_FIELD_ORDER:
            raise FieldTooLarge(
                f"field order {p}^{m} exceeds {MAX_FIELD_ORDER}")
        q = p ** m
        if modulus is None:
            if m > 1:
                raise InvariantViolation(
                    f"an irreducible modulus is required for GF({p}^{m})")
            modulus = p
        # monic of degree m: m + 1 base-p digits, the top one 1
        if not q <= modulus < 2 * q:
            raise InvariantViolation(
                f"modulus {modulus} does not encode a monic degree-{m} "
                f"polynomial over GF({p})")
        self.p = p
        self.m = m
        self.q = q
        self.modulus = modulus
        self._build_tables()

    # -- table construction -------------------------------------------------

    def _build_tables(self):
        """Fill the tables row by row, each row from one or two
        `bytes.translate` calls on rows built before it.

        Addition is digit-wise.  Write a = a0 + p*a1 with a0 = a % p.  Row
        a0 < p turns the low digit of b, a rotation of 0..p-1; row p*a1 is
        the low digit of b plus p times row a1 read at b // p, one lane add
        of two translates; and row a is row a - a0 mapped through row a0.

        The ring GF(p)[x]/(modulus) is a field exactly when its nonzero
        elements are units, and then they are the powers of one generator
        g (Lidl-Niederreiter, Thm. 2.8), so row g^(i+1) is row g^i mapped
        through row g.  Row g itself is g*b = g*b0 + x*(g*b1) over
        b = b0 + x*b1, where x*c shifts the digits of c up and folds the
        carried top digit back in times x^m = -(modulus - q).  Candidates
        g are tried from q - 1 down: one whose powers reach 1 after fewer
        than q - 1 steps is passed over, and one whose powers reach 0, or
        not 1 within q - 1 steps, is a nonzero non-unit, which refuses the
        modulus.  Negation and inverses are read off the rows and the
        powers; x - c*y is one addition row and the multiplication row of
        -c, with no subtraction table.  The rows are kept twice: padded to
        256 bytes as the kernels' translate tables (`_plus`, `_times`), and
        as lists, which index faster on the hot paths.
        """
        p, q = self.p, self.q
        top, pad = q // p, bytes(256 - q)
        low = lanes(bytes(range(p)) * top)                # b % p
        high = bytes(b // p for b in range(q))
        times_p = bytes(range(0, q, p)).ljust(256, b"\0")  # c -> p*c
        step = lanes(high.translate(times_p))             # b - b % p
        turns = bytes(range(p)) * 2
        adds, plus = [], []
        for a in range(q):
            a0 = a % p
            if a < p:
                row = (lanes(turns[a:a + p] * top) + step).to_bytes(
                    q, "little")
            elif a0:
                row = adds[a - a0].translate(plus[a0])
            else:
                row = (low + lanes(high.translate(plus[a // p].translate(
                    times_p)))).to_bytes(q, "little")
            adds.append(row)
            plus.append(row + pad)
        neg = [row.index(0) for row in adds]

        xm, times_xm = neg[self.modulus - q], [0]         # d * x^m, d < p
        for _ in range(1, p):
            times_xm.append(adds[times_xm[-1]][xm])
        shift = bytes(range(0, q, p))
        xc = b"".join([shift.translate(plus[t]) for t in times_xm])
        for g in range(q - 1, 0, -1):
            gb = bytearray(q)                             # g*b
            for b in range(1, p):
                gb[b] = adds[gb[b - 1]][g]
            for b in range(p, q):
                gb[b] = adds[gb[b % p]][xc[gb[b // p]]]
            powers, c = [1], g
            while c > 1 and len(powers) < q:
                powers.append(c)
                c = gb[c]
            if c != 1 or len(powers) == q - 1:
                break
        if c != 1 or len(powers) < q - 1:
            raise ReducibleModulus(
                f"modulus {self.modulus} is reducible over GF({p})")
        gb += pad
        muls, row, inv = [bytes(q)] * q, bytes(range(q)), [0] * q
        for i, c in enumerate(powers):
            muls[c], row = row, row.translate(gb)
            inv[c] = powers[-i]

        self._add = [list(row) for row in adds]
        self._mul = [list(row) for row in muls]
        self._neg, self._inv, self._plus = neg, inv, plus
        self._times = [row + pad for row in muls]

    # -- scalar operations --------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"inverse of 0 in GF({self.q})")
        return self._inv[a]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero(f"0**{e} in GF({self.q})")
            return 0
        row, out = self._mul[a], 1
        for _ in range(e % (self.q - 1)):
            out = row[out]
        return out

    def elements(self) -> range:
        return range(self.q)

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.m, self.modulus)
                == (other.p, other.m, other.modulus))

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        if self.modulus == self.p:           # the default modulus x
            return f"FieldSpec({self.p})"
        return f"FieldSpec({self.p}, {self.m}, modulus={self.modulus})"


def _rref_step(rows: list, piv: list, v, f: FieldSpec):
    """The one reduction step of the library.  `rows` are RREF rows with
    pivot columns `piv`, both lists in pivot order, updated in place: v is
    reduced at the pivots and, if anything is left, scaled to lead with 1,
    cleared from the kept rows at its own pivot and inserted in pivot
    order.  x - c*y is read as x + (-c)*y, one addition row each."""
    ADD, MUL, NEG = f._add, f._mul, f._neg
    for p, u in zip(piv, rows):
        if v[p]:
            m = MUL[NEG[v[p]]]
            v = [ADD[x][m[y]] for x, y in zip(v, u)]
    lead = next(filter(None, v), 0)
    if not lead:                         # v adds no rank
        return
    c = v.index(lead)                    # the first nonzero entry
    if lead != 1:
        m = MUL[f._inv[lead]]
        v = [m[x] for x in v]
    for i, u in enumerate(rows):
        if u[c]:
            m = MUL[NEG[u[c]]]
            rows[i] = [ADD[x][m[y]] for x, y in zip(u, v)]
    a = bisect.bisect_left(piv, c)
    rows.insert(a, v)
    piv.insert(a, c)


def _stepped(f: FieldSpec, width: int, R, vectors) -> "Matrix":
    """The stepping loop, the one caller of `_rref_step`: the vectors, of
    length `width`, stepped one at a time into the rows of R, a Matrix
    kept as its own RREF, or into no rows when R is None.  R itself is
    returned when no vector adds rank; any other span is a new Matrix
    kept as its own RREF."""
    rows, piv = ([], []) if R is None else (R.row_list(), list(R._rref[1]))
    for v in vectors:
        _rref_step(rows, piv, v, f)
    if R is not None and len(piv) == R.rows:
        return R
    out = Matrix(f, len(piv), width,
                 tuple(itertools.chain.from_iterable(rows)))
    out._rref = (out, tuple(piv))
    return out


class Matrix:
    """Immutable dense matrix over a FieldSpec, entries stored row-major.

    The constructor checks only the shape and trusts the entries to be
    field elements; `from_rows` checks rows from outside the library.
    A span has one format: its RREF with no zero rows, kept as its own
    RREF.  Every row reduction steps vectors into such a span
    (`_stepped`): `rref` the rows of self into none, `extend` the rows
    of other into self's RREF, and `column_span` columns of self into a
    span it returned before, or into none."""

    __slots__ = ("field", "rows", "cols", "entries", "_rref")

    def __init__(self, field: FieldSpec, rows: int, cols: int,
                 entries: tuple[int, ...]):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise InvariantViolation(
                f"entry count {len(entries)} does not match {rows}x{cols}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._rref = None

    @classmethod
    def from_rows(cls, field: FieldSpec, rows) -> "Matrix":
        """Matrix from outside rows: refuses ragged rows and entries that
        are not elements of the field."""
        rows = [tuple(r) for r in rows]
        nc = len(rows[0]) if rows else 0
        q = field.q
        for r in rows:
            if len(r) != nc:
                raise InvariantViolation("ragged rows")
            for e in r:
                if not isinstance(e, int) or not 0 <= e < q:
                    raise InvariantViolation(
                        f"{e!r} is not an element of GF({q})")
        return cls(field, len(rows), nc, tuple(x for r in rows for x in r))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        ent = [0] * (n * n)
        for i in range(n):
            ent[i * n + i] = 1
        return cls(field, n, n, tuple(ent))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def row_list(self) -> list[tuple[int, ...]]:
        return [self.row(i) for i in range(self.rows)]

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j::self.cols]

    def _require_same_field(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatch("operands live over different fields")

    def matmul(self, other: "Matrix") -> "Matrix":
        self._require_same_field(other)
        if self.cols != other.rows:
            raise InvariantViolation(
                f"cannot multiply {self.rows}x{self.cols} by "
                f"{other.rows}x{other.cols}")
        f = self.field
        ADD, MUL = f._add, f._mul
        out = []
        orows = other.row_list()
        for i in range(self.rows):
            srow = self.row(i)
            acc = [0] * other.cols
            for t, c in enumerate(srow):
                if c:
                    mc = MUL[c]
                    orow = orows[t]
                    for j in range(other.cols):
                        acc[j] = ADD[acc[j]][mc[orow[j]]]
            out.extend(acc)
        return Matrix(f, self.rows, other.cols, tuple(out))

    def col_submatrix(self, cols) -> "Matrix":
        cols = list(cols)
        ent = tuple(self.entries[i * self.cols + j]
                    for i in range(self.rows) for j in cols)
        return Matrix(self.field, self.rows, len(cols), ent)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; row (i, j) maps to index i * other.rows + j.
        When both factors keep themselves as their RREF, which has no
        zero row, so does the product: row (i, j) leads with 1 at column
        p_i * other.cols + p'_j, where every other row is 0."""
        self._require_same_field(other)
        f = self.field
        MUL = f._mul
        R, C = self.rows * other.rows, self.cols * other.cols
        ent = [0] * (R * C)
        for i in range(self.rows):
            for k in range(self.cols):
                a = self.entry(i, k)
                if not a:
                    continue
                ma = MUL[a]
                for j in range(other.rows):
                    base = (i * other.rows + j) * C + k * other.cols
                    orow = other.row(j)
                    for l in range(other.cols):
                        ent[base + l] = ma[orow[l]]
        out = Matrix(f, R, C, tuple(ent))
        own = [M._rref[1] for M in (self, other)
               if M._rref and M._rref[0] is M]
        if len(own) == 2:
            out._rref = (out, tuple(a * other.cols + b
                                    for a in own[0] for b in own[1]))
        return out

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """The reduced row echelon form of the row space with zero rows
        dropped, rank-many rows kept as their own RREF, and its pivot
        columns: the rows of self stepped in from none (`_stepped`),
        once per matrix."""
        if self._rref is None:
            self._rref = _stepped(self.field, self.cols, None,
                                  map(self.row, range(self.rows)))._rref
        return self._rref

    def extend(self, other: "Matrix") -> "Matrix":
        """The RREF span of the rows of self and of other: the rows of
        other stepped into self's RREF (`_stepped`), whose rows are not
        reduced again, and that RREF itself when other adds no rank."""
        self._require_same_field(other)
        if self.cols != other.cols:
            raise InvariantViolation("column counts differ")
        return _stepped(self.field, self.cols, self.rref()[0],
                        map(other.row, range(other.rows)))

    def column_span(self, cols, span=None) -> "Matrix":
        """The RREF span in F^rows of the columns `cols` of self, read as
        vectors: they are stepped one at a time (`_stepped`) into `span`,
        a span this method returned before, or into none, and `span`
        itself is returned when no column adds rank."""
        return _stepped(self.field, self.rows, span, map(self.column, cols))

    def rank(self) -> int:
        return len(self.rref()[1])

    def support(self) -> int:
        """The mask of the nonzero columns: the entries read as binary
        digits by one translate, and each row of them ORed in."""
        c, mask = self.cols, 0
        bits = int(bytes(self.entries[::-1]).translate(_BINARY) or b"0", 2)
        for i in range(self.rows):
            mask |= bits >> i * c
        return mask & ((1 << c) - 1)

    def right_nullspace(self) -> "Matrix":
        """The RREF basis of {x : M x = 0}: the solution of each free
        column, reduced."""
        R, piv = self.rref()
        free = [j for j in range(self.cols) if j not in piv]
        f, NEG = self.field, self.field._neg
        ent = []
        for fc in free:
            v = [0] * self.cols
            v[fc] = 1
            for i, pc in enumerate(piv):
                v[pc] = NEG[R.entry(i, fc)]
            ent.extend(v)
        return Matrix(f, len(free), self.cols, tuple(ent)).rref()[0]

    def row_space_words(self) -> list[tuple[int, ...]]:
        """All q^rows words of the row space (independent rows assumed)."""
        ADD, MUL = self.field._add, self.field._mul
        words = [(0,) * self.cols]
        for i in range(self.rows):
            row = self.row(i)
            new = []
            for c in range(1, self.field.q):
                mc = MUL[c]
                scaled = tuple(mc[x] for x in row)
                for w in words:
                    new.append(tuple(ADD[a][b] for a, b in zip(w, scaled)))
            words.extend(new)
        return words

    def independence(self):
        """(cols, contract, q) for the column searches below.

        A column's token is the column reduced modulo the span of the
        columns taken so far, and it is falsy exactly when the column lies
        in that span.  `contract(tail, v)` takes v, the token of a column
        that has just been taken, and reduces every token of `tail` by one
        elimination step against it.  Every token vanishes at the pivots
        of the columns taken, so it is the only vector of its coset modulo
        that span which does, and tokens are linear in the quotient.
        Tokens take one of three layouts, with a zero column as 0 in each:
        - GF(2): bit-packed ints, bit i for row i, eliminated at the top
          bit of v.
        - GF(2^m), m > 1: ints with entry i in byte i, scaled so that the
          top nonzero byte is 1 and eliminated at the top byte of v.  A
          token w with c in that byte takes w ^ c*v, since subtraction is
          XOR of the encodings.  Each distinct c*v is built once per
          contraction by one `bytes.translate` of v, and a rescale is one
          more.
        - odd characteristic: tuples scaled so that their first nonzero
          entry is 1, eliminated at the first nonzero entry of v.  Their
          subtraction is no bitwise operation, and packed lanes (bytes
          mapped through subtraction rows, 16-bit lanes with a compare and
          subtract) were no faster than tuples on GF(3), GF(5) and GF(9).
        So over every field two tokens are equal exactly when they are the
        same point of the quotient's projective space, which is what q,
        the field order, tells the search.  The pivot entry of v is then 1
        already, and only a token whose lead sat at the pivot is scaled
        again.
        """
        f = self.field
        if f.q == 2:
            # slice c - 1 - j of the reversed digits: column j, row 0 last
            c = self.cols
            digits = bytes(self.entries[::-1]).translate(_BINARY)
            cols = [int(digits[c - 1 - j::c] or b"0", 2) for j in range(c)]

            def contract(tail, v):
                top = 1 << (v.bit_length() - 1)
                return [w ^ v if w & top else w for w in tail]

            return cols, contract, 2

        INV = f._inv
        if f.p == 2:
            # int.from_bytes called directly: the keyword bound by `lanes`
            # costs more than the conversion on these short tokens
            times = f._times

            def unit(w):
                """Nonzero w scaled so that its top nonzero byte is 1."""
                t = (w.bit_length() - 1) >> 3
                lead = w >> 8 * t
                if lead < 2:
                    return w
                return int.from_bytes(w.to_bytes(t + 1, "little").translate(
                    times[INV[lead]]), "little")

            cols = [w and unit(w) for w in (
                int.from_bytes(bytes(self.column(j)), "little")
                for j in range(self.cols))]

            def contract(tail, v):
                sh = (v.bit_length() - 1) & -8     # v's top byte, which is 1
                vb = v.to_bytes(sh // 8 + 1, "little")
                cv = {1: v}                      # c * v, built once per c
                out = []
                for w in tail:
                    c = w >> sh & 255
                    if c:
                        m = cv.get(c)
                        if m is None:
                            m = cv[c] = int.from_bytes(
                                vb.translate(times[c]), "little")
                        w ^= m
                        if w and not w >> sh:   # its lead sat at the pivot
                            w = unit(w)
                    out.append(w)
                return out

            return cols, contract, f.q

        ADD, MUL, NEG = f._add, f._mul, f._neg

        def unit(w):
            """w scaled to lead with 1, or 0 when w is zero."""
            lead = next(filter(None, w), 0)
            if lead < 2:
                return lead and w
            mi = MUL[INV[lead]]
            return tuple([mi[x] for x in w])

        cols = [unit(c) for c in map(self.column, range(self.cols))]

        def contract(tail, v):
            i = v.index(1)                  # v leads with 1, at the pivot
            out = []
            for w in tail:
                c = w and w[i]
                if c:
                    mc = MUL[NEG[c]]
                    w = tuple([ADD[x][mc[y]] for x, y in zip(w, v)])
                    if not any(w[:i]):          # its lead sat at the pivot
                        w = unit(w)
                out.append(w)
            return out

        return cols, contract, f.q

    def __eq__(self, other):
        return (isinstance(other, Matrix)
                and self.field == other.field
                and (self.rows, self.cols) == (other.rows, other.cols)
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(i))
                         for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols} /GF({self.field.q}): {body})"


# -- column subset enumeration ---------------------------------------------

SUBSET_ENUM_CAP = 20

# The cap in force, in the way `decimal.localcontext` scopes precision: a
# block sets it with `enumeration_cap`, and a new thread starts from the
# default.
_enum_cap = contextvars.ContextVar("enumeration_cap", default=SUBSET_ENUM_CAP)


@contextlib.contextmanager
def enumeration_cap(n: int):
    """Within the block every exhaustive search may enumerate up to 2^n
    items (column subsets, subcodes or pairs of them); the cap before it
    is restored on exit, also when the block raises."""
    token = _enum_cap.set(n)
    try:
        yield
    finally:
        _enum_cap.reset(token)


def _check_cap(bits: int, what: str = "column subsets"):
    """The one refusal of an exhaustive search: it would enumerate up to
    2^bits `what`, and the cap in force counts in the same unit."""
    cap = _enum_cap.get()
    if bits > cap:
        raise SizeLimitExceeded(
            f"enumerating 2^{bits} {what} exceeds the cap of 2^{cap}; "
            f"raise it with --max-enum / enumeration_cap(N)",
            limit=cap, needed=bits)


def column_rank_table(M) -> bytes:
    """rank of every column subset of M, indexed by bitmask.

    A Matrix with q^rows <= 2^cols counts its words by support
    (`_word_rank_table`); any other M walks the DFS."""
    if isinstance(M, Matrix) and M.field.q ** M.rows <= 1 << M.cols:
        _check_cap(M.cols)
        return _word_rank_table(M)
    cols, contract, _ = M.independence()
    n = len(cols)
    _check_cap(n)
    table = bytearray(1 << n)

    # red[j - base] is column j reduced modulo the span of the parent's
    # subset.  v is the token of the column this node took: a node that
    # took a dependent column (v = 0) has its parent's span and shares the
    # list, any other contracts it once, before expanding.
    def rec(start, mask, rk, red, base, v):
        table[mask] = rk
        if start == n:
            return
        if v:
            red, base = contract(red[start - base:], v), start
        for j in range(start, n):
            w = red[j - base]
            rec(j + 1, mask | (1 << j), rk + 1 if w else rk, red, base, w)

    rec(0, 0, 0, cols, 0, 0)
    return bytes(table)


def min_column_rank_by_size(M):
    """For each s, the minimum rank over column subsets of size s.

    Returns (minima, witnesses) with one minimizing bitmask per size; each
    witness is the first subset of its size, in the lexicographic order of
    sorted column indices, that attains the minimum.

    The walk is `column_rank_table`'s DFS cut down twice, and the DFS
    visits subsets in exactly that lexicographic order.  At a subset S,
    once a child S + {j} takes a column j in span(S), the later siblings
    S + {j'} (j' > j) and their subtrees are cut.  And a subtree is pruned
    when it cannot improve any entry.  Neither cut loses the first
    least-rank s-subset T.  If an ancestor P of T had such a j between
    max(P) and the next column t of T, then T + {j} - {t} would have size
    s, rank at most rank(T) (as j is in span(P)) and come before T.  If
    the prune stopped at an ancestor, an s-subset of no larger rank than T
    would have been recorded before it, hence before T.

    The prune reads the subtree in bands.  Its subsets are S + U, with U
    among the m columns after the last one S took, and rank(S + U) is
    rank(S) plus the rank of U's tokens, those columns reduced modulo
    span(S).  Say z tokens are zero and the others name d distinct points
    of the quotient's projective space (equal tokens are equal points,
    see `Matrix.independence`), and let extra = m - d.  A subspace of
    dimension r holds (q^r - 1) / (q - 1) points, so at most g_r = extra +
    (q^r - 1) / (q - 1) tokens lie in it, and at most g_0 = z in the zero
    space.  So a U of more than g_(r-1) columns has rank r or more.  At
    every moment of the walk the minima never decrease in the size (see
    the comment in the walk), so no size of the subtree can
    improve when best[size(S) + z] <= rank(S) and best[size(S) + min(g_r,
    m)] <= rank(S) + r for r = 1, 2, ... until g_r >= m.  The test at the
    largest size alone, best[size(S) + m] <= rank(S), implies every band,
    and it comes first, before S contracts.

    A node contracts its tail only when its last column was independent
    and it was not pruned, which happens at most sum_{i<k} C(n, i) + n
    times, with k the rank of all n columns.  A node's children stop at
    its first dependent column, so a visited subset holds every column
    below its last that lies in the span of the columns before it, and a
    node whose last column is independent is fixed by its independent
    columns.  The first descent takes every next column: it visits at
    most n nodes before any other and sets best[n] = k, after which every
    node of rank k is pruned before it contracts.  So each other node that
    contracts has fewer than k independent columns.
    """
    cols, contract, q = M.independence()
    n = len(cols)
    _check_cap(n)
    best = [n + 1] * (n + 1)
    wit = [0] * (n + 1)
    # points[r]: the points of an r-dimensional space, (q^r - 1) / (q - 1)
    points = [(q ** r - 1) // (q - 1) for r in range(n + 1)]

    def rec(start, mask, size, rk, red, base, v):
        if rk < best[size]:
            best[size] = rk
            wit[size] = mask
        # best is nondecreasing in size at every moment of the walk, since
        # a node is always visited after its parent, whose rank is no
        # larger.  So if the largest size this subtree reaches cannot be
        # improved on, no smaller size can either.
        room = n - start
        if best[size + room] <= rk:
            return
        if v:
            red, base = contract(red[start - base:], v), start
        tail = red if base == start else red[start - base:]
        # the bands of the docstring: past the band before, a subset of
        # the tail has rank r or more, so no size up to size + band can
        # improve once best there is at most rk + r
        zeros = tail.count(0)
        if best[size + zeros] <= rk:
            extra = room - len(set(tail)) + (zeros > 0)
            r = 1
            while (best[size + (band := min(extra + points[r], room))]
                   <= rk + r):
                if band == room:
                    return
                r += 1
        for j in range(start, n):
            w = red[j - base]
            if not w:
                # the later siblings are cut (see the docstring)
                rec(j + 1, mask | (1 << j), size + 1, rk, red, base, 0)
                return
            rec(j + 1, mask | (1 << j), size + 1, rk + 1, red, base, w)

    rec(0, 0, 0, 0, cols, 0, 0)
    return best, wit


def column_blocks(R: Matrix) -> list[int]:
    """The connected components of the column matroid of an RREF matrix R
    with independent rows, as column masks, largest first.  A non-pivot
    column's fundamental circuit is itself and the pivots of the rows
    where it is nonzero, and a pivot column is nonzero in its own row
    only, so each row's support joins the blocks it meets; a zero column
    is a block of its own, a loop."""
    full = (1 << R.cols) - 1
    nonzero = int(bytes(R.entries[::-1]).translate(_BINARY), 2)
    blocks = [1 << j for j in range(R.cols)]
    for i in range(0, len(R.entries), R.cols):
        row = nonzero >> i & full
        blocks = [c for c in blocks if not c & row] + [
            sum(c for c in blocks if c & row)]
    return sorted(blocks, key=int.bit_count, reverse=True)


# A code of at most this many columns, within the cap, is searched whole:
# there the search costs less than splitting it into blocks.
WHOLE_SEARCH_COLS = 8


def least_ranks(X):
    """(minima, witnesses) by subset size of a code or matroid X, kept on
    X._minr; the one charge of the cap for all that is read from them, made
    on every call, so a refusal does not depend on what was computed before.
    The one choice of engine: a Matroid reads its `ranks`, charged at n.  A
    code is charged at its largest block (`LinearCode.blocks`, not split
    while n is within the cap).  It is searched whole when it is one block,
    or has at most `WHOLE_SEARCH_COLS` columns within the cap, and block by
    block otherwise.  At a polygon vertex the least-rank subset is unique
    (`hn.subset_filtration`), so both find the same subset there."""
    cap = _enum_cap.get()
    if X.n > cap:
        _check_cap(X.n if hasattr(X, "ranks") else X.blocks()[0].bit_count())
    if X._minr is None:
        if hasattr(X, "ranks"):
            X._minr = least_ranks_of_table(X.ranks)
        elif X.n <= min(cap, WHOLE_SEARCH_COLS) or len(X.blocks()) == 1:
            X._minr = min_column_rank_by_size(X)
        else:
            X._minr = _least_ranks_of_blocks(X)
    return X._minr


def _least_ranks_of_blocks(C):
    """Least ranks and witnesses of a code C from those of its blocks, whose
    ranks add up: their min-plus convolution, with unions as witnesses.
    A block of one column (a loop or a coloop) is read off its token, and
    any other is searched on C's tokens, its witnesses moved from its own
    column indices to C's."""
    cols, contract, q = C.independence()
    minr, wit = [0], [0]
    for b in C.blocks():
        js = [j for j in range(b.bit_length()) if b >> j & 1]
        if len(js) == 1:
            bm, bw = [0, 1 if cols[js[0]] else 0], [0, b]
        else:
            # the block as the search takes it: n, and an oracle on the
            # code's tokens of its columns
            bm, local = min_column_rank_by_size(types.SimpleNamespace(
                n=len(js), independence=lambda: (
                    [cols[j] for j in js], contract, q)))
            bw = [sum(1 << j for i, j in enumerate(js) if w >> i & 1)
                  for w in local]
        out = [len(minr) + len(bm)] * (len(minr) + len(bm) - 1)
        ow = [0] * len(out)
        for s, (r, w) in enumerate(zip(minr, wit)):
            for t, (x, v) in enumerate(zip(bm, bw), s):
                if r + x < out[t]:
                    out[t], ow[t] = r + x, w | v
        minr, wit = out, ow
    return minr, wit


# -- whole subset tables: entry J is lane J of one int (`lanes`) ------------

_INC = bytes(range(1, 256)) + b"\0"
lanes = functools.partial(int.from_bytes, byteorder="little")


def popcounts(n: int) -> bytes:
    """#J for every subset J of [n], by n doublings of the table."""
    table = b"\0"
    for _ in range(n):
        table += table.translate(_INC)
    return table


_TRI = bytes(s * (s + 1) // 2 for s in range(22)).ljust(256, b"\0")


def least_ranks_of_table(table: bytes):
    """(minima, witnesses) by subset size of a whole rank table, each
    witness the least mask attaining its minimum.  Byte J of one key string
    is s(s + 1)/2 + r(J), s = #J: a key per pair (s, r <= s), below 256 for
    n <= 21, so the lanes add with no carry.  The least rank at size s is
    the least r whose key occurs (a memchr), its witness the key's first."""
    n = len(table).bit_length() - 1
    if n > 21:
        raise SizeLimitExceeded(f"byte keys of (size, rank) hold up to 21 "
                                f"elements, not {n}", limit=21, needed=n)
    keys = (lanes(popcounts(n).translate(_TRI)) + lanes(table)).to_bytes(
        len(table), "little")
    minima = [next(r for r in range(s + 1) if _TRI[s] + r in keys)
              for s in range(n + 1)]
    return minima, [keys.index(_TRI[s] + r) for s, r in enumerate(minima)]


def _equal_to(v: int) -> bytes:
    """The translate table of "x == v": 1 at v, else 0."""
    return bytes(v) + b"\1" + bytes(255 - v)


def subsets_where(table: bytes, size: int, value: int) -> list[int]:
    """Every subset J with #J == size and table[J] == value, in increasing
    mask order: two translate compares, one AND, and the hits' positions."""
    n = len(table).bit_length() - 1
    hits = (lanes(table.translate(_equal_to(value)))
            & lanes(popcounts(n).translate(_equal_to(size))))
    return list(itertools.compress(range(len(table)),
                                   hits.to_bytes(len(table), "little")))


def lane_mask(n: int, e: int, lane: bytes) -> int:
    """`lane` (one lane's bytes) at every subset of [n] without e, else 0."""
    return lanes((lane * 2**e + bytes(len(lane) << e)) * 2**(n - e - 1))


_BINARY = b"0" + b"1" * 255     # a byte as the binary digit "is nonzero"
_BLOCK_BITS = 12                 # 2^12 subsets per block of lanes


def _projective_supports(M) -> list[int]:
    """The support of xM, as a bitmask, for every coefficient vector x whose
    first nonzero entry is 1.

    Over GF(2) the words are XORs of bit-packed rows.  Otherwise column j
    is one byte string: entry j of xM for every x on the rows i.., built
    from the string of rows i+1.. by one translate per multiple of M[i][j]
    (row 0 takes only 0 and 1).  The x led by a 1 are its slices
    [q^e, 2q^e), and their nonzero bytes, written as binary digits with
    column 0 last, are the supports."""
    f, k, n = M.field, M.rows, M.cols
    if f.q == 2:
        words = [0]
        for i in range(k):
            row = sum(x << j for j, x in enumerate(M.row(i)))
            words += [w ^ row for w in words]
        return words[1:]
    q, MUL, plus = f.q, f._mul, f._plus
    N, m = (q ** k - 1) // (q - 1), n + 1    # a leading "0" in each support
    digits = bytearray(b"0" * (N * m))
    for j in range(n):
        col = b"\0"
        for i in reversed(range(k)):
            mul = MUL[M.entry(i, j)]
            col = b"".join([col.translate(plus[mul[c]])
                            for c in range(q if i else 2)])
        led = b"".join([col[q ** e:2 * q ** e] for e in range(k)])
        digits[n - j::m] = led.translate(_BINARY)
    return [int(digits[x * m:x * m + m], 2) for x in range(N)]


def _word_rank_table(M) -> bytes:
    """`column_rank_table` of a Matrix from its words' supports, with no
    search (Greene, Stud. Appl. Math. 55, 1976).

    The coefficient vectors x with xM supported inside U number q^h(U),
    where h(U) = rows - rank + dim C_U, so r(J) = rank - dim C_{[n]-J} is
    rows - h([n]-J) whether or not the rows are independent.  The number
    at U is a subset sum of the number at each support: the zero vector
    once, and each x led by a 1 for its q - 1 multiples, which share its
    support.  It stays below 2^(8W-1) in W-byte lanes, so n passes add the
    lanes without e into those with e, and `rows` passes count the d with
    S(U) >= q^d on each lane's guard bit, 8W - 1, which no lane borrows
    past.  The table of h reversed is the table of h([n]-J).

    The lanes are held in blocks of 2^b consecutive subsets, which keeps
    every temporary to one block: the passes for e < b run in each block,
    and those for e >= b add whole blocks."""
    q, k, n = M.field.q, M.rows, M.cols
    W = ((q ** k).bit_length() + 8) // 8     # the least W, q^k < 2^(8W-1)
    b = min(n, _BLOCK_BITS)
    blocks = [bytearray(W << b) for _ in range(1 << (n - b))]
    low = (1 << b) - 1
    for s, c in collections.Counter(_projective_supports(M)).items():
        i = W * (s & low)
        blocks[s >> b][i:i + W] = ((q - 1) * c).to_bytes(W, "little")
    for j, block in enumerate(blocks):
        blocks[j] = lanes(block)
    blocks[0] += 1                           # and the zero vector
    ones = 1             # 1 in each lane whose index is 0 mod 2^(e + 1)
    for e in reversed(range(b)):
        width = 8 * W << e
        mask = (ones << width) - ones        # the lanes without e
        for j, S in enumerate(blocks):
            blocks[j] = S + ((S & mask) << width)
        ones |= ones << width
    for e in range(n - b):
        for j in range(len(blocks)):
            if j >> e & 1:
                blocks[j] += blocks[j ^ 1 << e]
    guard, h = ones << (8 * W - 1), []
    for j, S in enumerate(blocks):
        S, blocks[j] = S + guard, None      # each block is freed once read
        count = 0
        for d in range(1, k + 1):
            count += ((S - q ** d * ones) >> (8 * W - 1)) & ones
        h.append(count.to_bytes(W << b, "little")[::W])   # h(U) <= k
    h = b"".join(h)[::-1]
    return h.translate(bytes(range(k, -1, -1)).ljust(256, b"\0"))


@functools.cache
def subspaces(q: int, c: int, r: int) -> int:
    """The Gaussian binomial [c, r]_q, the r-dimensional subspaces of
    F_q^c, from [c, r - 1]_q."""
    if not 0 < r <= c:
        return int(r == 0)
    return subspaces(q, c, r - 1) * (q ** (c - r + 1) - 1) // (q ** r - 1)


def rref_at(field: FieldSpec, r: int, c: int, x: int) -> Matrix:
    """The r x c RREF of rank r at index x < [c, r]_q, a bijection, kept as
    its own RREF.  Column j is read from the last back by [j + 1, t]_q =
    [j, t - 1]_q + q^t [j, t]_q, t rows open: x below the first term makes
    j row t - 1's pivot, else the rest of x gives rows 0..t-1 its digits."""
    q, ent, piv, t = field.q, [0] * (r * c), [], r
    for j in reversed(range(c)):
        head = subspaces(q, j, t - 1)
        if x < head:
            t -= 1
            ent[t * c + j] = 1
            piv.insert(0, j)
        else:
            x, digits = divmod(x - head, q ** t)
            for i in range(t):
                digits, ent[i * c + j] = divmod(digits, q)
    M = Matrix(field, r, c, tuple(ent))
    M._rref = (M, tuple(piv))
    return M


def iter_rref_matrices(field: FieldSpec, r: int, c: int):
    """Yield every r x c matrix over `field` in reduced row echelon form
    with exactly r pivots (i.e. every r-dimensional subspace of F^c once),
    each keeping itself as its RREF.
    """
    q = field.q
    for pivots in itertools.combinations(range(c), r):
        pivset = set(pivots)
        free = [(i, j) for i in range(r) for j in range(pivots[i] + 1, c)
                if j not in pivset]
        for vals in itertools.product(range(q), repeat=len(free)):
            ent = [0] * (r * c)
            for i, p in enumerate(pivots):
                ent[i * c + p] = 1
            for (i, j), v in zip(free, vals):
                ent[i * c + j] = v
            M = Matrix(field, r, c, tuple(ent))
            M._rref = (M, pivots)
            yield M
