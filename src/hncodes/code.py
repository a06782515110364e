"""Linear codes over small finite fields, their subcodes and weight data.

A LinearCode is stored as its reduced-row-echelon generator matrix, which
makes equality of codes and of subcodes syntactic.  Coordinate subsets are
bitmask ints (bit i = coordinate i, 0-indexed).  The degree of a subcode
C' of an [n, k] code is n - w(C') where w is the support size; the zero
subcode deliberately has degree n.

Weight hierarchies are computed through the dimension/length profile
k_j = max {dim C_J : #J = j} rather than by enumerating subcodes, so the
cost never depends on q^k.  The least column ranks behind the profile come
from one search per code, or past 8 columns one per block of its column
matroid (`least_ranks`).  Each walks the column subsets in the
lexicographic order of their sorted indices, cuts the later siblings of a
dependent column and prunes what cannot improve a minimum; it still visits
subsets that are not a prefix of their closure, and the cap counts the
columns of the largest block.  The full rank table, read only where every
subset is asked for (the Riemann-Roch/Serre identities, the chain
condition, `subset_dim` and `matroid_from_code`), comes from
`column_rank_table`: from the codewords' supports when q^k <= 2^n,
otherwise from the column-rank DFS.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (
    FieldSpec,
    Matrix,
    _check_cap,
    column_blocks,
    column_rank_table,
    least_ranks,
)
from .errors import (
    FieldMismatch,
    InvariantViolation,
    NotASubcode,
    ZeroSubcode,
)


def mask_of(coords) -> int:
    """Bitmask for an iterable of 0-indexed coordinates."""
    m = 0
    for c in coords:
        m |= 1 << c
    return m


def bits_of(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


class LinearCode:
    """An [n, k] linear code, 1 <= k <= n, held in RREF generator form."""

    # Memos of the code's own analysis: the min-rank search as (minima,
    # witnesses) kept by `algebra.least_ranks`, the blocks of the column
    # matroid, the rank table, the weight hierarchy, the dual, the subset
    # and the canonical filtration and the exhaustive subcode lattice (all
    # three filled by hn.py; the lattice keeps the column spans its Galois
    # walk reads), the chain condition (tensor.py), and the last tensor
    # product as (other, product, star), star its Schaathun table, filled
    # by the first witness that reads it.
    __slots__ = ("field", "n", "k", "gen", "_minr", "_blocks", "_rtab",
                 "_hier", "_dual", "_sfilt", "_filt", "_lattice",
                 "_chained", "_tensor")

    def __init__(self, gen: Matrix):
        R, piv = gen.rref()
        if len(piv) != gen.rows:
            raise InvariantViolation(
                f"generator rows are dependent (rank {len(piv)} of "
                f"{gen.rows}); use LinearCode.span to reduce")
        if not 1 <= gen.rows <= gen.cols:
            raise InvariantViolation(
                f"need 1 <= k <= n, got k={gen.rows}, n={gen.cols}")
        self.field = gen.field
        self.n = gen.cols
        self.k = gen.rows
        self.gen = R
        self._minr = None
        self._blocks = None
        self._rtab = None
        self._hier = None
        self._dual = None
        self._sfilt = None
        self._filt = None
        self._lattice = None
        self._chained = None
        self._tensor = None

    @classmethod
    def from_rows(cls, field: FieldSpec, rows) -> "LinearCode":
        return cls(Matrix.from_rows(field, rows))

    @classmethod
    def span(cls, gen: Matrix) -> "LinearCode":
        """Like the constructor but silently dropping dependent rows."""
        return cls(gen.rref()[0])

    # -- basic data ---------------------------------------------------------

    @property
    def support_mask(self) -> int:
        return self.gen.support()

    @property
    def weight(self) -> int:
        return self.support_mask.bit_count()

    @property
    def degree(self) -> int:
        return self.n - self.weight

    @property
    def effective_rate(self) -> Fraction:
        return Fraction(self.k, self.weight)

    @property
    def is_full_support(self) -> bool:
        return self.weight == self.n

    def codewords(self):
        """All q^k codewords (small k only)."""
        return self.gen.row_space_words()

    # -- subcodes and coordinate operations ---------------------------------

    def whole_subcode(self) -> "Subcode":
        return Subcode(self, Matrix.identity(self.field, self.k))

    def zero_subcode(self) -> "Subcode":
        return Subcode(self, Matrix(self.field, 0, self.k, ()))

    def shorten(self, J: int) -> "Subcode":
        """C_J: the largest subcode supported inside the coordinate set J,
        the nullspace of the span of the columns outside J
        (`Matrix.column_span`), stepped in once and kept nowhere."""
        outside = bits_of(((1 << self.n) - 1) ^ J)
        return Subcode(self, self.gen.column_span(outside).right_nullspace())

    def puncture(self, J: int) -> "LinearCode":
        """Image of C under projection onto the coordinates in J."""
        cols = bits_of(J)
        if not cols:
            raise InvariantViolation("cannot puncture onto the empty set")
        return LinearCode.span(self.gen.col_submatrix(cols))

    def _minor(self, elems, S: int) -> "LinearCode":
        """M/S | elems: the code-filtration step vanishing on the subset step
        S (step i for the i-th from the top, else the whole code), punctured
        onto `elems`."""
        from .hn import canonical_filtration, subset_filtration
        i = subset_filtration(self).steps[::-1].index(S)
        steps = canonical_filtration(self).steps
        sub = steps[min(i, len(steps) - 1)]
        return LinearCode.span(sub.basis.col_submatrix(elems))

    def dual(self) -> "LinearCode":
        """The [n, n-k] dual code (defined for k < n)."""
        if self.k == self.n:
            raise InvariantViolation(
                "the dual of the full space has dimension 0, which is not "
                "representable as a LinearCode")
        if self._dual is None:
            self._dual = LinearCode(self.gen.right_nullspace())
        return self._dual

    # -- weight data ---------------------------------------------------------

    def independence(self):
        """The generator's column oracle: the searches take the code."""
        return self.gen.independence()

    def blocks(self) -> list[int]:
        """The column matroid's blocks (`algebra.column_blocks`), kept."""
        if self._blocks is None:
            self._blocks = column_blocks(self.gen)
        return self._blocks

    # Each call charges the cap: rank_table here, the rest in `least_ranks`.

    def rank_table(self) -> bytes:
        """rank of the generator's column subsets, indexed by bitmask."""
        _check_cap(self.n)
        if self._rtab is None:
            self._rtab = column_rank_table(self.gen)
        return self._rtab

    def subset_dim(self, J: int) -> int:
        """dim C_J via the rank table (k minus the complement's rank)."""
        tab = self.rank_table()
        full = (1 << self.n) - 1
        return self.k - tab[full ^ J]

    def dlp(self) -> tuple[int, ...]:
        """Dimension/length profile (k_0, ..., k_n), k_j = max dim C_J."""
        from .hn import subset_profile  # hn builds on this module
        return subset_profile(self)

    def dlp_witnesses(self) -> tuple[int, ...]:
        """One maximizing coordinate set per profile entry."""
        _, wit = least_ranks(self)
        full = (1 << self.n) - 1
        return tuple(full ^ wit[self.n - j] for j in range(self.n + 1))

    def weight_hierarchy(self) -> tuple[int, ...]:
        """(d_0, ..., d_k): d_i the least support size of an i-dim subcode."""
        from .hn import profile_hierarchy
        least_ranks(self)                # the owner of the cap's unit
        if self._hier is None:
            self._hier = profile_hierarchy(self.k, self.dlp())
        return self._hier

    # -- products ------------------------------------------------------------

    def tensor(self, other: "LinearCode") -> "LinearCode":
        """Tensor product code: all n_A x n_B arrays with columns in self
        and rows in other, flattened row-major.  The last product is kept,
        so repeated calls with an equal factor share one code and its
        memos."""
        if self.field != other.field:
            raise FieldMismatch("tensor factors live over different fields")
        if self._tensor is None or self._tensor[0] != other:
            T = LinearCode(self.gen.kron(other.gen))
            self._tensor = (other, T, None)
        return self._tensor[1]

    def schur_product(self, other: "LinearCode") -> "LinearCode":
        """Componentwise (Schur) product code."""
        if self.field != other.field:
            raise FieldMismatch("factors live over different fields")
        if self.n != other.n:
            raise InvariantViolation("lengths differ")
        MUL = self.field._mul
        ent = []
        for i in range(self.k):
            a = self.gen.row(i)
            for j in range(other.k):
                b = other.gen.row(j)
                ent += [MUL[x][y] for x, y in zip(a, b)]
        return LinearCode.span(
            Matrix(self.field, self.k * other.k, self.n, tuple(ent)))

    def __eq__(self, other):
        return isinstance(other, LinearCode) and self.gen == other.gen

    def __hash__(self):
        return hash(self.gen)

    def __repr__(self):
        return (f"LinearCode([{self.n},{self.k}] over GF({self.field.q}))")


class Subcode:
    """A subspace of a LinearCode, keyed by its coefficients in F^k.

    `key` is the RREF r x k matrix whose rows are the coefficients of a
    basis in the parent's RREF generator G, one key per subcode, and
    `basis` is key G, which is RREF because both factors are; this
    constructor is the one place a key is multiplied out.  Dimension 0 is
    allowed (the zero subcode), unlike LinearCode itself.  The constructor
    trusts `key`; `from_rows` checks outside rows.
    """

    __slots__ = ("parent", "key", "basis", "dim")

    def __init__(self, parent: LinearCode, key: Matrix):
        self.parent = parent
        self.key = key
        self.basis = key.matmul(parent.gen)
        self.dim = key.rows

    @classmethod
    def from_rows(cls, parent: LinearCode, rows) -> "Subcode":
        """Subcode spanned by outside rows (dependent rows are dropped);
        refuses rows of the wrong length or outside the parent code.  G is
        the identity at its pivots, so the RREF rows read there are the
        key."""
        M = Matrix.from_rows(parent.field, rows)
        if M.rows and M.cols != parent.n:
            raise InvariantViolation("subcode length differs from parent")
        M = M.rref()[0]
        if M.rows and parent.gen.extend(M).rows != parent.k:
            raise NotASubcode("rows do not lie in the parent code's row space")
        return cls(parent, M.col_submatrix(parent.gen.rref()[1]))

    @property
    def support_mask(self) -> int:
        return self.basis.support()

    @property
    def weight(self) -> int:
        return self.support_mask.bit_count()

    @property
    def degree(self) -> int:
        return self.parent.n - self.weight

    @property
    def effective_rate(self) -> Fraction:
        if self.dim == 0:
            raise ZeroSubcode("the zero subcode has no effective rate")
        return Fraction(self.dim, self.weight)

    @property
    def slope(self) -> Fraction:
        return -1 / self.effective_rate

    def closure(self) -> "Subcode":
        """The largest subcode with the same support, C_{Supp(self)}."""
        return self.parent.shorten(self.support_mask)

    def contains(self, other: "Subcode") -> bool:
        if other.parent != self.parent:
            raise NotASubcode("subcodes of two different codes")
        if other.dim == 0:
            return True
        if self.dim < other.dim:
            return False
        return self.key.extend(other.key).rows == self.dim

    def meet(self, other: "Subcode") -> "Subcode":
        """U & W = (U^perp + W^perp)^perp, complements taken in F^k."""
        if other.parent != self.parent:
            raise NotASubcode("meet of subcodes of two different codes")
        N = self.key.right_nullspace().extend(other.key.right_nullspace())
        return Subcode(self.parent, N.right_nullspace())

    def join(self, other: "Subcode") -> "Subcode":
        if other.parent != self.parent:
            raise NotASubcode("join of subcodes of two different codes")
        return Subcode(self.parent, self.key.extend(other.key))

    def __eq__(self, other):
        return (isinstance(other, Subcode)
                and self.parent == other.parent
                and self.key == other.key)

    def __hash__(self):
        return hash((self.parent, self.key))

    def __repr__(self):
        return (f"Subcode(dim {self.dim} of [{self.parent.n},"
                f"{self.parent.k}], support {sorted(bits_of(self.support_mask))})")
