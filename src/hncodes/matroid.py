"""Matroids on [n] given by their full rank table, and their slope data.

The ground set is [n] with n <= 16; the rank of every subset is stored
(2^n bytes).  Degree of a subset J is k - r(J) with k = r(E), so the top
has degree 0 and the empty set degree k; the canonical polygon, filtration
and graded pieces on the subset lattice come from that degree, through the
subset engine that codes use (`hn.py`, its functions bound as methods); a
matroid reads its least ranks off its table (`algebra.least_ranks_of_table`).
The constructor trusts its table; `Matroid.from_ranks` checks the local
exchange axioms (equivalent to semimodularity) at all 2^n subsets at once:
n(n+1)/2 big-int passes over the table in 16-bit lanes, not n(n+1)/2 tests.

A code is a matroid to that engine, so the checks below take a code or a
matroid X; `hncodes matroid` reads a `from-code` file as its code, at the
default cap of 2^20 columns.  `Matroid.hierarchy` is (d_1, ..., d_k) and
`LinearCode.weight_hierarchy` is (d_0, ..., d_k).

Cohomology on this lattice: h0(M, J) = k - r(E - J) and
h1(M, J) = #(E - J) - r(E - J), tied to the dual matroid through the usual
rank complement formula.  The Riemann-Roch, Serre and dual polygon checks
are the codes' own (`rr.py`), reading `Matroid.rank_table`.
"""

from __future__ import annotations

from .algebra import _check_cap, lane_mask, lanes, popcounts
from .code import LinearCode
from .errors import InvariantViolation, SizeLimitExceeded
from .hn import (hierarchies_tile, profile_gaps, profile_hierarchy,
                 subset_filtration, subset_graded, subset_polygon,
                 subset_profile)
from .rr import dual_filtration_check, dual_subset_polygon_check, rr_check

MATROID_CAP = 16


def _check_ground_set(n: int):
    if n < 0:
        raise InvariantViolation(f"a ground set has n >= 0 elements, got {n}")
    if n > MATROID_CAP:
        raise SizeLimitExceeded(
            f"matroid ground sets are capped at {MATROID_CAP} elements",
            limit=MATROID_CAP, needed=n)


def _check_local_axioms(n: int, r: bytes):
    """Raise at the least subset J failing a local axiom, with the message
    of a scan of J alone.  Lane J of d_b = 256 + r(J+b) - r(J) is 256 or 257
    when the rank grows by 0 or 1; semimodularity at J, a, b is d_b(J+a) <=
    d_b(J), bit 15 of 2^15 + d_b(J+a) - d_b(J) - 1 clear.  No lane carries."""
    wide = bytearray(2 << n)
    wide[::2] = r
    table = lanes(wide)
    one, top = lanes(b"\0\1" * (1 << n)), lanes(b"\0\x80" * (1 << n))
    without, bad = [], 0
    for b in range(n):
        d = (table >> (16 << b)) + one - table
        bad |= (d ^ one) & lane_mask(n, b, b"\xfe\1")
        d1, pairs = d + (one >> 8), 0
        for a in range(b):
            pairs |= ((d >> (16 << a) | top) - d1) & without[a]
        without.append(lane_mask(n, b, b"\0\x80"))
        bad |= pairs & without[b]
    if not bad:
        return
    J = (bad & -bad).bit_length() - 1 >> 4        # the least failing subset
    free = [e for e in range(n) if not J >> e & 1]
    for e in free:
        if r[J | 1 << e] - r[J] not in (0, 1):
            raise InvariantViolation(
                f"rank must grow by 0 or 1 (subset {J}, element {e})")
    for i, a in enumerate(free):
        for b in free[i + 1:]:
            if r[J | 1 << a] + r[J | 1 << b] < r[J | 1 << a | 1 << b] + r[J]:
                raise InvariantViolation(
                    f"local semimodularity fails at subset {J}, "
                    f"elements {a}, {b}")


def _hierarchy(X) -> tuple[int, ...]:
    """(d_1, ..., d_k) of a code or matroid X, off its subset profile."""
    return profile_hierarchy(X.k, subset_profile(X))[1:]


class Matroid:
    """A matroid given by the rank of every subset of its ground set."""

    # `ranks` is the table that `least_ranks` reads.  Memos: the least ranks
    # by size (`least_ranks`), the filtration (`subset_filtration`), the dual.
    __slots__ = ("n", "k", "ranks", "_minr", "_sfilt", "_dual")

    def __init__(self, n: int, ranks: bytes):
        """Trusts `ranks` to be a rank table of 2^n bytes."""
        self.n = n
        self.ranks = ranks
        self.k = ranks[(1 << n) - 1]
        self._minr = self._sfilt = self._dual = None

    @classmethod
    def from_ranks(cls, n: int, ranks) -> "Matroid":
        """Matroid from an outside rank table, checked cheapest first: the
        ground-set cap, the entries (integers in 0..255), the table length,
        r(empty) = 0, then at every subset J the local axioms
        r(J+a) - r(J) in {0, 1} and r(J+a) + r(J+b) >= r(J+a+b) + r(J)."""
        _check_ground_set(n)
        try:
            r = bytes(ranks)
        except (TypeError, ValueError):
            raise InvariantViolation(
                "rank table entries must be integers in 0..255") from None
        if len(r) != 1 << n:
            raise InvariantViolation(
                f"rank table must have 2^{n} entries, got {len(r)}")
        if r[0] != 0:
            raise InvariantViolation("rank of the empty set must be 0")
        _check_local_axioms(n, r)
        return cls(n, r)

    def rank_table(self) -> bytes:
        """The rank of every subset, indexed by bitmask; a read of all 2^n
        entries counts against the cap, as a code's table does."""
        _check_cap(self.n)
        return self.ranks

    def rank_of(self, J: int) -> int:
        return self.ranks[J]

    def dual(self) -> "Matroid":
        """The dual r*(J) = #J + r(E - J) - k; built once, its dual is self."""
        if self._dual is None:
            size = 1 << self.n
            table = (lanes(popcounts(self.n)) + lanes(self.ranks[::-1])
                     - self.k * lanes(b"\1" * size))
            self._dual = Matroid(self.n, table.to_bytes(size, "little"))
            self._dual._dual = self
        return self._dual

    def _minor(self, elems, S: int) -> "Matroid":
        """Contract S, then restrict to `elems` (disjoint from S)."""
        # masks[X] = S | {elems[i] : bit i of X}; the subsets holding
        # elems[i] are those without it, shifted up by 2^i
        masks = [S]
        for e in elems:
            bit = 1 << e
            masks += [x | bit for x in masks]
        ranks, base = self.ranks, self.ranks[S]
        return Matroid(len(elems), bytes([ranks[x] - base for x in masks]))

    # -- profiles: (k_0, ..., k_n) with k_j = max {h0(M, J) : #J = j} -------

    profile = subset_profile
    polygon = subset_polygon
    filtration = subset_filtration
    graded = subset_graded
    hierarchy = _hierarchy

    def gaps(self) -> tuple[int, ...]:
        """Sizes j >= 1 where the profile stalls (k_j = k_{j-1})."""
        return profile_gaps(self.profile())[0]

    def nongaps(self) -> tuple[int, ...]:
        return profile_gaps(self.profile())[1]

    def is_semistable(self) -> bool:
        """At most one side; a loop's flat first side counts against it, so
        the binary code <1110> is semistable but its column matroid is not."""
        return self.polygon().N <= 1

    def __eq__(self, other):
        return (isinstance(other, Matroid) and self.n == other.n
                and self.ranks == other.ranks)

    def __hash__(self):
        return hash((self.n, self.ranks))

    def __repr__(self):
        return f"Matroid(n={self.n}, k={self.k})"


def matroid_from_code(C: LinearCode) -> Matroid:
    """Column matroid of the generator matrix (memoized on the code).

    Column ranks satisfy the rank axioms by construction, so the table is
    not revalidated; the ground-set cap goes first, so a refusal names it."""
    _check_ground_set(C.n)
    return Matroid(C.n, C.rank_table())


def uniform_matroid(k: int, n: int) -> Matroid:
    if not 0 <= k <= n:
        raise InvariantViolation(f"need 0 <= k <= n, got k={k}, n={n}")
    _check_ground_set(n)
    return Matroid(n, popcounts(n).translate(bytes(min(i, k)
                                                    for i in range(256))))


def matroid_from_bases(n: int, bases) -> Matroid:
    """Matroid from a list of basis bitmasks: r(J) = max #(B & J), as 2n
    whole-table passes that mark the subsets of bases, then take #J or the
    max over J - e.  The ground-set cap is checked before the 2^n table is
    built, and the table then goes through `Matroid.from_ranks`."""
    _check_ground_set(n)
    bases = [int(b) for b in bases]
    if not bases:
        raise InvariantViolation("at least one basis is required")
    for b in bases:
        if b < 0 or b >> n:
            raise InvariantViolation(f"basis {b} is not a subset of [{n}]")
    indep = bytearray(1 << n)
    for b in bases:
        indep[b] = 1
    ind, high = lanes(indep), lanes(b"\x80" * len(indep))
    for e in range(n):                   # J is independent when J + e is
        ind |= (ind >> (8 << e)) & lane_mask(n, e, b"\1")
    table = lanes(popcounts(n)) & ind * 0xFF
    for e in range(n):                   # r(J) = max(r(J), r(J - e))
        low = (table & lane_mask(n, e, b"\xff")) << (8 << e)
        keep = ((((table | high) - low) & high) >> 7) * 0xFF
        table = table & keep | low & ~keep
    return Matroid.from_ranks(n, table.to_bytes(len(indep), "little"))


def rr_matroid_check(M: Matroid) -> bool:
    """Riemann-Roch, and with it Serre, on M's table (`rr.rr_check`).
    `Matroid.dual` is built from that identity, so this holds for any
    table: it guards the dual's lane arithmetic, not a theorem.  On a
    `from-code` file `hncodes matroid` runs `rr_check` on the code, whose
    dual comes from a nullspace."""
    return rr_check(M)


def gap_counts_check(X) -> bool:
    """Exactly n - k gaps and k non-gaps, and the non-gaps are the
    hierarchy, for a code or a matroid X."""
    g, ng = profile_gaps(subset_profile(X))
    return len(g) == X.n - X.k and len(ng) == X.k and ng == _hierarchy(X)


def gap_duality_check(X) -> bool:
    """j is a non-gap of X exactly when n + 1 - j is a gap of X*."""
    dual_gaps = profile_gaps(subset_profile(X.dual()))[0]
    return (set(profile_gaps(subset_profile(X))[1])
            == {X.n + 1 - j for j in dual_gaps})


def wei_partition_check(X) -> bool:
    """The hierarchy of X and the reflected hierarchy of X* tile [n]."""
    return hierarchies_tile(X.n, X.k, _hierarchy(X), _hierarchy(X.dual()))


def dual_polygon_check(X) -> bool:
    """P_{X*}(x) = P_X(n - x) + n - x - k, vertexwise (so the slopes are
    -1 - mu reversed), and the dual filtration is the complement chain
    reversed, for a code or a matroid X."""
    return dual_subset_polygon_check(X) and dual_filtration_check(X)
