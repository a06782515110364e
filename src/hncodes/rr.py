"""Cohomology of coordinate subsets and the classical duality checks.

For an [n, k] code C and a coordinate set J:
    H0(C, J) = C cap F^J            (codewords supported inside J),
    H1(C, J) = F^{[n]-J} / proj(C)  (cokernel of projection off J),
so h0 - h1 = #J + k - n (Euler), h1(C, J) = h0(C-dual, [n]-J) at the level
of dimensions (Serre), and subtracting the two gives the Riemann-Roch
identity h0(C, J) - h0(C-dual, [n]-J) = #J + k - n.

At the level of dimensions Riemann-Roch and Serre are one identity of
rank tables: h0(C, J) = k - r([n]-J) and h1(C, J) = #([n]-J) - r([n]-J)
obey Euler by construction, so both say r*(J) + n - k* = #J + r([n]-J)
for the tables r of C and r* of its dual ([n]-J is the table reversed),
checked on whole tables up to the enumeration cap in force
(`algebra.enumeration_cap`).  A matroid has the same h0 and h1, so both
checks take a code or a matroid.  Clifford's bound needs only the least
rank of each size, so it reads `algebra.least_ranks`, not the table.

The same module hosts Wei's duality partition (checked on the code itself
from the memoized weight hierarchies of C and its dual), the profile
duality with witness transfer, and the polygon-level duality laws: on the
subset side (polygon and complement-chain filtration, for a code or a
matroid) and on the code side with the slope map mu -> -1 + 1/(mu + 1).
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import lanes, least_ranks, popcounts
from .code import LinearCode, Subcode, bits_of
from .errors import InvariantViolation, NotFullSupport
from .hn import (CanonicalPolygon, code_polygon, hierarchies_tile,
                 subset_filtration, subset_polygon)


class CohomologyPair:
    """Dimensions and distinguished bases of H0 and H1 for (C, J).

    h0_basis spans C cap F^J inside F^n.  h1_coords are the coordinates of
    [n] - J whose unit vectors represent a complement of the projected
    code: the columns outside J that lie in the span of the outside
    columns before them.
    """

    __slots__ = ("code", "J", "h0", "h1", "h0_basis", "h1_coords")

    def __init__(self, code, J, h0, h1, h0_basis, h1_coords):
        self.code = code
        self.J = J
        self.h0 = h0
        self.h1 = h1
        self.h0_basis = h0_basis
        self.h1_coords = h1_coords

    def euler(self) -> int:
        return self.h0 - self.h1


def cohomology(C: LinearCode, J: int) -> CohomologyPair:
    """H0 and H1 of (C, J) from one walk up the columns outside J, each
    stepped by `Matrix.column_span` into the span of those before it,
    from the empty span: h1_coords are the columns whose step returns the
    span itself, adding no rank, and H0 = C_J is the nullspace of the
    span the walk ends at.  Nothing is kept on the code."""
    span, h1_coords = C.gen.column_span(()), []
    for j in bits_of(((1 << C.n) - 1) ^ J):
        grown = C.gen.column_span((j,), span)
        if grown is span:
            h1_coords.append(j)
        span = grown
    sub = Subcode(C, span.right_nullspace())
    pair = CohomologyPair(C, J, sub.dim, len(h1_coords), sub.basis,
                          tuple(h1_coords))
    if pair.euler() != J.bit_count() + C.k - C.n:
        raise InvariantViolation("Euler characteristic miscomputed")
    return pair


def rr_check(X) -> bool:
    """h0(X, J) - h0(X-dual, [n]-J) == #J + k - n for every subset J, for
    a code or a matroid X, read off the rank tables of X and then of its
    dual, with h0(X, J) = k - r([n]-J).  The dual of a full-space code
    (k = n), which no LinearCode represents, is the zero code: its table
    is all zeros and k* = 0."""
    # r*(J) + n - k* == #J + r([n]-J) in lanes of at most 3n
    tab = X.rank_table()
    if isinstance(X, LinearCode) and X.k == X.n:
        dtab, dk = bytes(len(tab)), 0
    else:
        D = X.dual()
        dtab, dk = D.rank_table(), D.k
    one = lanes(b"\1" * len(tab))
    return (lanes(dtab) + X.n * one
            == lanes(popcounts(X.n)) + lanes(tab[::-1]) + dk * one)


def serre_check(X) -> bool:
    """h1(X, J) == h0(X-dual, [n]-J) for every subset J, for a code or a
    matroid X, with h1(X, J) = #([n]-J) - r([n]-J); the same table
    identity as `rr_check`, which it runs."""
    return rr_check(X)


def rr_normalized(C: LinearCode, J: int) -> tuple[int, int]:
    """(deg, g) with h0 - h1 = deg - g + 1, where deg = #J - d_1 and
    g = n - k + 1 - d_1 >= 0, the defect of C from the Singleton bound."""
    d1 = C.weight_hierarchy()[1]
    g = C.n - C.k - d1 + 1
    return (J.bit_count() - d1, g)


def les_check(C: LinearCode, J: int, Jp: int) -> bool:
    """Dimension bookkeeping of the restriction sequence for disjoint
    J, J': monotone h0, antitone h1, alternating sum zero, and the
    connecting rank equals h0(J u J') - h0(J)."""
    if J & Jp:
        raise InvariantViolation("the two coordinate sets must be disjoint")
    union = J | Jp
    a = cohomology(C, J)
    b = cohomology(C, union)
    if not (a.h0 <= b.h0 and a.h1 >= b.h1):
        return False
    if a.h0 - b.h0 + Jp.bit_count() - a.h1 + b.h1 != 0:
        return False
    if b.h0:
        if b.h0_basis.column_span(bits_of(Jp)).rows != b.h0 - a.h0:
            return False
    elif b.h0 - a.h0 != 0:
        return False
    return True


def clifford_check(C: LinearCode) -> bool:
    """For a self-dual code, h0(C, J) <= #J / 2 for every subset J."""
    if C.dual() != C:
        raise InvariantViolation("Clifford bound applies to self-dual codes")
    # 2 h0(C, J) <= #J is 2k <= #J + 2 r([n]-J), least at the least ranks
    minr, n = least_ranks(C)[0], C.n
    return min(s + 2 * minr[n - s] for s in range(n + 1)) >= 2 * C.k


# -- support diagnostics and Wei duality ------------------------------------

def weight_one_span(C: LinearCode) -> Subcode:
    """The subcode generated by all weight-1 codewords: e_i lies in C
    exactly when coordinate i is zero in C-dual, so it is C shortened to
    the dual's zero coordinates (the whole code when k = n)."""
    if C.k == C.n:
        return C.whole_subcode()
    return C.shorten(((1 << C.n) - 1) ^ C.dual().support_mask)


def full_support_status(C: LinearCode) -> tuple[bool, bool]:
    """(primal full support, dual full support); the dual side fails
    exactly when C contains a weight-1 codeword."""
    primal = C.is_full_support
    dual_full = C.k < C.n and C.dual().is_full_support
    return primal, dual_full


def wei_duality_check(C: LinearCode) -> bool:
    """Wei's partition: {d_i(C)} and {n + 1 - d_i(C-dual)} tile [n].

    Wei (IEEE Trans. Inform. Theory 37, 1991, Thm. 3) proves this for
    every linear code, zero coordinates and weight-one words included, so
    it is checked on C itself from the memoized hierarchies of C and its
    dual.  The full space has no dual code, so its hierarchy alone must
    tile [n].
    """
    d = C.weight_hierarchy()[1:]
    dual_d = C.dual().weight_hierarchy()[1:] if C.k < C.n else ()
    return hierarchies_tile(C.n, C.k, d, dual_d)


def dual_dlp_check(C: LinearCode) -> bool:
    """k_{n-j}(C-dual) = k_j(C) + n - j - k for all j, with witness
    transfer: a maximizing J for C complements to one for the dual."""
    D, kj, wits = C.dual(), C.dlp(), C.dlp_witnesses()
    kjd = D.dlp()
    span, prev = None, 0
    for j in range(C.n + 1):
        if kjd[C.n - j] != kj[j] + C.n - j - C.k:
            return False
        # C's maximizer complements to one for the dual: the dual shortened
        # there has dimension D.k minus the rank of its columns on wits[j],
        # stepped on from the last witness's span when that one nests in it
        if prev & ~wits[j]:
            span, prev = None, 0
        span = D.gen.column_span(bits_of(wits[j] & ~prev), span)
        prev = wits[j]
        if D.k - span.rows != kjd[C.n - j]:
            return False
    return True


def dual_polygon(X) -> CanonicalPolygon:
    """Subset polygon of the dual code or matroid."""
    return subset_polygon(X.dual())


def dual_subset_polygon_check(X) -> bool:
    """P_subset(X-dual)(x) = P_subset(X)(n - x) + n - x - k, exactly, for a
    code or a matroid X."""
    expect = subset_polygon(X).opposite().affine(X.n - X.k, -1, 1)
    return dual_polygon(X) == expect


def dual_filtration_check(X) -> bool:
    """The dual's subset filtration is the complement chain of X's,
    reversed, for a code or a matroid X."""
    full = (1 << X.n) - 1
    steps = subset_filtration(X).steps
    return (subset_filtration(X.dual()).steps
            == tuple(full ^ S for S in reversed(steps)))


def dual_code_slopes(C: LinearCode) -> tuple[Fraction, ...]:
    """Slopes of the dual code's polygon; requires both codes full
    support, in which case they are -1 + 1/(mu + 1) for the primal slopes
    mu in reverse order, and the dual filtration is obtained by shortening
    the dual to the complements of the primal supports (the subset
    filtrations are complement chains, `dual_filtration_check`).
    Violations of either law raise; degenerate support raises
    NotFullSupport carrying the reduction data.
    """
    primal, dual_full = full_support_status(C)
    if not primal:
        full = (1 << C.n) - 1
        raise NotFullSupport(
            "the code itself is not full support", side="primal",
            zero_columns=full ^ C.support_mask)
    if not dual_full:
        raise NotFullSupport(
            "the dual code is not full support (the code has weight-1 "
            "words, i.e. mu_max = -1)", side="dual",
            weight_one_span=weight_one_span(C))
    got = code_polygon(C.dual()).slopes
    mus = code_polygon(C).slopes
    expect = tuple(-1 + 1 / (mu + 1) for mu in reversed(mus))
    if got != expect:
        raise InvariantViolation(
            f"dual slope law fails: expected {expect}, got {got}")
    if not dual_filtration_check(C):
        raise InvariantViolation("dual filtration is not the complement "
                                 "chain of the primal one")
    return got
