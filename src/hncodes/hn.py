"""Canonical concave polygons, slope filtrations and semistability.

The canonical polygon of a ranked, degree-weighted lattice is the least
concave majorant of the point cloud {(rank(x), degree(x))}.  Its vertices
have integer ranks 0 = i_0 < ... < i_N = R and its side slopes strictly
decrease.  For each vertex rank there is a unique lattice element attaining
the polygon, and these elements form a chain: the canonical filtration.
This module computes the polygon and filtration for linear codes (over the
lattice of subcodes, degree n - w), the vertex gap condition, and the
generic lattice checks (modularity parallelogram, Galois-connection laws)
used by the verification suites.

A code is semistable exactly when its polygon has one side: no subcode
beats the code's rate, d_i k >= i w(C) for 0 < i < k.  By the Galois
connection the code polygon is the subset polygon with its axes swapped,
and the filtration's element at a vertex is the unique subset of least
rank for its size, so the polygon, the filtration and this verdict all
read the one memoized least-rank search (`algebra.least_ranks`) and no
code builds its 2^n rank table for them.  Stability, the strict form,
reads the weight hierarchy.  Every verdict is refused past the
enumeration cap in force (`algebra.enumeration_cap`).

The canonical filtration and the exhaustive subcode lattice belong to the
code: both are built once per LinearCode and kept on it.  The gap
condition reads the filtration and least ranks, not the lattice or the
rank table: by the Galois connection its rivals are coordinate subsets,
so it is capped by the columns like every other column question.
The lattice serves the lattice laws alone (`verify_parallelogram`,
`verify_galois`); it enumerates every subcode, so its cap counts
subcodes: the number of subspaces of F_q^k, computed before any element
is built.

All slopes are exact `fractions.Fraction`s, and polygon values are exact
ints or Fractions.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Matrix, _check_cap, iter_rref_matrices, least_ranks
from .code import LinearCode, Subcode, _support_of_matrix, bits_of
from .errors import (EmptyProfile, InvariantViolation, NotASubcode,
                     NotFullSupport)


def _upper_hull(points):
    """Upper concave hull of points with strictly increasing integer x."""
    hull = []
    for p in points:
        while len(hull) >= 2:
            x1, y1 = hull[-2]
            x2, y2 = hull[-1]
            x3, y3 = p
            if (y2 - y1) * (x3 - x2) <= (y3 - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


class CanonicalPolygon:
    """Concave piecewise-linear function given by its vertex list.

    vertices: ((i_0, v_0), ..., (i_N, v_N)) with strictly increasing ranks
    and strictly decreasing side slopes; values are exact: ints stay ints,
    anything else becomes a Fraction.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        vs = tuple((int(x), y if type(y) is int else Fraction(y))
                   for x, y in vertices)
        if not vs:
            raise EmptyProfile("a polygon needs at least one vertex")
        for (x1, _), (x2, _) in zip(vs, vs[1:]):
            if x2 <= x1:
                raise InvariantViolation("vertex ranks must increase")
        # the cross-product test of `_upper_hull`: slope 1 > slope 2
        for (x1, y1), (x2, y2), (x3, y3) in zip(vs, vs[1:], vs[2:]):
            if (y2 - y1) * (x3 - x2) <= (y3 - y2) * (x2 - x1):
                raise InvariantViolation("side slopes must strictly decrease")
        self.vertices = vs

    @property
    def N(self) -> int:
        return len(self.vertices) - 1

    @property
    def total_rank(self) -> int:
        return self.vertices[-1][0]

    @property
    def vertex_ranks(self) -> tuple[int, ...]:
        return tuple(x for x, _ in self.vertices)

    @property
    def slopes(self) -> tuple[Fraction, ...]:
        vs = self.vertices
        return tuple(Fraction(y2 - y1, x2 - x1)
                     for (x1, y1), (x2, y2) in zip(vs, vs[1:]))

    @property
    def mu_max(self):
        s = self.slopes
        return s[0] if s else None

    @property
    def mu_min(self):
        s = self.slopes
        return s[-1] if s else None

    def value_at(self, x) -> Fraction:
        x = Fraction(x)
        vs = self.vertices
        if not vs[0][0] <= x <= vs[-1][0]:
            raise InvariantViolation(f"{x} outside polygon domain")
        for (x1, y1), (x2, y2) in zip(vs, vs[1:]):
            if x <= x2:
                return y1 + Fraction(y2 - y1, x2 - x1) * (x - x1)
        return vs[-1][1]

    def affine(self, a, b, c) -> "CanonicalPolygon":
        """(x, y) -> (x, a + b x + c y), requires c > 0 (slopes b + c mu)."""
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        if c <= 0:
            raise InvariantViolation("affine change needs c > 0")
        return CanonicalPolygon(
            [(x, a + b * x + c * y) for x, y in self.vertices])

    def opposite(self) -> "CanonicalPolygon":
        """(x, y) -> (R - x, y) reversed; slopes negate and reverse."""
        R = self.total_rank
        return CanonicalPolygon(
            [(R - x, y) for x, y in reversed(self.vertices)])

    def reflected(self) -> "CanonicalPolygon":
        """Swap the axes (valid when values strictly decrease)."""
        for (_, y1), (_, y2) in zip(self.vertices, self.vertices[1:]):
            if y2 >= y1:
                raise InvariantViolation(
                    "reflection needs strictly decreasing values")
        return CanonicalPolygon(
            [(y, x) for x, y in reversed(self.vertices)])

    def __eq__(self, other):
        return (isinstance(other, CanonicalPolygon)
                and self.vertices == other.vertices)

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        pts = ", ".join(f"({x},{y})" for x, y in self.vertices)
        return f"CanonicalPolygon({pts})"


def polygon_from_profile(maxdeg) -> CanonicalPolygon:
    """Polygon from the profile maxdeg[i] = max degree among rank-i elements."""
    pts = list(enumerate(maxdeg))
    if not pts:
        raise EmptyProfile("empty rank/degree profile")
    return CanonicalPolygon(_upper_hull(pts))


# -- the subset engine ------------------------------------------------------
#
# Codes and matroids share everything below.  It takes the object X itself
# (a LinearCode or a Matroid) and reads only X.n, X.k = r(E), its memos of
# least ranks by subset size (`algebra.least_ranks`, which searches a
# code's columns and reads a matroid's table) and of the filtration
# (X._sfilt), and its minor X._minor(elems, S) for the graded pieces; the
# filtration is the subsets of least rank at the polygon's vertex sizes.
# A subset S has degree k - r(S); for a code that is dim C_{[n]-S}.

def subset_profile(X) -> tuple[int, ...]:
    """(k_0, ..., k_n) with k_j = k - min {r(S) : #S = n - j}."""
    minr, n = least_ranks(X)[0], X.n
    return tuple(X.k - minr[n - j] for j in range(n + 1))


def profile_hierarchy(k: int, kj) -> tuple[int, ...]:
    """(d_0, ..., d_k): d_i the least j with k_j >= i."""
    out = [0]
    j = 0
    for i in range(1, k + 1):
        while kj[j] < i:
            j += 1
        out.append(j)
    return tuple(out)


def profile_gaps(kj) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(gaps, non-gaps): the sizes j >= 1 where the profile stalls
    (k_j = k_{j-1}) and where it rises."""
    sizes = range(1, len(kj))
    return (tuple(j for j in sizes if kj[j] == kj[j - 1]),
            tuple(j for j in sizes if kj[j] > kj[j - 1]))


def hierarchies_tile(n: int, k: int, d, dual_d) -> bool:
    """Wei's duality: the hierarchy (d_1, ..., d_k) and the reflected dual
    hierarchy {n + 1 - x : x in dual_d} (n - k values) partition [n]."""
    left, right = set(d), {n + 1 - x for x in dual_d}
    return (len(left) == k and len(right) == n - k and not left & right
            and left | right == set(range(1, n + 1)))


def subset_polygon(X) -> CanonicalPolygon:
    """Polygon of the coordinate-subset lattice: profile
    (s, k - min {r(S) : #S = s})."""
    return polygon_from_profile([X.k - m for m in least_ranks(X)[0]])


def code_polygon(C: LinearCode) -> CanonicalPolygon:
    """Polygon of the subcode lattice, profile (i, n - d_i): the subset
    polygon with its axes swapped.  Zero columns give the subset polygon a
    flat first side from the loop vertex (0, k), which is dropped first.
    The subset polygon's vertices are reflected once, into one polygon."""
    minr = least_ranks(C)[0]
    vs = _upper_hull(list(enumerate(C.k - m for m in minr)))
    if vs[1][1] == vs[0][1]:
        vs = vs[1:]
    return CanonicalPolygon([(y, x) for x, y in reversed(vs)])


class Filtration:
    """A canonical filtration: the chain of polygon-vertex elements.

    steps[a] is the element at vertex rank i_a (steps[0] the bottom, the
    last step the top); slopes[a] is the polygon slope between vertices a
    and a+1.
    """

    __slots__ = ("steps", "polygon")

    def __init__(self, steps, polygon: CanonicalPolygon):
        self.steps = tuple(steps)
        self.polygon = polygon
        if len(self.steps) != polygon.N + 1:
            raise InvariantViolation("one step per polygon vertex required")

    @property
    def slopes(self) -> tuple[Fraction, ...]:
        return self.polygon.slopes

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.polygon.vertex_ranks


def subset_filtration(X) -> Filtration:
    """The chain of subsets attaining the subset polygon's vertices.

    Step a is the least-rank search's witness at vertex size s_a.  At a
    vertex the s-subset of least rank is unique: two of them, S != T, would
    by submodularity put S | T or S & T above the strictly concave hull.
    So the search's witness, its first least-rank s-subset, is that
    subset.  A chain that does not nest raises.  The result is kept on
    X._sfilt; the cap is checked on every call, as `least_ranks` does.
    """
    _check_cap(X.n)
    if X._sfilt is None:
        poly = subset_polygon(X)
        wit = least_ranks(X)[1]
        out = [wit[s] for s in poly.vertex_ranks]
        for A, B in zip(out, out[1:]):
            if A & ~B:
                raise InvariantViolation("filtration subsets do not nest")
        X._sfilt = Filtration(out, poly)
    return X._sfilt


def subset_graded(X) -> list:
    """Minors between consecutive subset-filtration steps.

    Piece a contracts step a-1 and keeps the elements step a adds,
    `X._minor(elems, S)`: one minor of a matroid's table, or for a code the
    subcode vanishing on S projected onto those coordinates.  Each piece
    must have a one-sided subset polygon of the side slope.  A semistable
    X is its own only piece, so its checks read X's memos.
    """
    filt = subset_filtration(X)
    pieces = []
    for a, mu in enumerate(filt.slopes):
        S = filt.steps[a]
        elems = bits_of(filt.steps[a + 1] & ~S)
        piece = X if len(elems) == X.n else X._minor(elems, S)
        if subset_polygon(piece).slopes != (mu,):
            raise InvariantViolation(
                "graded piece is not semistable of the side slope")
        pieces.append(piece)
    return pieces


def canonical_filtration(C: LinearCode) -> Filtration:
    """The chain of subcodes attaining the code polygon's vertices.

    This is the Galois image of `subset_filtration`: the code vertex
    (i, v) is the subset vertex (v, i), and its step is the subcode
    vanishing on the attaining subset S, C_{[n]-S}.  The chain property
    follows from the nesting of the subsets.  Zero columns only add a
    leading subset vertex (0, k), so the code's N - 1 interior steps are
    the images of the subset steps just before the last, in reverse.  The
    zero and the whole subcode are the ends.  No rank table is built.

    The filtration is memoized on C; the cap is checked on every call, as
    the code's other memos do.
    """
    _check_cap(C.n)
    if C._filt is None:
        poly = code_polygon(C)
        inner = subset_filtration(C).steps[-poly.N:-1]
        steps = [C.zero_subcode()]
        steps += [subset_to_subcode(C, S) for S in reversed(inner)]
        steps.append(C.whole_subcode())
        C._filt = Filtration(steps, poly)
    return C._filt


# -- semistability ----------------------------------------------------------

def is_semistable(C: LinearCode) -> bool:
    """True when every nonzero subcode C' has w(C') >= dim(C')/R(C):
    d_i k >= i w(C) for 0 < i < k, i.e. the code polygon has one side."""
    return code_polygon(C).N == 1


def is_stable(C: LinearCode) -> bool:
    """True when every proper nonzero subcode has strictly smaller rate:
    d_i k > i w(C) for 0 < i < k (vacuously true for k = 1)."""
    d, k, w = C.weight_hierarchy(), C.k, C.weight
    return all(d[i] * k > i * w for i in range(1, k))


def semistability_witness(C: LinearCode) -> Subcode | None:
    """A subcode violating semistability, or None; the first filtration
    step is returned (the maximal-slope destabilizer) when one exists."""
    filt = canonical_filtration(C)
    return filt.steps[1] if filt.polygon.N > 1 else None


def graded_pieces(C: LinearCode) -> list[LinearCode]:
    """Successive quotients of the canonical filtration as codes.

    Piece a is the projection of step a onto the coordinates its support
    adds over step a-1; it is an [n_a - n_{a-1}, i_a - i_{a-1}] code,
    semistable of slope mu_a.  These are the subset-side pieces
    (`subset_graded`) in reverse order.  Requires full support.
    """
    if not C.is_full_support:
        raise NotFullSupport("graded pieces need a full-support code",
                             side="primal",
                             zero_columns=((1 << C.n) - 1) ^ C.support_mask)
    return subset_graded(C)[::-1]


# -- enumerable lattice views ----------------------------------------------

def _lattice_bits(C: LinearCode) -> int:
    """log2, rounded up, of the number of subcodes of C: the subspaces of
    F_q^k, the sum of the Gaussian binomials [k, r]_q over r."""
    q, k = C.field.q, C.k
    total, g = 0, 1                      # g = [k, r]_q
    for r in range(k + 1):
        total += g
        g = g * (q ** (k - r) - 1) // (q ** (r + 1) - 1)
    return (total - 1).bit_length()


class SubspaceLattice:
    """Subcodes of C as subspaces of its coefficient space F^k.

    C.gen is in RREF, so it is the identity on its pivot columns and the
    coefficients of a codeword x G are its entries there.  Each subcode is
    keyed by the RREF of its r x k coefficient matrix; the RREF basis of a
    subcode, read at the pivot columns, already is that matrix, so
    `index_of` needs no elimination.  `elements[i]` is the key matrix of
    element i and `subcode(i)` the Subcode it stands for.

    Join is the RREF of the two stacked coefficient matrices, and
    leq(i, j) is join(i, j) == j.  The meet of comparable elements is the
    smaller one; otherwise it is U & W = (U^perp + W^perp)^perp, where
    `_perp` interns each element's orthogonal complement (a k-column
    nullspace) once, both ways.  Every elimination has k columns.  Joins,
    supports and complements are memoized by element index.

    Without `subcodes` every subcode is enumerated, and it is refused
    when the subcodes number more than 2^cap; `subcode_lattice(C)` is
    that lattice, built once per code.  With `subcodes` the lattice starts
    from those alone and interns just the elements that joins, complements
    and `index_of` reach, so it never enumerates and has no cap.
    """

    def __init__(self, C: LinearCode, subcodes=None):
        if subcodes is None:
            _check_cap(_lattice_bits(C), "subcodes")
        self.code = C
        self._pivots = C.gen.rref()[1]
        self.elements: list[Matrix] = []
        self._index: dict[tuple, int] = {}
        self._perps: dict[int, int] = {}
        self._supports: dict[int, int] = {}
        self._joins: dict[tuple, int] = {}
        if subcodes is not None:
            for S in subcodes:
                self.index_of(S)
            return
        for r in range(C.k + 1):
            for X in iter_rref_matrices(C.field, r, C.k):
                self._intern(X)

    def __len__(self):
        return len(self.elements)

    def _intern(self, X: Matrix) -> int:
        i = self._index.get(X.entries)
        if i is None:
            i = self._index[X.entries] = len(self.elements)
            self.elements.append(X)
        return i

    def index_of(self, S: Subcode) -> int:
        if S.parent != self.code:
            raise NotASubcode("subcode of another code")
        B, piv = S.basis, self._pivots
        X = Matrix(B.field, S.dim, len(piv),
                   tuple(B.entry(i, p) for i in range(S.dim) for p in piv))
        return self._intern(X)

    def subcode(self, i: int) -> Subcode:
        X = self.elements[i]
        # X and the generator are both in RREF, so their product is too
        return Subcode(self.code, X.matmul(self.code.gen))

    def rank(self, i: int) -> int:
        return self.elements[i].rows

    def support(self, i: int) -> int:
        s = self._supports.get(i)
        if s is None:
            X = self.elements[i]
            s = self._supports[i] = _support_of_matrix(X.matmul(self.code.gen))
        return s

    def cosupport(self, i: int) -> int:
        return ((1 << self.code.n) - 1) ^ self.support(i)

    def degree(self, i: int) -> int:
        return self.code.n - self.support(i).bit_count()

    def leq(self, i: int, j: int) -> bool:
        return self.join(i, j) == j

    def _perp(self, i: int) -> int:
        p = self._perps.get(i)
        if p is None:
            N = self.elements[i].right_nullspace().rref_nonzero()
            p = self._perps[i] = self._intern(N)
            self._perps[p] = i
        return p

    def meet(self, i: int, j: int) -> int:
        v = self.join(i, j)
        if v == j:                       # comparable: the smaller one
            return i
        if v == i:
            return j
        return self._perp(self.join(self._perp(i), self._perp(j)))

    def join(self, i: int, j: int) -> int:
        if i == j:
            return i
        key = (i, j) if i < j else (j, i)
        v = self._joins.get(key)
        if v is None:
            X = self.elements[i].stack(self.elements[j])
            v = self._joins[key] = self._intern(X.rref_nonzero())
        return v


def subcode_lattice(C: LinearCode) -> SubspaceLattice:
    """The exhaustive subcode lattice of C, built once and kept on C; the
    cap is checked on every call, as the code's other memos do."""
    _check_cap(_lattice_bits(C), "subcodes")
    if C._lattice is None:
        C._lattice = SubspaceLattice(C)
    return C._lattice


def verify_parallelogram(lattice) -> bool:
    """Modularity of rank and lower semimodularity of degree on all pairs.

    rank(x) + rank(y) == rank(join) + rank(meet) and
    deg(x) + deg(y) <= deg(join) + deg(meet).  A lattice of at most 2^b
    elements counts as 2^(2b) pairs against the cap, checked before any
    pair is read.
    """
    _check_cap(2 * (len(lattice) - 1).bit_length(),
               "pairs of lattice elements")
    idx = range(len(lattice))
    pairs = ((i, j) for i in idx for j in idx)
    for i, j in pairs:
        m = lattice.meet(i, j)
        v = lattice.join(i, j)
        if lattice.rank(i) + lattice.rank(j) != lattice.rank(v) + lattice.rank(m):
            return False
        if lattice.degree(i) + lattice.degree(j) > lattice.degree(v) + lattice.degree(m):
            return False
    return True


def _contract(C: LinearCode, e: int) -> LinearCode:
    """C/e: the subcode vanishing at coordinate e, punctured at e.  Its
    column ranks are r(J + e) - 1 for a non-loop e."""
    keep = [j for j in range(C.n) if j != e]
    return LinearCode(C.shorten(((1 << C.n) - 1) ^ (1 << e)).basis
                      .col_submatrix(keep))


def gap_rival_degrees(C: LinearCode) -> tuple[int, ...]:
    """At each interior polygon vertex a, the largest degree of a subcode
    of rank i_a other than the filtration step F_a, read off least ranks.

    Let S = cosupport(F_a), the subset step, of rank rho = k - i_a.  A
    rank-i_a subcode D != F_a vanishes on J = cosupport(D), so r(J) <= rho,
    and r(J) = rho with J inside S would make D the subcode vanishing on J,
    which is F_a.  Conversely every J with r(J) < rho, or r(J) = rho and J
    not inside S, carries such a D vanishing on all of J.  A J inside S
    with r(J) < rho stays a rival with any e outside S added (S is a flat,
    so e is no loop), so the largest rival holds some e outside S, and the
    degree is 1 + max {s : minr_{C/e}[s] < rho} over those e: the number
    of such s, as minr rises from 0.  Parallel columns, whose tokens
    (`Matrix.independence`) are equal, share one search of C/e.
    """
    filt = canonical_filtration(C)
    inner = list(zip(filt.ranks[1:-1], filt.steps[1:-1]))
    if not inner:
        return ()
    # the steps nest, so the last one's support holds every e asked for
    tok = C.gen.independence()[0]
    reps = {tok[e]: e for e in bits_of(inner[-1][1].support_mask)}
    minr = {t: least_ranks(_contract(C, e))[0] for t, e in reps.items()}
    return tuple(max(sum(r < C.k - i_a for r in minr[tok[e]])
                     for e in bits_of(F.support_mask)) for i_a, F in inner)


def gap_condition_check(C: LinearCode) -> bool:
    """At every interior polygon vertex, every non-filtration subcode of
    that rank keeps a degree gap of at least mu_a - mu_{a+1} below the
    polygon: `gap_rival_degrees` against v_a - (mu_a - mu_{a+1})."""
    poly = canonical_filtration(C).polygon
    mu, vs = poly.slopes, poly.vertices
    return all(deg <= vs[a][1] - (mu[a - 1] - mu[a])
               for a, deg in enumerate(gap_rival_degrees(C), 1))


# -- Galois connection between subcodes and coordinate subsets --------------

def subset_to_subcode(C: LinearCode, J: int) -> Subcode:
    """The Galois image of a coordinate set: the subcode vanishing on J."""
    full = (1 << C.n) - 1
    return C.shorten(full ^ J)


def verify_galois(C: LinearCode, subcodes=None, subsets=None) -> bool:
    """Check the order-reversing correspondence laws on sampled elements.

    Laws: both closure inclusions x <= x-circ-circ; the adjunction
    (S vanishes on J iff J avoids the support of S); the join/meet
    exchange inequalities; and degree(S) = #cosupport(S).  Exhaustive over
    the subspace lattice and all 2^n subsets when samples are omitted.
    The laws run over pairs: an exhaustive side of 2^b elements counts as
    2^(2b) against the cap, checked before either side is built.

    Every law is read on SubspaceLattice indices: the image
    `subset_to_subcode(C, J)` of each subset is interned once, and meets,
    joins and containments are the lattice's memoized k-column
    operations.  Exhaustively the code's own lattice (`subcode_lattice`) is
    read.  With sampled subcodes a fresh lattice starts from them alone and
    interns only the meets, joins and images the laws reach, so it never
    enumerates the subspaces of F^k.
    """
    side = max(_lattice_bits(C) if subcodes is None else 0,
               C.n if subsets is None else 0)
    _check_cap(2 * side, "pairs of subcodes or subsets")
    if subcodes is None:
        lat = subcode_lattice(C)
        idx = range(len(lat))
    else:
        lat = SubspaceLattice(C, subcodes=subcodes)
        idx = [lat.index_of(S) for S in subcodes]
    if subsets is None:
        subsets = range(1 << C.n)
    subsets = list(subsets)
    leq, meet, join, cos = lat.leq, lat.meet, lat.join, lat.cosupport
    img = {}

    def image(J):
        i = img.get(J)
        if i is None:
            i = img[J] = lat.index_of(subset_to_subcode(C, J))
        return i

    for s in idx:
        Sc = cos(s)
        if not leq(s, image(Sc)):
            return False
        if lat.degree(s) != Sc.bit_count():
            return False
    images = [(J, image(J)) for J in subsets]
    for J, iJ in images:
        if J & ~cos(iJ):
            return False
    for s in idx:
        Sc = cos(s)
        for J, iJ in images:
            if leq(s, iJ) != (J & ~Sc == 0):
                return False
    for s in idx:
        for t in idx:
            if (cos(s) | cos(t)) & ~cos(meet(s, t)):
                return False
            if cos(s) & cos(t) != cos(join(s, t)):
                return False
    for J, iJ in images:
        for K, iK in images:
            if not leq(join(iJ, iK), image(J & K)):
                return False
            if meet(iJ, iK) != image(J | K):
                return False
    return True
