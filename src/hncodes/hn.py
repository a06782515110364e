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
rank for its size.  So the polygons, both filtrations and this verdict
read one chain: `subset_filtration` builds the hull of the least ranks
once per object, and `algebra.least_ranks`, read first on every call,
alone charges the enumeration cap; no 2^n rank table is built for them.
Stability, the strict form, reads the weight hierarchy.

The canonical filtration and the exhaustive subcode lattice belong to the
code: both are built once per LinearCode and kept on it, the lattice by
whichever of `SubspaceLattice(C)` and `subcode_lattice(C)` builds it
first.  The gap condition reads the filtration and least ranks, not the
lattice or the rank table: by the Galois connection its rivals are
coordinate subsets, so it is capped by the columns like every other
column question.  The lattice serves the lattice laws alone
(`verify_parallelogram`, `verify_galois`) and reads its order on masks
of the points of P^(k-1); the Galois check reads each subset's image as
the complement of its column span, which the lattice keeps
(`SubspaceLattice.vanishing`): a walk up through the subsets steps one
column per subset into a kept span (`Matrix.column_span`).
The exhaustive lattice enumerates every subcode, so its cap counts
subcodes: the number of subspaces of F_q^k, computed before any element
is built; a sampled lattice's cap counts the points, one mask bit and
a build linear in them each.

All slopes are exact `fractions.Fraction`s, and polygon values are exact
ints or Fractions.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (Matrix, _check_cap, iter_rref_matrices, least_ranks,
                      subspaces)
from .code import LinearCode, Subcode, bits_of
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
    (s, k - min {r(S) : #S = s}), the one kept with `subset_filtration`."""
    return subset_filtration(X).polygon


def code_polygon(C: LinearCode) -> CanonicalPolygon:
    """Polygon of the subcode lattice, profile (i, n - d_i): the subset
    polygon with its axes swapped.  Zero columns give the subset polygon a
    flat first side from the loop vertex (0, k), which is dropped first.
    The vertices of the polygon kept by `subset_filtration` are reflected,
    so no hull is built here."""
    vs = subset_filtration(C).polygon.vertices
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
    subset.  A chain that does not nest raises.  The chain and its polygon,
    the one hull of the least ranks, are kept on X._sfilt; every call reads
    `least_ranks` first, which charges the cap, so a filled memo is too.
    """
    minr, wit = least_ranks(X)
    if X._sfilt is None:
        poly = polygon_from_profile([X.k - m for m in minr])
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

    The filtration is memoized on C.  Every call first reads
    `subset_filtration`, whose least-rank read charges the cap.
    """
    sfilt = subset_filtration(C)
    if C._filt is None:
        poly = code_polygon(C)
        inner = sfilt.steps[-poly.N:-1]
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
    total = sum(subspaces(C.field.q, C.k, r) for r in range(C.k + 1))
    return (total - 1).bit_length()


class _Memo(dict):
    """A dict that fills a missing key k with fn(k)."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class SubspaceLattice:
    """Subcodes of C as subspaces of its coefficient space F^k.

    Each element is a `Subcode.key`, the RREF of an r x k coefficient
    matrix, so `index_of` interns a subcode's key as it stands.
    `elements[i]` is the key of element i and `subcode(i)` the Subcode it
    stands for.

    The order is read on point masks: the points of P^(k-1) an element
    holds, one bit each, built when the element is first compared in time
    and memory linear in its points.
    leq is mask containment and meet the AND of two masks, looked up among
    the masks built so far; an AND that names no known element is
    (U^perp + W^perp)^perp once, U^perp's RREF extended by W^perp's.
    `_perps` holds each element's orthogonal complement (a k-column
    nullspace), found once and recorded both ways, and a join is
    complement, meet, complement.
    `vanishing(J)` interns the subcode vanishing on the columns J from
    the span of those columns, which `_spans` keeps by J.

    Without `subcodes` every subcode is enumerated, and it is refused
    when the subcodes number more than 2^cap; the first such lattice of a
    code keeps itself on C, and `subcode_lattice(C)` returns it.  With
    `subcodes` the lattice starts from those alone and interns just what
    meets, complements and `index_of` reach; its cap counts the
    (q^k - 1)/(q - 1) points, and it is never kept on the code.
    """

    def __init__(self, C: LinearCode, subcodes=None):
        q, k = C.field.q, C.k
        if subcodes is None:
            _check_cap(_lattice_bits(C), "subcodes")
        else:                            # the points that masks range over
            _check_cap(((q ** k - 1) // (q - 1) - 1).bit_length(), "points")
        self.code = C
        self._place = [q ** e for e in reversed(range(k))]
        self._lead = [(e - 1) // (q - 1) for e in self._place]
        self.elements: list[Matrix] = []
        self._index: dict[tuple, int] = {}
        self._perps = _Memo(self._complement)
        self._supports = _Memo(lambda i: self.subcode(i).support_mask)
        self._masks = _Memo(self._point_mask)
        self._by_mask: dict[int, int] = {}
        self._spans: dict[int, Matrix] = {}
        if subcodes is not None:
            for S in subcodes:
                self.index_of(S)
            return
        for r in range(k + 1):
            for X in iter_rref_matrices(C.field, r, k):
                self._intern(X)
        if C._lattice is None:
            C._lattice = self

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
        return self._intern(S.key)

    def subcode(self, i: int) -> Subcode:
        return Subcode(self.code, self.elements[i])

    def rank(self, i: int) -> int:
        return self.elements[i].rows

    def support(self, i: int) -> int:
        return self._supports[i]

    def cosupport(self, i: int) -> int:
        return ((1 << self.code.n) - 1) ^ self.support(i)

    def degree(self, i: int) -> int:
        return self.code.n - self._supports[i].bit_count()

    def _point_mask(self, i: int) -> int:
        """The points of element i as bits of an int.  A point v led by 1 at
        position j is bit lead[j] + sum_{t>j} v_t q^(k-1-t), where the
        lead[j] = (q^(k-1-j) - 1)/(q - 1) points led further right come
        first, so the points of P^(k-1) take one bit each.  With RREF rows
        u_1..u_r the points led at pivot a are u_a + w for w in the span
        of the rows below, as the other rows vanish at that pivot.  The
        span is kept grouped by its non-pivot digits, which add in the
        field once per group; its pivot digits add as ints, and each
        point is written once into a string of binary digits."""
        f, place, lead = self.code.field, self._place, self._lead
        rows = self.elements[i].row_list()
        piv = [u.index(1) for u in rows]
        free = [t for t in range(len(place)) if t not in piv]
        ADD = f._add
        # the top row's points come last; point x is digits[~x]
        width = lead[piv[0]] + place[piv[0]] if rows else 1
        digits = bytearray(b"0") * width
        span = {(0,) * len(free): [0]}   # other digits -> pivot digits' value
        for a in reversed(range(len(rows))):
            j, u = piv[a], [rows[a][t] for t in free]
            for w, pvs in span.items():
                top = ~lead[j] - sum(place[t] * ADD[y][z]
                                     for t, y, z in zip(free, u, w))
                for pv in pvs:
                    digits[top - pv] = 49
            if a:
                grown = {}
                for c, M in enumerate(f._mul):
                    for w, pvs in span.items():
                        cw = tuple(ADD[M[y]][z] for y, z in zip(u, w))
                        grown.setdefault(cw, []).extend(
                            [c * place[j] + pv for pv in pvs])
                span = grown
        m = int(digits, 2)
        self._by_mask[m] = i
        return m

    def leq(self, i: int, j: int) -> bool:
        m = self._masks[i]
        return m & self._masks[j] == m

    def _complement(self, i: int) -> int:
        p = self._intern(self.elements[i].right_nullspace())
        self._perps[p] = i
        return p

    def vanishing(self, J: int) -> int:
        """The subcode vanishing on the columns J, interned from its key:
        the complement of the RREF span in F^k of the generator's
        J-columns (`Matrix.column_span`).  Every span is kept in `_spans`,
        at most k rows per distinct J for the life of the lattice.  When
        the span of J minus its top column is kept, only that column is
        stepped into it, so a walk up through the subsets steps one column
        per subset; any other J steps all of its columns from none."""
        span = self._spans.get(J)
        if span is None:
            top = 1 << J.bit_length() >> 1       # J's top column, 0 if none
            kept = self._spans.get(J ^ top)
            span = self._spans[J] = self.code.gen.column_span(
                bits_of(J if kept is None else top), kept)
        return self._perps[self._intern(span)]

    def meet(self, i: int, j: int) -> int:
        m = self._masks[i] & self._masks[j]
        v = self._by_mask.get(m)
        if v is None:                    # (U^perp + W^perp)^perp, once
            perp, E = self._perps, self.elements
            v = perp[self._intern(E[perp[i]].extend(E[perp[j]]))]
            self._masks[v] = m
            self._by_mask[m] = v
        return v

    def join(self, i: int, j: int) -> int:
        perp = self._perps
        return perp[self.meet(perp[i], perp[j])]


def subcode_lattice(C: LinearCode) -> SubspaceLattice:
    """The exhaustive subcode lattice of C: the first one built, by this
    call or by `SubspaceLattice(C)`, which keeps itself on C.  The cap is
    checked on every call, as the code's other memos do."""
    _check_cap(_lattice_bits(C), "subcodes")
    if C._lattice is None:
        SubspaceLattice(C)
    return C._lattice


def verify_parallelogram(lattice) -> bool:
    """Modularity of rank and lower semimodularity of degree on all pairs.

    rank(x) + rank(y) == rank(join) + rank(meet) and
    deg(x) + deg(y) <= deg(join) + deg(meet).  Every ordered pair is
    read, so a meet or join that does not commute is not taken on trust;
    each element's rank and degree are read once.  Only `len`, `rank`,
    `degree`, `meet` and `join` are read, so any lattice indexed
    0..len-1 will do, such as the coordinate subsets.  A lattice of at
    most 2^b elements counts as 2^(2b) pairs against the cap, checked
    before any pair is read.
    """
    _check_cap(2 * (len(lattice) - 1).bit_length(),
               "pairs of lattice elements")
    rank, degree = _Memo(lattice.rank), _Memo(lattice.degree)
    meet, join = lattice.meet, lattice.join
    elems = [(i, rank[i], degree[i]) for i in range(len(lattice))]
    for i, ri, di in elems:
        for j, rj, dj in elems:
            m, v = meet(i, j), join(i, j)
            if ri + rj != rank[v] + rank[m] or di + dj > degree[v] + degree[m]:
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
    (S vanishes on J iff J avoids the support of S); and the join/meet
    exchange inequalities.  Exhaustive over the subspace lattice and all
    2^n subsets when samples are omitted.  The laws run over pairs: an
    exhaustive side of 2^b elements counts as 2^(2b) against the cap,
    checked before either side is built.

    Every law is read on SubspaceLattice indices, and each element's
    cosupport is read once.  The pair laws are symmetric, and the meet
    and join of a SubspaceLattice commute (the meet is the element of
    the AND of the two point masks, the join the meet of complements),
    so each unordered pair is read once.  Each subset's
    image is interned from its k-column key by `SubspaceLattice.vanishing`;
    the subsets are walked upward, so each key is one step from a span
    the lattice keeps.  The subsets are grouped by image: each pair of
    classes takes one join and one meet, which the images of J | K must
    equal and which lies below each image class of J & K, asked once per
    class.  Exhaustively the code's own lattice (`subcode_lattice`) is
    read, the one that any earlier `SubspaceLattice(C)` built.  With
    sampled subcodes a fresh lattice starts from them alone and interns
    only the meets, joins and images the laws reach, so it never
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
    leq, meet, join = lat.leq, lat.meet, lat.join
    cos = _Memo(lat.cosupport)
    img = _Memo(lat.vanishing)           # subset -> the index of its image
    classes = {}                         # image -> its subsets
    for J in range(1 << C.n) if subsets is None else subsets:
        classes.setdefault(img[J], []).append(J)
    for s in idx:
        if not leq(s, img[cos[s]]):
            return False
    for c, Js in classes.items():
        if any(J & ~cos[c] for J in Js):
            return False
    for s in idx:
        Sc = cos[s]
        for c, Js in classes.items():
            below = leq(s, c)
            if any(below != (J & ~Sc == 0) for J in Js):
                return False
    for x, s in enumerate(idx):          # meet and join commute here
        Sc = cos[s]
        for t in idx[x:]:
            Tc = cos[t]
            if (Sc | Tc) & ~cos[meet(s, t)] or Sc & Tc != cos[join(s, t)]:
                return False
    pairs = list(classes.items())
    for x, (a, As) in enumerate(pairs):
        for b, Bs in pairs[x:]:
            up, down = join(a, b), meet(a, b)
            if ({img[J | K] for J in As for K in Bs} != {down}
                    or not all(leq(up, c)
                               for c in {img[J & K] for J in As for K in Bs})):
                return False
    return True
