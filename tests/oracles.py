"""Naive reference computations the fast implementations are tested against.

Everything here trades speed for obviousness: plain enumeration over
codewords, coefficient tuples, and subsets.  No pruning and no shared code
paths with the library beyond raw field arithmetic, and that arithmetic has
its own reference at the end: digit polynomials multiplied and reduced by
the modulus, and irreducibility by trial division.  Rank tables appear
only as given data or row-reduced subset by subset (`brute_rank_table`;
`brute_rref` is Gauss-Jordan elimination with the scalar operations):
the matroid references scan a table mask by mask, and
`SubsetLattice.for_code` is a lattice view over a code's own table.  The
gap condition's reference scans an exhaustive subcode lattice, given
likewise as data.
"""

from fractions import Fraction
from itertools import combinations, product


def rows_of(C):
    return [C.gen.row(i) for i in range(C.k)]


def qlog(count: int, q: int) -> int:
    """Exact discrete log base q; counts of F_q-subspaces are powers of q."""
    d = 0
    while count > 1:
        if count % q:
            raise AssertionError(f"{count} is not a power of {q}")
        count //= q
        d += 1
    return d


def codewords(field, rows):
    """All words of the row span, via every coefficient tuple."""
    n = len(rows[0])
    words = set()
    for coeffs in product(range(field.q), repeat=len(rows)):
        w = [0] * n
        for c, row in zip(coeffs, rows):
            for i, x in enumerate(row):
                w[i] = field.add(w[i], field.mul(c, x))
        words.add(tuple(w))
    return sorted(words)


def span_words(field, rows, n) -> frozenset:
    """The row span as a set of words; no rows give the zero space."""
    if not rows:
        return frozenset([(0,) * n])
    return frozenset(codewords(field, rows))


def in_row_space(field, rows, vector) -> bool:
    """Whether `vector` is a word of the row span."""
    return tuple(vector) in span_words(field, rows, len(vector))


def least_subspace_containing(levels, words) -> frozenset:
    """The smallest subspace in `levels` (as from subspaces_by_dim) that
    contains every word given."""
    for level in levels:
        hits = [S for S in level if words <= S]
        if hits:
            assert len(hits) == 1, "two least subspaces"
            return hits[0]
    raise AssertionError("no subspace contains the words")


def support_of(words) -> frozenset:
    return frozenset(i for w in words for i, x in enumerate(w) if x)


def _vadd(field, u, v):
    return tuple(field.add(a, b) for a, b in zip(u, v))


def _vscale(field, c, u):
    return tuple(field.mul(c, x) for x in u)


def subspaces_by_dim(field, rows):
    """All subspaces of the row span as frozensets of codewords, one list
    per dimension.  Grown one dimension at a time by naive closure: each
    subspace S is extended by every word outside it, skipping words that
    an earlier extension of S already holds (S + <w> is that extension
    again), so each superspace is built once per subspace."""
    words = codewords(field, rows)
    zero = words[0]  # sorted puts the all-zero word first
    levels = [{frozenset([zero])}]
    for _ in range(len(rows)):
        nxt = set()
        for S in levels[-1]:
            covered = set(S)
            for w in words:
                if w in covered:
                    continue
                bigger = set(S)
                for c in range(1, field.q):
                    cw = _vscale(field, c, w)
                    bigger.update(_vadd(field, s, cw) for s in S)
                covered |= bigger
                nxt.add(frozenset(bigger))
        levels.append(nxt)
    return levels


def all_subspaces(field, rows, r: int):
    return subspaces_by_dim(field, rows)[r]


def brute_min_distance(field, rows) -> int:
    return min(len(support_of([w])) for w in codewords(field, rows) if any(w))


def brute_weight_hierarchy(field, rows, levels=None):
    levels = levels or subspaces_by_dim(field, rows)
    return tuple([0] + [min(len(support_of(S)) for S in levels[r])
                        for r in range(1, len(rows) + 1)])


def brute_dlp(field, rows):
    """(k_0, ..., k_n) by counting codewords supported inside each subset."""
    words = codewords(field, rows)
    n = len(rows[0])
    out = []
    for j in range(n + 1):
        best = 0
        for J in combinations(range(n), j):
            Jset = set(J)
            inside = sum(1 for w in words
                         if all(x == 0 or i in Jset for i, x in enumerate(w)))
            best = max(best, qlog(inside, field.q))
        out.append(best)
    return tuple(out)


def brute_h0(field, rows, J) -> int:
    words = codewords(field, rows)
    Jset = set(J)
    inside = sum(1 for w in words
                 if all(x == 0 or i in Jset for i, x in enumerate(w)))
    return qlog(inside, field.q)


def brute_h1(field, rows, J) -> int:
    words = codewords(field, rows)
    n = len(rows[0])
    outside = [i for i in range(n) if i not in set(J)]
    img = {tuple(w[i] for i in outside) for w in words}
    return len(outside) - qlog(len(img), field.q)


def brute_column_rank(field, rows, J) -> int:
    """Rank of the columns in J, as the q-log of the projection image."""
    words = codewords(field, rows)
    cols = sorted(set(J))
    img = {tuple(w[i] for i in cols) for w in words}
    return qlog(len(img), field.q)


def brute_rank_table(field, rows) -> bytes:
    """Rank of every column subset, indexed by bitmask: each subset's
    columns are row-reduced from scratch with the scalar operations (no
    codeword enumeration, so GF(256) stays cheap)."""
    n = len(rows[0])
    cols = [[r[j] for r in rows] for j in range(n)]
    table = bytearray(1 << n)
    for J in range(1 << n):
        basis = []
        for j in range(n):
            if not (J >> j) & 1:
                continue
            v = cols[j]
            for p, b in basis:
                c = v[p]
                v = [field.sub(x, field.mul(c, y)) for x, y in zip(v, b)]
            p = next((i for i, x in enumerate(v) if x), None)
            if p is not None:
                inv = field.inv(v[p])
                basis.append((p, [field.mul(inv, x) for x in v]))
        table[J] = len(basis)
    return bytes(table)


def brute_rref(field, vectors, n):
    """(rows, pivots) of the RREF of the vectors' span in F^n, zero rows
    dropped: Gauss-Jordan elimination column by column with the scalar
    operations, each pivot row swapped up, scaled and cleared from every
    other row."""
    rows, pivots = [list(v) for v in vectors], []
    for c in range(n):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i, u in enumerate(rows):
            if i != r and u[c]:
                rows[i] = [field.sub(x, field.mul(u[c], y))
                           for x, y in zip(u, rows[r])]
        pivots.append(c)
    return [tuple(u) for u in rows[:len(pivots)]], tuple(pivots)


def brute_semistable(field, rows, levels=None) -> bool:
    k = len(rows)
    rate = Fraction(k, len(support_of(codewords(field, rows))))
    levels = levels or subspaces_by_dim(field, rows)
    for r in range(1, k + 1):
        for S in levels[r]:
            if Fraction(r, len(support_of(S))) > rate:
                return False
    return True


def brute_stable(field, rows, levels=None) -> bool:
    k = len(rows)
    rate = Fraction(k, len(support_of(codewords(field, rows))))
    levels = levels or subspaces_by_dim(field, rows)
    for r in range(1, k):
        for S in levels[r]:
            if Fraction(r, len(support_of(S))) >= rate:
                return False
    return True


def brute_chained(field, rows) -> bool:
    """Existence of a full chain of subcodes attaining every d_i, found by
    nesting actual codeword sets level by level."""
    levels = subspaces_by_dim(field, rows)
    hier = brute_weight_hierarchy(field, rows, levels)
    reach = None
    for i in range(1, len(rows) + 1):
        level = [S for S in levels[i]
                 if len(support_of(S)) == hier[i]]
        if reach is None:
            reach = level
        else:
            reach = [S for S in level if any(P <= S for P in reach)]
        if not reach:
            return False
    return True


def brute_envelope(values):
    """Least concave majorant of (i, values[i]), sampled at the integers."""
    n = len(values) - 1
    out = []
    for x in range(n + 1):
        best = Fraction(values[x])
        for i in range(x + 1):
            for j in range(x, n + 1):
                if i == j:
                    continue
                lam = Fraction(x - i, j - i)
                cand = (1 - lam) * values[i] + lam * values[j]
                best = max(best, cand)
        out.append(best)
    return out


def envelope_vertices(values):
    """Breakpoints of the majorant, endpoints included."""
    env = brute_envelope(values)
    n = len(env) - 1
    verts = [(0, env[0])]
    for x in range(1, n):
        if env[x] - env[x - 1] != env[x + 1] - env[x]:
            verts.append((x, env[x]))
    if n >= 1:
        verts.append((n, env[n]))
    return verts


def brute_filtration(field, rows):
    """The canonical filtration as codeword sets: for each vertex (i, .) of
    the majorant of the profile (i, n - d_i), the unique i-dimensional
    subspace of weight d_i."""
    levels = subspaces_by_dim(field, rows)
    hier = brute_weight_hierarchy(field, rows, levels)
    n = len(rows[0])
    steps = []
    for i, _ in envelope_vertices([n - d for d in hier]):
        hits = [S for S in levels[i] if len(support_of(S)) == hier[i]]
        if len(hits) != 1:
            raise AssertionError(
                f"{len(hits)} subspaces attain the vertex at dimension {i}")
        steps.append(hits[0])
    return steps


def schaathun_oracle(dA, dB, r: int):
    """Minimum DP cost by enumerating every nonincreasing t-sequence with
    sum at least r (a short prefix stands for its zero-padded completion)."""
    kA, kB = len(dA) - 1, len(dB) - 1
    best = [None]

    def rec(i, prev, acc, cost):
        if acc >= r and (best[0] is None or cost < best[0]):
            best[0] = cost
        if i > kA:
            return
        for t in range(prev + 1):
            rec(i + 1, t, acc + t, cost + (dA[i] - dA[i - 1]) * dB[t])

    rec(1, kB, 0, 0)
    return best[0]


def kron_rows(field, rowsA, rowsB):
    """Generator rows of the product code, coordinate (i, j) at i*nB + j."""
    out = []
    for a in rowsA:
        for b in rowsB:
            out.append(tuple(field.mul(x, y) for x in a for y in b))
    return out


def brute_column_projections(field, rows, nA, nB):
    """(dims, supports) of the matrix columns of the span of `rows`, each
    word read as an nA x nB array row by row.  Column j's projection is the
    set of the words' entries j, j + nB, ...: its dimension is log_q of the
    number of distinct projections, its support the bitmask over 0..nA-1
    of the positions where some projection is nonzero."""
    words = span_words(field, rows, nA * nB)
    dims, supports = [], []
    for j in range(nB):
        proj = {tuple(w[a * nB + j] for a in range(nA)) for w in words}
        dims.append(qlog(len(proj), field.q))
        supports.append(sum(1 << a for a in range(nA)
                            if any(p[a] for p in proj)))
    return tuple(dims), tuple(supports)


def brute_semimodular(n: int, table) -> bool:
    """Global rank axioms over every pair of subsets."""
    if table[0] != 0:
        return False
    for A in range(1 << n):
        for e in range(n):
            if not (A >> e) & 1:
                if table[A | (1 << e)] - table[A] not in (0, 1):
                    return False
        for B in range(1 << n):
            if table[A] + table[B] < table[A | B] + table[A & B]:
                return False
    return True


def rank_axiom_failure(n: int, table):
    """The message of the first local rank axiom failure of a 2^n table,
    or None: r(empty) = 0, then subset by subset in increasing mask order
    the unit increments r(J+e) - r(J) in {0, 1} and the pairs
    r(J+a) + r(J+b) >= r(J+a+b) + r(J)."""
    if table[0] != 0:
        return "rank of the empty set must be 0"
    for J in range(1 << n):
        free = [e for e in range(n) if not (J >> e) & 1]
        for e in free:
            if table[J | (1 << e)] - table[J] not in (0, 1):
                return f"rank must grow by 0 or 1 (subset {J}, element {e})"
        for a, b in combinations(free, 2):
            ea, eb = 1 << a, 1 << b
            if table[J | ea] + table[J | eb] < table[J | ea | eb] + table[J]:
                return (f"local semimodularity fails at subset {J}, "
                        f"elements {a}, {b}")
    return None


# -- rank tables --------------------------------------------------------------

def table_minima(n: int, ranks):
    """Least rank of an s-element subset, for each s, by a scan of the
    whole table."""
    best = [n + 1] * (n + 1)
    for J, r in enumerate(ranks):
        s = J.bit_count()
        best[s] = min(best[s], r)
    return best


def table_least_ranks(n: int, ranks):
    """(minima, witnesses): `table_minima`, and for each size the first
    subset attaining its minimum in the lexicographic order of sorted
    column indices, which is the order `combinations` yields."""
    minima = table_minima(n, ranks)
    first = [next(J for J in (sum(1 << i for i in c)
                              for c in combinations(range(n), s))
                  if ranks[J] == minima[s])
             for s in range(n + 1)]
    return minima, first


def table_subsets_attaining(ranks, targets):
    """For each target (s, r), every subset of size s and rank r, in
    increasing mask order, by a scan of the whole table."""
    want = dict(targets)
    hits = {s: [] for s in want}
    for J, r in enumerate(ranks):
        s = J.bit_count()
        if want.get(s) == r:
            hits[s].append(J)
    return hits


def table_least_masks(n: int, ranks):
    """(minima, witnesses): `table_minima`, and for each size the least
    mask attaining its minimum, the first that `table_subsets_attaining`
    lists there."""
    minima = table_minima(n, ranks)
    hits = table_subsets_attaining(ranks, list(enumerate(minima)))
    return minima, [hits[s][0] for s in range(n + 1)]


def matroid_h0(M, J: int) -> int:
    """h0(M, J) = k - r(E - J), read from the matroid's table."""
    full = (1 << M.n) - 1
    return M.k - M.ranks[full ^ J]


def matroid_h1(M, J: int) -> int:
    """h1(M, J) = #(E - J) - r(E - J), read from the matroid's table."""
    comp = ((1 << M.n) - 1) ^ J
    return comp.bit_count() - M.ranks[comp]


def dual_rank_table(n: int, ranks) -> bytes:
    """r*(J) = #J + r(E - J) - r(E), subset by subset."""
    full = (1 << n) - 1
    return bytes(J.bit_count() + ranks[full ^ J] - ranks[full]
                 for J in range(1 << n))


def table_rr_serre(n: int, ranks, dual_ranks,
                   dual_k=None) -> tuple[bool, bool]:
    """(Riemann-Roch, Serre) for a rank table and a dual table, by a scan
    of h0(J) = k - r(E - J), h1(J) = #(E - J) - r(E - J) and the dual
    h0(E - J) = k* - r*(J), subset by subset; k* is the dual table's last
    entry unless given."""
    full = (1 << n) - 1
    k = ranks[full]
    if dual_k is None:
        dual_k = dual_ranks[full]
    rr = serre = True
    for J in range(1 << n):
        comp = full ^ J
        h0, h1 = k - ranks[comp], comp.bit_count() - ranks[comp]
        dual_h0 = dual_k - dual_ranks[J]
        rr = rr and h0 - dual_h0 == J.bit_count() + k - n
        serre = serre and h1 == dual_h0
    return rr, serre


def table_clifford(n: int, ranks) -> bool:
    """h0(J) = k - r(E - J) is at most #J / 2 for every subset J, subset
    by subset."""
    full = (1 << n) - 1
    return all(2 * (ranks[full] - ranks[full ^ J]) <= J.bit_count()
               for J in range(1 << n))


def uniform_rank_table(n: int, k: int) -> bytes:
    """r(J) = min(#J, k), subset by subset."""
    return bytes(min(J.bit_count(), k) for J in range(1 << n))


def bases_rank_table(n: int, bases) -> bytes:
    """r(J) = max #(B & J) over the bases, subset by subset."""
    return bytes(max((b & J).bit_count() for b in bases)
                 for J in range(1 << n))


class SubsetLattice:
    """The boolean lattice of coordinate subsets with a supplied degree."""

    def __init__(self, n: int, degree_fn):
        self.n = n
        self.elements = range(1 << n)
        self._deg = [degree_fn(J) for J in self.elements]

    @classmethod
    def for_code(cls, C):
        tab = C.rank_table()
        # degree of J is dim C_{[n]-J} = k - rank(columns J)
        return cls(C.n, lambda J: C.k - tab[J])

    def __len__(self):
        return 1 << self.n

    def rank(self, J: int) -> int:
        return J.bit_count()

    def degree(self, J: int) -> int:
        return self._deg[J]

    def leq(self, I: int, J: int) -> bool:
        return I & J == I

    def meet(self, I: int, J: int) -> int:
        return I & J

    def join(self, I: int, J: int) -> int:
        return I | J


def lattice_rival_degrees(lattice, filt):
    """At each interior vertex a of a code's canonical filtration, the
    largest degree of a lattice element of rank i_a other than step a, by
    a scan of the code's whole subcode lattice (given as data, like the
    rank tables above)."""
    out = []
    for i_a, step in zip(filt.ranks[1:-1], filt.steps[1:-1]):
        x = lattice.index_of(step)
        out.append(max(lattice.degree(i) for i in range(len(lattice))
                       if i != x and lattice.rank(i) == i_a))
    return tuple(out)


# -- field arithmetic ---------------------------------------------------------

def digits(x: int, p: int, count: int) -> list[int]:
    """The `count` little-endian base-p digits of x."""
    return [x // p ** i % p for i in range(count)]


def poly_rem(a, b, p: int) -> list[int]:
    """Remainder of digit polynomial a modulo the monic digit polynomial b
    (coefficient lists, lowest degree first)."""
    a = list(a)
    while len(a) >= len(b):
        c, off = a[-1], len(a) - len(b)
        for i, bi in enumerate(b):
            a[off + i] = (a[off + i] - c * bi) % p
        a.pop()
    return a


def field_add(p: int, m: int, a: int, b: int) -> int:
    """a + b in GF(p^m): digit-wise sum mod p."""
    return sum((x + y) % p * p ** i for i, (x, y) in
               enumerate(zip(digits(a, p, m), digits(b, p, m))))


def field_mul(p: int, m: int, modulus: int, a: int, b: int) -> int:
    """a * b in GF(p)[x]/(modulus): the schoolbook product of the digit
    polynomials, reduced by the modulus."""
    conv = [0] * (2 * m - 1)
    for i, x in enumerate(digits(a, p, m)):
        for j, y in enumerate(digits(b, p, m)):
            conv[i + j] = (conv[i + j] + x * y) % p
    rem = poly_rem(conv, digits(modulus, p, m + 1), p)
    return sum(d * p ** i for i, d in enumerate(rem))


def is_irreducible(p: int, m: int, modulus: int) -> bool:
    """Trial division by every monic polynomial of degree 1 .. m - 1."""
    f = digits(modulus, p, m + 1)
    return all(any(poly_rem(f, [*tail, 1], p))
               for d in range(1, m) for tail in product(range(p), repeat=d))
