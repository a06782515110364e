"""Weight hierarchies of tensor product codes.

For codes A, B the product A (x) B is spanned by the Kronecker products of
their generator rows; its codewords, read as nA x nB matrices, have all
columns in A and all rows in B.  The generalized distances of the product
obey Schaathun's lower bound

    d_r(A (x) B) >= d*_r = min sum_i (d_i(A) - d_{i-1}(A)) * d_{t_i}(B)

over nonincreasing integer sequences kB >= t_1 >= ... >= t_{kA} >= 0 with
sum t_i >= r, with equality for all r when both factors satisfy the chain
condition (nested minimum-support subcodes in every dimension).  The
table of d*_r is the suffix minima of one integer pass, `_exact_costs`.
"""

from __future__ import annotations

import random
from itertools import accumulate

from .algebra import _check_cap, subsets_where
from .code import LinearCode, Subcode, mask_of
from .errors import InvalidHierarchy, InvariantViolation, NotASubcode
from .hn import is_semistable

# random subcodes of the product certified by tensor_semistable_check
_CERTIFIED_SUBCODES = 20


def _validate_hierarchy(d, label: str) -> tuple[int, ...]:
    d = tuple(int(x) for x in d)
    if not d or d[0] != 0:
        raise InvalidHierarchy(f"{label} must start with d_0 = 0")
    for i in range(1, len(d)):
        if d[i] <= d[i - 1]:
            raise InvalidHierarchy(
                f"{label} must be strictly increasing (position {i})")
    return d


def _exact_costs(dA, dB) -> list[int]:
    """E[s], s = 0..kA kB: the least cost above with sum t_i == s, for two
    valid hierarchies.  After factor i, ends[t] maps each sum of t_1..t_i
    to the least cost with t_i >= t, which factor i + 1 taking t extends.
    t = (kB, ..., kB, s mod kB, 0, ...) reaches every s."""
    kB = len(dB) - 1
    ends = [{0: 0}] * (kB + 1)          # before factor 1, the ceiling is kB
    for a, b in zip(dA, dA[1:]):
        best = {}
        for t in range(kB, -1, -1):      # best: the new sequences, t_i >= t
            for s, c in ends[t].items():
                c += (b - a) * dB[t]
                if best.get(s + t, c) >= c:
                    best[s + t] = c
            ends[t] = dict(best)
    return [ends[0][s] for s in range(len(ends[0]))]


def schaathun_bound(dA, dB, r: int, exact_sum: bool = False) -> int:
    """d*_r from the two weight hierarchies (d_0, ..., d_k) of the factors.

    With exact_sum=True the minimum runs over sequences with sum t_i == r
    instead of >= r; both forms take the same value.
    """
    E = _exact_costs(_validate_hierarchy(dA, "first hierarchy"),
                     _validate_hierarchy(dB, "second hierarchy"))
    if not 0 <= r < len(E):
        raise InvariantViolation(f"r must lie in [0, {len(E) - 1}], got {r}")
    return E[r] if exact_sum else min(E[r:])


def schaathun_bound_table(A: LinearCode, B: LinearCode) -> tuple[int, ...]:
    """(d*_0, ..., d*_{kA kB}) for the pair of codes, from one pass."""
    E = _exact_costs(A.weight_hierarchy(), B.weight_hierarchy())
    return tuple(accumulate(reversed(E), min))[::-1]


def tensor_product(A: LinearCode, B: LinearCode) -> LinearCode:
    """A (x) B, refused past the cap before the Kronecker product."""
    _check_cap(A.n * B.n)
    return A.tensor(B)


def schaathun_verify(A: LinearCode, B: LinearCode) -> bool:
    """d_r(A (x) B) >= d*_r for every r, by exact computation."""
    C = tensor_product(A, B)
    d = C.weight_hierarchy()
    star = schaathun_bound_table(A, B)
    return all(d[r] >= star[r] for r in range(C.k + 1))


class SchaathunWitness:
    """Certificate that a subcode D of A (x) B has weight >= d*_{dim D}.

    column_dims[j] and supports[j] are the dimension and the support (a
    bitmask over A's coordinates) of the j-th column projection of D, a
    subcode of A; J[i] collects the columns where that dimension is at
    least i + 1; t[i] is the dimension of B shortened to J[i], read off
    B's rank table (`subset_dim`).  The recorded chain is

        weight(D) = sum_j #supports[j]
                  >= sum_i (d_i(A) - d_{i-1}(A)) * #J_i
                  >= sum_i (d_i(A) - d_{i-1}(A)) * d_{t_i}(B) = cost
                  >= d*_{dim D}.
    """

    __slots__ = ("r", "weight", "column_dims", "supports", "J", "t", "cost",
                 "bound")

    def __init__(self, r, weight, column_dims, supports, J, t, cost, bound):
        self.r = r
        self.weight = weight
        self.column_dims = column_dims
        self.supports = supports
        self.J = J
        self.t = t
        self.cost = cost
        self.bound = bound


def witness(D: Subcode, A: LinearCode, B: LinearCode) -> SchaathunWitness:
    """Build and check the weight certificate for a subcode of A (x) B.

    D must lie in the product: A (x) B is exactly the set of arrays whose
    columns lie in A and whose rows lie in B, so membership is one rank
    test of D's basis against the product's generator (NotASubcode, or
    FieldMismatch), skipped when D is a subcode of that product.  Matrix
    column j of D's basis has the column tokens tok[j::nB] (one
    `independence` pass): its support is where they are nonzero, its
    dimension the number taken when contracted from left to right.  d*_r
    is read off the product's table, one pass per product (`_tensor`)."""
    nA, nB = A.n, B.n
    if D.parent.n != nA * nB:
        raise NotASubcode("ambient length is not the product of the "
                          "factor lengths")
    T = A.tensor(B)
    if (D.parent is not T and D.parent != T
            and T.gen.extend(D.basis).rows != T.k):
        raise NotASubcode("a basis vector has a matrix column outside the "
                          "first factor or a matrix row outside the second")
    r, weight = D.dim, D.weight
    dA = A.weight_hierarchy()
    dB = B.weight_hierarchy()
    tok, contract, _ = D.basis.independence()
    column_dims, supports = [], []
    for j in range(nB):
        tail = tok[j::nB]
        supp, rank = sum(1 << a for a, w in enumerate(tail) if w), 0
        while tail:
            v, tail = tail[0], tail[1:]
            if v:
                rank, tail = rank + 1, contract(tail, v)
        # per-column support decomposition of the weight, each piece
        # bounded below through the hierarchy of the first factor
        if supp.bit_count() < dA[rank]:
            raise InvariantViolation(
                f"column {j} projection beats the hierarchy of the first "
                "factor")
        column_dims.append(rank)
        supports.append(supp)
    if sum(supp.bit_count() for supp in supports) != weight:
        raise InvariantViolation("per-column supports do not add up to "
                                 "the weight")
    top = max(column_dims, default=0)
    J = tuple(frozenset(j for j in range(nB) if column_dims[j] >= i)
              for i in range(1, top + 1))
    t = tuple(B.subset_dim(mask_of(Ji)) for Ji in J)
    # dimension estimate: the t_i dominate r
    if sum(t) < r:
        raise InvariantViolation("shortened dimensions fail to cover the "
                                 "subcode dimension")
    for i in range(1, len(t)):
        if t[i] > t[i - 1]:
            raise InvariantViolation("shortened dimensions must be "
                                     "nonincreasing")
    cost = 0
    for i, Ji in enumerate(J, start=1):
        step = dA[i] - dA[i - 1]
        if dB[t[i - 1]] > len(Ji):
            raise InvariantViolation("a column set is smaller than the "
                                     "distance it must dominate")
        cost += step * dB[t[i - 1]]
    if A._tensor[2] is None:
        A._tensor = (B, T, schaathun_bound_table(A, B))
    bound = A._tensor[2][r]
    if not weight >= cost >= bound:
        raise InvariantViolation("certificate chain fails: "
                                 f"{weight} >= {cost} >= {bound}")
    return SchaathunWitness(r, weight, tuple(column_dims), tuple(supports),
                            J, t, cost, bound)


def tensor_semistable_check(A: LinearCode, B: LinearCode) -> bool:
    """Semistable factors give a semistable product (checked exactly).

    Alongside the exact verdict, random subcodes of the product, exactly
    uniform in their dimension (`zoo.random_subcode`), are certified and
    w(D) >= dim(D) / R(A (x) B) is rechecked on each.
    """
    from .zoo import random_subcode
    if not (is_semistable(A) and is_semistable(B)):
        raise InvariantViolation("both factors must be semistable")
    C = tensor_product(A, B)
    rng = random.Random(0x7E45)
    for _ in range(_CERTIFIED_SUBCODES):
        D = random_subcode(rng, C, rng.randrange(1, C.k + 1))
        cert = witness(D, A, B)
        # w(D) < dim(D) / R(C), with R(C) = k / w(C), in integers
        if cert.weight * C.k < cert.r * C.weight:
            raise InvariantViolation(
                "a sampled subcode violates the semistability inequality")
    return is_semistable(C)


def _levels(C: LinearCode):
    """For each i, the supports of the minimum-weight i-dimensional
    subcodes: {J : #J = d_i, dim of the shortening to J is i}, i.e. the
    complements of the (n - d_i)-column subsets of rank k - i, read off
    the code's rank table."""
    d = C.weight_hierarchy()
    n, k, tab = C.n, C.k, C.rank_table()
    full = (1 << n) - 1
    return [[full ^ S for S in subsets_where(tab, n - d[i], k - i)]
            for i in range(1, k + 1)]


def is_chained(C: LinearCode) -> bool:
    """Chain condition: nested subcodes D_1 < ... < D_k with each D_i of
    dimension i and weight d_i.  Decided by reachability through the
    levels of minimum supports ordered by inclusion.  The verdict is kept
    on C; every call reads the code's rank table, which charges the cap."""
    C.rank_table()
    if C._chained is None:
        reach = {0}                      # the empty support is below all
        for lvl in _levels(C):
            reach = {Jn for Jn in lvl if any(Jp & Jn == Jp for Jp in reach)}
        C._chained = bool(reach)
    return C._chained


def wei_yang_check(A: LinearCode, B: LinearCode) -> bool:
    """When both factors are chained the bound is met with equality:
    d_r(A (x) B) == d*_r for every r."""
    if not (is_chained(A) and is_chained(B)):
        raise InvariantViolation("both factors must satisfy the chain "
                                 "condition")
    C = tensor_product(A, B)
    d = C.weight_hierarchy()
    star = schaathun_bound_table(A, B)
    return tuple(d) == star
