"""Seeded inputs, the op each workload runs, and the checks on its answers.

An op's input is plain data (a field key and generator rows, or an argv
for the `cli` workload), generated from `random.Random(f"{workload}:
{seed}:{index}")`, so op i of a seed is the same on every run and on every
machine.  Each workload walks a fixed cycle of input shapes (SPECS) so
that two seeds differ only in the entries, not in the mix of sizes; that
keeps the per-run figures comparable across seeds.

`run_op` builds every object from the rows inside the timed region, so no
`LinearCode` memo survives from one op to the next.  `summarize` turns the
op's objects into a JSON-able answer and `check` returns a list of
problems (empty when the answer is right).  Checks never reuse the
computation they judge: they use the brute-force oracles of
`tests/oracles.py`, closed forms, or identities between separately
computed outputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from hncodes import (
    LinearCode,
    SubspaceLattice,
    canonical_filtration,
    code_polygon,
    cohomology,
    dual_dlp_check,
    dual_polygon,
    gap_condition_check,
    graded_pieces,
    is_chained,
    is_semistable,
    is_stable,
    matroid_from_bases,
    matroid_from_code,
    rr_check,
    schaathun_bound_table,
    semistability_witness,
    serre_check,
    subset_polygon,
    tensor_semistable_check,
    verify_galois,
    verify_parallelogram,
    wei_duality_check,
    zoo,
)
from hncodes.matroid import (dual_polygon_check, gap_counts_check,
                             gap_duality_check, rr_matroid_check,
                             wei_partition_check)
from hncodes.tensor import witness

import oracles

def op_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _rat(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


# -- input generation ---------------------------------------------------------
#
# Generators are systematic [I | A] with shuffled columns and rows mixed by
# random elementary row operations, so they are full rank by construction
# and reach the library as plain, non-echelon rows.  Only raw field
# arithmetic is used here (as in tests/oracles.py).

def random_rows(rng, field, n: int, k: int, full_support: bool = False):
    q = field.q
    rows = []
    for i in range(k):
        rows.append([1 if j == i else 0 for j in range(k)]
                    + [rng.randrange(q) for _ in range(n - k)])
    if full_support:
        for j in range(k, n):
            while not any(r[j] for r in rows):
                rows[rng.randrange(k)][j] = rng.randrange(1, q)
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[r[p] for p in perm] for r in rows]
    for i in range(k):
        for j in range(k):
            c = rng.randrange(q) if j != i else 0
            if c:
                rows[i] = [field.add(x, field.mul(c, y))
                           for x, y in zip(rows[i], rows[j])]
    return rows


def direct_sum_rows(rng, field, blocks):
    """Block-diagonal generator of full-support random blocks [n_i, k_i],
    columns shuffled: a multi-slope code when the block rates differ."""
    n = sum(b[0] for b in blocks)
    rows, off = [], 0
    for bn, bk in blocks:
        for r in random_rows(rng, field, bn, bk, full_support=True):
            rows.append([0] * off + r + [0] * (n - off - bn))
        off += bn
    perm = list(range(n))
    rng.shuffle(perm)
    return [[r[p] for p in perm] for r in rows]


def partition_bases(sizes):
    """Bases of the partition matroid with one element per block."""
    bases = [0]
    off = 0
    for s in sizes:
        bases = [b | (1 << (off + e)) for b in bases for e in range(s)]
        off += s
    return bases


# -- deep ---------------------------------------------------------------------
# Few codes at the enumeration cap: the 2^n column-rank DFS, the pruned
# min-rank search, the rate-violation search and the filtration scan.

DEEP_SPECS = [
    ("random", "2", 17, 8),
    ("random", "2", 16, 7),
    ("sum", "256", ((4, 3), (7, 2))),
    ("random", "3", 13, 6),
    ("sum", "2", ((4, 3), (6, 3), (7, 2))),
    ("sum", "2", ((5, 4), (5, 3), (6, 2))),
    ("random", "256", 12, 6),
    ("sum", "3", ((6, 4), (9, 3))),
    ("random", "4", 13, 6),
    ("sum", "4", ((5, 4), (8, 3))),
    ("random", "2", 16, 8),
    ("random", "256", 13, 6),
    ("sum", "2", ((6, 5), (10, 3))),
]


def make_deep(seed: int, index: int, fields) -> dict:
    rng = op_rng("deep", seed, index)
    spec = DEEP_SPECS[index % len(DEEP_SPECS)]
    field = fields[spec[1]]
    if spec[0] == "random":
        rows = random_rows(rng, field, spec[2], spec[3])
    else:
        rows = direct_sum_rows(rng, field, spec[2])
    return {"field": spec[1], "rows": rows}


def run_deep(op, fields):
    C = LinearCode.from_rows(fields[op["field"]], op["rows"])
    out = {
        "code": C,
        "hierarchy": C.weight_hierarchy(),
        "dlp": C.dlp(),
        "code_polygon": code_polygon(C),
        "subset_polygon": subset_polygon(C),
        "semistable": is_semistable(C),
        "stable": is_stable(C),
        "witness": semistability_witness(C),
        "filtration": canonical_filtration(C),
        "graded": graded_pieces(C) if C.is_full_support else None,
        "dual_polygon": dual_polygon(C) if C.k < C.n else None,
        "wei": wei_duality_check(C),
    }
    return out


def _poly(P):
    return [[x, _rat(y)] for x, y in P.vertices]


def _sub(S):
    return None if S is None else [S.dim, S.support_mask,
                                   [list(S.basis.row(i))
                                    for i in range(S.dim)]]


def summarize_deep(r) -> dict:
    return {
        "hierarchy": list(r["hierarchy"]),
        "dlp": list(r["dlp"]),
        "code_polygon": _poly(r["code_polygon"]),
        "subset_polygon": _poly(r["subset_polygon"]),
        "semistable": r["semistable"],
        "stable": r["stable"],
        "witness": _sub(r["witness"]),
        "filtration": [_sub(s) for s in r["filtration"].steps],
        "graded": (None if r["graded"] is None
                   else [[g.n, g.k] for g in r["graded"]]),
        "dual_polygon": (None if r["dual_polygon"] is None
                         else _poly(r["dual_polygon"])),
        "wei": r["wei"],
    }


def check_deep(op, r, expected_digests) -> list:
    C = r["code"]
    bad = []
    steps = r["filtration"].steps
    if [(s.dim, s.degree) for s in steps] != list(r["code_polygon"].vertices):
        bad.append("filtration steps differ from the polygon vertices")
    W = r["witness"]
    if r["semistable"] != (W is None):
        bad.append("witness present iff the code is unstable: violated")
    if W is not None and not W.effective_rate > C.effective_rate:
        bad.append("witness rate does not beat the code rate")
    if r["stable"] and not r["semistable"]:
        bad.append("stable but not semistable")
    if r["semistable"] != (r["code_polygon"].N == 1):
        bad.append("semistable verdict disagrees with the polygon")
    if not r["wei"]:
        bad.append("Wei duality fails")
    if r["graded"] is not None:
        if (sum(g.n for g in r["graded"]), sum(g.k for g in r["graded"])) \
                != (C.n, C.k):
            bad.append("graded pieces do not add up to [n, k]")
    if r["dual_polygon"] is not None:
        expect = r["subset_polygon"].opposite().affine(C.n - C.k, -1, 1)
        if r["dual_polygon"] != expect:
            bad.append("dual subset polygon law fails")
        D = C.dual()
        if C.is_full_support and D.is_full_support:
            mus = r["code_polygon"].slopes
            law = tuple(-1 + 1 / (mu + 1) for mu in reversed(mus))
            if code_polygon(D).slopes != law:
                bad.append("dual slope law fails")
    key = digest({"field": op["field"], "rows": op["rows"]})
    if key in expected_digests:
        if expected_digests[key] != digest(summarize_deep(r)):
            bad.append("answer differs from the recorded digest")
    return bad


# -- sweep --------------------------------------------------------------------
# Many tiny codes: object construction, RREF and SubspaceLattice joins.

SWEEP_SPECS = [
    ("2", 5, 3), ("3", 4, 2), ("2", 6, 2), ("4", 5, 2), ("2", 4, 2),
    ("2", 6, 3), ("3", 6, 2), ("2", 5, 2), ("4", 4, 2), ("2", 3, 1),
    ("3", 5, 1), ("2", 4, 3), ("4", 6, 2), ("2", 5, 1), ("3", 5, 2),
]
SWEEP_SUBSETS = 4


def make_sweep(seed: int, index: int, fields) -> dict:
    rng = op_rng("sweep", seed, index)
    fkey, n, k = SWEEP_SPECS[index % len(SWEEP_SPECS)]
    rows = random_rows(rng, fields[fkey], n, k)
    subsets = [rng.randrange(1 << n) for _ in range(SWEEP_SUBSETS)]
    return {"field": fkey, "rows": rows, "subsets": subsets}


def run_sweep(op, fields):
    C = LinearCode.from_rows(fields[op["field"]], op["rows"])
    lat = SubspaceLattice(C)
    out = {
        "code": C,
        "hierarchy": C.weight_hierarchy(),
        "dlp": C.dlp(),
        "semistable": is_semistable(C),
        "stable": is_stable(C),
        "parallelogram": verify_parallelogram(lat),
        "gap_condition": gap_condition_check(C),
        "filtration": canonical_filtration(C),
        "code_polygon": code_polygon(C),
        "reflection": (subset_polygon(C) == code_polygon(C).reflected()
                       if C.is_full_support else None),
        "cohomology": [(c.h0, c.h1) for c in
                       (cohomology(C, J) for J in op["subsets"])],
        "rr": rr_check(C) and serre_check(C),
        "wei": wei_duality_check(C) and dual_dlp_check(C),
        "galois": verify_galois(C) if C.n <= 5 else None,
    }
    return out


def summarize_sweep(r) -> dict:
    return {
        "hierarchy": list(r["hierarchy"]),
        "dlp": list(r["dlp"]),
        "semistable": r["semistable"],
        "stable": r["stable"],
        "parallelogram": r["parallelogram"],
        "gap_condition": r["gap_condition"],
        "filtration": [_sub(s) for s in r["filtration"].steps],
        "reflection": r["reflection"],
        "cohomology": [list(c) for c in r["cohomology"]],
        "rr": r["rr"],
        "wei": r["wei"],
        "galois": r["galois"],
    }


def check_sweep(op, r, expected_digests) -> list:
    field, rows = r["code"].field, op["rows"]
    levels = oracles.subspaces_by_dim(field, rows)
    bad = []
    if tuple(r["hierarchy"]) != oracles.brute_weight_hierarchy(
            field, rows, levels):
        bad.append("weight hierarchy differs from the oracle")
    if tuple(r["dlp"]) != oracles.brute_dlp(field, rows):
        bad.append("profile differs from the oracle")
    if r["semistable"] != oracles.brute_semistable(field, rows, levels):
        bad.append("semistable verdict differs from the oracle")
    if r["stable"] != oracles.brute_stable(field, rows, levels):
        bad.append("stable verdict differs from the oracle")
    n = len(rows[0])
    for J, (h0, h1) in zip(op["subsets"], r["cohomology"]):
        coords = [i for i in range(n) if (J >> i) & 1]
        if (h0, h1) != (oracles.brute_h0(field, rows, coords),
                        oracles.brute_h1(field, rows, coords)):
            bad.append(f"h0/h1 at J={J} differ from the oracle")
    steps = r["filtration"].steps
    if [(s.dim, s.degree) for s in steps] != list(r["code_polygon"].vertices):
        bad.append("filtration steps differ from the polygon vertices")
    for key in ("parallelogram", "gap_condition", "reflection", "rr", "wei",
                "galois"):
        if r[key] is False:
            bad.append(f"{key} check fails")
    return bad


# -- products -----------------------------------------------------------------
# Tensor pairs (Kronecker product, Schaathun DP, witnesses, chain
# condition) and n = 12..16 matroids read through their full rank table.

PRODUCT_SPECS = [
    ("tensor", (3, 2), (4, 2)),
    ("tensor", (4, 2), (4, 3)),
    ("matroid_code", "2", ("sum", ((5, 4), (11, 3)))),
    ("tensor", (3, 2), (6, 3)),
    ("tensor", (2, 1), (8, 4)),
    ("matroid_bases", (3, 3, 3, 3)),
    ("tensor", (3, 2), (5, 2)),
    ("tensor", (4, 3), (4, 2)),
    ("matroid_code", "3", ("random", 13, 6)),
    ("tensor", (3, 1), (5, 3)),
    ("tensor", (2, 1), (9, 5)),
    ("matroid_code", "4", ("random", 12, 6)),
    ("tensor", (3, 2), (4, 3)),
    ("tensor", (4, 2), (4, 2)),
    ("matroid_code", "2", ("random", 14, 7)),
]
TENSOR_WITNESSES = 4


def make_products(seed: int, index: int, fields) -> dict:
    rng = op_rng("products", seed, index)
    spec = PRODUCT_SPECS[index % len(PRODUCT_SPECS)]
    if spec[0] == "tensor":
        # semistable factors only, so every op also runs
        # tensor_semistable_check and ops of one shape cost alike
        factors = []
        for n, k in spec[1:]:
            while True:
                rows = random_rows(rng, fields["2"], n, k, full_support=True)
                if oracles.brute_semistable(fields["2"], rows):
                    break
            factors.append(rows)
        return {"kind": "tensor", "field": "2", "a": factors[0],
                "b": factors[1], "subseed": rng.randrange(1 << 30)}
    if spec[0] == "matroid_bases":
        sizes = list(spec[1])
        rng.shuffle(sizes)
        return {"kind": "matroid_bases", "sizes": sizes}
    fkey, shape = spec[1], spec[2]
    if shape[0] == "random":
        rows = random_rows(rng, fields[fkey], shape[1], shape[2])
    else:
        rows = direct_sum_rows(rng, fields[fkey], shape[1])
    return {"kind": "matroid_code", "field": fkey, "rows": rows}


def run_products(op, fields):
    if op["kind"] == "tensor":
        F = fields[op["field"]]
        A = LinearCode.from_rows(F, op["a"])
        B = LinearCode.from_rows(F, op["b"])
        T = A.tensor(B)
        rng = random.Random(op["subseed"])
        wits = [witness(zoo.random_subcode(rng, T, rng.randrange(1, T.k + 1)),
                        A, B) for _ in range(TENSOR_WITNESSES)]
        semi = (is_semistable(A), is_semistable(B))
        return {
            "A": A, "B": B,
            "hierarchy": T.weight_hierarchy(),
            "bound": schaathun_bound_table(A, B),
            "chained": (is_chained(A), is_chained(B)),
            "witnesses": wits,
            "semistable": semi,
            "preserved": (tensor_semistable_check(A, B) if all(semi)
                          else None),
        }
    code = None
    if op["kind"] == "matroid_bases":
        sizes = op["sizes"]
        M = matroid_from_bases(sum(sizes), partition_bases(sizes))
    else:
        code = LinearCode.from_rows(fields[op["field"]], op["rows"])
        M = matroid_from_code(code)
    return {
        "M": M,
        "code": code,
        "profile": M.profile(),
        "hierarchy": M.hierarchy(),
        "gaps": M.gaps(),
        "polygon": M.polygon(),
        "filtration": M.filtration(),
        "graded": M.graded(),
        "checks": [rr_matroid_check(M), gap_counts_check(M),
                   gap_duality_check(M), wei_partition_check(M),
                   dual_polygon_check(M)],
    }


def summarize_products(r) -> dict:
    if "M" not in r:
        return {
            "hierarchy": list(r["hierarchy"]),
            "bound": list(r["bound"]),
            "chained": list(r["chained"]),
            "witnesses": [[w.r, w.weight, w.cost, w.bound]
                          for w in r["witnesses"]],
            "semistable": list(r["semistable"]),
            "preserved": r["preserved"],
        }
    return {
        "profile": list(r["profile"]),
        "hierarchy": list(r["hierarchy"]),
        "gaps": list(r["gaps"]),
        "polygon": _poly(r["polygon"]),
        "filtration": list(r["filtration"].steps),
        "graded": [[g.n, g.k] for g in r["graded"]],
        "checks": r["checks"],
    }


def _partition_hierarchy(sizes):
    """d_i of a partition matroid: a set of size j contains
    k - (blocks its complement meets) independent dual directions, and the
    complement meets fewest blocks when it fills the largest ones."""
    k, n = len(sizes), sum(sizes)
    big = sorted(sizes, reverse=True)

    def min_rank(m):
        t, acc = 0, 0
        while acc < m:
            acc += big[t]
            t += 1
        return t
    prof = [k - min_rank(n - j) for j in range(n + 1)]
    return tuple(next(j for j in range(n + 1) if prof[j] >= i)
                 for i in range(1, k + 1))


def check_products(op, r, expected_digests) -> list:
    bad = []
    if op["kind"] == "tensor":
        F = r["A"].field
        dA = oracles.brute_weight_hierarchy(F, op["a"])
        dB = oracles.brute_weight_hierarchy(F, op["b"])
        star = r["bound"]
        if any(star[t] != oracles.schaathun_oracle(dA, dB, t)
               for t in range(len(star))):
            bad.append("Schaathun DP differs from the oracle")
        if any(d < s for d, s in zip(r["hierarchy"], star)):
            bad.append("product hierarchy is below the bound")
        chained = (oracles.brute_chained(F, op["a"]),
                   oracles.brute_chained(F, op["b"]))
        if tuple(r["chained"]) != chained:
            bad.append("chain condition differs from the oracle")
        if all(chained) and tuple(r["hierarchy"]) != tuple(star):
            bad.append("chained factors but the bound is not met")
        for w in r["witnesses"]:
            if not (w.weight >= w.cost >= w.bound == star[w.r]):
                bad.append("witness chain fails")
        if r["preserved"] is False:
            bad.append("semistable factors gave an unstable product")
        return bad
    if not all(r["checks"]):
        bad.append("a matroid check fails")
    if op["kind"] == "matroid_bases":
        expect = _partition_hierarchy(op["sizes"])
    else:
        fresh = LinearCode.from_rows(r["code"].field, op["rows"])
        expect = fresh.weight_hierarchy()[1:]
    if tuple(r["hierarchy"]) != tuple(expect):
        bad.append("matroid hierarchy differs from the expected one")
    return bad


WORKLOADS = {
    "deep": (make_deep, run_deep, summarize_deep, check_deep),
    "sweep": (make_sweep, run_sweep, summarize_sweep, check_sweep),
    "products": (make_products, run_products, summarize_products,
                 check_products),
}
