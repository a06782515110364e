"""Acceptance gate: one test per published criterion, each timed against its
stated budget and reported as a single PASS/FAIL line in the terminal summary.

Every numeric anchor here (witness supports, hierarchies, slopes) is asserted
against values that independent oracles in the per-module suites reproduce."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from hncodes import (
    canonical_filtration,
    code_polygon,
    dual_dlp_check,
    enumeration_cap,
    gap_condition_check,
    is_chained,
    is_semistable,
    is_stable,
    rr_check,
    semistability_witness,
    serre_check,
    subset_polygon,
    verify_parallelogram,
    wei_duality_check,
    zoo,
)
from hncodes.hn import subcode_lattice
from hncodes.rr import dual_code_slopes, full_support_status
from hncodes.tensor import (schaathun_bound, schaathun_verify,
                            wei_yang_check, witness as schaathun_witness)

import oracles
from conftest import run_cli, run_criterion

HERE = Path(__file__).resolve().parent
GF2, GF3, GF4 = zoo.gf2(), zoo.gf3(), zoo.gf4()


def random_pool(seed, count, nmax, fields=(2, 3, 4), proper=True):
    rng = random.Random(seed)
    lookup = {2: GF2, 3: GF3, 4: GF4}
    out = []
    for _ in range(count):
        f = lookup[rng.choice(fields)]
        n = rng.randrange(2 if proper else 1, nmax + 1)
        k = rng.randrange(1, n if proper else n + 1)
        out.append(zoo.random_code(rng, f, n, k))
    return out


def test_criterion_01_unstable_9_7():
    """[9,7] binary code: not semistable, witness of dimension 4 living on
    the last five columns with rate 4/5 against code rate 7/9."""
    def body():
        C = zoo.binary_9_7()
        assert C.weight_hierarchy() == (0, 2, 3, 4, 5, 7, 8, 9)
        assert C.dlp() == (0, 0, 1, 2, 3, 4, 4, 5, 6, 7)
        assert not is_semistable(C) and not is_stable(C)
        W = semistability_witness(C)
        assert W is not None and W.dim == 4
        assert W.support_mask == 0b111110000
        assert W.effective_rate == Fraction(4, 5)
        assert C.effective_rate == Fraction(7, 9)
        assert W.effective_rate > C.effective_rate
        P = code_polygon(C)
        assert P.vertices == ((0, 9), (4, 4), (7, 0))
        assert P.slopes == (Fraction(-5, 4), Fraction(-4, 3))
        filt = canonical_filtration(C)
        assert tuple(s.dim for s in filt.steps) == (0, 4, 7)
        assert filt.steps[1].meet(W).dim == 4
        return "witness dim 4 rate 4/5 on columns 5..9; code rate 7/9"
    run_criterion(1, 1.0, body)


def test_criterion_02_stable_5_2_and_its_square():
    """[5,2] code is stable; its coordinatewise square is not semistable,
    destabilized by a one-dimensional weight-one subcode."""
    def body():
        B = zoo.binary_5_2()
        assert is_semistable(B) and is_stable(B)
        assert semistability_witness(B) is None
        S = zoo.binary_5_2_square()
        assert B.schur_product(B).weight_hierarchy() == S.weight_hierarchy()
        assert not is_semistable(S)
        W = semistability_witness(S)
        assert W.dim == 1 and W.weight == 1
        return "square destabilized by a dim-1 weight-1 subcode"
    run_criterion(2, 1.0, body)


def test_criterion_03_stable_3_2_and_simplex():
    """[3,2,2] and the [7,3] simplex code are stable; the simplex weight
    hierarchy is (0, 4, 6, 7)."""
    def body():
        assert is_stable(zoo.binary_3_2())
        S = zoo.simplex(3)
        assert (S.n, S.k) == (7, 3)
        assert is_stable(S)
        assert S.weight_hierarchy() == (0, 4, 6, 7)
        return "simplex hierarchy (0, 4, 6, 7)"
    run_criterion(3, 1.0, body)


def test_criterion_04_wei_duality_and_dual_dlp():
    """Wei duality partition and the dual DLP identity on 500 random codes
    over GF(2), GF(3), GF(4) with n <= 12, every j checked."""
    def body():
        for C in random_pool(2024, 500, 12):
            assert wei_duality_check(C)
            assert dual_dlp_check(C)
        return "500 random codes, q in {2, 3, 4}, n <= 12"
    run_criterion(4, 60.0, body)


def test_criterion_05_riemann_roch_and_serre():
    """The dimension formula and the h1/h0 complement identity over all 2^n
    subsets for 200 random codes with n <= 12."""
    def body():
        with enumeration_cap(12):
            for C in random_pool(2025, 200, 12):
                assert rr_check(C)
                assert serre_check(C)
        return "200 random codes, all 2^n subsets each"
    run_criterion(5, 60.0, body)


def test_criterion_06_dual_slope_law():
    """For every tested code that is full support with full support dual,
    the dual polygon slopes are -1 + 1/(mu + 1) of the reversed primal
    slopes, and mu = -2 is the fixed point."""
    def body():
        pool = random_pool(2026, 400, 10) + [
            zoo.binary_9_7(), zoo.binary_5_2(), zoo.binary_3_2(),
            zoo.hamming_7_4(), zoo.simplex(3), zoo.extended_hamming_8_4()]
        tested = 0
        for C in pool:
            if full_support_status(C) != (True, True):
                continue
            expect = tuple(-1 + Fraction(1, mu + 1)
                           for mu in reversed(code_polygon(C).slopes))
            assert dual_code_slopes(C) == expect
            assert code_polygon(C.dual()).slopes == expect
            tested += 1
        assert tested >= 100
        R = zoo.repetition(GF2, 2)
        assert code_polygon(R).slopes == (Fraction(-2),)
        assert dual_code_slopes(R) == (Fraction(-2),)
        return f"{tested} full-support codes; fixed point at mu = -2"
    run_criterion(6, None, body)


def test_criterion_07_lattice_and_filtration_engine():
    """Parallelogram identity on the full subcode lattice, polygon
    reflection, filtration steps pinned to polygon vertices, and the gap
    condition, exhaustively over all binary codes with k <= 3, n <= 6."""
    def body():
        count = 0
        for n in range(1, 7):
            for C in zoo.iter_all_codes(GF2, n, kmax=min(3, n)):
                assert verify_parallelogram(subcode_lattice(C))
                P = code_polygon(C)
                if C.is_full_support:
                    assert subset_polygon(C) == P.reflected()
                filt = canonical_filtration(C)
                assert len(filt.steps) == len(P.vertices)
                for s, (x, y) in zip(filt.steps, P.vertices):
                    assert (s.dim, s.degree) == (x, y)
                assert gap_condition_check(C)
                count += 1
        return f"{count} binary codes, k <= 3, n <= 6"
    run_criterion(7, None, body)


def test_criterion_08_schaathun_bound():
    """The dynamic program equals brute enumeration, the tensor hierarchy
    dominates the bound for every binary pair with nA, nB <= 3, equality
    holds for chained pairs, and 1000 random subcode witnesses satisfy
    weight >= cost >= bound."""
    def body():
        rng = random.Random(2028)
        hier_pool = []
        for k in range(1, 5):
            for combo in itertools.combinations(range(1, 9), k):
                hier_pool.append((0,) + combo)
        for _ in range(200):
            dA, dB = rng.choice(hier_pool), rng.choice(hier_pool)
            kA, kB = len(dA) - 1, len(dB) - 1
            for r in range(1, kA * kB + 1):
                assert schaathun_bound(dA, dB, r) == \
                    oracles.schaathun_oracle(dA, dB, r)
        pool = [C for n in range(1, 4) for C in zoo.iter_all_codes(GF2, n)]
        chained_pairs = 0
        for A, B in itertools.product(pool, repeat=2):
            assert schaathun_verify(A, B)
            if is_chained(A) and is_chained(B):
                assert wei_yang_check(A, B)
                chained_pairs += 1
        for _ in range(1000):
            A, B = rng.choice(pool), rng.choice(pool)
            T = A.tensor(B)
            D = zoo.random_subcode(rng, T, rng.randrange(1, T.k + 1))
            w = schaathun_witness(D, A, B)
            assert w.weight >= w.cost >= w.bound
        return (f"{len(pool) ** 2} pairs, {chained_pairs} with equality, "
                "1000 witnesses")
    run_criterion(8, 120.0, body)


def test_criterion_09_tensor_semistability():
    """Tensor products of semistable factors are semistable: exhaustive over
    all ordered-up-to-swap pairs of semistable binary codes with n <= 4,
    plus spot checks up to product length 15."""
    def body():
        pool = [C for n in range(1, 5) for C in zoo.iter_all_codes(GF2, n)
                if is_semistable(C)]
        pairs = 0
        for A, B in itertools.combinations_with_replacement(pool, 2):
            assert is_semistable(A.tensor(B))
            pairs += 1
        spots = [(zoo.binary_3_2(), zoo.binary_5_2()),
                 (zoo.repetition(GF2, 2), zoo.hamming_7_4()),
                 (zoo.repetition(GF2, 2), zoo.simplex(2)),
                 (zoo.binary_3_2(), zoo.parity(GF2, 5))]
        for A, B in spots:
            assert A.n * B.n <= 15
            assert is_semistable(A) and is_semistable(B)
            assert is_semistable(A.tensor(B))
        return f"{pairs} exhaustive pairs + {len(spots)} spot checks"
    run_criterion(9, None, body)


def test_criterion_10_matroid_suite():
    """Matroid duality and counting theorems, exhaustively per matroid:
    every uniform matroid with n <= 10 and random code matroids with
    n <= 10, checking the rank-difference formula, gap counts of exactly
    n - k, the partition of gaps against the dual, double-dual involution,
    and agreement of matroid h0 with the code's subset dimensions."""
    from hncodes import matroid_from_code
    from hncodes.matroid import (gap_counts_check, gap_duality_check,
                                 rr_matroid_check, uniform_matroid,
                                 wei_partition_check)

    def body():
        counted = 0
        for n in range(1, 11):
            for k in range(0, n + 1):
                M = uniform_matroid(k, n)
                assert rr_matroid_check(M) and gap_counts_check(M)
                assert wei_partition_check(M) and gap_duality_check(M)
                assert len(M.gaps()) == n - len(M.hierarchy())
                assert M.dual().dual() == M
                counted += 1
        rng = random.Random(2030)
        lookup = [GF2, GF3, GF4]
        for _ in range(60):
            f = rng.choice(lookup)
            n = rng.randrange(1, 11)
            C = zoo.random_code(rng, f, n, rng.randrange(1, n + 1))
            M = matroid_from_code(C)
            assert rr_matroid_check(M) and gap_counts_check(M)
            assert wei_partition_check(M) and gap_duality_check(M)
            assert M.hierarchy() == C.weight_hierarchy()[1:]
            assert len(M.gaps()) == C.n - C.k
            assert M.dual().dual() == M
            for J in range(1 << n):
                assert oracles.matroid_h0(M, J) == C.subset_dim(J)
            counted += 1
        return f"{counted} matroids, all subsets each"
    run_criterion(10, None, body)


def test_criterion_11_cli_determinism_and_goldens():
    """The self test passes, repeated CLI runs are byte identical, and every
    checked-in golden output (`test_cli.GOLDEN_CASES`) matches fresh runs
    exactly."""
    from test_cli import GOLDEN_CASES

    def body():
        proc = run_cli("selftest")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["results"]["all_ok"] is True
        for name, args in GOLDEN_CASES:
            first, second = run_cli(*args), run_cli(*args)
            assert first.returncode == 0, first.stderr
            assert second.returncode == 0, second.stderr
            assert first.stdout == second.stdout
            assert first.stdout == (HERE / "golden" / name).read_text()
        return f"selftest ok; {len(GOLDEN_CASES)} goldens byte-identical"
    run_criterion(11, None, body)
