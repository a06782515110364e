"""Command line interface.

Every subcommand prints one JSON report on standard output (or CSV with
--format csv) and exits 0 on success, 1 when a theorem check failed on
the given input (which indicates an implementation bug and is never
accepted silently), 2 on usage and parse errors, 3 on invariant
violations, and 4 when an enumeration cap would be exceeded.  Reports are
byte-identical across runs for identical inputs and flags; timing goes
to standard error only.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import random
import sys
import time
from fractions import Fraction

from . import __version__
from .algebra import SUBSET_ENUM_CAP, enumeration_cap
from .code import bits_of
from .errors import (Error, InvariantViolation, NotFullSupport, ParseError,
                     SizeLimitExceeded)
from .formats import parse_code_file, parse_matroid_file
from .hn import (canonical_filtration, code_polygon, gap_condition_check,
                 is_semistable, is_stable, profile_gaps, profile_hierarchy,
                 semistability_witness, subcode_lattice, subset_polygon,
                 subset_profile, verify_galois, verify_parallelogram)
from .matroid import (dual_polygon_check, gap_counts_check,
                      gap_duality_check, matroid_from_code,
                      rr_matroid_check, uniform_matroid,
                      wei_partition_check)
from .rr import (cohomology, dual_code_slopes, dual_dlp_check, dual_polygon,
                 dual_subset_polygon_check, rr_check, rr_normalized,
                 wei_duality_check)
from .tensor import (is_chained, schaathun_bound, schaathun_bound_table,
                     schaathun_verify, tensor_product,
                     tensor_semistable_check, wei_yang_check, witness)
from . import zoo


# -- report plumbing --------------------------------------------------------

def _rat(x) -> str:
    fr = Fraction(x)
    return f"{fr.numerator}/{fr.denominator}"


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _report(command: str, paths, results: dict) -> dict:
    return {
        "schema": "hn-codes/1",
        "version": __version__,
        "command": command,
        "inputs": [{"path": p, "sha256": _sha256(p)} for p in paths],
        "results": results,
    }


def _coords(mask: int) -> dict:
    return {"mask": mask, "coords": bits_of(mask)}


def _polygon_obj(P) -> dict:
    return {
        "vertices": [[x, _rat(y)] for x, y in P.vertices],
        "slopes": [_rat(s) for s in P.slopes],
        "segments": P.N,
    }


def _flatten(obj, prefix, rows):
    if isinstance(obj, dict):
        for key, val in obj.items():
            _flatten(val, f"{prefix}.{key}" if prefix else key, rows)
    elif isinstance(obj, (list, tuple)):
        for i, val in enumerate(obj):
            _flatten(val, f"{prefix}[{i}]", rows)
    else:
        rows.append((prefix, obj))


def _emit(report: dict, fmt: str):
    if fmt == "json":
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        rows = []
        _flatten(report, "", rows)
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["key", "value"])
        for key, val in rows:
            if val is None:
                val = ""
            elif isinstance(val, bool):
                val = "true" if val else "false"
            w.writerow([key, val])
        sys.stdout.write(buf.getvalue())


def _cap(args) -> int:
    """--max-enum, announced on stderr when raised; matroid and selftest
    take none and run at the default."""
    cap = getattr(args, "max_enum", SUBSET_ENUM_CAP)
    if cap > SUBSET_ENUM_CAP:
        print(f"warning: enumeration cap raised to {cap} "
              f"(up to 2^{cap} items per exhaustive search)",
              file=sys.stderr)
    return cap


# -- SVG rendering ----------------------------------------------------------

def _svg_polygon(P, cloud, side: str) -> str:
    scale, margin = 48, 56
    xmax = max([x for x, _ in P.vertices] + [x for x, _ in cloud] + [1])
    ymax = max([float(y) for _, y in P.vertices]
               + [float(y) for _, y in cloud] + [1.0])
    ymax = int(ymax) if ymax == int(ymax) else ymax
    width = 2 * margin + xmax * scale
    height = 2 * margin + float(ymax) * scale

    def X(x) -> str:
        return f"{margin + float(x) * scale:.1f}"

    def Y(y) -> str:
        return f"{margin + (float(ymax) - float(y)) * scale:.1f}"

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{side} polygon</text>',
        # axes
        f'<line x1="{X(0)}" y1="{Y(0)}" x2="{X(xmax)}" y2="{Y(0)}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{X(0)}" y1="{Y(0)}" x2="{X(0)}" y2="{Y(ymax)}" '
        'stroke="black" stroke-width="1"/>',
        f'<text x="{X(xmax)}" y="{float(Y(0)) + 32:.1f}" '
        'text-anchor="end" font-family="monospace" font-size="11">rank</text>',
        f'<text x="{float(X(0)) - 36:.1f}" y="{Y(ymax)}" '
        'font-family="monospace" font-size="11">degree</text>',
    ]
    for i in range(xmax + 1):
        out.append(f'<line x1="{X(i)}" y1="{float(Y(0)) - 3:.1f}" '
                   f'x2="{X(i)}" y2="{float(Y(0)) + 3:.1f}" stroke="black"/>')
        out.append(f'<text x="{X(i)}" y="{float(Y(0)) + 16:.1f}" '
                   'text-anchor="middle" font-family="monospace" '
                   f'font-size="10">{i}</text>')
    for j in range(int(float(ymax)) + 1):
        out.append(f'<line x1="{float(X(0)) - 3:.1f}" y1="{Y(j)}" '
                   f'x2="{float(X(0)) + 3:.1f}" y2="{Y(j)}" stroke="black"/>')
        out.append(f'<text x="{float(X(0)) - 8:.1f}" y="{float(Y(j)) + 3:.1f}" '
                   'text-anchor="end" font-family="monospace" '
                   f'font-size="10">{j}</text>')
    for x, y in cloud:
        out.append(f'<circle cx="{X(x)}" cy="{Y(y)}" r="3" fill="#999999"/>')
    pts = " ".join(f"{X(x)},{Y(y)}" for x, y in P.vertices)
    out.append(f'<polyline points="{pts}" fill="none" stroke="#1f6feb" '
               'stroke-width="2"/>')
    for x, y in P.vertices:
        out.append(f'<circle cx="{X(x)}" cy="{Y(y)}" r="4" fill="#1f6feb"/>')
        label = f"({x}, {y})"
        out.append(f'<text x="{float(X(x)) + 6:.1f}" '
                   f'y="{float(Y(y)) - 6:.1f}" font-family="monospace" '
                   f'font-size="11">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# -- subcommands ------------------------------------------------------------

def cmd_weights(args):
    C = parse_code_file(args.file)
    results = {
        "n": C.n,
        "k": C.k,
        "q": C.field.q,
        "weight": C.weight,
        "support": bits_of(C.support_mask),
        "weight_hierarchy": list(C.weight_hierarchy()),
        "dlp": list(C.dlp()),
    }
    return _report("weights", [args.file], results), False


def cmd_polygon(args):
    C = parse_code_file(args.file)
    if args.side == "code":
        P = code_polygon(C)
        d = C.weight_hierarchy()
        cloud = [(i, Fraction(C.n - d[i])) for i in range(C.k + 1)]
    else:
        P = subset_polygon(C)
        kj = C.dlp()
        cloud = [(j, Fraction(kj[C.n - j])) for j in range(C.n + 1)]
    results = {
        "side": args.side,
        "polygon": _polygon_obj(P),
        "mu_max": _rat(P.mu_max) if P.N else None,
        "mu_min": _rat(P.mu_min) if P.N else None,
        "point_cloud": [[x, _rat(y)] for x, y in cloud],
    }
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(_svg_polygon(P, cloud, args.side))
    return _report("polygon", [args.file], results), False


def cmd_filtration(args):
    C = parse_code_file(args.file)
    F = canonical_filtration(C)
    steps = []
    for step, slope in zip(F.steps[1:], F.slopes):
        steps.append({
            "dim": step.dim,
            "support": _coords(step.support_mask),
            "weight": step.weight,
            "basis": [list(step.basis.row(i)) for i in range(step.dim)],
            "slope": _rat(slope),
        })
    results = {
        "n": C.n,
        "k": C.k,
        "length": len(F.steps) - 1,
        "steps": steps,
        "polygon": _polygon_obj(F.polygon),
    }
    return _report("filtration", [args.file], results), False


def cmd_semistable(args):
    C = parse_code_file(args.file)
    P = code_polygon(C)
    ss = is_semistable(C)
    witness_obj = None
    if not ss:
        W = semistability_witness(C)
        witness_obj = {
            "dim": W.dim,
            "support": _coords(W.support_mask),
            "weight": W.weight,
            "rate": _rat(W.effective_rate),
        }
    results = {
        "n": C.n,
        "k": C.k,
        "rate": _rat(C.effective_rate),
        "semistable": ss,
        "stable": is_stable(C),
        "mu_max": _rat(P.mu_max),
        "mu_min": _rat(P.mu_min),
        "witness": witness_obj,
    }
    return _report("semistable", [args.file], results), False


def cmd_dual(args):
    C = parse_code_file(args.file)
    D = C.dual()
    subset_ok = dual_subset_polygon_check(C)
    violated = not subset_ok
    slope_map: dict
    try:
        slopes = dual_code_slopes(C)
        slope_map = {
            "applicable": True,
            "ok": True,
            "primal_slopes": [_rat(s) for s in code_polygon(C).slopes],
            "dual_slopes": [_rat(s) for s in slopes],
        }
    except NotFullSupport as e:
        detail: dict = {"applicable": False, "side": e.side}
        if e.side == "primal":
            detail["zero_columns"] = bits_of(e.zero_columns)
        else:
            W = e.weight_one_span
            detail["weight_one_span"] = {
                "dim": W.dim,
                "support": bits_of(W.support_mask),
            }
        slope_map = detail
    except InvariantViolation as e:
        slope_map = {"applicable": True, "ok": False, "detail": str(e)}
        violated = True
    results = {
        "n": C.n,
        "k": C.k,
        "dual_k": D.k,
        "dual_generator": [list(D.gen.row(i)) for i in range(D.k)],
        "dual_polygon": _polygon_obj(dual_polygon(C)),
        "subset_polygon_duality_ok": subset_ok,
        "slope_map": slope_map,
    }
    return _report("dual", [args.file], results), violated


def cmd_rr(args):
    C = parse_code_file(args.file)
    if args.all:
        ok = rr_check(C)  # Serre is the same table identity
        results = {
            "n": C.n,
            "k": C.k,
            "subsets": 1 << C.n,
            "rr_ok": ok,
            "serre_ok": ok,
        }
        return _report("rr", [args.file], results), not ok
    J = args.J
    if not 0 <= J < (1 << C.n):
        raise InvariantViolation(f"--J {J:#x} outside the coordinate range")
    pair = cohomology(C, J)
    size = J.bit_count()
    euler_ok = pair.h0 - pair.h1 == size + C.k - C.n
    if C.k < C.n:
        D = C.dual()
        full = (1 << C.n) - 1
        h0_dual = D.shorten(full ^ J).dim
        rr_ok = pair.h0 - h0_dual == size + C.k - C.n
        serre_ok = pair.h1 == h0_dual
    else:
        h0_dual = None
        rr_ok = euler_ok
        serre_ok = None
    deg_term, genus = rr_normalized(C, J)
    results = {
        "n": C.n,
        "k": C.k,
        "J": _coords(J),
        "h0": pair.h0,
        "h1": pair.h1,
        "dual_h0_on_complement": h0_dual,
        "euler_ok": euler_ok,
        "rr_ok": rr_ok,
        "serre_ok": serre_ok,
        "genus": genus,
        "normalized_degree": deg_term,
    }
    violated = not (euler_ok and rr_ok and (serre_ok is not False))
    return _report("rr", [args.file], results), violated


def cmd_tensor(args):
    A = parse_code_file(args.file_a)
    B = parse_code_file(args.file_b)
    T = tensor_product(A, B)
    bound_ok = schaathun_verify(A, B)
    chained_a, chained_b = is_chained(A), is_chained(B)
    wei_yang = {"applicable": chained_a and chained_b, "ok": None}
    if wei_yang["applicable"]:
        wei_yang["ok"] = wei_yang_check(A, B)
    ss_a, ss_b = is_semistable(A), is_semistable(B)
    preservation = {"applicable": ss_a and ss_b, "ok": None}
    if preservation["applicable"]:
        preservation["ok"] = tensor_semistable_check(A, B)
    results = {
        "A": {"n": A.n, "k": A.k, "q": A.field.q},
        "B": {"n": B.n, "k": B.k, "q": B.field.q},
        "product": {"n": T.n, "k": T.k, "weight": T.weight,
                    "rate": _rat(T.effective_rate)},
        "weight_hierarchy": list(T.weight_hierarchy()),
        "schaathun_bound": list(schaathun_bound_table(A, B)),
        "bound_ok": bound_ok,
        "chained": {"A": chained_a, "B": chained_b},
        "wei_yang": wei_yang,
        "semistable": {"A": ss_a, "B": ss_b,
                       "product": is_semistable(T),
                       "preservation": preservation},
    }
    violated = (not bound_ok
                or wei_yang["ok"] is False
                or preservation["ok"] is False)
    return _report("tensor", [args.file_a, args.file_b], results), violated


def cmd_matroid(args):
    X = parse_matroid_file(args.file)           # a code or a rank table
    checks = {
        "rr": rr_check(X),
        "gap_counts": gap_counts_check(X),
        "gap_duality": gap_duality_check(X),
        "wei_partition": wei_partition_check(X),
        "dual_polygon": dual_polygon_check(X),
    }
    kj, P = subset_profile(X), subset_polygon(X)
    gaps, nongaps = profile_gaps(kj)
    results = {
        "n": X.n,
        "k": X.k,
        "hierarchy": list(profile_hierarchy(X.k, kj)[1:]),
        "profile": list(kj),
        "gaps": list(gaps),
        "nongaps": list(nongaps),
        "polygon": _polygon_obj(P),
        "semistable": P.N <= 1,
        "checks": checks,
        "all_ok": all(checks.values()),
    }
    return _report("matroid", [args.file], results), not all(checks.values())


# -- selftest ---------------------------------------------------------------

def _selftest_checks():
    f2, f3, f4 = zoo.gf2(), zoo.gf3(), zoo.gf4()
    out = []

    def check(name, fn):
        try:
            ok = bool(fn())
        except Error:
            ok = False
        out.append({"name": name, "ok": ok})

    def ex97():
        C = zoo.binary_9_7()
        P = code_polygon(C)
        W = semistability_witness(C)
        return (C.weight_hierarchy() == (0, 2, 3, 4, 5, 7, 8, 9)
                and [(x, y) for x, y in P.vertices]
                == [(0, 9), (4, 4), (7, 0)]
                and not is_semistable(C)
                and W.dim == 4
                and sorted(bits_of(W.support_mask)) == [4, 5, 6, 7, 8]
                and W.effective_rate == Fraction(4, 5)
                and C.effective_rate == Fraction(7, 9))
    check("example-9-7", ex97)

    def ex52():
        C = zoo.binary_5_2()
        S = C.schur_product(C)
        W = semistability_witness(S)
        return (is_stable(C)
                and code_polygon(C).slopes == (Fraction(-5, 2),)
                and not is_semistable(S)
                and S.weight_hierarchy() == (0, 1, 3, 5)
                and W.dim == 1 and W.weight == 1)
    check("example-5-2-and-schur-square", ex52)

    def ex322():
        C = zoo.binary_3_2()
        S = zoo.simplex(3)
        return (is_stable(C)
                and C.weight_hierarchy() == (0, 2, 3)
                and is_stable(S)
                and S.weight_hierarchy() == (0, 4, 6, 7))
    check("example-3-2-2-and-simplex", ex322)

    rng = random.Random(0xD0E5)

    def pool(count, nmax, fields=(f2, f3, f4)):
        for _ in range(count):
            f = rng.choice(fields)
            n = rng.randrange(2, nmax + 1)
            k = rng.randrange(1, n)
            yield zoo.random_code(rng, f, n, k)

    check("wei-duality-and-dual-dlp",
          lambda: all(wei_duality_check(C) and dual_dlp_check(C)
                      for C in pool(30, 9)))
    check("riemann-roch-and-serre",          # Serre is rr_check's identity
          lambda: all(rr_check(C) for C in pool(15, 8)))
    check("dual-subset-polygon",
          lambda: all(dual_subset_polygon_check(C) for C in pool(20, 8)))

    def dual_slopes_ok():
        seen = 0
        for C in pool(60, 7, fields=(f2, f3)):
            if C.is_full_support and C.k < C.n and C.weight_hierarchy()[1] >= 2:
                dual_code_slopes(C)
                seen += 1
        R = zoo.repetition(f2, 2)
        return seen > 0 and dual_code_slopes(R) == (Fraction(-2),)
    check("dual-slope-law", dual_slopes_ok)

    def galois_engine():
        for n in range(1, 5):
            for C in zoo.iter_all_codes(f2, n, kmax=min(2, n)):
                if not (verify_parallelogram(subcode_lattice(C))
                        and verify_galois(C)
                        and gap_condition_check(C)):
                    return False
                if C.is_full_support and (subset_polygon(C)
                                          != code_polygon(C).reflected()):
                    return False
                if canonical_filtration(C).polygon != code_polygon(C):
                    return False
        return True
    check("galois-and-filtration-engine", galois_engine)

    def schaathun():
        C = zoo.binary_3_2()
        if schaathun_bound_table(C, C) != (0, 4, 6, 8, 9):
            return False
        if not schaathun_verify(C, C):
            return False
        for _ in range(20):
            kA, kB = rng.randrange(1, 4), rng.randrange(1, 4)
            dA, dB = [0], [0]
            for _ in range(kA):
                dA.append(dA[-1] + rng.randrange(1, 4))
            for _ in range(kB):
                dB.append(dB[-1] + rng.randrange(1, 4))
            for r in range(kA * kB + 1):
                if (schaathun_bound(dA, dB, r)
                        != schaathun_bound(dA, dB, r, exact_sum=True)):
                    return False
        T = C.tensor(C)
        for _ in range(25):
            D = zoo.random_subcode(rng, T, rng.randrange(1, T.k + 1))
            witness(D, C, C)
        return True
    check("schaathun-bound-and-witnesses", schaathun)

    def tensor_ss():
        C = zoo.binary_3_2()
        R = zoo.repetition(f2, 2)
        return (tensor_semistable_check(C, C)
                and tensor_semistable_check(R, R)
                and wei_yang_check(R, R))
    check("tensor-semistability", tensor_ss)

    def matroids():
        for C in pool(10, 7, fields=(f2, f3)):
            M = matroid_from_code(C)
            if not (rr_matroid_check(M) and gap_counts_check(M)
                    and gap_duality_check(M) and wei_partition_check(M)
                    and dual_polygon_check(M)):
                return False
        for k in range(5):
            for n in range(max(k, 1), 7):
                M = uniform_matroid(k, n)
                if not (rr_matroid_check(M) and gap_counts_check(M)
                        and wei_partition_check(M)):
                    return False
        return True
    check("matroid-suite", matroids)

    return out


def cmd_selftest(args):
    checks = _selftest_checks()
    ok = all(c["ok"] for c in checks)
    results = {"checks": checks, "all_ok": ok}
    return _report("selftest", [], results), not ok


# -- entry point ------------------------------------------------------------

def _int_arg(x: str) -> int:
    return int(x, 0)


def _cap_arg(x: str) -> int:
    n = int(x)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hncodes",
        description="Exact semistability invariants of linear codes and "
                    "matroids: polygons, filtrations, weight hierarchies, "
                    "and their duality theorems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_cap=True):
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        if with_cap:
            sp.add_argument("--max-enum", type=_cap_arg, metavar="N",
                            default=SUBSET_ENUM_CAP,
                            help="refuse any exhaustive search of more than "
                                 "2^N column subsets (of the largest block, "
                                 "for a code's least ranks), subcodes or "
                                 "pairs (default %(default)s)")

    sp = sub.add_parser("weights", help="weight hierarchy d_i and profile "
                                        "k_j of a code")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(fn=cmd_weights)

    sp = sub.add_parser("polygon", help="canonical concave polygon")
    sp.add_argument("file")
    sp.add_argument("--side", choices=("code", "subset"), default="code")
    sp.add_argument("--svg", metavar="PATH", default=None)
    common(sp)
    sp.set_defaults(fn=cmd_polygon)

    sp = sub.add_parser("filtration", help="canonical filtration steps")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(fn=cmd_filtration)

    sp = sub.add_parser("semistable", help="semistability / stability "
                                           "verdicts and witness")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(fn=cmd_semistable)

    sp = sub.add_parser("dual", help="dual code, dual polygon, slope map")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(fn=cmd_dual)

    sp = sub.add_parser("rr", help="cohomology h0/h1 and duality identities")
    sp.add_argument("file")
    which = sp.add_mutually_exclusive_group(required=True)
    which.add_argument("--J", type=_int_arg, metavar="BITMASK")
    which.add_argument("--all", action="store_true")
    common(sp)
    sp.set_defaults(fn=cmd_rr)

    sp = sub.add_parser("tensor", help="tensor product hierarchy vs the "
                                       "dynamic-programming bound")
    sp.add_argument("file_a")
    sp.add_argument("file_b")
    common(sp)
    sp.set_defaults(fn=cmd_tensor)

    sp = sub.add_parser("matroid", help="matroid invariants and checks")
    sp.add_argument("file")
    common(sp, with_cap=False)
    sp.set_defaults(fn=cmd_matroid)

    sp = sub.add_parser("selftest", help="golden examples and property "
                                         "suites at built-in sizes")
    common(sp, with_cap=False)
    sp.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        with enumeration_cap(_cap(args)):
            report, violated = args.fn(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SizeLimitExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Error as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    _emit(report, args.format)
    elapsed = (time.perf_counter() - t0) * 1000.0
    print(f"# timing: {elapsed:.1f} ms", file=sys.stderr)
    return 1 if violated else 0


if __name__ == "__main__":
    sys.exit(main())
