"""Per-layer tracing by wrapping hncodes' public functions from outside.

Nothing in `src/` is edited.  `Tracer.install()` rebinds each function in
LAYERS in every loaded module namespace that holds it (and sets the class
attribute for methods); `uninstall()` puts the originals back.

Span layers record (name, start, end, parent span, op id) in memory; a
layer's self time is its span duration minus the time covered by its
direct child spans.  Count layers only count calls, because they sit on
paths hot enough that a span per call would dominate the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

SPAN, COUNT = "span", "count"

# (layer name, module, class or None, attribute, kind)
LAYERS = [
    ("algebra.field_build", "hncodes.algebra", "FieldSpec", "__init__", SPAN),
    ("algebra.matrix_new", "hncodes.algebra", "Matrix", "__init__", COUNT),
    ("algebra.rref", "hncodes.algebra", "Matrix", "rref", SPAN),
    ("algebra.nullspace", "hncodes.algebra", "Matrix", "right_nullspace",
     SPAN),
    ("algebra.rank_table", "hncodes.algebra", None, "column_rank_table",
     SPAN),
    ("algebra.min_rank", "hncodes.algebra", None, "min_column_rank_by_size",
     SPAN),
    ("code.code_new", "hncodes.code", "LinearCode", "__init__", COUNT),
    ("code.shorten", "hncodes.code", "LinearCode", "shorten", SPAN),
    ("code.dual", "hncodes.code", "LinearCode", "dual", SPAN),
    ("code.tensor", "hncodes.code", "LinearCode", "tensor", SPAN),
    ("hn.filtration", "hncodes.hn", None, "canonical_filtration", SPAN),
    ("hn.witness", "hncodes.hn", None, "semistability_witness", SPAN),
    ("hn.graded", "hncodes.hn", None, "graded_pieces", SPAN),
    ("hn.semistable", "hncodes.hn", None, "is_semistable", SPAN),
    ("hn.semistable", "hncodes.hn", None, "is_stable", SPAN),
    ("hn.lattice_build", "hncodes.hn", "SubspaceLattice", "__init__", SPAN),
    ("hn.lattice_join", "hncodes.hn", "SubspaceLattice", "join", SPAN),
    ("hn.parallelogram", "hncodes.hn", None, "verify_parallelogram", SPAN),
    ("hn.gap_condition", "hncodes.hn", None, "gap_condition_check", SPAN),
    ("hn.galois", "hncodes.hn", None, "verify_galois", SPAN),
    ("rr.rr_serre", "hncodes.rr", None, "rr_check", SPAN),
    ("rr.rr_serre", "hncodes.rr", None, "serre_check", SPAN),
    ("rr.wei", "hncodes.rr", None, "wei_duality_check", SPAN),
    ("rr.wei", "hncodes.rr", None, "dual_dlp_check", SPAN),
    ("rr.dual_polygon", "hncodes.rr", None, "dual_polygon", SPAN),
    ("tensor.dp", "hncodes.tensor", None, "schaathun_bound", SPAN),
    ("tensor.witness", "hncodes.tensor", None, "witness", SPAN),
    ("tensor.chained", "hncodes.tensor", None, "is_chained", SPAN),
    ("tensor.semistable_check", "hncodes.tensor", None,
     "tensor_semistable_check", SPAN),
    ("matroid.build", "hncodes.matroid", "Matroid", "__init__", SPAN),
    ("matroid.build", "hncodes.matroid", None, "matroid_from_code", SPAN),
    ("matroid.build", "hncodes.matroid", None, "matroid_from_bases", SPAN),
    ("matroid.profile", "hncodes.matroid", "Matroid", "profile", SPAN),
    ("matroid.profile", "hncodes.matroid", "Matroid", "polygon", SPAN),
    ("matroid.filtration", "hncodes.matroid", "Matroid", "filtration", SPAN),
    ("matroid.filtration", "hncodes.matroid", "Matroid", "graded", SPAN),
    ("matroid.checks", "hncodes.matroid", None, "rr_matroid_check", SPAN),
    ("matroid.checks", "hncodes.matroid", None, "gap_counts_check", SPAN),
    ("matroid.checks", "hncodes.matroid", None, "gap_duality_check", SPAN),
    ("matroid.checks", "hncodes.matroid", None, "wei_partition_check", SPAN),
    ("matroid.checks", "hncodes.matroid", None, "dual_polygon_check", SPAN),
]

# Layers that exist only inside a `python -m hncodes` child.
CLI_LAYERS = [
    ("formats.parse", "hncodes.formats", None, "parse_code_file", SPAN),
    ("formats.parse", "hncodes.formats", None, "parse_matroid_file", SPAN),
    ("cli.emit", "hncodes.cli", None, "_emit", SPAN),
] + [("cli.command", "hncodes.cli", None, f"cmd_{name}", SPAN)
     for name in ("weights", "polygon", "filtration", "semistable", "dual",
                  "rr", "tensor", "matroid", "selftest")]

# Span layers reported with `.s` and `.calls`; the import span is recorded
# by the child itself because it happens before any wrapper can exist.
SPAN_NAMES = sorted({name for name, *_, kind in LAYERS + CLI_LAYERS
                     if kind == SPAN} | {"cli.import"})
COUNT_NAMES = sorted({name for name, *_, kind in LAYERS if kind == COUNT})


class Tracer:
    """Installs span and count wrappers; holds what they record."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: list = []          # (name, t0, t1, parent, op)
        self.counts = defaultdict(int)
        self.rank_table_bytes = 0
        self.rank_table_memo = [0, 0]  # [calls, hits] of LinearCode.rank_table
        self.lattice_elements = 0
        self.op = "setup"
        self._stack: list = []
        self._patches: list = []       # (namespace, attribute, original)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _footprint(self, attr, fn):
        """Wrappers that record the size of what a layer keeps in memory."""
        if attr == "column_rank_table":
            def wrapper(*args, **kwargs):
                table = fn(*args, **kwargs)
                self.rank_table_bytes += len(table)
                return table
        elif attr == "rank_table":
            memo = self.rank_table_memo

            def wrapper(code, *args, **kwargs):
                memo[0] += 1
                memo[1] += code._rtab is not None
                return fn(code, *args, **kwargs)
        else:  # SubspaceLattice.__init__
            def wrapper(lattice, *args, **kwargs):
                fn(lattice, *args, **kwargs)
                self.lattice_elements += len(lattice.elements)
        return wrapper

    # -- installation -------------------------------------------------------

    def _rebind(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _rebind_everywhere(self, original, new):
        """Every loaded module that holds the function: the library's own
        modules, and callers such as the benchmark's workloads, which must
        therefore be imported before install()."""
        for mod in list(sys.modules.values()):
            for attr, value in list(getattr(mod, "__dict__", {}).items()):
                if value is original:
                    self._rebind(mod, attr, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        footprints = [("hncodes.algebra", None, "column_rank_table"),
                      ("hncodes.code", "LinearCode", "rank_table"),
                      ("hncodes.hn", "SubspaceLattice", "__init__")]
        plan = list(self.layers)
        plan += [(None, m, c, a, "footprint") for m, c, a in footprints]
        for name, modname, clsname, attr, kind in plan:
            mod = importlib.import_module(modname)
            owner = getattr(mod, clsname) if clsname else mod
            original = owner.__dict__[attr]
            if kind == SPAN:
                new = self._span(name, original)
            elif kind == COUNT:
                new = self._count(name, original)
            else:
                new = self._footprint(attr, original)
            if clsname:
                self._rebind(owner, attr, new)
            else:
                self._rebind_everywhere(original, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def layer_totals(spans) -> dict:
    """{name: [calls, self seconds]} from a list of span tuples."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = defaultdict(lambda: [0, 0.0])
    for i, (name, t0, t1, _, _) in enumerate(spans):
        acc = out[name]
        acc[0] += 1
        acc[1] += (t1 - t0) - child[i]
    return dict(out)
